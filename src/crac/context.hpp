// CracContext — the library's public entry point.
//
// A CracContext is the checkpointable CUDA "process": it assembles the split
// process (upper/lower halves), installs the CRAC plugin as the interposer
// the application calls through, and exposes the checkpoint/restart verbs.
//
//   CracContext ctx;
//   auto& api = ctx.api();              // program against simcuda API
//   ...
//   ctx.checkpoint("app.crac");         // at any point, any CUDA state
//   ...
//   // later / elsewhere:
//   auto ctx2 = CracContext::restart_from_image("app.crac");
//   // device state, streams, UVM residency, kernels — all rebuilt; upper
//   // heap bytes restored at their original addresses.
//
// restart_in_place() additionally demonstrates the paper's restart sequence
// inside one OS process (discard lower half -> fresh lower half -> replay),
// which is what a spot-instance migration on an identical node amounts to.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"
#include "common/thread_pool.hpp"
#include "crac/crac_plugin.hpp"
#include "crac/split_process.hpp"

namespace crac {

struct CracOptions {
  SplitProcessOptions split;
  // Paper runs with gzip disabled. A compressing codec encodes chunks in
  // parallel on a pool of one worker per hardware thread (none on a single
  // core); store-codec chunks are CRC'd inline either way.
  ckpt::Codec codec = ckpt::Codec::kStore;
  // Copy-on-write capture: the stop-the-world window shrinks to drain
  // streams + advance trackers + arm the snapshot overlay, and the
  // application resumes while the drain reads the frozen state through the
  // overlay (writes racing the capture preserve their pre-images into a
  // bounded snapstore first). The image is byte-identical to a
  // stop-the-world capture of the same frozen instant — proved by
  // SnapshotCracContextTest.CowImageMatchesStopTheWorld. false restores
  // the classic full-pause protocol.
  bool cow_capture = true;
};

struct CheckpointReport {
  double drain_s = 0;      // plugin freeze (device drain) + plugin sections
  double memory_s = 0;     // upper-half memory snapshot
  double write_s = 0;      // serialization + file write
  double total_s = 0;
  // How long the application actually stood still: freeze to release. In
  // COW mode this covers only drain + tracker advance + overlay arm; in
  // stop-the-world mode it spans the entire capture (≈ total_s).
  double pause_s = 0;
  std::uint64_t image_bytes = 0;      // bytes written to disk
  std::uint64_t raw_bytes = 0;        // pre-compression payload bytes
  std::size_t upper_regions = 0;
  std::size_t active_allocations = 0;
  std::string image_id;     // random identity written into the image
  bool delta_image = false; // written as a v4 delta naming a parent image
  bool cow_capture = false; // captured through the snapshot overlay
  // Snapstore footprint of this capture (COW mode only): pre-image bytes
  // held at peak, and how many chunks writers preserved.
  std::uint64_t snapstore_peak_bytes = 0;
  std::uint64_t snapstore_preserved_chunks = 0;
};

struct RestartReport {
  double read_s = 0;    // file read + integrity checks
  double memory_s = 0;  // upper-half memory restore
  double replay_s = 0;  // full-log replay against the fresh lower half
  double total_s = 0;
  // True when the source was still receiving when restore began
  // (restore-while-receiving): the phase times above then overlap the
  // transfer instead of following it.
  bool overlapped_receive = false;
  ReplayStats replay;
};

class CracContext {
 public:
  explicit CracContext(const CracOptions& options = {});
  ~CracContext();

  CracContext(const CracContext&) = delete;
  CracContext& operator=(const CracContext&) = delete;

  // The interposed API the application must use.
  cuda::CudaApi& api() noexcept { return *plugin_; }

  UpperHeap& heap() noexcept { return process_->heap(); }
  SplitProcess& process() noexcept { return *process_; }
  CracPlugin& plugin() noexcept { return *plugin_; }

  // Application root object (an upper-heap pointer): the one address the
  // application needs back after restart to find all its state.
  void set_root(void* p) noexcept { root_ = p; }
  void* root() const noexcept { return root_; }

  // CUDA calls-per-second denominator: upper->lower transitions.
  std::uint64_t cuda_calls() const noexcept {
    return process_->trampoline().transitions();
  }

  // Streams a checkpoint image to `path` through a temp file renamed into
  // place: a failed checkpoint never destroys the previous image at the
  // path. Blocks until committed; call from the application thread with
  // the device quiesced by the drain.
  Result<CheckpointReport> checkpoint(const std::string& path);

  // Incremental checkpoint: writes a v4 delta image at `path` whose
  // "allocations" section carries only the device-buffer chunks dirtied
  // since the most recent checkpoint this context committed (the base may
  // itself be a delta — chains restore newest-last). Pinned and managed
  // contents, upper memory, and the log ship in full; the savings scale
  // with device footprint, which dominates the images the paper measures.
  // Fails with FailedPrecondition when no base exists or device memory was
  // restored since the base (the dirty history no longer describes it) —
  // take a full checkpoint() first. Restoring `path` later resolves the
  // chain automatically (restart_from_image / restart_in_place).
  Result<CheckpointReport> checkpoint_delta(const std::string& path);

  // Identity of the most recent image this context wrote (the payload of
  // its "image-id" metadata section); empty before the first checkpoint.
  const std::string& last_image_id() const noexcept { return last_image_id_; }

  // Path-free checkpoint: streams the image (plugin drain, upper-memory
  // snapshot, chunk pipeline) into `sink` and closes it. Every consumer of
  // the checkpoint verb is transport-agnostic through this — a file or a
  // live socket to a peer are both just sinks. The path verbs above run
  // the same capture into a temp file renamed into place; ship a live
  // checkpoint by passing a ckpt::SocketSink. Blocks until the sink has
  // accepted and closed the whole stream (for a socket, until the peer has
  // drained it); chunk encoding runs on the context's internal pool.
  // Sections go out in restore order — the contract that makes
  // restore-while-receiving possible on the far end.
  Result<CheckpointReport> checkpoint_to_sink(ckpt::Sink& sink);

  // Restart path A (paper's normal mode, here within a fresh context that
  // models the restarted process): construct everything anew from an image.
  static Result<std::unique_ptr<CracContext>> restart_from_image(
      const std::string& path, const CracOptions& options = {},
      RestartReport* report = nullptr);

  // Path-free restart core: construct everything anew from an image read
  // off `source` — the receive half of live checkpoint shipping (pass a
  // ckpt::StreamingSpoolSource fed from a socket). restart_from_image is a
  // thin wrapper that opens a ckpt::FileSource for a path.
  //
  // Overlapped mode engages automatically when the source is still filling
  // (ckpt::StreamingSpoolSource::start, end_known() == false): the
  // directory scan and every section restore chase the receive frontier,
  // so restore runs concurrently with the transfer and blocks only on
  // ranges that have not landed yet. The integrity guarantee is unchanged —
  // a successful restart has CRC-checked every section *and* the transport
  // trailer (the restore ends with verify_unread_sections, which forces
  // the scan to the verified end of stream). A mid-transfer failure aborts
  // the restart with the stream's named error; the half-built context is
  // discarded, never returned.
  static Result<std::unique_ptr<CracContext>> restart_from_source(
      std::unique_ptr<ckpt::Source> source, const CracOptions& options = {},
      RestartReport* report = nullptr);

  // Restart path B: same process, discard + reload the lower half, restore
  // upper memory from the image, replay. Blocks until the replay finishes;
  // the context is unusable if it fails partway.
  Result<RestartReport> restart_in_place(const std::string& path);

 private:
  // What a delta capture needs to know about the image it deltas against:
  // identity (verified at restore), location (chain resolution), and the
  // change-tracking capture point (generation + epoch + table fingerprint).
  struct DeltaBaseState {
    std::string image_id;
    std::string path;
    std::uint64_t device_gen = 0;
    std::string device_epoch;
    std::uint64_t alloc_fingerprint = 0;
  };

  // The one capture sequence behind every checkpoint verb: freeze (device
  // drain), stamp, upper memory, end of pause, plugin sections, close.
  // `base` names the image a v4 delta patches; null writes a full image.
  // On success `captured` (when given) receives this image's capture
  // point, for a later delta against it.
  Result<CheckpointReport> capture(ckpt::Sink& sink,
                                   const DeltaBaseState* base,
                                   DeltaBaseState* captured);
  // capture() into a temp file renamed onto `path` once complete; the
  // committed image becomes the base later deltas chain onto.
  Result<CheckpointReport> capture_to_file(const std::string& path,
                                           const DeltaBaseState* base);
  // Where a restart reads the image at `path` from: the file itself, or —
  // for a v4 delta — its chain materialized into one full image in memory.
  static Result<std::unique_ptr<ckpt::Source>> open_image_source(
      const std::string& path);
  Status restore_from_reader(ckpt::ImageReader& reader,
                             RestartReport* report);
  // Path-free restore core: opens the image directory over `source` and
  // restores this context's state from it.
  Status restore_from_source(std::unique_ptr<ckpt::Source> source,
                             RestartReport* report);
  ThreadPool* ckpt_pool();

  CracOptions options_;
  std::unique_ptr<SplitProcess> process_;
  std::unique_ptr<CracPlugin> plugin_;
  std::unique_ptr<ThreadPool> ckpt_pool_;  // lazily created, reused across checkpoints
  void* root_ = nullptr;
  std::optional<DeltaBaseState> delta_base_;
  std::string last_image_id_;
};

}  // namespace crac
