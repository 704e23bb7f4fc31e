// The CRAC plugin: the paper's primary contribution.
//
// Two roles in one object, as in the paper's DMTCP-plugin architecture:
//
//  1. A CUDA-API interposer (ForwardingApi): wraps the application's view of
//     the runtime and *logs* every call in the cudaMalloc family plus every
//     resource creation (streams, events, fat binaries). Data-path calls
//     (launches, memcpys) are forwarded untouched — this is where the "log
//     only pointers, not mmap traffic" design keeps runtime overhead at ~1%.
//
//  2. The checkpoint side, which CracContext calls directly: freeze() drains
//     the device (synchronize) and returns the frozen logical snapshot;
//     write_sections() copies the contents of every *active* allocation —
//     not whole arenas — into image sections (§3.2.3); at restart,
//     restart() replays the *entire* log against the fresh lower half,
//     verifies address determinism, refills contents, restores UVM
//     residency, and re-registers the application's fat binaries (§3.2.4-5).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/image.hpp"
#include "crac/api_log.hpp"
#include "crac/split_process.hpp"
#include "simcuda/forwarding_api.hpp"

namespace crac {

enum class AllocKind : std::uint8_t {
  kDevice = 0,
  kPinnedHost = 1,
  kManaged = 2,
};

struct ActiveAlloc {
  std::uint64_t size = 0;
  AllocKind kind = AllocKind::kDevice;
  std::uint32_t flags = 0;
};

// Plan for an incremental "allocations" drain, passed to freeze() by a
// delta capture. base_device_gen is the device dirty-tracker
// generation the base checkpoint captured; alloc_fingerprint hashes the
// allocation table (addr, size, kind, flags, in order) as of the base.
// drain_allocations narrows device-buffer contents to chunks dirty since
// base_device_gen when the live table still matches the fingerprint, and
// falls back to a full drain otherwise — a delta is only valid against the
// exact payload layout it was computed from.
struct DeltaDrainPlan {
  std::uint64_t base_device_gen = 0;
  std::uint64_t alloc_fingerprint = 0;
};

struct ReplayStats {
  std::size_t calls_replayed = 0;
  std::size_t allocations_restored = 0;
  std::size_t frees_replayed = 0;
  std::size_t streams_recreated = 0;
  std::size_t events_recreated = 0;
  std::size_t fatbins_reregistered = 0;
  std::size_t kernels_reregistered = 0;
  std::uint64_t bytes_refilled = 0;
  std::size_t uvm_pages_restored = 0;
};

class CracPlugin final : public cuda::ForwardingApi {
 public:
  // `process` provides the trampolined API this interposer forwards to, and
  // the restart hooks (discard/load lower half).
  explicit CracPlugin(SplitProcess* process);

  // --- interposed calls (logged) ---
  cuda::cudaError_t cudaMalloc(void** p, std::size_t n) override;
  cuda::cudaError_t cudaFree(void* p) override;
  cuda::cudaError_t cudaMallocHost(void** p, std::size_t n) override;
  cuda::cudaError_t cudaHostAlloc(void** p, std::size_t n,
                                  unsigned flags) override;
  cuda::cudaError_t cudaFreeHost(void* p) override;
  cuda::cudaError_t cudaMallocManaged(void** p, std::size_t n,
                                      unsigned flags) override;
  cuda::cudaError_t cudaStreamCreate(cuda::cudaStream_t* stream) override;
  cuda::cudaError_t cudaStreamDestroy(cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaEventCreate(cuda::cudaEvent_t* event) override;
  cuda::cudaError_t cudaEventDestroy(cuda::cudaEvent_t event) override;
  cuda::FatBinaryHandle cudaRegisterFatBinary(
      const cuda::FatBinaryDesc* desc) override;
  void cudaRegisterFunction(cuda::FatBinaryHandle handle,
                            const cuda::KernelRegistration& reg) override;
  void cudaUnregisterFatBinary(cuda::FatBinaryHandle handle) override;

  // The logical snapshot freeze() pins while the world is stopped. Every
  // byte write_sections() writes comes from here (metadata) or from memory
  // reads that go through the COW overlay (contents) — never from plugin
  // state that post-release application activity could have moved.
  struct FrozenCapture {
    std::vector<std::byte> fatbins;
    std::vector<std::byte> log;
    std::vector<std::byte> uvm_payload;
    std::vector<std::byte> streams;
    std::vector<std::pair<std::uint64_t, ActiveAlloc>> allocs;
    // Delta-plan resolution, decided at freeze time: the dirty runs are
    // computed before the context advances the trackers, so post-release
    // writes (which belong to the *next* delta) can never leak in.
    bool delta = false;
    std::map<std::uint64_t,
             std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        dirty_runs;  // device-alloc addr -> [(offset, length)...]
  };

  // Drains the device work queue, then captures the plugin's entire logical
  // snapshot: serialized log, fat-binary records, allocation table, UVM
  // residency, stream inventory, and — given a delta plan whose fingerprint
  // still matches — the exact dirty runs of every device allocation. Only
  // allocation contents are left behind, for write_sections() to read
  // through the COW overlay while the application runs again. The snapshot
  // is returned, not kept: every capture drains the device anew, and a
  // failed one leaves nothing for the next to reuse.
  Result<FrozenCapture> freeze(const std::optional<DeltaDrainPlan>& delta_plan);
  // Writes the plugin sections from `capture`, in the order restart()
  // consumes them (fat binaries, log, allocation contents, residency,
  // stream inventory): the image streams in write order, so a
  // restore-while-receiving peer replays each section as it lands (see
  // docs/image_format.md, "Streaming restore ordering contract").
  Status write_sections(ckpt::ImageWriter& image, FrozenCapture capture);
  // In the restarted process, after upper-half memory has been restored:
  // replays this plugin's log against the current (fresh) lower half and
  // rebuilds device state from the image. The reader is non-const because
  // section payloads stream off the image source on demand.
  Status restart(ckpt::ImageReader& image);

  // --- introspection ---
  const CudaApiLog& log() const noexcept { return log_; }
  std::size_t active_allocation_count() const;
  std::uint64_t active_allocation_bytes() const;
  const ReplayStats& last_replay_stats() const noexcept { return last_replay_; }

  // --- incremental drains ---
  // FNV-1a over the live allocation table; equal fingerprints mean the
  // drained payload layout (headers and content extents) is identical.
  std::uint64_t allocation_fingerprint() const;

  // True when the most recent drain actually wrote a delta section rather
  // than falling back to a full drain.
  bool last_drain_was_delta() const noexcept { return last_drain_was_delta_; }

 private:
  struct FatbinEntry {
    cuda::FatBinaryDesc desc;
    cuda::FatBinaryHandle handle = nullptr;  // current incarnation's handle
    std::vector<cuda::KernelRegistration> functions;
    bool unregistered = false;
  };

  // After a cross-process restart the application's registration objects
  // (KernelModule internals) do not exist, so replayed registrations point
  // into plugin-owned copies of the name and argument-size table. Function
  // pointers themselves refer to program text, which coincides across
  // processes because ASLR is disabled (§3.2.4).
  struct RegStorage {
    std::string name;
    std::vector<std::size_t> arg_sizes;
  };

  void log_alloc(LogOp op, void* p, std::size_t n, unsigned flags,
                 AllocKind kind);
  // Reads `n` content bytes at `addr` as of the freeze instant: through the
  // armed COW overlay when one is active, through the CUDA API otherwise.
  Status read_frozen_contents(std::uint64_t addr, std::size_t n,
                              AllocKind kind, std::byte* dst);
  Status drain_allocations(ckpt::ImageWriter& image, const FrozenCapture& fc);
  Status drain_allocations_delta(ckpt::ImageWriter& image,
                                 const FrozenCapture& fc);
  Status drain_streams(ckpt::ImageWriter& image, const FrozenCapture& fc);
  Status refill_allocations(ckpt::ImageReader& image, ReplayStats* stats);
  Status restore_uvm_residency(ckpt::ImageReader& image, ReplayStats* stats);

  SplitProcess* process_;
  mutable std::mutex mu_;
  CudaApiLog log_;
  std::map<std::uint64_t, ActiveAlloc> active_;
  std::vector<FatbinEntry> fatbins_;        // indexed by sequence id
  std::vector<std::unique_ptr<RegStorage>> reg_storage_;
  std::map<cuda::FatBinaryHandle, std::size_t> handle_to_seq_;
  std::vector<cuda::cudaStream_t> live_streams_;
  std::vector<cuda::cudaEvent_t> live_events_;
  ReplayStats last_replay_;
  bool last_drain_was_delta_ = false;
};

}  // namespace crac
