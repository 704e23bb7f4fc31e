// The CRAC plugin: the paper's primary contribution.
//
// Two roles in one object, exactly as in the DMTCP-plugin architecture:
//
//  1. A CUDA-API interposer (ForwardingApi): wraps the application's view of
//     the runtime and *logs* every call in the cudaMalloc family plus every
//     resource creation (streams, events, fat binaries). Data-path calls
//     (launches, memcpys) are forwarded untouched — this is where the "log
//     only pointers, not mmap traffic" design keeps runtime overhead at ~1%.
//
//  2. A checkpoint plugin (CkptPlugin): at precheckpoint it drains the
//     device (synchronize, then copy the contents of every *active*
//     allocation — not whole arenas — into image sections, §3.2.3); at
//     restart it replays the *entire* log against the fresh lower half,
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

#include "ckpt/plugin.hpp"
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

// Plan for an incremental "allocations" drain, set by the checkpoint driver
// before a delta capture. base_device_gen is the device dirty-tracker
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

class CracPlugin final : public cuda::ForwardingApi, public ckpt::CkptPlugin {
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

  // --- CkptPlugin ---
  std::string name() const override { return "crac"; }
  // Drains the device work queue so every section that follows sees a
  // settled world.
  Status quiesce() override;
  // freeze() quiesces and captures the plugin's entire logical snapshot —
  // serialized log, fat-binary records, allocation table, UVM residency,
  // stream inventory, and (when a delta plan is armed and its fingerprint
  // matches) the exact dirty runs of every device allocation. After
  // freeze(), precheckpoint() serializes only the frozen snapshot: the
  // application may already be running again, mutating live state behind a
  // COW overlay. Idempotent — a second freeze() on a frozen plugin is a
  // no-op, which is what makes the precheckpoint-standalone path safe
  // without the old defensive re-quiesce.
  Status freeze() override;
  // Marks the world resumed (the pause is over). Idempotent; resume() also
  // releases, so legacy stop-the-world flows stay paired. Pairing is
  // asserted in debug builds at destruction.
  Status release() override;
  Status precheckpoint(ckpt::ImageWriter& image) override;
  Status resume() override;
  Status restart(ckpt::ImageReader& image) override;

  ~CracPlugin() override;

  // Replays this plugin's own (in-memory) log against the process's current
  // lower half. Exposed for the in-place restart path and tests.
  Result<ReplayStats> replay_into_fresh_lower_half(ckpt::ImageReader& image);

  // --- introspection ---
  const CudaApiLog& log() const noexcept { return log_; }
  std::size_t active_allocation_count() const;
  std::uint64_t active_allocation_bytes() const;
  const ReplayStats& last_replay_stats() const noexcept { return last_replay_; }

  // --- incremental drains ---
  // Arms the next precheckpoint to write the "allocations" section as a
  // sparse kDeltaChunks patch (see DeltaDrainPlan). One-shot per capture;
  // cleared automatically after the drain runs.
  void set_delta_plan(const DeltaDrainPlan& plan);
  void clear_delta_plan();

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

  // The logical snapshot freeze() pins while the world is stopped. Every
  // byte precheckpoint() writes comes from here (metadata) or from memory
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
  std::optional<DeltaDrainPlan> delta_plan_;  // armed for the next drain
  bool last_drain_was_delta_ = false;
  // Snapshot pinned by freeze(), consumed by precheckpoint(). Only the
  // checkpoint-driving thread touches these (the plugin contract already
  // serializes the lifecycle hooks), so no lock.
  std::optional<FrozenCapture> frozen_;
  // True between freeze() and release(): the application believes it is
  // paused. Tracked separately from frozen_ because in COW mode release()
  // runs long before precheckpoint() consumes the snapshot.
  bool frozen_world_ = false;
};

}  // namespace crac
