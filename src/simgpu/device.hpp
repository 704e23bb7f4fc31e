// The simulated GPU device: three allocation arenas (device, pinned host,
// managed/UVM), a stream engine over an SM worker pool, and activity
// counters. This object *is* the stateful "CUDA library + GPU" that CRAC's
// lower half hosts: destroying it and constructing a fresh one models the
// restart-time replacement of the lower half.
#pragma once

#include <atomic>
#include <memory>

#include "ckpt/dirty.hpp"
#include "ckpt/snapstore.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "simgpu/arena_allocator.hpp"
#include "simgpu/stream_engine.hpp"
#include "simgpu/types.hpp"
#include "simgpu/uvm_manager.hpp"

namespace crac::sim {

class Device {
 public:
  explicit Device(const DeviceConfig& config = {});
  ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  DeviceProperties properties() const;
  const DeviceConfig& config() const noexcept { return config_; }

  // --- memory ---
  Result<void*> malloc_device(std::size_t bytes);
  Result<void*> malloc_pinned(std::size_t bytes);
  Result<void*> malloc_managed(std::size_t bytes);
  Status free_any(void* p);  // routes to the owning arena (cudaFree is UVA)

  ArenaAllocator& device_arena() noexcept { return *device_arena_; }
  ArenaAllocator& pinned_arena() noexcept { return *pinned_arena_; }
  UvmManager& uvm() noexcept { return *uvm_; }
  const UvmManager& uvm() const noexcept { return *uvm_; }

  // UVA pointer classification.
  bool is_device_ptr(const void* p) const noexcept {
    return device_arena_->contains(p);
  }
  bool is_pinned_ptr(const void* p) const noexcept {
    return pinned_arena_->contains(p);
  }
  bool is_managed_ptr(const void* p) const noexcept {
    return uvm_->contains(p);
  }
  MemcpyKind infer_kind(const void* dst, const void* src) const noexcept;

  // --- execution ---
  StreamEngine& streams() noexcept { return *streams_; }
  const StreamEngine& streams() const noexcept { return *streams_; }

  // Synchronous memcpy/memset on the default stream (cudaMemcpy semantics:
  // enqueue then wait).
  Status memcpy_sync(void* dst, const void* src, std::size_t n, MemcpyKind kind);
  Status memset_sync(void* dst, int value, std::size_t n);
  Status synchronize();  // cudaDeviceSynchronize

  DeviceCounters counters() const;
  void count_kernel_launch() noexcept {
    kernels_launched_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- change-block tracking (delta checkpoints) ---
  // One tracker per arena, covering the whole reservation at the default
  // chunk granularity. Every mutating path on this device marks through
  // them: arena allocate/free/restore, UVM fault/prefetch, stream-engine
  // memsets/memcpys/kernel launches (via note_write).
  ckpt::DirtyTracker& device_dirty() noexcept { return *device_dirty_; }
  ckpt::DirtyTracker& pinned_dirty() noexcept { return *pinned_dirty_; }
  ckpt::DirtyTracker& managed_dirty() noexcept { return *managed_dirty_; }

  // Routes a possibly-written range to its arena's tracker. n == 0 means
  // "whatever allocation contains p" (conservative kernel-arg attribution);
  // untracked pointers are ignored. While a snapshot is armed the resolved
  // range is also preserved into the snapstore *before* the mark — this is
  // the single choke point all four mutating paths (arena allocate/free,
  // stream memset/memcpy/kernel-arg, UVM fault, proxy shadow writes) flow
  // through or mirror.
  void note_write(const void* p, std::size_t n) noexcept;

  // --- copy-on-write snapshot capture ---
  // Re-arms UVM protection so every first write faults (and preserves),
  // then arms the overlay over each of the three arenas' committed spans.
  // The order matters: arming publishes armed(), and a writer that has seen it
  // must not find a managed page still writable. Call with the world
  // stopped (streams drained); on return the application may resume while
  // the capture reads the frozen state via snap_overlay().
  Status arm_snapshot();
  void release_snapshot();
  ckpt::SnapOverlay& snap_overlay() noexcept { return *snap_overlay_; }

 private:
  DeviceConfig config_;
  std::unique_ptr<ThreadPool> sm_pool_;
  std::unique_ptr<ArenaAllocator> device_arena_;
  std::unique_ptr<ArenaAllocator> pinned_arena_;
  std::unique_ptr<UvmManager> uvm_;
  std::unique_ptr<ckpt::DirtyTracker> device_dirty_;
  std::unique_ptr<ckpt::DirtyTracker> pinned_dirty_;
  std::unique_ptr<ckpt::DirtyTracker> managed_dirty_;
  std::unique_ptr<ckpt::SnapOverlay> snap_overlay_;
  std::unique_ptr<StreamEngine> streams_;

  std::atomic<std::uint64_t> kernels_launched_{0};
  std::atomic<std::uint64_t> memcpys_{0};
  std::atomic<std::uint64_t> memcpy_bytes_{0};
  std::atomic<std::uint64_t> memsets_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
};

}  // namespace crac::sim
