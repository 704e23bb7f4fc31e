// Unified Virtual Memory simulation (CUDA 6.0+ cudaMallocManaged semantics).
//
// Managed memory lives in its own deterministic arena. Every UVM page
// (default 64 KiB) carries a residency state; "migration" is modelled with
// real page protection: a page resident on the opposite side is PROT_NONE,
// the first touching access raises SIGSEGV, the FaultRouter forwards the
// fault here, and the page is migrated (bookkeeping + counter) and
// unprotected so the access retries. Because host and device share one set
// of physical pages in the simulator (exactly the UVA property that broke
// pre-CUDA-4.0 checkpointing), data movement is implicit; what the paper's
// mechanism cares about — residency bookkeeping that cannot be recreated
// after destroying the CUDA library — is fully represented.
//
// One deliberate simplification (documented in DESIGN.md): there is a single
// page table for both sides, so after a fault unprotects a page, subsequent
// accesses from either side proceed without faulting until protection is
// re-armed (arm_all / arm_range / prefetch / checkpoint drain). Fault
// counters therefore measure first-touch migrations per arming epoch, which
// is the granularity the experiments consume.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "common/status.hpp"
#include "simgpu/arena_allocator.hpp"
#include "simgpu/types.hpp"

namespace crac::sim {

enum class PageResidency : std::uint8_t {
  kHost = 0,
  kDevice = 1,
};

struct UvmStats {
  std::uint64_t host_faults = 0;       // host touched a device-resident page
  std::uint64_t device_faults = 0;     // device touched a host-resident page
  std::uint64_t migrations_to_host = 0;
  std::uint64_t migrations_to_device = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t pages_tracked = 0;
};

class UvmManager {
 public:
  struct Config {
    std::uintptr_t va_base = 0;
    std::size_t capacity = 0;
    std::size_t chunk_size = 0;
    std::size_t alignment = 512;
    std::size_t page_size = std::size_t{64} << 10;
    double fault_cost_us = 0.0;
    MmapHooks* hooks = nullptr;
  };

  explicit UvmManager(const Config& config);
  ~UvmManager();

  UvmManager(const UvmManager&) = delete;
  UvmManager& operator=(const UvmManager&) = delete;

  // cudaMallocManaged / cudaFree for managed pointers.
  Result<void*> allocate(std::size_t bytes);
  Status free(void* p);

  bool contains(const void* p) const noexcept { return arena_.contains(p); }
  std::size_t allocation_size(const void* p) const {
    return arena_.allocation_size(p);
  }
  std::optional<std::pair<void*, std::size_t>> containing_allocation(
      const void* p) const {
    return arena_.containing_allocation(p);
  }

  // Change-block tracking: faults and prefetches mark the pages they
  // migrate; allocate/free/restore mark through the inner arena. The
  // tracker must outlive the manager; nullptr detaches.
  void set_dirty_tracker(ckpt::DirtyTracker* tracker) {
    arena_.set_dirty_tracker(tracker);
    dirty_.store(tracker, std::memory_order_release);
  }

  // COW snapshot overlay: the fault path preserves a page's pre-image
  // before unprotecting it for writes (allocate/free preserve through the
  // inner arena). The overlay must outlive the manager; nullptr detaches.
  void set_snap_overlay(ckpt::SnapOverlay* overlay) {
    arena_.set_snap_overlay(overlay);
    overlay_.store(overlay, std::memory_order_release);
  }
  std::map<void*, std::size_t> active_allocations() const {
    return arena_.active_allocations();
  }
  std::size_t active_bytes() const { return arena_.active_bytes(); }
  bool is_fixed_base() const noexcept { return arena_.is_fixed_base(); }
  void* arena_base() const noexcept { return arena_.arena_base(); }
  std::size_t committed_bytes() const { return arena_.committed_bytes(); }

  // Re-arm protection on every tracked page so the next access from either
  // side faults (starts a new fault-counting epoch).
  Status arm_all();
  Status arm_range(void* p, std::size_t bytes);

  // cudaMemPrefetchAsync semantics (synchronous part): mark the pages of
  // [p, p+bytes) resident on `to_device ? device : host` side and arm the
  // opposite side.
  Status prefetch(void* p, std::size_t bytes, bool to_device);

  // Drop all protection so the checkpoint drain can read every page without
  // faulting (and without perturbing counters).
  Status disarm_all();

  // Called from the SIGSEGV path. Returns true when the fault was handled.
  bool handle_fault(void* addr, bool device_context) noexcept;

  UvmStats stats() const;
  void reset_stats();

  std::size_t page_size() const noexcept { return config_.page_size; }

  // Residency of the page containing p (test/diagnostic hook).
  Result<PageResidency> residency(const void* p) const;

 private:
  // All-zero is a page's initial state: host-resident, disarmed.
  struct PageInfo {
    std::atomic<std::uint8_t> residency{
        static_cast<std::uint8_t>(PageResidency::kHost)};
    std::atomic<bool> armed{false};
  };

  // Pages are indexed relative to the arena base.
  std::size_t page_index(const void* p) const noexcept;
  void* page_base(std::size_t index) const noexcept;

  // Validates [p, p+bytes) against the reservation (named InvalidArgument on
  // overrun) and yields the clamped page range it covers.
  Status check_span(const void* p, std::size_t bytes, const char* what,
                    std::size_t& first, std::size_t& count) const;

  Config config_;
  ArenaAllocator arena_;

  // One flat record per page of the whole reservation, allocated once at
  // construction: 2 bytes a page, so an 8 GiB arena at 64 KiB pages costs
  // 256 KiB. The SIGSEGV path indexes it directly — no lock, no
  // allocation, nothing created lazily.
  std::size_t n_pages_;
  std::unique_ptr<PageInfo[]> pages_;

  std::atomic<std::uint64_t> host_faults_{0};
  std::atomic<std::uint64_t> device_faults_{0};
  std::atomic<std::uint64_t> migrations_to_host_{0};
  std::atomic<std::uint64_t> migrations_to_device_{0};
  std::atomic<std::uint64_t> prefetches_{0};

  // Marked from the SIGSEGV path (handle_fault), hence atomic, not mutexed.
  std::atomic<ckpt::DirtyTracker*> dirty_{nullptr};
  // Consulted from the SIGSEGV path too: pre-image preserve before a page
  // becomes writable under an armed snapshot.
  std::atomic<ckpt::SnapOverlay*> overlay_{nullptr};
};

}  // namespace crac::sim
