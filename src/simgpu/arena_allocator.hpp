// Deterministic arena allocator modelling the CUDA driver's allocation
// behaviour that CRAC's log-and-replay depends on (paper §3.2.3-§3.2.4):
//
//  * the first allocation commits a large arena chunk via one (simulated)
//    mmap — later allocations usually touch no new mappings;
//  * a single logical allocation may commit *several* chunks (large
//    requests), so "interpose on mmap and replay it" is not viable;
//  * given the same sequence of allocate/free calls, the same addresses are
//    returned (deterministic first-fit over an address-ordered free list) —
//    this is the property replay exploits;
//  * active allocations are enumerable so a checkpoint can save exactly the
//    live buffers instead of the whole arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "simgpu/types.hpp"
#include "simgpu/va_reservation.hpp"

namespace crac::ckpt {
class DirtyTracker;
class SnapOverlay;
}  // namespace crac::ckpt

namespace crac::sim {

class ArenaAllocator {
 public:
  struct Config {
    std::uintptr_t va_base = 0;
    std::size_t capacity = 0;
    std::size_t chunk_size = 0;
    std::size_t alignment = 512;
    std::string purpose;   // "device" | "pinned" | "managed" (for hooks/logs)
    MmapHooks* hooks = nullptr;
  };

  explicit ArenaAllocator(const Config& config);
  ~ArenaAllocator();

  ArenaAllocator(const ArenaAllocator&) = delete;
  ArenaAllocator& operator=(const ArenaAllocator&) = delete;

  Result<void*> allocate(std::size_t bytes);
  Status free(void* p);

  bool contains(const void* p) const noexcept { return reservation_.contains(p); }
  bool is_fixed_base() const noexcept { return reservation_.is_fixed(); }
  void* arena_base() const noexcept { return reservation_.base(); }

  // Size of the live allocation starting exactly at p, or 0.
  std::size_t allocation_size(const void* p) const;

  // The live allocation containing p (base pointer + size), or nullopt.
  // Conservative write attribution (kernel pointer args) resolves interior
  // pointers to whole allocations through this.
  std::optional<std::pair<void*, std::size_t>> containing_allocation(
      const void* p) const;

  // Attaches a change-block tracker: allocate/free/restore mark the chunk
  // ranges they touch (restore starts a new tracker epoch — the mark
  // history cannot describe wholesale-replaced memory). The tracker must
  // outlive the allocator; nullptr detaches.
  void set_dirty_tracker(ckpt::DirtyTracker* tracker);
  ckpt::DirtyTracker* dirty_tracker() const;

  // Attaches a COW snapshot overlay: allocate/free preserve the pre-image
  // of the ranges they are about to repurpose before mutating allocator
  // maps, so a capture armed mid-stream still reads the frozen bytes.
  // (Allocation itself writes no payload bytes, but the returned range is
  // about to be written by the caller and freed holes may be re-carved —
  // preserving at the allocator boundary is the conservative hook that
  // covers both.) The overlay must outlive the allocator; nullptr detaches.
  void set_snap_overlay(ckpt::SnapOverlay* overlay);

  // Snapshot of live allocations (address -> size), address-ordered.
  std::map<void*, std::size_t> active_allocations() const;

  std::size_t active_bytes() const;
  std::size_t committed_bytes() const;
  std::size_t active_count() const;

  // Full allocator state as arena-relative offsets, for checkpointing the
  // *upper-half* heap (the lower-half arenas are never snapshotted — they
  // are recreated by log replay, which is the paper's whole point).
  struct Snapshot {
    std::uint64_t committed_bytes = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> free_list;  // off,size
    std::vector<std::pair<std::uint64_t, std::uint64_t>> active;     // off,size
  };
  Snapshot snapshot() const;

  // Pure validation half of restore(): rejects a snapshot that does not fit
  // this arena (committed span over capacity, entries outside the span) or
  // whose free/active entries are malformed (zero-size, duplicated, or
  // overlapping one another — a CRC-valid hostile stream must not install
  // allocations that alias) without touching any state. restore() runs it
  // first.
  Status validate_snapshot(const Snapshot& snap) const;

  // Rebuilds allocator state from a snapshot taken on an arena with the
  // same base/capacity: commits the recorded span and reinstates the free
  // and active maps. Validation (validate_snapshot) is complete before any
  // state changes, so a failed restore leaves the arena exactly as it was.
  Status restore(const Snapshot& snap);

 private:
  // Commit enough whole chunks to satisfy `need` bytes and append them to
  // the free list. Caller holds mu_.
  Status grow_locked(std::size_t need);

  // Insert [addr, addr+size) into the free map, coalescing neighbours.
  // Caller holds mu_.
  void insert_free_locked(std::uintptr_t addr, std::size_t size);

  Config config_;
  VaReservation reservation_;
  mutable std::mutex mu_;
  std::map<std::uintptr_t, std::size_t> free_by_addr_;
  std::map<void*, std::size_t> active_;
  std::uintptr_t committed_end_;  // one past the last committed byte
  std::size_t active_bytes_ = 0;
  ckpt::DirtyTracker* dirty_ = nullptr;
  ckpt::SnapOverlay* overlay_ = nullptr;
};

// Wire codec for Snapshot — the encoding of the CRAC upper heap's
// allocator-state image section:
//   [u64 committed_bytes][u64 free_count]([u64 off][u64 size])*
//   [u64 active_count]([u64 off][u64 size])*
std::vector<std::byte> encode_arena_snapshot(
    const ArenaAllocator::Snapshot& snap);
Result<ArenaAllocator::Snapshot> decode_arena_snapshot(const std::byte* data,
                                                       std::size_t size);

}  // namespace crac::sim
