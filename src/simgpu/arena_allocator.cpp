#include "simgpu/arena_allocator.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "ckpt/dirty.hpp"
#include "ckpt/snapstore.hpp"

namespace crac::sim {

namespace {
// Overflow-checked round-up: (n + align - 1) wraps for near-SIZE_MAX
// requests, which would turn an absurd allocation into a tiny "successful"
// one. Returns false when the aligned size is not representable.
bool round_up(std::size_t n, std::size_t align, std::size_t& out) noexcept {
  if (n > SIZE_MAX - (align - 1)) return false;
  out = (n + align - 1) / align * align;
  return true;
}
}  // namespace

ArenaAllocator::ArenaAllocator(const Config& config)
    : config_(config),
      reservation_(config.va_base, config.capacity),
      committed_end_(reinterpret_cast<std::uintptr_t>(reservation_.base())) {
  CRAC_CHECK_MSG(reservation_.valid(),
                 "arena reservation failed for " << config_.purpose);
  CRAC_CHECK(config_.chunk_size > 0 && config_.alignment > 0);
}

ArenaAllocator::~ArenaAllocator() {
  const auto base = reinterpret_cast<std::uintptr_t>(reservation_.base());
  if (config_.hooks != nullptr && committed_end_ > base) {
    config_.hooks->on_release(reservation_.base(), committed_end_ - base);
  }
}

Result<void*> ArenaAllocator::allocate(std::size_t bytes) {
  if (bytes == 0) return InvalidArgument("zero-size allocation");
  std::size_t need = 0;
  if (!round_up(bytes, config_.alignment, need) ||
      need > reservation_.capacity()) {
    return OutOfMemory(config_.purpose + " allocation of " +
                       std::to_string(bytes) + " bytes exceeds the " +
                       std::to_string(reservation_.capacity()) +
                       "-byte arena reservation");
  }

  std::lock_guard<std::mutex> lock(mu_);

  // Deterministic first fit: lowest-address free block that fits.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (auto it = free_by_addr_.begin(); it != free_by_addr_.end(); ++it) {
      if (it->second < need) continue;
      const std::uintptr_t addr = it->first;
      const std::size_t block = it->second;
      free_by_addr_.erase(it);
      if (block > need) {
        free_by_addr_.emplace(addr + need, block - need);
      }
      auto* p = reinterpret_cast<void*>(addr);
      active_.emplace(p, need);
      active_bytes_ += need;
      // Under an armed snapshot the hole being carved may hold bytes of a
      // frozen allocation (capture reads at chunk granularity, and a chunk
      // can straddle a freed hole and a live neighbour). Preserve before
      // the caller's first write lands. The capture never allocates from
      // this arena post-freeze, so stalling here with mu_ held cannot
      // deadlock the drain.
      if (overlay_ != nullptr) overlay_->copy_before_write(p, need);
      // The allocation's contents are fresh state a base checkpoint has
      // never seen — dirty by definition.
      if (dirty_ != nullptr) dirty_->mark(p, need);
      return p;
    }
    if (attempt == 0) {
      Status grown = grow_locked(need);
      if (!grown.ok()) return grown;
    }
  }
  return OutOfMemory(config_.purpose + " arena exhausted");
}

Status ArenaAllocator::free(void* p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(p);
  if (it == active_.end()) {
    return InvalidArgument("free of pointer not allocated by this arena");
  }
  const std::size_t size = it->second;
  active_.erase(it);
  active_bytes_ -= size;
  // A frozen capture still owes these bytes to the image (the allocation
  // was live at the freeze instant); preserve before the hole is reused.
  if (overlay_ != nullptr) overlay_->copy_before_write(p, size);
  // Freed space re-enters circulation with indeterminate contents; any
  // later allocation reusing it must read as dirty.
  if (dirty_ != nullptr) dirty_->mark(p, size);
  insert_free_locked(reinterpret_cast<std::uintptr_t>(p), size);
  return OkStatus();
}

std::size_t ArenaAllocator::allocation_size(const void* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(const_cast<void*>(p));
  return it == active_.end() ? 0 : it->second;
}

std::optional<std::pair<void*, std::size_t>>
ArenaAllocator::containing_allocation(const void* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.upper_bound(const_cast<void*>(p));
  if (it == active_.begin()) return std::nullopt;
  --it;
  const auto base = reinterpret_cast<std::uintptr_t>(it->first);
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  if (a >= base + it->second) return std::nullopt;
  return std::make_pair(it->first, it->second);
}

void ArenaAllocator::set_dirty_tracker(ckpt::DirtyTracker* tracker) {
  std::lock_guard<std::mutex> lock(mu_);
  dirty_ = tracker;
}

ckpt::DirtyTracker* ArenaAllocator::dirty_tracker() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dirty_;
}

void ArenaAllocator::set_snap_overlay(ckpt::SnapOverlay* overlay) {
  std::lock_guard<std::mutex> lock(mu_);
  overlay_ = overlay;
}

std::map<void*, std::size_t> ArenaAllocator::active_allocations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

std::size_t ArenaAllocator::active_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_bytes_;
}

std::size_t ArenaAllocator::committed_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_end_ - reinterpret_cast<std::uintptr_t>(reservation_.base());
}

std::size_t ArenaAllocator::active_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

Status ArenaAllocator::grow_locked(std::size_t need) {
  // A request larger than one chunk commits several contiguous chunks in a
  // single step, mirroring the multi-mmap cudaMalloc behaviour from §3.2.1.
  std::size_t grow = 0;
  if (!round_up(need, config_.chunk_size, grow)) {
    return OutOfMemory(config_.purpose + " arena reservation exhausted");
  }
  const auto base = reinterpret_cast<std::uintptr_t>(reservation_.base());
  // Compare against the room left, not committed_end_ + grow — the sum can
  // wrap and admit a growth that runs past the reservation.
  if (grow > base + reservation_.capacity() - committed_end_) {
    return OutOfMemory(config_.purpose + " arena reservation exhausted");
  }
  auto* addr = reinterpret_cast<void*>(committed_end_);
  CRAC_RETURN_IF_ERROR(reservation_.commit(addr, grow));
  if (config_.hooks != nullptr) {
    config_.hooks->on_commit(addr, grow, config_.purpose.c_str());
  }
  insert_free_locked(committed_end_, grow);
  committed_end_ += grow;
  return OkStatus();
}

ArenaAllocator::Snapshot ArenaAllocator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  const auto base = reinterpret_cast<std::uintptr_t>(reservation_.base());
  snap.committed_bytes = committed_end_ - base;
  for (const auto& [addr, size] : free_by_addr_) {
    snap.free_list.emplace_back(addr - base, size);
  }
  for (const auto& [p, size] : active_) {
    snap.active.emplace_back(reinterpret_cast<std::uintptr_t>(p) - base, size);
  }
  return snap;
}

Status ArenaAllocator::validate_snapshot(const Snapshot& snap) const {
  // Reads only immutable configuration (the reservation), so no lock.
  if (snap.committed_bytes > reservation_.capacity()) {
    return InvalidArgument("snapshot larger than arena reservation");
  }
  // Every entry must land inside the committed span. Snapshots arrive
  // inside images, possibly shipped over a socket, so a CRC-valid stream
  // with a hostile offset must fail here — not as a wild write when the
  // restored allocation's contents are copied in.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(snap.free_list.size() + snap.active.size());
  for (const auto* list : {&snap.free_list, &snap.active}) {
    for (const auto& [off, size] : *list) {
      if (size == 0) {
        return InvalidArgument("zero-size snapshot entry at offset " +
                               std::to_string(off));
      }
      if (off > snap.committed_bytes || size > snap.committed_bytes - off) {
        return InvalidArgument(
            "snapshot entry [" + std::to_string(off) + ", +" +
            std::to_string(size) + ") outside the committed " +
            std::to_string(snap.committed_bytes) + "-byte arena span");
      }
      entries.emplace_back(off, size);
    }
  }
  // No two entries — across the union of free and active — may overlap or
  // duplicate: installing aliasing "allocations" would double-count
  // active_bytes_ and break free-list coalescing invariants, and a later
  // content restore would write one buffer over another.
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 1; i < entries.size(); ++i) {
    const auto& [prev_off, prev_size] = entries[i - 1];
    const auto& [off, size] = entries[i];
    if (off < prev_off + prev_size) {
      return InvalidArgument(
          "snapshot entries [" + std::to_string(prev_off) + ", +" +
          std::to_string(prev_size) + ") and [" + std::to_string(off) +
          ", +" + std::to_string(size) + ") overlap");
    }
  }
  return OkStatus();
}

Status ArenaAllocator::restore(const Snapshot& snap) {
  CRAC_RETURN_IF_ERROR(validate_snapshot(snap));
  std::lock_guard<std::mutex> lock(mu_);
  const auto base = reinterpret_cast<std::uintptr_t>(reservation_.base());
  // Commit any span the snapshot covers that is not yet committed. (On a
  // fresh arena this is the whole snapshot span; on an in-place restart the
  // arena is usually already at least as large.)
  const std::uintptr_t want_end = base + snap.committed_bytes;
  if (want_end > committed_end_) {
    auto* addr = reinterpret_cast<void*>(committed_end_);
    const std::size_t delta = want_end - committed_end_;
    CRAC_RETURN_IF_ERROR(reservation_.commit(addr, delta));
    if (config_.hooks != nullptr) {
      config_.hooks->on_commit(addr, delta, config_.purpose.c_str());
    }
    committed_end_ = want_end;
  }
  // Reinstate the allocator maps exactly as checkpointed; allocations made
  // after the checkpoint are rolled back (restart semantics).
  free_by_addr_.clear();
  active_.clear();
  active_bytes_ = 0;
  for (const auto& [off, size] : snap.free_list) {
    free_by_addr_.emplace(base + off, size);
  }
  for (const auto& [off, size] : snap.active) {
    active_.emplace(reinterpret_cast<void*>(base + off), size);
    active_bytes_ += size;
  }
  // Space committed beyond the snapshot (post-checkpoint growth on the
  // in-place path) is returned to the free list.
  if (committed_end_ > want_end) {
    insert_free_locked(want_end, committed_end_ - want_end);
  }
  // The arena's contents were just replaced wholesale: the tracker's mark
  // history no longer describes this memory. New epoch, everything dirty —
  // a delta producer holding a pre-restore base must refuse, not miss.
  if (dirty_ != nullptr) dirty_->new_epoch();
  return OkStatus();
}

void ArenaAllocator::insert_free_locked(std::uintptr_t addr, std::size_t size) {
  // Coalesce with the preceding block.
  auto next = free_by_addr_.lower_bound(addr);
  if (next != free_by_addr_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == addr) {
      addr = prev->first;
      size += prev->second;
      free_by_addr_.erase(prev);
    }
  }
  // Coalesce with the following block.
  next = free_by_addr_.lower_bound(addr + size);
  if (next != free_by_addr_.end() && next->first == addr + size) {
    size += next->second;
    free_by_addr_.erase(next);
  }
  free_by_addr_.emplace(addr, size);
}

std::vector<std::byte> encode_arena_snapshot(
    const ArenaAllocator::Snapshot& snap) {
  ByteWriter w;
  w.put_u64(snap.committed_bytes);
  w.put_u64(snap.free_list.size());
  for (const auto& [off, size] : snap.free_list) {
    w.put_u64(off);
    w.put_u64(size);
  }
  w.put_u64(snap.active.size());
  for (const auto& [off, size] : snap.active) {
    w.put_u64(off);
    w.put_u64(size);
  }
  return std::move(w).take();
}

Result<ArenaAllocator::Snapshot> decode_arena_snapshot(const std::byte* data,
                                                       std::size_t size) {
  ByteReader r(data, size);
  ArenaAllocator::Snapshot snap;
  std::uint64_t free_count = 0, active_count = 0;
  CRAC_RETURN_IF_ERROR(r.get_u64(snap.committed_bytes));
  CRAC_RETURN_IF_ERROR(r.get_u64(free_count));
  // Each entry costs 16 encoded bytes; a hostile count cannot demand more
  // reserve than the payload could possibly hold.
  snap.free_list.reserve(
      std::min<std::uint64_t>(free_count, r.remaining() / 16));
  for (std::uint64_t i = 0; i < free_count; ++i) {
    std::uint64_t off = 0, entry_size = 0;
    CRAC_RETURN_IF_ERROR(r.get_u64(off));
    CRAC_RETURN_IF_ERROR(r.get_u64(entry_size));
    snap.free_list.emplace_back(off, entry_size);
  }
  CRAC_RETURN_IF_ERROR(r.get_u64(active_count));
  snap.active.reserve(
      std::min<std::uint64_t>(active_count, r.remaining() / 16));
  for (std::uint64_t i = 0; i < active_count; ++i) {
    std::uint64_t off = 0, entry_size = 0;
    CRAC_RETURN_IF_ERROR(r.get_u64(off));
    CRAC_RETURN_IF_ERROR(r.get_u64(entry_size));
    snap.active.emplace_back(off, entry_size);
  }
  return snap;
}

}  // namespace crac::sim
