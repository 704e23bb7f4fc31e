// Change-block tracking for incremental (delta) checkpoints.
//
// A DirtyTracker covers one contiguous address span (an arena reservation)
// at a fixed chunk granularity and keeps a generation number per chunk —
// the veeamsnap/CBT idiom: every write path marks the chunks it touched
// with the current generation, and a checkpoint capture atomically advances
// the generation, so "dirty since checkpoint N" is a single scan comparing
// chunk generations against the generation captured at N. Cost per interval
// is O(write rate), not O(footprint).
//
// Epoch identity: each tracker carries a random epoch id. Any event that
// invalidates the mark history wholesale (an arena restore, a tracker
// reset) starts a new epoch and marks everything dirty; a delta producer
// records the epoch alongside the captured generation and refuses to build
// a delta across an epoch change — the same role the generation UUID plays
// in CBT drivers.
//
// Storage: the per-chunk generations live on a private anonymous mapping
// the tracker owns (MAP_NORESERVE), so the kernel zero-fills a page of the
// table on its first write and an unmarked stretch of the span costs
// address space only — an 8 GiB arena's 1 MiB table is resident only
// where something was marked. "Everything dirty" (a fresh tracker,
// mark_all(), new_epoch()) writes no chunk at all: it raises a tracker-wide
// floor, and every query reads a chunk's generation as the larger of its
// stored value and the floor. A reset is O(1) whatever the span.
//
// Thread-safety: mark() is lock-free and safe against concurrent marks.
// advance() is meant to run at a quiesce point (no concurrent writers),
// which is when checkpoints capture anyway; marks racing an advance() are
// attributed to one side or the other, never lost (chunk generations only
// grow). The floor only grows too (CAS-max), so a mark_all() or
// new_epoch() racing marks never lowers what a chunk reads. A mark from
// the fault path touches at most one fresh page of the table, which the
// kernel supplies without a signal.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace crac::ckpt {

// Default tracking granularity. Finer granules shrink deltas, coarser ones
// shrink the map; 64 KiB matches the UVM page size the simulator uses.
constexpr std::size_t kDefaultDirtyChunkBytes = std::size_t{64} << 10;

class DirtyTracker {
 public:
  // Tracks [base, base + span_bytes) in chunks of chunk_bytes. The fresh
  // tracker starts with every chunk dirty (generation 1, current
  // generation 1): a capture that has never happened cannot have clean
  // chunks relative to it.
  DirtyTracker(std::uintptr_t base, std::size_t span_bytes,
               std::size_t chunk_bytes = kDefaultDirtyChunkBytes);
  ~DirtyTracker();

  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  // Marks every chunk overlapping [p, p + len) with the current generation.
  // Ranges outside the tracked span are clamped away; len == 0 is a no-op.
  void mark(const void* p, std::size_t len) noexcept;

  // Marks every chunk with the current generation by raising the floor:
  // O(1), touches no chunk.
  void mark_all() noexcept;

  // Capture point: returns the generation all marks so far carry (at most),
  // and moves writers onto the next one. Chunks marked after this call
  // compare strictly greater than the returned value.
  std::uint64_t advance() noexcept;

  std::uint64_t generation() const noexcept {
    return gen_.load(std::memory_order_relaxed);
  }

  // Random id naming the current mark history. Changes on new_epoch().
  const std::string& epoch() const noexcept { return epoch_; }

  // Invalidates the whole mark history: new epoch id, everything dirty.
  // Call when tracked memory changes out from under the marks (restore).
  void new_epoch();

  // True when any chunk overlapping [p, p + len) was marked after the
  // capture that returned since_gen.
  bool any_dirty(const void* p, std::size_t len,
                 std::uint64_t since_gen) const noexcept;

  // Calls fn(offset, length) for each maximal run of chunks inside
  // [p, p + len) marked after since_gen; offsets are relative to p and runs
  // are clamped to the queried range.
  void for_each_dirty(const void* p, std::size_t len, std::uint64_t since_gen,
                      const std::function<void(std::size_t offset,
                                               std::size_t length)>& fn) const;

  // Chunks (across the whole span) marked after since_gen.
  std::size_t dirty_chunks(std::uint64_t since_gen) const noexcept;

  std::uintptr_t base() const noexcept { return base_; }
  std::size_t span_bytes() const noexcept { return span_; }
  std::size_t chunk_bytes() const noexcept { return chunk_bytes_; }
  std::size_t chunk_count() const noexcept { return n_chunks_; }

 private:
  // Chunk index range [first, last) covered by [p, p+len), clamped to the
  // span; empty when the range misses the span entirely.
  bool clamp(const void* p, std::size_t len, std::size_t& first,
             std::size_t& last) const noexcept;

  // Chunk i's stored generation (the floor not applied).
  std::atomic_ref<std::uint64_t> stored(std::size_t i) const noexcept {
    return std::atomic_ref<std::uint64_t>(gens_[i]);
  }

  std::uintptr_t base_;
  std::size_t span_;
  std::size_t chunk_bytes_;
  std::size_t n_chunks_;
  std::uint64_t* gens_ = nullptr;  // n_chunks_ entries, demand-zero mapping
  std::atomic<std::uint64_t> gen_{1};
  std::atomic<std::uint64_t> floor_{0};  // every chunk reads at least this
  std::string epoch_;
};

// 16-hex-char random id for tracker epochs and checkpoint image identity
// (seeded from std::random_device; not deterministic, by design).
std::string random_hex_id();

}  // namespace crac::ckpt
