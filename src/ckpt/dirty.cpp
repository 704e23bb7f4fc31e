#include "ckpt/dirty.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>

#include "common/log.hpp"

namespace crac::ckpt {

std::string random_hex_id() {
  static constexpr char kHex[] = "0123456789abcdef";
  std::random_device rd;
  std::string id;
  id.reserve(16);
  for (int i = 0; i < 4; ++i) {
    std::uint32_t word = rd();
    for (int nibble = 0; nibble < 4; ++nibble) {
      id.push_back(kHex[word & 0xf]);
      word >>= 4;
    }
  }
  return id;
}

DirtyTracker::DirtyTracker(std::uintptr_t base, std::size_t span_bytes,
                           std::size_t chunk_bytes)
    : base_(base),
      span_(span_bytes),
      chunk_bytes_(chunk_bytes),
      epoch_(random_hex_id()) {
  CRAC_CHECK(chunk_bytes_ > 0);
  n_chunks_ = span_ == 0 ? 0 : (span_ - 1) / chunk_bytes_ + 1;
  if (n_chunks_ > 0) {
    const std::size_t bytes = n_chunks_ * sizeof(std::uint64_t);
    void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    CRAC_CHECK_MSG(map != MAP_FAILED, "dirty-tracker table of "
                                          << bytes << " bytes failed: "
                                          << std::strerror(errno));
    // Keep first-touch at base-page granularity: one huge page would make
    // a single mark resident for 2 MiB of table.
    ::madvise(map, bytes, MADV_NOHUGEPAGE);
    gens_ = static_cast<std::uint64_t*>(map);
  }
  mark_all();  // a never-captured tracker has no clean chunks
}

DirtyTracker::~DirtyTracker() {
  if (gens_ != nullptr) ::munmap(gens_, n_chunks_ * sizeof(std::uint64_t));
}

bool DirtyTracker::clamp(const void* p, std::size_t len, std::size_t& first,
                         std::size_t& last) const noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  if (len == 0 || n_chunks_ == 0) return false;
  if (a >= base_ + span_ || a + len <= base_ || a + len < a) return false;
  const std::uintptr_t lo = a < base_ ? 0 : a - base_;
  const std::uintptr_t hi = std::min<std::uintptr_t>(a + len - base_, span_);
  first = static_cast<std::size_t>(lo / chunk_bytes_);
  last = static_cast<std::size_t>((hi - 1) / chunk_bytes_) + 1;
  return true;
}

void DirtyTracker::mark(const void* p, std::size_t len) noexcept {
  std::size_t first = 0, last = 0;
  if (!clamp(p, len, first, last)) return;
  const std::uint64_t g = gen_.load(std::memory_order_relaxed);
  for (std::size_t i = first; i < last; ++i) {
    // Monotonic max: a mark can only raise a chunk's generation, so a slow
    // writer racing an advance() never erases a newer mark.
    const std::atomic_ref<std::uint64_t> gen = stored(i);
    std::uint64_t cur = gen.load(std::memory_order_relaxed);
    while (cur < g &&
           !gen.compare_exchange_weak(cur, g, std::memory_order_release,
                                      std::memory_order_relaxed)) {
    }
  }
}

void DirtyTracker::mark_all() noexcept {
  // The same monotonic max as mark(), once for the whole span.
  const std::uint64_t g = gen_.load(std::memory_order_relaxed);
  std::uint64_t cur = floor_.load(std::memory_order_relaxed);
  while (cur < g &&
         !floor_.compare_exchange_weak(cur, g, std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
}

std::uint64_t DirtyTracker::advance() noexcept {
  return gen_.fetch_add(1, std::memory_order_acq_rel);
}

void DirtyTracker::new_epoch() {
  epoch_ = random_hex_id();
  mark_all();
}

bool DirtyTracker::any_dirty(const void* p, std::size_t len,
                             std::uint64_t since_gen) const noexcept {
  std::size_t first = 0, last = 0;
  if (!clamp(p, len, first, last)) return false;
  if (floor_.load(std::memory_order_acquire) > since_gen) return true;
  for (std::size_t i = first; i < last; ++i) {
    if (stored(i).load(std::memory_order_acquire) > since_gen) return true;
  }
  return false;
}

void DirtyTracker::for_each_dirty(
    const void* p, std::size_t len, std::uint64_t since_gen,
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  std::size_t first = 0, last = 0;
  if (!clamp(p, len, first, last)) return;
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::size_t run_start = 0;
  bool in_run = false;
  auto flush = [&](std::size_t end_chunk) {
    if (!in_run) return;
    in_run = false;
    // Chunk run [run_start, end_chunk) in span coordinates, clamped back to
    // the queried [p, p+len) window and re-based onto p.
    const std::uintptr_t lo =
        std::max<std::uintptr_t>(base_ + run_start * chunk_bytes_, a);
    const std::uintptr_t hi = std::min<std::uintptr_t>(
        base_ + end_chunk * chunk_bytes_, std::min(a + len, base_ + span_));
    if (hi > lo) fn(static_cast<std::size_t>(lo - a),
                    static_cast<std::size_t>(hi - lo));
  };
  if (floor_.load(std::memory_order_acquire) > since_gen) {
    // Above the floor every chunk is dirty: one run over the whole window.
    run_start = first;
    in_run = true;
  } else {
    for (std::size_t i = first; i < last; ++i) {
      if (stored(i).load(std::memory_order_acquire) > since_gen) {
        if (!in_run) {
          run_start = i;
          in_run = true;
        }
      } else {
        flush(i);
      }
    }
  }
  flush(last);
}

std::size_t DirtyTracker::dirty_chunks(std::uint64_t since_gen) const noexcept {
  if (floor_.load(std::memory_order_acquire) > since_gen) return n_chunks_;
  std::size_t n = 0;
  for (std::size_t i = 0; i < n_chunks_; ++i) {
    if (stored(i).load(std::memory_order_acquire) > since_gen) ++n;
  }
  return n;
}

}  // namespace crac::ckpt
