#include "ckpt/snapstore.hpp"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cerrno>
#include <cstring>

#include "common/fd_io.hpp"

namespace crac::ckpt {
namespace {

// Plain volatile sig_atomic_t rather than a C++ object with a dynamic
// guard: the flag is read from the SIGSEGV path and must be initialized
// before any fault can occur (same reasoning as fault_router's
// t_device_context). volatile + the signal fences in PassthroughScope are
// load-bearing: without them the compiler may sink the increment past the
// protected memcpy (nothing in the memcpy touches the flag), and the fault
// handler then misses the passthrough marker it exists to provide.
thread_local volatile std::sig_atomic_t t_passthrough = 0;

// Brief park used by claim waits and exhaustion stalls. nanosleep is
// async-signal-safe; a condvar is not, and the waits here are short (one
// 64KiB memcpy) except for the exhaustion stall, which is deliberate
// backpressure.
void park_briefly() noexcept {
  timespec ts{0, 50'000};  // 50us
  nanosleep(&ts, nullptr);
}

std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

}  // namespace

bool SnapOverlay::in_passthrough() noexcept { return t_passthrough > 0; }

SnapOverlay::PassthroughScope::PassthroughScope() noexcept {
  t_passthrough = t_passthrough + 1;
  // Forbid the compiler from moving the guarded access above the marker.
  std::atomic_signal_fence(std::memory_order_seq_cst);
}
SnapOverlay::PassthroughScope::~PassthroughScope() {
  std::atomic_signal_fence(std::memory_order_seq_cst);
  t_passthrough = t_passthrough - 1;
}

SnapOverlay::SnapOverlay() : SnapOverlay(Config{}) {}

SnapOverlay::SnapOverlay(Config config) : config_(std::move(config)) {
  if (config_.chunk_bytes == 0) config_.chunk_bytes = kDefaultDirtyChunkBytes;
}

SnapOverlay::~SnapOverlay() { release(); }

Status SnapOverlay::arm(const std::vector<Region>& regions) {
  if (armed_.load(std::memory_order_acquire)) {
    return FailedPrecondition("snapshot overlay is already armed");
  }
  // A previous release() already drained in-flight callers; a fresh arm
  // while stragglers linger would hand them half-built tables.
  while (inflight_.load(std::memory_order_acquire) != 0) park_briefly();

  regions_.clear();
  total_chunks_ = 0;
  for (const Region& r : regions) {
    if (r.len == 0) continue;
    TrackedRegion tr;
    tr.base = r.base;
    tr.len = r.len;
    regions_.push_back(tr);
  }
  std::sort(regions_.begin(), regions_.end(),
            [](const TrackedRegion& a, const TrackedRegion& b) {
              return a.base < b.base;
            });
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (i > 0) {
      const TrackedRegion& prev = regions_[i - 1];
      if (prev.base + prev.len > regions_[i].base) {
        regions_.clear();
        return InvalidArgument("snapshot overlay regions overlap");
      }
    }
    regions_[i].first_chunk = total_chunks_;
    regions_[i].n_chunks = ceil_div(regions_[i].len, config_.chunk_bytes);
    total_chunks_ += regions_[i].n_chunks;
  }

  state_ = std::make_unique<std::atomic<std::uint8_t>[]>(total_chunks_);
  slot_ = std::make_unique<std::atomic<std::uint32_t>[]>(total_chunks_);
  for (std::size_t i = 0; i < total_chunks_; ++i) {
    state_[i].store(kClean, std::memory_order_relaxed);
    slot_[i].store(0, std::memory_order_relaxed);
  }

  mem_slots_ = config_.mem_cap_bytes / config_.chunk_bytes;
  // Default-initialized on purpose: every slot is fully memcpy'd before it
  // is ever read back, so zero-filling the slab here would only add the
  // whole mem cap's worth of page faults to the stop-the-world window.
  // The kernel's demand-zero pages fault in lazily, on the writers' time.
  slab_.reset(mem_slots_ > 0
                  ? new std::byte[mem_slots_ * config_.chunk_bytes]
                  : nullptr);
  file_slots_ = 0;
  overflow_fd_ = -1;
  if (config_.file_cap_bytes >= config_.chunk_bytes) {
    // Created (and unlinked) now so the signal-path writer only ever needs
    // pwrite. Creation failure is not fatal — the store is just smaller.
    if (auto fd = open_unlinked_temp("crac-snapstore-"); fd.ok()) {
      overflow_fd_ = *fd;
      file_slots_ = config_.file_cap_bytes / config_.chunk_bytes;
    }
  }

  next_slot_.store(0, std::memory_order_relaxed);
  chunks_preserved_.store(0, std::memory_order_relaxed);
  preserved_bytes_.store(0, std::memory_order_relaxed);
  peak_slots_.store(0, std::memory_order_relaxed);
  spilled_chunks_.store(0, std::memory_order_relaxed);
  writer_stalls_.store(0, std::memory_order_relaxed);
  overlay_reads_.store(0, std::memory_order_relaxed);
  origin_reads_.store(0, std::memory_order_relaxed);
  exhausted_.store(false, std::memory_order_relaxed);

  armed_.store(true, std::memory_order_release);
  return OkStatus();
}

void SnapOverlay::release() {
  if (!armed_.exchange(false, std::memory_order_acq_rel)) {
    // Not armed — but a failed arm() can leave the overflow fd open.
    if (overflow_fd_ >= 0) {
      ::close(overflow_fd_);
      overflow_fd_ = -1;
    }
    return;
  }
  // Writers parked on exhaustion exit their stall loop on armed_ == false
  // and then drop inflight_, so this drain cannot deadlock. Until it
  // reaches zero, stragglers may still touch state_/slab_/overflow_fd_.
  while (inflight_.load(std::memory_order_acquire) != 0) park_briefly();

  if (overflow_fd_ >= 0) {
    ::close(overflow_fd_);
    overflow_fd_ = -1;
  }
  slab_.reset();
  state_.reset();
  slot_.reset();
  regions_.clear();
  total_chunks_ = 0;
  mem_slots_ = 0;
  file_slots_ = 0;
}

const SnapOverlay::TrackedRegion* SnapOverlay::find_region(
    std::uintptr_t a) const noexcept {
  // Branchless-ish linear scan: the region count is tiny (three arenas) and
  // this runs on the fault path where std::upper_bound's iterator machinery
  // buys nothing.
  for (const TrackedRegion& r : regions_) {
    if (a >= r.base && a - r.base < r.len) return &r;
  }
  return nullptr;
}

std::size_t SnapOverlay::chunk_len(const TrackedRegion& region,
                                   std::size_t chunk) const noexcept {
  const std::size_t off = chunk * config_.chunk_bytes;
  return std::min(config_.chunk_bytes, region.len - off);
}

const std::byte* SnapOverlay::chunk_origin(
    const TrackedRegion& region, std::size_t chunk) const noexcept {
  return reinterpret_cast<const std::byte*>(region.base) +
         chunk * config_.chunk_bytes;
}

bool SnapOverlay::store_pre_image(std::uint32_t slot, const std::byte* origin,
                                  std::size_t len) noexcept {
  if (slot < mem_slots_) {
    std::memcpy(slab_.get() + std::size_t{slot} * config_.chunk_bytes,
                origin, len);
    return true;
  }
  // pwrite directly from a PROT_NONE managed page returns EFAULT instead of
  // faulting (the kernel probes the user buffer, no SIGSEGV is delivered),
  // so passthrough can't rescue it. Bounce through a small stack buffer:
  // the memcpy faults normally and resolves under passthrough.
  const std::size_t file_index = slot - mem_slots_;
  off_t off = static_cast<off_t>(file_index * config_.chunk_bytes);
  std::size_t done = 0;
  while (done < len) {
    std::byte bounce[4096];
    const std::size_t n = std::min(sizeof(bounce), len - done);
    std::memcpy(bounce, origin + done, n);
    std::size_t written = 0;
    while (written < n) {
      ssize_t w = ::pwrite(overflow_fd_, bounce + written, n - written,
                           off + static_cast<off_t>(done + written));
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      written += static_cast<std::size_t>(w);
    }
    done += n;
  }
  spilled_chunks_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SnapOverlay::stall_until_released() noexcept {
  writer_stalls_.fetch_add(1, std::memory_order_relaxed);
  while (armed_.load(std::memory_order_acquire)) park_briefly();
}

void SnapOverlay::preserve_chunk(const TrackedRegion& region,
                                 std::size_t chunk) noexcept {
  std::atomic<std::uint8_t>& st = state_[region.first_chunk + chunk];
  for (;;) {
    std::uint8_t cur = st.load(std::memory_order_acquire);
    if (cur == kCopied) return;
    if (cur == kCopying || cur == kReading) {
      // Another writer is preserving, or the capture holds the origin.
      // Either way the chunk resolves without our help; wait it out.
      // (A READING chunk returns to CLEAN and we retry the claim.)
      if (!armed_.load(std::memory_order_acquire)) return;
      park_briefly();
      continue;
    }
    std::uint8_t expected = kClean;
    if (!st.compare_exchange_weak(expected, kCopying,
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      continue;
    }
    // We own the chunk. Grab a snapstore slot and copy the pre-image.
    const std::uint32_t slot =
        next_slot_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t total_slots = mem_slots_ + file_slots_;
    bool stored = false;
    if (slot < total_slots) {
      const std::size_t len = chunk_len(region, chunk);
      PassthroughScope scope;  // origin may be a PROT_NONE managed page
      stored = store_pre_image(slot, chunk_origin(region, chunk), len);
      if (stored) {
        slot_[region.first_chunk + chunk].store(slot,
                                                std::memory_order_relaxed);
        chunks_preserved_.fetch_add(1, std::memory_order_relaxed);
        preserved_bytes_.fetch_add(len, std::memory_order_relaxed);
        std::uint64_t used = std::uint64_t{slot} + 1;
        std::uint64_t peak = peak_slots_.load(std::memory_order_relaxed);
        while (used > peak && !peak_slots_.compare_exchange_weak(
                                  peak, used, std::memory_order_relaxed)) {
        }
      }
    }
    if (stored) {
      st.store(kCopied, std::memory_order_release);
      return;
    }
    // Snapstore exhausted (or the overflow file failed). Hand the chunk
    // back so the capture can still claim READING and read the unmodified
    // origin, then park this writer until release() — a per-writer
    // stop-the-world fallback. The write it was about to perform lands
    // only after the capture is done, so the image stays intact.
    exhausted_.store(true, std::memory_order_relaxed);
    st.store(kClean, std::memory_order_release);
    stall_until_released();
    return;
  }
}

void SnapOverlay::copy_before_write(const void* p, std::size_t n) noexcept {
  if (n == 0) return;
  if (!armed_.load(std::memory_order_acquire)) return;
  // The capture's own internal origin reads fault through UvmManager and
  // would otherwise re-enter here via note_write-style hooks; those reads
  // never mutate, so they owe no preserve.
  if (in_passthrough()) return;

  inflight_.fetch_add(1, std::memory_order_acq_rel);
  // Re-check under the in-flight gate: release() orders armed_ = false
  // before its drain, so either we see the store and leave, or release()
  // sees our increment and waits for us.
  if (!armed_.load(std::memory_order_acquire)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }

  std::uintptr_t a = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t end = a + n;
  while (a < end) {
    const TrackedRegion* region = find_region(a);
    if (region == nullptr) {
      // Skip to the next tracked region (or finish). Untracked gaps are
      // legal: callers pass raw host pointers too.
      std::uintptr_t next = end;
      for (const TrackedRegion& r : regions_) {
        if (r.base > a && r.base < next) next = r.base;
      }
      a = next;
      continue;
    }
    const std::size_t first =
        static_cast<std::size_t>(a - region->base) / config_.chunk_bytes;
    const std::uintptr_t region_end = region->base + region->len;
    const std::uintptr_t span_end = std::min(end, region_end);
    const std::size_t last = static_cast<std::size_t>(
        (span_end - 1 - region->base) / config_.chunk_bytes);
    for (std::size_t c = first; c <= last; ++c) {
      preserve_chunk(*region, c);
      if (!armed_.load(std::memory_order_acquire)) {
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        return;
      }
    }
    a = span_end;
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
}

Status SnapOverlay::serve_chunk(const TrackedRegion& region, std::size_t chunk,
                                std::size_t offset_in_chunk, std::size_t len,
                                void* out) {
  std::atomic<std::uint8_t>& st = state_[region.first_chunk + chunk];
  for (;;) {
    std::uint8_t cur = st.load(std::memory_order_acquire);
    if (cur == kCopied) {
      const std::uint32_t slot =
          slot_[region.first_chunk + chunk].load(std::memory_order_relaxed);
      overlay_reads_.fetch_add(1, std::memory_order_relaxed);
      if (slot < mem_slots_) {
        std::memcpy(out,
                    slab_.get() + std::size_t{slot} * config_.chunk_bytes +
                        offset_in_chunk,
                    len);
        return OkStatus();
      }
      const std::size_t file_index = slot - mem_slots_;
      off_t off = static_cast<off_t>(file_index * config_.chunk_bytes +
                                     offset_in_chunk);
      std::size_t done = 0;
      while (done < len) {
        ssize_t r = ::pread(overflow_fd_, static_cast<std::byte*>(out) + done,
                            len - done, off + static_cast<off_t>(done));
        if (r < 0) {
          if (errno == EINTR) continue;
          return IoError("snapstore overflow read failed: " +
                         std::string(std::strerror(errno)));
        }
        if (r == 0) {
          return Internal("snapstore overflow file truncated");
        }
        done += static_cast<std::size_t>(r);
      }
      return OkStatus();
    }
    if (cur == kCopying) {
      // A writer is mid-preserve; the pre-image will surface as kCopied
      // momentarily (or revert to kClean on exhaustion).
      park_briefly();
      continue;
    }
    std::uint8_t expected = kClean;
    if (cur == kReading ||
        !st.compare_exchange_weak(expected, kReading,
                                  std::memory_order_acq_rel,
                                  std::memory_order_acquire)) {
      // Another capture thread holds READING, or we lost the race; retry.
      // Note the claim is taken even for partial-chunk reads: a writer must
      // not overwrite any byte of the chunk while we read part of it.
      if (cur == kReading) park_briefly();
      continue;
    }
    {
      PassthroughScope scope;  // origin may be a PROT_NONE managed page
      std::memcpy(out, chunk_origin(region, chunk) + offset_in_chunk, len);
    }
    origin_reads_.fetch_add(1, std::memory_order_relaxed);
    st.store(kClean, std::memory_order_release);
    return OkStatus();
  }
}

Status SnapOverlay::read_range(const void* p, std::size_t n, void* out) {
  if (n == 0) return OkStatus();
  if (!armed_.load(std::memory_order_acquire)) {
    PassthroughScope scope;
    std::memcpy(out, p, n);
    return OkStatus();
  }
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (!armed_.load(std::memory_order_acquire)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    PassthroughScope scope;
    std::memcpy(out, p, n);
    return OkStatus();
  }

  Status status = OkStatus();
  const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(p);
  const TrackedRegion* region = find_region(a);
  if (region == nullptr || a + n > region->base + region->len) {
    // Untracked memory can't be raced by tracked writers; serve directly.
    PassthroughScope scope;
    std::memcpy(out, p, n);
  } else {
    std::size_t done = 0;
    while (done < n && status.ok()) {
      const std::uintptr_t cur = a + done;
      const std::size_t chunk =
          static_cast<std::size_t>(cur - region->base) / config_.chunk_bytes;
      const std::size_t off_in_chunk =
          static_cast<std::size_t>(cur - region->base) % config_.chunk_bytes;
      const std::size_t take =
          std::min(n - done, config_.chunk_bytes - off_in_chunk);
      status = serve_chunk(*region, chunk, off_in_chunk, take,
                           static_cast<std::byte*>(out) + done);
      done += take;
    }
  }
  inflight_.fetch_sub(1, std::memory_order_acq_rel);
  return status;
}

SnapOverlay::Stats SnapOverlay::stats() const {
  Stats s;
  s.chunks_preserved = chunks_preserved_.load(std::memory_order_relaxed);
  s.preserved_bytes = preserved_bytes_.load(std::memory_order_relaxed);
  s.peak_store_bytes =
      peak_slots_.load(std::memory_order_relaxed) * config_.chunk_bytes;
  s.spilled_chunks = spilled_chunks_.load(std::memory_order_relaxed);
  s.writer_stalls = writer_stalls_.load(std::memory_order_relaxed);
  s.overlay_reads = overlay_reads_.load(std::memory_order_relaxed);
  s.origin_reads = origin_reads_.load(std::memory_order_relaxed);
  s.exhausted = exhausted_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crac::ckpt
