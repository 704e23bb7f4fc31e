#include "simgpu/uvm_manager.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "ckpt/dirty.hpp"
#include "ckpt/snapstore.hpp"
#include "common/log.hpp"
#include "simgpu/fault_router.hpp"

namespace crac::sim {

UvmManager::UvmManager(const Config& config)
    : config_(config),
      arena_(ArenaAllocator::Config{
          .va_base = config.va_base,
          .capacity = config.capacity,
          .chunk_size = config.chunk_size,
          .alignment = config.alignment,
          .purpose = "managed",
          .hooks = config.hooks,
      }),
      n_pages_(config.capacity / config.page_size),
      pages_(std::make_unique<PageInfo[]>(n_pages_)) {
  CRAC_CHECK(config_.page_size % 4096 == 0);
  CRAC_CHECK_MSG(
      FaultRouter::instance().register_range(arena_.arena_base(),
                                             config_.capacity, this),
      "UVM fault-router table full");
}

UvmManager::~UvmManager() {
  FaultRouter::instance().unregister_range(arena_.arena_base());
}

Result<void*> UvmManager::allocate(std::size_t bytes) {
  // Guard the page round-up: near SIZE_MAX, `bytes + page_size - 1` wraps
  // and the request would round to a tiny allocation instead of failing.
  if (bytes > config_.capacity) {
    return OutOfMemory("managed allocation of " + std::to_string(bytes) +
                       " bytes exceeds the " +
                       std::to_string(config_.capacity) +
                       "-byte managed arena reservation");
  }
  // Managed allocations are page-granular so protection never spans two
  // logical allocations (matches the driver's UVM granularity).
  const std::size_t rounded =
      (bytes + config_.page_size - 1) / config_.page_size * config_.page_size;
  return arena_.allocate(rounded);
}

Status UvmManager::free(void* p) {
  const std::size_t size = arena_.allocation_size(p);
  if (size == 0) return InvalidArgument("managed free of unknown pointer");
  // Leave the pages unprotected and host-resident so arena reuse of this
  // space starts from a clean slate.
  const std::size_t first = page_index(p);
  const std::size_t count = size / config_.page_size;
  for (std::size_t i = first; i < first + count && i < n_pages_; ++i) {
    pages_[i].armed.store(false, std::memory_order_relaxed);
    pages_[i].residency.store(static_cast<std::uint8_t>(PageResidency::kHost),
                              std::memory_order_relaxed);
  }
  if (::mprotect(p, size, PROT_READ | PROT_WRITE) != 0) {
    // The pages stay PROT_NONE: the next reuse of this space would fault on
    // pages the bookkeeping says are disarmed. Fail loudly, don't free.
    return IoError(std::string("mprotect unprotect on managed free failed: ") +
                   std::strerror(errno));
  }
  return arena_.free(p);
}

// Validates [p, p + bytes) against the arena reservation and converts it to
// a page range. contains(p) alone only checks the start: a hostile or buggy
// `bytes` used to clamp the page *loop* but still reach mprotect unclamped,
// protecting pages past the range (or past the reservation) outright.
Status UvmManager::check_span(const void* p, std::size_t bytes,
                              const char* what, std::size_t& first,
                              std::size_t& count) const {
  if (!contains(p)) {
    return InvalidArgument(std::string(what) + " outside managed arena");
  }
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const auto base = reinterpret_cast<std::uintptr_t>(arena_.arena_base());
  if (bytes > base + config_.capacity - a) {
    return InvalidArgument(std::string(what) + " range of " +
                           std::to_string(bytes) +
                           " bytes extends past the managed arena reservation");
  }
  first = page_index(p);
  count = (bytes + config_.page_size - 1) / config_.page_size;
  // The last page may sit past a capacity that is not page-aligned; clamp so
  // mprotect never touches memory outside the page table.
  count = std::min(count, n_pages_ - std::min(first, n_pages_));
  return OkStatus();
}

Status UvmManager::arm_range(void* p, std::size_t bytes) {
  std::size_t first = 0, count = 0;
  CRAC_RETURN_IF_ERROR(check_span(p, bytes, "arm_range", first, count));
  if (count == 0) return OkStatus();
  for (std::size_t i = first; i < first + count; ++i) {
    pages_[i].armed.store(true, std::memory_order_release);
  }
  if (::mprotect(page_base(first), count * config_.page_size, PROT_NONE) !=
      0) {
    return IoError(std::string("mprotect arm failed: ") +
                   std::strerror(errno));
  }
  return OkStatus();
}

Status UvmManager::arm_all() {
  for (const auto& [p, size] : arena_.active_allocations()) {
    CRAC_RETURN_IF_ERROR(arm_range(p, size));
  }
  return OkStatus();
}

Status UvmManager::prefetch(void* p, std::size_t bytes, bool to_device) {
  std::size_t first = 0, count = 0;
  CRAC_RETURN_IF_ERROR(check_span(p, bytes, "prefetch", first, count));
  if (count == 0) return OkStatus();
  const auto target = static_cast<std::uint8_t>(to_device ? PageResidency::kDevice
                                                          : PageResidency::kHost);
  for (std::size_t i = first; i < first + count; ++i) {
    pages_[i].residency.store(target, std::memory_order_relaxed);
    pages_[i].armed.store(true, std::memory_order_release);
  }
  prefetches_.fetch_add(1, std::memory_order_relaxed);
  // No snapshot-overlay preserve here: prefetch only tightens protection
  // (PROT_NONE) and flips bookkeeping — the page *bytes* are untouched, so
  // a frozen capture can still read the origin. The eventual write faults
  // through handle_fault and pays its preserve there.
  // A prefetch moves residency for the whole range — the delta view of
  // these pages is stale either way, so mark them before re-protecting.
  if (auto* tracker = dirty_.load(std::memory_order_acquire)) {
    tracker->mark(p, count * config_.page_size);
  }
  if (::mprotect(page_base(first), count * config_.page_size, PROT_NONE) !=
      0) {
    return IoError(std::string("mprotect prefetch failed: ") +
                   std::strerror(errno));
  }
  return OkStatus();
}

Status UvmManager::disarm_all() {
  for (std::size_t i = 0; i < n_pages_; ++i) {
    if (!pages_[i].armed.exchange(false, std::memory_order_acq_rel)) continue;
    if (::mprotect(page_base(i), config_.page_size, PROT_READ | PROT_WRITE) !=
        0) {
      return IoError(std::string("mprotect disarm failed: ") +
                     std::strerror(errno));
    }
  }
  return OkStatus();
}

bool UvmManager::handle_fault(void* addr, bool device_context) noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const auto base = reinterpret_cast<std::uintptr_t>(arena_.arena_base());
  if (a < base || a >= base + config_.capacity) return false;
  const std::size_t index = (a - base) / config_.page_size;
  if (index >= n_pages_) return false;
  PageInfo& page = pages_[index];

  // An overlay-internal origin read (a capture serving the frozen image, or
  // a writer preserving a pre-image) faulting on a still-armed page: grant
  // read access only and leave the page armed. The read does not migrate
  // the page — no counters, no residency flip, no dirty mark — and the
  // first real write access still faults here and pays its preserve.
  if (ckpt::SnapOverlay::in_passthrough() &&
      page.armed.load(std::memory_order_acquire)) {
    return ::mprotect(page_base(index), config_.page_size, PROT_READ) == 0;
  }

  // A fault on a page we never armed means a wild access into uncommitted
  // arena space — let it crash.
  if (!page.armed.exchange(false, std::memory_order_acq_rel)) {
    // Another thread may have just handled the same fault; if the page is
    // now readable the retry succeeds, so report handled. Distinguish by
    // probing the protection state cheaply: mprotect to RW is idempotent.
    // Before granting RW we owe the overlay its pre-image: the thread that
    // won the armed-flag exchange may still be mid-preserve, and this
    // second faulter must not unlock writes ahead of it (copy_before_write
    // blocks until the chunk is safely in the snapstore).
    if (auto* overlay = overlay_.load(std::memory_order_acquire)) {
      overlay->copy_before_write(page_base(index), config_.page_size);
    }
    if (::mprotect(page_base(index), config_.page_size,
                   PROT_READ | PROT_WRITE) == 0) {
      return true;
    }
    return false;
  }

  // Under an armed snapshot the unprotect below makes the page writable, so
  // its frozen bytes must reach the snapstore first. The preserve's own
  // origin read re-faults on this same (still PROT_NONE) page; SA_NODEFER
  // delivers the nested SIGSEGV and the passthrough branch above resolves
  // it with a read-only unprotect.
  if (auto* overlay = overlay_.load(std::memory_order_acquire)) {
    overlay->copy_before_write(page_base(index), config_.page_size);
  }

  const auto want = static_cast<std::uint8_t>(
      device_context ? PageResidency::kDevice : PageResidency::kHost);
  const std::uint8_t prev =
      page.residency.exchange(want, std::memory_order_acq_rel);
  if (prev != want) {
    if (device_context) {
      device_faults_.fetch_add(1, std::memory_order_relaxed);
      migrations_to_device_.fetch_add(1, std::memory_order_relaxed);
    } else {
      host_faults_.fetch_add(1, std::memory_order_relaxed);
      migrations_to_host_.fetch_add(1, std::memory_order_relaxed);
    }
    if (config_.fault_cost_us > 0) simulate_delay_us(config_.fault_cost_us);
  }

  // The unprotected page is writable until the next arming epoch, so the
  // faulting access — and anything after it — may mutate it. mark() is
  // lock-free, safe from this signal-delivery path.
  if (auto* tracker = dirty_.load(std::memory_order_acquire)) {
    tracker->mark(page_base(index), config_.page_size);
  }

  return ::mprotect(page_base(index), config_.page_size,
                    PROT_READ | PROT_WRITE) == 0;
}

UvmStats UvmManager::stats() const {
  UvmStats s;
  s.host_faults = host_faults_.load(std::memory_order_relaxed);
  s.device_faults = device_faults_.load(std::memory_order_relaxed);
  s.migrations_to_host = migrations_to_host_.load(std::memory_order_relaxed);
  s.migrations_to_device =
      migrations_to_device_.load(std::memory_order_relaxed);
  s.prefetches = prefetches_.load(std::memory_order_relaxed);
  s.pages_tracked = n_pages_;
  return s;
}

void UvmManager::reset_stats() {
  host_faults_.store(0, std::memory_order_relaxed);
  device_faults_.store(0, std::memory_order_relaxed);
  migrations_to_host_.store(0, std::memory_order_relaxed);
  migrations_to_device_.store(0, std::memory_order_relaxed);
  prefetches_.store(0, std::memory_order_relaxed);
}

Result<PageResidency> UvmManager::residency(const void* p) const {
  if (!contains(p)) return InvalidArgument("pointer outside managed arena");
  const std::size_t index = page_index(p);
  if (index >= n_pages_) return InvalidArgument("page out of range");
  return static_cast<PageResidency>(
      pages_[index].residency.load(std::memory_order_acquire));
}

std::size_t UvmManager::page_index(const void* p) const noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  const auto base = reinterpret_cast<std::uintptr_t>(arena_.arena_base());
  return (a - base) / config_.page_size;
}

void* UvmManager::page_base(std::size_t index) const noexcept {
  return static_cast<char*>(arena_.arena_base()) + index * config_.page_size;
}

}  // namespace crac::sim
