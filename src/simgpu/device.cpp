#include "simgpu/device.hpp"

#include <thread>

#include "common/log.hpp"

namespace crac::sim {

Device::Device(const DeviceConfig& config) : config_(config) {
  int sms = config_.num_sms;
  if (sms <= 0) {
    sms = static_cast<int>(std::thread::hardware_concurrency());
    if (sms <= 0) sms = 4;
  }
  sm_pool_ = std::make_unique<ThreadPool>(static_cast<std::size_t>(sms));

  device_arena_ = std::make_unique<ArenaAllocator>(ArenaAllocator::Config{
      .va_base = config_.device_va_base,
      .capacity = config_.device_capacity,
      .chunk_size = config_.device_chunk,
      .alignment = config_.alignment,
      .purpose = "device",
      .hooks = config_.hooks,
  });
  pinned_arena_ = std::make_unique<ArenaAllocator>(ArenaAllocator::Config{
      .va_base = config_.pinned_va_base,
      .capacity = config_.pinned_capacity,
      .chunk_size = config_.pinned_chunk,
      .alignment = config_.alignment,
      .purpose = "pinned",
      .hooks = config_.hooks,
  });
  uvm_ = std::make_unique<UvmManager>(UvmManager::Config{
      .va_base = config_.managed_va_base,
      .capacity = config_.managed_capacity,
      .chunk_size = config_.managed_chunk,
      .alignment = config_.alignment,
      .page_size = config_.uvm_page_size,
      .fault_cost_us = config_.cost.uvm_fault_us,
      .hooks = config_.hooks,
  });

  // Trackers span each arena's actual reservation (the base is only known
  // after construction when va_base is 0), then attach so allocate/free/
  // restore and UVM fault/prefetch paths mark through them.
  device_dirty_ = std::make_unique<ckpt::DirtyTracker>(
      reinterpret_cast<std::uintptr_t>(device_arena_->arena_base()),
      config_.device_capacity);
  pinned_dirty_ = std::make_unique<ckpt::DirtyTracker>(
      reinterpret_cast<std::uintptr_t>(pinned_arena_->arena_base()),
      config_.pinned_capacity);
  managed_dirty_ = std::make_unique<ckpt::DirtyTracker>(
      reinterpret_cast<std::uintptr_t>(uvm_->arena_base()),
      config_.managed_capacity);
  device_arena_->set_dirty_tracker(device_dirty_.get());
  pinned_arena_->set_dirty_tracker(pinned_dirty_.get());
  uvm_->set_dirty_tracker(managed_dirty_.get());

  // One COW overlay covers all three arenas (disarmed between captures;
  // arm_snapshot() freezes it). Chunk granularity matches the trackers so
  // a preserve and a mark describe the same block.
  snap_overlay_ = std::make_unique<ckpt::SnapOverlay>(ckpt::SnapOverlay::Config{
      .chunk_bytes = ckpt::kDefaultDirtyChunkBytes,
      .mem_cap_bytes = config_.snapstore_mem_cap_bytes,
      .file_cap_bytes = config_.snapstore_file_cap_bytes,
  });
  device_arena_->set_snap_overlay(snap_overlay_.get());
  pinned_arena_->set_snap_overlay(snap_overlay_.get());
  uvm_->set_snap_overlay(snap_overlay_.get());

  StreamEngineConfig se;
  se.max_streams = config_.max_streams;
  se.max_concurrent_kernels = config_.max_concurrent_kernels;
  se.cost = config_.cost;
  se.infer_kind = [this](const void* dst, const void* src) {
    return infer_kind(dst, src);
  };
  se.note_write = [this](const void* p, std::size_t n) { note_write(p, n); };
  streams_ = std::make_unique<StreamEngine>(std::move(se), sm_pool_.get());
}

DeviceProperties Device::properties() const {
  DeviceProperties p;
  p.name = config_.name;
  p.cc_major = config_.cc_major;
  p.cc_minor = config_.cc_minor;
  p.num_sms = static_cast<int>(sm_pool_->size());
  p.max_concurrent_kernels = config_.max_concurrent_kernels;
  p.total_mem_bytes = config_.device_capacity;
  p.uvm_page_size = config_.uvm_page_size;
  return p;
}

Result<void*> Device::malloc_device(std::size_t bytes) {
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return device_arena_->allocate(bytes);
}

Result<void*> Device::malloc_pinned(std::size_t bytes) {
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return pinned_arena_->allocate(bytes);
}

Result<void*> Device::malloc_managed(std::size_t bytes) {
  allocs_.fetch_add(1, std::memory_order_relaxed);
  return uvm_->allocate(bytes);
}

Status Device::free_any(void* p) {
  frees_.fetch_add(1, std::memory_order_relaxed);
  if (device_arena_->contains(p)) return device_arena_->free(p);
  if (pinned_arena_->contains(p)) return pinned_arena_->free(p);
  if (uvm_->contains(p)) return uvm_->free(p);
  return InvalidArgument("pointer does not belong to any device arena");
}

void Device::note_write(const void* p, std::size_t n) noexcept {
  ckpt::DirtyTracker* tracker = nullptr;
  const void* base = p;
  std::size_t len = n;
  if (device_arena_->contains(p)) {
    tracker = device_dirty_.get();
    if (n == 0) {
      auto alloc = device_arena_->containing_allocation(p);
      if (!alloc) return;
      base = alloc->first;
      len = alloc->second;
    }
  } else if (pinned_arena_->contains(p)) {
    tracker = pinned_dirty_.get();
    if (n == 0) {
      auto alloc = pinned_arena_->containing_allocation(p);
      if (!alloc) return;
      base = alloc->first;
      len = alloc->second;
    }
  } else if (uvm_->contains(p)) {
    tracker = managed_dirty_.get();
    if (n == 0) {
      auto alloc = uvm_->containing_allocation(p);
      if (!alloc) return;
      base = alloc->first;
      len = alloc->second;
    }
  } else {
    return;  // host pointer or foreign memory — not ours to track
  }
  // Preserve before mark: callers invoke note_write *before* the bytes
  // change, so under an armed snapshot the pre-image is still in place to
  // copy. The mark may come either side of the write; the preserve may not.
  snap_overlay_->copy_before_write(base, len);
  tracker->mark(base, len);
}

Status Device::arm_snapshot() {
  // Each arena's committed span at the freeze: every frozen byte lies in
  // it, so arming costs O(committed chunks), not O(reservation). Memory an
  // arena commits after the freeze holds no frozen bytes, and a write there
  // owes the capture nothing.
  const std::vector<ckpt::SnapOverlay::Region> regions = {
      {reinterpret_cast<std::uintptr_t>(device_arena_->arena_base()),
       device_arena_->committed_bytes()},
      {reinterpret_cast<std::uintptr_t>(pinned_arena_->arena_base()),
       pinned_arena_->committed_bytes()},
      {reinterpret_cast<std::uintptr_t>(uvm_->arena_base()),
       uvm_->committed_bytes()},
  };
  // Re-protect every managed page *before* arming, so the first
  // post-freeze write faults into the preserve path. Arming publishes
  // armed(); a writer that has seen it could otherwise store into a page
  // an earlier fault epoch left writable, and nothing would preserve it.
  CRAC_RETURN_IF_ERROR(uvm_->arm_all());
  return snap_overlay_->arm(regions);
}

void Device::release_snapshot() { snap_overlay_->release(); }

MemcpyKind Device::infer_kind(const void* dst, const void* src) const noexcept {
  const bool dst_dev = is_device_ptr(dst) || is_managed_ptr(dst);
  const bool src_dev = is_device_ptr(src) || is_managed_ptr(src);
  if (dst_dev && src_dev) return MemcpyKind::kDeviceToDevice;
  if (dst_dev) return MemcpyKind::kHostToDevice;
  if (src_dev) return MemcpyKind::kDeviceToHost;
  return MemcpyKind::kHostToHost;
}

Status Device::memcpy_sync(void* dst, const void* src, std::size_t n,
                           MemcpyKind kind) {
  memcpys_.fetch_add(1, std::memory_order_relaxed);
  memcpy_bytes_.fetch_add(n, std::memory_order_relaxed);
  CRAC_RETURN_IF_ERROR(streams_->enqueue(0, MemcpyOp{dst, src, n, kind}));
  return streams_->synchronize(0);
}

Status Device::memset_sync(void* dst, int value, std::size_t n) {
  memsets_.fetch_add(1, std::memory_order_relaxed);
  CRAC_RETURN_IF_ERROR(streams_->enqueue(0, MemsetOp{dst, value, n}));
  return streams_->synchronize(0);
}

Status Device::synchronize() { return streams_->synchronize_all(); }

DeviceCounters Device::counters() const {
  DeviceCounters c;
  c.kernels_launched = kernels_launched_.load(std::memory_order_relaxed);
  c.memcpys = memcpys_.load(std::memory_order_relaxed);
  c.memcpy_bytes = memcpy_bytes_.load(std::memory_order_relaxed);
  c.memsets = memsets_.load(std::memory_order_relaxed);
  c.allocs = allocs_.load(std::memory_order_relaxed);
  c.frees = frees_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace crac::sim
