#include "simcuda/lower_half.hpp"

#include <cstring>

#include "common/log.hpp"

namespace crac::cuda {

thread_local std::vector<LowerHalfRuntime::CallConfig>
    LowerHalfRuntime::call_config_stack_;

LowerHalfRuntime::LowerHalfRuntime(const sim::DeviceConfig& config)
    : device_(std::make_unique<sim::Device>(config)) {}

LowerHalfRuntime::~LowerHalfRuntime() {
  // Mirrors driver shutdown: all pending work is drained before the device
  // state disappears.
  (void)device_->synchronize();
  // Handle slots of fat binaries never unregistered (an application that
  // exits without cudaUnregisterFatBinary, or a context destroyed mid-run).
  for (const auto& [handle, fb] : fatbins_) {
    delete reinterpret_cast<std::uintptr_t*>(handle);
  }
}

cudaError_t LowerHalfRuntime::malloc_device(void** p, std::size_t n) {
  if (p == nullptr || n == 0) return cudaErrorInvalidValue;
  auto r = device_->malloc_device(n);
  if (!r.ok()) return to_cuda_error(r.status());
  *p = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::free_device(void* p) {
  if (p == nullptr) return cudaSuccess;  // cudaFree(nullptr) is a no-op
  return to_cuda_error(device_->free_any(p));
}

cudaError_t LowerHalfRuntime::malloc_host(void** p, std::size_t n) {
  if (p == nullptr || n == 0) return cudaErrorInvalidValue;
  auto r = device_->malloc_pinned(n);
  if (!r.ok()) return to_cuda_error(r.status());
  *p = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::host_alloc(void** p, std::size_t n,
                                         unsigned /*flags*/) {
  return malloc_host(p, n);
}

cudaError_t LowerHalfRuntime::free_host(void* p) {
  if (p == nullptr) return cudaSuccess;
  return to_cuda_error(device_->free_any(p));
}

cudaError_t LowerHalfRuntime::malloc_managed(void** p, std::size_t n,
                                             unsigned /*flags*/) {
  if (p == nullptr || n == 0) return cudaErrorInvalidValue;
  auto r = device_->malloc_managed(n);
  if (!r.ok()) return to_cuda_error(r.status());
  *p = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::memcpy_sync(void* dst, const void* src,
                                          std::size_t n, cudaMemcpyKind kind) {
  if (dst == nullptr || src == nullptr) return cudaErrorInvalidValue;
  return to_cuda_error(device_->memcpy_sync(dst, src, n, kind));
}

cudaError_t LowerHalfRuntime::memcpy_async(void* dst, const void* src,
                                           std::size_t n, cudaMemcpyKind kind,
                                           cudaStream_t stream) {
  if (dst == nullptr || src == nullptr) return cudaErrorInvalidValue;
  return to_cuda_error(
      device_->streams().enqueue(stream, sim::MemcpyOp{dst, src, n, kind}));
}

cudaError_t LowerHalfRuntime::memset_sync(void* dst, int value,
                                          std::size_t n) {
  if (dst == nullptr) return cudaErrorInvalidValue;
  return to_cuda_error(device_->memset_sync(dst, value, n));
}

cudaError_t LowerHalfRuntime::memset_async(void* dst, int value, std::size_t n,
                                           cudaStream_t stream) {
  if (dst == nullptr) return cudaErrorInvalidValue;
  return to_cuda_error(
      device_->streams().enqueue(stream, sim::MemsetOp{dst, value, n}));
}

cudaError_t LowerHalfRuntime::mem_prefetch_async(const void* p, std::size_t n,
                                                 int dst_device,
                                                 cudaStream_t stream) {
  if (!device_->is_managed_ptr(p)) return cudaErrorInvalidDevicePointer;
  auto* uvm = &device_->uvm();
  void* ptr = const_cast<void*>(p);
  const bool to_device = dst_device != cudaCpuDeviceId;
  // Prefetch is stream-ordered: enqueue the residency change.
  return to_cuda_error(device_->streams().enqueue(
      stream, sim::HostFuncOp{[uvm, ptr, n, to_device] {
        (void)uvm->prefetch(ptr, n, to_device);
      }}));
}

cudaError_t LowerHalfRuntime::mem_get_info(std::size_t* free_bytes,
                                           std::size_t* total_bytes) {
  if (free_bytes == nullptr || total_bytes == nullptr) {
    return cudaErrorInvalidValue;
  }
  *total_bytes = device_->config().device_capacity;
  *free_bytes = *total_bytes - device_->device_arena().active_bytes();
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::pointer_get_attributes(
    cudaPointerAttributes* attrs, const void* p) {
  if (attrs == nullptr) return cudaErrorInvalidValue;
  attrs->devicePointer = nullptr;
  attrs->hostPointer = nullptr;
  if (device_->is_device_ptr(p)) {
    attrs->type = cudaMemoryType::cudaMemoryTypeDevice;
    attrs->devicePointer = const_cast<void*>(p);
  } else if (device_->is_managed_ptr(p)) {
    attrs->type = cudaMemoryType::cudaMemoryTypeManaged;
    attrs->devicePointer = const_cast<void*>(p);
    attrs->hostPointer = const_cast<void*>(p);
  } else if (device_->is_pinned_ptr(p)) {
    attrs->type = cudaMemoryType::cudaMemoryTypeHost;
    attrs->hostPointer = const_cast<void*>(p);
  } else {
    attrs->type = cudaMemoryType::cudaMemoryTypeUnregistered;
  }
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::stream_create(cudaStream_t* stream) {
  if (stream == nullptr) return cudaErrorInvalidValue;
  auto r = device_->streams().create_stream();
  if (!r.ok()) return to_cuda_error(r.status());
  *stream = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::stream_destroy(cudaStream_t stream) {
  return to_cuda_error(device_->streams().destroy_stream(stream));
}

cudaError_t LowerHalfRuntime::stream_synchronize(cudaStream_t stream) {
  return to_cuda_error(device_->streams().synchronize(stream));
}

cudaError_t LowerHalfRuntime::stream_query(cudaStream_t stream) {
  auto r = device_->streams().query(stream);
  if (!r.ok()) return to_cuda_error(r.status());
  return *r ? cudaSuccess : cudaErrorNotReady;
}

cudaError_t LowerHalfRuntime::stream_wait_event(cudaStream_t stream,
                                                cudaEvent_t event,
                                                unsigned /*flags*/) {
  return to_cuda_error(device_->streams().wait_event(stream, event));
}

cudaError_t LowerHalfRuntime::launch_host_func(cudaStream_t stream,
                                               cudaHostFn_t fn,
                                               void* user_data) {
  if (fn == nullptr) return cudaErrorInvalidValue;
  return to_cuda_error(device_->streams().enqueue(
      stream, sim::HostFuncOp{[fn, user_data] { fn(user_data); }}));
}

cudaError_t LowerHalfRuntime::event_create(cudaEvent_t* event) {
  if (event == nullptr) return cudaErrorInvalidValue;
  auto r = device_->streams().create_event();
  if (!r.ok()) return to_cuda_error(r.status());
  *event = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::event_destroy(cudaEvent_t event) {
  return to_cuda_error(device_->streams().destroy_event(event));
}

cudaError_t LowerHalfRuntime::event_record(cudaEvent_t event,
                                           cudaStream_t stream) {
  return to_cuda_error(device_->streams().record_event(stream, event));
}

cudaError_t LowerHalfRuntime::event_synchronize(cudaEvent_t event) {
  return to_cuda_error(device_->streams().synchronize_event(event));
}

cudaError_t LowerHalfRuntime::event_query(cudaEvent_t event) {
  auto r = device_->streams().query_event(event);
  if (!r.ok()) return to_cuda_error(r.status());
  return *r ? cudaSuccess : cudaErrorNotReady;
}

cudaError_t LowerHalfRuntime::event_elapsed_time(float* ms, cudaEvent_t start,
                                                 cudaEvent_t stop) {
  if (ms == nullptr) return cudaErrorInvalidValue;
  auto r = device_->streams().elapsed_ms(start, stop);
  if (!r.ok()) return to_cuda_error(r.status());
  *ms = *r;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::launch_kernel(const void* func, dim3 grid,
                                            dim3 block, void** args,
                                            std::size_t shared_mem,
                                            cudaStream_t stream) {
  KernelRegistration reg;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    auto it = kernels_.find(func);
    if (it == kernels_.end()) {
      CRAC_ERROR() << "launch of unregistered kernel " << func
                   << " (fat binary not registered with this lower half?)";
      return cudaErrorInvalidDevicePointer;
    }
    reg = it->second;
  }

  // Copy the parameter buffer now (launch ABI): async execution must not
  // depend on the caller's stack.
  sim::KernelOp op;
  op.fn = reg.device_fn;
  op.dims = sim::LaunchDims{grid, block, shared_mem};
  op.name = reg.name != nullptr ? reg.name : "<anon>";
  for (std::size_t i = 0; i < reg.arg_count; ++i) {
    op.args.offsets.push_back(op.args.data.size());
    const auto* src = static_cast<const std::byte*>(args[i]);
    op.args.data.insert(op.args.data.end(), src, src + reg.arg_sizes[i]);
  }

  device_->count_kernel_launch();
  return to_cuda_error(device_->streams().enqueue(stream, std::move(op)));
}

cudaError_t LowerHalfRuntime::push_call_configuration(dim3 grid, dim3 block,
                                                      std::size_t shared_mem,
                                                      cudaStream_t stream) {
  call_config_stack_.push_back(CallConfig{grid, block, shared_mem, stream});
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::pop_call_configuration(dim3* grid, dim3* block,
                                                     std::size_t* shared_mem,
                                                     cudaStream_t* stream) {
  if (call_config_stack_.empty()) return cudaErrorInvalidValue;
  const CallConfig cfg = call_config_stack_.back();
  call_config_stack_.pop_back();
  if (grid != nullptr) *grid = cfg.grid;
  if (block != nullptr) *block = cfg.block;
  if (shared_mem != nullptr) *shared_mem = cfg.shared_mem;
  if (stream != nullptr) *stream = cfg.stream;
  return cudaSuccess;
}

cudaError_t LowerHalfRuntime::device_synchronize() {
  return to_cuda_error(device_->synchronize());
}

cudaError_t LowerHalfRuntime::get_device_properties(cudaDeviceProp* prop,
                                                    int device) {
  if (prop == nullptr || device != 0) return cudaErrorInvalidValue;
  *prop = device_->properties();
  return cudaSuccess;
}

FatBinaryHandle LowerHalfRuntime::register_fat_binary(
    const FatBinaryDesc* desc) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto fb = std::make_unique<FatBinary>();
  fb->desc = desc != nullptr ? *desc : FatBinaryDesc{};
  // The handle is a pointer-to-pointer as in the real ABI; the pointee slot
  // identifies this registration.
  auto handle = reinterpret_cast<FatBinaryHandle>(
      new std::uintptr_t(next_fatbin_id_++));
  fatbins_.emplace(handle, std::move(fb));
  return handle;
}

void LowerHalfRuntime::register_function(FatBinaryHandle handle,
                                         const KernelRegistration& reg) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = fatbins_.find(handle);
  if (it == fatbins_.end()) {
    CRAC_ERROR() << "register_function with unknown fat-binary handle";
    return;
  }
  it->second->kernels.push_back(reg.host_fn);
  kernels_[reg.host_fn] = reg;
}

void LowerHalfRuntime::unregister_fat_binary(FatBinaryHandle handle) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  auto it = fatbins_.find(handle);
  if (it == fatbins_.end()) return;
  for (const void* key : it->second->kernels) kernels_.erase(key);
  delete reinterpret_cast<std::uintptr_t*>(handle);
  fatbins_.erase(it);
}

std::size_t LowerHalfRuntime::registered_kernel_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return kernels_.size();
}

std::size_t LowerHalfRuntime::registered_fatbin_count() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return fatbins_.size();
}

bool LowerHalfRuntime::kernel_is_registered(const void* host_fn) const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return kernels_.count(host_fn) > 0;
}

// ---- dispatch table glue ----

namespace {
LowerHalfRuntime* rt(void* self) { return static_cast<LowerHalfRuntime*>(self); }
}  // namespace

void LowerHalfRuntime::fill_dispatch_table(DispatchTable* t) {
  t->self = this;
  t->malloc_device = [](void* s, void** p, std::size_t n) {
    return rt(s)->malloc_device(p, n);
  };
  t->free_device = [](void* s, void* p) { return rt(s)->free_device(p); };
  t->malloc_host = [](void* s, void** p, std::size_t n) {
    return rt(s)->malloc_host(p, n);
  };
  t->host_alloc = [](void* s, void** p, std::size_t n, unsigned f) {
    return rt(s)->host_alloc(p, n, f);
  };
  t->free_host = [](void* s, void* p) { return rt(s)->free_host(p); };
  t->malloc_managed = [](void* s, void** p, std::size_t n, unsigned f) {
    return rt(s)->malloc_managed(p, n, f);
  };
  t->memcpy_sync = [](void* s, void* d, const void* src, std::size_t n,
                      cudaMemcpyKind k) {
    return rt(s)->memcpy_sync(d, src, n, k);
  };
  t->memcpy_async = [](void* s, void* d, const void* src, std::size_t n,
                       cudaMemcpyKind k, cudaStream_t st) {
    return rt(s)->memcpy_async(d, src, n, k, st);
  };
  t->memset_sync = [](void* s, void* d, int v, std::size_t n) {
    return rt(s)->memset_sync(d, v, n);
  };
  t->memset_async = [](void* s, void* d, int v, std::size_t n,
                       cudaStream_t st) {
    return rt(s)->memset_async(d, v, n, st);
  };
  t->mem_prefetch_async = [](void* s, const void* p, std::size_t n, int dev,
                             cudaStream_t st) {
    return rt(s)->mem_prefetch_async(p, n, dev, st);
  };
  t->mem_get_info = [](void* s, std::size_t* f, std::size_t* tot) {
    return rt(s)->mem_get_info(f, tot);
  };
  t->pointer_get_attributes = [](void* s, cudaPointerAttributes* a,
                                 const void* p) {
    return rt(s)->pointer_get_attributes(a, p);
  };
  t->stream_create = [](void* s, cudaStream_t* st) {
    return rt(s)->stream_create(st);
  };
  t->stream_destroy = [](void* s, cudaStream_t st) {
    return rt(s)->stream_destroy(st);
  };
  t->stream_synchronize = [](void* s, cudaStream_t st) {
    return rt(s)->stream_synchronize(st);
  };
  t->stream_query = [](void* s, cudaStream_t st) {
    return rt(s)->stream_query(st);
  };
  t->stream_wait_event = [](void* s, cudaStream_t st, cudaEvent_t e,
                            unsigned f) {
    return rt(s)->stream_wait_event(st, e, f);
  };
  t->launch_host_func = [](void* s, cudaStream_t st, cudaHostFn_t fn,
                           void* ud) {
    return rt(s)->launch_host_func(st, fn, ud);
  };
  t->event_create = [](void* s, cudaEvent_t* e) {
    return rt(s)->event_create(e);
  };
  t->event_destroy = [](void* s, cudaEvent_t e) {
    return rt(s)->event_destroy(e);
  };
  t->event_record = [](void* s, cudaEvent_t e, cudaStream_t st) {
    return rt(s)->event_record(e, st);
  };
  t->event_synchronize = [](void* s, cudaEvent_t e) {
    return rt(s)->event_synchronize(e);
  };
  t->event_query = [](void* s, cudaEvent_t e) { return rt(s)->event_query(e); };
  t->event_elapsed_time = [](void* s, float* ms, cudaEvent_t a,
                             cudaEvent_t b) {
    return rt(s)->event_elapsed_time(ms, a, b);
  };
  t->launch_kernel = [](void* s, const void* fn, dim3 g, dim3 b, void** args,
                        std::size_t sh, cudaStream_t st) {
    return rt(s)->launch_kernel(fn, g, b, args, sh, st);
  };
  t->push_call_configuration = [](void* s, dim3 g, dim3 b, std::size_t sh,
                                  cudaStream_t st) {
    return rt(s)->push_call_configuration(g, b, sh, st);
  };
  t->pop_call_configuration = [](void* s, dim3* g, dim3* b, std::size_t* sh,
                                 cudaStream_t* st) {
    return rt(s)->pop_call_configuration(g, b, sh, st);
  };
  t->device_synchronize = [](void* s) { return rt(s)->device_synchronize(); };
  t->get_device_properties = [](void* s, cudaDeviceProp* p, int d) {
    return rt(s)->get_device_properties(p, d);
  };
  t->register_fat_binary = [](void* s, const FatBinaryDesc* d) {
    return rt(s)->register_fat_binary(d);
  };
  t->register_function = [](void* s, FatBinaryHandle h,
                            const KernelRegistration& r) {
    rt(s)->register_function(h, r);
  };
  t->unregister_fat_binary = [](void* s, FatBinaryHandle h) {
    rt(s)->unregister_fat_binary(h);
  };
}

}  // namespace crac::cuda
