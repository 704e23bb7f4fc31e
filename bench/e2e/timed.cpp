#include "timed.hpp"

#include <type_traits>

namespace crac::bench {

namespace {

// Runs one forwarded call and files its latency under (side, kind).
template <typename Fn>
auto timed_call(ApiSide side, CallKind kind, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    Tracer::get().telemetry.calls[side][kind].add(
        static_cast<std::uint64_t>(now_ns() - t0));
  } else {
    auto r = fn();
    Tracer::get().telemetry.calls[side][kind].add(
        static_cast<std::uint64_t>(now_ns() - t0));
    return r;
  }
}

}  // namespace

#define CRAC_TIMED(kind, call) \
  return timed_call(side_, kind, [&] { return ForwardingApi::call; })

using namespace cuda;

cudaError_t TimedApi::cudaMalloc(void** p, std::size_t n) {
  CRAC_TIMED(kMalloc, cudaMalloc(p, n));
}
cudaError_t TimedApi::cudaFree(void* p) { CRAC_TIMED(kFree, cudaFree(p)); }
cudaError_t TimedApi::cudaMallocHost(void** p, std::size_t n) {
  CRAC_TIMED(kMalloc, cudaMallocHost(p, n));
}
cudaError_t TimedApi::cudaHostAlloc(void** p, std::size_t n, unsigned flags) {
  CRAC_TIMED(kMalloc, cudaHostAlloc(p, n, flags));
}
cudaError_t TimedApi::cudaFreeHost(void* p) { CRAC_TIMED(kFree, cudaFreeHost(p)); }
cudaError_t TimedApi::cudaMallocManaged(void** p, std::size_t n, unsigned flags) {
  CRAC_TIMED(kMalloc, cudaMallocManaged(p, n, flags));
}
cudaError_t TimedApi::cudaMemcpy(void* dst, const void* src, std::size_t n,
                                 cudaMemcpyKind kind) {
  CRAC_TIMED(kMemcpy, cudaMemcpy(dst, src, n, kind));
}
cudaError_t TimedApi::cudaMemcpyAsync(void* dst, const void* src, std::size_t n,
                                      cudaMemcpyKind kind, cudaStream_t stream) {
  CRAC_TIMED(kMemcpy, cudaMemcpyAsync(dst, src, n, kind, stream));
}
cudaError_t TimedApi::cudaMemset(void* dst, int value, std::size_t n) {
  CRAC_TIMED(kMemset, cudaMemset(dst, value, n));
}
cudaError_t TimedApi::cudaMemsetAsync(void* dst, int value, std::size_t n,
                                      cudaStream_t stream) {
  CRAC_TIMED(kMemset, cudaMemsetAsync(dst, value, n, stream));
}
cudaError_t TimedApi::cudaMemPrefetchAsync(const void* ptr, std::size_t n,
                                           int dst_device, cudaStream_t stream) {
  CRAC_TIMED(kMemcpy, cudaMemPrefetchAsync(ptr, n, dst_device, stream));
}
cudaError_t TimedApi::cudaMemGetInfo(std::size_t* free_bytes,
                                     std::size_t* total_bytes) {
  CRAC_TIMED(kOther, cudaMemGetInfo(free_bytes, total_bytes));
}
cudaError_t TimedApi::cudaPointerGetAttributes(cudaPointerAttributes* attrs,
                                               const void* ptr) {
  CRAC_TIMED(kOther, cudaPointerGetAttributes(attrs, ptr));
}
cudaError_t TimedApi::cudaStreamCreate(cudaStream_t* stream) {
  CRAC_TIMED(kStream, cudaStreamCreate(stream));
}
cudaError_t TimedApi::cudaStreamDestroy(cudaStream_t stream) {
  CRAC_TIMED(kStream, cudaStreamDestroy(stream));
}
cudaError_t TimedApi::cudaStreamSynchronize(cudaStream_t stream) {
  CRAC_TIMED(kSync, cudaStreamSynchronize(stream));
}
cudaError_t TimedApi::cudaStreamQuery(cudaStream_t stream) {
  CRAC_TIMED(kStream, cudaStreamQuery(stream));
}
cudaError_t TimedApi::cudaStreamWaitEvent(cudaStream_t stream, cudaEvent_t event,
                                          unsigned flags) {
  CRAC_TIMED(kStream, cudaStreamWaitEvent(stream, event, flags));
}
cudaError_t TimedApi::cudaLaunchHostFunc(cudaStream_t stream, cudaHostFn_t fn,
                                         void* user_data) {
  CRAC_TIMED(kLaunch, cudaLaunchHostFunc(stream, fn, user_data));
}
cudaError_t TimedApi::cudaEventCreate(cudaEvent_t* event) {
  CRAC_TIMED(kStream, cudaEventCreate(event));
}
cudaError_t TimedApi::cudaEventDestroy(cudaEvent_t event) {
  CRAC_TIMED(kStream, cudaEventDestroy(event));
}
cudaError_t TimedApi::cudaEventRecord(cudaEvent_t event, cudaStream_t stream) {
  CRAC_TIMED(kStream, cudaEventRecord(event, stream));
}
cudaError_t TimedApi::cudaEventSynchronize(cudaEvent_t event) {
  CRAC_TIMED(kSync, cudaEventSynchronize(event));
}
cudaError_t TimedApi::cudaEventQuery(cudaEvent_t event) {
  CRAC_TIMED(kStream, cudaEventQuery(event));
}
cudaError_t TimedApi::cudaEventElapsedTime(float* ms, cudaEvent_t start,
                                           cudaEvent_t stop) {
  CRAC_TIMED(kStream, cudaEventElapsedTime(ms, start, stop));
}
cudaError_t TimedApi::cudaLaunchKernel(const void* func, dim3 grid, dim3 block,
                                       void** args, std::size_t shared_mem,
                                       cudaStream_t stream) {
  CRAC_TIMED(kLaunch,
             cudaLaunchKernel(func, grid, block, args, shared_mem, stream));
}
cudaError_t TimedApi::cudaPushCallConfiguration(dim3 grid, dim3 block,
                                                std::size_t shared_mem,
                                                cudaStream_t stream) {
  CRAC_TIMED(kLaunch, cudaPushCallConfiguration(grid, block, shared_mem, stream));
}
cudaError_t TimedApi::cudaPopCallConfiguration(dim3* grid, dim3* block,
                                               std::size_t* shared_mem,
                                               cudaStream_t* stream) {
  CRAC_TIMED(kLaunch, cudaPopCallConfiguration(grid, block, shared_mem, stream));
}
cudaError_t TimedApi::cudaDeviceSynchronize() {
  CRAC_TIMED(kSync, cudaDeviceSynchronize());
}
cudaError_t TimedApi::cudaGetDeviceProperties(cudaDeviceProp* prop, int device) {
  CRAC_TIMED(kOther, cudaGetDeviceProperties(prop, device));
}
FatBinaryHandle TimedApi::cudaRegisterFatBinary(const FatBinaryDesc* desc) {
  CRAC_TIMED(kOther, cudaRegisterFatBinary(desc));
}
void TimedApi::cudaRegisterFunction(FatBinaryHandle handle,
                                    const KernelRegistration& reg) {
  CRAC_TIMED(kOther, cudaRegisterFunction(handle, reg));
}
void TimedApi::cudaUnregisterFatBinary(FatBinaryHandle handle) {
  CRAC_TIMED(kOther, cudaUnregisterFatBinary(handle));
}

#undef CRAC_TIMED

// ---------------------------------------------------------------- sinks --

Status TimedSink::do_write(const void* data, std::size_t size) {
  Span span("remote.sink_write");
  const std::int64_t t0 = now_ns();
  Status s = inner_->write(data, size);
  blocked_ns_ += now_ns() - t0;
  return s;
}

Status TimedSink::flush() {
  Span span("remote.sink_flush");
  const std::int64_t t0 = now_ns();
  Status s = inner_->flush();
  blocked_ns_ += now_ns() - t0;
  return s;
}

Status TimedSink::close() {
  Span span("remote.sink_close");
  const std::int64_t t0 = now_ns();
  Status s = inner_->close();
  blocked_ns_ += now_ns() - t0;
  return s;
}

Status TimedSource::read(void* out, std::size_t size) {
  Span span("remote.source_read");
  const std::int64_t t0 = now_ns();
  Status s = inner_->read(out, size);
  c_->wait_ns += now_ns() - t0;
  c_->reads += 1;
  return s;
}

Result<bool> TimedSource::at_end(std::uint64_t offset) {
  Span span("remote.source_at_end");
  const std::int64_t t0 = now_ns();
  Result<bool> r = inner_->at_end(offset);
  c_->wait_ns += now_ns() - t0;
  return r;
}

}  // namespace crac::bench
