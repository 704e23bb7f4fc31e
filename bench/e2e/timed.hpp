// Per-layer wrappers the traced run puts around the library's public
// interfaces. Each forwards every call unchanged and only adds timing.
#pragma once

#include <cstdint>
#include <memory>

#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "simcuda/forwarding_api.hpp"
#include "trace.hpp"

namespace crac::bench {

// Times every CUDA call into the process's call histograms, under `side`
// (the CRAC context's API or the native baseline's).
class TimedApi final : public cuda::ForwardingApi {
 public:
  TimedApi(cuda::CudaApi* inner, ApiSide side) : ForwardingApi(inner), side_(side) {}

  cuda::cudaError_t cudaMalloc(void** p, std::size_t n) override;
  cuda::cudaError_t cudaFree(void* p) override;
  cuda::cudaError_t cudaMallocHost(void** p, std::size_t n) override;
  cuda::cudaError_t cudaHostAlloc(void** p, std::size_t n, unsigned flags) override;
  cuda::cudaError_t cudaFreeHost(void* p) override;
  cuda::cudaError_t cudaMallocManaged(void** p, std::size_t n, unsigned flags) override;
  cuda::cudaError_t cudaMemcpy(void* dst, const void* src, std::size_t n,
                               cuda::cudaMemcpyKind kind) override;
  cuda::cudaError_t cudaMemcpyAsync(void* dst, const void* src, std::size_t n,
                                    cuda::cudaMemcpyKind kind,
                                    cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaMemset(void* dst, int value, std::size_t n) override;
  cuda::cudaError_t cudaMemsetAsync(void* dst, int value, std::size_t n,
                                    cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaMemPrefetchAsync(const void* ptr, std::size_t n,
                                         int dst_device,
                                         cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaMemGetInfo(std::size_t* free_bytes,
                                   std::size_t* total_bytes) override;
  cuda::cudaError_t cudaPointerGetAttributes(cuda::cudaPointerAttributes* attrs,
                                             const void* ptr) override;
  cuda::cudaError_t cudaStreamCreate(cuda::cudaStream_t* stream) override;
  cuda::cudaError_t cudaStreamDestroy(cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaStreamSynchronize(cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaStreamQuery(cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaStreamWaitEvent(cuda::cudaStream_t stream,
                                        cuda::cudaEvent_t event,
                                        unsigned flags) override;
  cuda::cudaError_t cudaLaunchHostFunc(cuda::cudaStream_t stream,
                                       cuda::cudaHostFn_t fn,
                                       void* user_data) override;
  cuda::cudaError_t cudaEventCreate(cuda::cudaEvent_t* event) override;
  cuda::cudaError_t cudaEventDestroy(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaEventRecord(cuda::cudaEvent_t event,
                                    cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaEventSynchronize(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaEventQuery(cuda::cudaEvent_t event) override;
  cuda::cudaError_t cudaEventElapsedTime(float* ms, cuda::cudaEvent_t start,
                                         cuda::cudaEvent_t stop) override;
  cuda::cudaError_t cudaLaunchKernel(const void* func, cuda::dim3 grid,
                                     cuda::dim3 block, void** args,
                                     std::size_t shared_mem,
                                     cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaPushCallConfiguration(cuda::dim3 grid, cuda::dim3 block,
                                              std::size_t shared_mem,
                                              cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaPopCallConfiguration(cuda::dim3* grid, cuda::dim3* block,
                                             std::size_t* shared_mem,
                                             cuda::cudaStream_t* stream) override;
  cuda::cudaError_t cudaDeviceSynchronize() override;
  cuda::cudaError_t cudaGetDeviceProperties(cuda::cudaDeviceProp* prop,
                                            int device) override;
  cuda::FatBinaryHandle cudaRegisterFatBinary(const cuda::FatBinaryDesc* desc) override;
  void cudaRegisterFunction(cuda::FatBinaryHandle handle,
                            const cuda::KernelRegistration& reg) override;
  void cudaUnregisterFatBinary(cuda::FatBinaryHandle handle) override;

 private:
  ApiSide side_;
};

// Time the sink spent blocked handing bytes to its transport.
class TimedSink final : public ckpt::Sink {
 public:
  explicit TimedSink(ckpt::Sink* inner) : inner_(inner) {}
  Status flush() override;
  Status close() override;
  double blocked_s() const noexcept { return static_cast<double>(blocked_ns_) * 1e-9; }

 private:
  Status do_write(const void* data, std::size_t size) override;
  ckpt::Sink* inner_;
  std::int64_t blocked_ns_ = 0;
};

// Reads and end-probes of a (possibly still-filling) source: how often the
// restore pulled bytes and how long it waited for them. The counters live in
// a shared block so they outlive the source, which the restore consumes.
class TimedSource final : public ckpt::Source {
 public:
  struct Counters {
    std::int64_t wait_ns = 0;
    std::uint64_t reads = 0;
  };
  TimedSource(std::unique_ptr<ckpt::Source> inner, std::shared_ptr<Counters> c)
      : inner_(std::move(inner)), c_(std::move(c)) {}

  Status read(void* out, std::size_t size) override;
  Status seek(std::uint64_t offset) override { return inner_->seek(offset); }
  std::uint64_t position() const noexcept override { return inner_->position(); }
  std::uint64_t size() const noexcept override { return inner_->size(); }
  bool end_known() const noexcept override { return inner_->end_known(); }
  Result<bool> at_end(std::uint64_t offset) override;
  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<ckpt::Source> inner_;
  std::shared_ptr<Counters> c_;
};

}  // namespace crac::bench
