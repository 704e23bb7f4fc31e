// The CUDA runtime API surface as an abstract interface.
//
// Applications (the workloads, examples, cuBLAS) program against CudaApi and
// therefore run unmodified over any backend:
//   * TrampolinedApi  — CRAC's split-process path (upper half -> trampoline
//                       -> lower-half dispatch table),
//   * ProxyClientApi  — the CRUM/CRCUDA-style proxy-process baseline,
//   * CracInterposer  — CRAC's DMTCP-plugin wrappers layered over either.
//
// This mirrors how transparent checkpointing interposes on an *unmodified*
// application: the app's calls are the interface; who answers them differs.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "simcuda/error.hpp"
#include "simcuda/types.hpp"

namespace crac::cuda {

class CudaApi {
 public:
  virtual ~CudaApi() = default;

  // --- memory management ---
  virtual cudaError_t cudaMalloc(void** dev_ptr, std::size_t size) = 0;
  virtual cudaError_t cudaFree(void* dev_ptr) = 0;
  virtual cudaError_t cudaMallocHost(void** ptr, std::size_t size) = 0;
  virtual cudaError_t cudaHostAlloc(void** ptr, std::size_t size,
                                    unsigned flags) = 0;
  virtual cudaError_t cudaFreeHost(void* ptr) = 0;
  virtual cudaError_t cudaMallocManaged(void** ptr, std::size_t size,
                                        unsigned flags) = 0;
  virtual cudaError_t cudaMemcpy(void* dst, const void* src, std::size_t n,
                                 cudaMemcpyKind kind) = 0;
  virtual cudaError_t cudaMemcpyAsync(void* dst, const void* src,
                                      std::size_t n, cudaMemcpyKind kind,
                                      cudaStream_t stream) = 0;
  virtual cudaError_t cudaMemset(void* dst, int value, std::size_t n) = 0;
  virtual cudaError_t cudaMemsetAsync(void* dst, int value, std::size_t n,
                                      cudaStream_t stream) = 0;
  virtual cudaError_t cudaMemPrefetchAsync(const void* ptr, std::size_t n,
                                           int dst_device,
                                           cudaStream_t stream) = 0;
  virtual cudaError_t cudaMemGetInfo(std::size_t* free_bytes,
                                     std::size_t* total_bytes) = 0;
  virtual cudaError_t cudaPointerGetAttributes(cudaPointerAttributes* attrs,
                                               const void* ptr) = 0;

  // --- streams ---
  virtual cudaError_t cudaStreamCreate(cudaStream_t* stream) = 0;
  virtual cudaError_t cudaStreamDestroy(cudaStream_t stream) = 0;
  virtual cudaError_t cudaStreamSynchronize(cudaStream_t stream) = 0;
  virtual cudaError_t cudaStreamQuery(cudaStream_t stream) = 0;
  virtual cudaError_t cudaStreamWaitEvent(cudaStream_t stream,
                                          cudaEvent_t event,
                                          unsigned flags) = 0;
  virtual cudaError_t cudaLaunchHostFunc(cudaStream_t stream, cudaHostFn_t fn,
                                         void* user_data) = 0;

  // --- events ---
  virtual cudaError_t cudaEventCreate(cudaEvent_t* event) = 0;
  virtual cudaError_t cudaEventDestroy(cudaEvent_t event) = 0;
  virtual cudaError_t cudaEventRecord(cudaEvent_t event,
                                      cudaStream_t stream) = 0;
  virtual cudaError_t cudaEventSynchronize(cudaEvent_t event) = 0;
  virtual cudaError_t cudaEventQuery(cudaEvent_t event) = 0;
  virtual cudaError_t cudaEventElapsedTime(float* ms, cudaEvent_t start,
                                           cudaEvent_t stop) = 0;

  // --- execution ---
  virtual cudaError_t cudaLaunchKernel(const void* func, dim3 grid, dim3 block,
                                       void** args, std::size_t shared_mem,
                                       cudaStream_t stream) = 0;
  virtual cudaError_t cudaPushCallConfiguration(dim3 grid, dim3 block,
                                                std::size_t shared_mem,
                                                cudaStream_t stream) = 0;
  virtual cudaError_t cudaPopCallConfiguration(dim3* grid, dim3* block,
                                               std::size_t* shared_mem,
                                               cudaStream_t* stream) = 0;
  virtual cudaError_t cudaDeviceSynchronize() = 0;
  virtual cudaError_t cudaGetDeviceProperties(cudaDeviceProp* prop,
                                              int device) = 0;

  // --- fat binary registration (nvcc-generated calls) ---
  virtual FatBinaryHandle cudaRegisterFatBinary(const FatBinaryDesc* desc) = 0;
  virtual void cudaRegisterFunction(FatBinaryHandle handle,
                                    const KernelRegistration& reg) = 0;
  virtual void cudaUnregisterFatBinary(FatBinaryHandle handle) = 0;

  // --- error state (thread-local, maintained by the wrappers) ---
  cudaError_t cudaGetLastError() noexcept {
    const cudaError_t e = last_error();
    set_last_error(cudaSuccess);
    return e;
  }
  cudaError_t cudaPeekAtLastError() const noexcept { return last_error(); }

 protected:
  // Records `err` as the sticky error when it is not cudaSuccess (matching
  // the runtime's semantics) and returns it for tail-calls.
  cudaError_t record(cudaError_t err) noexcept {
    if (err != cudaSuccess) set_last_error(err);
    return err;
  }

 private:
  static cudaError_t last_error() noexcept;
  static void set_last_error(cudaError_t err) noexcept;
};

// Reads the i-th kernel parameter (the launch ABI passes an array of
// pointers to argument values). The load goes through memcpy because the
// lower half copies the parameter buffer packed back to back (a float then
// a u64 puts the u64 at offset 4), so a value need not sit at its type's
// alignment.
template <typename T>
T kernel_arg(void* const* args, std::size_t i) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, args[i], sizeof(T));
  return value;
}

// Mimics nvcc's codegen for `kernel<<<grid, block, 0, stream>>>(args...)`:
// push configuration, pop configuration, launch — i.e. the three runtime
// calls the paper counts per kernel launch (Section 4.3, equation for total
// CUDA calls).
template <typename... Args>
cudaError_t launch(CudaApi& api, KernelFn fn, dim3 grid, dim3 block,
                   cudaStream_t stream, const Args&... args) {
  cudaError_t err =
      api.cudaPushCallConfiguration(grid, block, /*shared_mem=*/0, stream);
  if (err != cudaSuccess) return err;
  dim3 g, b;
  std::size_t shared = 0;
  cudaStream_t s = 0;
  err = api.cudaPopCallConfiguration(&g, &b, &shared, &s);
  if (err != cudaSuccess) return err;
  const void* ptrs[] = {static_cast<const void*>(&args)..., nullptr};
  return api.cudaLaunchKernel(reinterpret_cast<const void*>(fn), g, b,
                              const_cast<void**>(ptrs), shared, s);
}

}  // namespace crac::cuda
