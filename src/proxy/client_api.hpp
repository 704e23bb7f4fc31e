// ProxyClientApi — the application-side stub of the proxy architecture.
//
// Implements the full CudaApi surface by RPC to the forked proxy process.
// Each call is a synchronous round trip on a Unix socket; bulk payloads use
// Cross-Memory-Attach when the kernel permits, falling back to socket
// streaming. Managed memory is mirrored via CRUM-style shadow buffers.
//
// This backend exists as the paper's baseline: workloads run unmodified
// over it, and Table 3 measures exactly the per-call cost difference
// between this and CRAC's in-process trampoline.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "ckpt/image.hpp"
#include "proxy/channel.hpp"
#include "proxy/server.hpp"
#include "proxy/shadow_uvm.hpp"
#include "simcuda/api.hpp"

namespace crac::proxy {

struct ProxyStats {
  std::uint64_t rpcs = 0;
  std::uint64_t bulk_bytes_cma = 0;
  std::uint64_t bulk_bytes_socket = 0;
  std::uint64_t shadow_syncs_to_device = 0;
  std::uint64_t shadow_syncs_from_device = 0;
  std::uint64_t shadow_sync_bytes = 0;
};

class ProxyClientApi final : public cuda::CudaApi {
 public:
  struct Options {
    ProxyHostOptions host;
  };

  ProxyClientApi();  // default options; spawns its own server
  explicit ProxyClientApi(const Options& options);
  // Fleet attach: opens a fresh channel to an already-running server via its
  // listening socket. The attached client is a full peer — its own Hello,
  // its own CMA staging buffer, every verb — and shares the server's device
  // with everyone else. The shared_ptr keeps the server alive: it shuts
  // down when the last holder (owner or attached) lets go.
  explicit ProxyClientApi(std::shared_ptr<ProxyHost> host);
  ~ProxyClientApi() override;

  ProxyClientApi(const ProxyClientApi&) = delete;
  ProxyClientApi& operator=(const ProxyClientApi&) = delete;

  // The spawned (or attached-to) server; pass to the attach constructor to
  // point more clients at the same device.
  const std::shared_ptr<ProxyHost>& host() const noexcept { return host_; }

  bool cma_available() const noexcept { return cma_.available(); }
  ProxyStats stats() const;
  const ShadowUvm& shadow() const noexcept { return shadow_; }

  // Streams the managed (shadow-mirrored) state into a kManagedBuffers
  // section of `image`: device contents are synced into the shadows, then
  // each shadow region is appended to the open chunk pipeline directly —
  // no intermediate whole-drain buffer. This is what a CRUM-style
  // checkpoint of the application process carries for managed memory.
  Status drain_managed(ckpt::ImageWriter& image);

  // Read-side twin: refills live shadow regions from a drained
  // kManagedBuffers section and pushes the restored contents to the
  // device. Section bytes stream straight into the shadow mirrors (decoded
  // chunk by chunk — no staging buffer); records are matched to live
  // shadows by their remote (proxy-side) pointer, which is the stable
  // identity across a drain/restore cycle.
  Status restore_managed(ckpt::ImageReader& image);

  // --- CudaApi ---
  cuda::cudaError_t cudaMalloc(void** p, std::size_t n) override;
  cuda::cudaError_t cudaFree(void* p) override;
  cuda::cudaError_t cudaMallocHost(void** p, std::size_t n) override;
  cuda::cudaError_t cudaHostAlloc(void** p, std::size_t n,
                                  unsigned flags) override;
  cuda::cudaError_t cudaFreeHost(void* p) override;
  cuda::cudaError_t cudaMallocManaged(void** p, std::size_t n,
                                      unsigned flags) override;
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
  cuda::cudaError_t cudaPointerGetAttributes(cuda::cudaPointerAttributes* a,
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
  cuda::cudaError_t cudaPushCallConfiguration(cuda::dim3 grid,
                                              cuda::dim3 block,
                                              std::size_t shared_mem,
                                              cuda::cudaStream_t stream) override;
  cuda::cudaError_t cudaPopCallConfiguration(cuda::dim3* grid,
                                             cuda::dim3* block,
                                             std::size_t* shared_mem,
                                             cuda::cudaStream_t* stream) override;
  cuda::cudaError_t cudaDeviceSynchronize() override;
  cuda::cudaError_t cudaGetDeviceProperties(cuda::cudaDeviceProp* prop,
                                            int device) override;
  cuda::FatBinaryHandle cudaRegisterFatBinary(
      const cuda::FatBinaryDesc* desc) override;
  void cudaRegisterFunction(cuda::FatBinaryHandle handle,
                            const cuda::KernelRegistration& reg) override;
  void cudaUnregisterFatBinary(cuda::FatBinaryHandle handle) override;

 private:
  struct CallConfig {
    cuda::dim3 grid, block;
    std::size_t shared_mem;
    cuda::cudaStream_t stream;
  };

  // Hello round trip + CMA probe for a freshly opened channel.
  void init_channel();

  // One RPC round trip. Thread-safe (serialized); `recv_into`/`recv_bytes`
  // receive an expected inline or staged response payload.
  Result<ResponseHeader> call(RequestHeader req, const void* payload,
                              std::size_t payload_bytes,
                              void* recv_into = nullptr,
                              std::size_t recv_bytes = 0);

  // Bulk copies split into sub-RPCs against kMaxRequestPayloadBytes (and,
  // pull-side, against the CMA staging window) so no single request or
  // response payload ever exceeds what the server accepts inline.
  cuda::cudaError_t push_to_device(std::uint64_t remote, const void* src,
                                   std::size_t n);
  cuda::cudaError_t pull_from_device(void* dst, std::uint64_t remote,
                                     std::size_t n);

  // CRUM shadow synchronization around calls.
  cuda::cudaError_t sync_shadows_to_device();
  cuda::cudaError_t sync_shadows_from_device();

  bool is_remote_ptr(const void* p) const;

  std::shared_ptr<ProxyHost> host_;
  int channel_fd_ = -1;   // this client's wire (control fd, or attached)
  bool attached_ = false;  // channel_fd_ is ours to close
  CmaChannel cma_;
  mutable std::mutex rpc_mu_;

  ShadowUvm shadow_;
  mutable std::mutex state_mu_;
  std::map<std::uint64_t, std::size_t> remote_allocs_;  // device+managed
  std::set<void*> local_pinned_;  // cudaMallocHost handed out locally
  std::map<const void*, std::vector<std::size_t>> kernel_arg_sizes_;
  std::vector<CallConfig> call_config_stack_;

  mutable std::mutex stats_mu_;
  ProxyStats stats_;
};

}  // namespace crac::proxy
