#include "proxy/client_api.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/log.hpp"

namespace crac::proxy {

using cuda::cudaError_t;
using cuda::cudaSuccess;

ProxyClientApi::ProxyClientApi() : ProxyClientApi(Options{}) {}

ProxyClientApi::ProxyClientApi(const Options& options)
    : host_([&] {
        auto h = ProxyHost::spawn(options.host);
        CRAC_CHECK_MSG(h.ok(), "proxy spawn failed: " << h.status().to_string());
        return std::make_shared<ProxyHost>(std::move(*h));
      }()),
      channel_fd_(host_->fd()) {
  init_channel();
}

ProxyClientApi::ProxyClientApi(std::shared_ptr<ProxyHost> host)
    : host_(std::move(host)),
      channel_fd_([&] {
        auto fd = host_->connect();
        CRAC_CHECK_MSG(fd.ok(),
                       "proxy attach failed: " << fd.status().to_string());
        return *fd;
      }()),
      attached_(true) {
  init_channel();
}

void ProxyClientApi::init_channel() {
  RequestHeader req{};
  req.op = Op::kHello;
  HelloInfo info{};
  auto resp = call(req, nullptr, 0, &info, sizeof(info));
  CRAC_CHECK_MSG(resp.ok(), "proxy hello failed");
  // A Hello error (the server could not mint this channel's staging buffer)
  // just leaves info zeroed: the CMA probe fails and bulk payloads go
  // inline. Every channel gets its own staging region, so concurrent bulk
  // transfers from different clients never collide.
  if (resp->err == cudaSuccess) {
    cma_.initialize(info.server_pid,
                    reinterpret_cast<void*>(info.staging_addr),
                    info.staging_bytes);
  }
}

ProxyClientApi::~ProxyClientApi() {
  // Free client-side pinned buffers and the shadow mirrors of managed
  // buffers still live. An attached client closes only its own channel; the
  // server itself dies when the last ProxyHost reference drops (its
  // destructor sends shutdown and reaps the child).
  for (void* p : local_pinned_) ::free(p);
  for (const auto& [p, e] : shadow_.entries()) ::free(e.shadow);
  if (attached_ && channel_fd_ >= 0) ::close(channel_fd_);
}

ProxyStats ProxyClientApi::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Status ProxyClientApi::drain_managed(ckpt::ImageWriter& image) {
  // Pull device-side updates into the shadows first, then stream the
  // shadows themselves — they are plain host memory, so each region feeds
  // the chunk pipeline with zero extra copies.
  if (sync_shadows_from_device() != cudaSuccess) {
    return Internal("shadow sync from device failed during drain");
  }
  const auto entries = shadow_.entries();
  CRAC_RETURN_IF_ERROR(image.begin_section(ckpt::SectionType::kManagedBuffers,
                                           "proxy-shadow"));
  ByteWriter count;
  count.put_u64(entries.size());
  CRAC_RETURN_IF_ERROR(image.append(count.data(), count.size()));
  for (const auto& [p, e] : entries) {
    ByteWriter rec;
    rec.put_u64(reinterpret_cast<std::uint64_t>(e.shadow));
    rec.put_u64(e.remote);
    rec.put_u64(e.size);
    CRAC_RETURN_IF_ERROR(image.append(rec.data(), rec.size()));
    CRAC_RETURN_IF_ERROR(image.append(e.shadow, e.size));
  }
  return image.end_section();
}

Status ProxyClientApi::restore_managed(ckpt::ImageReader& image) {
  const ckpt::SectionInfo* sec =
      image.find(ckpt::SectionType::kManagedBuffers, "proxy-shadow");
  if (sec == nullptr) {
    CRAC_RETURN_IF_ERROR(image.directory_status());
    return NotFound("image has no proxy-shadow section");
  }
  CRAC_ASSIGN_OR_RETURN(auto stream, image.open_section(*sec));
  std::uint64_t count = 0;
  CRAC_RETURN_IF_ERROR(stream.get_u64(count));

  std::map<std::uint64_t, ShadowUvm::Entry> by_remote;
  for (const auto& [p, e] : shadow_.entries()) by_remote[e.remote] = e;

  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t shadow_addr = 0, remote = 0, size = 0;
    CRAC_RETURN_IF_ERROR(stream.get_u64(shadow_addr));
    CRAC_RETURN_IF_ERROR(stream.get_u64(remote));
    CRAC_RETURN_IF_ERROR(stream.get_u64(size));
    auto it = by_remote.find(remote);
    if (it == by_remote.end() || it->second.size != size) {
      return FailedPrecondition(
          "drained managed region (remote " + std::to_string(remote) + ", " +
          std::to_string(size) + " bytes) has no matching live shadow");
    }
    // The decoded chunks land straight in the shadow mirror.
    CRAC_RETURN_IF_ERROR(stream.read(it->second.shadow, size));
    // Push the restored bytes to the device so both sides agree again
    // (the CRUM write-before-call discipline, applied eagerly).
    if (push_to_device(remote, it->second.shadow, size) != cudaSuccess) {
      return Internal("restored shadow push to device failed (remote " +
                      std::to_string(remote) + ")");
    }
  }
  return OkStatus();
}

Result<ResponseHeader> ProxyClientApi::call(RequestHeader req,
                                            const void* payload,
                                            std::size_t payload_bytes,
                                            void* recv_into,
                                            std::size_t recv_bytes) {
  std::lock_guard<std::mutex> lock(rpc_mu_);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.rpcs;
  }

  // Bulk request payload: prefer CMA staging.
  const bool stage = payload_bytes > 0 && cma_.available() &&
                     payload_bytes <= cma_.staging_bytes() &&
                     (req.op == Op::kMemcpyToDevice ||
                      req.op == Op::kMemcpyToDeviceAsync);
  req.staged = stage ? 1 : 0;
  req.payload_bytes = stage ? 0 : static_cast<std::uint32_t>(payload_bytes);

  if (stage) {
    CRAC_RETURN_IF_ERROR(cma_.write_to_staging(payload, payload_bytes));
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.bulk_bytes_cma += payload_bytes;
  }
  CRAC_RETURN_IF_ERROR(write_all(channel_fd_, &req, sizeof(req)));
  if (!stage && payload_bytes > 0) {
    CRAC_RETURN_IF_ERROR(write_all(channel_fd_, payload, payload_bytes));
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.bulk_bytes_socket += payload_bytes;
  }

  ResponseHeader resp{};
  CRAC_RETURN_IF_ERROR(read_all(channel_fd_, &resp, sizeof(resp)));
  if (resp.staged != 0) {
    if (recv_into == nullptr || recv_bytes == 0) {
      return Internal("unexpected staged response");
    }
    CRAC_RETURN_IF_ERROR(cma_.read_from_staging(recv_into, recv_bytes));
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.bulk_bytes_cma += recv_bytes;
  } else if (resp.payload_bytes > 0) {
    if (recv_into == nullptr || recv_bytes < resp.payload_bytes) {
      return Internal("response payload larger than receive buffer");
    }
    CRAC_RETURN_IF_ERROR(read_all(channel_fd_, recv_into, resp.payload_bytes));
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.bulk_bytes_socket += resp.payload_bytes;
  }
  return resp;
}

cudaError_t ProxyClientApi::push_to_device(std::uint64_t remote,
                                           const void* src, std::size_t n) {
  // Split so each sub-copy is either CMA-stageable or under the inline
  // request cap — this is what keeps kMaxRequestPayloadBytes honest: no
  // legitimate client ever sends an inline payload the server would reject.
  const auto* p = static_cast<const std::byte*>(src);
  std::size_t done = 0;
  do {
    const std::size_t limit =
        cma_.available()
            ? std::max<std::size_t>(cma_.staging_bytes(),
                                    kMaxRequestPayloadBytes)
            : kMaxRequestPayloadBytes;
    const std::size_t chunk = std::min(n - done, limit);
    RequestHeader req{};
    req.op = Op::kMemcpyToDevice;
    req.a = remote + done;
    req.b = chunk;
    auto resp = call(req, p + done, chunk);
    if (!resp.ok()) return cuda::cudaErrorUnknown;
    if (resp->err != cudaSuccess) return static_cast<cudaError_t>(resp->err);
    done += chunk;
  } while (done < n);
  return cudaSuccess;
}

cudaError_t ProxyClientApi::pull_from_device(void* dst, std::uint64_t remote,
                                             std::size_t n) {
  auto* p = static_cast<std::byte*>(dst);
  std::size_t done = 0;
  do {
    const bool stage = cma_.available();
    const std::size_t limit =
        stage ? cma_.staging_bytes() : kMaxRequestPayloadBytes;
    const std::size_t chunk = std::min(n - done, limit);
    RequestHeader req{};
    req.op = Op::kMemcpyFromDevice;
    req.a = remote + done;
    req.b = chunk;
    req.staged = stage ? 1 : 0;
    auto resp = call(req, nullptr, 0, p + done, chunk);
    if (!resp.ok()) return cuda::cudaErrorUnknown;
    if (resp->err != cudaSuccess) return static_cast<cudaError_t>(resp->err);
    done += chunk;
  } while (done < n);
  return cudaSuccess;
}

bool ProxyClientApi::is_remote_ptr(const void* p) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  const auto a = reinterpret_cast<std::uint64_t>(p);
  auto it = remote_allocs_.upper_bound(a);
  if (it == remote_allocs_.begin()) return false;
  --it;
  return a >= it->first && a < it->first + it->second;
}

cudaError_t ProxyClientApi::sync_shadows_to_device() {
  for (const auto& [p, e] : shadow_.entries()) {
    if (push_to_device(e.remote, e.shadow, e.size) != cudaSuccess) {
      return cuda::cudaErrorUnknown;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shadow_syncs_to_device;
    stats_.shadow_sync_bytes += e.size;
  }
  return cudaSuccess;
}

cudaError_t ProxyClientApi::sync_shadows_from_device() {
  for (const auto& [p, e] : shadow_.entries()) {
    if (pull_from_device(e.shadow, e.remote, e.size) != cudaSuccess) {
      return cuda::cudaErrorUnknown;
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.shadow_syncs_from_device;
    stats_.shadow_sync_bytes += e.size;
  }
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaMalloc(void** p, std::size_t n) {
  if (p == nullptr || n == 0) return record(cuda::cudaErrorInvalidValue);
  RequestHeader req{};
  req.op = Op::kMalloc;
  req.a = n;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess) {
    *p = reinterpret_cast<void*>(resp->r0);
    std::lock_guard<std::mutex> lock(state_mu_);
    remote_allocs_[resp->r0] = n;
  }
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaFree(void* p) {
  if (p == nullptr) return cudaSuccess;
  if (shadow_.is_shadow(p)) {
    auto entry = shadow_.remove(p);
    if (!entry.ok()) return record(cuda::cudaErrorInvalidDevicePointer);
    RequestHeader req{};
    req.op = Op::kFree;
    req.a = entry->remote;
    auto resp = call(req, nullptr, 0);
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      remote_allocs_.erase(entry->remote);
    }
    ::free(entry->shadow);
    return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                            : cuda::cudaErrorUnknown);
  }
  RequestHeader req{};
  req.op = Op::kFree;
  req.a = reinterpret_cast<std::uint64_t>(p);
  auto resp = call(req, nullptr, 0);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    remote_allocs_.erase(reinterpret_cast<std::uint64_t>(p));
  }
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaMallocHost(void** p, std::size_t n) {
  if (p == nullptr || n == 0) return record(cuda::cudaErrorInvalidValue);
  // Pinned host memory lives application-side under the proxy design; the
  // proxy only ever sees its *contents* through explicit copies.
  void* buf = nullptr;
  if (::posix_memalign(&buf, 4096, n) != 0) {
    return record(cuda::cudaErrorMemoryAllocation);
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    local_pinned_.insert(buf);
  }
  *p = buf;
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaHostAlloc(void** p, std::size_t n,
                                          unsigned /*flags*/) {
  return cudaMallocHost(p, n);
}

cudaError_t ProxyClientApi::cudaFreeHost(void* p) {
  if (p == nullptr) return cudaSuccess;
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = local_pinned_.find(p);
  if (it == local_pinned_.end()) {
    return record(cuda::cudaErrorInvalidValue);
  }
  local_pinned_.erase(it);
  ::free(p);
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaMallocManaged(void** p, std::size_t n,
                                              unsigned flags) {
  if (p == nullptr || n == 0) return record(cuda::cudaErrorInvalidValue);
  RequestHeader req{};
  req.op = Op::kMallocManaged;
  req.a = n;
  req.b = flags;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err != cudaSuccess) {
    return record(static_cast<cudaError_t>(resp->err));
  }
  void* mirror = nullptr;
  if (::posix_memalign(&mirror, 4096, n) != 0) {
    return record(cuda::cudaErrorMemoryAllocation);
  }
  std::memset(mirror, 0, n);
  shadow_.add(mirror, resp->r0, n);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    remote_allocs_[resp->r0] = n;
  }
  *p = mirror;
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaMemcpy(void* dst, const void* src,
                                       std::size_t n,
                                       cuda::cudaMemcpyKind kind) {
  if (dst == nullptr || src == nullptr) {
    return record(cuda::cudaErrorInvalidValue);
  }
  if (kind == cuda::cudaMemcpyDefault) {
    const bool dst_remote = is_remote_ptr(dst) && !shadow_.is_shadow(dst);
    const bool src_remote = is_remote_ptr(src) && !shadow_.is_shadow(src);
    if (dst_remote && src_remote) {
      kind = cuda::cudaMemcpyDeviceToDevice;
    } else if (dst_remote) {
      kind = cuda::cudaMemcpyHostToDevice;
    } else if (src_remote) {
      kind = cuda::cudaMemcpyDeviceToHost;
    } else {
      kind = cuda::cudaMemcpyHostToHost;
    }
  }
  switch (kind) {
    case cuda::cudaMemcpyHostToHost: {
      std::memcpy(dst, src, n);
      return cudaSuccess;
    }
    case cuda::cudaMemcpyHostToDevice: {
      return record(
          push_to_device(reinterpret_cast<std::uint64_t>(dst), src, n));
    }
    case cuda::cudaMemcpyDeviceToHost: {
      return record(
          pull_from_device(dst, reinterpret_cast<std::uint64_t>(src), n));
    }
    case cuda::cudaMemcpyDeviceToDevice: {
      RequestHeader req{};
      req.op = Op::kMemcpyOnDevice;
      req.a = reinterpret_cast<std::uint64_t>(dst);
      req.b = reinterpret_cast<std::uint64_t>(src);
      req.c = n;
      auto resp = call(req, nullptr, 0);
      return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                              : cuda::cudaErrorUnknown);
    }
    default:
      return record(cuda::cudaErrorInvalidValue);
  }
}

cudaError_t ProxyClientApi::cudaMemcpyAsync(void* dst, const void* src,
                                            std::size_t n,
                                            cuda::cudaMemcpyKind kind,
                                            cuda::cudaStream_t /*stream*/) {
  // The proxy architecture cannot overlap the client-side copy with client
  // execution anyway (the RPC serializes), so async degenerates to sync —
  // one of the structural costs the paper attributes to this design.
  return cudaMemcpy(dst, src, n, kind);
}

cudaError_t ProxyClientApi::cudaMemset(void* dst, int value, std::size_t n) {
  if (shadow_.is_shadow(dst)) {
    std::memset(dst, value, n);
    auto remote = shadow_.translate(dst);
    if (!remote.ok()) return record(cuda::cudaErrorInvalidDevicePointer);
    RequestHeader req{};
    req.op = Op::kMemset;
    req.a = *remote;
    req.b = static_cast<std::uint64_t>(value);
    req.c = n;
    auto resp = call(req, nullptr, 0);
    return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                            : cuda::cudaErrorUnknown);
  }
  RequestHeader req{};
  req.op = Op::kMemset;
  req.a = reinterpret_cast<std::uint64_t>(dst);
  req.b = static_cast<std::uint64_t>(value);
  req.c = n;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaMemsetAsync(void* dst, int value,
                                            std::size_t n,
                                            cuda::cudaStream_t stream) {
  RequestHeader req{};
  req.op = Op::kMemsetAsync;
  req.a = reinterpret_cast<std::uint64_t>(dst);
  req.b = static_cast<std::uint64_t>(value);
  req.c = n;
  req.d = stream;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaMemPrefetchAsync(const void* ptr,
                                                 std::size_t n, int dst_device,
                                                 cuda::cudaStream_t stream) {
  std::uint64_t remote = reinterpret_cast<std::uint64_t>(ptr);
  if (shadow_.is_shadow(ptr)) {
    auto r = shadow_.translate(ptr);
    if (!r.ok()) return record(cuda::cudaErrorInvalidDevicePointer);
    remote = *r;
  }
  RequestHeader req{};
  req.op = Op::kMemPrefetchAsync;
  req.a = remote;
  req.b = n;
  req.c = static_cast<std::uint64_t>(static_cast<std::int64_t>(dst_device));
  req.d = stream;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaMemGetInfo(std::size_t* free_bytes,
                                           std::size_t* total_bytes) {
  RequestHeader req{};
  req.op = Op::kMemGetInfo;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (free_bytes != nullptr) *free_bytes = resp->r0;
  if (total_bytes != nullptr) *total_bytes = resp->r1;
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaPointerGetAttributes(
    cuda::cudaPointerAttributes* a, const void* ptr) {
  if (a == nullptr) return record(cuda::cudaErrorInvalidValue);
  a->devicePointer = nullptr;
  a->hostPointer = nullptr;
  if (shadow_.is_shadow(ptr)) {
    a->type = cuda::cudaMemoryType::cudaMemoryTypeManaged;
    a->hostPointer = const_cast<void*>(ptr);
    return cudaSuccess;
  }
  if (is_remote_ptr(ptr)) {
    a->type = cuda::cudaMemoryType::cudaMemoryTypeDevice;
    a->devicePointer = const_cast<void*>(ptr);
    return cudaSuccess;
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (local_pinned_.count(const_cast<void*>(ptr)) > 0) {
      a->type = cuda::cudaMemoryType::cudaMemoryTypeHost;
      a->hostPointer = const_cast<void*>(ptr);
      return cudaSuccess;
    }
  }
  a->type = cuda::cudaMemoryType::cudaMemoryTypeUnregistered;
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaStreamCreate(cuda::cudaStream_t* stream) {
  RequestHeader req{};
  req.op = Op::kStreamCreate;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess && stream != nullptr) *stream = resp->r0;
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaStreamDestroy(cuda::cudaStream_t stream) {
  RequestHeader req{};
  req.op = Op::kStreamDestroy;
  req.a = stream;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaStreamSynchronize(cuda::cudaStream_t stream) {
  RequestHeader req{};
  req.op = Op::kStreamSynchronize;
  req.a = stream;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess) {
    const cudaError_t sync_err = sync_shadows_from_device();
    if (sync_err != cudaSuccess) return record(sync_err);
  }
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaStreamQuery(cuda::cudaStream_t stream) {
  RequestHeader req{};
  req.op = Op::kStreamQuery;
  req.a = stream;
  auto resp = call(req, nullptr, 0);
  return resp.ok() ? static_cast<cudaError_t>(resp->err)
                   : cuda::cudaErrorUnknown;
}

cudaError_t ProxyClientApi::cudaStreamWaitEvent(cuda::cudaStream_t stream,
                                                cuda::cudaEvent_t event,
                                                unsigned flags) {
  RequestHeader req{};
  req.op = Op::kStreamWaitEvent;
  req.a = stream;
  req.b = event;
  req.c = flags;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaLaunchHostFunc(cuda::cudaStream_t /*stream*/,
                                               cuda::cudaHostFn_t /*fn*/,
                                               void* /*user_data*/) {
  // Host callbacks would have to run in the *client*, requiring an upcall
  // channel the proxy architecture does not have.
  return record(cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaEventCreate(cuda::cudaEvent_t* event) {
  RequestHeader req{};
  req.op = Op::kEventCreate;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess && event != nullptr) *event = resp->r0;
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaEventDestroy(cuda::cudaEvent_t event) {
  RequestHeader req{};
  req.op = Op::kEventDestroy;
  req.a = event;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaEventRecord(cuda::cudaEvent_t event,
                                            cuda::cudaStream_t stream) {
  RequestHeader req{};
  req.op = Op::kEventRecord;
  req.a = event;
  req.b = stream;
  auto resp = call(req, nullptr, 0);
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaEventSynchronize(cuda::cudaEvent_t event) {
  RequestHeader req{};
  req.op = Op::kEventSynchronize;
  req.a = event;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess) {
    const cudaError_t sync_err = sync_shadows_from_device();
    if (sync_err != cudaSuccess) return record(sync_err);
  }
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaEventQuery(cuda::cudaEvent_t event) {
  RequestHeader req{};
  req.op = Op::kEventQuery;
  req.a = event;
  auto resp = call(req, nullptr, 0);
  return resp.ok() ? static_cast<cudaError_t>(resp->err)
                   : cuda::cudaErrorUnknown;
}

cudaError_t ProxyClientApi::cudaEventElapsedTime(float* ms,
                                                 cuda::cudaEvent_t start,
                                                 cuda::cudaEvent_t stop) {
  RequestHeader req{};
  req.op = Op::kEventElapsedTime;
  req.a = start;
  req.b = stop;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess && ms != nullptr) {
    std::memcpy(ms, &resp->r0, sizeof(float));
  }
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaLaunchKernel(const void* func, cuda::dim3 grid,
                                             cuda::dim3 block, void** args,
                                             std::size_t shared_mem,
                                             cuda::cudaStream_t stream) {
  // CRUM's pattern: managed state must be pushed to the device before every
  // kernel launch.
  const cudaError_t sync_err = sync_shadows_to_device();
  if (sync_err != cudaSuccess) return record(sync_err);

  std::vector<std::size_t> sizes;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = kernel_arg_sizes_.find(func);
    if (it == kernel_arg_sizes_.end()) {
      return record(cuda::cudaErrorInvalidDevicePointer);
    }
    sizes = it->second;
  }

  // Marshal: dims + stream + argument *values*. Shadow base pointers are
  // translated to their proxy-side counterparts.
  std::vector<std::byte> payload;
  auto push_u32 = [&payload](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    payload.insert(payload.end(), p, p + 4);
  };
  auto push_u64 = [&payload](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    payload.insert(payload.end(), p, p + 8);
  };
  push_u32(grid.x);
  push_u32(grid.y);
  push_u32(grid.z);
  push_u32(block.x);
  push_u32(block.y);
  push_u32(block.z);
  push_u64(shared_mem);
  push_u64(stream);
  push_u32(static_cast<std::uint32_t>(sizes.size()));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto* src = static_cast<const std::byte*>(args[i]);
    if (sizes[i] == sizeof(void*)) {
      void* value = nullptr;
      std::memcpy(&value, src, sizeof(void*));
      auto remote = shadow_.translate(value);
      if (remote.ok()) {
        const std::uint64_t translated = *remote;
        const auto* tp = reinterpret_cast<const std::byte*>(&translated);
        payload.insert(payload.end(), tp, tp + 8);
        continue;
      }
    }
    payload.insert(payload.end(), src, src + sizes[i]);
  }

  RequestHeader req{};
  req.op = Op::kLaunchKernel;
  req.a = reinterpret_cast<std::uint64_t>(func);
  auto resp = call(req, payload.data(), payload.size());
  return record(resp.ok() ? static_cast<cudaError_t>(resp->err)
                          : cuda::cudaErrorUnknown);
}

cudaError_t ProxyClientApi::cudaPushCallConfiguration(
    cuda::dim3 grid, cuda::dim3 block, std::size_t shared_mem,
    cuda::cudaStream_t stream) {
  std::lock_guard<std::mutex> lock(state_mu_);
  call_config_stack_.push_back(CallConfig{grid, block, shared_mem, stream});
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaPopCallConfiguration(
    cuda::dim3* grid, cuda::dim3* block, std::size_t* shared_mem,
    cuda::cudaStream_t* stream) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (call_config_stack_.empty()) return record(cuda::cudaErrorInvalidValue);
  const CallConfig cfg = call_config_stack_.back();
  call_config_stack_.pop_back();
  if (grid != nullptr) *grid = cfg.grid;
  if (block != nullptr) *block = cfg.block;
  if (shared_mem != nullptr) *shared_mem = cfg.shared_mem;
  if (stream != nullptr) *stream = cfg.stream;
  return cudaSuccess;
}

cudaError_t ProxyClientApi::cudaDeviceSynchronize() {
  RequestHeader req{};
  req.op = Op::kDeviceSynchronize;
  auto resp = call(req, nullptr, 0);
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  if (resp->err == cudaSuccess) {
    const cudaError_t sync_err = sync_shadows_from_device();
    if (sync_err != cudaSuccess) return record(sync_err);
  }
  return record(static_cast<cudaError_t>(resp->err));
}

cudaError_t ProxyClientApi::cudaGetDeviceProperties(
    cuda::cudaDeviceProp* prop, int device) {
  if (prop == nullptr || device != 0) {
    return record(cuda::cudaErrorInvalidValue);
  }
  struct WireProps {
    std::int32_t cc_major, cc_minor, num_sms, max_conc;
    std::uint64_t total_mem, uvm_page;
    char name[64];
  } wire{};
  RequestHeader req{};
  req.op = Op::kGetDeviceProperties;
  auto resp = call(req, nullptr, 0, &wire, sizeof(wire));
  if (!resp.ok()) return record(cuda::cudaErrorUnknown);
  prop->cc_major = wire.cc_major;
  prop->cc_minor = wire.cc_minor;
  prop->num_sms = wire.num_sms;
  prop->max_concurrent_kernels = wire.max_conc;
  prop->total_mem_bytes = wire.total_mem;
  prop->uvm_page_size = wire.uvm_page;
  prop->name = wire.name;
  return record(static_cast<cudaError_t>(resp->err));
}

cuda::FatBinaryHandle ProxyClientApi::cudaRegisterFatBinary(
    const cuda::FatBinaryDesc* desc) {
  RequestHeader req{};
  req.op = Op::kRegisterFatBinary;
  req.a = desc != nullptr ? desc->binary_hash : 0;
  const char* name =
      desc != nullptr && desc->module_name != nullptr ? desc->module_name : "";
  auto resp = call(req, name, std::strlen(name));
  if (!resp.ok() || resp->err != cudaSuccess) return nullptr;
  return reinterpret_cast<cuda::FatBinaryHandle>(resp->r0);
}

void ProxyClientApi::cudaRegisterFunction(
    cuda::FatBinaryHandle handle, const cuda::KernelRegistration& reg) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    kernel_arg_sizes_[reg.host_fn] = std::vector<std::size_t>(
        reg.arg_sizes, reg.arg_sizes + reg.arg_count);
  }
  std::vector<std::byte> payload;
  auto push_u64 = [&payload](std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    payload.insert(payload.end(), p, p + 8);
  };
  auto push_u32 = [&payload](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    payload.insert(payload.end(), p, p + 4);
  };
  push_u64(reinterpret_cast<std::uint64_t>(reg.host_fn));
  push_u64(reinterpret_cast<std::uint64_t>(reg.device_fn));
  push_u32(static_cast<std::uint32_t>(reg.arg_count));
  for (std::size_t i = 0; i < reg.arg_count; ++i) push_u64(reg.arg_sizes[i]);
  const char* name = reg.name != nullptr ? reg.name : "";
  const auto* np = reinterpret_cast<const std::byte*>(name);
  payload.insert(payload.end(), np, np + std::strlen(name));

  RequestHeader req{};
  req.op = Op::kRegisterFunction;
  req.a = reinterpret_cast<std::uint64_t>(handle);
  (void)call(req, payload.data(), payload.size());
}

void ProxyClientApi::cudaUnregisterFatBinary(cuda::FatBinaryHandle handle) {
  RequestHeader req{};
  req.op = Op::kUnregisterFatBinary;
  req.a = reinterpret_cast<std::uint64_t>(handle);
  (void)call(req, nullptr, 0);
}

}  // namespace crac::proxy
