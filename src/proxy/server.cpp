#include "proxy/server.hpp"

#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "proxy/channel.hpp"
#include "proxy/event_loop.hpp"
#include "simcuda/lower_half.hpp"

namespace crac::proxy {

namespace {

// Persistent storage for registrations received over the wire; lives for
// the server process's lifetime.
struct ServerRegistration {
  std::string name;
  std::vector<std::size_t> arg_sizes;
  cuda::KernelRegistration reg;
};

struct ServerState {
  std::unique_ptr<cuda::LowerHalfRuntime> runtime;
  std::vector<std::unique_ptr<ServerRegistration>> registrations;
  std::vector<std::unique_ptr<cuda::FatBinaryDesc>> descs;
  std::vector<std::unique_ptr<std::string>> strings;
};

// Per-connection state hung off Connection::user: the CMA staging buffer
// exported at Hello time. Every channel gets its own, so concurrent bulk
// transfers from different clients never share a staging region.
struct ConnState {
  void* staging = nullptr;
  std::size_t staging_bytes = 0;
};

// Queues one response on the connection's output buffer (the loop drains it
// with EPOLLOUT backpressure — a slow client stalls only itself).
void respond(Connection& conn, std::int32_t err, std::uint64_t r0 = 0,
             std::uint64_t r1 = 0, const void* payload = nullptr,
             std::uint32_t payload_bytes = 0, bool staged = false) {
  ResponseHeader resp{};
  resp.err = err;
  resp.r0 = r0;
  resp.r1 = r1;
  resp.payload_bytes = staged ? 0 : payload_bytes;
  resp.staged = staged ? 1 : 0;
  conn.send(&resp, sizeof(resp));
  if (!staged && payload_bytes > 0) conn.send(payload, payload_bytes);
}

void handle_launch(ServerState& state, Connection& conn,
                   const RequestHeader& req,
                   const std::vector<std::byte>& payload) {
  // Payload layout: grid(3xu32) block(3xu32) shmem(u64) stream(u64)
  //                 argcount(u32) argbytes...
  const std::byte* p = payload.data();
  auto read_u32 = [&p]() {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  auto read_u64 = [&p]() {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  cuda::dim3 grid, block;
  grid.x = read_u32();
  grid.y = read_u32();
  grid.z = read_u32();
  block.x = read_u32();
  block.y = read_u32();
  block.z = read_u32();
  const std::uint64_t shmem = read_u64();
  const std::uint64_t stream = read_u64();
  const std::uint32_t argcount = read_u32();

  // Rebuild the void*[] the launch ABI expects: pointers into the payload at
  // per-argument offsets, using the server-side registered size table.
  const auto* fn = reinterpret_cast<const void*>(req.a);
  const ServerRegistration* registration = nullptr;
  for (const auto& r : state.registrations) {
    if (r->reg.host_fn == fn) {
      registration = r.get();
      break;
    }
  }
  if (registration == nullptr ||
      registration->arg_sizes.size() != argcount) {
    respond(conn, cuda::cudaErrorInvalidDevicePointer);
    return;
  }
  std::vector<void*> args(argcount);
  const std::byte* cursor = p;
  for (std::uint32_t i = 0; i < argcount; ++i) {
    args[i] = const_cast<std::byte*>(cursor);
    cursor += registration->arg_sizes[i];
  }
  const cuda::cudaError_t err = state.runtime->launch_kernel(
      fn, grid, block, args.data(), shmem, stream);
  respond(conn, err);
}

// The proxy server's protocol brain: dispatches every parsed request and
// owns per-connection staging buffers. Everything runs on the loop thread,
// which is the only thread that touches the device.
class ProxyHandler final : public EventLoop::Handler {
 public:
  ProxyHandler(ServerState& state, const ProxyHostOptions& options)
      : state_(state), options_(options) {}

  std::vector<std::byte> on_oversized(const RequestHeader& req) override {
    CRAC_WARN() << "rejecting request op=" << static_cast<unsigned>(req.op)
                << " declaring " << req.payload_bytes
                << " payload bytes (cap " << kMaxRequestPayloadBytes << ")";
    ResponseHeader resp{};
    resp.err = cuda::cudaErrorInvalidValue;
    std::vector<std::byte> bytes(sizeof(resp));
    std::memcpy(bytes.data(), &resp, sizeof(resp));
    return bytes;
  }

  void on_closed(Connection& conn) override {
    auto* cs = static_cast<ConnState*>(conn.user);
    if (cs == nullptr) return;
    if (cs->staging != nullptr) ::munmap(cs->staging, cs->staging_bytes);
    delete cs;
    conn.user = nullptr;
  }

  EventLoop::Dispatch on_request(Connection& conn, const RequestHeader& req,
                                 std::vector<std::byte>& payload) override;

 private:
  ConnState& conn_state(Connection& conn) {
    if (conn.user == nullptr) conn.user = new ConnState();
    return *static_cast<ConnState*>(conn.user);
  }

  ServerState& state_;
  const ProxyHostOptions& options_;
};

EventLoop::Dispatch ProxyHandler::on_request(Connection& conn,
                                             const RequestHeader& req,
                                             std::vector<std::byte>& payload) {
  auto& rt = *state_.runtime;
  using Dispatch = EventLoop::Dispatch;

  switch (req.op) {
    case Op::kHello: {
      ConnState& cs = conn_state(conn);
      if (cs.staging == nullptr && options_.staging_bytes > 0) {
        void* staging =
            ::mmap(nullptr, options_.staging_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (staging == MAP_FAILED) {
          // This channel simply has no CMA; the client's probe fails and it
          // degrades to inline payloads. Nobody else is affected.
          respond(conn, cuda::cudaErrorMemoryAllocation);
          return Dispatch::kContinue;
        }
        cs.staging = staging;
        cs.staging_bytes = options_.staging_bytes;
      }
      HelloInfo info{};
      info.server_pid = ::getpid();
      info.staging_addr = reinterpret_cast<std::uint64_t>(cs.staging);
      info.staging_bytes = cs.staging_bytes;
      respond(conn, cuda::cudaSuccess, 0, 0, &info, sizeof(info));
      return Dispatch::kContinue;
    }
    case Op::kShutdown: {
      respond(conn, cuda::cudaSuccess);
      return Dispatch::kShutdown;
    }
    case Op::kMalloc: {
      void* p = nullptr;
      const auto err = rt.malloc_device(&p, req.a);
      respond(conn, err, reinterpret_cast<std::uint64_t>(p));
      return Dispatch::kContinue;
    }
    case Op::kFree: {
      const auto err = rt.free_device(reinterpret_cast<void*>(req.a));
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMallocHost: {
      void* p = nullptr;
      const auto err = rt.malloc_host(&p, req.a);
      respond(conn, err, reinterpret_cast<std::uint64_t>(p));
      return Dispatch::kContinue;
    }
    case Op::kHostAlloc: {
      void* p = nullptr;
      const auto err = rt.host_alloc(&p, req.a, static_cast<unsigned>(req.b));
      respond(conn, err, reinterpret_cast<std::uint64_t>(p));
      return Dispatch::kContinue;
    }
    case Op::kFreeHost: {
      const auto err = rt.free_host(reinterpret_cast<void*>(req.a));
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMallocManaged: {
      void* p = nullptr;
      const auto err =
          rt.malloc_managed(&p, req.a, static_cast<unsigned>(req.b));
      respond(conn, err, reinterpret_cast<std::uint64_t>(p));
      return Dispatch::kContinue;
    }
    case Op::kMemcpyToDevice:
    case Op::kMemcpyToDeviceAsync: {
      ConnState& cs = conn_state(conn);
      const void* src = req.staged != 0
                            ? cs.staging
                            : static_cast<const void*>(payload.data());
      if (req.staged != 0 && cs.staging == nullptr) {
        respond(conn, cuda::cudaErrorInvalidValue);
        return Dispatch::kContinue;
      }
      // Async degenerates to sync server-side: the RPC already serialized
      // the client, which is precisely the proxy architecture's handicap.
      const auto err = rt.memcpy_sync(reinterpret_cast<void*>(req.a), src,
                                      req.b, cuda::cudaMemcpyDefault);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMemcpyFromDevice:
    case Op::kMemcpyFromDeviceAsync: {
      ConnState& cs = conn_state(conn);
      if (req.staged != 0) {
        if (cs.staging == nullptr) {
          respond(conn, cuda::cudaErrorInvalidValue);
          return Dispatch::kContinue;
        }
          const auto err = rt.memcpy_sync(
            cs.staging, reinterpret_cast<const void*>(req.a), req.b,
            cuda::cudaMemcpyDefault);
          respond(conn, err, 0, 0, nullptr, 0, /*staged=*/true);
      } else {
        // Same trust boundary as payload_bytes: an inline response is
        // allocated from a header field, so cap it identically (the client
        // chunks large un-staged pulls against this bound).
        if (req.b > kMaxRequestPayloadBytes) {
          respond(conn, cuda::cudaErrorInvalidValue);
          return Dispatch::kContinue;
        }
        std::vector<std::byte> out(req.b);
          const auto err =
            rt.memcpy_sync(out.data(), reinterpret_cast<const void*>(req.a),
                           req.b, cuda::cudaMemcpyDefault);
          respond(conn, err, 0, 0, out.data(),
                static_cast<std::uint32_t>(out.size()));
      }
      return Dispatch::kContinue;
    }
    case Op::kMemcpyOnDevice: {
      const auto err = rt.memcpy_sync(reinterpret_cast<void*>(req.a),
                                      reinterpret_cast<const void*>(req.b),
                                      req.c, cuda::cudaMemcpyDeviceToDevice);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMemset: {
      const auto err = rt.memset_sync(reinterpret_cast<void*>(req.a),
                                      static_cast<int>(req.b), req.c);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMemsetAsync: {
      const auto err = rt.memset_async(reinterpret_cast<void*>(req.a),
                                       static_cast<int>(req.b), req.c, req.d);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kMemPrefetchAsync: {
      const auto err = rt.mem_prefetch_async(reinterpret_cast<void*>(req.a),
                                             req.b, static_cast<int>(req.c),
                                             req.d);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kStreamCreate: {
      cuda::cudaStream_t s = 0;
      const auto err = rt.stream_create(&s);
      respond(conn, err, s);
      return Dispatch::kContinue;
    }
    case Op::kStreamDestroy: {
      const auto err = rt.stream_destroy(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kStreamSynchronize: {
      const auto err = rt.stream_synchronize(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kStreamQuery: {
      const auto err = rt.stream_query(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kStreamWaitEvent: {
      const auto err =
          rt.stream_wait_event(req.a, req.b, static_cast<unsigned>(req.c));
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kEventCreate: {
      cuda::cudaEvent_t e = 0;
      const auto err = rt.event_create(&e);
      respond(conn, err, e);
      return Dispatch::kContinue;
    }
    case Op::kEventDestroy: {
      const auto err = rt.event_destroy(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kEventRecord: {
      const auto err = rt.event_record(req.a, req.b);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kEventSynchronize: {
      const auto err = rt.event_synchronize(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kEventQuery: {
      const auto err = rt.event_query(req.a);
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kEventElapsedTime: {
      float ms = 0;
      const auto err = rt.event_elapsed_time(&ms, req.a, req.b);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &ms, sizeof(ms));
      respond(conn, err, bits);
      return Dispatch::kContinue;
    }
    case Op::kLaunchKernel: {
      handle_launch(state_, conn, req, payload);
      return Dispatch::kContinue;
    }
    case Op::kDeviceSynchronize: {
      const auto err = rt.device_synchronize();
      respond(conn, err);
      return Dispatch::kContinue;
    }
    case Op::kGetDeviceProperties: {
      cuda::cudaDeviceProp prop;
      const auto err = rt.get_device_properties(&prop, 0);
      // Fixed-size wire form: ints + sizes + truncated name.
      struct WireProps {
        std::int32_t cc_major, cc_minor, num_sms, max_conc;
        std::uint64_t total_mem, uvm_page;
        char name[64];
      } wire{};
      wire.cc_major = prop.cc_major;
      wire.cc_minor = prop.cc_minor;
      wire.num_sms = prop.num_sms;
      wire.max_conc = prop.max_concurrent_kernels;
      wire.total_mem = prop.total_mem_bytes;
      wire.uvm_page = prop.uvm_page_size;
      std::strncpy(wire.name, prop.name.c_str(), sizeof(wire.name) - 1);
      respond(conn, err, 0, 0, &wire, sizeof(wire));
      return Dispatch::kContinue;
    }
    case Op::kMemGetInfo: {
      std::size_t free_b = 0, total_b = 0;
      const auto err = rt.mem_get_info(&free_b, &total_b);
      respond(conn, err, free_b, total_b);
      return Dispatch::kContinue;
    }
    case Op::kRegisterFatBinary: {
      auto desc = std::make_unique<cuda::FatBinaryDesc>();
      auto name = std::make_unique<std::string>(
          reinterpret_cast<const char*>(payload.data()), payload.size());
      desc->module_name = name->c_str();
      desc->binary_hash = req.a;
      const auto handle = rt.register_fat_binary(desc.get());
      state_.descs.push_back(std::move(desc));
      state_.strings.push_back(std::move(name));
      respond(conn, cuda::cudaSuccess,
              reinterpret_cast<std::uint64_t>(handle));
      return Dispatch::kContinue;
    }
    case Op::kRegisterFunction: {
      // Payload: host_fn u64, device_fn u64, argcount u32, sizes u64...,
      //          name chars...
      const std::byte* p = payload.data();
      std::uint64_t host_fn = 0, device_fn = 0;
      std::uint32_t argcount = 0;
      std::memcpy(&host_fn, p, 8);
      p += 8;
      std::memcpy(&device_fn, p, 8);
      p += 8;
      std::memcpy(&argcount, p, 4);
      p += 4;
      auto sr = std::make_unique<ServerRegistration>();
      for (std::uint32_t i = 0; i < argcount; ++i) {
        std::uint64_t s = 0;
        std::memcpy(&s, p, 8);
        p += 8;
        sr->arg_sizes.push_back(s);
      }
      sr->name.assign(reinterpret_cast<const char*>(p),
                      payload.size() -
                          static_cast<std::size_t>(p - payload.data()));
      sr->reg.host_fn = reinterpret_cast<const void*>(host_fn);
      sr->reg.name = sr->name.c_str();
      sr->reg.device_fn = reinterpret_cast<cuda::KernelFn>(device_fn);
      sr->reg.arg_sizes = sr->arg_sizes.data();
      sr->reg.arg_count = sr->arg_sizes.size();
      rt.register_function(reinterpret_cast<cuda::FatBinaryHandle>(req.a),
                           sr->reg);
      state_.registrations.push_back(std::move(sr));
      respond(conn, cuda::cudaSuccess);
      return Dispatch::kContinue;
    }
    case Op::kUnregisterFatBinary: {
      rt.unregister_fat_binary(
          reinterpret_cast<cuda::FatBinaryHandle>(req.a));
      respond(conn, cuda::cudaSuccess);
      return Dispatch::kContinue;
    }
    default:
      respond(conn, cuda::cudaErrorUnknown);
      return Dispatch::kContinue;
  }
}

}  // namespace

Result<ProxyHost> ProxyHost::spawn(const ProxyHostOptions& options) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return IoError(std::string("socketpair: ") + strerror(errno));
  }
  // The fleet entrance: an abstract-namespace listening socket (autobind —
  // the kernel picks a unique name, nothing to unlink) created before fork
  // so the parent knows the address and the child inherits the fd.
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return IoError(std::string("socket: ") + strerror(errno));
  }
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // Autobind: bind with only the family and the kernel assigns a unique
  // abstract-namespace name, recovered via getsockname (full-size buffer —
  // addr_len is in/out).
  ::socklen_t addr_len = sizeof(sa_family_t);
  const bool bound =
      ::bind(lfd, reinterpret_cast<::sockaddr*>(&addr), addr_len) == 0;
  addr_len = sizeof(addr);
  if (!bound ||
      ::getsockname(lfd, reinterpret_cast<::sockaddr*>(&addr), &addr_len) !=
          0 ||
      ::listen(lfd, 64) != 0) {
    const Status failed =
        IoError(std::string("proxy listen socket: ") + strerror(errno));
    ::close(lfd);
    ::close(fds[0]);
    ::close(fds[1]);
    return failed;
  }
  std::string listen_addr(addr.sun_path,
                          addr_len - offsetof(::sockaddr_un, sun_path));
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(lfd);
    ::close(fds[0]);
    ::close(fds[1]);
    return IoError(std::string("fork: ") + strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    serve(fds[1], lfd, options);  // never returns
  }
  ::close(fds[1]);
  ::close(lfd);
  return ProxyHost(fds[0], pid, std::move(listen_addr));
}

Result<int> ProxyHost::connect() const {
  if (listen_addr_.empty()) {
    return FailedPrecondition("proxy host has no listening address");
  }
  const int cfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (cfd < 0) {
    return IoError(std::string("socket: ") + strerror(errno));
  }
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, listen_addr_.data(), listen_addr_.size());
  const auto addr_len = static_cast<::socklen_t>(
      offsetof(::sockaddr_un, sun_path) + listen_addr_.size());
  if (::connect(cfd, reinterpret_cast<const ::sockaddr*>(&addr), addr_len) !=
      0) {
    const Status failed =
        IoError(std::string("proxy connect: ") + strerror(errno));
    ::close(cfd);
    return failed;
  }
  return cfd;
}

ProxyHost::ProxyHost(ProxyHost&& other) noexcept
    : fd_(other.fd_),
      pid_(other.pid_),
      listen_addr_(std::move(other.listen_addr_)) {
  other.fd_ = -1;
  other.pid_ = -1;
  other.listen_addr_.clear();
}

ProxyHost::~ProxyHost() { shutdown(); }

void ProxyHost::shutdown() {
  if (fd_ >= 0) {
    RequestHeader req{};
    req.op = Op::kShutdown;
    (void)write_all(fd_, &req, sizeof(req));
    ::close(fd_);
    fd_ = -1;
  }
  if (pid_ > 0) {
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
}

void ProxyHost::serve(int control_fd, int listen_fd,
                      const ProxyHostOptions& options) {
  ServerState state;
  state.runtime = std::make_unique<cuda::LowerHalfRuntime>(options.device);
  ProxyHandler handler(state, options);
  EventLoop loop(&handler, /*pool=*/nullptr);
  if (!loop.add_connection(control_fd, /*control=*/true).ok()) _exit(2);
  if (listen_fd >= 0 && !loop.add_listener(listen_fd).ok()) _exit(2);
  const Status served = loop.run();
  if (!served.ok()) {
    CRAC_WARN() << "proxy event loop failed: " << served.to_string();
    _exit(2);
  }
  _exit(0);
}

}  // namespace crac::proxy
