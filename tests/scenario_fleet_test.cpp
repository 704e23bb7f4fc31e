// Fleet-scale serving scenarios for the epoll event loop and the one-proxy
// many-clients architecture.
//
// FleetLoopTest.* exercises proxy::EventLoop in-process against a toy
// handler (no fork) — these run under TSan in CI. FleetProxyTest.* forks
// real proxy servers: eight attached clients hammer device RPCs on one
// server while the owner's device data stays intact, and hostile clients
// get contained per-connection. FleetRegistryTest.* fans one CracContext
// checkpoint stored in a registry out to three restarted endpoints.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "ckpt/remote.hpp"
#include "common/thread_pool.hpp"
#include "crac/context.hpp"
#include "proxy/channel.hpp"
#include "proxy/client_api.hpp"
#include "proxy/event_loop.hpp"
#include "registry/client.hpp"
#include "registry/server.hpp"
#include "simcuda/module.hpp"

namespace crac::proxy {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
using cuda::dim3;

// ---- In-process event-loop suite (TSan-clean: no fork) ----

// Toy protocol over the proxy framing: kHello echoes (r0 = a + b, payload
// mirrored back), kPutCkpt claims a session that reads `a` raw bytes off
// the socket and answers with their sum, kShutdown stops the loop.
class EchoHandler final : public EventLoop::Handler {
 public:
  void bind_loop(EventLoop* loop) { loop_ = loop; }

  EventLoop::Dispatch on_request(Connection& conn, const RequestHeader& req,
                                 std::vector<std::byte>& payload) override {
    switch (req.op) {
      case Op::kShutdown: {
        ResponseHeader resp{};
        conn.send(&resp, sizeof(resp));
        return EventLoop::Dispatch::kShutdown;
      }
      case Op::kPutCkpt: {
        loop_->start_session(conn, [n = req.a](int fd) {
          std::vector<std::byte> body(n);
          if (!read_all(fd, body.data(), body.size()).ok()) return false;
          std::uint64_t sum = 0;
          for (std::byte b : body) sum += static_cast<std::uint64_t>(b);
          ResponseHeader resp{};
          resp.r0 = sum;
          return write_all(fd, &resp, sizeof(resp)).ok();
        });
        return EventLoop::Dispatch::kSession;
      }
      default: {
        ResponseHeader resp{};
        resp.r0 = req.a + req.b;
        resp.payload_bytes = static_cast<std::uint32_t>(payload.size());
        conn.send(&resp, sizeof(resp));
        if (!payload.empty()) conn.send(payload.data(), payload.size());
        return EventLoop::Dispatch::kContinue;
      }
    }
  }

  std::vector<std::byte> on_oversized(const RequestHeader&) override {
    ResponseHeader resp{};
    resp.err = -1;
    std::vector<std::byte> bytes(sizeof(resp));
    std::memcpy(bytes.data(), &resp, sizeof(resp));
    return bytes;
  }

 private:
  EventLoop* loop_ = nullptr;
};

struct LoopFixture {
  EchoHandler handler;
  ThreadPool pool{2};
  EventLoop loop{&handler, &pool};
  int control_fd = -1;  // our end; closing it stops the loop
  std::thread runner;
  Status run_status;

  LoopFixture() { handler.bind_loop(&loop); }

  void start(const std::vector<int>& server_fds) {
    int ctl[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl), 0);
    control_fd = ctl[0];
    EXPECT_TRUE(loop.add_connection(ctl[1], /*control=*/true).ok());
    for (int fd : server_fds) {
      EXPECT_TRUE(loop.add_connection(fd, /*control=*/false).ok());
    }
    runner = std::thread([this] { run_status = loop.run(); });
  }

  void stop() {
    if (control_fd >= 0) {
      ::close(control_fd);
      control_fd = -1;
    }
    if (runner.joinable()) runner.join();
    EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  }

  ~LoopFixture() { stop(); }
};

Status rpc_echo(int fd, std::uint64_t a, std::uint64_t b,
                const std::vector<std::byte>& payload,
                ResponseHeader* resp_out,
                std::vector<std::byte>* echo_out) {
  RequestHeader req{};
  req.op = Op::kHello;
  req.a = a;
  req.b = b;
  req.payload_bytes = static_cast<std::uint32_t>(payload.size());
  CRAC_RETURN_IF_ERROR(write_all(fd, &req, sizeof(req)));
  if (!payload.empty()) {
    CRAC_RETURN_IF_ERROR(write_all(fd, payload.data(), payload.size()));
  }
  ResponseHeader resp{};
  CRAC_RETURN_IF_ERROR(read_all(fd, &resp, sizeof(resp)));
  if (echo_out != nullptr) {
    echo_out->resize(resp.payload_bytes);
    CRAC_RETURN_IF_ERROR(read_all(fd, echo_out->data(), echo_out->size()));
  }
  if (resp_out != nullptr) *resp_out = resp;
  return OkStatus();
}

TEST(FleetLoopTest, ManyClientsInterleavedRequests) {
  constexpr int kClients = 8;
  std::vector<int> ours, theirs;
  for (int i = 0; i < kClients; ++i) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ours.push_back(fds[0]);
    theirs.push_back(fds[1]);
  }
  LoopFixture fixture;
  fixture.start(theirs);

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([fd = ours[c], c] {
      for (int i = 0; i < 50; ++i) {
        std::vector<std::byte> payload(
            static_cast<std::size_t>(c * 17 + i),
            static_cast<std::byte>(c));
        ResponseHeader resp{};
        std::vector<std::byte> echo;
        ASSERT_TRUE(rpc_echo(fd, c, i, payload, &resp, &echo).ok());
        ASSERT_EQ(resp.r0, static_cast<std::uint64_t>(c) + i);
        ASSERT_EQ(echo, payload);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int fd : ours) ::close(fd);
  fixture.stop();
}

TEST(FleetLoopTest, SessionDoesNotStallOtherConnections) {
  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  LoopFixture fixture;
  fixture.start({a[1], b[1]});

  // Claim a session on A that wants 64 bytes, but don't send them yet: the
  // session blocks on the pool, not the loop.
  constexpr std::uint64_t kBody = 64;
  RequestHeader req{};
  req.op = Op::kPutCkpt;
  req.a = kBody;
  ASSERT_TRUE(write_all(a[0], &req, sizeof(req)).ok());

  // B's RPCs keep flowing while A's session is parked mid-stream.
  for (int i = 0; i < 20; ++i) {
    ResponseHeader resp{};
    ASSERT_TRUE(rpc_echo(b[0], 5, i, {}, &resp, nullptr).ok());
    ASSERT_EQ(resp.r0, 5u + i);
  }

  // Now feed A's session and collect its answer; A returns to request mode
  // afterwards (the loop re-armed the fd) and can echo again.
  std::vector<std::byte> body(kBody, std::byte{2});
  ASSERT_TRUE(write_all(a[0], body.data(), body.size()).ok());
  ResponseHeader session_resp{};
  ASSERT_TRUE(read_all(a[0], &session_resp, sizeof(session_resp)).ok());
  EXPECT_EQ(session_resp.r0, 2 * kBody);
  ResponseHeader echo_resp{};
  ASSERT_TRUE(rpc_echo(a[0], 1, 2, {}, &echo_resp, nullptr).ok());
  EXPECT_EQ(echo_resp.r0, 3u);

  ::close(a[0]);
  ::close(b[0]);
  fixture.stop();
}

TEST(FleetLoopTest, ConcurrentSessionsOverlap) {
  constexpr int kSessions = 4;
  std::vector<int> ours, theirs;
  for (int i = 0; i < kSessions; ++i) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ours.push_back(fds[0]);
    theirs.push_back(fds[1]);
  }
  LoopFixture fixture;
  fixture.start(theirs);

  // Open all sessions before feeding any: every stream is mid-flight at
  // once, far more than the pool's 2 threads — completion must free slots.
  constexpr std::uint64_t kBody = 32 << 10;
  for (int s = 0; s < kSessions; ++s) {
    RequestHeader req{};
    req.op = Op::kPutCkpt;
    req.a = kBody;
    ASSERT_TRUE(write_all(ours[s], &req, sizeof(req)).ok());
  }
  std::vector<std::thread> feeders;
  for (int s = 0; s < kSessions; ++s) {
    feeders.emplace_back([fd = ours[s], s] {
      std::vector<std::byte> body(kBody, static_cast<std::byte>(s + 1));
      ASSERT_TRUE(write_all(fd, body.data(), body.size()).ok());
      ResponseHeader resp{};
      ASSERT_TRUE(read_all(fd, &resp, sizeof(resp)).ok());
      ASSERT_EQ(resp.r0, static_cast<std::uint64_t>(s + 1) * kBody);
    });
  }
  for (auto& t : feeders) t.join();
  for (int fd : ours) ::close(fd);
  fixture.stop();
}

TEST(FleetLoopTest, OversizedHeaderClosesOnlyThatConnection) {
  int a[2], b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, b), 0);
  LoopFixture fixture;
  fixture.start({a[1], b[1]});

  RequestHeader hostile{};
  hostile.op = Op::kHello;
  hostile.payload_bytes = kMaxRequestPayloadBytes + 1;
  ASSERT_TRUE(write_all(a[0], &hostile, sizeof(hostile)).ok());
  // The farewell error response arrives, then EOF.
  ResponseHeader farewell{};
  ASSERT_TRUE(read_all(a[0], &farewell, sizeof(farewell)).ok());
  EXPECT_EQ(farewell.err, -1);
  char extra = 0;
  EXPECT_EQ(::read(a[0], &extra, 1), 0);

  // B is unbothered.
  ResponseHeader resp{};
  ASSERT_TRUE(rpc_echo(b[0], 9, 9, {}, &resp, nullptr).ok());
  EXPECT_EQ(resp.r0, 18u);

  ::close(a[0]);
  ::close(b[0]);
  fixture.stop();
}

TEST(FleetLoopTest, ListenerAcceptsMidRun) {
  // Abstract-namespace autobind listener, same mechanism the servers use.
  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  ::sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ::socklen_t addr_len = sizeof(sa_family_t);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<::sockaddr*>(&addr), addr_len), 0);
  addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<::sockaddr*>(&addr),
                          &addr_len),
            0);
  ASSERT_EQ(::listen(lfd, 8), 0);

  LoopFixture fixture;
  ASSERT_TRUE(fixture.loop.add_listener(lfd).ok());
  fixture.start({});

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&addr, addr_len, c] {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(::connect(fd, reinterpret_cast<const ::sockaddr*>(&addr),
                          addr_len),
                0);
      for (int i = 0; i < 10; ++i) {
        ResponseHeader resp{};
        ASSERT_TRUE(rpc_echo(fd, c, i, {}, &resp, nullptr).ok());
        ASSERT_EQ(resp.r0, static_cast<std::uint64_t>(c) + i);
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  fixture.stop();
  ::close(lfd);
}

// ---- Forked proxy fleet suite (excluded from TSan runs) ----

ProxyClientApi::Options fleet_options() {
  ProxyClientApi::Options opts;
  auto& dev = opts.host.device;
  dev.device_capacity = 256 << 20;
  dev.pinned_capacity = 64 << 20;
  dev.managed_capacity = 256 << 20;
  dev.device_chunk = 8 << 20;
  dev.pinned_chunk = 4 << 20;
  dev.managed_chunk = 8 << 20;
  opts.host.staging_bytes = 32 << 20;
  return opts;
}

void fleet_fill_kernel(void* const* args, const cuda::KernelBlock& blk) {
  auto* data = cuda::kernel_arg<float*>(args, 0);
  const float value = cuda::kernel_arg<float>(args, 1);
  const auto n = cuda::kernel_arg<std::uint64_t>(args, 2);
  blk.for_each_thread([&](const sim::Dim3& t) {
    const std::size_t i = blk.global_x(t.x);
    if (i < n) data[i] = value + static_cast<float>(i);
  });
}

cuda::KernelModule& fleet_module() {
  static cuda::KernelModule mod{"scenario_fleet_test.cu"};
  static bool once = [] {
    mod.add_kernel<float*, float, std::uint64_t>(&fleet_fill_kernel, "fill");
    return true;
  }();
  (void)once;
  return mod;
}

// One server process, eight attached clients hammering RPCs on its one
// device; the owner's seed pattern survives them all.
TEST(FleetProxyTest, EightClientsHammerRpcsAndTheSeedPatternSurvives) {
  ProxyClientApi owner(fleet_options());
  const std::size_t n = 4 << 20;
  void* dev = nullptr;
  ASSERT_EQ(owner.cudaMalloc(&dev, n), cudaSuccess);
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 13);
  ASSERT_EQ(owner.cudaMemcpy(dev, pattern.data(), n, cudaMemcpyHostToDevice),
            cudaSuccess);

  std::atomic<int> failures{0};
  // Eight clients hammer malloc/memcpy/memset/launch concurrently.
  constexpr int kClients = 8;
  std::vector<std::thread> fleet;
  for (int c = 0; c < kClients; ++c) {
    fleet.emplace_back([&owner, &failures, c] {
      ProxyClientApi api(owner.host());
      fleet_module().register_with(api);
      for (int i = 0; i < 8; ++i) {
        const std::size_t bytes = (64 << 10) + c * 4096;
        void* p = nullptr;
        if (api.cudaMalloc(&p, bytes) != cudaSuccess) { ++failures; return; }
        std::vector<char> host(bytes, static_cast<char>(c + i));
        if (api.cudaMemcpy(p, host.data(), bytes, cudaMemcpyHostToDevice) !=
            cudaSuccess) { ++failures; return; }
        if (api.cudaMemset(p, c ^ i, bytes / 2) != cudaSuccess) {
          ++failures; return;
        }
        const std::uint64_t floats = 1024;
        if (cuda::launch(api, &fleet_fill_kernel, dim3{8, 1, 1},
                         dim3{128, 1, 1}, 0, static_cast<float*>(p),
                         static_cast<float>(c), floats) != cudaSuccess) {
          ++failures; return;
        }
        if (api.cudaDeviceSynchronize() != cudaSuccess) { ++failures; return; }
        std::vector<char> back(bytes);
        if (api.cudaMemcpy(back.data(), p, bytes, cudaMemcpyDeviceToHost) !=
            cudaSuccess) { ++failures; return; }
        if (api.cudaFree(p) != cudaSuccess) { ++failures; return; }
      }
    });
  }

  for (auto& t : fleet) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The seed pattern survived the storm.
  std::vector<char> back(n);
  ASSERT_EQ(owner.cudaMemcpy(back.data(), dev, n, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, pattern);
}

TEST(FleetProxyTest, HostileClientContainment) {
  ProxyClientApi owner(fleet_options());
  void* dev = nullptr;
  ASSERT_EQ(owner.cudaMalloc(&dev, 1 << 20), cudaSuccess);

  // Hostile 1: oversized declared payload. The server answers an error and
  // closes only that channel.
  {
    auto fd = owner.host()->connect();
    ASSERT_TRUE(fd.ok());
    RequestHeader req{};
    req.op = Op::kMemcpyToDevice;
    req.payload_bytes = kMaxRequestPayloadBytes + 1;
    ASSERT_TRUE(write_all(*fd, &req, sizeof(req)).ok());
    ResponseHeader resp{};
    ASSERT_TRUE(read_all(*fd, &resp, sizeof(resp)).ok());
    EXPECT_NE(resp.err, 0);
    char extra = 0;
    EXPECT_EQ(::read(*fd, &extra, 1), 0);  // closed after the farewell
    ::close(*fd);
  }

  // Hostile 2: half a header then an abrupt hangup.
  {
    auto fd = owner.host()->connect();
    ASSERT_TRUE(fd.ok());
    RequestHeader req{};
    req.op = Op::kMalloc;
    ASSERT_TRUE(write_all(*fd, &req, sizeof(req) / 2).ok());
    ::close(*fd);
  }

  // The server survived both: the owner's channel and fresh attachments
  // still serve.
  std::vector<char> probe(1 << 20, 'p');
  ASSERT_EQ(owner.cudaMemcpy(dev, probe.data(), probe.size(),
                             cudaMemcpyHostToDevice),
            cudaSuccess);
  ProxyClientApi late(owner.host());
  void* dev2 = nullptr;
  ASSERT_EQ(late.cudaMalloc(&dev2, 4096), cudaSuccess);
  ASSERT_EQ(late.cudaFree(dev2), cudaSuccess);
}

// ---- Registry fan-out onto CRAC contexts ----

CracOptions fleet_context_options() {
  CracOptions opts;
  opts.split.device.device_capacity = 256 << 20;
  opts.split.device.pinned_capacity = 64 << 20;
  opts.split.device.managed_capacity = 256 << 20;
  opts.split.device.device_chunk = 8 << 20;
  opts.split.device.pinned_chunk = 4 << 20;
  opts.split.device.managed_chunk = 8 << 20;
  opts.split.upper_heap_capacity = 256 << 20;
  opts.split.upper_heap_chunk = 4 << 20;
  return opts;
}

// One CracContext checkpoint PUT into a registry, fanned out to three
// endpoints: each GETs the image straight into a restart (restore while
// receiving) and reads the device buffer back byte-identically. The
// endpoints run one after another because fixed-VA contexts cannot coexist
// in one process; concurrent GETs are RegistryHostTest.ConcurrentGetFanOut.
TEST(FleetRegistryTest, CracContextFanOutRestore) {
  auto registry_host = registry::RegistryHost::spawn();
  ASSERT_TRUE(registry_host.ok()) << registry_host.status().to_string();

  const std::size_t n = 2 << 20;
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 31);
  void* dev = nullptr;
  {
    CracContext source(fleet_context_options());
    ASSERT_EQ(source.api().cudaMalloc(&dev, n), cudaSuccess);
    ASSERT_EQ(source.api().cudaMemcpy(dev, pattern.data(), n,
                                      cudaMemcpyHostToDevice),
              cudaSuccess);

    auto put_fd = registry_host->connect();
    ASSERT_TRUE(put_fd.ok());
    registry::RegistryClient put_client(*put_fd);
    const Status put = put_client.put("fleet/ckpt", [&source](int fd) {
      ckpt::SocketSink sink(fd, "fleet put");
      auto shipped = source.checkpoint_to_sink(sink);
      if (shipped.ok()) return OkStatus();
      (void)sink.abort();
      return shipped.status();
    });
    ASSERT_TRUE(put.ok()) << put.to_string();
  }  // the source context is gone; only the registry holds the image now

  constexpr int kEndpoints = 3;
  for (int e = 0; e < kEndpoints; ++e) {
    auto get_fd = registry_host->connect();
    ASSERT_TRUE(get_fd.ok());
    registry::RegistryClient get_client(*get_fd);
    std::unique_ptr<CracContext> endpoint;
    const Status got = get_client.get("fleet/ckpt", [&endpoint](int fd, std::uint64_t) {
      auto spool = ckpt::StreamingSpoolSource::start(fd);
      if (!spool.ok()) return spool.status();
      auto restarted = CracContext::restart_from_source(
          std::move(*spool), fleet_context_options());
      if (!restarted.ok()) return restarted.status();
      endpoint = std::move(*restarted);
      return OkStatus();
    });
    ASSERT_TRUE(got.ok()) << "endpoint " << e << ": " << got.to_string();
    std::vector<char> back(n);
    ASSERT_EQ(endpoint->api().cudaMemcpy(back.data(), dev, n,
                                         cudaMemcpyDeviceToHost),
              cudaSuccess);
    EXPECT_EQ(back, pattern) << "endpoint " << e;
  }
}

}  // namespace
}  // namespace crac::proxy
