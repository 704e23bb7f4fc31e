// Tests for the proxy-process baseline (the CRUM/CRCUDA architecture):
// RPC correctness, bulk transfer (CMA or socket), kernel launches across
// the process boundary, and the CRUM shadow-UVM mechanism including its
// documented lost-update failure under concurrent streams.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"
#include "proxy/channel.hpp"
#include "proxy/client_api.hpp"
#include "simcuda/module.hpp"

namespace crac::proxy {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
using cuda::dim3;

ProxyClientApi::Options test_options() {
  ProxyClientApi::Options opts;
  auto& dev = opts.host.device;
  // The server is a separate process; fixed bases are safe there, but keep
  // everything modest for test speed.
  dev.device_capacity = 256 << 20;
  dev.pinned_capacity = 64 << 20;
  dev.managed_capacity = 256 << 20;
  dev.device_chunk = 8 << 20;
  dev.pinned_chunk = 4 << 20;
  dev.managed_chunk = 8 << 20;
  opts.host.staging_bytes = 32 << 20;
  return opts;
}

void fill_kernel(void* const* args, const cuda::KernelBlock& blk) {
  auto* data = cuda::kernel_arg<float*>(args, 0);
  const float value = cuda::kernel_arg<float>(args, 1);
  const auto n = cuda::kernel_arg<std::uint64_t>(args, 2);
  blk.for_each_thread([&](const sim::Dim3& t) {
    const std::size_t i = blk.global_x(t.x);
    if (i < n) data[i] = value + static_cast<float>(i);
  });
}

void slow_odd_writer_kernel(void* const* args, const cuda::KernelBlock&) {
  auto* data = cuda::kernel_arg<std::uint32_t*>(args, 0);
  const auto n = cuda::kernel_arg<std::uint64_t>(args, 1);
  for (std::uint64_t i = 1; i < n; i += 2) {
    data[i] = 1;
    sim::simulate_delay_us(200);  // stretch the kernel across ~n/2*200us
  }
}

void nop_kernel(void* const*, const cuda::KernelBlock&) {}

struct ProxyModuleHolder {
  cuda::KernelModule mod{"proxy_test.cu"};
  ProxyModuleHolder() {
    mod.add_kernel<float*, float, std::uint64_t>(&fill_kernel, "fill");
    mod.add_kernel<std::uint32_t*, std::uint64_t>(&slow_odd_writer_kernel,
                                                  "slow_odd_writer");
    mod.add_kernel<int>(&nop_kernel, "nop");
  }
};

cuda::KernelModule& proxy_module() {
  static ProxyModuleHolder holder;
  return holder.mod;
}

TEST(ProxyTest, SpawnAndShutdown) {
  ProxyClientApi api(test_options());
  cuda::cudaDeviceProp prop;
  ASSERT_EQ(api.cudaGetDeviceProperties(&prop, 0), cudaSuccess);
  EXPECT_EQ(prop.cc_major, 7);
  EXPECT_GT(api.stats().rpcs, 0u);
}

TEST(ProxyTest, MallocMemcpyRoundTrip) {
  ProxyClientApi api(test_options());
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, 1 << 20), cudaSuccess);
  std::vector<char> src(1 << 20);
  std::iota(src.begin(), src.end(), 0);
  ASSERT_EQ(api.cudaMemcpy(dev, src.data(), src.size(),
                           cudaMemcpyHostToDevice),
            cudaSuccess);
  std::vector<char> dst(1 << 20, 0);
  ASSERT_EQ(api.cudaMemcpy(dst.data(), dev, dst.size(),
                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(src, dst);
  ASSERT_EQ(api.cudaFree(dev), cudaSuccess);
  const ProxyStats stats = api.stats();
  EXPECT_GE(stats.bulk_bytes_cma + stats.bulk_bytes_socket,
            std::uint64_t{2} << 20);
}

TEST(ProxyTest, MemcpyDefaultKindInference) {
  ProxyClientApi api(test_options());
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, 4096), cudaSuccess);
  std::vector<char> host(4096, 'q');
  ASSERT_EQ(api.cudaMemcpy(dev, host.data(), 4096, cuda::cudaMemcpyDefault),
            cudaSuccess);
  std::vector<char> back(4096, 0);
  ASSERT_EQ(api.cudaMemcpy(back.data(), dev, 4096, cuda::cudaMemcpyDefault),
            cudaSuccess);
  EXPECT_EQ(host, back);
}

TEST(ProxyTest, MemsetAcrossBoundary) {
  ProxyClientApi api(test_options());
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, 4096), cudaSuccess);
  ASSERT_EQ(api.cudaMemset(dev, 0x3C, 4096), cudaSuccess);
  std::vector<unsigned char> back(4096);
  ASSERT_EQ(api.cudaMemcpy(back.data(), dev, 4096, cudaMemcpyDeviceToHost),
            cudaSuccess);
  for (unsigned char c : back) ASSERT_EQ(c, 0x3C);
}

TEST(ProxyTest, KernelLaunchAcrossProcessBoundary) {
  ProxyClientApi api(test_options());
  proxy_module().register_with(api);
  const std::uint64_t n = 2048;
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, n * sizeof(float)), cudaSuccess);
  auto* f = static_cast<float*>(dev);
  ASSERT_EQ(cuda::launch(api, &fill_kernel, dim3{16, 1, 1}, dim3{128, 1, 1},
                         0, f, 7.0f, n),
            cudaSuccess);
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  std::vector<float> out(n);
  ASSERT_EQ(api.cudaMemcpy(out.data(), dev, n * sizeof(float),
                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], 7.0f + static_cast<float>(i)) << i;
  }
}

TEST(ProxyTest, StreamsAndEventsOverRpc) {
  ProxyClientApi api(test_options());
  cuda::cudaStream_t s = 0;
  cuda::cudaEvent_t e0 = 0, e1 = 0;
  ASSERT_EQ(api.cudaStreamCreate(&s), cudaSuccess);
  ASSERT_EQ(api.cudaEventCreate(&e0), cudaSuccess);
  ASSERT_EQ(api.cudaEventCreate(&e1), cudaSuccess);
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, 1 << 20), cudaSuccess);
  ASSERT_EQ(api.cudaEventRecord(e0, s), cudaSuccess);
  ASSERT_EQ(api.cudaMemsetAsync(dev, 1, 1 << 20, s), cudaSuccess);
  ASSERT_EQ(api.cudaEventRecord(e1, s), cudaSuccess);
  ASSERT_EQ(api.cudaEventSynchronize(e1), cudaSuccess);
  float ms = -1.0f;
  ASSERT_EQ(api.cudaEventElapsedTime(&ms, e0, e1), cudaSuccess);
  EXPECT_GE(ms, 0.0f);
  ASSERT_EQ(api.cudaStreamDestroy(s), cudaSuccess);
}

TEST(ProxyTest, PinnedHostMemoryIsClientLocal) {
  ProxyClientApi api(test_options());
  void* pinned = nullptr;
  ASSERT_EQ(api.cudaMallocHost(&pinned, 8192), cudaSuccess);
  // Directly writable (no RPC needed).
  std::memset(pinned, 0xAB, 8192);
  cuda::cudaPointerAttributes attrs;
  ASSERT_EQ(api.cudaPointerGetAttributes(&attrs, pinned), cudaSuccess);
  EXPECT_EQ(attrs.type, cuda::cudaMemoryType::cudaMemoryTypeHost);
  ASSERT_EQ(api.cudaFreeHost(pinned), cudaSuccess);
  EXPECT_EQ(api.cudaFreeHost(pinned), cuda::cudaErrorInvalidValue);
}

TEST(ProxyTest, ShadowUvmReadModifyWriteCycle) {
  // The pattern CRUM supports: CUDA-call, read from UVM, modify, write to
  // UVM, next CUDA-call (paper §2.3).
  ProxyClientApi api(test_options());
  proxy_module().register_with(api);
  const std::uint64_t n = 1024;
  void* managed = nullptr;
  ASSERT_EQ(api.cudaMallocManaged(&managed, n * sizeof(float),
                                  cuda::cudaMemAttachGlobal),
            cudaSuccess);
  auto* f = static_cast<float*>(managed);
  // Host writes the shadow...
  for (std::uint64_t i = 0; i < n; ++i) f[i] = -1.0f;
  // ...kernel overwrites on the device (shadow pushed before launch)...
  ASSERT_EQ(cuda::launch(api, &fill_kernel, dim3{8, 1, 1}, dim3{128, 1, 1}, 0,
                         f, 100.0f, n),
            cudaSuccess);
  // ...and the next sync pulls device results back into the shadow.
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(f[i], 100.0f + static_cast<float>(i)) << i;
  }
  EXPECT_GT(api.stats().shadow_syncs_to_device, 0u);
  EXPECT_GT(api.stats().shadow_syncs_from_device, 0u);
}

TEST(ProxyTest, ManagedDrainRestoreRoundTrip) {
  // drain_managed -> restore_managed: the proxy's CRUM-style checkpoint of
  // managed state round-trips through the streaming image pipeline, and the
  // restore pushes contents back to the device, not just the shadows.
  ProxyClientApi api(test_options());
  proxy_module().register_with(api);
  const std::uint64_t n = 4096;
  void* managed = nullptr;
  ASSERT_EQ(api.cudaMallocManaged(&managed, n * sizeof(float),
                                  cuda::cudaMemAttachGlobal),
            cudaSuccess);
  auto* f = static_cast<float*>(managed);
  // Put known values on device AND shadow (launch pushes, sync pulls).
  ASSERT_EQ(cuda::launch(api, &fill_kernel, dim3{32, 1, 1}, dim3{128, 1, 1},
                         0, f, 5.0f, n),
            cudaSuccess);
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);

  ckpt::MemorySink sink;
  ckpt::ImageWriter::Options wopts;
  wopts.codec = ckpt::Codec::kLz;
  wopts.chunk_size = 4096;  // several chunks per region
  ckpt::ImageWriter writer(&sink, wopts);
  ASSERT_TRUE(api.drain_managed(writer).ok());
  ASSERT_TRUE(writer.finish().ok());

  // Scribble both sides.
  ASSERT_EQ(api.cudaMemset(managed, 0, n * sizeof(float)), cudaSuccess);

  auto reader = ckpt::ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  ASSERT_TRUE(api.restore_managed(*reader).ok());
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(f[i], 5.0f + static_cast<float>(i)) << i;
  }
  // The device side was restored too: a synchronize pulls device contents
  // back over the shadow, and the values must survive that.
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(f[i], 5.0f + static_cast<float>(i)) << i;
  }
}

TEST(ProxyTest, ShadowUvmLosesConcurrentStreamUpdates) {
  // The failure CRAC fixes (paper contribution 2): with two concurrent
  // streams touching the same managed region, the whole-buffer shadow push
  // before a second launch overwrites device updates made concurrently by
  // the first stream. Under CRAC's single address space the same scenario
  // is perfectly safe (see UvmTest.ConcurrentWritersSamePage).
  const std::uint64_t n = 512;  // slow kernel runs ~ (n/2)*200us ≈ 50ms
  int lost_total = 0;
  for (int attempt = 0; attempt < 3 && lost_total == 0; ++attempt) {
    ProxyClientApi api(test_options());
    proxy_module().register_with(api);
    void* managed = nullptr;
    ASSERT_EQ(api.cudaMallocManaged(&managed, n * sizeof(std::uint32_t),
                                    cuda::cudaMemAttachGlobal),
              cudaSuccess);
    auto* words = static_cast<std::uint32_t*>(managed);
    std::memset(words, 0, n * sizeof(std::uint32_t));

    cuda::cudaStream_t s1 = 0, s2 = 0;
    ASSERT_EQ(api.cudaStreamCreate(&s1), cudaSuccess);
    ASSERT_EQ(api.cudaStreamCreate(&s2), cudaSuccess);

    // Stream 1: slow kernel writing odd slots on the device.
    ASSERT_EQ(cuda::launch(api, &slow_odd_writer_kernel, dim3{1, 1, 1},
                           dim3{1, 1, 1}, s1, words, n),
              cudaSuccess);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // Stream 2: an unrelated launch; its pre-launch shadow push writes the
    // (stale) whole buffer over the device copy.
    ASSERT_EQ(cuda::launch(api, &nop_kernel, dim3{1, 1, 1}, dim3{1, 1, 1}, s2,
                           0),
              cudaSuccess);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);

    int lost = 0;
    for (std::uint64_t i = 1; i < n; i += 2) {
      if (words[i] != 1) ++lost;
    }
    lost_total = lost;
  }
  EXPECT_GT(lost_total, 0)
      << "shadow-page sync should lose concurrent-stream updates";
}

TEST(ProxyTest, RpcCountScalesWithCalls) {
  ProxyClientApi api(test_options());
  const std::uint64_t before = api.stats().rpcs;
  void* dev = nullptr;
  ASSERT_EQ(api.cudaMalloc(&dev, 4096), cudaSuccess);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  }
  EXPECT_GE(api.stats().rpcs - before, 51u);
}

// ---- malformed requests on a raw channel ----

// Sends `req` with `payload` exactly as given, bypassing the client
// library's own size handling, and reads the response header (and any
// inline response payload).
Result<ResponseHeader> raw_call(int fd, RequestHeader req,
                                const std::vector<std::byte>& payload = {}) {
  req.payload_bytes = static_cast<std::uint32_t>(payload.size());
  CRAC_RETURN_IF_ERROR(write_all(fd, &req, sizeof(req)));
  if (!payload.empty()) {
    CRAC_RETURN_IF_ERROR(write_all(fd, payload.data(), payload.size()));
  }
  ResponseHeader resp{};
  CRAC_RETURN_IF_ERROR(read_all(fd, &resp, sizeof(resp)));
  std::vector<std::byte> body(resp.payload_bytes);
  if (!body.empty()) {
    CRAC_RETURN_IF_ERROR(read_all(fd, body.data(), body.size()));
  }
  return resp;
}

TEST(ProxyTest, MalformedRequestsAnsweredInBandServerKeepsServing) {
  // Every size a request handler reads by must fit what the request
  // carries: the payload, or the channel's staging buffer. One malformed
  // request must cost its sender an error, never the server every
  // attached client shares.
  //
  // A dying server must fail this test, not kill it with SIGPIPE when the
  // host's destructor sends its shutdown.
  const auto previous_sigpipe = ::signal(SIGPIPE, SIG_IGN);
  {
    ProxyClientApi api(test_options());
    proxy_module().register_with(api);
    const std::size_t staging = test_options().host.staging_bytes;
    const std::size_t big = 3 * staging;
    void* dev = nullptr;
    ASSERT_EQ(api.cudaMalloc(&dev, big), cudaSuccess);
    const auto dev_addr = reinterpret_cast<std::uint64_t>(dev);

    auto fd = api.host()->connect();
    ASSERT_TRUE(fd.ok()) << fd.status().to_string();
    RequestHeader hello{};
    hello.op = Op::kHello;
    auto hello_resp = raw_call(*fd, hello);
    ASSERT_TRUE(hello_resp.ok()) << hello_resp.status().to_string();
    ASSERT_EQ(hello_resp->err, cudaSuccess);

    auto put_u32 = [](std::vector<std::byte>& b, std::uint32_t v) {
      const auto* p = reinterpret_cast<const std::byte*>(&v);
      b.insert(b.end(), p, p + sizeof(v));
    };
    auto put_u64 = [](std::vector<std::byte>& b, std::uint64_t v) {
      const auto* p = reinterpret_cast<const std::byte*>(&v);
      b.insert(b.end(), p, p + sizeof(v));
    };
    // A launch of "nop" (one int argument) whose payload stops after the
    // argument count: the argument bytes are missing.
    std::vector<std::byte> argless_launch;
    for (int i = 0; i < 6; ++i) put_u32(argless_launch, 1);  // grid, block
    put_u64(argless_launch, 0);                              // shmem
    put_u64(argless_launch, 0);                              // stream
    put_u32(argless_launch, 1);                              // argcount
    // A registration that claims 1,000 argument sizes and carries none.
    std::vector<std::byte> sizeless_registration;
    put_u64(sizeless_registration, 0x1234);  // host_fn
    put_u64(sizeless_registration, 0x5678);  // device_fn
    put_u32(sizeless_registration, 1000);    // argcount

    struct Malformed {
      const char* what;
      RequestHeader req;
      std::vector<std::byte> payload;
    };
    auto request = [](Op op, std::uint64_t a, std::uint64_t b,
                      bool staged) {
      RequestHeader req{};
      req.op = op;
      req.a = a;
      req.b = b;
      req.staged = staged ? 1 : 0;
      return req;
    };
    const std::vector<Malformed> cases = {
        {"launch with an empty payload",
         request(Op::kLaunchKernel,
                 reinterpret_cast<std::uint64_t>(&nop_kernel), 0, false),
         {}},
        {"launch without its argument bytes",
         request(Op::kLaunchKernel,
                 reinterpret_cast<std::uint64_t>(&nop_kernel), 0, false),
         argless_launch},
        {"function registration with an empty payload",
         request(Op::kRegisterFunction, 0, 0, false),
         {}},
        {"function registration without its size table",
         request(Op::kRegisterFunction, 0, 0, false),
         sizeless_registration},
        {"inline copy to device beyond its payload",
         request(Op::kMemcpyToDevice, dev_addr, big, false),
         std::vector<std::byte>(16)},
        {"staged copy to device beyond the staging buffer",
         request(Op::kMemcpyToDeviceAsync, dev_addr, big, true),
         {}},
        {"staged copy from device beyond the staging buffer",
         request(Op::kMemcpyFromDevice, dev_addr, big, true),
         {}},
        {"staged async copy from device beyond the staging buffer",
         request(Op::kMemcpyFromDeviceAsync, dev_addr, big, true),
         {}},
    };
    for (const Malformed& m : cases) {
      SCOPED_TRACE(m.what);
      auto resp = raw_call(*fd, m.req, m.payload);
      ASSERT_TRUE(resp.ok()) << resp.status().to_string();
      EXPECT_EQ(resp->err, cuda::cudaErrorInvalidValue);
      // The same channel serves a valid RPC next.
      RequestHeader info{};
      info.op = Op::kMemGetInfo;
      auto next = raw_call(*fd, info);
      ASSERT_TRUE(next.ok()) << next.status().to_string();
      EXPECT_EQ(next->err, cudaSuccess);
      EXPECT_GT(next->r1, 0u);  // total device memory
    }
    ::close(*fd);
    // The other client on the server saw nothing of it.
    std::vector<std::uint8_t> back(4096);
    ASSERT_EQ(api.cudaMemset(dev, 0x5A, back.size()), cudaSuccess);
    ASSERT_EQ(api.cudaMemcpy(back.data(), dev, back.size(),
                             cudaMemcpyDeviceToHost),
              cudaSuccess);
    EXPECT_EQ(back, std::vector<std::uint8_t>(back.size(), 0x5A));
  }
  ::signal(SIGPIPE, previous_sigpipe);
}

TEST(ShadowUvmTest, TranslateOnlyBasePointers) {
  ShadowUvm shadow;
  alignas(16) char buf[256];
  shadow.add(buf, 0xDEAD0000, sizeof(buf));
  EXPECT_TRUE(shadow.is_shadow(buf));
  EXPECT_TRUE(shadow.is_shadow(buf + 100));
  EXPECT_FALSE(shadow.is_shadow(buf + 256));
  auto t = shadow.translate(buf);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 0xDEAD0000u);
  // Interior pointers are NOT translatable — the structural fragility of
  // shadow schemes.
  EXPECT_FALSE(shadow.translate(buf + 8).ok());
  auto removed = shadow.remove(buf);
  ASSERT_TRUE(removed.ok());
  EXPECT_FALSE(shadow.is_shadow(buf));
}

}  // namespace
}  // namespace crac::proxy
