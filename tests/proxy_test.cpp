// Tests for the proxy-process baseline (the CRUM/CRCUDA architecture):
// RPC correctness, bulk transfer (CMA or socket), kernel launches across
// the process boundary, and the CRUM shadow-UVM mechanism including its
// documented lost-update failure under concurrent streams.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/snapstore.hpp"
#include "proxy/client_api.hpp"
#include "simgpu/arena_allocator.hpp"
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

TEST(ProxyTest, DeviceStateShipsBetweenProxyEndpoints) {
  // SHIP_CKPT -> RECV_CKPT: endpoint A pushes a live checkpoint of its
  // server's device-arena state through a pipe into endpoint B's server —
  // two proxy processes, no file, pointer values preserved verbatim. The
  // pipe is far smaller than the shipment, so ship and recv must run
  // concurrently (a real migration, not a staged copy).
  ProxyClientApi a(test_options());
  ProxyClientApi b(test_options());

  const std::size_t n0 = 256 << 10, n1 = 96 << 10, n2 = 32 << 10;
  void* d0 = nullptr;
  void* d1 = nullptr;
  void* d2 = nullptr;
  ASSERT_EQ(a.cudaMalloc(&d0, n0), cudaSuccess);
  ASSERT_EQ(a.cudaMalloc(&d1, n1), cudaSuccess);
  ASSERT_EQ(a.cudaMalloc(&d2, n2), cudaSuccess);
  // Free the middle allocation: the shipped allocator snapshot must carry
  // the hole, not just a dense prefix.
  ASSERT_EQ(a.cudaFree(d1), cudaSuccess);

  std::vector<char> p0(n0), p2(n2);
  for (std::size_t i = 0; i < n0; ++i) p0[i] = static_cast<char>(i * 7 + 1);
  for (std::size_t i = 0; i < n2; ++i) p2[i] = static_cast<char>(i * 13 + 5);
  ASSERT_EQ(a.cudaMemcpy(d0, p0.data(), n0, cudaMemcpyHostToDevice),
            cudaSuccess);
  ASSERT_EQ(a.cudaMemcpy(d2, p2.data(), n2, cudaMemcpyHostToDevice),
            cudaSuccess);

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  Status ship_status = OkStatus();
  std::thread shipper([&] {
    ship_status = a.ship_checkpoint(pipefd[1]);
    ::close(pipefd[1]);
  });
  const Status recv_status = b.recv_checkpoint(pipefd[0]);
  shipper.join();
  ::close(pipefd[0]);
  ASSERT_TRUE(ship_status.ok()) << ship_status.to_string();
  ASSERT_TRUE(recv_status.ok()) << recv_status.to_string();

  // B's server now holds A's device state at the same addresses; explicit
  // copy kinds address the migrated pointers directly.
  std::vector<char> back0(n0), back2(n2);
  ASSERT_EQ(b.cudaMemcpy(back0.data(), d0, n0, cudaMemcpyDeviceToHost),
            cudaSuccess);
  ASSERT_EQ(b.cudaMemcpy(back2.data(), d2, n2, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back0, p0);
  EXPECT_EQ(back2, p2);
  // The freed hole migrated too: a fresh allocation of the hole's size on B
  // reuses d1's address (deterministic first-fit over the shipped free
  // list), proving allocator state — not just contents — made the trip.
  void* reuse = nullptr;
  ASSERT_EQ(b.cudaMalloc(&reuse, n1), cudaSuccess);
  EXPECT_EQ(reuse, d1);
}

TEST(ProxyTest, RecvCkptRejectsForeignImageAndSurvives) {
  // A complete, CRC-clean shipment that is not a device-arena checkpoint
  // must be rejected with an error — and the connection must remain usable
  // (the stream was fully consumed, so the protocol is still in sync).
  ProxyClientApi b(test_options());

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  {
    ckpt::SocketSink sink(pipefd[1], "test ship");
    ckpt::ImageWriter writer(&sink, ckpt::ImageWriter::Options{});
    writer.add_section(ckpt::SectionType::kMetadata, "unrelated",
                       std::vector<std::byte>(64, std::byte{0x5A}));
    ASSERT_TRUE(writer.finish().ok());
    ASSERT_TRUE(sink.close().ok());
    ::close(pipefd[1]);
  }
  const Status recv_status = b.recv_checkpoint(pipefd[0]);
  ::close(pipefd[0]);
  EXPECT_FALSE(recv_status.ok());

  void* dev = nullptr;
  EXPECT_EQ(b.cudaMalloc(&dev, 4096), cudaSuccess);
  EXPECT_EQ(b.cudaFree(dev), cudaSuccess);
}

TEST(ProxyTest, RecvCkptRejectBeforeMutationKeepsExistingState) {
  // A shipment whose snapshot decodes but whose contents section is missing
  // must be rejected BEFORE the receiving server's allocator is touched:
  // the client is told "error, connection intact", so the state it had must
  // still be there — allocations, contents, and all.
  ProxyClientApi b(test_options());
  const std::size_t n = 64 << 10;
  void* dev = nullptr;
  ASSERT_EQ(b.cudaMalloc(&dev, n), cudaSuccess);
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 3);
  ASSERT_EQ(b.cudaMemcpy(dev, pattern.data(), n, cudaMemcpyHostToDevice),
            cudaSuccess);

  // Valid CRACSHP1 stream, valid snapshot section, no contents section.
  sim::ArenaAllocator::Snapshot snap;
  snap.committed_bytes = 1 << 20;
  snap.active.emplace_back(0, 4096);
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  {
    ckpt::SocketSink sink(pipefd[1], "test ship");
    ckpt::ImageWriter writer(&sink, ckpt::ImageWriter::Options{});
    writer.add_section(ckpt::SectionType::kMetadata, "proxy-device-arena",
                       sim::encode_arena_snapshot(snap));
    ASSERT_TRUE(writer.finish().ok());
    ASSERT_TRUE(sink.close().ok());
    ::close(pipefd[1]);
  }
  const Status recv_status = b.recv_checkpoint(pipefd[0]);
  ::close(pipefd[0]);
  EXPECT_FALSE(recv_status.ok());

  // The pre-existing allocation and its contents survived the rejection.
  std::vector<char> back(n);
  ASSERT_EQ(b.cudaMemcpy(back.data(), dev, n, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, pattern);
  EXPECT_EQ(b.cudaFree(dev), cudaSuccess);
}

TEST(ProxyTest, RecvCkptOverlappingSnapshotRejectedBeforeMutation) {
  // A CRC-valid shipment whose arena snapshot carries overlapping
  // allocations — a later content restore would write one buffer over
  // another. RECV_CKPT must reject it by name before the receiving
  // server's allocator is touched.
  ProxyClientApi b(test_options());
  const std::size_t n = 64 << 10;
  void* dev = nullptr;
  ASSERT_EQ(b.cudaMalloc(&dev, n), cudaSuccess);
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 7);
  ASSERT_EQ(b.cudaMemcpy(dev, pattern.data(), n, cudaMemcpyHostToDevice),
            cudaSuccess);

  sim::ArenaAllocator::Snapshot snap;
  snap.committed_bytes = 1 << 20;
  snap.active.emplace_back(0, 8192);
  snap.active.emplace_back(4096, 8192);  // overlaps the first entry
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  {
    ckpt::SocketSink sink(pipefd[1], "test ship");
    ckpt::ImageWriter writer(&sink, ckpt::ImageWriter::Options{});
    writer.add_section(ckpt::SectionType::kMetadata, "proxy-device-arena",
                       sim::encode_arena_snapshot(snap));
    // Correctly-sized contents for the claimed allocations: everything up
    // to the overlap gate itself verifies, so the rejection below is the
    // snapshot validation, not an earlier size/CRC check.
    writer.add_section(ckpt::SectionType::kDeviceBuffers,
                       "proxy-device-contents",
                       std::vector<std::byte>(16384, std::byte{0x7F}));
    ASSERT_TRUE(writer.finish().ok());
    ASSERT_TRUE(sink.close().ok());
    ::close(pipefd[1]);
  }
  const Status recv_status = b.recv_checkpoint(pipefd[0]);
  ::close(pipefd[0]);
  // The client sees "error, connection intact" (validation details stay in
  // the server log); what matters here is reject-before-mutate.
  ASSERT_FALSE(recv_status.ok());

  // The pre-existing allocation and its contents survived the rejection.
  std::vector<char> back(n);
  ASSERT_EQ(b.cudaMemcpy(back.data(), dev, n, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, pattern);
  EXPECT_EQ(b.cudaFree(dev), cudaSuccess);
}

// Captures the exact wire bytes of a live shipment from `src`'s server —
// raw material for corrupting in the fault-injection tests below.
std::vector<std::byte> capture_shipment(ProxyClientApi& src) {
  int pipefd[2];
  EXPECT_EQ(::pipe(pipefd), 0);
  std::vector<std::byte> wire;
  std::thread drainer([&] {
    std::byte buf[1 << 16];
    for (;;) {
      const ::ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
      if (n <= 0) break;
      wire.insert(wire.end(), buf, buf + n);
    }
  });
  const Status shipped = src.ship_checkpoint(pipefd[1]);
  ::close(pipefd[1]);
  drainer.join();
  ::close(pipefd[0]);
  EXPECT_TRUE(shipped.ok()) << shipped.to_string();
  return wire;
}

// Feeds `wire` into `dst.recv_checkpoint` through a pipe (a feeder thread,
// because a pipe holds far less than a shipment).
Status feed_recv(ProxyClientApi& dst, const std::vector<std::byte>& wire) {
  int pipefd[2];
  EXPECT_EQ(::pipe(pipefd), 0);
  std::thread feeder([&] {
    (void)write_all(pipefd[1], wire.data(), wire.size());
    ::close(pipefd[1]);
  });
  const Status recv_status = dst.recv_checkpoint(pipefd[0]);
  feeder.join();
  ::close(pipefd[0]);
  return recv_status;
}

TEST(ProxyTest, RecvCkptTrailerCrcFlipAfterOverlappedRestoreKeepsState) {
  // The receiving server starts restoring while the stream arrives — but a
  // trailer CRC flip, detected only at the very end, must still leave its
  // prior device state untouched (validate-before-mutate) AND the
  // connection usable (the stream ended in-band, so nothing desynced).
  ProxyClientApi a(test_options());
  ProxyClientApi b(test_options());

  const std::size_t src_n = 192 << 10;
  void* src_dev = nullptr;
  ASSERT_EQ(a.cudaMalloc(&src_dev, src_n), cudaSuccess);
  std::vector<char> src_fill(src_n, 0x2A);
  ASSERT_EQ(a.cudaMemcpy(src_dev, src_fill.data(), src_n,
                         cudaMemcpyHostToDevice),
            cudaSuccess);

  const std::size_t n = 64 << 10;
  void* dev = nullptr;
  ASSERT_EQ(b.cudaMalloc(&dev, n), cudaSuccess);
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 11);
  ASSERT_EQ(b.cudaMemcpy(dev, pattern.data(), n, cudaMemcpyHostToDevice),
            cudaSuccess);

  std::vector<std::byte> wire = capture_shipment(a);
  ASSERT_GT(wire.size(), 16u);
  wire[wire.size() - 1] ^= std::byte{0x08};  // whole-stream CRC, in trailer

  const Status recv_status = feed_recv(b, wire);
  EXPECT_FALSE(recv_status.ok());
  EXPECT_EQ(recv_status.code(), StatusCode::kCorrupt);

  // Prior state intact, connection still serving RPCs.
  std::vector<char> back(n);
  ASSERT_EQ(b.cudaMemcpy(back.data(), dev, n, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, pattern);
  EXPECT_EQ(b.cudaFree(dev), cudaSuccess);
}

TEST(ProxyTest, RecvCkptTruncatedStreamAbortsInBandAndKeepsState) {
  // The upstream source dies mid-shipment. The client relay terminates the
  // server-bound stream with an in-band abort marker, so the server rejects
  // cleanly: prior state intact, connection usable — even though its
  // overlapped restore had already begun consuming the stream.
  ProxyClientApi a(test_options());
  ProxyClientApi b(test_options());

  const std::size_t src_n = 256 << 10;
  void* src_dev = nullptr;
  ASSERT_EQ(a.cudaMalloc(&src_dev, src_n), cudaSuccess);
  std::vector<char> src_fill(src_n, 0x3C);
  ASSERT_EQ(a.cudaMemcpy(src_dev, src_fill.data(), src_n,
                         cudaMemcpyHostToDevice),
            cudaSuccess);

  const std::size_t n = 48 << 10;
  void* dev = nullptr;
  ASSERT_EQ(b.cudaMalloc(&dev, n), cudaSuccess);
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 17);
  ASSERT_EQ(b.cudaMemcpy(dev, pattern.data(), n, cudaMemcpyHostToDevice),
            cudaSuccess);

  std::vector<std::byte> wire = capture_shipment(a);
  ASSERT_GT(wire.size(), 1024u);
  wire.resize(wire.size() * 3 / 5);  // mid-stream EOF, no trailer

  const Status recv_status = feed_recv(b, wire);
  EXPECT_FALSE(recv_status.ok());

  std::vector<char> back(n);
  ASSERT_EQ(b.cudaMemcpy(back.data(), dev, n, cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, pattern);
  EXPECT_EQ(b.cudaFree(dev), cudaSuccess);
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

TEST(ShadowUvmTest, NoteWritePreservesPreImageIntoAnArmedOverlay) {
  // The proxy-side COW interceptor: with an overlay armed over a shadow
  // mirror, note_write — which every shadow-mutating path calls before the
  // bytes change — must preserve the pre-image, so a capture reading
  // through the overlay still sees the frozen snapshot after the mutation.
  // The dirty-tracking hook must keep firing alongside.
  constexpr std::size_t kBytes = 16 << 10;
  std::vector<std::byte> mirror(kBytes, std::byte{0x42});
  const std::vector<std::byte> frozen = mirror;

  ShadowUvm shadow;
  shadow.add(mirror.data(), 0xBEEF0000, kBytes);
  std::size_t noted_bytes = 0;
  shadow.set_note_write(
      [&](const void*, std::size_t n) { noted_bytes += n; });

  ckpt::SnapOverlay::Config cfg;
  cfg.chunk_bytes = 4096;
  cfg.mem_cap_bytes = kBytes;
  cfg.file_cap_bytes = 0;
  ckpt::SnapOverlay overlay(cfg);
  ASSERT_TRUE(overlay
                  .arm({{reinterpret_cast<std::uintptr_t>(mirror.data()),
                         kBytes}})
                  .ok());
  shadow.set_snap_overlay(&overlay);

  // Mutate through the interceptor, as client_api's shadow paths do.
  shadow.note_write(mirror.data() + 4096, 8192);
  std::memset(mirror.data() + 4096, 0x99, 8192);
  EXPECT_EQ(noted_bytes, 8192u);  // the dirty hook still fired

  std::vector<std::byte> out(kBytes);
  ASSERT_TRUE(overlay.read_range(mirror.data(), kBytes, out.data()).ok());
  EXPECT_EQ(out, frozen);
  EXPECT_EQ(overlay.stats().chunks_preserved, 2u);

  shadow.set_snap_overlay(nullptr);
  overlay.release();
  // Detached: note_write reverts to hook-only, no preserve, no crash.
  shadow.note_write(mirror.data(), 64);
  EXPECT_EQ(noted_bytes, 8192u + 64u);
  (void)shadow.remove(mirror.data());
}

}  // namespace
}  // namespace crac::proxy
