// Rolling ring-migration scenario: N proxy endpoints (each a forked server
// process), endpoint i ships its device state to endpoint i+1 while
// endpoint i-1 is shipping into endpoint i — concurrent SHIP_CKPT and
// RECV_CKPT traffic on one process, around a full ring.
//
// Deadlock discipline: ship_checkpoint and recv_checkpoint each hold their
// endpoint's RPC lock for the whole stream, so a ring of blocking verbs can
// cycle-wait. Two rules break the cycle without breaking the overlap:
//   * each ring edge is a socketpair whose kernel buffer absorbs an entire
//     shipment, so a ship never blocks on its successor's recv;
//   * each recv gates on POLLIN before taking its lock, so it only starts
//     once its predecessor's ship is already streaming — and once its own
//     endpoint's ship is, so the endpoint ships before it receives.
// With those, recv(i) drains ship(i-1) concurrently with ship(i) filling
// its edge — the advertised overlap, deterministically deadlock-free.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "proxy/client_api.hpp"

namespace crac::proxy {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;

constexpr int kRingSize = 3;
// Small enough that one framed shipment fits in a default AF_UNIX socket
// buffer (~208 KiB): the ring must never depend on a recv draining a ship
// to make progress.
constexpr std::size_t kStateBytes = 48 << 10;

ProxyClientApi::Options ring_options() {
  ProxyClientApi::Options opts;
  auto& dev = opts.host.device;
  dev.device_capacity = 64 << 20;
  dev.pinned_capacity = 16 << 20;
  dev.managed_capacity = 64 << 20;
  dev.device_chunk = 4 << 20;
  dev.pinned_chunk = 4 << 20;
  dev.managed_chunk = 4 << 20;
  opts.host.staging_bytes = 8 << 20;
  return opts;
}

std::vector<char> endpoint_pattern(int endpoint, int generation) {
  std::vector<char> bytes(kStateBytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 7 + endpoint * 31 + generation * 131 + 1);
  }
  return bytes;
}

// Waits until `fd` has readable bytes — the predecessor's ship is live.
void wait_readable(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 30000), 0) << "ring edge never became readable";
}

// One full rotation: every endpoint ships its current state to its
// successor and receives its predecessor's, all edges in flight at once.
void rotate_ring(std::array<std::unique_ptr<ProxyClientApi>, kRingSize>& ring) {
  std::array<int[2], kRingSize> edge;  // edge[i]: i ships into i+1
  for (int i = 0; i < kRingSize; ++i) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, edge[i]), 0);
  }

  std::array<Status, kRingSize> ship_st;
  std::array<Status, kRingSize> recv_st;
  std::vector<std::thread> shippers, receivers;
  for (int i = 0; i < kRingSize; ++i) {
    shippers.emplace_back([&, i] {
      ship_st[i] = ring[i]->ship_checkpoint(edge[i][1]);
      ::close(edge[i][1]);
    });
    receivers.emplace_back([&, i] {
      const int src = edge[(i + kRingSize - 1) % kRingSize][0];
      wait_readable(src);
      // This endpoint's own ship must hold its RPC lock first, or the
      // receive can overwrite the state before it ships (then the ring
      // rotates by zero or two). Bytes on the outgoing edge prove it does.
      wait_readable(edge[i][0]);
      recv_st[i] = ring[i]->recv_checkpoint(src);
    });
  }
  for (auto& t : shippers) t.join();
  for (auto& t : receivers) t.join();
  for (int i = 0; i < kRingSize; ++i) {
    ::close(edge[i][0]);
    ASSERT_TRUE(ship_st[i].ok()) << "ship " << i << ": "
                                 << ship_st[i].to_string();
    ASSERT_TRUE(recv_st[i].ok()) << "recv " << i << ": "
                                 << recv_st[i].to_string();
  }
}

TEST(ScenarioRingTest, StateRotatesByteIdenticalAroundTheRing) {
  std::array<std::unique_ptr<ProxyClientApi>, kRingSize> ring;
  for (auto& ep : ring) ep = std::make_unique<ProxyClientApi>(ring_options());

  // Identical allocation sequences → deterministic arenas hand every
  // endpoint the same device pointer, so shipped state is addressable at
  // the same value everywhere (migration semantics).
  std::array<void*, kRingSize> dev{};
  std::array<std::vector<char>, kRingSize> pattern;
  for (int i = 0; i < kRingSize; ++i) {
    ASSERT_EQ(ring[i]->cudaMalloc(&dev[i], kStateBytes), cudaSuccess);
    pattern[i] = endpoint_pattern(i, /*generation=*/0);
    ASSERT_EQ(ring[i]->cudaMemcpy(dev[i], pattern[i].data(), kStateBytes,
                                  cudaMemcpyHostToDevice),
              cudaSuccess);
  }
  ASSERT_EQ(dev[0], dev[1]);
  ASSERT_EQ(dev[1], dev[2]);

  rotate_ring(ring);

  // Endpoint i now holds endpoint i-1's original bytes, exactly.
  for (int i = 0; i < kRingSize; ++i) {
    std::vector<char> got(kStateBytes);
    ASSERT_EQ(ring[i]->cudaMemcpy(got.data(), dev[i], kStateBytes,
                                  cudaMemcpyDeviceToHost),
              cudaSuccess);
    EXPECT_EQ(got, pattern[(i + kRingSize - 1) % kRingSize])
        << "endpoint " << i << " after rotation 1";
  }

  // A second rotation proves every connection survived the first unharmed:
  // overwrite with fresh generation-1 state, rotate again, re-verify.
  for (int i = 0; i < kRingSize; ++i) {
    pattern[i] = endpoint_pattern(i, /*generation=*/1);
    ASSERT_EQ(ring[i]->cudaMemcpy(dev[i], pattern[i].data(), kStateBytes,
                                  cudaMemcpyHostToDevice),
              cudaSuccess);
  }
  rotate_ring(ring);
  for (int i = 0; i < kRingSize; ++i) {
    std::vector<char> got(kStateBytes);
    ASSERT_EQ(ring[i]->cudaMemcpy(got.data(), dev[i], kStateBytes,
                                  cudaMemcpyDeviceToHost),
              cudaSuccess);
    EXPECT_EQ(got, pattern[(i + kRingSize - 1) % kRingSize])
        << "endpoint " << i << " after rotation 2";
  }
}

TEST(ScenarioRingTest, RingSurvivesAnEndpointWithRicherState) {
  // Heterogeneous states around the ring: endpoint 0 carries extra
  // allocations including a freed hole. The rotation must move each
  // endpoint's full allocator snapshot (holes included), not just a dense
  // prefix, and the richer snapshot must land intact two hops away after
  // two rotations.
  std::array<std::unique_ptr<ProxyClientApi>, kRingSize> ring;
  for (auto& ep : ring) ep = std::make_unique<ProxyClientApi>(ring_options());

  std::array<void*, kRingSize> dev{};
  std::array<std::vector<char>, kRingSize> pattern;
  for (int i = 0; i < kRingSize; ++i) {
    ASSERT_EQ(ring[i]->cudaMalloc(&dev[i], kStateBytes), cudaSuccess);
    pattern[i] = endpoint_pattern(i, /*generation=*/7);
    ASSERT_EQ(ring[i]->cudaMemcpy(dev[i], pattern[i].data(), kStateBytes,
                                  cudaMemcpyHostToDevice),
              cudaSuccess);
  }

  // Endpoint 0's extras: a live second allocation plus a freed hole.
  void* extra = nullptr;
  void* hole = nullptr;
  constexpr std::size_t kExtraBytes = 16 << 10;
  ASSERT_EQ(ring[0]->cudaMalloc(&hole, 8 << 10), cudaSuccess);
  ASSERT_EQ(ring[0]->cudaMalloc(&extra, kExtraBytes), cudaSuccess);
  ASSERT_EQ(ring[0]->cudaFree(hole), cudaSuccess);
  std::vector<char> extra_pattern(kExtraBytes);
  for (std::size_t i = 0; i < kExtraBytes; ++i) {
    extra_pattern[i] = static_cast<char>(i * 17 + 3);
  }
  ASSERT_EQ(ring[0]->cudaMemcpy(extra, extra_pattern.data(), kExtraBytes,
                                cudaMemcpyHostToDevice),
            cudaSuccess);

  rotate_ring(ring);
  rotate_ring(ring);

  // After two rotations endpoint 2 holds endpoint 0's snapshot.
  std::vector<char> got(kStateBytes);
  ASSERT_EQ(ring[2]->cudaMemcpy(got.data(), dev[2], kStateBytes,
                                cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(got, pattern[0]);
  std::vector<char> got_extra(kExtraBytes);
  ASSERT_EQ(ring[2]->cudaMemcpy(got_extra.data(), extra, kExtraBytes,
                                cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(got_extra, extra_pattern);
}

}  // namespace
}  // namespace crac::proxy
