// Preemption-storm campaign: table-driven spot-kill injection at chosen
// points of a checkpoint's life — mid-capture, mid-ship, mid-replay — at
// two layers of the stack. The property under test is always the same:
// a kill is a clean, named failure; survivors keep intact prior state; a
// half-delivered image never restores.
//
//   * StormOverlayShipTest — the wire framing in-process (SocketSink /
//     StreamingSpoolSource over pipes): sender dies at a table of stream
//     offsets, the transport dies mid-capture via FaultySink. TSan-safe —
//     the CI TSan job runs exactly the StormOverlay* fixture.
//   * StormCracContextTest — a full fixed-VA context: the checkpoint sink
//     fails at a table of offsets mid-capture (with the COW overlay
//     armed — the CaptureGuard must disarm it), and the restore source
//     fails at a table of offsets mid-replay (the half-built context is
//     discarded). The surviving context checkpoints again; the intact
//     image restores byte-identically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/fd_io.hpp"
#include "crac/context.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
namespace testlib = ckpt::testlib;
using testlib::FaultySink;
using testlib::FaultySource;
using testlib::NamedSections;

// The storm table: where in a stream the spot instance dies. Fractions of
// the healthy stream length, so the same table drives every layer.
constexpr double kKillFractions[] = {0.1, 0.5, 0.9};

// ---------------------------------------------------------------------------
// Layer 1: wire framing in-process (TSan runs this fixture)
// ---------------------------------------------------------------------------

std::vector<std::byte> capture_ship_stream(
    const std::function<void(ckpt::Sink&)>& produce) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::vector<std::byte> wire;
  std::thread drainer([&] {
    std::byte buf[1 << 16];
    for (;;) {
      const ::ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      wire.insert(wire.end(), buf, buf + n);
    }
  });
  {
    ckpt::SocketSink sink(fds[1], "storm capture socket");
    produce(sink);
  }
  ::close(fds[1]);
  drainer.join();
  ::close(fds[0]);
  return wire;
}

Result<std::unique_ptr<ckpt::StreamingSpoolSource>> replay_stream(
    const std::vector<std::byte>& wire) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread feeder([&] {
    (void)write_all_fd(fds[1], wire.data(), wire.size(), "storm replay pipe");
    ::close(fds[1]);
  });
  auto spool = ckpt::testlib::receive_whole(fds[0]);
  feeder.join();
  ::close(fds[0]);
  return spool;
}

// Fully consumes a replayed stream: spool + open + read every section.
// Returns the first error anywhere in that pipeline.
Status consume_stream(const std::vector<std::byte>& wire) {
  auto spool = replay_stream(wire);
  if (!spool.ok()) return spool.status();
  auto reader = ckpt::ImageReader::open(std::move(*spool));
  if (!reader.ok()) return reader.status();
  for (const auto& sec : reader->sections()) {
    auto payload = reader->read_section(sec);
    if (!payload.ok()) return payload.status();
  }
  return reader->verify_unread_sections();
}

class StormOverlayShipTest : public ::testing::Test {
 protected:
  void SetUp() override {
    secs_ = {{"noise", testlib::random_bytes(48 * 1024, 66)},
             {"runs", testlib::compressible_bytes(64 * 1024, 77)}};
    wire_ = capture_ship_stream([&](ckpt::Sink& sink) {
      ASSERT_TRUE(
          testlib::write_image(sink, secs_, ckpt::Codec::kLz, 4096).ok());
    });
    ASSERT_GT(wire_.size(), 64u);
  }

  NamedSections secs_;
  std::vector<std::byte> wire_;
};

TEST_F(StormOverlayShipTest, SenderDiesAtEveryTableOffset) {
  // The sender process is killed mid-stream: the receiver sees EOF with no
  // known end. Every kill point must be a named error — never a hang,
  // never a partially-accepted image.
  for (const double frac : kKillFractions) {
    const auto cut = static_cast<std::size_t>(wire_.size() * frac);
    std::vector<std::byte> truncated(wire_.begin(), wire_.begin() + cut);
    const Status st = consume_stream(truncated);
    EXPECT_FALSE(st.ok()) << "kill at " << frac << " ("
                          << cut << " bytes) was accepted";
  }
  // Control: the intact wire consumes cleanly.
  EXPECT_TRUE(consume_stream(wire_).ok());
}

TEST_F(StormOverlayShipTest, TransportDiesMidCaptureAtEveryTableOffset) {
  // The transport (not the producer) fails mid-capture: FaultySink between
  // the image writer and the socket. The resulting short wire must be
  // rejected downstream at every kill point.
  for (const double frac : kKillFractions) {
    const auto fail_at = static_cast<std::uint64_t>(wire_.size() * frac);
    const std::vector<std::byte> wire =
        capture_ship_stream([&](ckpt::Sink& inner) {
          FaultySink::Faults faults;
          faults.fail_at = fail_at;
          FaultySink sink(&inner, faults);
          EXPECT_FALSE(
              testlib::write_image(sink, secs_, ckpt::Codec::kLz, 4096).ok());
        });
    EXPECT_LE(wire.size(), fail_at);
    const Status st = consume_stream(wire);
    EXPECT_FALSE(st.ok()) << "transport kill at " << frac << " was accepted";
  }
}

TEST_F(StormOverlayShipTest, FlippedBitAnywhereIsNamedCorruption) {
  // A single flipped bit at each table offset: the CRC net must catch it
  // as corruption (or framing rejection), never deliver wrong bytes.
  for (const double frac : kKillFractions) {
    std::vector<std::byte> bad = wire_;
    bad[static_cast<std::size_t>(bad.size() * frac)] ^= std::byte{0x10};
    const Status st = consume_stream(bad);
    EXPECT_FALSE(st.ok()) << "bit flip at " << frac << " went unnoticed";
  }
}

// ---------------------------------------------------------------------------
// Layer 2: full CracContext captures and replays (fixed VA — not in TSan)
// ---------------------------------------------------------------------------

CracOptions storm_context_options() {
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

constexpr std::size_t kStormDevBytes = 4 << 20;

void* build_storm_state(CracContext& ctx, std::vector<std::byte>& mirror) {
  void* dev = nullptr;
  EXPECT_EQ(ctx.api().cudaMalloc(&dev, kStormDevBytes), cudaSuccess);
  mirror = testlib::random_bytes(kStormDevBytes, 4242);
  EXPECT_EQ(ctx.api().cudaMemcpy(dev, mirror.data(), kStormDevBytes,
                                 cudaMemcpyHostToDevice),
            cudaSuccess);
  EXPECT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
  return dev;
}

TEST(StormCracContextTest, SinkDiesMidCheckpointAndTheContextKeepsWorking) {
  CracContext ctx(storm_context_options());
  std::vector<std::byte> mirror;
  void* dev = build_storm_state(ctx, mirror);

  // Healthy capture first — both the control and the source of offsets.
  ckpt::MemorySink healthy;
  auto report = ctx.checkpoint_to_sink(healthy);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  const std::uint64_t image_bytes = healthy.bytes().size();
  ASSERT_GT(image_bytes, 0u);

  for (const double frac : kKillFractions) {
    ckpt::MemorySink inner;
    FaultySink::Faults faults;
    faults.fail_at = static_cast<std::uint64_t>(image_bytes * frac);
    FaultySink sink(&inner, faults);
    auto killed = ctx.checkpoint_to_sink(sink);
    EXPECT_FALSE(killed.ok()) << "sink kill at " << frac << " reported ok";

    // The CaptureGuard must have unwound completely: the COW overlay is
    // disarmed (no writer would ever preserve into a dead capture) and
    // the context remains fully usable.
    EXPECT_FALSE(ctx.process().lower().device().snap_overlay().armed())
        << "overlay left armed after sink kill at " << frac;
    std::vector<std::byte> back(kStormDevBytes);
    ASSERT_EQ(ctx.api().cudaMemcpy(back.data(), dev, kStormDevBytes,
                                   cudaMemcpyDeviceToHost),
              cudaSuccess);
    EXPECT_EQ(back, mirror) << "device state damaged by kill at " << frac;
  }

  // After the storm the context still produces a good image.
  ckpt::MemorySink after;
  auto report2 = ctx.checkpoint_to_sink(after);
  ASSERT_TRUE(report2.ok()) << report2.status().to_string();
  EXPECT_GT(after.bytes().size(), 0u);
}

TEST(StormCracContextTest, SourceDiesMidReplayAndTheIntactImageStillRestores) {
  std::vector<std::byte> wire;
  std::vector<std::byte> mirror;
  void* dev = nullptr;
  {
    CracContext ctx(storm_context_options());
    dev = build_storm_state(ctx, mirror);
    ckpt::MemorySink sink;
    auto report = ctx.checkpoint_to_sink(sink);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    wire = std::move(sink).take();
  }

  // Spot kills mid-replay, with and without the short-read delivery of the
  // prefix (the nastier partial-buffer mode). The half-built context must
  // be discarded with a named error every time.
  for (const double frac : kKillFractions) {
    for (const bool short_read : {false, true}) {
      FaultySource::Faults faults;
      faults.fail_at = static_cast<std::uint64_t>(wire.size() * frac);
      faults.short_read = short_read;
      auto source = std::make_unique<FaultySource>(
          std::make_unique<ckpt::MemorySource>(wire), faults);
      auto restarted = CracContext::restart_from_source(
          std::move(source), storm_context_options());
      EXPECT_FALSE(restarted.ok())
          << "replay kill at " << frac << " (short_read=" << short_read
          << ") produced a context";
    }
  }

  // A flipped byte mid-stream is corruption, not a context.
  {
    std::vector<std::byte> bad = wire;
    bad[bad.size() / 2] ^= std::byte{0x04};
    auto restarted = CracContext::restart_from_source(
        std::make_unique<ckpt::MemorySource>(std::move(bad)),
        storm_context_options());
    EXPECT_FALSE(restarted.ok());
  }

  // The intact image, over the same machinery, restores byte-identically.
  auto restarted = CracContext::restart_from_source(
      std::make_unique<ckpt::MemorySource>(wire), storm_context_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  std::vector<std::byte> back(kStormDevBytes);
  ASSERT_EQ((*restarted)->api().cudaMemcpy(back.data(), dev, kStormDevBytes,
                                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, mirror);
}

}  // namespace
}  // namespace crac
