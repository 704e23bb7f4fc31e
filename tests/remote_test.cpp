// Tests for the remote checkpoint transport (ckpt/remote.hpp): CRACSHP1
// wire framing over real fds, the bounded-memory spool guarantee, and
// fault injection ported from the shared harness onto the socket framing —
// mid-stream EOF, bit flips in the stream trailer, short writes.
// Plus the full CracContext live ship -> restart round trip the
// spot-instance migration example performs.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "ckpt/remote.hpp"
#include "common/fd_io.hpp"
#include "crac/context.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::ckpt {
namespace {

using testlib::FaultySink;
using testlib::NamedSections;

// ---- wire-stream helpers -------------------------------------------------
//
// The fault-injection pattern for socket framing: capture the exact wire
// bytes a shipment produces, corrupt them at a chosen offset (the
// FaultySink/FaultySource idea applied to the framed stream), and replay
// them into a whole-stream spool (testlib::receive_whole). Capture and
// replay both run the far end on a thread because a pipe holds far less
// than an image.

std::vector<std::byte> capture_ship_stream(
    const std::function<void(Sink&)>& produce) {
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
    SocketSink sink(fds[1], "capture socket");
    produce(sink);
  }
  ::close(fds[1]);
  drainer.join();
  ::close(fds[0]);
  return wire;
}

Result<std::unique_ptr<StreamingSpoolSource>> replay_stream(
    const std::vector<std::byte>& wire,
    const StreamingSpoolSource::Options& opts = {}) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread feeder([&] {
    (void)write_all_fd(fds[1], wire.data(), wire.size(), "replay pipe");
    ::close(fds[1]);
  });
  auto spool = testlib::receive_whole(fds[0], opts);
  feeder.join();
  ::close(fds[0]);
  return spool;
}

// A healthy captured stream carrying `secs`, for corruption tests.
std::vector<std::byte> healthy_stream(const NamedSections& secs, Codec codec,
                                      std::size_t chunk_size) {
  return capture_ship_stream([&](Sink& sink) {
    ASSERT_TRUE(testlib::write_image(sink, secs, codec, chunk_size).ok());
  });
}

// ---- round trips ---------------------------------------------------------

TEST(RemoteShipTest, RoundTripOverSocketFraming) {
  const NamedSections secs = {
      {"noise", testlib::random_bytes(96 * 1024, 11)},
      {"runs", testlib::compressible_bytes(200 * 1024, 22)},
      {"empty", {}},
  };
  const std::vector<std::byte> wire = healthy_stream(secs, Codec::kLz, 4096);
  // Framing overhead exists but is tiny: header + per-frame u32s + trailer.
  ASSERT_GT(wire.size(), kShipHeaderBytes + kShipTrailerBytes);

  auto spool = replay_stream(wire);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  EXPECT_EQ((*spool)->outcome()->spooled_to_disk_bytes, 0u);  // ample cap

  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  ASSERT_EQ(reader->sections().size(), secs.size());
  for (std::size_t i = 0; i < secs.size(); ++i) {
    auto payload = reader->read_section(reader->sections()[i]);
    ASSERT_TRUE(payload.ok()) << payload.status().to_string();
    EXPECT_EQ(*payload, secs[i].second) << secs[i].first;
  }
}

TEST(RemoteShipTest, EmptyImageShips) {
  const std::vector<std::byte> wire = capture_ship_stream([](Sink& sink) {
    ImageWriter writer(&sink, ImageWriter::Options{});
    ASSERT_TRUE(writer.finish().ok());
    ASSERT_TRUE(sink.close().ok());
  });
  auto spool = replay_stream(wire);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->sections().empty());
}

// The acceptance-criterion test: an image several times the spool cap must
// receive with peak resident spool memory bounded by the cap — and still
// round-trip byte-identically through the overflow file.
TEST(RemoteShipTest, SpoolMemoryBoundedByCapForOversizedImage) {
  // Incompressible payload so the shipped stream is genuinely ~2 MiB.
  const NamedSections secs = {{"big", testlib::random_bytes(2 << 20, 33)}};
  const std::vector<std::byte> wire =
      healthy_stream(secs, Codec::kStore, 64 * 1024);
  const std::size_t cap = 256 << 10;
  ASSERT_GT(wire.size(), 4 * cap);  // image really is larger than the cap

  StreamingSpoolSource::Options opts;
  opts.spool_cap_bytes = cap;
  auto spool = replay_stream(wire, opts);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  EXPECT_LE((*spool)->outcome()->peak_resident_bytes, cap);
  EXPECT_GT((*spool)->outcome()->spooled_to_disk_bytes, 0u);

  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto payload = reader->read_section(reader->sections()[0]);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  EXPECT_EQ(*payload, secs[0].second);
}

TEST(RemoteShipTest, RandomAccessAcrossSpoolBoundary) {
  // Random-access slices that straddle the memory-prefix / overflow-file
  // boundary must come back exactly (the reader seeks the spool freely).
  const std::vector<std::byte> payload = testlib::random_bytes(1 << 20, 44);
  const NamedSections secs = {{"big", payload}};
  const std::vector<std::byte> wire =
      healthy_stream(secs, Codec::kStore, 64 * 1024);

  StreamingSpoolSource::Options opts;
  opts.spool_cap_bytes = 256 << 10;
  auto spool = replay_stream(wire, opts);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok());
  const SectionInfo& sec = reader->sections()[0];
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{100000}, std::uint64_t{500000},
        std::uint64_t{(1 << 20) - 4096}}) {
    std::vector<std::byte> slice(4096);
    ASSERT_TRUE(reader->read(sec, offset, slice.data(), slice.size()).ok());
    EXPECT_EQ(0, std::memcmp(slice.data(), payload.data() + offset, 4096))
        << "slice at " << offset;
  }
}

TEST(RemoteShipTest, SpoolCapBelowMinimumRejected) {
  const std::vector<std::byte> wire =
      healthy_stream({{"s", testlib::random_bytes(1024, 5)}}, Codec::kStore,
                     4096);
  StreamingSpoolSource::Options opts;
  opts.spool_cap_bytes = 1;
  auto spool = replay_stream(wire, opts);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kInvalidArgument);
}

// ---- fault injection over the framing ------------------------------------

class RemoteFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    secs_ = {{"noise", testlib::random_bytes(48 * 1024, 66)},
             {"runs", testlib::compressible_bytes(64 * 1024, 77)}};
    wire_ = healthy_stream(secs_, Codec::kLz, 4096);
    ASSERT_GT(wire_.size(), kShipHeaderBytes + kShipTrailerBytes + 1024);
  }

  NamedSections secs_;
  std::vector<std::byte> wire_;
};

TEST_F(RemoteFaultTest, MidStreamEofReportsIoError) {
  // The writer dies mid-shipment: header gone through, some frames gone
  // through, no trailer. Every truncation point must read as a hard
  // IoError, never as a short-but-accepted image.
  for (const std::size_t keep :
       {kShipHeaderBytes - 3, kShipHeaderBytes + 2, wire_.size() / 2,
        wire_.size() - 1}) {
    std::vector<std::byte> cut(wire_.begin(), wire_.begin() + keep);
    auto spool = replay_stream(cut);
    ASSERT_FALSE(spool.ok()) << "accepted a stream cut at " << keep;
    EXPECT_EQ(spool.status().code(), StatusCode::kIoError) << keep;
  }
}

TEST_F(RemoteFaultTest, TrailerCrcBitFlipReportsCorrupt) {
  // Last 4 wire bytes are the stream CRC.
  std::vector<std::byte> bad = wire_;
  bad[bad.size() - 2] ^= std::byte{0x10};
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("trailer"), std::string::npos)
      << spool.status().to_string();
}

TEST_F(RemoteFaultTest, TrailerByteCountFlipReportsCorrupt) {
  // The u64 before the CRC is the declared total byte count.
  std::vector<std::byte> bad = wire_;
  bad[bad.size() - 8] ^= std::byte{0x01};
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("declares"), std::string::npos)
      << spool.status().to_string();
}

TEST_F(RemoteFaultTest, PayloadBitFlipCaughtByStreamCrcAtReceive) {
  // A flipped bit deep inside a frame payload fails the *stream* CRC at
  // receive time — before any consumer touches the image, a whole layer
  // earlier than the per-chunk CRCs would catch it.
  std::vector<std::byte> bad = wire_;
  bad[wire_.size() / 2] ^= std::byte{0x04};
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("CRC"), std::string::npos);
}

TEST_F(RemoteFaultTest, BadMagicRejected) {
  std::vector<std::byte> bad = wire_;
  bad[0] ^= std::byte{0xFF};
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("magic"), std::string::npos);
}

TEST_F(RemoteFaultTest, HeaderCrcFlipRejected) {
  // Flip the version field: the header CRC must catch it.
  std::vector<std::byte> bad = wire_;
  bad[9] ^= std::byte{0x01};
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("header CRC"), std::string::npos);
}

TEST_F(RemoteFaultTest, HostileFrameLengthRejected) {
  // Hand-crafted stream: valid header, then a frame claiming 2 GiB. The
  // receiver must reject the claim without allocating for it.
  std::vector<std::byte> bad(wire_.begin(),
                             wire_.begin() + kShipHeaderBytes);
  const std::uint32_t huge = std::uint32_t{2} << 30;
  const auto* p = reinterpret_cast<const std::byte*>(&huge);
  bad.insert(bad.end(), p, p + sizeof(huge));
  auto spool = replay_stream(bad);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(spool.status().message().find("exceeds"), std::string::npos);
}

TEST_F(RemoteFaultTest, ShortWriteFaultySinkPoisonsShipment) {
  // FaultySink ported over the socket framing: the transport short-writes
  // at byte K of the logical stream and fails. The writer must surface the
  // injected IoError (sticky through close), and the half-shipped wire
  // must be unreceivable.
  Status write_status;
  const std::vector<std::byte> wire =
      capture_ship_stream([&](Sink& inner) {
        FaultySink::Faults faults;
        faults.fail_at = 20000;  // mid-section, after some frames went out
        FaultySink sink(&inner, faults);
        write_status = testlib::write_image(sink, secs_, Codec::kLz, 4096);
      });

  ASSERT_FALSE(write_status.ok());
  EXPECT_EQ(write_status.code(), StatusCode::kIoError);
  EXPECT_NE(write_status.message().find("injected"), std::string::npos);

  auto spool = replay_stream(wire);
  EXPECT_FALSE(spool.ok());
}

TEST_F(RemoteFaultTest, WriteAfterCloseIsRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread drainer([&] {
    std::byte buf[1 << 16];
    while (::read(fds[0], buf, sizeof(buf)) > 0) {
    }
  });
  SocketSink sink(fds[1], "closed socket");
  ASSERT_TRUE(sink.write("x", 1).ok());
  ASSERT_TRUE(sink.close().ok());
  EXPECT_EQ(sink.write("y", 1).code(), StatusCode::kFailedPrecondition);
  ::close(fds[1]);
  drainer.join();
  ::close(fds[0]);
}

// ---- restore-while-receiving (StreamingSpoolSource) ----------------------

// The logical v2 stream the same sections produce — for knowing logical
// offsets/sizes when poking at a live spool.
std::vector<std::byte> logical_image(const NamedSections& secs, Codec codec,
                                     std::size_t chunk_size) {
  MemorySink sink;
  EXPECT_TRUE(testlib::write_image(sink, secs, codec, chunk_size).ok());
  return std::move(sink).take();
}

// The acceptance-criterion overlap test: with a throttled sender (the
// trailer deliberately held until the receiver proves progress), the first
// Source::read completes before the trailer frame is ever sent. A
// serialized implementation would deadlock here — the guarded feeder turns
// that into a clean failure instead.
TEST(StreamingSpoolTest, FirstReadCompletesBeforeTrailerSent) {
  // Big enough for several 256 KiB wire frames, so early ranges publish
  // long before the stream ends.
  const NamedSections secs = {{"big", testlib::random_bytes(1 << 20, 91)}};
  const std::vector<std::byte> wire =
      healthy_stream(secs, Codec::kStore, 64 * 1024);
  ASSERT_GT(wire.size(), kShipHeaderBytes + 2 * kShipFrameBytes);
  const std::size_t tail = 4 + kShipTrailerBytes;  // terminator + trailer

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  std::mutex mu;
  std::condition_variable cv;
  bool first_read_done = false;
  bool trailer_sent = false;
  bool feeder_timed_out = false;

  std::thread feeder([&] {
    // Everything except the trailer...
    ASSERT_TRUE(write_all_fd(fds[1], wire.data(), wire.size() - tail,
                             "overlap feeder").ok());
    {
      // ...then wait for the consumer's first read to finish. 60s is an
      // eternity for a local read; hitting it means the receiver was
      // waiting for the trailer, i.e. not overlapping.
      std::unique_lock<std::mutex> lock(mu);
      feeder_timed_out = !cv.wait_for(lock, std::chrono::seconds(60),
                                      [&] { return first_read_done; });
      trailer_sent = true;
    }
    ASSERT_TRUE(write_all_fd(fds[1], wire.data() + wire.size() - tail, tail,
                             "overlap feeder").ok());
    ::close(fds[1]);
  });

  auto spool = StreamingSpoolSource::start(fds[0]);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  std::byte magic[8];
  ASSERT_TRUE((*spool)->read(magic, sizeof(magic)).ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    first_read_done = true;
    EXPECT_FALSE(trailer_sent)
        << "first read did not complete until the trailer was on the wire";
  }
  cv.notify_all();
  EXPECT_EQ(0, std::memcmp(magic, "CRACIMG2", 8));

  ASSERT_TRUE((*spool)->wait_complete().ok());
  feeder.join();
  ::close(fds[0]);
  EXPECT_FALSE(feeder_timed_out);
  EXPECT_TRUE((*spool)->end_known());

  // The finished spool serves the ordinary reader path, content intact
  // (rewind first: the probe read above moved the cursor).
  ASSERT_TRUE((*spool)->seek(0).ok());
  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto payload = reader->read_section(*reader->find(SectionType::kDeviceBuffers,
                                                    "big"));
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, secs[0].second);
}

TEST(StreamingSpoolTest, TrailerCrcFlipWithholdsFinalBytes) {
  // The last payload frame is released only by trailer verification: with a
  // flipped stream CRC, a read of the image's final byte must report the
  // trailer error, never serve the byte.
  const NamedSections secs = {{"big", testlib::random_bytes(600 * 1024, 17)}};
  const std::uint64_t logical =
      logical_image(secs, Codec::kStore, 64 * 1024).size();
  std::vector<std::byte> bad = healthy_stream(secs, Codec::kStore, 64 * 1024);
  bad[bad.size() - 1] ^= std::byte{0x40};  // stream CRC

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread feeder([&] {
    (void)write_all_fd(fds[1], bad.data(), bad.size(), "corrupt feeder");
    ::close(fds[1]);
  });
  auto spool = StreamingSpoolSource::start(fds[0]);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  ASSERT_TRUE((*spool)->seek(logical - 1).ok());
  std::byte last;
  const Status read_status = (*spool)->read(&last, 1);
  EXPECT_EQ(read_status.code(), StatusCode::kCorrupt);
  EXPECT_NE(read_status.message().find("trailer"), std::string::npos)
      << read_status.to_string();
  feeder.join();
  ::close(fds[0]);
}

TEST(StreamingSpoolTest, MidTransferEofWakesBlockedReader) {
  // The satellite fault-injection case: EOF after the early sections are
  // readable but before a range a reader is blocked on. The blocked read
  // must wake with the stream's named error, not hang.
  const NamedSections secs = {{"big", testlib::random_bytes(900 * 1024, 53)}};
  const std::uint64_t logical =
      logical_image(secs, Codec::kStore, 64 * 1024).size();
  std::vector<std::byte> wire = healthy_stream(secs, Codec::kStore, 64 * 1024);
  wire.resize(wire.size() / 2);  // the sender dies mid-shipment

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread feeder([&] {
    (void)write_all_fd(fds[1], wire.data(), wire.size(), "eof feeder");
    ::close(fds[1]);
  });
  StreamingSpoolSource::Options opts;
  opts.origin = "dying stream";
  auto spool = StreamingSpoolSource::start(fds[0], opts);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  // Early bytes are served fine before the wreck...
  std::byte magic[8];
  ASSERT_TRUE((*spool)->read(magic, sizeof(magic)).ok());
  // ...but a reader parked past the cut must be woken with the named error.
  ASSERT_TRUE((*spool)->seek(logical - 1).ok());
  std::byte last;
  const Status read_status = (*spool)->read(&last, 1);
  EXPECT_EQ(read_status.code(), StatusCode::kIoError);
  EXPECT_NE(read_status.message().find("dying stream"), std::string::npos)
      << read_status.to_string();
  feeder.join();
  ::close(fds[0]);
}

TEST(StreamingSpoolTest, AbortMarkerWakesReaderWithSyncedStream) {
  const NamedSections secs = {{"big", testlib::random_bytes(600 * 1024, 71)}};
  const std::uint64_t logical =
      logical_image(secs, Codec::kStore, 64 * 1024).size();
  std::vector<std::byte> wire = healthy_stream(secs, Codec::kStore, 64 * 1024);
  // Keep the header plus the first whole frame, then abort in-band. The
  // first frame of this stream is a full kShipFrameBytes payload frame.
  wire.resize(kShipHeaderBytes + 4 + kShipFrameBytes);
  const std::uint32_t marker = kShipAbortMarker;
  const auto* mp = reinterpret_cast<const std::byte*>(&marker);
  wire.insert(wire.end(), mp, mp + sizeof(marker));

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread feeder([&] {
    (void)write_all_fd(fds[1], wire.data(), wire.size(), "abort feeder");
    ::close(fds[1]);
  });
  auto spool = StreamingSpoolSource::start(fds[0]);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  ASSERT_TRUE((*spool)->seek(logical - 1).ok());
  std::byte last;
  const Status read_status = (*spool)->read(&last, 1);
  EXPECT_EQ(read_status.code(), StatusCode::kIoError);
  EXPECT_NE(read_status.message().find("aborted by sender"),
            std::string::npos)
      << read_status.to_string();
  feeder.join();
  ::close(fds[0]);
}

TEST(StreamingSpoolTest, SerializedSpoolAlsoRecognizesAbortMarker) {
  std::vector<std::byte> wire;
  {
    // Header + immediate abort: a sender that gave up before frame one.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::thread drainer([&] {
      std::byte buf[4096];
      for (;;) {
        const ::ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n <= 0) break;
        wire.insert(wire.end(), buf, buf + n);
      }
    });
    SocketSink sink(fds[1], "abort capture");
    ASSERT_TRUE(sink.write("x", 1).ok());  // forces the header out
    ASSERT_TRUE(sink.abort().ok());
    ::close(fds[1]);
    drainer.join();
    ::close(fds[0]);
  }
  auto spool = replay_stream(wire);
  ASSERT_FALSE(spool.ok());
  EXPECT_EQ(spool.status().code(), StatusCode::kIoError);
  EXPECT_NE(spool.status().message().find("aborted by sender"),
            std::string::npos);
}

TEST(StreamingSpoolTest, LazyReaderRestoresWhileReceivingUnderSpoolCap) {
  // Full lazy pipeline over a live stream several times the spool cap: the
  // incremental scan and the section reads chase the frontier, overflow
  // goes to the unlinked temp file, and the resident bound still holds.
  const NamedSections secs = {
      {"first", testlib::random_bytes(512 * 1024, 5)},
      {"second", testlib::compressible_bytes(1 << 20, 6)},
      {"third", testlib::random_bytes(768 * 1024, 7)},
  };
  const std::size_t cap = 256 << 10;

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Status ship_status = OkStatus();
  std::thread shipper([&] {
    SocketSink sink(fds[1], "lazy ship");
    ship_status = testlib::write_image(sink, secs, Codec::kLz, 64 * 1024);
    ::close(fds[1]);
  });

  StreamingSpoolSource::Options opts;
  opts.spool_cap_bytes = cap;
  auto spool = StreamingSpoolSource::start(fds[0], opts);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  auto outcome = (*spool)->outcome();

  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  // The scan is incremental: sections stream in write order, each readable
  // as soon as it lands.
  for (std::size_t i = 0; i < secs.size(); ++i) {
    auto sec = reader->section_at(i);
    ASSERT_TRUE(sec.ok()) << sec.status().to_string();
    ASSERT_NE(*sec, nullptr);
    EXPECT_EQ((*sec)->name, secs[i].first);
    auto payload = reader->read_section(**sec);
    ASSERT_TRUE(payload.ok()) << payload.status().to_string();
    EXPECT_EQ(*payload, secs[i].second);
  }
  auto past_end = reader->section_at(secs.size());
  ASSERT_TRUE(past_end.ok());
  EXPECT_EQ(*past_end, nullptr);
  ASSERT_TRUE(reader->verify_unread_sections().ok());

  shipper.join();
  ::close(fds[0]);
  ASSERT_TRUE(ship_status.ok()) << ship_status.to_string();
  EXPECT_TRUE(outcome->complete);
  EXPECT_TRUE(outcome->status.ok());
  EXPECT_LE(outcome->peak_resident_bytes, cap);
  EXPECT_GT(outcome->spooled_to_disk_bytes, 0u);
}

TEST(StreamingSpoolTest, FirstChunkDecodesBeforeSectionEndIsKnown) {
  // Chunk-granular overlap, pinned at byte granularity: the sender releases
  // only the image header, the section header, and the first two chunk
  // frames, then blocks. The receiver must hand the first chunk's payload
  // to the consumer while the section's remaining chunks — and its
  // terminator — have not even been written yet. (Two frames, not one: the
  // poolless decode window is 1 frame, and the unpipeline tops the window
  // back up after retiring a frame, so delivering chunk N touches frame
  // N+1.) A section-at-a-time implementation would deadlock here; the
  // gated sender turns that into a hang the harness flags instead of a
  // silently serialized pass.
  const std::size_t chunk = 4096;
  const auto payload = testlib::random_bytes(3 * chunk + 123, 91);
  const std::vector<std::byte> image =
      logical_image({{"payload", payload}}, Codec::kStore, chunk);
  // Image header (8 magic + 4 version + 4 codec + 8 chunk size), section
  // header (4 type + 4 name length + 7 name), two kStore frames (20-byte
  // v2 frame header + chunk bytes each).
  const std::size_t cut = 24 + 15 + 2 * (20 + chunk);
  ASSERT_LT(cut, image.size());

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::promise<void> first_chunk_delivered;
  std::future<void> gate = first_chunk_delivered.get_future();
  Status ship_status = OkStatus();
  std::thread shipper([&] {
    SocketSink sink(fds[1], "overlap ship");
    Status s = sink.write(image.data(), cut);
    if (s.ok()) s = sink.flush();
    // The spool publishes a wire frame only once the next frame's header
    // lands (the trailer gate), so nudge with a one-byte frame: it releases
    // everything up to `cut` while itself staying behind the frontier.
    if (s.ok()) s = sink.write(image.data() + cut, 1);
    if (s.ok()) s = sink.flush();
    gate.wait();
    if (s.ok()) s = sink.write(image.data() + cut + 1, image.size() - cut - 1);
    if (s.ok()) s = sink.close();
    ship_status = s;
    ::close(fds[1]);
  });

  auto spool = StreamingSpoolSource::start(fds[0]);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();
  auto reader = ImageReader::open(std::move(*spool));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto sec = reader->section_at(0);
  ASSERT_TRUE(sec.ok()) << sec.status().to_string();
  ASSERT_NE(*sec, nullptr);
  EXPECT_EQ((*sec)->name, "payload");
  // Published on its header alone — the chunk walk is still in flight.
  EXPECT_FALSE((*sec)->size_known);

  auto stream = reader->open_section(**sec);
  ASSERT_TRUE(stream.ok()) << stream.status().to_string();
  std::vector<std::byte> first(chunk);
  ASSERT_TRUE(stream->read(first.data(), first.size()).ok());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), payload.begin()));
  // The proof of overlap: a chunk is in the consumer's hands while the
  // sender still holds the section tail and the terminator back.
  EXPECT_FALSE(stream->size_known());
  first_chunk_delivered.set_value();

  std::vector<std::byte> rest(payload.size() - chunk);
  ASSERT_TRUE(stream->read(rest.data(), rest.size()).ok());
  EXPECT_TRUE(
      std::equal(rest.begin(), rest.end(), payload.begin() + chunk));
  std::byte sentinel;
  auto past = stream->read_some(&sentinel, 1);
  ASSERT_TRUE(past.ok()) << past.status().to_string();
  EXPECT_EQ(*past, 0u);
  // Draining to the terminator resolved the deferred directory entry.
  EXPECT_TRUE(stream->size_known());
  EXPECT_EQ(stream->raw_size(), payload.size());
  EXPECT_TRUE((*sec)->size_known);
  EXPECT_EQ((*sec)->raw_size, payload.size());
  ASSERT_TRUE(reader->verify_unread_sections().ok());

  shipper.join();
  ::close(fds[0]);
  ASSERT_TRUE(ship_status.ok()) << ship_status.to_string();
}

// ---- full-context live ship ----------------------------------------------

TEST(RemoteShipTest, CracContextShipsAndRestartsOverSocketpair) {
  // The spot-instance migration flow inside one test: checkpoint_to_sink
  // streams a live context into a socketpair while a receiver thread spools
  // it; the context dies; restart_from_source rebuilds it and the device
  // contents come back bit for bit. (Sequential contexts: only one CRAC
  // context may be alive per process.)
  CracOptions opts;
  opts.split.device.device_capacity = 64 << 20;
  opts.split.device.pinned_capacity = 16 << 20;
  opts.split.device.managed_capacity = 64 << 20;
  opts.split.upper_heap_capacity = 64 << 20;

  const std::size_t n = 512 << 10;
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 31);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Result<std::unique_ptr<StreamingSpoolSource>> spool =
      Status(StatusCode::kInternal, "receiver never ran");
  std::thread receiver([&] { spool = testlib::receive_whole(fds[0]); });

  void* dev = nullptr;
  {
    CracContext ctx(opts);
    ASSERT_EQ(ctx.api().cudaMalloc(&dev, n), cuda::cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemcpy(dev, pattern.data(), n,
                                   cuda::cudaMemcpyHostToDevice),
              cuda::cudaSuccess);
    ctx.set_root(dev);
    SocketSink sink(fds[1], "test migration socket");
    auto report = ctx.checkpoint_to_sink(sink);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_GT(report->image_bytes, n);  // carried at least the payload
  }
  receiver.join();
  ::close(fds[0]);
  ::close(fds[1]);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();

  auto restored = CracContext::restart_from_source(std::move(*spool), opts);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_EQ((*restored)->root(), dev);
  std::vector<char> back(n);
  ASSERT_EQ((*restored)->api().cudaMemcpy(back.data(), dev, n,
                                          cuda::cudaMemcpyDeviceToHost),
            cuda::cudaSuccess);
  EXPECT_EQ(back, pattern);
}

TEST(RemoteShipTest, CracContextRestartOverlapsLiveCheckpoint) {
  // Restore-while-receiving end to end: the sender is a forked child (its
  // own process — only one CRAC context can live per address space), the
  // parent restarts from a StreamingSpoolSource *while the child is still
  // checkpointing*. The restart must report overlapped mode and bring the
  // device contents back bit for bit.
  CracOptions opts;
  opts.split.device.device_capacity = 64 << 20;
  opts.split.device.pinned_capacity = 16 << 20;
  opts.split.device.managed_capacity = 64 << 20;
  opts.split.upper_heap_capacity = 64 << 20;

  const std::size_t n = 1 << 20;
  std::vector<char> pattern(n);
  for (std::size_t i = 0; i < n; ++i) pattern[i] = static_cast<char>(i * 13);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    CracContext ctx(opts);
    void* dev = nullptr;
    if (ctx.api().cudaMalloc(&dev, n) != cuda::cudaSuccess) ::_exit(2);
    if (ctx.api().cudaMemcpy(dev, pattern.data(), n,
                             cuda::cudaMemcpyHostToDevice) !=
        cuda::cudaSuccess) {
      ::_exit(2);
    }
    ctx.set_root(dev);
    SocketSink sink(fds[1], "overlap migration socket");
    ::_exit(ctx.checkpoint_to_sink(sink).ok() ? 0 : 1);
  }
  ::close(fds[1]);

  StreamingSpoolSource::Options sopts;
  sopts.origin = "overlap migration socket";
  auto spool = StreamingSpoolSource::start(fds[0], sopts);
  ASSERT_TRUE(spool.ok()) << spool.status().to_string();

  RestartReport report;
  auto restored =
      CracContext::restart_from_source(std::move(*spool), opts, &report);
  ::close(fds[0]);
  int child_status = -1;
  ASSERT_EQ(::waitpid(pid, &child_status, 0), pid);
  ASSERT_TRUE(WIFEXITED(child_status));
  ASSERT_EQ(WEXITSTATUS(child_status), 0);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  EXPECT_TRUE(report.overlapped_receive);

  void* dev = (*restored)->root();
  ASSERT_NE(dev, nullptr);
  std::vector<char> back(n);
  ASSERT_EQ((*restored)->api().cudaMemcpy(back.data(), dev, n,
                                          cuda::cudaMemcpyDeviceToHost),
            cuda::cudaSuccess);
  EXPECT_EQ(back, pattern);
}

}  // namespace
}  // namespace crac::ckpt
