// Tests for the streaming restore pipeline (ckpt::Source + ChunkUnpipeline
// + the pull-mode ImageReader): round trips through FileSource across
// sizes/codecs/pools, truncated-file and mid-chunk-EOF handling, corrupt
// chunks that name their section, read-side fault injection through the
// shared FaultySource double, random-access slices, and the bounded decode-ahead window — the
// restore-side guarantee that peak resident bytes never track image size.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/chunk.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::ckpt {
namespace {

constexpr std::size_t kTestChunk = 4096;

using testlib::compressible_bytes;
using testlib::find_byte_run;
using testlib::random_bytes;
using testlib::read_file;
using testlib::write_file_raw;
using testlib::write_image_file;
using testlib::FaultySource;

std::string temp_path(const std::string& tag) {
  return testlib::temp_path("restore_" + tag);
}

// ---- round-trip property through FileSource: sizes × codecs × pools ----

struct RoundTripCase {
  std::size_t payload_size;
  Codec codec;
  bool compressible;
  bool use_pool;
};

class RestoreRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RestoreRoundTrip, FileSourceStreamsSectionBack) {
  const RoundTripCase& c = GetParam();
  const auto payload = c.compressible
                           ? compressible_bytes(c.payload_size, 21)
                           : random_bytes(c.payload_size, c.payload_size + 9);
  const std::string path = temp_path("roundtrip");
  ThreadPool pool(3);
  ASSERT_TRUE(write_image_file(path, {{"payload", payload}}, c.codec,
                               kTestChunk)
                  .ok());

  ImageReader::Options ropts;
  ropts.pool = c.use_pool ? &pool : nullptr;
  auto reader = ImageReader::from_file(path, ropts);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader->version(), 2u);
  const SectionInfo* sec = reader->find(SectionType::kDeviceBuffers);
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->raw_size, payload.size());

  // Pull the section in awkward slices so chunk boundaries never line up
  // with reads, and re-materialize in one shot; both must match.
  {
    auto stream = reader->open_section(*sec);
    ASSERT_TRUE(stream.ok()) << stream.status().to_string();
    std::vector<std::byte> got;
    std::vector<std::byte> buf(1);
    std::size_t piece = 1;
    for (;;) {
      buf.resize(piece);
      auto n = stream->read_some(buf.data(), buf.size());
      ASSERT_TRUE(n.ok()) << n.status().to_string();
      if (*n == 0) break;
      got.insert(got.end(), buf.begin(), buf.begin() + *n);
      piece = piece * 3 + 1;
    }
    EXPECT_EQ(got, payload);
    EXPECT_EQ(stream->remaining(), 0u);
  }
  auto again = reader->read_section(*sec);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(*again, payload);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCodecs, RestoreRoundTrip,
    ::testing::ValuesIn([] {
      std::vector<RoundTripCase> cases;
      const std::size_t sizes[] = {0,
                                   1,
                                   kTestChunk - 1,
                                   kTestChunk,
                                   kTestChunk + 1,
                                   6 * kTestChunk + 123};
      for (std::size_t size : sizes) {
        for (Codec codec : {Codec::kStore, Codec::kLz}) {
          for (bool compressible : {false, true}) {
            for (bool use_pool : {false, true}) {
              cases.push_back({size, codec, compressible, use_pool});
            }
          }
        }
      }
      return cases;
    }()));

// ---- truncation: every cut point fails loudly, never crashes ----

class RestoreTruncation : public ::testing::TestWithParam<int> {};

TEST_P(RestoreTruncation, TruncatedFileFailsLoudly) {
  const std::string path = temp_path("truncation");
  ASSERT_TRUE(write_image_file(path,
                               {{"a", compressible_bytes(3 * kTestChunk, 1)},
                                {"b", random_bytes(kTestChunk + 77, 2)}},
                               Codec::kLz, kTestChunk)
                  .ok());
  const auto full = read_file(path);
  ASSERT_GT(full.size(), 32u);

  // Cut at an interior fraction (1/12 .. 11/12); the parameter sweep lands
  // cuts inside the header, section names, chunk frames, stored payloads,
  // and the terminator.
  const int twelfth = GetParam();
  const std::size_t cut = full.size() * static_cast<std::size_t>(twelfth) / 12;
  auto truncated = full;
  truncated.resize(cut);
  write_file_raw(path, truncated);

  auto reader = ImageReader::from_file(path);
  if (!reader.ok()) {
    // Directory scan hit the cut: the error must name the file.
    EXPECT_NE(reader.status().message().find(path), std::string::npos)
        << reader.status().to_string();
  } else {
    // Scan survived (cut landed inside payload bytes the scan skips over —
    // possible only when the cut coincides with a frame boundary region);
    // reading the sections must then hit it.
    bool failed = false;
    for (const auto& sec : reader->sections()) {
      if (!reader->read_section(sec).ok()) failed = true;
    }
    EXPECT_TRUE(failed) << "cut at " << cut << " of " << full.size()
                        << " restored silently";
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, RestoreTruncation,
                         ::testing::Range(1, 12));

TEST(RestoreTruncationTest, MidChunkEofNamesFile) {
  // Cut inside the final chunk's stored bytes (just before the terminator):
  // the scan walks frames and falls off the end mid-chunk.
  const std::string path = temp_path("midchunk");
  ASSERT_TRUE(write_image_file(path, {{"only", random_bytes(kTestChunk, 5)}},
                               Codec::kStore, kTestChunk)
                  .ok());
  auto full = read_file(path);
  full.resize(full.size() - kChunkFrameHeaderBytes - 100);
  write_file_raw(path, full);
  auto reader = ImageReader::from_file(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find(path), std::string::npos)
      << reader.status().to_string();
  std::remove(path.c_str());
}

TEST(RestoreTruncationTest, MissingTerminatorRejected) {
  const std::string path = temp_path("noterm");
  ASSERT_TRUE(write_image_file(path, {{"only", random_bytes(100, 6)}},
                               Codec::kStore, kTestChunk)
                  .ok());
  auto full = read_file(path);
  full.resize(full.size() - kChunkFrameHeaderBytes);  // drop the terminator
  write_file_raw(path, full);
  EXPECT_FALSE(ImageReader::from_file(path).ok());
  std::remove(path.c_str());
}

// ---- corruption: errors name the section and chunk, good sections read ----

TEST(RestoreCorruptionTest, CorruptChunkNamesSectionThroughFileSource) {
  const std::string path = temp_path("corrupt");
  const std::vector<std::byte> alpha(3000, std::byte{0xAA});
  const std::vector<std::byte> beta(3000, std::byte{0xBB});
  ASSERT_TRUE(write_image_file(path, {{"alpha", alpha}, {"beta", beta}},
                               Codec::kStore, 1024)
                  .ok());
  auto bytes = read_file(path);
  // Flip a byte inside beta's SECOND chunk (the second 0xBB run).
  const std::size_t hit = find_byte_run(bytes, std::byte{0xBB}, 2, 1024);
  ASSERT_NE(hit, 0u);
  bytes[hit] ^= std::byte{0x01};
  write_file_raw(path, bytes);

  auto reader = ImageReader::from_file(path);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  // The undamaged section still restores.
  EXPECT_EQ(*reader->read_section(
                *reader->find(SectionType::kDeviceBuffers, "alpha")),
            alpha);
  auto bad = reader->read_section(
      *reader->find(SectionType::kDeviceBuffers, "beta"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(bad.status().message().find("beta"), std::string::npos)
      << bad.status().to_string();
  EXPECT_NE(bad.status().message().find("chunk #1"), std::string::npos)
      << bad.status().to_string();
  std::remove(path.c_str());
}

TEST(RestoreCorruptionTest, HostileDeclaredSizesRejectedWithoutAllocation) {
  // A tiny file declaring the maximum chunk size and a gigabyte chunk frame
  // must be rejected by the scan (the stored bytes are not there), not
  // trusted into a gigabyte allocation.
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(2);
  w.put_u32(static_cast<std::uint32_t>(Codec::kStore));
  w.put_u64(kMaxChunkSize);  // declared chunk size: the cap itself
  w.put_u32(static_cast<std::uint32_t>(SectionType::kDeviceBuffers));
  w.put_string("huge");
  w.put_u64(kMaxChunkSize);  // raw_size: 1 GiB
  w.put_u64(kMaxChunkSize);  // stored_size: 1 GiB... of which 10 bytes exist
  w.put_u32(0);
  for (int i = 0; i < 10; ++i) w.put_u8(0);
  const std::string path = temp_path("hostile");
  write_file_raw(path, std::move(w).take());
  auto reader = ImageReader::from_file(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

// ---- read-side fault injection (shared FaultySource double) ----

TEST(FaultInjectionTest, InjectedReadFailureIsIoErrorNamingSource) {
  // A device-level read failure mid-payload must surface as IoError (not
  // Corrupt — the image may be fine, the path to it is not) and name the
  // failing origin.
  const auto payload = random_bytes(3 * kTestChunk, 83);
  MemorySink sink;
  ASSERT_TRUE(testlib::write_image(sink, {{"payload", payload}}, Codec::kStore,
                                   1024)
                  .ok());
  const auto image = sink.bytes();
  FaultySource::Faults faults;
  faults.fail_at = image.size() / 2;
  auto reader = ImageReader::open(std::make_unique<FaultySource>(
      std::make_unique<MemorySource>(image), faults));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto got = reader->read_section(reader->sections()[0]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError);
  EXPECT_NE(got.status().message().find("injected read failure"),
            std::string::npos)
      << got.status().to_string();
}

TEST(FaultInjectionTest, ShortReadDeliversNothingUsable) {
  // The nastier mode: the source fills part of the caller's buffer before
  // failing. The stream must report the error, not hand out the partial
  // chunk as data.
  const auto payload = random_bytes(2 * kTestChunk, 89);
  MemorySink sink;
  ASSERT_TRUE(testlib::write_image(sink, {{"short", payload}}, Codec::kStore,
                                   kTestChunk)
                  .ok());
  const auto image = sink.bytes();
  FaultySource::Faults faults;
  faults.fail_at = image.size() - kTestChunk / 2;  // inside the last chunk
  faults.short_read = true;
  auto reader = ImageReader::open(std::make_unique<FaultySource>(
      std::make_unique<MemorySource>(image), faults));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto stream = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(stream.ok());
  std::vector<std::byte> out(payload.size());
  auto s = stream->read(out.data(), out.size());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // And the error is sticky on the stream.
  EXPECT_FALSE(stream->read(out.data(), 1).ok());
}

TEST(FaultInjectionTest, InFlightBitFlipIsCorruptNamingSectionAndChunk) {
  // A bit flipped between the platter and the buffer (FaultySource flip) is
  // indistinguishable from at-rest damage: the chunk CRC must catch it and
  // the error must name section and chunk index.
  const auto payload = random_bytes(4 * kTestChunk, 97);
  MemorySink sink;
  ASSERT_TRUE(testlib::write_image(sink, {{"flaky-bus", payload}},
                                   Codec::kStore, kTestChunk)
                  .ok());
  const auto image = sink.bytes();
  FaultySource::Faults faults;
  // Mid-image: lands in some chunk's stored payload (kStore keeps payload
  // bytes verbatim, so any mid-payload offset is inside a chunk).
  faults.flip_at = image.size() / 2;
  auto reader = ImageReader::open(std::make_unique<FaultySource>(
      std::make_unique<MemorySource>(image), faults));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto got = reader->read_section(reader->sections()[0]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(got.status().message().find("flaky-bus"), std::string::npos)
      << got.status().to_string();
  EXPECT_NE(got.status().message().find("chunk #"), std::string::npos)
      << got.status().to_string();
}

// ---- bounded decode-ahead window ----

TEST(RestoreWindowTest, PeakResidentBoundedByWindowNotImageSize) {
  // A 4 MiB section in 16 KiB chunks through a 2-worker pool: the window is
  // 2*2+1 = 5 chunks, so no more than window × 2 × chunk_size bytes
  // (stored + raw per in-flight chunk) may ever be buffered — the image is
  // 256 chunks, so anything tracking image size trips the bound.
  const std::size_t chunk = 16 << 10;
  const std::size_t total = 4 << 20;
  const std::string path = temp_path("window");
  ASSERT_TRUE(write_image_file(path, {{"big", compressible_bytes(total, 17)}},
                               Codec::kLz, chunk)
                  .ok());

  ThreadPool pool(2);
  ImageReader::Options ropts;
  ropts.pool = &pool;
  auto reader = ImageReader::from_file(path, ropts);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto stream = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(stream.ok());
  const std::size_t window = 2 * 2 + 1;
  std::vector<std::byte> slice(7000);
  std::uint64_t consumed = 0;
  for (;;) {
    auto n = stream->read_some(slice.data(), slice.size());
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    if (*n == 0) break;
    consumed += *n;
    ASSERT_LE(stream->buffered_peak_bytes(), window * 2 * chunk);
  }
  EXPECT_EQ(consumed, total);
  EXPECT_GT(reader->buffered_peak_bytes(), 0u);
  EXPECT_LE(reader->buffered_peak_bytes(), window * 2 * chunk);
  // The headline: peak resident restore memory is a small fraction of the
  // section ("never materializes the whole file").
  EXPECT_LT(reader->buffered_peak_bytes(), total / 8);
  std::remove(path.c_str());
}

TEST(RestoreWindowTest, InlineModeBuffersOneChunkAtATime) {
  const std::size_t chunk = 8 << 10;
  const std::string path = temp_path("window1");
  ASSERT_TRUE(write_image_file(path,
                               {{"big", compressible_bytes(64 * chunk, 19)}},
                               Codec::kStore, chunk)
                  .ok());
  auto reader = ImageReader::from_file(path);  // no pool: window = 1
  ASSERT_TRUE(reader.ok());
  auto payload = reader->read_section(reader->sections()[0]);
  ASSERT_TRUE(payload.ok());
  EXPECT_LE(reader->buffered_peak_bytes(), 2 * chunk);  // stored + raw
  std::remove(path.c_str());
}

TEST(RestoreWindowTest, HugeDeclaredChunkSizeDoesNotInflateResidency) {
  // An image may legally declare the 1 GiB maximum chunk size while its
  // actual chunks are small (the writer chunks at its own granularity).
  // Buffering is charged by actual frame sizes, so restoring such a
  // "multi-GiB-declared" image must hold only the real chunks resident,
  // never anything sized by the declaration.
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(2);
  w.put_u32(static_cast<std::uint32_t>(Codec::kStore));
  w.put_u64(kMaxChunkSize);  // declared: 1 GiB
  w.put_u32(static_cast<std::uint32_t>(SectionType::kDeviceBuffers));
  w.put_string("declared-huge");
  std::vector<std::byte> reference;
  for (int i = 0; i < 32; ++i) {
    const auto chunk = random_bytes(4096, 100 + static_cast<std::uint64_t>(i));
    w.put_u64(chunk.size());
    w.put_u64(chunk.size());
    w.put_u32(crc32(chunk.data(), chunk.size()));
    w.put_bytes(chunk.data(), chunk.size());
    reference.insert(reference.end(), chunk.begin(), chunk.end());
  }
  w.put_u64(0);
  w.put_u64(0);
  w.put_u32(0);

  const std::string path = temp_path("declhuge");
  write_file_raw(path, std::move(w).take());
  ThreadPool pool(2);
  ImageReader::Options ropts;
  ropts.pool = &pool;
  auto reader = ImageReader::from_file(path, ropts);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto payload = reader->read_section(reader->sections()[0]);
  ASSERT_TRUE(payload.ok()) << payload.status().to_string();
  EXPECT_EQ(*payload, reference);
  // Window is 5 chunks of ≤ 4096 stored + 4096 raw — nowhere near the
  // declared gigabyte.
  EXPECT_LE(reader->buffered_peak_bytes(), 5u * 2 * 4096);
  std::remove(path.c_str());
}

TEST(RestoreWindowTest, SteadyStateDecodePerformsNoPerChunkAllocation) {
  // The buffer-pool property behind the window bound: a 256-chunk section
  // decoded through a warm pool performs no per-chunk allocation. Fresh
  // buffer allocations (pool misses) are bounded by the in-flight window —
  // two buffers per in-flight chunk plus the consumer's round-tripping one
  // — never by the chunk count.
  const std::size_t chunk = 16 << 10;
  const std::size_t total = 4 << 20;  // 256 chunks
  const std::string path = temp_path("allocs");
  ASSERT_TRUE(write_image_file(path,
                               {{"big", compressible_bytes(total, 23)}},
                               Codec::kLz, chunk)
                  .ok());
  ThreadPool pool(2);
  ImageReader::Options ropts;
  ropts.pool = &pool;
  auto reader = ImageReader::from_file(path, ropts);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto stream = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(stream.ok());
  std::vector<std::byte> slice(7000);
  std::uint64_t consumed = 0;
  for (;;) {
    auto n = stream->read_some(slice.data(), slice.size());
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    if (*n == 0) break;
    consumed += *n;
  }
  EXPECT_EQ(consumed, total);
  const std::uint64_t window = 2 * 2 + 1;  // pool threads × 2 + 1
  EXPECT_GT(stream->buffer_allocs(), 0u);
  EXPECT_LE(stream->buffer_allocs(), 2 * window + 2)
      << "decode allocated per chunk instead of recycling";
  std::remove(path.c_str());
}

// ---- concurrency: pool sizes must not change bytes, only speed ----

TEST(RestoreConcurrencyTest, OneVsManyThreadsByteIdentical) {
  // Multi-section image (mixed entropy, odd sizes) restored with an inline
  // reader, a 1-thread pool, and an N-thread pool: byte-identical output
  // and a bounded window in every mode, across repeated passes (the second
  // pass re-seeks every section, exercising cursor reuse).
  const std::size_t chunk = 8 << 10;
  const std::vector<std::pair<std::string, std::vector<std::byte>>> secs = {
      {"zeros", std::vector<std::byte>(5 * chunk + 31, std::byte{0})},
      {"noise", random_bytes(3 * chunk + 7, 23)},
      {"runs", compressible_bytes(7 * chunk + 1, 29)},
      {"tiny", random_bytes(5, 31)},
  };
  const std::string path = temp_path("concurrency");
  ASSERT_TRUE(write_image_file(path, secs, Codec::kLz, chunk).ok());

  auto restore_all = [&](ThreadPool* pool) {
    ImageReader::Options ropts;
    ropts.pool = pool;
    auto reader = ImageReader::from_file(path, ropts);
    EXPECT_TRUE(reader.ok()) << reader.status().to_string();
    std::vector<std::byte> all;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& sec : reader->sections()) {
        auto payload = reader->read_section(sec);
        EXPECT_TRUE(payload.ok()) << payload.status().to_string();
        all.insert(all.end(), payload->begin(), payload->end());
      }
    }
    const std::size_t window =
        pool != nullptr ? 2 * pool->size() + 1 : 1;
    EXPECT_LE(reader->buffered_peak_bytes(), window * 2 * chunk);
    return all;
  };

  std::vector<std::byte> reference;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [name, payload] : secs) {
      reference.insert(reference.end(), payload.begin(), payload.end());
    }
  }
  EXPECT_EQ(restore_all(nullptr), reference);
  ThreadPool one(1);
  EXPECT_EQ(restore_all(&one), reference);
  ThreadPool many(4);
  EXPECT_EQ(restore_all(&many), reference);
  std::remove(path.c_str());
}

// ---- random access ----

TEST(RestoreRandomAccessTest, SlicesMatchReference) {
  const std::size_t chunk = 1024;
  const auto payload = random_bytes(10 * chunk + 321, 37);
  const std::string path = temp_path("slices");
  ASSERT_TRUE(
      write_image_file(path, {{"payload", payload}}, Codec::kLz, chunk).ok());
  auto reader = ImageReader::from_file(path);
  ASSERT_TRUE(reader.ok());
  const SectionInfo& sec = reader->sections()[0];

  const std::pair<std::uint64_t, std::size_t> slices[] = {
      {0, 1},                      // first byte
      {chunk - 1, 2},              // straddles chunk 0/1
      {3 * chunk + 17, 4 * chunk}, // spans several chunks
      {payload.size() - 1, 1},     // last byte
      {payload.size(), 0},         // empty at the end
      {42, 0},                     // empty anywhere
  };
  for (const auto& [off, len] : slices) {
    std::vector<std::byte> got(len);
    ASSERT_TRUE(reader->read(sec, off, got.data(), len).ok())
        << "slice at " << off << " len " << len;
    EXPECT_TRUE(len == 0 ||
                std::memcmp(got.data(), payload.data() + off, len) == 0)
        << "slice at " << off << " len " << len;
  }

  std::vector<std::byte> out(2);
  auto oob = reader->read(sec, payload.size() - 1, out.data(), 2);
  EXPECT_FALSE(oob.ok());
  EXPECT_EQ(oob.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---- structured pull helpers & stream misuse ----

TEST(SectionStreamTest, StructuredGettersRoundTrip) {
  ByteWriter payload;
  payload.put_u64(0xDEADBEEFCAFEF00Dull);
  payload.put_u32(12345);
  payload.put_u8(7);
  payload.put_string("stream-me");
  MemorySink sink;
  ImageWriter w(&sink, {});
  ASSERT_TRUE(w.begin_section(SectionType::kMetadata, "structured").ok());
  ASSERT_TRUE(w.append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());

  auto reader = ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(reader.ok());
  auto stream = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(stream.ok());
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  std::uint8_t u8 = 0;
  std::string s;
  ASSERT_TRUE(stream->get_u64(u64).ok());
  ASSERT_TRUE(stream->get_u32(u32).ok());
  ASSERT_TRUE(stream->get_u8(u8).ok());
  ASSERT_TRUE(stream->get_string(s).ok());
  EXPECT_EQ(u64, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(u32, 12345u);
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(s, "stream-me");
  EXPECT_EQ(stream->remaining(), 0u);
  // Reading past the end is an error, and the error is sticky.
  EXPECT_FALSE(stream->get_u8(u8).ok());
  EXPECT_FALSE(stream->get_u8(u8).ok());
}

TEST(SectionStreamTest, LaterOpenInvalidatesEarlierStream) {
  // Streams share the image cursor; a stale stream must fail loudly, not
  // read frames from wherever the newer consumer left the cursor.
  MemorySink sink;
  ImageWriter::Options opts;
  opts.chunk_size = 1024;
  ImageWriter w(&sink, opts);
  const auto a = random_bytes(3000, 61);
  const auto b = random_bytes(3000, 67);
  w.add_section(SectionType::kMetadata, "a", a);
  w.add_section(SectionType::kMetadata, "b", b);
  ASSERT_TRUE(w.finish().ok());

  auto reader = ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(reader.ok());
  auto sa = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(sa.ok());
  std::byte buf[100];
  ASSERT_TRUE(sa->read(buf, sizeof(buf)).ok());
  auto sb = reader->open_section(reader->sections()[1]);
  ASSERT_TRUE(sb.ok());
  // The newer stream works; the stale one refuses further pulls once it
  // needs the cursor again.
  ASSERT_TRUE(sb->read(buf, sizeof(buf)).ok());
  std::vector<std::byte> rest(a.size() - 100);
  auto stale = sa->read(rest.data(), rest.size());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
}

TEST(SectionStreamTest, SkipIsCrcCheckedToo) {
  const auto payload = random_bytes(5000, 41);
  MemorySink sink;
  ImageWriter::Options opts;
  opts.chunk_size = 1024;
  ImageWriter w(&sink, opts);
  ASSERT_TRUE(w.begin_section(SectionType::kMetadata, "skippy").ok());
  ASSERT_TRUE(w.append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());

  auto bytes = sink.bytes();
  // Corrupt a byte deep in the payload area (final chunk's stored bytes).
  bytes[bytes.size() - kChunkFrameHeaderBytes - 50] ^= std::byte{0x10};
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  auto stream = reader->open_section(reader->sections()[0]);
  ASSERT_TRUE(stream.ok());
  // A skip across the damaged chunk must trip the CRC, not glide past it.
  auto skipped = stream->skip(payload.size());
  ASSERT_FALSE(skipped.ok());
  EXPECT_EQ(skipped.code(), StatusCode::kCorrupt);
}

// ---- error reporting through from_file ----

TEST(RestoreErrorTest, MissingFileNamesPath) {
  auto reader = ImageReader::from_file("/nonexistent/dir/crac.img");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
  EXPECT_NE(reader.status().message().find("/nonexistent/dir/crac.img"),
            std::string::npos);
}

TEST(RestoreErrorTest, ShortHeaderNamesPath) {
  const std::string path = temp_path("short");
  write_file_raw(path, random_bytes(6, 43));  // shorter than the magic
  auto reader = ImageReader::from_file(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find(path), std::string::npos)
      << reader.status().to_string();
  std::remove(path.c_str());
}

TEST(RestoreErrorTest, EmptyImageThroughFileSourceIsValid) {
  const std::string path = temp_path("empty");
  ASSERT_TRUE(write_image_file(path, {}, Codec::kStore, kTestChunk).ok());
  auto reader = ImageReader::from_file(path);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_TRUE(reader->sections().empty());
  std::remove(path.c_str());
}

TEST(RestoreErrorTest, EmptySectionStreamsZeroBytes) {
  const std::string path = temp_path("emptysec");
  ASSERT_TRUE(
      write_image_file(path, {{"void", {}}}, Codec::kLz, kTestChunk).ok());
  auto reader = ImageReader::from_file(path);
  ASSERT_TRUE(reader.ok());
  const SectionInfo* sec = reader->find(SectionType::kDeviceBuffers, "void");
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->raw_size, 0u);
  auto stream = reader->open_section(*sec);
  ASSERT_TRUE(stream.ok());
  std::byte b;
  auto n = stream->read_some(&b, 1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  std::remove(path.c_str());
}

TEST(RestoreErrorTest, VerifyUnreadSectionsCatchesUntouchedCorruption) {
  // Restore only pulls the sections it needs; verify_unread_sections() is
  // the backstop that still CRC-checks the ones nothing consumed.
  MemorySink sink;
  ImageWriter w(&sink, {});
  const std::vector<std::byte> used(512, std::byte{0x11});
  const std::vector<std::byte> untouched(512, std::byte{0x22});
  w.add_section(SectionType::kMetadata, "used", used);
  w.add_section(SectionType::kStreams, "untouched", untouched);
  ASSERT_TRUE(w.finish().ok());

  auto bytes = sink.bytes();
  // Flip a byte in the untouched section's payload (the only 0x22 run).
  for (std::size_t i = 0; i + 16 <= bytes.size(); ++i) {
    bool run = true;
    for (std::size_t k = 0; k < 16; ++k) {
      if (bytes[i + k] != std::byte{0x22}) { run = false; break; }
    }
    if (run) { bytes[i + 8] ^= std::byte{0x01}; break; }
  }
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(
      reader->read_section(*reader->find(SectionType::kMetadata, "used"))
          .ok());
  auto verdict = reader->verify_unread_sections();
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kCorrupt);
  EXPECT_NE(verdict.message().find("untouched"), std::string::npos)
      << verdict.to_string();
  // Once everything has been read, the verify pass is a no-op.
  auto clean = ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(clean.ok());
  for (const auto& sec : clean->sections()) {
    ASSERT_TRUE(clean->read_section(sec).ok());
  }
  EXPECT_TRUE(clean->verify_unread_sections().ok());
}

TEST(RestoreErrorTest, PartiallyReadSectionStillVerified) {
  // Reading only a prefix of a section must not count as consuming it: the
  // verify backstop still CRCs the tail a restore never pulled.
  const auto payload = random_bytes(4096, 59);
  MemorySink sink;
  ImageWriter::Options opts;
  opts.chunk_size = 1024;
  ImageWriter w(&sink, opts);
  ASSERT_TRUE(w.begin_section(SectionType::kMetadata, "prefix-read").ok());
  ASSERT_TRUE(w.append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());

  auto bytes = sink.bytes();
  // Corrupt the final chunk's stored bytes (just before the terminator).
  bytes[bytes.size() - kChunkFrameHeaderBytes - 50] ^= std::byte{0x04};
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  {
    auto stream = reader->open_section(reader->sections()[0]);
    ASSERT_TRUE(stream.ok());
    std::byte prefix[100];
    ASSERT_TRUE(stream->read(prefix, sizeof(prefix)).ok());  // chunk #0 only
  }
  auto verdict = reader->verify_unread_sections();
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.code(), StatusCode::kCorrupt);
  EXPECT_NE(verdict.message().find("prefix-read"), std::string::npos)
      << verdict.to_string();
}

TEST(RestoreCorruptionTest, ImplausibleCompressionRatioRejectedAtScan) {
  // A chunk claiming to decompress 1 stored byte into a gigabyte is beyond
  // any ckptz stream's maximum expansion; the scan must reject it before
  // anything sizes an allocation off the declared raw size.
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(2);
  w.put_u32(static_cast<std::uint32_t>(Codec::kLz));
  w.put_u64(kMaxChunkSize);
  w.put_u32(static_cast<std::uint32_t>(SectionType::kDeviceBuffers));
  w.put_string("bomb");
  w.put_u64(kMaxChunkSize);  // raw_size: 1 GiB...
  w.put_u64(1);              // ...from one stored byte
  w.put_u32(0);
  w.put_u8(0);
  w.put_u64(0);
  w.put_u64(0);
  w.put_u32(0);
  auto reader = ImageReader::from_bytes(std::move(w).take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find("implausible"), std::string::npos)
      << reader.status().to_string();
}

// ---- Source primitives ----

TEST(SourceTest, MemorySourceReadSeekSkip) {
  const auto bytes = random_bytes(100, 47);
  MemorySource src(bytes.data(), bytes.size());
  std::byte buf[10];
  ASSERT_TRUE(src.read(buf, 10).ok());
  EXPECT_TRUE(std::memcmp(buf, bytes.data(), 10) == 0);
  ASSERT_TRUE(src.skip(50).ok());
  EXPECT_EQ(src.position(), 60u);
  EXPECT_EQ(src.remaining(), 40u);
  ASSERT_TRUE(src.seek(5).ok());
  ASSERT_TRUE(src.read(buf, 10).ok());
  EXPECT_TRUE(std::memcmp(buf, bytes.data() + 5, 10) == 0);
  EXPECT_FALSE(src.read(buf, 100).ok());   // past end
  EXPECT_FALSE(src.seek(1000).ok());       // past end
}

TEST(SourceTest, FileSourceReportsPathOnShortRead) {
  const std::string path = temp_path("source");
  write_file_raw(path, random_bytes(32, 53));
  auto src = FileSource::open(path);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ((*src)->size(), 32u);
  std::byte buf[64];
  ASSERT_TRUE((*src)->read(buf, 32).ok());
  auto past = (*src)->read(buf, 1);
  ASSERT_FALSE(past.ok());
  EXPECT_NE(past.message().find(path), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crac::ckpt
