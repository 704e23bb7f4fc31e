// Tests for the CRACIMG2 streaming chunk pipeline: chunk round trips across
// sizes/codecs/pools, writer byte identity across append paths (the golden
// v2 fixture reproduced, copy-in vs fill-in-place), failing fills,
// per-chunk corruption detection (naming the failing section), write-side
// fault injection through the shared FaultySink double, decompressor
// bounds hardening, and the thread-pool future entry points the pipeline
// is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/chunk.hpp"
#include "ckpt/compressor.hpp"
#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"
#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::ckpt {
namespace {

using testlib::compressible_bytes;
using testlib::find_byte_run;
using testlib::random_bytes;
using testlib::FaultySink;

// ---- round-trip property: sizes × codecs × data shapes × pool modes ----

struct RoundTripCase {
  std::size_t payload_size;
  Codec codec;
  bool compressible;
  bool use_pool;
};

class ChunkRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

constexpr std::size_t kTestChunk = 4096;

TEST_P(ChunkRoundTrip, StreamedSectionRoundTrips) {
  const RoundTripCase& c = GetParam();
  const auto payload = c.compressible
                           ? compressible_bytes(c.payload_size, 7)
                           : random_bytes(c.payload_size, c.payload_size + 3);

  ThreadPool pool(3);
  MemorySink sink;
  ImageWriter::Options opts;
  opts.codec = c.codec;
  opts.chunk_size = kTestChunk;
  opts.pool = c.use_pool ? &pool : nullptr;
  ImageWriter w(&sink, opts);

  // Append in awkward pieces so chunk boundaries never line up with calls.
  ASSERT_TRUE(w.begin_section(SectionType::kDeviceBuffers, "payload").ok());
  std::size_t off = 0;
  std::size_t piece = 1;
  while (off < payload.size()) {
    const std::size_t n = std::min(piece, payload.size() - off);
    ASSERT_TRUE(w.append(payload.data() + off, n).ok());
    off += n;
    piece = piece * 3 + 1;
  }
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());
  EXPECT_EQ(w.raw_bytes(), payload.size());

  auto reader = ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  // Codecs beyond kLz need per-chunk codec ids, so the writer promotes the
  // image to version 3; the original codecs stay byte-identical v2.
  EXPECT_EQ(reader->version(), c.codec == Codec::kZeroRunLz ? 3u : 2u);
  const SectionInfo* sec = reader->find(SectionType::kDeviceBuffers, "payload");
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(sec->raw_size, payload.size());
  auto got = reader->read_section(*sec);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, payload);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCodecs, ChunkRoundTrip,
    ::testing::ValuesIn([] {
      std::vector<RoundTripCase> cases;
      const std::size_t sizes[] = {0,
                                   1,
                                   kTestChunk - 1,
                                   kTestChunk,
                                   kTestChunk + 1,
                                   6 * kTestChunk + 123};  // > 4 chunks
      for (std::size_t size : sizes) {
        for (Codec codec : {Codec::kStore, Codec::kLz, Codec::kZeroRunLz}) {
          for (bool compressible : {false, true}) {
            for (bool use_pool : {false, true}) {
              cases.push_back({size, codec, compressible, use_pool});
            }
          }
        }
      }
      return cases;
    }()));

TEST(ChunkPipelineTest, MultipleSectionsInterleaveCleanly) {
  ThreadPool pool(2);
  MemorySink sink;
  ImageWriter::Options opts;
  opts.codec = Codec::kLz;
  opts.chunk_size = 1024;
  opts.pool = &pool;
  ImageWriter w(&sink, opts);

  const auto a = compressible_bytes(10000, 1);
  const auto b = random_bytes(333, 2);
  w.add_section(SectionType::kMetadata, "a", a);
  ASSERT_TRUE(w.begin_section(SectionType::kStreams, "b").ok());
  ASSERT_TRUE(w.append(b.data(), b.size()).ok());
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());
  EXPECT_EQ(w.section_count(), 2u);

  auto reader = ImageReader::from_bytes(sink.bytes());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_section(*reader->find(SectionType::kMetadata, "a")),
            a);
  EXPECT_EQ(*reader->read_section(*reader->find(SectionType::kStreams, "b")),
            b);
}

TEST(ChunkPipelineTest, MisuseIsRejected) {
  {
    MemorySink sink;
    ImageWriter w(&sink, {});
    EXPECT_FALSE(w.append("x", 1).ok());  // no open section
    // Errors are sticky: a misused writer cannot produce a "valid" image.
    EXPECT_FALSE(w.begin_section(SectionType::kMetadata, "m").ok());
    EXPECT_FALSE(w.finish().ok());
  }
  {
    MemorySink sink;
    ImageWriter w(&sink, {});
    ASSERT_TRUE(w.begin_section(SectionType::kMetadata, "m").ok());
    EXPECT_FALSE(w.begin_section(SectionType::kMetadata, "n").ok());  // nested
  }
}

// ---- writer byte identity: every append path writes the same image ----

std::vector<std::byte> write_golden_v2(ThreadPool* pool) {
  MemorySink sink;
  ImageWriter::Options opts;
  opts.codec = Codec::kLz;
  opts.chunk_size = 1024;
  opts.pool = pool;
  ImageWriter w(&sink, opts);
  w.add_section(SectionType::kMetadata, "meta", testlib::golden_payload(100));
  w.add_section(SectionType::kDeviceBuffers, "payload",
                testlib::golden_payload(10000));
  EXPECT_TRUE(w.finish().ok()) << w.status().to_string();
  return std::move(sink).take();
}

TEST(WriterByteIdentityTest, ReproducesGoldenV2InlineAndOnAPool) {
  const auto golden = testlib::read_file(std::string(CRAC_TEST_DATA_DIR) +
                                         "/golden_v2.crac");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(write_golden_v2(nullptr), golden);
  ThreadPool pool(2);
  EXPECT_EQ(write_golden_v2(&pool), golden);
}

TEST(WriterByteIdentityTest, StoreImageIsTheSameThroughEveryAppendPath) {
  // Copied in by append() or filled in place by append_with() in uneven
  // pieces that straddle chunk boundaries, inline or with a pool: one
  // store-codec image. A header section first, so the writer's one chunk
  // buffer carries across a section boundary.
  constexpr std::size_t kChunkBytes = 1000;
  const auto head = random_bytes(13, 91);
  const auto body = random_bytes(7 * kChunkBytes + 321, 92);
  std::size_t fills = 0;
  std::size_t appends = 0;
  auto write = [&](bool fill, ThreadPool* pool) {
    MemorySink sink;
    ImageWriter::Options opts;  // kStore
    opts.chunk_size = kChunkBytes;
    opts.pool = pool;
    ImageWriter w(&sink, opts);
    w.add_section(SectionType::kMetadata, "head", head);
    EXPECT_TRUE(w.begin_section(SectionType::kDeviceBuffers, "body").ok());
    if (!fill) {
      EXPECT_TRUE(w.append(body.data(), body.size()).ok());
    } else {
      std::size_t off = 0;
      std::size_t piece = 1;
      while (off < body.size()) {
        const std::size_t n = std::min(piece, body.size() - off);
        const std::byte* src = body.data() + off;
        ++appends;
        EXPECT_TRUE(w.append_with(n, [&fills, src](std::byte* dst,
                                                   std::size_t len,
                                                   std::uint64_t at) {
                       ++fills;
                       std::memcpy(dst, src + at, len);
                       return OkStatus();
                     }).ok());
        off += n;
        piece = piece * 3 + 1;
      }
    }
    EXPECT_TRUE(w.end_section().ok());
    EXPECT_TRUE(w.finish().ok()) << w.status().to_string();
    EXPECT_EQ(w.raw_bytes(), head.size() + body.size());
    return std::move(sink).take();
  };

  ThreadPool pool(2);
  const auto reference = write(/*fill=*/false, nullptr);
  EXPECT_EQ(write(/*fill=*/true, nullptr), reference);
  EXPECT_EQ(write(/*fill=*/false, &pool), reference);
  EXPECT_EQ(write(/*fill=*/true, &pool), reference);
  // Some pieces really did straddle a chunk boundary (one fill per chunk
  // they touch).
  EXPECT_GT(fills, appends);

  auto reader = ImageReader::from_bytes(reference);
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(*reader->read_section(*reader->find(SectionType::kDeviceBuffers,
                                                "body")),
            body);
}

TEST(WriterFailingFillTest, ErrorIsStickyAndThePartialChunkIsNeverFramed) {
  MemorySink sink;
  ImageWriter::Options opts;  // kStore: v2 frames, 20-byte headers
  opts.chunk_size = 1024;
  ImageWriter w(&sink, opts);
  ASSERT_TRUE(w.begin_section(SectionType::kDeviceBuffers, "drain").ok());
  const auto head = random_bytes(100, 93);
  ASSERT_TRUE(w.append(head.data(), head.size()).ok());
  const std::size_t before = sink.bytes().size();

  // The fill serves the rest of chunk 0, then fails part way into chunk 1,
  // after writing some of it.
  const Status failed = w.append_with(
      3000, [](std::byte* dst, std::size_t len, std::uint64_t off) -> Status {
        if (off == 0) {
          std::memset(dst, 0x11, len);
          return OkStatus();
        }
        std::memset(dst, 0x22, len / 2);
        return IoError("device read failed");
      });
  ASSERT_EQ(failed.code(), StatusCode::kIoError);
  // Exactly one frame went out: chunk 0, full. Chunk 1 was never framed.
  EXPECT_EQ(sink.bytes().size(), before + kChunkFrameHeaderBytes + 1024);

  // Sticky: nothing more reaches the sink, not even a terminator.
  EXPECT_EQ(w.append(head.data(), head.size()).code(), StatusCode::kIoError);
  EXPECT_EQ(w.end_section().code(), StatusCode::kIoError);
  EXPECT_EQ(w.finish().code(), StatusCode::kIoError);
  EXPECT_EQ(w.status().code(), StatusCode::kIoError);
  EXPECT_EQ(sink.bytes().size(), before + kChunkFrameHeaderBytes + 1024);
}

// ---- corruption: per-chunk CRC failure names the failing section ----

TEST(ChunkCorruptionTest, CorruptedChunkNamesSection) {
  MemorySink sink;
  ImageWriter::Options opts;  // kStore: payload bytes land verbatim
  ImageWriter w(&sink, opts);
  const std::vector<std::byte> alpha(1000, std::byte{0xAA});
  const std::vector<std::byte> beta(1000, std::byte{0xBB});
  w.add_section(SectionType::kMetadata, "alpha", alpha);
  w.add_section(SectionType::kMetadata, "beta", beta);
  ASSERT_TRUE(w.finish().ok());

  // Flip a byte inside beta's stored payload (the only 0xBB run).
  auto bytes = sink.bytes();
  const std::size_t hit = find_byte_run(bytes, std::byte{0xBB});
  ASSERT_NE(hit, 0u);
  bytes[hit] ^= std::byte{0x01};

  // Damage inside a chunk payload is invisible to the directory scan (which
  // never reads payload bytes); it surfaces, naming section and chunk, the
  // moment that section's bytes are pulled — and must not block reading the
  // undamaged section.
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(*reader->read_section(*reader->find(SectionType::kMetadata,
                                                "alpha")),
            alpha);
  auto bad = reader->read_section(*reader->find(SectionType::kMetadata,
                                                "beta"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(bad.status().message().find("beta"), std::string::npos)
      << bad.status().to_string();
  EXPECT_NE(bad.status().message().find("chunk #0"), std::string::npos)
      << bad.status().to_string();
}

TEST(ChunkCorruptionTest, OversizedChunkHeaderRejected) {
  MemorySink sink;
  ImageWriter w(&sink, {});
  w.add_section(SectionType::kMetadata, "m", random_bytes(100, 4));
  ASSERT_TRUE(w.finish().ok());
  auto bytes = sink.bytes();
  // Section header: [u32 type][u32 name_len]["m"]; chunk raw_size follows.
  const std::size_t header = 8 + 4 + 4 + 8;  // magic+version+codec+chunk_size
  const std::size_t frame_at = header + 4 + 4 + 1;
  std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + frame_at, &huge, sizeof(huge));
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
}

TEST(ChunkCorruptionTest, HostileChunkSizeRejected) {
  // A tiny image declaring a colossal chunk size must be rejected up front
  // (it would otherwise license equally colossal per-chunk allocations).
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(2);
  w.put_u32(static_cast<std::uint32_t>(Codec::kLz));
  w.put_u64(std::uint64_t{1} << 40);  // chunk_size
  auto reader = ImageReader::from_bytes(std::move(w).take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
}

TEST(DecompressBoundsTest, ExpansionBombRejectedBeforeAllocation) {
  // Declared raw size beyond any stream's maximum expansion fails fast,
  // before the output buffer is reserved.
  const std::byte tiny[4] = {};
  auto out = decompress(tiny, sizeof(tiny), Codec::kLz,
                        std::size_t{1} << 40);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);
}

// ---- write-side fault injection (shared FaultySink double) ----

TEST(FaultInjectionTest, ShortWriteSurfacesAsIoErrorAndSticks) {
  // The disk fills mid-image: the sink short-writes and fails. The writer
  // must report IoError (not Corrupt, not success) and stay poisoned — a
  // half-written image can never report a clean finish().
  MemorySink inner;
  FaultySink::Faults faults;
  faults.fail_at = 500;
  FaultySink sink(&inner, faults);
  ImageWriter::Options opts;
  opts.chunk_size = 256;
  ImageWriter w(&sink, opts);
  ASSERT_TRUE(w.begin_section(SectionType::kDeviceBuffers, "doomed").ok());
  const auto payload = random_bytes(4096, 71);
  Status s = w.append(payload.data(), payload.size());
  if (s.ok()) s = w.end_section();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("byte 500"), std::string::npos) << s.to_string();
  // Sticky: later calls keep failing, finish() cannot whitewash the image.
  EXPECT_FALSE(w.finish().ok());
  // The inner sink holds exactly the short prefix — nothing after the fault.
  EXPECT_EQ(inner.bytes().size(), 500u);
}

TEST(FaultInjectionTest, WriteSideBitFlipCaughtOnRead) {
  // A byte silently corrupted on its way to storage (FaultySink flip) must
  // be invisible to the writer but trip the chunk CRC on read-back.
  MemorySink inner;
  FaultySink::Faults faults;
  faults.flip_at = 900;  // inside the first chunk's stored payload
  FaultySink sink(&inner, faults);
  ImageWriter::Options opts;
  opts.chunk_size = 512;
  ImageWriter w(&sink, opts);
  const auto payload = random_bytes(2048, 73);
  ASSERT_TRUE(w.begin_section(SectionType::kDeviceBuffers, "flipped").ok());
  ASSERT_TRUE(w.append(payload.data(), payload.size()).ok());
  ASSERT_TRUE(w.end_section().ok());
  ASSERT_TRUE(w.finish().ok());  // the writer never notices

  auto reader = ImageReader::from_bytes(inner.bytes());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto got = reader->read_section(reader->sections()[0]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(got.status().message().find("flipped"), std::string::npos)
      << got.status().to_string();
}

// ---- decompressor bounds hardening ----

TEST(DecompressBoundsTest, LiteralBeyondRawSizeFails) {
  // One literal token carrying 8 bytes, but a declared raw size of 4.
  std::vector<std::byte> stream;
  stream.push_back(std::byte{7});  // literal run of 8
  for (int i = 0; i < 8; ++i) stream.push_back(std::byte{0x55});
  auto out = decompress(stream.data(), stream.size(), Codec::kLz, 4);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);
}

TEST(DecompressBoundsTest, MatchBeyondRawSizeFails) {
  // 4 literal bytes then a maximal match: would expand far past raw_size.
  std::vector<std::byte> stream;
  stream.push_back(std::byte{3});  // literal run of 4
  for (int i = 0; i < 4; ++i) stream.push_back(std::byte{0x66});
  stream.push_back(std::byte{0xFF});  // match len 131
  stream.push_back(std::byte{1});     // distance 1
  stream.push_back(std::byte{0});
  auto out = decompress(stream.data(), stream.size(), Codec::kLz, 8);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);
}

// ---- zero-run codec: round-trip property + v3 framing hardening ----

TEST(ZeroRunCodecTest, RoundTripsAcrossDataShapes) {
  // The three shapes that bracket the codec's behavior: all zeros (the
  // mostly-zero device arena it exists for), zero-free bytes (pure
  // passthrough to the LZ stage), and alternating runs that straddle the
  // minimum-run threshold on both sides.
  const std::size_t n = 64 * 1024 + 7;
  std::vector<std::byte> all_zero(n);
  std::vector<std::byte> no_zero = random_bytes(n, 17);
  for (auto& b : no_zero) b |= std::byte{0x01};
  std::vector<std::byte> alternating(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Period 41: 29 zeros then 12 non-zeros — runs both above and (via the
    // tail wrap) below the 8-byte elision threshold appear.
    alternating[i] = (i % 41 < 29) ? std::byte{0}
                                   : static_cast<std::byte>(i * 31 + 1);
  }
  for (const auto& payload : {all_zero, no_zero, alternating}) {
    const auto packed = compress(payload, Codec::kZeroRunLz);
    auto back = decompress(packed.data(), packed.size(), Codec::kZeroRunLz,
                           payload.size());
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_EQ(*back, payload);
  }
  // The shape it was built for must collapse: 64 KiB of zeros is a stage
  // header plus a couple of varints.
  EXPECT_LT(compress(all_zero, Codec::kZeroRunLz).size(), 64u);
}

TEST(ZeroRunCodecTest, UnknownImageCodecIdRejected) {
  // A forward-version image whose codec this build has never heard of must
  // fail by name at open, before any chunk reaches a decoder.
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(3);  // version 3
  w.put_u32(9);  // no such codec
  w.put_u64(kTestChunk);
  auto reader = ImageReader::from_bytes(std::move(w).take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find("unknown image codec id 9"),
            std::string::npos)
      << reader.status().to_string();
}

TEST(ZeroRunCodecTest, ZeroRunOnV2HeaderRejected) {
  // kZeroRunLz chunks need per-chunk codec ids; a version-2 header claiming
  // the codec is malformed, not merely new.
  ByteWriter w;
  w.put_bytes("CRACIMG2", 8);
  w.put_u32(2);
  w.put_u32(static_cast<std::uint32_t>(Codec::kZeroRunLz));
  w.put_u64(kTestChunk);
  auto reader = ImageReader::from_bytes(std::move(w).take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find("requires image version 3"),
            std::string::npos)
      << reader.status().to_string();
}

TEST(ZeroRunCodecTest, HostilePerChunkCodecIdRejected) {
  // Corrupt a v3 frame's codec field on the wire: the scan must reject it
  // by name instead of routing the stored bytes to a misinterpreted
  // decoder.
  MemorySink sink;
  ImageWriter::Options opts;
  opts.codec = Codec::kZeroRunLz;
  opts.chunk_size = 512;
  ImageWriter w(&sink, opts);
  w.add_section(SectionType::kMetadata, "m", random_bytes(1000, 21));
  ASSERT_TRUE(w.finish().ok());
  auto bytes = sink.bytes();
  // Image header (8+4+4+8) + section header ([u32 type][u32 len]["m"]),
  // then the v3 frame: [u64 raw][u64 stored][u32 codec][u32 crc].
  const std::size_t codec_at = 24 + 4 + 4 + 1 + 8 + 8;
  const std::uint32_t hostile = 238;
  std::memcpy(bytes.data() + codec_at, &hostile, sizeof(hostile));
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find("unknown chunk codec id 238"),
            std::string::npos)
      << reader.status().to_string();
}

TEST(ZeroRunCodecTest, HostileStageBytesRejected) {
  auto varint = [](std::vector<std::byte>& out, std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::byte>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<std::byte>(v));
  };
  auto stage = [](Codec inner, const std::vector<std::byte>& tokens) {
    // [u8 inner codec][u64 LE residual size][payload]
    std::vector<std::byte> s;
    s.push_back(static_cast<std::byte>(inner));
    const std::uint64_t residual = tokens.size();
    for (unsigned k = 0; k < 8; ++k) {
      s.push_back(static_cast<std::byte>((residual >> (8 * k)) & 0xFF));
    }
    s.insert(s.end(), tokens.begin(), tokens.end());
    return s;
  };

  // Truncated stage header.
  const std::byte tiny[4] = {};
  auto out = decompress(tiny, sizeof(tiny), Codec::kZeroRunLz, 100);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);

  // A few varint bytes claiming a terabyte zero run: the expansion must be
  // rejected against the declared raw size, never attempted.
  std::vector<std::byte> tokens;
  varint(tokens, std::uint64_t{1} << 40);
  varint(tokens, 0);
  const auto bomb = stage(Codec::kStore, tokens);
  out = decompress(bomb.data(), bomb.size(), Codec::kZeroRunLz, 16);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(out.status().message().find("overruns declared raw size"),
            std::string::npos)
      << out.status().to_string();

  // Unknown inner (stage-2) codec id.
  const auto unknown_inner = stage(static_cast<Codec>(5), {});
  out = decompress(unknown_inner.data(), unknown_inner.size(),
                   Codec::kZeroRunLz, 0);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(out.status().message().find("unknown inner codec id 5"),
            std::string::npos)
      << out.status().to_string();
}

// ---- sinks ----

TEST(SinkTest, MemorySinkCounts) {
  MemorySink sink;
  ASSERT_TRUE(sink.write("abc", 3).ok());
  ASSERT_TRUE(sink.write("de", 2).ok());
  EXPECT_EQ(sink.bytes_written(), 5u);
  EXPECT_EQ(sink.bytes().size(), 5u);
}

TEST(SinkTest, FileSinkRoundTrips) {
  const std::string path = ::testing::TempDir() + "/crac_sink_test.bin";
  auto sink = FileSink::open(path);
  ASSERT_TRUE(sink.ok());
  ASSERT_TRUE((*sink)->write("hello", 5).ok());
  ASSERT_TRUE((*sink)->close().ok());
  EXPECT_EQ((*sink)->bytes_written(), 5u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  EXPECT_EQ(std::fread(buf, 1, sizeof(buf), f), 5u);
  std::fclose(f);
  EXPECT_STREQ(buf, "hello");
  std::remove(path.c_str());
}

TEST(SinkTest, FileSinkOpenFailureIsIoError) {
  auto sink = FileSink::open("/nonexistent/dir/x.bin");
  ASSERT_FALSE(sink.ok());
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
}

// ---- thread-pool future entry points ----

TEST(ThreadPoolFutureTest, SubmitTaskReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit_task([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolFutureTest, SubmitTaskPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit_task([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolFutureTest, SubmitBatchRunsAllTasks) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> values(17);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0;
    tasks.push_back([&values, i] { values[i] = static_cast<int>(i) + 1; });
  }
  auto futures = pool.submit_batch(std::move(tasks));
  ASSERT_EQ(futures.size(), values.size());
  for (auto& f : futures) f.get();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].load(), static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolFutureTest, SubmitTaskFromWorkerThreadIsSafe) {
  ThreadPool pool(2);
  // A worker enqueueing follow-up work must not deadlock or corrupt the
  // queue — the chunk pipeline relies on submission being thread-agnostic.
  auto outer = pool.submit_task([&pool] {
    return pool.submit_task([] { return 7; });
  });
  auto inner = outer.get();
  EXPECT_EQ(inner.get(), 7);
}

}  // namespace
}  // namespace crac::ckpt
