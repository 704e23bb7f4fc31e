// Unit tests for the checkpoint engine: compressor, image format, integrity
// checking, golden-fixture format freeze, memory-record round trips, plugin
// lifecycle ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "ckpt/compressor.hpp"
#include "ckpt/image.hpp"
#include "ckpt/memory_section.hpp"
#include "ckpt/plugin.hpp"
#include "common/bytes.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::ckpt {
namespace {

using testlib::compressible_bytes;
using testlib::golden_payload;
using testlib::random_bytes;

std::vector<std::byte> make_bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

class CompressorRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressorRoundTrip, RandomData) {
  const auto input = random_bytes(GetParam(), GetParam() * 31 + 1);
  const auto packed = compress(input, Codec::kLz);
  auto unpacked = decompress(packed.data(), packed.size(), Codec::kLz,
                             input.size());
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, input);
}

TEST_P(CompressorRoundTrip, CompressibleData) {
  const auto input = compressible_bytes(GetParam(), GetParam() + 7);
  const auto packed = compress(input, Codec::kLz);
  auto unpacked = decompress(packed.data(), packed.size(), Codec::kLz,
                             input.size());
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, input);
  if (input.size() > 1024) {
    EXPECT_LT(packed.size(), input.size() / 2)
        << "run-heavy data should compress well";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressorRoundTrip,
                         ::testing::Values(0, 1, 3, 4, 5, 63, 64, 65, 127,
                                           128, 129, 1000, 4096, 65536,
                                           1 << 20));

TEST(CompressorTest, StoreCodecIsIdentity) {
  const auto input = random_bytes(1000, 5);
  const auto packed = compress(input, Codec::kStore);
  EXPECT_EQ(packed, input);
}

TEST(CompressorTest, AllSameByteCompressesExtremely) {
  std::vector<std::byte> input(1 << 20, std::byte{0});
  const auto packed = compress(input, Codec::kLz);
  EXPECT_LT(packed.size(), input.size() / 20);
  auto unpacked =
      decompress(packed.data(), packed.size(), Codec::kLz, input.size());
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(*unpacked, input);
}

TEST(CompressorTest, CorruptStreamRejected) {
  const auto input = compressible_bytes(10000, 3);
  auto packed = compress(input, Codec::kLz);
  ASSERT_GT(packed.size(), 10u);
  // Truncate the stream.
  auto truncated =
      decompress(packed.data(), packed.size() / 2, Codec::kLz, input.size());
  EXPECT_FALSE(truncated.ok());
}

TEST(CompressorTest, WrongRawSizeRejected) {
  const auto input = compressible_bytes(1000, 3);
  const auto packed = compress(input, Codec::kLz);
  EXPECT_FALSE(
      decompress(packed.data(), packed.size(), Codec::kLz, input.size() + 1)
          .ok());
}

TEST(ImageTest, EmptyImageRoundTrips) {
  ImageWriter w;
  auto reader = ImageReader::from_bytes(w.serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->sections().empty());
}

TEST(ImageTest, SectionsRoundTrip) {
  ImageWriter w;
  w.add_section(SectionType::kMetadata, "meta", make_bytes({1, 2, 3}));
  w.add_section(SectionType::kCudaApiLog, "log", make_bytes({9, 8, 7, 6}));
  auto reader = ImageReader::from_bytes(w.serialize());
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ(reader->sections().size(), 2u);
  const SectionInfo* meta = reader->find(SectionType::kMetadata, "meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(*reader->read_section(*meta), make_bytes({1, 2, 3}));
  EXPECT_EQ(reader->find(SectionType::kMetadata, "nope"), nullptr);
  EXPECT_NE(reader->find(SectionType::kCudaApiLog), nullptr);
}

TEST(ImageTest, CompressedImageRoundTrips) {
  ImageWriter w(Codec::kLz);
  w.add_section(SectionType::kMemoryRegions, "mem",
                compressible_bytes(1 << 20, 42));
  const auto bytes = w.serialize();
  EXPECT_LT(bytes.size(), (1u << 20) / 2);  // compression actually applied
  auto reader = ImageReader::from_bytes(bytes);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_section(reader->sections()[0]),
            compressible_bytes(1 << 20, 42));
}

TEST(ImageTest, IncompressibleSectionStoredRaw) {
  ImageWriter w(Codec::kLz);
  const auto noise = random_bytes(1 << 16, 99);
  w.add_section(SectionType::kMemoryRegions, "noise", noise);
  auto reader = ImageReader::from_bytes(w.serialize());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_section(reader->sections()[0]), noise);
}

TEST(ImageTest, BadMagicRejected) {
  auto bytes = ImageWriter().serialize();
  bytes[0] = std::byte{'X'};
  EXPECT_FALSE(ImageReader::from_bytes(std::move(bytes)).ok());

  // The manifest of the retired sharded layout is rejected by name, not as
  // generic garbage: a leftover image says what it is and why it fails.
  std::vector<std::byte> manifest(48, std::byte{0});
  std::memcpy(manifest.data(), "CRACSHRD", 8);
  auto sharded = ImageReader::from_bytes(std::move(manifest));
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(sharded.status().message().find("CRACSHRD"), std::string::npos)
      << sharded.status().to_string();
}

TEST(ImageTest, FlippedPayloadBitFailsCrc) {
  ImageWriter w;
  w.add_section(SectionType::kMetadata, "m", random_bytes(4096, 1));
  auto bytes = w.serialize();
  // Flip a bit near the end (inside the payload). The scan skips payload
  // bytes, so the damage surfaces when the section is read, not at open.
  bytes[bytes.size() - 100] ^= std::byte{0x40};
  auto reader = ImageReader::from_bytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  auto got = reader->read_section(reader->sections()[0]);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorrupt);
}

TEST(ImageTest, TruncatedImageRejected) {
  ImageWriter w;
  w.add_section(SectionType::kMetadata, "m", random_bytes(4096, 1));
  auto bytes = w.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(ImageReader::from_bytes(std::move(bytes)).ok());
}

TEST(ImageTest, SectionNameCapIsOneLimit) {
  // A name exactly at the cap round-trips.
  const std::string at_cap(kMaxSectionNameBytes, 'n');
  ImageWriter w;
  w.add_section(SectionType::kMetadata, at_cap, make_bytes({1, 2, 3}));
  auto reader = ImageReader::from_bytes(w.serialize());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  const SectionInfo* sec = reader->find(SectionType::kMetadata, at_cap);
  ASSERT_NE(sec, nullptr);
  EXPECT_EQ(*reader->read_section(*sec), make_bytes({1, 2, 3}));

  // The writer refuses one byte more instead of writing an image no reader
  // opens, and the reader's refusal names the cap.
  MemorySink sink;
  ImageWriter over(&sink, ImageWriter::Options{});
  const Status refused =
      over.begin_section(SectionType::kMetadata, at_cap + "n");
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
      << refused.to_string();
  EXPECT_NE(refused.message().find("4096-byte cap"), std::string::npos)
      << refused.to_string();
  auto hostile = ImageReader::from_bytes(testlib::over_cap_name_image());
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(hostile.status().message().find("4096-byte cap"),
            std::string::npos)
      << hostile.status().to_string();

  // v4 parent strings share the cap.
  MemorySink delta_sink;
  ImageWriter::Options delta_opts;
  delta_opts.parent_id = "parent";
  delta_opts.parent_path = std::string(kMaxSectionNameBytes + 1, 'p');
  ImageWriter delta(&delta_sink, delta_opts);
  EXPECT_EQ(delta.finish().code(), StatusCode::kInvalidArgument);
}

// A source whose total size stays unknown, like a live shipment before its
// trailer: remaining() bounds nothing, reads past the bytes fail as a dead
// stream would, and at_end() answers from the real size.
class StillFillingSource final : public Source {
 public:
  explicit StillFillingSource(std::vector<std::byte> bytes)
      : bytes_(std::move(bytes)) {}
  Status read(void* out, std::size_t size) override {
    if (pos_ > bytes_.size() || size > bytes_.size() - pos_) {
      return Corrupt(describe() + ": stream ended");
    }
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
    return OkStatus();
  }
  Status seek(std::uint64_t offset) override {
    pos_ = offset;
    return OkStatus();
  }
  std::uint64_t position() const noexcept override { return pos_; }
  std::uint64_t size() const noexcept override { return kUnknownSize; }
  bool end_known() const noexcept override { return false; }
  Result<bool> at_end(std::uint64_t offset) override {
    return offset >= bytes_.size();
  }
  std::string describe() const override { return "still-filling source"; }

 private:
  std::vector<std::byte> bytes_;
  std::uint64_t pos_ = 0;
};

TEST(ImageTest, HostileStringOnStillFillingSourceStaysBounded) {
  // A section string claiming 1 GiB, followed by 16 real bytes. The
  // section's size is unknown while the source fills, so only the bytes
  // that actually arrive may be allocated.
  if (testlib::kSanitizedAllocator) {
    GTEST_SKIP() << "RSS bounds need the plain malloc";
  }
  ByteWriter payload;
  payload.put_u32(std::uint32_t{1} << 30);
  payload.put_bytes(random_bytes(16, 5).data(), 16);
  ImageWriter w;
  w.add_section(SectionType::kMemoryRegions, "upper-memory",
                std::move(payload).take());
  auto reader = ImageReader::open(
      std::make_unique<StillFillingSource>(w.serialize()));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  auto sec = reader->section_at(0);
  ASSERT_TRUE(sec.ok() && *sec != nullptr);
  EXPECT_FALSE((*sec)->size_known);
  auto stream = reader->open_section(**sec);
  ASSERT_TRUE(stream.ok()) << stream.status().to_string();

  std::string name;
  const std::uint64_t before = testlib::vm_rss_bytes();
  const Status got = stream->get_string(name);
  const std::uint64_t after = testlib::vm_rss_bytes();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.code(), StatusCode::kCorrupt) << got.to_string();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after - std::min(after, before), std::uint64_t{16} << 20)
      << "VmRSS grew from " << before << " to " << after << " bytes";
}

TEST(ImageTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/crac_image_test.img";
  ImageWriter w;
  w.add_section(SectionType::kMetadata, "m", make_bytes({42}));
  ASSERT_TRUE(w.write_file(path).ok());
  auto reader = ImageReader::from_file(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(*reader->read_section(reader->sections()[0]), make_bytes({42}));
  std::remove(path.c_str());
}

TEST(ImageTest, MissingFileIsIoError) {
  auto reader = ImageReader::from_file("/nonexistent/crac.img");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

// ---- golden fixtures: the on-disk format is frozen ----
//
// tests/data holds a tiny v1 and a tiny single-file v2 image checked into
// the repository (generated once from golden_payload(); see
// docs/image_format.md). They are the regression net for every future
// refactor of the writer, the reader, or the transports: if either
// stops restoring, the format broke, not just the code.

std::string golden_path(const char* name) {
  return std::string(CRAC_TEST_DATA_DIR) + "/" + name;
}

TEST(GoldenFixtureTest, V1ImageStillRestores) {
  auto reader = ImageReader::from_file(golden_path("golden_v1.crac"));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader->version(), 1u);
  const SectionInfo* sec = reader->find(SectionType::kMemoryRegions, "legacy");
  ASSERT_NE(sec, nullptr);
  auto got = reader->read_section(*sec);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, golden_payload(12345));
  EXPECT_TRUE(reader->verify_unread_sections().ok());
}

TEST(GoldenFixtureTest, SingleFileV2ImageStillRestores) {
  auto reader = ImageReader::from_file(golden_path("golden_v2.crac"));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader->version(), 2u);
  EXPECT_EQ(reader->chunk_size(), 1024u);
  const SectionInfo* meta = reader->find(SectionType::kMetadata, "meta");
  ASSERT_NE(meta, nullptr);
  auto meta_got = reader->read_section(*meta);
  ASSERT_TRUE(meta_got.ok()) << meta_got.status().to_string();
  EXPECT_EQ(*meta_got, golden_payload(100));
  const SectionInfo* sec =
      reader->find(SectionType::kDeviceBuffers, "payload");
  ASSERT_NE(sec, nullptr);
  auto got = reader->read_section(*sec);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, golden_payload(10000));
  EXPECT_TRUE(reader->verify_unread_sections().ok());
}

TEST(MemorySectionTest, RecordsRoundTrip) {
  std::vector<MemoryRecord> records;
  MemoryRecord a;
  a.addr = 0x600000000000;
  a.size = 5;
  a.prot = 3;
  a.name = "heap";
  a.bytes = make_bytes({1, 2, 3, 4, 5});
  records.push_back(a);
  MemoryRecord b;
  b.addr = 0x500000000000;
  b.size = 0;
  b.name = "empty";
  records.push_back(b);

  auto decoded = decode_memory_records(encode_memory_records(records));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].addr, a.addr);
  EXPECT_EQ((*decoded)[0].bytes, a.bytes);
  EXPECT_EQ((*decoded)[1].name, "empty");
}

TEST(MemorySectionTest, TruncatedPayloadRejected) {
  std::vector<MemoryRecord> records(1);
  records[0].size = 100;
  records[0].bytes.resize(100);
  auto payload = encode_memory_records(records);
  payload.resize(payload.size() - 50);
  EXPECT_FALSE(decode_memory_records(payload).ok());
}

TEST(MemorySectionTest, HostileCountIsCorrupt) {
  // A count of 2^40 records over an 8-byte payload: the reserve is capped
  // by what the payload could hold, and the walk fails by name.
  ByteWriter w;
  w.put_u64(std::uint64_t{1} << 40);
  auto decoded = decode_memory_records(std::move(w).take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorrupt);
}

TEST(MemorySectionTest, HostileRecordSizeIsCorrupt) {
  // A record claiming 64 GiB of contents is refused before anything is
  // sized for it.
  std::vector<MemoryRecord> records(1);
  records[0].name = "heap";
  records[0].size = 4;
  records[0].bytes.resize(4);
  auto payload = encode_memory_records(records);
  const std::uint64_t hostile = std::uint64_t{1} << 36;
  std::memcpy(payload.data() + 16, &hostile, sizeof(hostile));  // count, addr
  auto decoded = decode_memory_records(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(decoded.status().message().find("'heap'"), std::string::npos)
      << decoded.status().to_string();
}

// ---- plugin lifecycle ----

class OrderProbePlugin : public CkptPlugin {
 public:
  OrderProbePlugin(std::string id, std::vector<std::string>* trace)
      : id_(std::move(id)), trace_(trace) {}
  std::string name() const override { return id_; }
  Status precheckpoint(ImageWriter&) override {
    trace_->push_back("pre:" + id_);
    return OkStatus();
  }
  Status resume() override {
    trace_->push_back("resume:" + id_);
    return OkStatus();
  }
  Status restart(ImageReader&) override {
    trace_->push_back("restart:" + id_);
    return OkStatus();
  }

 private:
  std::string id_;
  std::vector<std::string>* trace_;
};

TEST(PluginRegistryTest, HookOrdering) {
  std::vector<std::string> trace;
  OrderProbePlugin a("a", &trace), b("b", &trace);
  PluginRegistry registry;
  registry.register_plugin(&a);
  registry.register_plugin(&b);

  ImageWriter w;
  ASSERT_TRUE(registry.run_precheckpoint(w).ok());
  ASSERT_TRUE(registry.run_resume().ok());
  auto reader = ImageReader::from_bytes(w.serialize());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(registry.run_restart(*reader).ok());

  // precheckpoint in registration order; resume/restart reversed.
  const std::vector<std::string> expected = {"pre:a",     "pre:b",
                                             "resume:b",  "resume:a",
                                             "restart:b", "restart:a"};
  EXPECT_EQ(trace, expected);
}

class FailingPlugin : public CkptPlugin {
 public:
  std::string name() const override { return "fail"; }
  Status precheckpoint(ImageWriter&) override { return Internal("boom"); }
  Status resume() override { return OkStatus(); }
  Status restart(ImageReader&) override { return OkStatus(); }
};

TEST(PluginRegistryTest, FailurePropagates) {
  FailingPlugin f;
  PluginRegistry registry;
  registry.register_plugin(&f);
  ImageWriter w;
  EXPECT_FALSE(registry.run_precheckpoint(w).ok());
}

}  // namespace
}  // namespace crac::ckpt
