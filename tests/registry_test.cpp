// Tests for the checkpoint registry subsystem: the content-addressed
// ChunkStore (dedup, refcounts, dead-record compaction), the
// RegistrySink/Source image parse + byte-identical reconstruction, the
// CheckpointRegistry naming layer, and the forked RegistryHost serving
// PUT/GET/LIST/STAT over the proxy event loop.
//
// Suites named RegistryHostTest.* fork a server process and are excluded
// from the TSan job (fork + instrumentation don't mix); everything else is
// in-process and TSan-clean.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"
#include "ckpt/remote.hpp"
#include "ckpt/sink.hpp"
#include "common/bytes.hpp"
#include "proxy/protocol.hpp"
#include "registry/client.hpp"
#include "registry/image_io.hpp"
#include "registry/registry.hpp"
#include "registry/server.hpp"
#include "registry/store.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::registry {
namespace {

using ckpt::Codec;
using ckpt::ImageWriter;
using ckpt::SectionType;

std::vector<std::byte> pattern_payload(std::size_t n, unsigned seed) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 31 + seed * 7 + 3) & 0xFF);
  }
  return out;
}

// A well-formed CRACIMG2 image with two sections. `tweak` flips one byte in
// the second section so near-identical images share most chunks.
std::vector<std::byte> build_image(Codec codec, std::size_t section_bytes,
                                   bool tweak = false) {
  ImageWriter writer(codec);
  writer.add_section(SectionType::kMetadata, "meta",
                     pattern_payload(512, 1));
  std::vector<std::byte> body = pattern_payload(section_bytes, 2);
  if (tweak && !body.empty()) body[body.size() / 2] ^= std::byte{0x80};
  writer.add_section(SectionType::kDeviceBuffers, "device-arena",
                     std::move(body));
  EXPECT_TRUE(writer.status().ok()) << writer.status().to_string();
  return writer.serialize();
}

Status feed(RegistrySink& sink, const std::vector<std::byte>& bytes,
            std::size_t step = 4096) {
  for (std::size_t off = 0; off < bytes.size(); off += step) {
    const std::size_t n = std::min(step, bytes.size() - off);
    CRAC_RETURN_IF_ERROR(sink.write(bytes.data() + off, n));
  }
  return OkStatus();
}

TEST(ChunkStoreTest, DedupAndRefcounts) {
  ChunkStore store;
  ASSERT_TRUE(store.open("").ok());  // volatile: an anonymous slab file
  const std::vector<std::byte> payload = pattern_payload(4096, 9);
  const ChunkKey key{0, payload.size(), 0xDEADBEEF};
  const std::uint64_t record = kSlabRecordHeaderBytes + payload.size();

  ASSERT_TRUE(store.put(key, payload.data(), payload.size()).ok());
  ASSERT_TRUE(store.put(key, payload.data(), payload.size()).ok());

  ChunkStore::Stats stats = store.stats();
  EXPECT_EQ(stats.unique_chunks, 1u);
  EXPECT_EQ(stats.chunk_refs, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.stored_bytes, payload.size());
  // One record on disk for both references.
  EXPECT_EQ(stats.slab_file_bytes, kSlabFileHeaderBytes + record);

  // A same-key put with a different payload size means the key lied.
  EXPECT_EQ(store.put(key, payload.data(), payload.size() - 1).code(),
            StatusCode::kCorrupt);

  // Payload bytes come back out of the slab, whole or from an offset.
  auto stored = store.payload(key);
  ASSERT_TRUE(stored.ok()) << stored.status().to_string();
  std::vector<std::byte> back(payload.size());
  ASSERT_TRUE(stored->read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(stored->read(100, back.data(), 50).ok());
  EXPECT_EQ(std::memcmp(back.data(), payload.data() + 100, 50), 0);
  EXPECT_FALSE(stored->read(payload.size() - 10, back.data(), 11).ok());

  store.release(key);
  store.release(key);
  stats = store.stats();
  EXPECT_EQ(stats.unique_chunks, 0u);
  EXPECT_EQ(stats.stored_bytes, 0u);
  EXPECT_EQ(stats.dead_bytes, record);
  EXPECT_EQ(store.payload(key).status().code(), StatusCode::kNotFound);

  // Compaction drops the dead record.
  ASSERT_TRUE(store.compact().ok());
  stats = store.stats();
  EXPECT_EQ(stats.dead_bytes, 0u);
  EXPECT_EQ(stats.slab_file_bytes, kSlabFileHeaderBytes);
  EXPECT_EQ(stats.compactions, 1u);
}

class RegistryRoundTripTest : public ::testing::TestWithParam<Codec> {};

TEST_P(RegistryRoundTripTest, StoreAndReconstructByteIdentical) {
  const std::vector<std::byte> image = build_image(GetParam(), 3 << 20);

  CheckpointRegistry registry;
  auto sink = registry.begin_put("job-a");
  ASSERT_TRUE(feed(*sink, image).ok());
  ASSERT_TRUE(sink->close().ok());
  ASSERT_TRUE(registry.commit(*sink).ok());

  auto source = registry.open("job-a");
  ASSERT_TRUE(source.ok());
  EXPECT_EQ((*source)->size(), image.size());

  // Read back through misaligned odd-sized reads to cross every segment
  // boundary (literals, regenerated frame headers, chunk payloads).
  std::vector<std::byte> back(image.size());
  std::size_t pos = 0;
  while (pos < back.size()) {
    const std::size_t n = std::min<std::size_t>(12345, back.size() - pos);
    ASSERT_TRUE((*source)->read(back.data() + pos, n).ok());
    pos += n;
  }
  EXPECT_EQ(back, image);

  // Seek back and re-read a middle slice.
  ASSERT_TRUE((*source)->seek(image.size() / 3).ok());
  std::vector<std::byte> slice(4096);
  ASSERT_TRUE((*source)->read(slice.data(), slice.size()).ok());
  EXPECT_EQ(std::memcmp(slice.data(), image.data() + image.size() / 3,
                        slice.size()),
            0);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, RegistryRoundTripTest,
                         ::testing::Values(Codec::kStore, Codec::kLz,
                                           Codec::kZeroRunLz));

TEST(RegistryTest, NearIdenticalImagesShareChunks) {
  // The ISSUE's dedup acceptance bar: two near-identical images must cost
  // the store less than twice one image.
  CheckpointRegistry registry;

  const std::vector<std::byte> a = build_image(Codec::kStore, 8 << 20);
  const std::vector<std::byte> b =
      build_image(Codec::kStore, 8 << 20, /*tweak=*/true);

  auto put = [&registry](const char* name,
                         const std::vector<std::byte>& bytes) {
    auto sink = registry.begin_put(name);
    ASSERT_TRUE(feed(*sink, bytes, 1 << 16).ok());
    ASSERT_TRUE(sink->close().ok());
    ASSERT_TRUE(registry.commit(*sink).ok());
  };
  put("ckpt-1", a);
  const std::uint64_t single = registry.stats().store.stored_bytes;
  ASSERT_GT(single, 0u);
  put("ckpt-2", b);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.images, 2u);
  EXPECT_LT(stats.store.stored_bytes, 2 * single);
  EXPECT_GT(stats.store.dedup_hits, 0u);
}

TEST(RegistryTest, RejectsCorruptAndTruncatedStreams) {
  CheckpointRegistry registry;

  // Flipped payload byte: the chunk CRC catches it at admit time.
  std::vector<std::byte> corrupt = build_image(Codec::kStore, 1 << 20);
  corrupt[corrupt.size() - 64] ^= std::byte{0xFF};
  auto sink = registry.begin_put("bad");
  (void)feed(*sink, corrupt);  // sink swallows; error surfaces at close
  EXPECT_FALSE(sink->close().ok());
  EXPECT_FALSE(registry.commit(*sink).ok());

  // Truncated mid-chunk.
  std::vector<std::byte> truncated = build_image(Codec::kStore, 1 << 20);
  truncated.resize(truncated.size() / 2);
  auto sink2 = registry.begin_put("short");
  ASSERT_TRUE(feed(*sink2, truncated).ok());
  EXPECT_FALSE(sink2->close().ok());

  // Rejected ingests must not leak chunk references.
  EXPECT_EQ(registry.stats().store.unique_chunks, 0u);
  EXPECT_EQ(registry.stats().store.chunk_refs, 0u);
}

// ---- ingest parity with ImageReader ----
//
// The registry hands its images to restarts, so a PUT must refuse exactly
// the images ImageReader refuses (at open or when its whole payload is
// CRC-checked), no more and no fewer. Each row also pins which side of
// that line it belongs on. Every row is a standalone image: a delta's
// acceptance also depends on its parent having been PUT.

struct IngestCase {
  const char* what;
  std::vector<std::byte> image;
  bool valid;
};

std::vector<std::byte> with_u32(std::vector<std::byte> image,
                                std::size_t offset, std::uint32_t v) {
  std::memcpy(image.data() + offset, &v, sizeof(v));
  return image;
}

std::vector<std::byte> with_u64(std::vector<std::byte> image,
                                std::size_t offset, std::uint64_t v) {
  std::memcpy(image.data() + offset, &v, sizeof(v));
  return image;
}

std::vector<IngestCase> ingest_cases() {
  const std::vector<std::byte> v2 = build_image(Codec::kStore, 64 << 10);
  const std::vector<std::byte> v3 = build_image(Codec::kZeroRunLz, 64 << 10);
  // Header fields: magic [0, 8), version at 8, codec at 12, chunk size at
  // 16; a full image's first section type follows at 24.
  constexpr std::size_t kVersionAt = 8, kCodecAt = 12, kChunkSizeAt = 16;
  constexpr std::size_t kFirstSectionType = ckpt::kImageHeaderBytes;
  auto with_magic = [&v2](const char* magic) {
    std::vector<std::byte> image = v2;
    std::memcpy(image.data(), magic, 8);
    return image;
  };
  ByteWriter orphan;  // a v4 header whose parent id is empty
  orphan.put_bytes("CRACIMG2", 8);
  orphan.put_u32(4);
  orphan.put_u32(static_cast<std::uint32_t>(Codec::kStore));
  orphan.put_u64(4096);
  orphan.put_string("");
  orphan.put_string("parent.crac");
  std::vector<std::byte> flipped = v2;
  flipped[flipped.size() - 64] ^= std::byte{0xFF};
  std::vector<std::byte> truncated = v2;
  truncated.resize(truncated.size() / 2);

  return {
      {"v2 store image", v2, true},
      {"v2 lz image", build_image(Codec::kLz, 64 << 10), true},
      {"v3 zero-run image", v3, true},
      {"header without sections",
       std::vector<std::byte>(v2.begin(),
                              v2.begin() + ckpt::kImageHeaderBytes),
       true},
      {"v2 image holding a delta-chunks section",
       with_u32(v2, kFirstSectionType,
                static_cast<std::uint32_t>(SectionType::kDeltaChunks)),
       false},
      {"v3 image holding a delta-chunks section",
       with_u32(v3, kFirstSectionType,
                static_cast<std::uint32_t>(SectionType::kDeltaChunks)),
       false},
      {"v2 header naming codec 2",
       with_u32(v2, kCodecAt, static_cast<std::uint32_t>(Codec::kZeroRunLz)),
       false},
      {"retired CRACIMG1 image",
       ckpt::testlib::read_file(std::string(CRAC_TEST_DATA_DIR) +
                                "/golden_v1.crac"),
       false},
      {"retired CRACSHRD manifest magic", with_magic("CRACSHRD"), false},
      {"unknown magic", with_magic("NOTANIMG"), false},
      {"version 1 under the CRACIMG2 magic", with_u32(v2, kVersionAt, 1),
       false},
      {"version 5", with_u32(v2, kVersionAt, 5), false},
      {"unknown codec id", with_u32(v2, kCodecAt, 99), false},
      {"zero chunk size", with_u64(v2, kChunkSizeAt, 0), false},
      {"chunk size above the cap",
       with_u64(v2, kChunkSizeAt, ckpt::kMaxChunkSize + 1), false},
      {"delta header with an empty parent id", std::move(orphan).take(),
       false},
      {"over-cap section name", ckpt::testlib::over_cap_name_image(), false},
      {"flipped payload byte", flipped, false},
      {"truncated mid-chunk", truncated, false},
      {"empty stream", {}, false},
  };
}

bool reader_accepts(const std::vector<std::byte>& image) {
  auto reader = ckpt::ImageReader::from_bytes(image);
  return reader.ok() && reader->verify_unread_sections().ok();
}

TEST(RegistryIngestParityTest, PutRefusesExactlyWhatTheReaderRefuses) {
  CheckpointRegistry registry;
  for (const IngestCase& c : ingest_cases()) {
    SCOPED_TRACE(c.what);
    const bool reader_ok = reader_accepts(c.image);
    EXPECT_EQ(reader_ok, c.valid);
    auto sink = registry.begin_put("parity");
    ASSERT_TRUE(feed(*sink, c.image).ok());  // parse errors surface at close
    const Status closed = sink->close();
    const bool put_ok = closed.ok() && registry.commit(*sink).ok();
    EXPECT_EQ(put_ok, reader_ok) << closed.to_string();
  }
}

TEST(RegistryTest, ReplaceKeepsOpenSourcesAlive) {
  CheckpointRegistry registry;
  const std::vector<std::byte> v1 = build_image(Codec::kStore, 1 << 20);
  const std::vector<std::byte> v2 =
      build_image(Codec::kStore, 1 << 20, /*tweak=*/true);

  auto sink = registry.begin_put("job");
  ASSERT_TRUE(feed(*sink, v1).ok());
  ASSERT_TRUE(sink->close().ok());
  ASSERT_TRUE(registry.commit(*sink).ok());

  auto old_source = registry.open("job");
  ASSERT_TRUE(old_source.ok());

  auto sink2 = registry.begin_put("job");
  ASSERT_TRUE(feed(*sink2, v2).ok());
  ASSERT_TRUE(sink2->close().ok());
  ASSERT_TRUE(registry.commit(*sink2).ok());  // replaces under the name

  // The old source still reads the old bytes.
  std::vector<std::byte> back(v1.size());
  ASSERT_TRUE((*old_source)->read(back.data(), back.size()).ok());
  EXPECT_EQ(back, v1);

  auto fresh = registry.open("job");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->size(), v2.size());
}

TEST(RegistryTest, ConcurrentFanOutReadersSeeIdenticalBytes) {
  CheckpointRegistry registry;
  const std::vector<std::byte> image = build_image(Codec::kLz, 4 << 20);
  auto sink = registry.begin_put("shared");
  ASSERT_TRUE(feed(*sink, image).ok());
  ASSERT_TRUE(sink->close().ok());
  ASSERT_TRUE(registry.commit(*sink).ok());

  constexpr int kReaders = 3;
  std::vector<std::vector<std::byte>> got(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &got, &image, r] {
      auto source = registry.open("shared");
      ASSERT_TRUE(source.ok());
      got[r].resize(image.size());
      std::size_t pos = 0;
      while (pos < got[r].size()) {
        const std::size_t n =
            std::min<std::size_t>(7 << 10, got[r].size() - pos);
        ASSERT_TRUE((*source)->read(got[r].data() + pos, n).ok());
        pos += n;
      }
    });
  }
  for (auto& t : readers) t.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(got[r], image);
}

// ---- Delta chains in the registry ----

// A hand-built base -> d1 -> d2 family over one 16 KiB "device-arena"
// section, patched at 1 KiB granularity, with a host-side mirror of the
// expected leaf contents. Parent paths are real files only when the test
// compares against the path-walking local materializer; the registry
// resolves edges by embedded image id, never by path.
constexpr std::size_t kArenaBytes = 16 << 10;
constexpr std::size_t kGranule = 1 << 10;

std::vector<std::byte> id_payload(const std::string& id) {
  const auto* p = reinterpret_cast<const std::byte*>(id.data());
  return std::vector<std::byte>(p, p + id.size());
}

std::vector<std::byte> build_full_image(const std::string& image_id,
                                        const std::vector<std::byte>& arena) {
  ImageWriter writer(Codec::kStore);
  writer.add_section(SectionType::kMetadata, ckpt::kSectionImageId,
                     id_payload(image_id));
  writer.add_section(SectionType::kDeviceBuffers, "device-arena",
                     std::vector<std::byte>(arena));
  EXPECT_TRUE(writer.status().ok()) << writer.status().to_string();
  return writer.serialize();
}

struct ArenaPatch {
  std::uint64_t index;  // granule index into the arena
  std::vector<std::byte> bytes;
};

std::vector<std::byte> build_delta_image(const std::string& image_id,
                                         const std::string& parent_id,
                                         const std::string& parent_path,
                                         const std::vector<ArenaPatch>& ps) {
  ckpt::MemorySink sink;
  ImageWriter::Options wopts;
  wopts.parent_id = parent_id;
  wopts.parent_path = parent_path;
  ImageWriter writer(&sink, wopts);
  writer.add_section(SectionType::kMetadata, ckpt::kSectionImageId,
                     id_payload(image_id));
  ByteWriter body;
  body.put_u32(static_cast<std::uint32_t>(SectionType::kDeviceBuffers));
  body.put_u64(kGranule);
  body.put_u64(kArenaBytes);
  body.put_u64(ps.size());
  for (const ArenaPatch& p : ps) {
    body.put_u64(p.index);
    body.put_u64(p.bytes.size());
    body.put_bytes(p.bytes.data(), p.bytes.size());
  }
  writer.add_section(SectionType::kDeltaChunks, "device-arena",
                     std::move(body).take());
  EXPECT_TRUE(writer.finish().ok());
  EXPECT_TRUE(sink.close().ok());
  return std::move(sink).take();
}

// base -> d1 -> d2 plus the expected leaf arena after both patch rounds.
struct DeltaFamily {
  std::vector<std::byte> base, d1, d2;
  std::vector<std::byte> leaf_arena;
};

DeltaFamily build_delta_family(const std::string& base_path = "",
                               const std::string& d1_path = "") {
  DeltaFamily fam;
  fam.leaf_arena = pattern_payload(kArenaBytes, 40);
  fam.base = build_full_image("base-id", fam.leaf_arena);

  const ArenaPatch p2{2, pattern_payload(kGranule, 41)};
  const ArenaPatch p7{7, pattern_payload(kGranule, 42)};
  fam.d1 = build_delta_image("d1-id", "base-id", base_path, {p2, p7});
  std::memcpy(fam.leaf_arena.data() + p2.index * kGranule, p2.bytes.data(),
              kGranule);
  std::memcpy(fam.leaf_arena.data() + p7.index * kGranule, p7.bytes.data(),
              kGranule);

  // d2 re-patches granule 7 (newest-wins over d1) and touches 12.
  const ArenaPatch q7{7, pattern_payload(kGranule, 43)};
  const ArenaPatch q12{12, pattern_payload(kGranule, 44)};
  fam.d2 = build_delta_image("d2-id", "d1-id", d1_path, {q7, q12});
  std::memcpy(fam.leaf_arena.data() + q7.index * kGranule, q7.bytes.data(),
              kGranule);
  std::memcpy(fam.leaf_arena.data() + q12.index * kGranule, q12.bytes.data(),
              kGranule);
  return fam;
}

void put_bytes_inproc(CheckpointRegistry& registry, const std::string& name,
                      const std::vector<std::byte>& bytes) {
  auto sink = registry.begin_put(name);
  ASSERT_TRUE(feed(*sink, bytes).ok());
  ASSERT_TRUE(sink->close().ok());
  ASSERT_TRUE(registry.commit(*sink).ok());
}

// The merged image open_merged() streams, collected in memory; its length
// must be the size() a GET announces.
Result<std::vector<std::byte>> merged_bytes(CheckpointRegistry& registry,
                                            const std::string& name) {
  CRAC_ASSIGN_OR_RETURN(auto merge, registry.open_merged(name));
  CRAC_ASSIGN_OR_RETURN(const std::uint64_t size, merge.size());
  ckpt::MemorySink sink;
  CRAC_RETURN_IF_ERROR(merge.write(sink));
  if (sink.bytes_written() != size) {
    return Internal("merge wrote " + std::to_string(sink.bytes_written()) +
                    " bytes but planned " + std::to_string(size));
  }
  return std::move(sink).take();
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(RegistryDeltaTest, MergeMatchesLocalMaterializer) {
  // The same chain on disk (parent paths) and in the registry (parent ids)
  // must fold to the same full image, and that image's arena must equal
  // the patch mirror.
  const std::string base_path = ::testing::TempDir() + "/reg_delta_base.img";
  const std::string d1_path = ::testing::TempDir() + "/reg_delta_d1.img";
  const std::string d2_path = ::testing::TempDir() + "/reg_delta_d2.img";
  DeltaFamily fam = build_delta_family(base_path, d1_path);
  write_file_bytes(base_path, fam.base);
  write_file_bytes(d1_path, fam.d1);
  write_file_bytes(d2_path, fam.d2);

  auto local = ckpt::materialize_image_chain(d2_path);
  ASSERT_TRUE(local.ok()) << local.status().to_string();

  // PUT leaf-first to prove edges resolve as parents arrive, not only
  // child-after-parent.
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "d2", fam.d2);
  put_bytes_inproc(registry, "d1", fam.d1);
  put_bytes_inproc(registry, "base", fam.base);

  auto served = merged_bytes(registry, "d2");
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  EXPECT_EQ(*served, *local);

  auto reader = ckpt::ImageReader::from_bytes(std::vector<std::byte>(*served));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_FALSE(reader->is_delta());
  const auto* arena =
      reader->find(SectionType::kDeviceBuffers, "device-arena");
  ASSERT_NE(arena, nullptr);
  auto payload = reader->read_section(*arena);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, fam.leaf_arena);

  // A non-delta name merges to its own bytes verbatim; open() on a delta
  // name still serves the delta bytes exactly as PUT.
  auto base_full = merged_bytes(registry, "base");
  ASSERT_TRUE(base_full.ok());
  EXPECT_EQ(*base_full, fam.base);
  auto d2_source = registry.open("d2");
  ASSERT_TRUE(d2_source.ok());
  EXPECT_EQ((*d2_source)->size(), fam.d2.size());

  // Listing carries the chain topology.
  for (const ImageInfo& info : registry.list()) {
    if (info.name == "d2") {
      EXPECT_TRUE(info.delta);
      EXPECT_EQ(info.parent_id, "d1-id");
    } else if (info.name == "base") {
      EXPECT_FALSE(info.delta);
    }
  }
}

TEST(RegistryDeltaTest, ParentWithLiveChildrenIsPinned) {
  DeltaFamily fam = build_delta_family();
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "base", fam.base);
  put_bytes_inproc(registry, "d1", fam.d1);

  // Evict, remove, and replace of the parent are all refused while the
  // child's edge is resolved — any of them would orphan the chain on a
  // durable restart.
  Status evicted = registry.evict("base");
  EXPECT_EQ(evicted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(evicted.message().find("delta children"), std::string::npos)
      << evicted.to_string();
  EXPECT_EQ(registry.remove("base").code(),
            StatusCode::kFailedPrecondition);
  {
    auto sink = registry.begin_put("base");
    ASSERT_TRUE(feed(*sink, build_full_image("other-id",
                                             pattern_payload(kArenaBytes, 50)))
                    .ok());
    ASSERT_TRUE(sink->close().ok());
    EXPECT_EQ(registry.commit(*sink).code(), StatusCode::kFailedPrecondition);
  }

  // Child gone -> parent unpinned.
  ASSERT_TRUE(registry.evict("d1").ok());
  EXPECT_TRUE(registry.evict("base").ok());
  EXPECT_TRUE(registry.list().empty());
}

TEST(RegistryDeltaTest, OrphanDeltaMergeFailsNamed) {
  DeltaFamily fam = build_delta_family();
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "d1", fam.d1);

  auto folded = merged_bytes(registry, "d1");
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(folded.status().message().find("was never PUT"),
            std::string::npos)
      << folded.status().to_string();
  EXPECT_NE(folded.status().message().find("base-id"), std::string::npos)
      << folded.status().to_string();

  // The delta bytes themselves still serve and list.
  auto source = registry.open("d1");
  ASSERT_TRUE(source.ok());
  auto listing = registry.list();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_TRUE(listing[0].delta);

  // Once the parent arrives the same chain folds fine.
  put_bytes_inproc(registry, "base", fam.base);
  auto again = merged_bytes(registry, "d1");
  EXPECT_TRUE(again.ok()) << again.status().to_string();
}

TEST(RegistryDeltaTest, RandomChainsMatchTheReferenceFold) {
  // Chains of depth 1-4 over every codec, PUT leaf-first so edges resolve
  // as parents arrive: the registry's merge must equal the whole-image
  // fold byte for byte.
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto chain =
        ckpt::testlib::build_chain(ckpt::testlib::random_chain_case(seed));
    auto want = ckpt::testlib::reference_fold(chain);
    ASSERT_TRUE(want.ok()) << want.status().to_string();
    CheckpointRegistry registry;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      put_bytes_inproc(registry, "link-" + std::to_string(i), chain[i]);
    }
    auto merged = merged_bytes(registry, "link-0");
    ASSERT_TRUE(merged.ok()) << merged.status().to_string();
    EXPECT_TRUE(*merged == *want) << merged->size() << " vs " << want->size();
  }
}

TEST(RegistryDeltaTest, ConcurrentMergedGetsSeeIdenticalBytes) {
  // The delta twin of ConcurrentFanOutReadersSeeIdenticalBytes: merges of
  // one chain running at once share its StoredImages and chunk payloads.
  DeltaFamily fam = build_delta_family();
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "base", fam.base);
  put_bytes_inproc(registry, "d1", fam.d1);
  put_bytes_inproc(registry, "d2", fam.d2);
  auto want = ckpt::testlib::reference_fold({fam.d2, fam.d1, fam.base});
  ASSERT_TRUE(want.ok()) << want.status().to_string();

  constexpr int kGetters = 4;
  std::vector<std::vector<std::byte>> got(kGetters);
  std::vector<std::thread> getters;
  for (int g = 0; g < kGetters; ++g) {
    getters.emplace_back([&registry, &got, g] {
      auto bytes = merged_bytes(registry, "d2");
      ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
      got[g] = std::move(*bytes);
    });
  }
  for (auto& t : getters) t.join();
  for (int g = 0; g < kGetters; ++g) EXPECT_EQ(got[g], *want);
}

TEST(RegistryDeltaTest, ChainDepthIsCappedByName) {
  // 16 links merge; a 17th is refused by name, as the fold refused it.
  const auto link = [](int i) {
    const std::vector<ckpt::testlib::DeltaEntry> es = {
        {static_cast<std::uint64_t>(i % 16), pattern_payload(kGranule, i)}};
    return ckpt::testlib::chain_image(
        "deep-" + std::to_string(i), "deep-" + std::to_string(i - 1), "",
        Codec::kStore, kGranule,
        {{SectionType::kDeltaChunks, "device-arena",
          ckpt::testlib::delta_body(SectionType::kDeviceBuffers, kGranule,
                                    kArenaBytes, es)}});
  };
  CheckpointRegistry registry;
  std::vector<std::vector<std::byte>> chain = {
      build_full_image("deep-0", pattern_payload(kArenaBytes, 70))};
  put_bytes_inproc(registry, "deep-0", chain.back());
  for (int i = 1; i <= 16; ++i) {
    chain.insert(chain.begin(), link(i));
    put_bytes_inproc(registry, "deep-" + std::to_string(i), chain.front());
  }
  chain.erase(chain.begin());  // deep-15 is the deepest mergeable leaf
  auto want = ckpt::testlib::reference_fold(chain);
  ASSERT_TRUE(want.ok()) << want.status().to_string();
  auto merged = merged_bytes(registry, "deep-15");
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_EQ(*merged, *want);

  auto over = registry.open_merged("deep-16");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(over.status().message().find("exceeds 16 images"),
            std::string::npos)
      << over.status().to_string();
}

TEST(RegistryDeltaTest, HostileDeltaRefusedBeforeAnyByte) {
  // The registry's merge keeps the fold's checks, codes and wording.
  const auto base = build_full_image("hostile-base",
                                     pattern_payload(kArenaBytes, 71));
  const std::vector<ckpt::testlib::DeltaEntry> backwards = {
      {3, pattern_payload(kGranule, 72)}, {2, pattern_payload(kGranule, 73)}};
  const auto delta = ckpt::testlib::chain_image(
      "hostile-d1", "hostile-base", "", Codec::kStore, kGranule,
      {{SectionType::kDeltaChunks, "device-arena",
        ckpt::testlib::delta_body(SectionType::kDeviceBuffers, kGranule,
                                  kArenaBytes, backwards)}});
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "base", base);
  put_bytes_inproc(registry, "d1", delta);
  auto merge = registry.open_merged("d1");
  ASSERT_FALSE(merge.ok());
  EXPECT_EQ(merge.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(merge.status().message().find("entries out of order"),
            std::string::npos)
      << merge.status().to_string();
}

// A chain whose base "arena" spans four 4 KiB chunks: d1 patches part of
// chunk 0, d2 overwrites all of chunk 1. Ingested into an empty slab, base
// first, chunk 1's payload is the slab's third record (after the base's
// image-id chunk and arena chunk 0).
struct DamageFamily {
  std::vector<std::byte> base, d1, d2;
};
constexpr std::size_t kDamageChunk = 4 << 10;
constexpr int kDamagedRecord = 2;

DamageFamily build_damage_family() {
  using ckpt::testlib::chain_image;
  using ckpt::testlib::delta_body;
  DamageFamily f;
  f.base = chain_image("dmg-base", "", "", Codec::kStore, kDamageChunk,
                       {{SectionType::kDeviceBuffers, "arena",
                         ckpt::testlib::random_bytes(4 * kDamageChunk, 90)}});
  f.d1 = chain_image(
      "dmg-d1", "dmg-base", "", Codec::kStore, kDamageChunk,
      {{SectionType::kDeltaChunks, "arena",
        delta_body(SectionType::kDeviceBuffers, 1024, 4 * kDamageChunk,
                   {{1, ckpt::testlib::random_bytes(1024, 91)}})}});
  f.d2 = chain_image(
      "dmg-d2", "dmg-d1", "", Codec::kStore, kDamageChunk,
      {{SectionType::kDeltaChunks, "arena",
        delta_body(SectionType::kDeviceBuffers, kDamageChunk,
                   4 * kDamageChunk,
                   {{1, ckpt::testlib::random_bytes(kDamageChunk, 92)}})}});
  return f;
}

// Flips one payload byte of the slab's `record`-th record, in file order.
void flip_slab_payload(const std::string& dir, int record) {
  const std::string path = dir + "/chunks.slab";
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  off_t at = kSlabFileHeaderBytes;
  for (int r = 0; r < record; ++r) {
    std::uint64_t stored = 0;  // the record header's stored size field
    ASSERT_EQ(::pread(fd, &stored, sizeof(stored), at + 20), 8);
    at += static_cast<off_t>(kSlabRecordHeaderBytes + stored);
  }
  at += kSlabRecordHeaderBytes + 5;
  unsigned char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, at), 1);
  b ^= 0x5A;
  ASSERT_EQ(::pwrite(fd, &b, 1, at), 1);
  ::close(fd);
}

std::string fresh_registry_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "crac_registry_test_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RegistryDeltaTest, DamagedBaseChunkFailsTheMergeNamingIt) {
  // The damaged chunk is one d2 overwrites in full, so the merge never
  // reads it; every link's payloads are still checked before planning.
  DamageFamily fam = build_damage_family();
  CheckpointRegistry::Options opts;
  opts.dir = fresh_registry_dir("damaged_base");
  {
    CheckpointRegistry registry(opts);
    ASSERT_TRUE(registry.recover().ok());
    put_bytes_inproc(registry, "base", fam.base);
    put_bytes_inproc(registry, "d1", fam.d1);
    put_bytes_inproc(registry, "d2", fam.d2);
    ASSERT_TRUE(merged_bytes(registry, "d2").ok());
  }
  ASSERT_NO_FATAL_FAILURE(flip_slab_payload(opts.dir, kDamagedRecord));
  CheckpointRegistry registry(opts);
  ASSERT_TRUE(registry.recover().ok());
  auto merge = registry.open_merged("d2");
  ASSERT_FALSE(merge.ok());
  EXPECT_EQ(merge.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(merge.status().message().find(
                "raw size " + std::to_string(kDamageChunk) + ", raw crc"),
            std::string::npos)
      << merge.status().to_string();
  std::filesystem::remove_all(opts.dir);
}

// ---- Capacity eviction ----

TEST(RegistryEvictionTest, LeastRecentlyUsedImageEvictedAtCapacity) {
  CheckpointRegistry::Options opts;
  opts.capacity_bytes = 100 << 10;
  CheckpointRegistry registry(opts);

  // Three ~41 KiB images of disjoint content: two fit, three don't.
  const auto a = build_full_image("ev-a", pattern_payload(40 << 10, 60));
  const auto b = build_full_image("ev-b", pattern_payload(40 << 10, 61));
  const auto c = build_full_image("ev-c", pattern_payload(40 << 10, 62));

  put_bytes_inproc(registry, "a", a);
  put_bytes_inproc(registry, "b", b);
  EXPECT_EQ(registry.stats().images, 2u);

  // Freshen "a": the LRU victim of the next eviction must be "b".
  { auto source = registry.open("a"); ASSERT_TRUE(source.ok()); }

  put_bytes_inproc(registry, "c", c);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.images, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.store.stored_bytes, opts.capacity_bytes);
  std::vector<std::string> names;
  for (const ImageInfo& info : registry.list()) names.push_back(info.name);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "c"}));
}

TEST(RegistryEvictionTest, OpenReaderPinsImageAgainstEviction) {
  CheckpointRegistry::Options opts;
  opts.capacity_bytes = 60 << 10;
  CheckpointRegistry registry(opts);

  const auto a = build_full_image("pin-a", pattern_payload(40 << 10, 63));
  const auto b = build_full_image("pin-b", pattern_payload(40 << 10, 64));

  put_bytes_inproc(registry, "a", a);
  auto pinned = registry.open("a");
  ASSERT_TRUE(pinned.ok());

  // "b" blows the budget but the only candidate has a live GET session:
  // the registry runs over budget rather than yanking bytes mid-stream.
  put_bytes_inproc(registry, "b", b);
  EXPECT_EQ(registry.stats().images, 2u);
  EXPECT_EQ(registry.stats().evictions, 0u);
  EXPECT_GT(registry.stats().store.stored_bytes, opts.capacity_bytes);

  // Direct evict of a streaming image is refused by name too.
  Status evicted = registry.evict("a");
  EXPECT_EQ(evicted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(evicted.message().find("live GET"), std::string::npos)
      << evicted.to_string();

  // Reader gone -> the next commit reclaims space normally. The budget
  // only fits one image, so both older ones go (never the fresh commit).
  pinned->reset();
  const auto c = build_full_image("pin-c", pattern_payload(40 << 10, 65));
  put_bytes_inproc(registry, "c", c);
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.images, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.store.stored_bytes, opts.capacity_bytes);
  ASSERT_EQ(registry.list().size(), 1u);
  EXPECT_EQ(registry.list()[0].name, "c");
}

TEST(RegistryClientTest, HostileListCountIsCorrupt) {
  // A peer answering LIST with a count of 2^32-1 and no entries: the client
  // reserves only what the payload could hold and fails by name.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t hostile = 0xFFFFFFFFu;
  proxy::ResponseHeader resp{};
  resp.payload_bytes = sizeof(hostile);
  ASSERT_EQ(::write(fds[1], &resp, sizeof(resp)),
            static_cast<ssize_t>(sizeof(resp)));
  ASSERT_EQ(::write(fds[1], &hostile, sizeof(hostile)),
            static_cast<ssize_t>(sizeof(hostile)));
  RegistryClient client(fds[0]);
  auto list = client.list();
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kCorrupt)
      << list.status().to_string();
  ::close(fds[1]);
}

TEST(RegistryClientTest, AnnouncedSizeMustMatchTheStream) {
  // A peer announcing 2^62 bytes, then one byte too few, ahead of a small
  // valid stream: get_bytes never reserves past its cap and fails by name.
  const std::vector<std::byte> image = build_image(Codec::kStore, 64 << 10);
  for (const std::uint64_t announced :
       {std::uint64_t{1} << 62, std::uint64_t{image.size() - 1}}) {
    SCOPED_TRACE("announced " + std::to_string(announced));
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    proxy::ResponseHeader resp{};
    resp.r0 = announced;
    ASSERT_EQ(::write(fds[1], &resp, sizeof(resp)),
              static_cast<ssize_t>(sizeof(resp)));
    {
      ckpt::SocketSink sink(fds[1], "test get stream");
      ASSERT_TRUE(sink.write(image.data(), image.size()).ok());
      ASSERT_TRUE(sink.close().ok());
    }
    RegistryClient client(fds[0]);
    auto got = client.get_bytes("sized");
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorrupt)
        << got.status().to_string();
    EXPECT_NE(got.status().message().find("the server announced " +
                                          std::to_string(announced)),
              std::string::npos)
        << got.status().to_string();
    ::close(fds[1]);
  }
}

// ---- Forked server suite (excluded from TSan runs) ----

RegistryClient connect_client(const RegistryHost& host) {
  auto fd = host.connect();
  EXPECT_TRUE(fd.ok()) << fd.status().to_string();
  return RegistryClient(fd.ok() ? *fd : -1);
}

TEST(RegistryHostTest, PutGetListStat) {
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();

  const std::vector<std::byte> image = build_image(Codec::kStore, 2 << 20);
  RegistryClient client = connect_client(*host);
  ASSERT_TRUE(client.put_bytes("fleet/job-0", image).ok());

  auto list = client.list();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "fleet/job-0");
  EXPECT_EQ((*list)[0].image_bytes, image.size());

  auto got = client.get_bytes("fleet/job-0");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, image);

  auto missing = client.get_bytes("fleet/absent");
  EXPECT_FALSE(missing.ok());
  // The not-found answer is in-band: the same channel keeps working.
  auto stat = client.stat();
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->images, 1u);
  EXPECT_GT(stat->unique_chunks, 0u);
}

TEST(RegistryHostTest, RejectedPutLeavesChannelUsable) {
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);

  std::vector<std::byte> corrupt = build_image(Codec::kStore, 1 << 20);
  corrupt[corrupt.size() - 32] ^= std::byte{0x55};
  EXPECT_FALSE(client.put_bytes("bad", corrupt).ok());

  // The server drained the whole stream and answered in-band; a good PUT
  // on the same channel succeeds and the bad one left nothing behind.
  const std::vector<std::byte> image = build_image(Codec::kStore, 1 << 20);
  ASSERT_TRUE(client.put_bytes("good", image).ok());
  auto list = client.list();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "good");
}

TEST(RegistryHostTest, OverCapSectionNameRejectedInBand) {
  // The registry ingests names under the same cap the image reader
  // enforces, so it never commits an image every later restore refuses.
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  EXPECT_FALSE(
      client.put_bytes("long-name", ckpt::testlib::over_cap_name_image()).ok());

  // Refused in-band: the same channel takes a good PUT, and the refused
  // image left nothing behind.
  const std::vector<std::byte> image = build_image(Codec::kStore, 1 << 20);
  ASSERT_TRUE(client.put_bytes("good", image).ok());
  auto list = client.list();
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 1u);
  EXPECT_EQ((*list)[0].name, "good");
}

TEST(RegistryHostTest, PutRefusesExactlyWhatTheReaderRefusesInBand) {
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  const std::vector<std::byte> good = build_image(Codec::kStore, 64 << 10);
  for (const IngestCase& c : ingest_cases()) {
    SCOPED_TRACE(c.what);
    const Status put = client.put_bytes("parity", c.image);
    EXPECT_EQ(put.ok(), reader_accepts(c.image)) << put.to_string();
    if (!put.ok()) {
      // Refused in-band as kRejected, not by dropping the connection.
      EXPECT_EQ(put.code(), StatusCode::kInvalidArgument) << put.to_string();
      EXPECT_NE(put.message().find("rejected"), std::string::npos)
          << put.to_string();
    }
    // The same channel keeps working.
    ASSERT_TRUE(client.put_bytes("good", good).ok());
  }
}

TEST(RegistryHostTest, ConcurrentGetFanOut) {
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();

  const std::vector<std::byte> image = build_image(Codec::kLz, 4 << 20);
  {
    RegistryClient put_client = connect_client(*host);
    ASSERT_TRUE(put_client.put_bytes("shared", image).ok());
  }

  constexpr int kEndpoints = 3;
  std::vector<std::thread> getters;
  std::vector<std::vector<std::byte>> got(kEndpoints);
  for (int e = 0; e < kEndpoints; ++e) {
    getters.emplace_back([&host, &got, e] {
      RegistryClient client = connect_client(*host);
      auto bytes = client.get_bytes("shared");
      ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
      got[e] = std::move(*bytes);
    });
  }
  for (auto& t : getters) t.join();
  for (int e = 0; e < kEndpoints; ++e) EXPECT_EQ(got[e], image);
}

TEST(RegistryHostTest, DeltaGetServesMaterializedChain) {
  // GET of a delta serves the folded full image — receivers always restore
  // a restorable image, never raw delta bytes.
  DeltaFamily fam = build_delta_family();
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  ASSERT_TRUE(client.put_bytes("base", fam.base).ok());
  ASSERT_TRUE(client.put_bytes("d1", fam.d1).ok());
  ASSERT_TRUE(client.put_bytes("d2", fam.d2).ok());

  auto folded = client.get_bytes("d2");
  ASSERT_TRUE(folded.ok()) << folded.status().to_string();
  auto reader =
      ckpt::ImageReader::from_bytes(std::vector<std::byte>(*folded));
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_FALSE(reader->is_delta());
  const auto* arena =
      reader->find(SectionType::kDeviceBuffers, "device-arena");
  ASSERT_NE(arena, nullptr);
  auto payload = reader->read_section(*arena);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(*payload, fam.leaf_arena);

  // The listing carries chain topology over the wire.
  auto list = client.list();
  ASSERT_TRUE(list.ok());
  for (const ImageInfo& info : *list) {
    if (info.name == "d2") {
      EXPECT_TRUE(info.delta);
      EXPECT_EQ(info.parent_id, "d1-id");
    } else if (info.name == "base") {
      EXPECT_FALSE(info.delta);
      EXPECT_TRUE(info.parent_id.empty());
    }
  }
}

TEST(RegistryHostTest, OrphanDeltaGetFailsNamedOverUsableConnection) {
  DeltaFamily fam = build_delta_family();
  auto host = RegistryHost::spawn();
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  ASSERT_TRUE(client.put_bytes("d1", fam.d1).ok());

  auto folded = client.get_bytes("d1");
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(folded.status().message().find("was never PUT"),
            std::string::npos)
      << folded.status().to_string();

  // The refusal was in-band: the same channel keeps serving, and once the
  // parent arrives the same GET folds.
  ASSERT_TRUE(client.put_bytes("base", fam.base).ok());
  auto again = client.get_bytes("d1");
  EXPECT_TRUE(again.ok()) << again.status().to_string();
}

TEST(RegistryHostTest, DamagedBaseChunkRefusesDeltaGetInBand) {
  DamageFamily fam = build_damage_family();
  const std::vector<std::byte> other = build_image(Codec::kStore, 64 << 10);
  RegistryHostOptions opts;
  opts.dir = fresh_registry_dir("damaged_host");
  {
    auto host = RegistryHost::spawn(opts);
    ASSERT_TRUE(host.ok()) << host.status().to_string();
    RegistryClient client = connect_client(*host);
    ASSERT_TRUE(client.put_bytes("base", fam.base).ok());
    ASSERT_TRUE(client.put_bytes("d1", fam.d1).ok());
    ASSERT_TRUE(client.put_bytes("d2", fam.d2).ok());
    ASSERT_TRUE(client.put_bytes("other", other).ok());
    host->shutdown();
  }
  ASSERT_NO_FATAL_FAILURE(flip_slab_payload(opts.dir, kDamagedRecord));

  auto host = RegistryHost::spawn(opts);
  ASSERT_TRUE(host.ok()) << host.status().to_string();
  RegistryClient client = connect_client(*host);
  auto folded = client.get_bytes("d2");
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(folded.status().code(), StatusCode::kCorrupt)
      << folded.status().to_string();
  // Refused before any stream started: the same channel serves a full GET.
  EXPECT_TRUE(client.usable());
  auto got = client.get_bytes("other");
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(*got, other);
  host->shutdown();
  std::filesystem::remove_all(opts.dir);
}

}  // namespace
}  // namespace crac::registry
