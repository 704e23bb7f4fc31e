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

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
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

void write_file_bytes(const std::string& path,
                      const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(RegistryDeltaTest, MaterializeFoldsChainLikeLocalMaterializer) {
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

  auto served = registry.materialize("d2");
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

  // A non-delta name materializes to its own bytes verbatim; open() on a
  // delta name still serves the delta bytes exactly as PUT.
  auto base_full = registry.materialize("base");
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

TEST(RegistryDeltaTest, OrphanDeltaMaterializeFailsNamed) {
  DeltaFamily fam = build_delta_family();
  CheckpointRegistry registry;
  put_bytes_inproc(registry, "d1", fam.d1);

  auto folded = registry.materialize("d1");
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
  auto again = registry.materialize("d1");
  EXPECT_TRUE(again.ok()) << again.status().to_string();
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

}  // namespace
}  // namespace crac::registry
