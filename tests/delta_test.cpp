// Incremental (delta) checkpoint tests: DirtyTracker change-block
// semantics, the v4 delta image format gates, chain
// materialization/restore byte-identity, and the checkpoint_delta verb's
// preconditions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/delta.hpp"
#include "ckpt/dirty.hpp"
#include "ckpt/image.hpp"
#include "ckpt/sink.hpp"
#include "ckpt/source.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "crac/context.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
namespace testlib = ckpt::testlib;

constexpr std::size_t kChunk = 64 << 10;  // tracker granule in these tests

// ---------------------------------------------------------------------------
// DirtyTracker units
// ---------------------------------------------------------------------------

TEST(DirtyTrackerTest, FreshTrackerIsAllDirty) {
  // A capture that never happened cannot have clean chunks relative to it.
  ckpt::DirtyTracker t(0x10000, 16 * kChunk, kChunk);
  EXPECT_EQ(t.chunk_count(), 16u);
  EXPECT_EQ(t.dirty_chunks(0), 16u);
  EXPECT_TRUE(t.any_dirty(reinterpret_cast<void*>(0x10000), 16 * kChunk, 0));
}

TEST(DirtyTrackerTest, AdvanceSeparatesCaptures) {
  ckpt::DirtyTracker t(0x10000, 16 * kChunk, kChunk);
  const std::uint64_t gen = t.advance();
  EXPECT_EQ(t.dirty_chunks(gen), 0u);
  EXPECT_FALSE(t.any_dirty(reinterpret_cast<void*>(0x10000), 16 * kChunk,
                           gen));
  // One byte written into chunk 3 dirties exactly that chunk.
  t.mark(reinterpret_cast<void*>(0x10000 + 3 * kChunk + 17), 1);
  EXPECT_EQ(t.dirty_chunks(gen), 1u);
  // ... but the pre-advance capture point still sees everything dirty.
  EXPECT_EQ(t.dirty_chunks(0), 16u);
}

TEST(DirtyTrackerTest, ForEachDirtyYieldsMaximalClampedRuns) {
  ckpt::DirtyTracker t(0x10000, 16 * kChunk, kChunk);
  const std::uint64_t gen = t.advance();
  // Chunks 2,3 (adjacent -> one run) and chunk 7 (second run). The write
  // into chunk 7 straddles its tail to prove span-overlap marking.
  t.mark(reinterpret_cast<void*>(0x10000 + 2 * kChunk), 2 * kChunk);
  t.mark(reinterpret_cast<void*>(0x10000 + 8 * kChunk - 8), 8);
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  t.for_each_dirty(reinterpret_cast<void*>(0x10000), 16 * kChunk, gen,
                   [&](std::size_t off, std::size_t len) {
                     runs.emplace_back(off, len);
                   });
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], std::make_pair(std::size_t{2 * kChunk},
                                    std::size_t{2 * kChunk}));
  EXPECT_EQ(runs[1],
            std::make_pair(std::size_t{7 * kChunk}, std::size_t{kChunk}));
  // A query window that ends mid-chunk clamps the run to the window.
  runs.clear();
  t.for_each_dirty(reinterpret_cast<void*>(0x10000 + 2 * kChunk), kChunk / 2,
                   gen, [&](std::size_t off, std::size_t len) {
                     runs.emplace_back(off, len);
                   });
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::size_t{0}, std::size_t{kChunk / 2}));
}

TEST(DirtyTrackerTest, MarksOutsideSpanAreClampedAway) {
  ckpt::DirtyTracker t(0x10000, 4 * kChunk, kChunk);
  const std::uint64_t gen = t.advance();
  t.mark(reinterpret_cast<void*>(0x10000 + 64 * kChunk), kChunk);  // beyond
  t.mark(reinterpret_cast<void*>(0x1000), 0x1000);                 // before
  t.mark(reinterpret_cast<void*>(0x10000), 0);                     // empty
  EXPECT_EQ(t.dirty_chunks(gen), 0u);
  // A mark straddling the tail dirties only the in-span chunks.
  t.mark(reinterpret_cast<void*>(0x10000 + 3 * kChunk + 5), 64 * kChunk);
  EXPECT_EQ(t.dirty_chunks(gen), 1u);
}

TEST(DirtyTrackerTest, NewEpochChangesIdentityAndMarksAll) {
  ckpt::DirtyTracker t(0x10000, 8 * kChunk, kChunk);
  const std::uint64_t gen = t.advance();
  const std::string before = t.epoch();
  EXPECT_FALSE(before.empty());
  EXPECT_EQ(t.dirty_chunks(gen), 0u);
  t.new_epoch();
  EXPECT_NE(t.epoch(), before);
  // Everything is dirty again: the old mark history is meaningless.
  EXPECT_EQ(t.dirty_chunks(gen), 8u);
}

TEST(DirtyTrackerTest, NewEpochFloorCoversEveryEarlierCapture) {
  ckpt::DirtyTracker t(0x10000, 16 * kChunk, kChunk);
  auto at = [](std::size_t chunk) {
    return reinterpret_cast<void*>(0x10000 + chunk * kChunk);
  };
  const std::uint64_t g1 = t.advance();
  t.mark(at(2), 1);
  const std::uint64_t g2 = t.advance();
  t.mark(at(5), 1);
  EXPECT_EQ(t.dirty_chunks(g1), 2u);
  EXPECT_EQ(t.dirty_chunks(g2), 1u);

  // After the reset every chunk is dirty since every earlier capture, and
  // a range query sees one run over the whole span.
  t.new_epoch();
  for (const std::uint64_t g : {std::uint64_t{0}, g1, g2}) {
    EXPECT_EQ(t.dirty_chunks(g), 16u) << "since " << g;
    EXPECT_TRUE(t.any_dirty(at(0), kChunk, g)) << "since " << g;
  }
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  auto collect = [&](std::size_t off, std::size_t len) {
    runs.emplace_back(off, len);
  };
  t.for_each_dirty(at(0), 16 * kChunk, g2, collect);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::size_t{0}, std::size_t{16 * kChunk}));

  // Marks after a later capture still separate: the floor sits at the
  // reset's generation, which that capture closes.
  const std::uint64_t g3 = t.advance();
  EXPECT_EQ(t.dirty_chunks(g3), 0u);
  t.mark(at(9), 1);
  EXPECT_EQ(t.dirty_chunks(g3), 1u);
  EXPECT_FALSE(t.any_dirty(at(2), kChunk, g3));
  EXPECT_FALSE(t.any_dirty(at(5), kChunk, g3));
  runs.clear();
  t.for_each_dirty(at(0), 16 * kChunk, g3, collect);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], std::make_pair(std::size_t{9 * kChunk}, kChunk));
  EXPECT_EQ(t.dirty_chunks(g2), 16u);
}

TEST(DirtyTrackerTest, HugeSpanCostsNothingUntilMarked) {
  // 64 GiB at 64 KiB chunks is an 8 MiB generation table. Building the
  // tracker, resetting its epoch and one mark touch one page of it.
  if (testlib::kSanitizedAllocator) {
    GTEST_SKIP() << "RSS bounds need the plain malloc";
  }
  constexpr std::uintptr_t kBase = 0x10000;
  constexpr std::size_t kSpan = std::size_t{64} << 30;
  const std::uint64_t before = testlib::vm_rss_bytes();
  ckpt::DirtyTracker t(kBase, kSpan, kChunk);
  const std::uint64_t gen = t.advance();
  t.new_epoch();
  t.mark(reinterpret_cast<void*>(kBase + kSpan / 2), 1);
  const std::uint64_t after = testlib::vm_rss_bytes();
  ASSERT_GT(before, 0u);
  EXPECT_LT(after - std::min(after, before), std::uint64_t{256} << 10)
      << "VmRSS grew from " << before << " to " << after << " bytes";
  EXPECT_EQ(t.chunk_count(), kSpan / kChunk);
  EXPECT_EQ(t.dirty_chunks(gen), t.chunk_count());
}

TEST(DirtyTrackerTest, ConcurrentMarksSurviveAdvanceAndNewEpoch) {
  // Writers keep marking while the capture side alternates advance() and
  // new_epoch(). Whatever the interleaving, a mark made after the last
  // advance() reads dirty since the generation that call returned.
  constexpr std::uintptr_t kBase = 0x10000;
  constexpr std::size_t kChunks = 1024;
  constexpr std::size_t kLateMarks = 256;
  constexpr int kWriters = 4;
  ckpt::DirtyTracker t(kBase, kChunks * kChunk, kChunk);
  std::atomic<bool> captured{false};
  std::vector<std::vector<std::size_t>> late(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(100 + w);
      while (late[w].size() < kLateMarks) {
        const bool after = captured.load(std::memory_order_acquire);
        const std::size_t c = rng.next_u64() % kChunks;
        t.mark(reinterpret_cast<void*>(kBase + c * kChunk +
                                       rng.next_u64() % kChunk),
               1);
        if (after) late[w].push_back(c);
      }
    });
  }
  for (int round = 0; round < 500; ++round) {
    t.advance();
    t.new_epoch();
  }
  const std::uint64_t g = t.advance();
  captured.store(true, std::memory_order_release);
  for (auto& th : writers) th.join();
  for (const auto& chunks : late) {
    ASSERT_EQ(chunks.size(), kLateMarks);
    for (const std::size_t c : chunks) {
      EXPECT_TRUE(t.any_dirty(reinterpret_cast<void*>(kBase + c * kChunk),
                              kChunk, g))
          << "chunk " << c << " marked after the capture at " << g;
    }
  }
}

TEST(DirtyTrackerTest, RandomHexIdsAreWellFormedAndDistinct) {
  std::set<std::string> ids;
  for (int i = 0; i < 16; ++i) {
    const std::string id = ckpt::random_hex_id();
    EXPECT_FALSE(id.empty());
    for (char c : id) {
      EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
    }
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 16u);
}

// ---------------------------------------------------------------------------
// Format gates
// ---------------------------------------------------------------------------

TEST(DeltaFormatTest, ParentOptionsProduceAV4ImageWithParentHeader) {
  ckpt::MemorySink sink;
  ckpt::ImageWriter::Options wopts;
  wopts.parent_id = "cafebabecafebabe";
  wopts.parent_path = "/tmp/base.crac";
  ckpt::ImageWriter w(&sink, wopts);
  w.add_section(ckpt::SectionType::kMetadata, "note",
                testlib::golden_payload(64));
  ASSERT_TRUE(w.finish().ok());
  ASSERT_TRUE(sink.close().ok());

  auto reader = ckpt::ImageReader::from_bytes(std::move(sink).take());
  ASSERT_TRUE(reader.ok()) << reader.status().to_string();
  EXPECT_EQ(reader->version(), 4u);
  EXPECT_TRUE(reader->is_delta());
  EXPECT_EQ(reader->parent_id(), "cafebabecafebabe");
  EXPECT_EQ(reader->parent_path(), "/tmp/base.crac");
}

TEST(DeltaFormatTest, DeltaSectionInNonDeltaImageIsRejectedByName) {
  // A kDeltaChunks section is only meaningful against a named parent. A
  // writer that never set parent_id produces a v2 image; sneaking the
  // section type in must fail at open, not merge garbage at restore.
  ckpt::MemorySink sink;
  ckpt::ImageWriter w(&sink, {});
  w.add_section(ckpt::SectionType::kDeltaChunks, "allocations",
                testlib::golden_payload(256));
  ASSERT_TRUE(w.finish().ok());
  ASSERT_TRUE(sink.close().ok());

  auto reader = ckpt::ImageReader::from_bytes(std::move(sink).take());
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(reader.status().message().find("non-delta"), std::string::npos)
      << reader.status().to_string();
}

TEST(DeltaFormatTest, FutureImageVersionIsRejectedByName) {
  ckpt::MemorySink sink;
  ckpt::ImageWriter w(&sink, {});
  w.add_section(ckpt::SectionType::kMetadata, "note",
                testlib::golden_payload(64));
  ASSERT_TRUE(w.finish().ok());
  ASSERT_TRUE(sink.close().ok());
  std::vector<std::byte> bytes = std::move(sink).take();
  // Version lives in the u32 right after the 8-byte magic.
  ASSERT_GE(bytes.size(), 12u);
  const std::uint32_t v5 = 5;
  std::memcpy(bytes.data() + 8, &v5, sizeof(v5));

  auto reader = ckpt::ImageReader::from_bytes(std::move(bytes));
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("unsupported image version"),
            std::string::npos)
      << reader.status().to_string();
}

std::string golden_path(const char* name) {
  return std::string(CRAC_TEST_DATA_DIR) + "/" + name;
}

TEST(DeltaFormatTest, GoldenFixturesStillOpenAsFullImages) {
  // The delta work must not disturb frozen on-disk formats: both golden
  // fixtures open, read back, and are not deltas.
  for (const char* name : {"golden_v1.crac", "golden_v2.crac"}) {
    auto reader = ckpt::ImageReader::from_file(golden_path(name));
    ASSERT_TRUE(reader.ok()) << name << ": " << reader.status().to_string();
    EXPECT_FALSE(reader->is_delta()) << name;
    ASSERT_FALSE(reader->sections().empty()) << name;
    auto stream = reader->open_section(reader->sections().front());
    ASSERT_TRUE(stream.ok()) << name << ": " << stream.status().to_string();
  }
}

// ---------------------------------------------------------------------------
// checkpoint_delta end to end
// ---------------------------------------------------------------------------

CracOptions test_options() {
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

std::string temp_image_path(const char* tag) {
  return ::testing::TempDir() + "/delta_test_" + tag + ".img";
}

TEST(CheckpointDeltaTest, RequiresABaseCheckpoint) {
  CracContext ctx(test_options());
  auto report = ctx.checkpoint_delta(temp_image_path("nobase"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("full checkpoint"),
            std::string::npos)
      << report.status().to_string();
}

TEST(CheckpointDeltaTest, RefusedAfterInPlaceRestart) {
  // A restore invalidates the dirty history (new tracker epoch); a delta
  // against the pre-restore base would describe memory that no longer
  // exists. The verb must refuse by name.
  const std::string base = temp_image_path("epochbase");
  CracContext ctx(test_options());
  void* dev = nullptr;
  ASSERT_EQ(ctx.api().cudaMalloc(&dev, 1 << 20), cudaSuccess);
  ASSERT_TRUE(ctx.checkpoint(base).ok());
  ASSERT_TRUE(ctx.restart_in_place(base).ok());
  auto report = ctx.checkpoint_delta(temp_image_path("epochdelta"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("restored"), std::string::npos)
      << report.status().to_string();
  std::remove(base.c_str());
}

// Shared fixture state for the chain tests: builds base -> delta1 -> delta2
// over a large device buffer, dirtying ~2% between captures, and keeps a
// host mirror of the expected final contents.
class DeltaChainTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDevBytes = 32 << 20;
  static constexpr std::size_t kIslands = 10;  // ~2% of kDevBytes in 64K units

  // Dirties kIslands spread-out 64 KiB islands with data derived from
  // `seed`, mirroring the writes into `host` (whose size is the device
  // buffer's size).
  void dirty_islands(CracContext& ctx, void* dev, std::vector<std::byte>& host,
                     std::uint64_t seed) {
    ASSERT_GE(host.size(), kIslands * kChunk);
    const std::size_t stride = host.size() / kIslands;
    for (std::size_t i = 0; i < kIslands; ++i) {
      const std::size_t off = i * stride;
      auto patch = testlib::random_bytes(kChunk, seed + i);
      ASSERT_EQ(ctx.api().cudaMemcpy(static_cast<char*>(dev) + off,
                                     patch.data(), patch.size(),
                                     cudaMemcpyHostToDevice),
                cudaSuccess);
      std::memcpy(host.data() + off, patch.data(), patch.size());
    }
    ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
  }

  void expect_device_matches(cuda::CudaApi& api, void* dev,
                             const std::vector<std::byte>& host) {
    std::vector<std::byte> out(host.size());
    ASSERT_EQ(api.cudaMemcpy(out.data(), dev, out.size(),
                             cudaMemcpyDeviceToHost),
              cudaSuccess);
    ASSERT_EQ(std::memcmp(out.data(), host.data(), host.size()), 0);
  }
};

TEST_F(DeltaChainTest, SparseDeltaIsSmallAndRestoresByteIdentical) {
  const std::string base = temp_image_path("chain_base");
  const std::string delta1 = temp_image_path("chain_d1");
  const std::string delta2 = temp_image_path("chain_d2");

  void* dev = nullptr;
  std::vector<std::byte> host = testlib::random_bytes(kDevBytes, 42);
  std::vector<std::byte> managed_host(kChunk);
  void* mng = nullptr;
  std::string base_id;
  std::string delta1_id;
  std::uint64_t full_bytes = 0;
  std::uint64_t delta_bytes = 0;
  {
    CracContext ctx(test_options());
    auto& api = ctx.api();
    ASSERT_EQ(api.cudaMalloc(&dev, kDevBytes), cudaSuccess);
    ASSERT_EQ(api.cudaMemcpy(dev, host.data(), kDevBytes,
                             cudaMemcpyHostToDevice),
              cudaSuccess);
    ASSERT_EQ(api.cudaMallocManaged(&mng, kChunk, cuda::cudaMemAttachGlobal),
              cudaSuccess);
    std::memset(mng, 0x5A, kChunk);
    std::memset(managed_host.data(), 0x5A, kChunk);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);

    auto full = ctx.checkpoint(base);
    ASSERT_TRUE(full.ok()) << full.status().to_string();
    EXPECT_FALSE(full->delta_image);
    EXPECT_FALSE(full->image_id.empty());
    base_id = full->image_id;
    full_bytes = full->image_bytes;

    // ~2% dirty -> the delta must be at most 10% of the full image. The
    // headroom absorbs the sections that always ship in full (log, upper
    // memory, managed contents, UVM state).
    dirty_islands(ctx, dev, host, 1000);
    auto d1 = ctx.checkpoint_delta(delta1);
    ASSERT_TRUE(d1.ok()) << d1.status().to_string();
    EXPECT_TRUE(d1->delta_image);
    EXPECT_TRUE(ctx.plugin().last_drain_was_delta());
    delta1_id = d1->image_id;
    delta_bytes = d1->image_bytes;
    EXPECT_LE(delta_bytes, full_bytes / 10)
        << "delta " << delta_bytes << " vs full " << full_bytes;

    // Second round: delta-of-delta, including a managed-memory change
    // (managed contents always ship full, so this must survive the chain).
    dirty_islands(ctx, dev, host, 2000);
    std::memset(mng, 0xA5, 64);
    std::memset(managed_host.data(), 0xA5, 64);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
    auto d2 = ctx.checkpoint_delta(delta2);
    ASSERT_TRUE(d2.ok()) << d2.status().to_string();
    EXPECT_TRUE(d2->delta_image);
    // Context destroyed here; restart must resolve the 3-image chain.
  }

  // Chain membership as crac_inspect reports it: newest first.
  auto chain = ckpt::describe_image_chain(delta2);
  ASSERT_TRUE(chain.ok()) << chain.status().to_string();
  ASSERT_EQ(chain->size(), 3u);
  EXPECT_TRUE((*chain)[0].delta);
  EXPECT_GE((*chain)[0].delta_sections, 1u);
  EXPECT_EQ((*chain)[0].parent_id, delta1_id);
  EXPECT_TRUE((*chain)[1].delta);
  EXPECT_EQ((*chain)[1].image_id, delta1_id);
  EXPECT_EQ((*chain)[1].parent_id, base_id);
  EXPECT_FALSE((*chain)[2].delta);
  EXPECT_EQ((*chain)[2].image_id, base_id);
  EXPECT_EQ((*chain)[2].delta_sections, 0u);

  // Restoring the newest delta materializes base+d1+d2 and must reproduce
  // the device and managed bytes exactly as they were at the d2 capture.
  auto restarted = CracContext::restart_from_image(delta2, test_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  expect_device_matches((*restarted)->api(), dev, host);
  ASSERT_EQ(std::memcmp(mng, managed_host.data(), kChunk), 0);

  std::remove(base.c_str());
  std::remove(delta1.c_str());
  std::remove(delta2.c_str());
}

TEST_F(DeltaChainTest, WrongParentFailsByNameNotGarbage) {
  const std::string base = temp_image_path("swap_base");
  const std::string delta = temp_image_path("swap_d1");

  void* dev = nullptr;
  std::vector<std::byte> host = testlib::random_bytes(kDevBytes, 7);
  {
    CracContext ctx(test_options());
    ASSERT_EQ(ctx.api().cudaMalloc(&dev, kDevBytes), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemcpy(dev, host.data(), kDevBytes,
                                   cudaMemcpyHostToDevice),
              cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(base).ok());
    dirty_islands(ctx, dev, host, 3000);
    ASSERT_TRUE(ctx.checkpoint_delta(delta).ok());
  }
  {
    // Overwrite the base with a different (valid, full) image: same path,
    // different embedded image-id. The delta must refuse to merge with it.
    CracContext other(test_options());
    void* p = nullptr;
    ASSERT_EQ(other.api().cudaMalloc(&p, 1 << 20), cudaSuccess);
    ASSERT_TRUE(other.checkpoint(base).ok());
  }

  auto restarted = CracContext::restart_from_image(delta, test_options());
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(restarted.status().message().find("parent image id"),
            std::string::npos)
      << restarted.status().to_string();

  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST_F(DeltaChainTest, RawDeltaBytesAreRefusedByRestore) {
  // A delta fed directly to the restore path (no path, so no chain
  // resolution) must fail with a named precondition instead of restoring a
  // partial image.
  const std::string base = temp_image_path("raw_base");
  const std::string delta = temp_image_path("raw_d1");
  void* dev = nullptr;
  std::vector<std::byte> host = testlib::random_bytes(1 << 20, 9);
  {
    CracContext ctx(test_options());
    ASSERT_EQ(ctx.api().cudaMalloc(&dev, host.size()), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemcpy(dev, host.data(), host.size(),
                                   cudaMemcpyHostToDevice),
              cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(base).ok());
    dirty_islands(ctx, dev, host, 4000);
    ASSERT_TRUE(ctx.checkpoint_delta(delta).ok());
  }

  auto restarted = CracContext::restart_from_source(
      std::make_unique<ckpt::MemorySource>(testlib::read_file(delta)),
      test_options());
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(restarted.status().message().find("delta image"),
            std::string::npos)
      << restarted.status().to_string();

  std::remove(base.c_str());
  std::remove(delta.c_str());
}

TEST_F(DeltaChainTest, AllocationChangeFallsBackToFullSectionsAndRestores) {
  // Allocating between base and delta changes the allocation-table
  // fingerprint: the drain must fall back to full sections (still a valid
  // v4 image — full sections shadow the parent outright) and the chain
  // restore must still be exact.
  const std::string base = temp_image_path("fp_base");
  const std::string delta = temp_image_path("fp_d1");
  void* dev = nullptr;
  void* extra = nullptr;
  std::vector<std::byte> host = testlib::random_bytes(4 << 20, 11);
  std::vector<std::byte> extra_host = testlib::random_bytes(kChunk, 12);
  {
    CracContext ctx(test_options());
    ASSERT_EQ(ctx.api().cudaMalloc(&dev, host.size()), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemcpy(dev, host.data(), host.size(),
                                   cudaMemcpyHostToDevice),
              cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(base).ok());
    ASSERT_EQ(ctx.api().cudaMalloc(&extra, extra_host.size()), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemcpy(extra, extra_host.data(),
                                   extra_host.size(),
                                   cudaMemcpyHostToDevice),
              cudaSuccess);
    ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
    auto d = ctx.checkpoint_delta(delta);
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_TRUE(d->delta_image);
    EXPECT_FALSE(ctx.plugin().last_drain_was_delta());  // fingerprint miss
  }

  auto restarted = CracContext::restart_from_image(delta, test_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  auto& api = (*restarted)->api();
  std::vector<std::byte> out(host.size());
  ASSERT_EQ(api.cudaMemcpy(out.data(), dev, out.size(),
                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(std::memcmp(out.data(), host.data(), host.size()), 0);
  out.resize(extra_host.size());
  ASSERT_EQ(api.cudaMemcpy(out.data(), extra, out.size(),
                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(std::memcmp(out.data(), extra_host.data(), extra_host.size()), 0);

  std::remove(base.c_str());
  std::remove(delta.c_str());
}

// ---------------------------------------------------------------------------
// Streaming chain merge: byte identity with the whole-image fold
// ---------------------------------------------------------------------------

// Writes `chain` (newest first) to files whose parent paths link them, and
// returns the paths, newest first.
std::vector<std::string> chain_paths(const std::string& tag, std::size_t n) {
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < n; ++i) {
    paths.push_back(temp_image_path((tag + "_" + std::to_string(i)).c_str()));
  }
  return paths;
}

void write_chain(const std::vector<std::string>& paths,
                 const std::vector<std::vector<std::byte>>& chain) {
  for (std::size_t i = 0; i < chain.size(); ++i) {
    testlib::write_file_raw(paths[i], chain[i]);
  }
}

void remove_chain(const std::vector<std::string>& paths) {
  for (const auto& p : paths) std::remove(p.c_str());
}

// The merged image of in-memory links through ChainMerge directly; its
// length must be the size() a registry GET announces.
Result<std::vector<std::byte>> merge_bytes(
    const std::vector<std::vector<std::byte>>& chain) {
  std::vector<ckpt::ChainMerge::Link> links;
  for (const auto& bytes : chain) {
    CRAC_ASSIGN_OR_RETURN(auto reader, ckpt::ImageReader::from_bytes(
                                           std::vector<std::byte>(bytes)));
    links.push_back(ckpt::ChainMerge::Link{std::move(reader), ""});
  }
  CRAC_ASSIGN_OR_RETURN(auto merge, ckpt::ChainMerge::plan(std::move(links)));
  CRAC_ASSIGN_OR_RETURN(const std::uint64_t size, merge.size());
  ckpt::MemorySink sink;
  CRAC_RETURN_IF_ERROR(merge.write(sink));
  if (sink.bytes_written() != size) {
    return Internal("merge wrote " + std::to_string(sink.bytes_written()) +
                    " bytes but planned " + std::to_string(size));
  }
  return std::move(sink).take();
}

TEST(ChainMergeTest, RandomChainsMatchTheReferenceFold) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const testlib::ChainCase c = testlib::random_chain_case(seed);
    const auto paths = chain_paths("rand", c.codecs.size());
    const auto chain = testlib::build_chain(c, paths);
    auto want = testlib::reference_fold(chain);
    ASSERT_TRUE(want.ok()) << want.status().to_string();

    write_chain(paths, chain);
    auto local = ckpt::materialize_image_chain(paths[0]);
    ASSERT_TRUE(local.ok()) << local.status().to_string();
    EXPECT_TRUE(*local == *want) << local->size() << " vs " << want->size();
    auto direct = merge_bytes(chain);
    ASSERT_TRUE(direct.ok()) << direct.status().to_string();
    EXPECT_TRUE(*direct == *want);
    remove_chain(paths);
  }
}

TEST(ChainMergeTest, PinnedChainsKeepTheirBytes) {
  // CRC-32 and size of each pinned chain's merged image, as the
  // whole-image fold produced them before the streaming merge replaced it.
  // The reference fold above is test code and could drift with the engine;
  // these cannot.
  struct Pin {
    std::uint32_t crc;
    std::uint64_t bytes;
  };
  const Pin kPins[] = {
      {0xc577c44du, 140957},
      {0x20c266ceu, 125636},
      {0x1b721202u, 117582},
  };
  for (int which = 0; which < 3; ++which) {
    SCOPED_TRACE("pinned chain " + std::to_string(which));
    const auto chain = testlib::build_chain(testlib::pinned_chain(which));
    auto merged = merge_bytes(chain);
    ASSERT_TRUE(merged.ok()) << merged.status().to_string();
    EXPECT_EQ(merged->size(), kPins[which].bytes);
    EXPECT_EQ(crc32(merged->data(), merged->size()), kPins[which].crc)
        << std::hex << crc32(merged->data(), merged->size());
    auto want = testlib::reference_fold(chain);
    ASSERT_TRUE(want.ok()) << want.status().to_string();
    EXPECT_TRUE(*merged == *want);
  }
}

TEST(ChainMergeTest, FullImageMergesToItself) {
  const auto chain = testlib::build_chain(testlib::pinned_chain(1));
  auto merged = merge_bytes({chain.back()});
  ASSERT_TRUE(merged.ok()) << merged.status().to_string();
  EXPECT_TRUE(*merged == chain.back());
}

// One hostile delta over a fixed base, and what the merge must say.
struct HostileCase {
  const char* what;
  std::vector<testlib::ChainSection> sections;
  std::string parent_id = "hostile-base";
  const char* fragment;
};

// The hostile cases' base: one "arena" section of 5 granules and a tail.
constexpr std::uint64_t kG = 4096;
constexpr std::uint64_t kFull = 5 * kG + 100;

TEST(ChainMergeTest, HostileDeltasFailByName) {
  using ckpt::SectionType;
  const auto arena = testlib::random_bytes(kFull, 77);
  const auto patch = [](std::uint64_t index, std::size_t len) {
    return testlib::DeltaEntry{index, testlib::random_bytes(len, index + 1)};
  };
  const auto body = [&](std::vector<testlib::DeltaEntry> es,
                        std::uint64_t granule = kG,
                        std::uint64_t full = kFull,
                        SectionType target = SectionType::kDeviceBuffers) {
    return testlib::delta_body(target, granule, full, es);
  };
  auto inflated = body({patch(0, kG)});
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(inflated.data() + 20, &huge, sizeof(huge));
  auto truncated = body({patch(0, kG), patch(1, kG)});
  truncated.resize(truncated.size() - 10);
  auto short_count = body({patch(0, kG), patch(1, kG)});
  const std::uint64_t three = 3;
  std::memcpy(short_count.data() + 20, &three, sizeof(three));

  const auto delta = [](std::vector<std::byte> b,
                        const std::string& name = "arena") {
    return std::vector<testlib::ChainSection>{
        {SectionType::kDeltaChunks, name, std::move(b)}};
  };
  std::vector<HostileCase> cases = {
      {"absent target", delta(body({patch(0, kG)}), "missing"), "hostile-base",
       "absent from its parent image"},
      {"size mismatch", delta(body({patch(0, kG)}, kG, kFull + 1)),
       "hostile-base", "-byte target but the parent section holds"},
      {"out of order", delta(body({patch(2, kG), patch(1, kG)})),
       "hostile-base", "entries out of order"},
      {"repeated index", delta(body({patch(2, kG), patch(2, kG)})),
       "hostile-base", "entries out of order"},
      {"zero length", delta(body({patch(1, 0)})), "hostile-base",
       "entry with invalid length 0"},
      {"over a granule", delta(body({patch(1, kG + 1)})), "hostile-base",
       "entry with invalid length"},
      {"index past end", delta(body({patch(6, 10)})), "hostile-base",
       "entry past end of target payload"},
      {"tail past end", delta(body({patch(5, 101)})), "hostile-base",
       "entry past end of target payload"},
      {"delta of delta",
       delta(body({patch(0, kG)}, kG, kFull, SectionType::kDeltaChunks)),
       "hostile-base", "targets another delta section"},
      {"zero granule", delta(body({}, 0)), "hostile-base",
       "invalid chunk granule"},
      {"inflated count", delta(inflated), "hostile-base", "entries against a"},
      {"truncated entry", delta(truncated), "hostile-base",
       "read past end of payload"},
      {"count past entries", delta(short_count), "hostile-base",
       "read past end of payload"},
      {"wrong parent", delta(body({patch(0, kG)})), "someone-else",
       "parent image id"},
  };
  const std::string base_path = temp_image_path("hostile_base");
  const std::string delta_path = temp_image_path("hostile_delta");
  testlib::write_file_raw(
      base_path,
      testlib::chain_image("hostile-base", "", "", ckpt::Codec::kStore, kG,
                           {{SectionType::kDeviceBuffers, "arena", arena}}));
  for (const HostileCase& hc : cases) {
    SCOPED_TRACE(hc.what);
    testlib::write_file_raw(
        delta_path,
        testlib::chain_image("hostile-delta", hc.parent_id, base_path,
                             ckpt::Codec::kStore, kG, hc.sections));
    auto merged = ckpt::materialize_image_chain(delta_path);
    ASSERT_FALSE(merged.ok());
    EXPECT_EQ(merged.status().code(), StatusCode::kCorrupt)
        << merged.status().to_string();
    EXPECT_NE(merged.status().message().find(hc.fragment), std::string::npos)
        << merged.status().to_string();
    EXPECT_NE(merged.status().message().find("delta image '" + delta_path),
              std::string::npos)
        << merged.status().to_string();
  }

  // A parent path that names the delta itself never ends: the depth limit
  // names the cycle.
  testlib::write_file_raw(
      delta_path,
      testlib::chain_image("loop", "loop", delta_path, ckpt::Codec::kStore, kG,
                           delta(body({patch(0, kG)}))));
  auto looped = ckpt::materialize_image_chain(delta_path);
  ASSERT_FALSE(looped.ok());
  EXPECT_EQ(looped.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(looped.status().message().find("exceeds 16 images"),
            std::string::npos)
      << looped.status().to_string();
  std::remove(base_path.c_str());
  std::remove(delta_path.c_str());
}

TEST(ChainMergeTest, CorruptPatchBytesFailTheMerge) {
  // Patch bytes get a fresh CRC in the merged image, so the merge itself
  // must refuse a delta whose stored patch bytes fail theirs.
  using ckpt::SectionType;
  const auto arena = testlib::random_bytes(4 * kG, 5);
  const std::string base_path = temp_image_path("crc_base");
  const std::string delta_path = temp_image_path("crc_delta");
  testlib::write_file_raw(
      base_path,
      testlib::chain_image("crc-base", "", "", ckpt::Codec::kStore, kG,
                           {{SectionType::kDeviceBuffers, "arena", arena}}));
  const std::vector<std::byte> fill(kG, std::byte{0xC3});
  auto image = testlib::chain_image(
      "crc-delta", "crc-base", base_path, ckpt::Codec::kStore, 2 * kG,
      {{SectionType::kDeltaChunks, "arena",
        testlib::delta_body(SectionType::kDeviceBuffers, kG, 4 * kG,
                            {{2, fill}})}});
  const std::size_t at = testlib::find_byte_run(image, std::byte{0xC3});
  ASSERT_NE(at, 0u);
  image[at] ^= std::byte{0x01};
  testlib::write_file_raw(delta_path, image);
  auto merged = ckpt::materialize_image_chain(delta_path);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kCorrupt);
  EXPECT_NE(merged.status().message().find("CRC mismatch"), std::string::npos)
      << merged.status().to_string();
  std::remove(base_path.c_str());
  std::remove(delta_path.c_str());
}

}  // namespace
}  // namespace crac
