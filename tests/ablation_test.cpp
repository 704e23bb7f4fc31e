// Ablation tests for the design choices DESIGN.md §5 calls out: these
// demonstrate *why* CRAC is built the way it is by showing the failure or
// cost of the alternative.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "crac/context.hpp"
#include "simcuda/lower_half.hpp"
#include "simcuda/trampolined_api.hpp"

namespace crac {
namespace {

using cuda::cudaSuccess;

CracOptions small_options() {
  CracOptions opts;
  opts.split.device.device_capacity = 256 << 20;
  opts.split.device.device_chunk = 8 << 20;
  opts.split.upper_heap_capacity = 64 << 20;
  return opts;
}

// §3.2.4: replaying only the *active* allocations (skipping freed ones)
// produces the wrong addresses as soon as any free occurred — the full log
// must be replayed.
TEST(AblationTest, ActiveOnlyReplayProducesWrongAddresses) {
  SplitProcessOptions opts = small_options().split;
  SplitProcess proc(opts);
  auto& api = proc.api();

  // History: A(64K) B(128K) free(A) C(64K). First-fit puts C where A was.
  void* a = nullptr;
  void* b = nullptr;
  void* c = nullptr;
  ASSERT_EQ(api.cudaMalloc(&a, 64 << 10), cudaSuccess);
  ASSERT_EQ(api.cudaMalloc(&b, 128 << 10), cudaSuccess);
  ASSERT_EQ(api.cudaFree(a), cudaSuccess);
  ASSERT_EQ(api.cudaMalloc(&c, 64 << 10), cudaSuccess);
  EXPECT_EQ(c, a);  // the freed slot was reused

  // Full-log replay (the CRAC way): A B free(A) C -> same addresses.
  proc.discard_lower_half();
  ASSERT_TRUE(proc.load_fresh_lower_half().ok());
  void* a2 = nullptr;
  void* b2 = nullptr;
  void* c2 = nullptr;
  ASSERT_EQ(api.cudaMalloc(&a2, 64 << 10), cudaSuccess);
  ASSERT_EQ(api.cudaMalloc(&b2, 128 << 10), cudaSuccess);
  ASSERT_EQ(api.cudaFree(a2), cudaSuccess);
  ASSERT_EQ(api.cudaMalloc(&c2, 64 << 10), cudaSuccess);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(c2, c);

  // Active-only replay (the broken shortcut): B C -> wrong addresses.
  proc.discard_lower_half();
  ASSERT_TRUE(proc.load_fresh_lower_half().ok());
  void* b3 = nullptr;
  void* c3 = nullptr;
  ASSERT_EQ(api.cudaMalloc(&b3, 128 << 10), cudaSuccess);
  ASSERT_EQ(api.cudaMalloc(&c3, 64 << 10), cudaSuccess);
  EXPECT_NE(b3, b) << "active-only replay should misplace B";
  EXPECT_NE(c3, c) << "active-only replay should misplace C";
}

// The determinism verifier catches exactly that situation at restart.
TEST(AblationTest, DeterminismViolationDetectedAtRestart) {
  const std::string path = ::testing::TempDir() + "/crac_ablation_det.img";
  {
    CracContext ctx(small_options());
    void* p = nullptr;
    ASSERT_EQ(ctx.api().cudaMalloc(&p, 4096), cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }
  // Restart into a context whose device arena sits at a DIFFERENT base:
  // every replayed allocation lands elsewhere -> must be refused.
  CracOptions moved = small_options();
  moved.split.device.device_va_base = 0x740000000000ULL;
  auto restarted = CracContext::restart_from_image(path, moved);
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.status().code(), StatusCode::kDeterminismViolation);
  std::remove(path.c_str());
}

// §3.2.3: saving active allocations, not arenas, keeps images proportional
// to live data. A padded allocation pattern makes the gap obvious.
TEST(AblationTest, ImageTracksActiveBytesNotArena) {
  const std::string path = ::testing::TempDir() + "/crac_ablation_size.img";
  CracContext ctx(small_options());
  auto& api = ctx.api();
  // Allocate 32MB, free 31MB of it: the arena stays large, live data small.
  std::vector<void*> blocks(32);
  for (auto& p : blocks) {
    ASSERT_EQ(api.cudaMalloc(&p, 1 << 20), cudaSuccess);
  }
  for (std::size_t i = 0; i < blocks.size() - 1; ++i) {
    ASSERT_EQ(api.cudaFree(blocks[i]), cudaSuccess);
  }
  auto report = ctx.checkpoint(path);
  ASSERT_TRUE(report.ok());
  const std::uint64_t arena =
      ctx.process().lower().device().device_arena().committed_bytes();
  EXPECT_GE(arena, std::uint64_t{32} << 20);
  // The image carries ~1MB of device payload plus upper-half regions and
  // metadata — far below the 32MB the arena would cost.
  EXPECT_LT(report->image_bytes, arena);
  EXPECT_EQ(ctx.plugin().active_allocation_bytes(), std::uint64_t{1} << 20);
  std::remove(path.c_str());
}

// §3.2.2: the merged /proc maps view is unusable for half attribution, the
// tag-tracking countermeasure is what checkpoint actually consumes.
TEST(AblationTest, MergedMapsViewWouldOvercheckpoint) {
  CracContext ctx(small_options());
  void* dev = nullptr;
  ASSERT_EQ(ctx.api().cudaMalloc(&dev, 1 << 20), cudaSuccess);
  auto heap_mem = ctx.heap().alloc(1 << 20);
  ASSERT_TRUE(heap_mem.ok());

  auto& space = ctx.process().address_space();
  const std::size_t upper_bytes = space.total_bytes(split::HalfTag::kUpper);
  const std::size_t lower_bytes = space.total_bytes(split::HalfTag::kLower);
  std::size_t merged_bytes = 0;
  for (const auto& r : space.merged_view()) merged_bytes += r.size;
  // The merged view necessarily covers both halves: a checkpointer driven
  // by it would save the lower half too (or worse, tear merged regions).
  EXPECT_EQ(merged_bytes, upper_bytes + lower_bytes);
  EXPECT_GT(lower_bytes, std::size_t{1} << 20)
      << "lower half (CUDA arenas) is substantial and must NOT be saved";
}

// Compression trade-off (the paper runs with gzip off): the compressed
// image is smaller but the checkpoint takes longer on compressible data.
TEST(AblationTest, CompressionTradesTimeForSize) {
  const std::string raw_path = ::testing::TempDir() + "/crac_ab_raw.img";
  const std::string lz_path = ::testing::TempDir() + "/crac_ab_lz.img";
  std::uint64_t raw_size = 0, lz_size = 0;
  {
    CracContext ctx(small_options());
    void* p = nullptr;
    ASSERT_EQ(ctx.api().cudaMalloc(&p, 16 << 20), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemset(p, 0, 16 << 20), cudaSuccess);
    auto r = ctx.checkpoint(raw_path);
    ASSERT_TRUE(r.ok());
    raw_size = r->image_bytes;
  }
  {
    CracOptions opts = small_options();
    opts.codec = ckpt::Codec::kLz;
    CracContext ctx(opts);
    void* p = nullptr;
    ASSERT_EQ(ctx.api().cudaMalloc(&p, 16 << 20), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemset(p, 0, 16 << 20), cudaSuccess);
    auto r = ctx.checkpoint(lz_path);
    ASSERT_TRUE(r.ok());
    lz_size = r->image_bytes;
  }
  EXPECT_LT(lz_size, raw_size / 4);
  std::remove(raw_path.c_str());
  std::remove(lz_path.c_str());
}

}  // namespace
}  // namespace crac
