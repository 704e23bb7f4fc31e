// Unit tests for the simulated GPU: deterministic arenas, streams, events,
// concurrency cap, and UVM fault-driven migration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "simgpu/arena_allocator.hpp"
#include "simgpu/device.hpp"
#include "simgpu/fault_router.hpp"
#include "simgpu/uvm_manager.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac::sim {
namespace {

namespace testlib = ckpt::testlib;

DeviceConfig small_config() {
  DeviceConfig cfg;
  // Kernel-chosen bases: tests must not depend on fixed-VA availability.
  cfg.device_va_base = 0;
  cfg.pinned_va_base = 0;
  cfg.managed_va_base = 0;
  cfg.device_capacity = 256 << 20;
  cfg.pinned_capacity = 64 << 20;
  cfg.managed_capacity = 256 << 20;
  cfg.device_chunk = 8 << 20;
  cfg.pinned_chunk = 4 << 20;
  cfg.managed_chunk = 8 << 20;
  return cfg;
}

ArenaAllocator::Config arena_config(std::size_t cap = 64 << 20,
                                    std::size_t chunk = 4 << 20) {
  return ArenaAllocator::Config{
      .va_base = 0,
      .capacity = cap,
      .chunk_size = chunk,
      .alignment = 512,
      .purpose = "test",
      .hooks = nullptr,
  };
}

TEST(ArenaAllocatorTest, AllocateAndFree) {
  ArenaAllocator arena(arena_config());
  auto p = arena.allocate(1000);
  ASSERT_TRUE(p.ok());
  EXPECT_NE(*p, nullptr);
  EXPECT_EQ(arena.allocation_size(*p), 1024u);  // rounded to alignment
  EXPECT_TRUE(arena.free(*p).ok());
  EXPECT_EQ(arena.active_count(), 0u);
}

TEST(ArenaAllocatorTest, ZeroSizeRejected) {
  ArenaAllocator arena(arena_config());
  EXPECT_FALSE(arena.allocate(0).ok());
}

TEST(ArenaAllocatorTest, DoubleFreeRejected) {
  ArenaAllocator arena(arena_config());
  auto p = arena.allocate(64);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(arena.free(*p).ok());
  EXPECT_FALSE(arena.free(*p).ok());
}

TEST(ArenaAllocatorTest, ForeignPointerRejected) {
  ArenaAllocator arena(arena_config());
  int local = 0;
  EXPECT_FALSE(arena.free(&local).ok());
}

TEST(ArenaAllocatorTest, FirstAllocationCommitsWholeChunk) {
  // §3.2.1: the first cudaMalloc creates a large arena via mmap; later
  // allocations reuse it.
  ArenaAllocator arena(arena_config(64 << 20, 4 << 20));
  ASSERT_TRUE(arena.allocate(100).ok());
  EXPECT_EQ(arena.committed_bytes(), std::size_t{4} << 20);
  ASSERT_TRUE(arena.allocate(100).ok());
  EXPECT_EQ(arena.committed_bytes(), std::size_t{4} << 20);  // no growth
}

TEST(ArenaAllocatorTest, LargeRequestSpansMultipleChunks) {
  ArenaAllocator arena(arena_config(64 << 20, 4 << 20));
  auto p = arena.allocate(9 << 20);  // needs 3 chunks
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(arena.committed_bytes(), std::size_t{12} << 20);
}

TEST(ArenaAllocatorTest, ExhaustionReportsOutOfMemory) {
  ArenaAllocator arena(arena_config(8 << 20, 4 << 20));
  auto p = arena.allocate(16 << 20);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kOutOfMemory);
}

TEST(ArenaAllocatorTest, SameSequenceSameOffsets) {
  // The determinism property log-and-replay rests on: identical call
  // sequences produce identical arena offsets.
  auto run = [](std::vector<std::ptrdiff_t>* offsets) {
    ArenaAllocator arena(arena_config());
    const auto base = reinterpret_cast<std::uintptr_t>(arena.arena_base());
    std::vector<void*> live;
    auto record = [&](void* p) {
      offsets->push_back(reinterpret_cast<std::uintptr_t>(p) - base);
      live.push_back(p);
    };
    for (int i = 1; i <= 20; ++i) {
      auto p = arena.allocate(static_cast<std::size_t>(i) * 700);
      ASSERT_TRUE(p.ok());
      record(*p);
    }
    // Free a scattered subset, then allocate more (first-fit reuse).
    for (int i = 0; i < 20; i += 3) ASSERT_TRUE(arena.free(live[i]).ok());
    for (int i = 0; i < 10; ++i) {
      auto p = arena.allocate(512 + static_cast<std::size_t>(i) * 128);
      ASSERT_TRUE(p.ok());
      record(*p);
    }
  };
  std::vector<std::ptrdiff_t> a, b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
}

TEST(ArenaAllocatorTest, FreeCoalescingAllowsBigReuse) {
  ArenaAllocator arena(arena_config(16 << 20, 4 << 20));
  auto a = arena.allocate(1 << 20);
  auto b = arena.allocate(1 << 20);
  auto c = arena.allocate(1 << 20);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(arena.free(*a).ok());
  ASSERT_TRUE(arena.free(*b).ok());
  // a+b coalesced: a 2MB allocation must fit at a's address.
  auto d = arena.allocate(2 << 20);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, *a);
  (void)c;
}

TEST(ArenaAllocatorTest, SnapshotRestoreRoundTrip) {
  ArenaAllocator a(arena_config());
  auto p1 = a.allocate(4096);
  auto p2 = a.allocate(8192);
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_TRUE(a.free(*p1).ok());
  const auto snap = a.snapshot();

  ArenaAllocator b(arena_config());
  ASSERT_TRUE(b.restore(snap).ok());
  EXPECT_EQ(b.active_count(), 1u);
  EXPECT_EQ(b.active_bytes(), a.active_bytes());
  EXPECT_EQ(b.committed_bytes(), a.committed_bytes());
  // Next allocation behaves identically in both arenas (offset-wise).
  auto na = a.allocate(4096);
  auto nb = b.allocate(4096);
  ASSERT_TRUE(na.ok() && nb.ok());
  const auto off_a = reinterpret_cast<std::uintptr_t>(*na) -
                     reinterpret_cast<std::uintptr_t>(a.arena_base());
  const auto off_b = reinterpret_cast<std::uintptr_t>(*nb) -
                     reinterpret_cast<std::uintptr_t>(b.arena_base());
  EXPECT_EQ(off_a, off_b);
}

TEST(ArenaAllocatorTest, NearOverflowSizesFailByNameNotWrap) {
  // (n + align - 1) wraps for near-SIZE_MAX requests; a wrapped round-up
  // would turn an absurd allocation into a tiny "successful" one. Every
  // case must fail with a named error, never allocate.
  ArenaAllocator arena(arena_config());
  const std::size_t cases[] = {
      SIZE_MAX,
      SIZE_MAX - 1,
      SIZE_MAX - 511,  // rounds to exactly SIZE_MAX+1 without the guard
      SIZE_MAX / 2,
      arena_config().capacity + 1,
  };
  for (const std::size_t n : cases) {
    auto p = arena.allocate(n);
    ASSERT_FALSE(p.ok()) << "allocate(" << n << ") succeeded";
    EXPECT_EQ(p.status().code(), StatusCode::kOutOfMemory) << n;
    EXPECT_NE(p.status().message().find("arena reservation"),
              std::string::npos)
        << p.status().to_string();
  }
  // The arena is unharmed: a sane allocation still works.
  auto ok = arena.allocate(4096);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(arena.free(*ok).ok());
}

TEST(ArenaAllocatorTest, HostileSnapshotsRejectedWithoutMutation) {
  // A CRC-valid but hostile snapshot (as a shipped image's heap-allocator
  // section could carry) must be rejected by validate_snapshot before
  // restore mutates anything.
  using Snap = ArenaAllocator::Snapshot;
  struct Case {
    const char* name;
    Snap snap;
    const char* expect;  // substring the error must name
  };
  const std::uint64_t cap = arena_config().capacity;
  const Case cases[] = {
      {"committed beyond capacity",
       Snap{cap + (4 << 20), {}, {}},
       "larger than arena reservation"},
      {"zero-size active entry",
       Snap{4 << 20, {}, {{0, 0}}},
       "zero-size"},
      {"active entry outside committed span",
       Snap{4 << 20, {}, {{(4 << 20) - 512, 1024}}},
       "outside the committed"},
      {"active/active overlap",
       Snap{4 << 20, {}, {{0, 8192}, {4096, 8192}}},
       "overlap"},
      {"free/active overlap",
       Snap{4 << 20, {{0, 8192}}, {{4096, 8192}}},
       "overlap"},
      {"duplicate entries",
       Snap{4 << 20, {}, {{512, 512}, {512, 512}}},
       "overlap"},
  };
  ArenaAllocator arena(arena_config());
  auto keep = arena.allocate(4096);
  ASSERT_TRUE(keep.ok());
  std::memset(*keep, 0x42, 4096);
  const auto active_before = arena.active_count();
  for (const Case& c : cases) {
    Status v = arena.validate_snapshot(c.snap);
    ASSERT_FALSE(v.ok()) << c.name;
    EXPECT_EQ(v.code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(v.message().find(c.expect), std::string::npos)
        << c.name << ": " << v.to_string();
    Status r = arena.restore(c.snap);
    ASSERT_FALSE(r.ok()) << c.name;
    // Rejection happened before mutation: existing state intact.
    EXPECT_EQ(arena.active_count(), active_before) << c.name;
    EXPECT_EQ(static_cast<unsigned char*>(*keep)[0], 0x42) << c.name;
  }
  // The boundary case that must PASS: free and active entries exactly
  // adjacent, committed span exactly at a chunk boundary.
  const Snap good{4 << 20, {{0, 4096}}, {{4096, 4096}}};
  EXPECT_TRUE(arena.validate_snapshot(good).ok());
}

TEST(DeviceTest, PropertiesMatchConfig) {
  Device dev(small_config());
  const DeviceProperties p = dev.properties();
  EXPECT_EQ(p.cc_major, 7);
  EXPECT_EQ(p.max_concurrent_kernels, 128);
  EXPECT_GT(p.num_sms, 0);
}

TEST(DeviceTest, ConstructionDoesNotScaleWithReservation) {
  // A default device reserves 8 + 2 + 8 GiB of arena. Its bookkeeping
  // (UVM page table, one dirty tracker per arena) must cost what is used,
  // not what is reserved: a restart builds a fresh device every time.
  if (testlib::kSanitizedAllocator) {
    GTEST_SKIP() << "RSS bounds need the plain malloc";
  }
  DeviceConfig cfg;  // default capacities; kernel-chosen bases
  cfg.device_va_base = 0;
  cfg.pinned_va_base = 0;
  cfg.managed_va_base = 0;
  { Device warm(small_config()); }  // one-time process setup not counted
  const std::uint64_t before = testlib::vm_rss_bytes();
  Device dev(cfg);
  const std::uint64_t after = testlib::vm_rss_bytes();
  ASSERT_GT(before, 0u);
  EXPECT_EQ(dev.uvm().stats().pages_tracked,
            cfg.managed_capacity / cfg.uvm_page_size);
  EXPECT_LT(after - std::min(after, before), std::uint64_t{1} << 20)
      << "VmRSS grew from " << before << " to " << after << " bytes";
}

TEST(DeviceTest, UvaPointerClassification) {
  Device dev(small_config());
  auto d = dev.malloc_device(4096);
  auto h = dev.malloc_pinned(4096);
  auto m = dev.malloc_managed(4096);
  ASSERT_TRUE(d.ok() && h.ok() && m.ok());
  EXPECT_TRUE(dev.is_device_ptr(*d));
  EXPECT_TRUE(dev.is_pinned_ptr(*h));
  EXPECT_TRUE(dev.is_managed_ptr(*m));
  EXPECT_FALSE(dev.is_device_ptr(*h));
  int stack_var = 0;
  EXPECT_FALSE(dev.is_device_ptr(&stack_var));
  EXPECT_EQ(dev.infer_kind(*d, &stack_var), MemcpyKind::kHostToDevice);
  EXPECT_EQ(dev.infer_kind(&stack_var, *d), MemcpyKind::kDeviceToHost);
  EXPECT_EQ(dev.infer_kind(*d, *m), MemcpyKind::kDeviceToDevice);
}

TEST(DeviceTest, FreeRoutesToOwningArena) {
  Device dev(small_config());
  auto d = dev.malloc_device(4096);
  auto h = dev.malloc_pinned(4096);
  auto m = dev.malloc_managed(4096);
  ASSERT_TRUE(d.ok() && h.ok() && m.ok());
  EXPECT_TRUE(dev.free_any(*d).ok());
  EXPECT_TRUE(dev.free_any(*h).ok());
  EXPECT_TRUE(dev.free_any(*m).ok());
  int x;
  EXPECT_FALSE(dev.free_any(&x).ok());
}

TEST(DeviceTest, MemcpyAndMemsetRoundTrip) {
  Device dev(small_config());
  auto d = dev.malloc_device(1024);
  ASSERT_TRUE(d.ok());
  std::vector<char> src(1024), dst(1024);
  std::iota(src.begin(), src.end(), 0);
  ASSERT_TRUE(dev.memcpy_sync(*d, src.data(), 1024,
                              MemcpyKind::kHostToDevice).ok());
  ASSERT_TRUE(dev.memcpy_sync(dst.data(), *d, 1024,
                              MemcpyKind::kDeviceToHost).ok());
  EXPECT_EQ(src, dst);
  ASSERT_TRUE(dev.memset_sync(*d, 0x5A, 1024).ok());
  ASSERT_TRUE(dev.memcpy_sync(dst.data(), *d, 1024,
                              MemcpyKind::kDeviceToHost).ok());
  for (char c : dst) EXPECT_EQ(c, 0x5A);
}

// ---- kernels & streams ----

void add_one_kernel(void* const* args, const KernelBlock& blk) {
  auto* data = *static_cast<float* const*>(args[0]);
  const auto n = *static_cast<const std::uint64_t*>(args[1]);
  blk.for_each_thread([&](const Dim3& t) {
    const std::size_t i = blk.global_x(t.x);
    if (i < n) data[i] += 1.0f;
  });
}

sim::KernelOp make_add_one(float* data, std::uint64_t n, unsigned blocks,
                           unsigned threads) {
  sim::KernelOp op;
  op.fn = &add_one_kernel;
  op.dims.grid = Dim3{blocks, 1, 1};
  op.dims.block = Dim3{threads, 1, 1};
  op.name = "add_one";
  op.args.push(data);
  op.args.push(n);
  return op;
}

TEST(StreamEngineTest, KernelExecutesAllBlocks) {
  Device dev(small_config());
  const std::uint64_t n = 10000;
  auto d = dev.malloc_device(n * sizeof(float));
  ASSERT_TRUE(d.ok());
  auto* data = static_cast<float*>(*d);
  ASSERT_TRUE(dev.memset_sync(data, 0, n * sizeof(float)).ok());
  const unsigned threads = 128;
  const unsigned blocks = static_cast<unsigned>((n + threads - 1) / threads);
  ASSERT_TRUE(dev.streams().enqueue(0, make_add_one(data, n, blocks, threads)).ok());
  ASSERT_TRUE(dev.streams().synchronize(0).ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(data[i], 1.0f) << i;
}

TEST(StreamEngineTest, OpsInOneStreamAreOrdered) {
  Device dev(small_config());
  const std::uint64_t n = 512;
  auto d = dev.malloc_device(n * sizeof(float));
  ASSERT_TRUE(d.ok());
  auto* data = static_cast<float*>(*d);
  ASSERT_TRUE(dev.memset_sync(data, 0, n * sizeof(float)).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(dev.streams().enqueue(0, make_add_one(data, n, 4, 128)).ok());
  }
  ASSERT_TRUE(dev.streams().synchronize(0).ok());
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(data[i], 50.0f);
}

TEST(StreamEngineTest, StreamsRunConcurrently) {
  DeviceConfig cfg = small_config();
  Device dev(cfg);
  auto s1 = dev.streams().create_stream();
  auto s2 = dev.streams().create_stream();
  ASSERT_TRUE(s1.ok() && s2.ok());

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker = [&] {
    started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
  };
  ASSERT_TRUE(dev.streams().enqueue(*s1, HostFuncOp{blocker}).ok());
  ASSERT_TRUE(dev.streams().enqueue(*s2, HostFuncOp{blocker}).ok());
  // Both must start despite neither finishing: streams are concurrent.
  while (started.load() < 2) std::this_thread::yield();
  release.store(true);
  ASSERT_TRUE(dev.streams().synchronize_all().ok());
}

TEST(StreamEngineTest, StreamLimitEnforced) {
  DeviceConfig cfg = small_config();
  cfg.max_streams = 4;
  Device dev(cfg);
  std::vector<StreamId> ids;
  for (int i = 0; i < 4; ++i) {
    auto s = dev.streams().create_stream();
    ASSERT_TRUE(s.ok());
    ids.push_back(*s);
  }
  EXPECT_FALSE(dev.streams().create_stream().ok());
  // Destroying one frees a slot.
  ASSERT_TRUE(dev.streams().destroy_stream(ids[0]).ok());
  EXPECT_TRUE(dev.streams().create_stream().ok());
}

TEST(StreamEngineTest, StreamIdsAreDeterministic) {
  auto collect = [] {
    Device dev(small_config());
    std::vector<StreamId> ids;
    for (int i = 0; i < 5; ++i) {
      auto s = dev.streams().create_stream();
      EXPECT_TRUE(s.ok());
      ids.push_back(*s);
    }
    EXPECT_TRUE(dev.streams().destroy_stream(ids[2]).ok());
    auto s = dev.streams().create_stream();
    EXPECT_TRUE(s.ok());
    ids.push_back(*s);
    return ids;
  };
  EXPECT_EQ(collect(), collect());
}

TEST(StreamEngineTest, ConcurrencyCapRespected) {
  DeviceConfig cfg = small_config();
  cfg.max_concurrent_kernels = 2;
  Device dev(cfg);
  std::vector<StreamId> streams;
  for (int i = 0; i < 6; ++i) {
    auto s = dev.streams().create_stream();
    ASSERT_TRUE(s.ok());
    streams.push_back(*s);
  }
  // Kernels that busy-wait ~2ms each, one per stream.
  static std::atomic<int> peak_inflight;
  peak_inflight = 0;
  for (StreamId s : streams) {
    sim::KernelOp op;
    op.fn = [](void* const*, const KernelBlock&) {
      simulate_delay_us(2000);
    };
    op.dims.grid = Dim3{1, 1, 1};
    op.dims.block = Dim3{1, 1, 1};
    op.name = "spin";
    ASSERT_TRUE(dev.streams().enqueue(s, std::move(op)).ok());
  }
  ASSERT_TRUE(dev.streams().synchronize_all().ok());
  EXPECT_LE(dev.streams().max_kernels_observed(), 2);
}

TEST(StreamEngineTest, MaxConcurrencyReachesCapWithManyStreams) {
  DeviceConfig cfg = small_config();
  Device dev(cfg);
  std::vector<StreamId> streams;
  for (int i = 0; i < 16; ++i) {
    auto s = dev.streams().create_stream();
    ASSERT_TRUE(s.ok());
    streams.push_back(*s);
  }
  for (StreamId s : streams) {
    sim::KernelOp op;
    op.fn = [](void* const*, const KernelBlock&) { simulate_delay_us(3000); };
    op.dims.grid = Dim3{1, 1, 1};
    op.dims.block = Dim3{1, 1, 1};
    op.name = "spin";
    ASSERT_TRUE(dev.streams().enqueue(s, std::move(op)).ok());
  }
  ASSERT_TRUE(dev.streams().synchronize_all().ok());
  EXPECT_GE(dev.streams().max_kernels_observed(), 8);
}

TEST(StreamEngineTest, EventsOrderStreams) {
  Device dev(small_config());
  auto s1 = dev.streams().create_stream();
  auto s2 = dev.streams().create_stream();
  auto ev = dev.streams().create_event();
  ASSERT_TRUE(s1.ok() && s2.ok() && ev.ok());

  std::atomic<int> order{0};
  int saw_at_wait = -1;
  ASSERT_TRUE(dev.streams()
                  .enqueue(*s1, HostFuncOp{[&] {
                             simulate_delay_us(2000);
                             order.store(1);
                           }})
                  .ok());
  ASSERT_TRUE(dev.streams().record_event(*s1, *ev).ok());
  ASSERT_TRUE(dev.streams().wait_event(*s2, *ev).ok());
  ASSERT_TRUE(dev.streams()
                  .enqueue(*s2, HostFuncOp{[&] { saw_at_wait = order.load(); }})
                  .ok());
  ASSERT_TRUE(dev.streams().synchronize_all().ok());
  EXPECT_EQ(saw_at_wait, 1);  // s2's op ran only after s1 finished
}

TEST(StreamEngineTest, EventTimingIsMonotonic) {
  Device dev(small_config());
  auto a = dev.streams().create_event();
  auto b = dev.streams().create_event();
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(dev.streams().record_event(0, *a).ok());
  ASSERT_TRUE(dev.streams()
                  .enqueue(0, HostFuncOp{[] { simulate_delay_us(1500); }})
                  .ok());
  ASSERT_TRUE(dev.streams().record_event(0, *b).ok());
  ASSERT_TRUE(dev.streams().synchronize(0).ok());
  auto ms = dev.streams().elapsed_ms(*a, *b);
  ASSERT_TRUE(ms.ok());
  EXPECT_GT(*ms, 1.0f);
  EXPECT_LT(*ms, 500.0f);
}

TEST(StreamEngineTest, QueryReflectsState) {
  Device dev(small_config());
  auto s = dev.streams().create_stream();
  ASSERT_TRUE(s.ok());
  std::atomic<bool> release{false};
  ASSERT_TRUE(dev.streams()
                  .enqueue(*s, HostFuncOp{[&] {
                             while (!release.load()) std::this_thread::yield();
                           }})
                  .ok());
  auto busy = dev.streams().query(*s);
  ASSERT_TRUE(busy.ok());
  EXPECT_FALSE(*busy);
  release.store(true);
  ASSERT_TRUE(dev.streams().synchronize(*s).ok());
  auto idle = dev.streams().query(*s);
  ASSERT_TRUE(idle.ok());
  EXPECT_TRUE(*idle);
}

TEST(StreamEngineTest, UnknownHandlesRejected) {
  Device dev(small_config());
  EXPECT_FALSE(dev.streams().synchronize(999).ok());
  EXPECT_FALSE(dev.streams().destroy_stream(999).ok());
  EXPECT_FALSE(dev.streams().synchronize_event(999).ok());
  EXPECT_FALSE(dev.streams().destroy_stream(0).ok());  // default stream
}

// ---- UVM ----

TEST(UvmTest, HostFaultMigratesPage) {
  Device dev(small_config());
  auto m = dev.malloc_managed(256 << 10);
  ASSERT_TRUE(m.ok());
  auto& uvm = dev.uvm();
  auto* bytes = static_cast<volatile char*>(*m);
  bytes[0] = 1;  // unarmed: no fault
  EXPECT_EQ(uvm.stats().host_faults, 0u);

  // Prefetch to device arms host-side protection.
  ASSERT_TRUE(uvm.prefetch(*m, 256 << 10, /*to_device=*/true).ok());
  auto res = uvm.residency(*m);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, PageResidency::kDevice);

  bytes[0] = 2;  // host touch -> SIGSEGV -> migration
  const UvmStats stats = uvm.stats();
  EXPECT_EQ(stats.host_faults, 1u);
  EXPECT_EQ(stats.migrations_to_host, 1u);
  res = uvm.residency(*m);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, PageResidency::kHost);
  EXPECT_EQ(bytes[0], 2);
}

TEST(UvmTest, DeviceFaultAttributedToDevice) {
  Device dev(small_config());
  auto m = dev.malloc_managed(64 << 10);
  ASSERT_TRUE(m.ok());
  auto& uvm = dev.uvm();
  // Page starts host-resident; arm it so the next access faults.
  ASSERT_TRUE(uvm.arm_range(*m, 64 << 10).ok());

  // Touch from a kernel (device context).
  sim::KernelOp op;
  op.fn = [](void* const* args, const KernelBlock&) {
    auto* p = *static_cast<char* const*>(args[0]);
    p[0] = 42;
  };
  op.dims.grid = Dim3{1, 1, 1};
  op.dims.block = Dim3{1, 1, 1};
  op.name = "touch";
  op.args.push(static_cast<char*>(*m));
  ASSERT_TRUE(dev.streams().enqueue(0, std::move(op)).ok());
  ASSERT_TRUE(dev.streams().synchronize(0).ok());

  const UvmStats stats = uvm.stats();
  EXPECT_EQ(stats.device_faults, 1u);
  EXPECT_EQ(stats.migrations_to_device, 1u);
  auto res = uvm.residency(*m);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, PageResidency::kDevice);
}

TEST(UvmTest, PerPageGranularity) {
  Device dev(small_config());
  const std::size_t page = dev.uvm().page_size();
  auto m = dev.malloc_managed(4 * page);
  ASSERT_TRUE(m.ok());
  auto& uvm = dev.uvm();
  ASSERT_TRUE(uvm.prefetch(*m, 4 * page, true).ok());
  auto* bytes = static_cast<volatile char*>(*m);
  bytes[0] = 1;            // page 0 migrates
  bytes[2 * page] = 1;     // page 2 migrates
  EXPECT_EQ(uvm.stats().migrations_to_host, 2u);
  EXPECT_EQ(*uvm.residency(static_cast<char*>(*m) + page), PageResidency::kDevice);
  EXPECT_EQ(*uvm.residency(static_cast<char*>(*m) + 2 * page), PageResidency::kHost);
}

TEST(UvmTest, FreeResetsPages) {
  Device dev(small_config());
  auto m = dev.malloc_managed(64 << 10);
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(dev.uvm().prefetch(*m, 64 << 10, true).ok());
  ASSERT_TRUE(dev.free_any(*m).ok());
  // Reuse of the same arena space must not fault.
  auto m2 = dev.malloc_managed(64 << 10);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(*m2, *m);  // deterministic reuse
  dev.uvm().reset_stats();
  static_cast<char*>(*m2)[0] = 1;
  EXPECT_EQ(dev.uvm().stats().host_faults, 0u);
}

TEST(UvmTest, ConcurrentWritersSamePage) {
  // The scenario CRUM's shadow pages cannot handle (paper §1, contribution
  // 2): two concurrent streams writing to the same UVM page. With true
  // page-fault semantics this is just two racing faults, first one wins.
  Device dev(small_config());
  const std::size_t page = dev.uvm().page_size();
  auto m = dev.malloc_managed(page);
  ASSERT_TRUE(m.ok());
  auto* words = static_cast<std::uint32_t*>(*m);
  std::memset(words, 0, page);
  ASSERT_TRUE(dev.uvm().prefetch(*m, page, true).ok());

  auto s1 = dev.streams().create_stream();
  auto s2 = dev.streams().create_stream();
  ASSERT_TRUE(s1.ok() && s2.ok());

  sim::KernelOp op1;
  op1.fn = [](void* const* args, const KernelBlock&) {
    auto* w = *static_cast<std::uint32_t* const*>(args[0]);
    for (int i = 0; i < 1000; i += 2) w[i] = 0xAAAAAAAA;
  };
  op1.dims.grid = Dim3{1, 1, 1};
  op1.dims.block = Dim3{1, 1, 1};
  op1.args.push(words);
  op1.name = "even";
  sim::KernelOp op2 = op1;
  op2.fn = [](void* const* args, const KernelBlock&) {
    auto* w = *static_cast<std::uint32_t* const*>(args[0]);
    for (int i = 1; i < 1000; i += 2) w[i] = 0x55555555;
  };
  op2.name = "odd";
  ASSERT_TRUE(dev.streams().enqueue(*s1, std::move(op1)).ok());
  ASSERT_TRUE(dev.streams().enqueue(*s2, std::move(op2)).ok());
  ASSERT_TRUE(dev.streams().synchronize_all().ok());

  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(words[i], (i % 2 == 0) ? 0xAAAAAAAA : 0x55555555) << i;
  }
}

TEST(UvmTest, RangeRequestsPastArenaEndRejectedByName) {
  // Table-driven spans that a hostile or buggy caller could pass; each
  // used to reach mprotect with an unclamped length. All must fail with a
  // named InvalidArgument and leave residency untouched.
  Device dev(small_config());
  auto m = dev.malloc_managed(128 << 10);
  ASSERT_TRUE(m.ok());
  auto& uvm = dev.uvm();
  struct Case {
    const char* name;
    std::ptrdiff_t off;  // from *m
    std::size_t bytes;
    const char* expect;
  };
  const Case cases[] = {
      {"length past reservation", 0, SIZE_MAX / 2, "extends past"},
      {"p + bytes wraps", 0, SIZE_MAX, "extends past"},
      {"pointer below arena", -(std::ptrdiff_t{1} << 30), 4096, "outside"},
  };
  for (const Case& c : cases) {
    // Integer arithmetic: hostile pointers must not be formed by (UB)
    // out-of-bounds pointer arithmetic under the sanitizer jobs.
    auto* p = reinterpret_cast<char*>(
        reinterpret_cast<std::uintptr_t>(*m) +
        static_cast<std::uintptr_t>(c.off));
    for (const bool to_device : {true, false}) {
      Status s = uvm.prefetch(p, c.bytes, to_device);
      ASSERT_FALSE(s.ok()) << c.name;
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.name;
      EXPECT_NE(s.message().find(c.expect), std::string::npos)
          << c.name << ": " << s.to_string();
    }
    Status s = uvm.arm_range(p, c.bytes);
    ASSERT_FALSE(s.ok()) << c.name;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.name;
  }
  // Residency was never altered by the rejected calls.
  EXPECT_EQ(*uvm.residency(*m), PageResidency::kHost);
}

TEST(UvmTest, ManagedAllocationOverflowRejected) {
  Device dev(small_config());
  for (const std::size_t n : {SIZE_MAX, SIZE_MAX - 511, SIZE_MAX / 2}) {
    auto m = dev.malloc_managed(n);
    ASSERT_FALSE(m.ok()) << n;
    EXPECT_EQ(m.status().code(), StatusCode::kOutOfMemory) << n;
  }
}

TEST(UvmTest, TailAllocationArmsAndFaultsWithoutOverrun) {
  // Regression for the mprotect range overrun: an allocation whose page
  // span ends exactly at the committed end of the arena. Arming and then
  // faulting the last page must stay inside the reservation (ASan/UBSan
  // jobs run this suite; an overrun dies there).
  DeviceConfig cfg = small_config();
  cfg.managed_capacity = 1 << 20;
  cfg.managed_chunk = 1 << 20;
  Device dev(cfg);
  const std::size_t page = dev.uvm().page_size();
  // Fill the arena to its last byte.
  auto m = dev.malloc_managed(cfg.managed_capacity);
  ASSERT_TRUE(m.ok());
  char* base = static_cast<char*>(*m);
  char* last_page = base + cfg.managed_capacity - page;
  ASSERT_TRUE(dev.uvm().prefetch(last_page, page, /*to_device=*/true).ok());
  EXPECT_EQ(*dev.uvm().residency(last_page), PageResidency::kDevice);
  last_page[page - 1] = 9;  // host fault on the very last byte
  EXPECT_EQ(*dev.uvm().residency(last_page), PageResidency::kHost);
  EXPECT_EQ(last_page[page - 1], 9);
  // Free's disarm path walks the same clamped range.
  ASSERT_TRUE(dev.free_any(*m).ok());
}

TEST(FaultRouterTest, HandlerInstalledOnce) {
  Device dev(small_config());
  EXPECT_TRUE(FaultRouter::instance().handler_installed());
}

TEST(CostModelTest, DelayRoughlyAccurate) {
  const auto t0 = std::chrono::steady_clock::now();
  simulate_delay_us(500);
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(us, 450.0);
  EXPECT_LT(us, 5000.0);
}

}  // namespace
}  // namespace crac::sim
