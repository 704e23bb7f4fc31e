// COW snapshot-overlay tests, in three rings:
//
//   * SnapOverlayTest — the SnapOverlay state machine over plain heap
//     buffers: arm/release lifecycle, pre-image preservation, the
//     overflow-file spill, exhaustion backpressure, and a multi-threaded
//     writers-vs-capture property check. No Device, no fixed VA — these run
//     everywhere, including under TSan.
//   * DeviceSnapshotTest — the overlay wired through a real sim::Device
//     (kernel-chosen VA bases): racing mutators on the arena, UVM, and
//     stream paths while the capture reads the frozen state through the
//     overlay.
//   * SnapshotCracContextTest — the acceptance property on a full
//     CracContext (fixed VA, one context alive per process, excluded from
//     TSan runs by the *CracContext* name): a COW capture taken while
//     mutator threads hammer the device is byte-identical, section for
//     section, to a stop-the-world capture of the same frozen state.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/delta.hpp"
#include "ckpt/image.hpp"
#include "ckpt/snapstore.hpp"
#include "crac/context.hpp"
#include "simgpu/device.hpp"
#include "tests/ckpt_testing.hpp"

namespace crac {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
namespace testlib = ckpt::testlib;

// ---------------------------------------------------------------------------
// SnapOverlay units (heap buffers, no Device)
// ---------------------------------------------------------------------------

constexpr std::size_t kChunk = 4096;  // small chunks keep the units fast

ckpt::SnapOverlay::Config tiny_config(std::size_t mem_chunks,
                                      std::size_t file_chunks) {
  ckpt::SnapOverlay::Config cfg;
  cfg.chunk_bytes = kChunk;
  cfg.mem_cap_bytes = mem_chunks * kChunk;
  cfg.file_cap_bytes = file_chunks * kChunk;
  return cfg;
}

std::vector<ckpt::SnapOverlay::Region> one_region(const void* p,
                                                  std::size_t n) {
  return {{reinterpret_cast<std::uintptr_t>(p), n}};
}

TEST(SnapOverlayTest, ArmRejectsOverlappingRegions) {
  std::vector<std::byte> buf(8 * kChunk);
  ckpt::SnapOverlay overlay(tiny_config(8, 0));
  const auto base = reinterpret_cast<std::uintptr_t>(buf.data());
  const Status st = overlay.arm({{base, 4 * kChunk}, {base + kChunk, kChunk}});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(overlay.armed());
  // A rejected arm leaves the overlay usable.
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());
  EXPECT_TRUE(overlay.armed());
  overlay.release();
}

TEST(SnapOverlayTest, ArmIsExclusiveAndReleaseIsIdempotent) {
  std::vector<std::byte> buf(2 * kChunk);
  ckpt::SnapOverlay overlay(tiny_config(2, 0));
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());
  EXPECT_EQ(overlay.arm(one_region(buf.data(), buf.size())).code(),
            StatusCode::kFailedPrecondition);
  overlay.release();
  overlay.release();  // idempotent
  EXPECT_FALSE(overlay.armed());
  // Re-arm after release starts a fresh snapshot with fresh stats.
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());
  EXPECT_EQ(overlay.stats().chunks_preserved, 0u);
  overlay.release();
}

TEST(SnapOverlayTest, ServesPreImageAfterOverwrite) {
  std::vector<std::byte> buf = testlib::random_bytes(4 * kChunk, 11);
  const std::vector<std::byte> frozen = buf;
  ckpt::SnapOverlay overlay(tiny_config(4, 0));
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());

  // Overwrite chunks 1 and 2 (preserve first, as every write path must).
  overlay.copy_before_write(buf.data() + kChunk, 2 * kChunk);
  std::memset(buf.data() + kChunk, 0xEE, 2 * kChunk);

  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(overlay.read_range(buf.data(), buf.size(), out.data()).ok());
  EXPECT_EQ(out, frozen);  // overwritten chunks served from the snapstore

  const auto stats = overlay.stats();
  EXPECT_EQ(stats.chunks_preserved, 2u);
  EXPECT_EQ(stats.preserved_bytes, 2 * kChunk);
  EXPECT_EQ(stats.overlay_reads, 2u);
  EXPECT_EQ(stats.origin_reads, 2u);
  EXPECT_FALSE(stats.exhausted);
  overlay.release();

  // After release the buffer shows the post-snapshot writes.
  EXPECT_EQ(buf[kChunk], std::byte{0xEE});
}

TEST(SnapOverlayTest, UnarmedAndUntrackedReadsPassThrough) {
  std::vector<std::byte> buf = testlib::random_bytes(2 * kChunk, 21);
  std::vector<std::byte> other = testlib::random_bytes(kChunk, 22);
  ckpt::SnapOverlay overlay(tiny_config(2, 0));

  std::vector<std::byte> out(kChunk);
  // Unarmed: read_range is a plain copy; copy_before_write is a no-op.
  overlay.copy_before_write(buf.data(), kChunk);
  ASSERT_TRUE(overlay.read_range(buf.data(), kChunk, out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), buf.data(), kChunk), 0);

  // Armed over `buf` only: a range outside every region serves directly.
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());
  ASSERT_TRUE(overlay.read_range(other.data(), other.size(), out.data()).ok());
  EXPECT_EQ(std::memcmp(out.data(), other.data(), other.size()), 0);
  overlay.release();
}

TEST(SnapOverlayTest, SpillsToOverflowFileBeyondMemCap) {
  // One resident slot, plenty of file slots: chunk preserves past the first
  // must spill to the unlinked overflow file and still read back exactly.
  std::vector<std::byte> buf = testlib::random_bytes(6 * kChunk, 31);
  const std::vector<std::byte> frozen = buf;
  ckpt::SnapOverlay overlay(tiny_config(1, 16));
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());

  overlay.copy_before_write(buf.data(), buf.size());
  std::memset(buf.data(), 0xAB, buf.size());

  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(overlay.read_range(buf.data(), buf.size(), out.data()).ok());
  EXPECT_EQ(out, frozen);

  const auto stats = overlay.stats();
  EXPECT_EQ(stats.chunks_preserved, 6u);
  EXPECT_EQ(stats.spilled_chunks, 5u);  // all but the one resident slot
  EXPECT_EQ(stats.peak_store_bytes, 6 * kChunk);
  EXPECT_FALSE(stats.exhausted);
  overlay.release();
}

TEST(SnapOverlayTest, ExhaustionStallsWriterAndNeverCorruptsTheCapture) {
  // One memory slot, no overflow file: the second writer finds the store
  // full, reverts its chunk to CLEAN, and parks until release() — graceful
  // per-writer stop-the-world, never a torn capture.
  std::vector<std::byte> buf = testlib::random_bytes(2 * kChunk, 41);
  const std::vector<std::byte> frozen = buf;
  ckpt::SnapOverlay overlay(tiny_config(1, 0));
  ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());

  overlay.copy_before_write(buf.data(), kChunk);  // takes the only slot
  std::memset(buf.data(), 0x11, kChunk);

  std::atomic<bool> writer_unblocked{false};
  std::thread writer([&] {
    overlay.copy_before_write(buf.data() + kChunk, kChunk);  // stalls
    writer_unblocked.store(true);
    std::memset(buf.data() + kChunk, 0x22, kChunk);  // lands post-release
  });

  // Wait until the writer is parked in the exhaustion stall.
  while (overlay.stats().writer_stalls == 0) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(writer_unblocked.load());
  EXPECT_TRUE(overlay.stats().exhausted);

  // The capture still sees the frozen bytes: chunk 0 from the snapstore,
  // chunk 1 from the (unmodified, writer-stalled) origin.
  std::vector<std::byte> out(buf.size());
  ASSERT_TRUE(overlay.read_range(buf.data(), buf.size(), out.data()).ok());
  EXPECT_EQ(out, frozen);

  overlay.release();
  writer.join();
  EXPECT_TRUE(writer_unblocked.load());
  EXPECT_EQ(buf[kChunk], std::byte{0x22});  // the stalled write landed
}

TEST(SnapOverlayTest, ConcurrentWritersNeverLeakPostSnapshotBytes) {
  // The core COW property under contention: however many writers race the
  // capture, a read through the overlay only ever sees the frozen image.
  // Each writer owns a disjoint stripe (two threads writing one byte
  // unsynchronized would be an app-level race, not an overlay one).
  constexpr std::size_t kChunks = 64;
  constexpr int kWriters = 4;
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::byte> buf =
        testlib::random_bytes(kChunks * kChunk, 100 + round);
    const std::vector<std::byte> frozen = buf;
    ckpt::SnapOverlay overlay(tiny_config(kChunks, 0));
    ASSERT_TRUE(overlay.arm(one_region(buf.data(), buf.size())).ok());

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        const std::size_t stripe = kChunks / kWriters * kChunk;
        std::byte* base = buf.data() + w * stripe;
        unsigned salt = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t off = (++salt * 977) % (stripe - 64);
          overlay.copy_before_write(base + off, 64);
          std::memset(base + off, 0x80 + w, 64);
        }
      });
    }

    std::vector<std::byte> out(buf.size());
    for (int reads = 0; reads < 4; ++reads) {
      ASSERT_TRUE(overlay.read_range(buf.data(), buf.size(), out.data()).ok());
      ASSERT_EQ(out, frozen) << "round " << round << " read " << reads;
    }

    stop.store(true);
    for (auto& t : writers) t.join();
    overlay.release();
  }
}

// ---------------------------------------------------------------------------
// Device-level adversarial capture (kernel-chosen VA, TSan-safe)
// ---------------------------------------------------------------------------

sim::DeviceConfig device_config() {
  sim::DeviceConfig cfg;
  cfg.device_va_base = 0;
  cfg.pinned_va_base = 0;
  cfg.managed_va_base = 0;
  cfg.device_capacity = 64 << 20;
  cfg.pinned_capacity = 16 << 20;
  cfg.managed_capacity = 64 << 20;
  cfg.device_chunk = 4 << 20;
  cfg.pinned_chunk = 4 << 20;
  cfg.managed_chunk = 4 << 20;
  return cfg;
}

TEST(DeviceSnapshotTest, ArmedCaptureIsFrozenUnderRacingMutators) {
  sim::Device dev(device_config());
  constexpr std::size_t kDevBytes = 2 << 20;
  constexpr std::size_t kMngBytes = 256 << 10;

  auto d = dev.malloc_device(kDevBytes);
  auto m = dev.malloc_managed(kMngBytes);
  ASSERT_TRUE(d.ok() && m.ok());

  std::vector<std::byte> dev_frozen = testlib::random_bytes(kDevBytes, 7);
  ASSERT_TRUE(dev.memcpy_sync(*d, dev_frozen.data(), kDevBytes,
                              sim::MemcpyKind::kHostToDevice).ok());
  std::memset(*m, 0x3C, kMngBytes);  // direct UVM write (faults + marks)
  std::vector<std::byte> mng_frozen(kMngBytes, std::byte{0x3C});
  ASSERT_TRUE(dev.synchronize().ok());

  ASSERT_TRUE(dev.arm_snapshot().ok());
  ASSERT_TRUE(dev.snap_overlay().armed());

  // Mutators on two intercepted paths: the stream engine (memset via the
  // default stream, which preserves through Device::note_write) and direct
  // UVM stores (which preserve through the re-armed fault handler). Each
  // confirms one write before the capture reads, so the preserve counters
  // below are deterministic, then keeps hammering.
  std::atomic<bool> stop{false};
  std::atomic<int> first_writes{0};
  std::thread stream_mutator([&] {
    ASSERT_TRUE(dev.memset_sync(*d, 0x5F, kDevBytes / 2).ok());
    first_writes.fetch_add(1);
    auto* tail = static_cast<std::byte*>(*d) + kDevBytes - 4096;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(dev.memset_sync(tail, 0x60, 4096).ok());
    }
  });
  std::thread uvm_mutator([&] {
    auto* p = static_cast<std::byte*>(*m);
    std::memset(p, 0x91, 4096);
    first_writes.fetch_add(1);
    while (!stop.load(std::memory_order_relaxed)) {
      std::memset(p + 8192, 0x92, 4096);
    }
  });
  while (first_writes.load() < 2) std::this_thread::yield();

  // The capture reads the frozen state through the overlay, repeatedly,
  // while the mutators keep writing.
  std::vector<std::byte> out(kDevBytes);
  for (int reads = 0; reads < 3; ++reads) {
    ASSERT_TRUE(dev.snap_overlay().read_range(*d, kDevBytes, out.data()).ok());
    ASSERT_EQ(out, dev_frozen) << "device read " << reads;
    std::vector<std::byte> mng_out(kMngBytes);
    ASSERT_TRUE(
        dev.snap_overlay().read_range(*m, kMngBytes, mng_out.data()).ok());
    ASSERT_EQ(mng_out, mng_frozen) << "managed read " << reads;
  }

  const auto stats = dev.snap_overlay().stats();
  EXPECT_GT(stats.chunks_preserved, 0u);
  EXPECT_GT(stats.peak_store_bytes, 0u);
  EXPECT_FALSE(stats.exhausted);

  stop.store(true);
  stream_mutator.join();
  uvm_mutator.join();
  dev.release_snapshot();
  EXPECT_FALSE(dev.snap_overlay().armed());

  // The mutators' writes really landed: the live state moved on.
  ASSERT_TRUE(dev.memcpy_sync(out.data(), *d, kDevBytes,
                              sim::MemcpyKind::kDeviceToHost).ok());
  EXPECT_NE(out, dev_frozen);
  EXPECT_EQ(out[0], std::byte{0x5F});
}

TEST(DeviceSnapshotTest, ReleaseSnapshotIsIdempotentOnDevice) {
  sim::Device dev(device_config());
  auto d = dev.malloc_device(1 << 20);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(dev.arm_snapshot().ok());
  dev.release_snapshot();
  dev.release_snapshot();
  EXPECT_FALSE(dev.snap_overlay().armed());
  // A released device is immediately re-armable.
  ASSERT_TRUE(dev.arm_snapshot().ok());
  dev.release_snapshot();
}

// ---------------------------------------------------------------------------
// Full-context byte-identity property (fixed VA — not under TSan)
// ---------------------------------------------------------------------------

CracOptions context_options(bool cow) {
  CracOptions opts;
  opts.split.device.device_capacity = 256 << 20;
  opts.split.device.pinned_capacity = 64 << 20;
  opts.split.device.managed_capacity = 256 << 20;
  opts.split.device.device_chunk = 8 << 20;
  opts.split.device.pinned_chunk = 4 << 20;
  opts.split.device.managed_chunk = 8 << 20;
  opts.split.upper_heap_capacity = 256 << 20;
  opts.split.upper_heap_chunk = 4 << 20;
  opts.cow_capture = cow;
  return opts;
}

struct BuiltState {
  void* dev = nullptr;
  void* mng = nullptr;
  void* pin = nullptr;
  std::vector<std::byte> dev_bytes;
  std::vector<std::byte> mng_bytes;
  std::vector<std::byte> pin_bytes;
};

// Deterministically reproducible device state: both the COW and the STW
// run build exactly this, so their frozen instants are the same state.
BuiltState build_state(CracContext& ctx) {
  BuiltState s;
  auto& api = ctx.api();
  constexpr std::size_t kDevBytes = 8 << 20;
  constexpr std::size_t kMngBytes = 256 << 10;
  constexpr std::size_t kPinBytes = 128 << 10;

  EXPECT_EQ(api.cudaMalloc(&s.dev, kDevBytes), cudaSuccess);
  s.dev_bytes = testlib::random_bytes(kDevBytes, 1234);
  EXPECT_EQ(api.cudaMemcpy(s.dev, s.dev_bytes.data(), kDevBytes,
                           cudaMemcpyHostToDevice),
            cudaSuccess);

  EXPECT_EQ(api.cudaMallocManaged(&s.mng, kMngBytes,
                                  cuda::cudaMemAttachGlobal),
            cudaSuccess);
  std::memset(s.mng, 0x77, kMngBytes);
  s.mng_bytes.assign(kMngBytes, std::byte{0x77});

  EXPECT_EQ(api.cudaMallocHost(&s.pin, kPinBytes), cudaSuccess);
  s.pin_bytes = testlib::random_bytes(kPinBytes, 5678);
  std::memcpy(s.pin, s.pin_bytes.data(), kPinBytes);

  // An upper-heap allocation with fixed contents, so the heap sections are
  // exercised (and deterministic) too.
  auto heap_mem = ctx.heap().alloc_array<std::uint64_t>(512);
  EXPECT_TRUE(heap_mem.ok());
  for (std::uint64_t i = 0; i < 512; ++i) (*heap_mem)[i] = i * 2654435761u;

  // A stream op so the inventory section is non-trivial.
  EXPECT_EQ(api.cudaMemsetAsync(static_cast<char*>(s.dev) + kDevBytes / 2,
                                0x2B, 4096, 0),
            cudaSuccess);
  std::memset(s.dev_bytes.data() + kDevBytes / 2, 0x2B, 4096);
  EXPECT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  return s;
}

struct NamedPayload {
  ckpt::SectionType type;
  std::string name;
  std::vector<std::byte> bytes;
};

std::vector<NamedPayload> read_all_sections(const std::string& path) {
  std::vector<NamedPayload> out;
  auto reader = ckpt::ImageReader::from_file(path);
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
  if (!reader.ok()) return out;
  for (const auto& sec : reader->sections()) {
    auto bytes = reader->read_section(sec);
    EXPECT_TRUE(bytes.ok()) << sec.name << ": " << bytes.status().to_string();
    out.push_back({sec.type, sec.name,
                   bytes.ok() ? std::move(*bytes) : std::vector<std::byte>{}});
  }
  return out;
}

TEST(SnapshotCracContextTest, CowImageMatchesStopTheWorld) {
  const std::string cow_path = testlib::temp_path("snap_cow");
  const std::string stw_path = testlib::temp_path("snap_stw");

  BuiltState frozen;
  ckpt::SnapOverlay::Stats cow_stats{};
  {
    // Run A: COW capture with mutator threads racing the drain. The
    // mutators gate on the overlay arming — everything they write lands
    // strictly after the freeze point, so the frozen instant is exactly
    // the built state.
    CracContext ctx(context_options(/*cow=*/true));
    frozen = build_state(ctx);
    sim::Device& dev = ctx.process().lower().device();

    std::atomic<bool> done{false};
    std::thread api_mutator([&] {
      while (!dev.snap_overlay().armed() && !done.load()) {
        std::this_thread::yield();
      }
      while (dev.snap_overlay().armed() && !done.load()) {
        ctx.api().cudaMemset(frozen.dev, 0xDE, 1 << 20);
      }
    });
    std::thread uvm_mutator([&] {
      auto* p = static_cast<std::byte*>(frozen.mng);
      while (!dev.snap_overlay().armed() && !done.load()) {
        std::this_thread::yield();
      }
      while (dev.snap_overlay().armed() && !done.load()) {
        std::memset(p, 0xAD, 8192);
      }
    });

    auto report = ctx.checkpoint(cow_path);
    done.store(true);
    api_mutator.join();
    uvm_mutator.join();
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report->cow_capture);
    cow_stats.chunks_preserved = report->snapstore_preserved_chunks;
    cow_stats.peak_store_bytes = report->snapstore_peak_bytes;
  }

  {
    // Run B: classic stop-the-world capture of the identical state.
    CracContext ctx(context_options(/*cow=*/false));
    (void)build_state(ctx);
    auto report = ctx.checkpoint(stw_path);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_FALSE(report->cow_capture);
  }

  // Byte identity, section for section. Only the image-id metadata section
  // (a fresh random id per capture) may differ.
  const auto cow_secs = read_all_sections(cow_path);
  const auto stw_secs = read_all_sections(stw_path);
  ASSERT_EQ(cow_secs.size(), stw_secs.size());
  for (std::size_t i = 0; i < cow_secs.size(); ++i) {
    EXPECT_EQ(cow_secs[i].type, stw_secs[i].type) << "section " << i;
    EXPECT_EQ(cow_secs[i].name, stw_secs[i].name) << "section " << i;
    if (cow_secs[i].name == ckpt::kSectionImageId) continue;
    EXPECT_EQ(cow_secs[i].bytes, stw_secs[i].bytes)
        << "section " << i << " (" << cow_secs[i].name
        << ") differs between COW and stop-the-world capture";
  }

  // The COW image restores to the frozen state, not to what the mutators
  // made of the live buffers.
  auto restarted = CracContext::restart_from_image(
      cow_path, context_options(/*cow=*/true));
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  std::vector<std::byte> back(frozen.dev_bytes.size());
  ASSERT_EQ((*restarted)->api().cudaMemcpy(back.data(), frozen.dev,
                                           back.size(), cudaMemcpyDeviceToHost),
            cudaSuccess);
  EXPECT_EQ(back, frozen.dev_bytes);
  EXPECT_EQ(std::memcmp(frozen.mng, frozen.mng_bytes.data(),
                        frozen.mng_bytes.size()),
            0);
  EXPECT_EQ(std::memcmp(frozen.pin, frozen.pin_bytes.data(),
                        frozen.pin_bytes.size()),
            0);

  std::remove(cow_path.c_str());
  std::remove(stw_path.c_str());
}

// Holds the capture's first write after the overlay arms until `hold`
// returns, so an application thread can act while the drain is known to
// have read nothing yet.
class HeldSink final : public ckpt::Sink {
 public:
  HeldSink(sim::Device* dev, std::function<void()> hold)
      : dev_(dev), hold_(std::move(hold)) {}
  std::vector<std::byte> take() && { return std::move(inner_).take(); }

 private:
  Status do_write(const void* data, std::size_t size) override {
    if (hold_ && dev_->snap_overlay().armed()) {
      hold_();
      hold_ = nullptr;
    }
    return inner_.write(data, size);
  }

  sim::Device* dev_;
  std::function<void()> hold_;
  ckpt::MemorySink inner_;
};

std::vector<NamedPayload> sections_of(std::vector<std::byte> image) {
  std::vector<NamedPayload> out;
  auto reader = ckpt::ImageReader::from_bytes(std::move(image));
  EXPECT_TRUE(reader.ok()) << reader.status().to_string();
  if (!reader.ok()) return out;
  for (const auto& sec : reader->sections()) {
    auto bytes = reader->read_section(sec);
    EXPECT_TRUE(bytes.ok()) << sec.name << ": " << bytes.status().to_string();
    out.push_back({sec.type, sec.name,
                   bytes.ok() ? std::move(*bytes) : std::vector<std::byte>{}});
  }
  return out;
}

TEST(SnapshotCracContextTest, MemoryCommittedAfterTheFreezeOwesTheCaptureNothing) {
  // The overlay arms over each arena's committed span at the freeze. While
  // the COW drain runs, the application allocates past that span (a new
  // arena chunk commits), writes the new allocation and overwrites a frozen
  // one. The image must still equal the stop-the-world image of the frozen
  // state, and only the overwrite may cost preserved pre-images.
  constexpr std::size_t kFreshBytes = 16 << 20;
  std::vector<std::byte> cow_image;
  std::uint64_t preserved_chunks = 0;
  {
    CracContext ctx(context_options(/*cow=*/true));
    const BuiltState frozen = build_state(ctx);
    sim::Device& dev = ctx.process().lower().device();
    const auto base =
        reinterpret_cast<std::uintptr_t>(dev.device_arena().arena_base());
    const std::size_t armed_span = dev.device_arena().committed_bytes();

    void* fresh = nullptr;
    HeldSink sink(&dev, [&] {
      std::thread app([&] {
        EXPECT_EQ(ctx.api().cudaMalloc(&fresh, kFreshBytes), cudaSuccess);
        EXPECT_EQ(ctx.api().cudaMemset(fresh, 0x3C, kFreshBytes), cudaSuccess);
        EXPECT_EQ(ctx.api().cudaMemset(frozen.dev, 0xDE, 1 << 20),
                  cudaSuccess);
      });
      app.join();
    });
    auto report = ctx.checkpoint_to_sink(sink);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    EXPECT_TRUE(report->cow_capture);
    // The new allocation reaches past the span the overlay armed over.
    EXPECT_GT(dev.device_arena().committed_bytes(), armed_span);
    EXPECT_GT(reinterpret_cast<std::uintptr_t>(fresh) + kFreshBytes,
              base + armed_span);
    preserved_chunks = report->snapstore_preserved_chunks;
    cow_image = std::move(sink).take();
  }
  EXPECT_GT(preserved_chunks, 0u);  // the frozen overwrite was preserved
  EXPECT_LT(preserved_chunks * ckpt::kDefaultDirtyChunkBytes, kFreshBytes)
      << "writes to memory committed after the freeze were preserved";

  std::vector<std::byte> stw_image;
  {
    CracContext ctx(context_options(/*cow=*/false));
    (void)build_state(ctx);
    ckpt::MemorySink sink;
    auto report = ctx.checkpoint_to_sink(sink);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    stw_image = std::move(sink).take();
  }

  const auto cow_secs = sections_of(std::move(cow_image));
  const auto stw_secs = sections_of(std::move(stw_image));
  ASSERT_EQ(cow_secs.size(), stw_secs.size());
  for (std::size_t i = 0; i < cow_secs.size(); ++i) {
    EXPECT_EQ(cow_secs[i].name, stw_secs[i].name) << "section " << i;
    if (cow_secs[i].name == ckpt::kSectionImageId) continue;
    EXPECT_EQ(cow_secs[i].bytes, stw_secs[i].bytes)
        << "section " << i << " (" << cow_secs[i].name
        << ") differs between COW and stop-the-world capture";
  }
}

// The descriptor of the armed overlay's overflow file (created unlinked as
// crac-snapstore-XXXXXX), or -1.
int snapstore_overflow_fd() {
  for (int fd = 0; fd < 1024; ++fd) {
    char target[512];
    const std::string link = "/proc/self/fd/" + std::to_string(fd);
    const ssize_t n = ::readlink(link.c_str(), target, sizeof(target) - 1);
    if (n <= 0) continue;
    target[n] = '\0';
    if (std::strstr(target, "crac-snapstore-") != nullptr) return fd;
  }
  return -1;
}

TEST(SnapshotCracContextTest, FailingDrainFillLeavesNoImageAndNoTemp) {
  // A COW drain whose fill fails mid-chunk: a frozen allocation's
  // pre-images went to the snapstore's overflow file, which is damaged
  // before the drain reads them back. The checkpoint must fail with that
  // error and leave neither the image nor its .tmp at the path.
  //
  // The .tmp is a FIFO the test drains, so the capture can be held
  // deterministically: once the overlay arms, the drain cannot get past
  // the pipe's capacity (plus one chunk) until the test reads on, and
  // `early` (8 MiB, lowest address, drained first) keeps it away from
  // `late` until then.
  const std::string path = testlib::temp_path("snap_failfill");
  const std::string tmp = path + ".tmp";
  CracOptions opts = context_options(/*cow=*/true);
  opts.split.device.snapstore_mem_cap_bytes = 0;  // pre-images go to file
  CracContext ctx(opts);
  sim::Device& dev = ctx.process().lower().device();
  void* early = nullptr;
  void* late = nullptr;
  ASSERT_EQ(ctx.api().cudaMalloc(&early, 8 << 20), cudaSuccess);
  ASSERT_EQ(ctx.api().cudaMalloc(&late, 1 << 20), cudaSuccess);
  ASSERT_LT(early, late);
  ASSERT_EQ(ctx.api().cudaMemset(early, 0x01, 8 << 20), cudaSuccess);
  ASSERT_EQ(ctx.api().cudaMemset(late, 0x02, 1 << 20), cudaSuccess);
  ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);

  std::remove(tmp.c_str());
  ASSERT_EQ(::mkfifo(tmp.c_str(), 0600), 0);
  std::thread drainer([&] {
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    std::vector<char> buf(64 << 10);
    bool damaged = false;
    for (;;) {
      if (!damaged && dev.snap_overlay().armed()) {
        damaged = true;
        EXPECT_EQ(ctx.api().cudaMemset(late, 0x7F, 1 << 20), cudaSuccess);
        const int overflow = snapstore_overflow_fd();
        EXPECT_GE(overflow, 0);
        if (overflow >= 0) {
          EXPECT_EQ(::ftruncate(overflow, 0), 0);
        }
      }
      if (::read(fd, buf.data(), buf.size()) <= 0) break;
    }
    ::close(fd);
  });
  auto report = ctx.checkpoint(path);
  drainer.join();

  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("snapstore overflow"),
            std::string::npos)
      << report.status().to_string();
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0);
}

TEST(SnapshotCracContextTest, CowPauseExcludesTheDrain) {
  // The report must show the pause ending before the bulk of the capture:
  // pause_s covers freeze -> arm only, and the snapstore counters are
  // plumbed through.
  const std::string path = testlib::temp_path("snap_pause");
  CracContext ctx(context_options(/*cow=*/true));
  void* dev = nullptr;
  ASSERT_EQ(ctx.api().cudaMalloc(&dev, 16 << 20), cudaSuccess);
  ASSERT_EQ(ctx.api().cudaMemset(dev, 1, 16 << 20), cudaSuccess);
  ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);

  auto report = ctx.checkpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_TRUE(report->cow_capture);
  EXPECT_GT(report->pause_s, 0.0);
  EXPECT_LE(report->pause_s, report->total_s);
  // No writers raced this capture, so nothing needed preserving.
  EXPECT_EQ(report->snapstore_preserved_chunks, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace crac
