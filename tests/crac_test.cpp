// End-to-end tests of the CRAC core: split-process assembly, API logging,
// checkpoint, in-place restart, fresh-context restart, address determinism,
// UVM state round trips, fat-binary re-registration.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "crac/context.hpp"
#include "simcuda/module.hpp"
#include "splitproc/proc_maps.hpp"

namespace crac {
namespace {

using cuda::cudaMemcpyDeviceToHost;
using cuda::cudaMemcpyHostToDevice;
using cuda::cudaSuccess;
using cuda::dim3;

// Small problem sizes so every test runs in milliseconds.
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
  return ::testing::TempDir() + "/crac_test_" + tag + ".img";
}

void scale_kernel(void* const* args, const cuda::KernelBlock& blk) {
  auto* data = *static_cast<float* const*>(args[0]);
  const float factor = cuda::kernel_arg<float>(args, 1);
  const auto n = cuda::kernel_arg<std::uint64_t>(args, 2);
  blk.for_each_thread([&](const sim::Dim3& t) {
    const std::size_t i = blk.global_x(t.x);
    if (i < n) data[i] *= factor;
  });
}

struct ScaleModuleHolder {
  cuda::KernelModule mod{"crac_test.cu"};
  ScaleModuleHolder() {
    mod.add_kernel<float*, float, std::uint64_t>(&scale_kernel, "scale");
  }
};

cuda::KernelModule& shared_scale_module() {
  static ScaleModuleHolder holder;
  return holder.mod;
}

TEST(SplitProcessTest, AssemblesBothHalves) {
  SplitProcess proc(test_options().split);
  EXPECT_TRUE(proc.lower_alive());
  EXPECT_TRUE(proc.dispatch_table().complete());
  // Program images for both halves are tracked.
  EXPECT_GE(proc.address_space().regions(split::HalfTag::kUpper).size(), 4u);
  EXPECT_GE(proc.address_space().regions(split::HalfTag::kLower).size(), 6u);
}

TEST(SplitProcessTest, ArenaCommitsTaggedLower) {
  SplitProcess proc(test_options().split);
  void* p = nullptr;
  ASSERT_EQ(proc.api().cudaMalloc(&p, 4096), cudaSuccess);
  auto region = proc.address_space().find(p);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->tag, split::HalfTag::kLower);
}

TEST(SplitProcessTest, HeapCommitsTaggedUpper) {
  SplitProcess proc(test_options().split);
  auto p = proc.heap().alloc(4096);
  ASSERT_TRUE(p.ok());
  auto region = proc.address_space().find(*p);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->tag, split::HalfTag::kUpper);
}

TEST(SplitProcessTest, FixedBasesAppearInRealProcMaps) {
  SplitProcess proc(test_options().split);
  void* p = nullptr;
  ASSERT_EQ(proc.api().cudaMalloc(&p, 4096), cudaSuccess);
  // The simulated device arena truly lives at its fixed base in this
  // process's address space.
  auto maps = split::read_self_maps();
  ASSERT_TRUE(maps.ok());
  EXPECT_TRUE(split::covered_by(*maps, reinterpret_cast<std::uintptr_t>(p),
                                4096));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) & 0xFF0000000000ULL,
            0x700000000000ULL);
}

TEST(SplitProcessTest, FreshLowerHalfReproducesAddresses) {
  // The determinism property at the heart of §3.2.4.
  SplitProcessOptions opts = test_options().split;
  SplitProcess proc(opts);
  void* a1 = nullptr;
  void* b1 = nullptr;
  ASSERT_EQ(proc.api().cudaMalloc(&a1, 10000), cudaSuccess);
  ASSERT_EQ(proc.api().cudaMalloc(&b1, 20000), cudaSuccess);

  proc.discard_lower_half();
  EXPECT_FALSE(proc.lower_alive());
  ASSERT_TRUE(proc.load_fresh_lower_half().ok());

  void* a2 = nullptr;
  void* b2 = nullptr;
  ASSERT_EQ(proc.api().cudaMalloc(&a2, 10000), cudaSuccess);
  ASSERT_EQ(proc.api().cudaMalloc(&b2, 20000), cudaSuccess);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(b1, b2);
}

TEST(CracPluginTest, LogsAllocationFamily) {
  CracContext ctx(test_options());
  auto& api = ctx.api();
  void* d = nullptr;
  void* h = nullptr;
  void* m = nullptr;
  ASSERT_EQ(api.cudaMalloc(&d, 1024), cudaSuccess);
  ASSERT_EQ(api.cudaMallocHost(&h, 2048), cudaSuccess);
  ASSERT_EQ(api.cudaMallocManaged(&m, 4096, cuda::cudaMemAttachGlobal),
            cudaSuccess);
  ASSERT_EQ(api.cudaFree(d), cudaSuccess);

  const CudaApiLog& log = ctx.plugin().log();
  EXPECT_EQ(log.count(LogOp::kMallocDevice), 1u);
  EXPECT_EQ(log.count(LogOp::kMallocHost), 1u);
  EXPECT_EQ(log.count(LogOp::kMallocManaged), 1u);
  EXPECT_EQ(log.count(LogOp::kFree), 1u);
  EXPECT_EQ(ctx.plugin().active_allocation_count(), 2u);
}

TEST(CracPluginTest, DataPathCallsAreNotLogged) {
  CracContext ctx(test_options());
  auto& api = ctx.api();
  void* d = nullptr;
  ASSERT_EQ(api.cudaMalloc(&d, 1024), cudaSuccess);
  const std::size_t before = ctx.plugin().log().size();
  std::vector<char> host(1024);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(api.cudaMemcpy(d, host.data(), 1024, cudaMemcpyHostToDevice),
              cudaSuccess);
  }
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  EXPECT_EQ(ctx.plugin().log().size(), before);  // memcpy/sync not logged
}

TEST(ApiLogTest, SerializeDeserializeRoundTrip) {
  CudaApiLog log;
  log.append(LogRecord{LogOp::kMallocDevice, 4096, 0, 0x7000'0000'0000ULL, 0,
                       ""});
  log.append(LogRecord{LogOp::kRegisterFunction, 0, 0, 2, 0xdeadbeef,
                       "my_kernel"});
  auto bytes = log.serialize();
  auto parsed = CudaApiLog::deserialize(bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->records()[0].op, LogOp::kMallocDevice);
  EXPECT_EQ(parsed->records()[0].addr, 0x7000'0000'0000ULL);
  EXPECT_EQ(parsed->records()[1].name, "my_kernel");
}

// The full lifecycle exercised by most of the following tests:
// allocate+compute -> checkpoint -> (destroy) -> restart -> verify+continue.
class CracRoundTripTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kN = 4096;

  // Runs a workload phase: y[i] starts at i, is scaled by 2 on the device.
  void run_phase(CracContext& ctx, void** dev_out) {
    auto& api = ctx.api();
    shared_scale_module().register_with(api);
    void* dev = nullptr;
    ASSERT_EQ(api.cudaMalloc(&dev, kN * sizeof(float)), cudaSuccess);
    std::vector<float> init(kN);
    for (std::uint64_t i = 0; i < kN; ++i) init[i] = static_cast<float>(i);
    ASSERT_EQ(api.cudaMemcpy(dev, init.data(), kN * sizeof(float),
                             cudaMemcpyHostToDevice),
              cudaSuccess);
    auto* f = static_cast<float*>(dev);
    ASSERT_EQ(cuda::launch(api, &scale_kernel, dim3{32, 1, 1}, dim3{128, 1, 1},
                           0, f, 2.0f, kN),
              cudaSuccess);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
    *dev_out = dev;
  }

  void expect_device_contents(cuda::CudaApi& api, void* dev, float factor) {
    std::vector<float> out(kN);
    ASSERT_EQ(api.cudaMemcpy(out.data(), dev, kN * sizeof(float),
                             cudaMemcpyDeviceToHost),
              cudaSuccess);
    for (std::uint64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], factor * static_cast<float>(i)) << i;
    }
  }
};

TEST_F(CracRoundTripTest, CheckpointThenResumeKeepsRunning) {
  const std::string path = temp_image_path("resume");
  CracContext ctx(test_options());
  void* dev = nullptr;
  run_phase(ctx, &dev);

  auto report = ctx.checkpoint(path);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report->image_bytes, kN * sizeof(float));
  EXPECT_GE(report->active_allocations, 1u);

  // Execution continues: device state unaffected by the checkpoint.
  expect_device_contents(ctx.api(), dev, 2.0f);
  auto* f = static_cast<float*>(dev);
  ASSERT_EQ(cuda::launch(ctx.api(), &scale_kernel, dim3{32, 1, 1},
                         dim3{128, 1, 1}, 0, f, 3.0f, kN),
            cudaSuccess);
  ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
  expect_device_contents(ctx.api(), dev, 6.0f);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, InPlaceRestartRebuildsDeviceState) {
  const std::string path = temp_image_path("inplace");
  CracContext ctx(test_options());
  void* dev = nullptr;
  run_phase(ctx, &dev);
  ASSERT_TRUE(ctx.checkpoint(path).ok());

  // Clobber device state after the checkpoint, then restart from the image.
  ASSERT_EQ(ctx.api().cudaMemset(dev, 0, kN * sizeof(float)), cudaSuccess);
  auto report = ctx.restart_in_place(path);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_GT(report->replay.calls_replayed, 0u);
  EXPECT_EQ(report->replay.allocations_restored, 1u);
  EXPECT_EQ(report->replay.bytes_refilled, kN * sizeof(float));
  EXPECT_EQ(report->replay.kernels_reregistered, 1u);

  // Same pointer, restored contents, and kernels still launch.
  expect_device_contents(ctx.api(), dev, 2.0f);
  auto* f = static_cast<float*>(dev);
  ASSERT_EQ(cuda::launch(ctx.api(), &scale_kernel, dim3{32, 1, 1},
                         dim3{128, 1, 1}, 0, f, 5.0f, kN),
            cudaSuccess);
  ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
  expect_device_contents(ctx.api(), dev, 10.0f);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, FreshContextRestartRestoresEverything) {
  const std::string path = temp_image_path("fresh");
  void* dev = nullptr;
  float* heap_data = nullptr;
  {
    CracContext ctx(test_options());
    run_phase(ctx, &dev);
    // Upper-heap state referencing the device buffer.
    auto arr = ctx.heap().alloc_array<float>(8);
    ASSERT_TRUE(arr.ok());
    heap_data = *arr;
    for (int i = 0; i < 8; ++i) heap_data[i] = 100.0f + static_cast<float>(i);
    ctx.set_root(heap_data);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
    // Context destroyed here: the "process" is gone.
  }

  RestartReport report;
  auto restarted = CracContext::restart_from_image(path, test_options(),
                                                   &report);
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  CracContext& ctx = **restarted;

  // Root pointer and heap contents restored at original addresses.
  EXPECT_EQ(ctx.root(), heap_data);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(heap_data[i], 100.0f + static_cast<float>(i));
  }
  // Device allocation restored at the original address with contents.
  expect_device_contents(ctx.api(), dev, 2.0f);
  // Kernels re-registered: launches work in the restarted context.
  auto* f = static_cast<float*>(dev);
  ASSERT_EQ(cuda::launch(ctx.api(), &scale_kernel, dim3{32, 1, 1},
                         dim3{128, 1, 1}, 0, f, 0.5f, kN),
            cudaSuccess);
  ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
  expect_device_contents(ctx.api(), dev, 1.0f);
  EXPECT_GT(report.total_s, 0.0);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, FreeReplayKeepsDeterminism) {
  // Allocate/free churn before the checkpoint: the full-log replay must
  // reproduce the exact allocator state (paper: replay allocs AND frees).
  const std::string path = temp_image_path("churn");
  void* survivor = nullptr;
  void* post_restart_probe_expected = nullptr;
  {
    CracContext ctx(test_options());
    auto& api = ctx.api();
    shared_scale_module().register_with(api);
    std::vector<void*> temp(10);
    for (int i = 0; i < 10; ++i) {
      ASSERT_EQ(api.cudaMalloc(&temp[i], 4096 * (1 + i)), cudaSuccess);
    }
    for (int i = 0; i < 10; i += 2) {
      ASSERT_EQ(api.cudaFree(temp[i]), cudaSuccess);
    }
    ASSERT_EQ(api.cudaMalloc(&survivor, 12345), cudaSuccess);
    ASSERT_EQ(api.cudaMemset(survivor, 0x77, 12345), cudaSuccess);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
    // What would the *next* allocation be? Record it, then undo it, so the
    // restarted context must reproduce it.
    void* probe = nullptr;
    ASSERT_EQ(api.cudaMalloc(&probe, 777), cudaSuccess);
    post_restart_probe_expected = probe;
    ASSERT_EQ(api.cudaFree(probe), cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }

  auto restarted = CracContext::restart_from_image(path, test_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  auto& api = (*restarted)->api();
  // Contents of the survivor restored.
  std::vector<unsigned char> out(12345);
  ASSERT_EQ(api.cudaMemcpy(out.data(), survivor, out.size(),
                           cudaMemcpyDeviceToHost),
            cudaSuccess);
  for (unsigned char c : out) ASSERT_EQ(c, 0x77);
  // Allocator continues exactly where it left off.
  void* probe = nullptr;
  ASSERT_EQ(api.cudaMalloc(&probe, 777), cudaSuccess);
  EXPECT_EQ(probe, post_restart_probe_expected);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, StreamsAndEventsRecreated) {
  const std::string path = temp_image_path("streams");
  std::vector<cuda::cudaStream_t> streams(8);
  cuda::cudaEvent_t event = 0;
  {
    CracContext ctx(test_options());
    auto& api = ctx.api();
    for (auto& s : streams) ASSERT_EQ(api.cudaStreamCreate(&s), cudaSuccess);
    // Destroy two, keeping ids 'holey' — replay must reproduce the holes.
    ASSERT_EQ(api.cudaStreamDestroy(streams[2]), cudaSuccess);
    ASSERT_EQ(api.cudaStreamDestroy(streams[5]), cudaSuccess);
    ASSERT_EQ(api.cudaEventCreate(&event), cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }

  auto restarted = CracContext::restart_from_image(path, test_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  auto& ctx = **restarted;
  EXPECT_EQ(ctx.plugin().last_replay_stats().streams_recreated, 8u);
  EXPECT_EQ(ctx.plugin().last_replay_stats().events_recreated, 1u);
  // The surviving streams are usable under their original ids.
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(ctx.api().cudaStreamSynchronize(streams[i]),
                cuda::cudaErrorInvalidResourceHandle);
    } else {
      EXPECT_EQ(ctx.api().cudaStreamSynchronize(streams[i]), cudaSuccess);
    }
  }
  EXPECT_EQ(ctx.api().cudaEventQuery(event), cudaSuccess);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, ManagedMemoryAndResidencySurvive) {
  const std::string path = temp_image_path("uvm");
  void* managed = nullptr;
  const std::size_t bytes = 512 << 10;
  {
    CracContext ctx(test_options());
    auto& api = ctx.api();
    ASSERT_EQ(api.cudaMallocManaged(&managed, bytes,
                                    cuda::cudaMemAttachGlobal),
              cudaSuccess);
    auto* words = static_cast<std::uint32_t*>(managed);
    for (std::size_t i = 0; i < bytes / 4; ++i) {
      words[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    // Put the first half device-resident.
    ASSERT_EQ(api.cudaMemPrefetchAsync(managed, bytes / 2, 0, 0), cudaSuccess);
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }

  auto restarted = CracContext::restart_from_image(path, test_options());
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  auto& ctx = **restarted;
  // Residency restored: first half device-resident.
  auto& uvm = ctx.process().lower().device().uvm();
  EXPECT_EQ(*uvm.residency(managed), sim::PageResidency::kDevice);
  EXPECT_EQ(*uvm.residency(static_cast<char*>(managed) + bytes - 1),
            sim::PageResidency::kHost);
  // Contents intact (reading the device-resident half faults pages back —
  // that is UVM working as intended).
  auto* words = static_cast<std::uint32_t*>(managed);
  for (std::size_t i = 0; i < bytes / 4; ++i) {
    ASSERT_EQ(words[i], static_cast<std::uint32_t>(i * 2654435761u)) << i;
  }
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, UvmPrefetchOverlapMatchesSerialRestore) {
  // Replay-time UVM residency restore with several managed ranges: the
  // checkpoint pool size (ckpt_threads) drives the decode-ahead of the
  // restore, never what it restores. The residency map, restored-page
  // count and contents must be byte-identical to the ckpt_threads = 1
  // restore.
  const std::string path = temp_image_path("uvm_prefetch");
  constexpr std::size_t kRanges = 5;
  const std::size_t bytes = 256 << 10;
  void* managed[kRanges] = {};
  {
    CracContext ctx(test_options());
    auto& api = ctx.api();
    for (std::size_t r = 0; r < kRanges; ++r) {
      ASSERT_EQ(api.cudaMallocManaged(&managed[r], bytes,
                                      cuda::cudaMemAttachGlobal),
                cudaSuccess);
      auto* words = static_cast<std::uint32_t*>(managed[r]);
      for (std::size_t i = 0; i < bytes / 4; ++i) {
        words[i] = static_cast<std::uint32_t>((r + 1) * 2654435761u + i);
      }
      // A different device-resident prefix per range, so every range's
      // residency bitmap is distinct (and none is trivial).
      const std::size_t resident = bytes * (r + 1) / (kRanges + 1);
      ASSERT_EQ(api.cudaMemPrefetchAsync(managed[r], resident, 0, 0),
                cudaSuccess);
    }
    ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }

  struct Observed {
    std::size_t pages_restored = 0;
    std::vector<sim::PageResidency> residency;
    std::vector<std::uint32_t> contents;
  };
  auto restore_with_threads = [&](std::size_t threads) {
    CracOptions opts = test_options();
    opts.ckpt_threads = threads;
    auto restarted = CracContext::restart_from_image(path, opts);
    Observed got;
    EXPECT_TRUE(restarted.ok()) << restarted.status().to_string();
    if (!restarted.ok()) return got;
    auto& ctx = **restarted;
    got.pages_restored = ctx.plugin().last_replay_stats().uvm_pages_restored;
    // Residency first (reading contents faults device pages back to host).
    auto& uvm = ctx.process().lower().device().uvm();
    const std::size_t page = uvm.page_size();
    for (std::size_t r = 0; r < kRanges; ++r) {
      for (std::size_t off = 0; off < bytes; off += page) {
        got.residency.push_back(
            *uvm.residency(static_cast<char*>(managed[r]) + off));
      }
    }
    for (std::size_t r = 0; r < kRanges; ++r) {
      const auto* words = static_cast<const std::uint32_t*>(managed[r]);
      got.contents.insert(got.contents.end(), words, words + bytes / 4);
    }
    return got;
  };

  const Observed serial = restore_with_threads(1);  // no pool
  const Observed pooled = restore_with_threads(4);
  EXPECT_GT(serial.pages_restored, 0u);
  EXPECT_EQ(pooled.pages_restored, serial.pages_restored);
  EXPECT_EQ(pooled.residency, serial.residency);
  EXPECT_EQ(pooled.contents, serial.contents);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, CompressedImageWorks) {
  const std::string path = temp_image_path("gzipish");
  CracOptions opts = test_options();
  opts.codec = ckpt::Codec::kLz;
  void* dev = nullptr;
  std::uint64_t raw = 0, disk = 0;
  {
    CracContext ctx(opts);
    run_phase(ctx, &dev);
    // Add a large, highly-compressible device buffer.
    void* big = nullptr;
    ASSERT_EQ(ctx.api().cudaMalloc(&big, 8 << 20), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaMemset(big, 0, 8 << 20), cudaSuccess);
    ASSERT_EQ(ctx.api().cudaDeviceSynchronize(), cudaSuccess);
    auto report = ctx.checkpoint(path);
    ASSERT_TRUE(report.ok());
    raw = report->raw_bytes;
    disk = report->image_bytes;
  }
  EXPECT_LT(disk, raw / 2) << "compression should shrink the image";
  auto restarted = CracContext::restart_from_image(path, opts);
  ASSERT_TRUE(restarted.ok()) << restarted.status().to_string();
  expect_device_contents((*restarted)->api(), dev, 2.0f);
  std::remove(path.c_str());
}

TEST_F(CracRoundTripTest, CorruptImageRefusedAtRestart) {
  const std::string path = temp_image_path("corrupt");
  {
    CracContext ctx(test_options());
    void* dev = nullptr;
    run_phase(ctx, &dev);
    ASSERT_TRUE(ctx.checkpoint(path).ok());
  }
  // Flip one byte mid-file.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, size / 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, size / 2, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto restarted = CracContext::restart_from_image(path, test_options());
  ASSERT_FALSE(restarted.ok());
  EXPECT_EQ(restarted.status().code(), StatusCode::kCorrupt);
  std::remove(path.c_str());
}

TEST(CracCpsTest, TrampolineCountsCudaCalls) {
  CracContext ctx(test_options());
  auto& api = ctx.api();
  const std::uint64_t before = ctx.cuda_calls();
  void* p = nullptr;
  ASSERT_EQ(api.cudaMalloc(&p, 4096), cudaSuccess);
  ASSERT_EQ(api.cudaDeviceSynchronize(), cudaSuccess);
  ASSERT_EQ(api.cudaFree(p), cudaSuccess);
  EXPECT_EQ(ctx.cuda_calls() - before, 3u);
}

}  // namespace
}  // namespace crac
