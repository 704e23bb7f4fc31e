// Shared infrastructure for the paper-reproduction benchmark binaries.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation. Problem sizes are scaled for a laptop-class run and can be
// grown with CRAC_BENCH_SCALE (multiplies iteration counts); each cell runs
// CRAC_BENCH_REPS times (default 3 vs the paper's 10) and reports the
// median with its quartiles (bench_table.hpp).
#pragma once

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/env.hpp"
#include "crac/context.hpp"
#include "simcuda/lower_half.hpp"
#include "simcuda/trampolined_api.hpp"
#include "workloads/workload.hpp"

namespace crac::bench {

inline int reps() {
  return static_cast<int>(env_int("CRAC_BENCH_REPS", 3));
}

inline double scale() { return env_double("CRAC_BENCH_SCALE", 1.0); }

inline workloads::WorkloadParams scaled_params(workloads::Workload* w) {
  workloads::WorkloadParams p = w->default_params();
  const double s = scale();
  if (s != 1.0 && p.iterations > 0) {
    p.iterations = std::max(1, static_cast<int>(p.iterations * s));
  }
  return p;
}

// "Native" backend: trampolined API with no fs-switch modelling and no
// interposer — the paper's baseline runs.
class NativeBackend {
 public:
  explicit NativeBackend(sim::DeviceConfig config = {}) {
    // Kernel-chosen bases so a concurrently-alive CRAC context (fixed
    // bases) never conflicts.
    config.device_va_base = 0;
    config.pinned_va_base = 0;
    config.managed_va_base = 0;
    runtime_ = std::make_unique<cuda::LowerHalfRuntime>(config);
    runtime_->fill_dispatch_table(&table_);
    api_ = std::make_unique<cuda::TrampolinedApi>(&table_, &trampoline_);
  }

  cuda::CudaApi& api() { return *api_; }
  std::uint64_t cuda_calls() const { return trampoline_.transitions(); }

 private:
  std::unique_ptr<cuda::LowerHalfRuntime> runtime_;
  split::Trampoline trampoline_{split::FsSwitchMode::kNone};
  cuda::DispatchTable table_;
  std::unique_ptr<cuda::TrampolinedApi> api_;
};

// CRAC backend options used across benches: fs switches via kernel calls
// (unpatched Linux), the paper's default configuration.
inline CracOptions crac_options(
    split::FsSwitchMode fs = split::FsSwitchMode::kSyscall) {
  CracOptions opts;
  opts.split.fs_mode = fs;
  return opts;
}

struct TimedRun {
  double seconds = 0;
  std::uint64_t cuda_calls = 0;
};

inline double median_of(std::vector<double>& xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// One timed run of `w` on a fresh Backend (NativeBackend, or a CracContext
// built from `args`): wall seconds and the CUDA calls the run made. A
// failed run is an error, never a time.
template <typename Backend, typename... Args>
Result<TimedRun> time_run(workloads::Workload* w,
                          const workloads::WorkloadParams& params,
                          Args&&... args) {
  Backend backend(std::forward<Args>(args)...);
  const std::uint64_t calls0 = backend.cuda_calls();
  WallTimer t;
  auto result = w->run(backend.api(), params);
  const double seconds = t.elapsed_s();
  if (!result.ok()) return result.status();
  return TimedRun{seconds, backend.cuda_calls() - calls0};
}

inline double overhead_pct(double native_s, double crac_s) {
  if (native_s <= 0) return 0;
  return (crac_s - native_s) / native_s * 100.0;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("reps=%d scale=%.2f (CRAC_BENCH_REPS / CRAC_BENCH_SCALE)\n",
              reps(), scale());
  std::printf("================================================================\n");
}

}  // namespace crac::bench
