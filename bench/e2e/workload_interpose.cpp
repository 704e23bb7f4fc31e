// interpose: paired native/CRAC runs, no checkpoint.
//
// The interposition layer (crac plugin + split-process trampoline) does
// nearly all the extra work here and the checkpoint layers none, so this is
// the paper's Figure 2 overhead claim and isolates the per-call path. The
// mix is call-heavy (nw, dwt2d, gaussian, heartwall), stream and UVM apps
// (simple_streams, unified_memory_streams, mini_lulesh, mini_hypre), plus
// two compute-bound controls (bfs, hotspot3d).
#include <memory>
#include <optional>

#include "bench.hpp"
#include "timed.hpp"

namespace crac::bench {

namespace {

const std::vector<std::string> kApps = {
    "nw", "dwt2d", "gaussian", "heartwall",
    "simple_streams", "unified_memory_streams", "mini_lulesh", "mini_hypre",
    "bfs", "hotspot3d"};

void check_result(const AppSpec& a, double oracle,
                  const Result<workloads::WorkloadResult>& res, Report& r) {
  if (!res.ok()) return r.fail(res.status().to_string());
  if (!checksum_matches(a, res->checksum, oracle)) r.fail("mismatch: checksum");
}

void crac_arm(const AppSpec& a, double oracle, bool traced, Report& r) {
  std::unique_ptr<CracContext> ctx = timed_context(traced, r);
  cuda::CudaApi* api = &ctx->api();
  std::optional<TimedApi> timed;
  if (traced) api = &timed.emplace(api, kCracSide);
  const std::int64_t t1 = now_ns();
  Result<workloads::WorkloadResult> res = [&] {
    Span s("crac.app_run");
    return a.w->run(*api, a.params);
  }();
  r.value("run_ms", static_cast<double>(now_ns() - t1) * 1e-6);
  check_result(a, oracle, res, r);
  if (traced) report_context_layers(*ctx, r);
}

void native_arm(const AppSpec& a, double oracle, bool traced, Report& r) {
  NativeBackend native(bench_device());
  cuda::CudaApi* api = &native.api();
  std::optional<TimedApi> timed;
  if (traced) api = &timed.emplace(api, kNativeSide);
  const std::int64_t t0 = now_ns();
  Result<workloads::WorkloadResult> res = [&] {
    Span s("simgpu.native_run");
    return a.w->run(*api, a.params);
  }();
  r.value("run_ms", static_cast<double>(now_ns() - t0) * 1e-6);
  check_result(a, oracle, res, r);
}

}  // namespace

void run_interpose(Run& run) {
  const std::vector<AppSpec> set = apps(kApps, run.opt.seed);
  const std::vector<double> oracles = timed_setup<std::vector<double>>(
      run, [&] { return compute_oracles(set); }, [](std::vector<double>&) {});
  const std::vector<int> order = schedule(static_cast<int>(set.size()), run.opt.seed);

  const std::int64_t end = now_ns() + static_cast<std::int64_t>(run.opt.seconds * 1e9);
  for (int k = 0; now_ns() < end; ++k) {
    const int idx = order[static_cast<std::size_t>(k) % order.size()];
    const AppSpec& a = set[static_cast<std::size_t>(idx)];
    const double oracle = oracles[static_cast<std::size_t>(idx)];
    const int n = static_cast<int>(order.size());
    const bool traced = traced_trial(run.opt.trace, k, n);
    // ABBA: consecutive pairs swap which arm runs first, and so does each
    // app from one pass over the schedule to the next, so drift in machine
    // load hits both arms alike.
    const bool native_first = (k / n + k % n) % 2 == 0;
    Child crac, native;
    for (int arm = 0; arm < 2; ++arm) {
      const bool native_turn = (arm == 0) == native_first;
      Child c = Child::spawn(
          [&](Report& r) {
            if (native_turn) {
              native_arm(a, oracle, traced, r);
            } else {
              crac_arm(a, oracle, traced, r);
            }
          },
          k, traced);
      collect({&c}, 60);
      (native_turn ? native : crac) = std::move(c);
    }
    const bool crac_ok = run.tally(crac.out, std::string("crac/") + a.w->name());
    const bool native_ok = run.tally(native.out, std::string("native/") + a.w->name());
    run.absorb(crac);
    run.absorb(native);
    if (!crac_ok || !native_ok) continue;
    const double crac_ms = crac.out.at("run_ms");
    if (traced) {
      run.traced_op.add(idx, crac_ms);
      continue;
    }
    run.op.add(idx, crac_ms);
    run.aux.add(idx, native.out.at("run_ms"));
    run.overhead.add(idx, crac_ms / native.out.at("run_ms"));
    run.ready.add(idx, crac.out.at("init_ms"));
    run.rss.add(idx, crac.out.maxrss_mb);
  }
}

}  // namespace crac::bench
