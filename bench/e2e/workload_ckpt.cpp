// ckpt-file: one app under CRAC; at a seeded hook invocation it checkpoints
// to a local file (no fsync — the library's current policy), immediately
// restarts in place from that file, then finishes the run, whose checksum
// must still match the CPU oracle.
//
// The capture (write) and restore (read) paths of ckpt/crac dominate and
// interposition barely matters: Figure 3 with a correctness check. Images
// span ~1.5-30 MB across the mix.
#include <cstdio>
#include <fstream>
#include <optional>

#include "bench.hpp"
#include "timed.hpp"

namespace crac::bench {

namespace {

const std::vector<std::string> kApps = {
    "nw", "bfs", "unified_memory_streams", "mini_hypre",
    "streamcluster", "heartwall", "hotspot"};

void trial(const AppSpec& a, double oracle, int fire, const std::string& path,
           bool traced, Report& r) {
  std::unique_ptr<CracContext> owned = timed_context(traced, r);
  CracContext& ctx = *owned;
  cuda::CudaApi* api = &ctx.api();
  std::optional<TimedApi> timed;
  if (traced) api = &timed.emplace(api, kCracSide);

  int calls = 0;
  bool fired = false;
  std::string error;
  double ckpt_ms = 0, restart_ms = 0;
  std::uint64_t image_bytes = 0;
  auto hook = [&](int) {
    if (fired || ++calls < fire) return;
    fired = true;
    const std::int64_t t0 = now_ns();
    Result<CheckpointReport> c = [&] {
      Span s("ckpt.checkpoint");
      return ctx.checkpoint(path);
    }();
    ckpt_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    if (!c.ok()) {
      error = "checkpoint: " + c.status().to_string();
      return;
    }
    image_bytes = c->image_bytes;
    const std::int64_t t1 = now_ns();
    Result<RestartReport> s = [&] {
      Span span("ckpt.restart");
      return ctx.restart_in_place(path);
    }();
    restart_ms = static_cast<double>(now_ns() - t1) * 1e-6;
    if (!s.ok()) {
      error = "restart_in_place: " + s.status().to_string();
      return;
    }
    if (traced) {
      report_checkpoint(*c, r);
      report_restart(*s, r);
    }
  };
  const std::int64_t t0 = now_ns();
  Result<workloads::WorkloadResult> res = [&] {
    Span s("crac.app_run");
    return a.w->run(*api, a.params, hook);
  }();
  const double run_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  if (!error.empty()) return r.fail(error);
  if (!res.ok()) return r.fail(res.status().to_string());
  if (!fired) return r.fail("hook never fired");
  if (!checksum_matches(a, res->checksum, oracle)) return r.fail("mismatch: checksum");
  r.value("ckpt_ms", ckpt_ms);
  r.value("restart_ms", restart_ms);
  r.value("compute_ms", run_ms - ckpt_ms - restart_ms);
  // The peak before the floor's buffers are added to this process.
  r.value("maxrss_mb", peak_rss_mb());
  r.value("floor_ms", memcpy_floor_ms(image_bytes));
  if (traced) {
    report_context_layers(ctx, r);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::vector<std::byte> image(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
    if (!in) return r.fail("re-reading the image for the waterfall failed");
    stage_waterfall(image, path + ".stage", r);
  }
}

}  // namespace

void run_ckpt_file(Run& run) {
  const std::vector<AppSpec> set = apps(kApps, run.opt.seed);
  const std::vector<double> oracles = timed_setup<std::vector<double>>(
      run, [&] { return compute_oracles(set); }, [](std::vector<double>&) {});
  const std::vector<int> order = schedule(static_cast<int>(set.size()), run.opt.seed);
  Rng rng(run.opt.seed);

  const std::int64_t end = now_ns() + static_cast<std::int64_t>(run.opt.seconds * 1e9);
  for (int k = 0; now_ns() < end; ++k) {
    const int idx = order[static_cast<std::size_t>(k) % order.size()];
    const AppSpec& a = set[static_cast<std::size_t>(idx)];
    const double oracle = oracles[static_cast<std::size_t>(idx)];
    const int fire = pick_fire_index(a, rng);
    const bool traced = traced_trial(run.opt.trace, k, static_cast<int>(order.size()));
    const std::string path = tmp_path(run, "ckpt" + std::to_string(k)) + ".img";
    Child c = Child::spawn(
        [&](Report& r) { trial(a, oracle, fire, path, traced, r); }, k, traced);
    collect({&c}, 60);
    std::remove(path.c_str());
    std::remove((path + ".stage").c_str());
    const bool ok = run.tally(c.out, a.w->name());
    run.absorb(c);
    if (!ok) continue;
    const Outcome& o = c.out;
    if (traced) {
      run.traced_op.add(idx, o.at("ckpt_ms"));
      continue;
    }
    run.op.add(idx, o.at("ckpt_ms"));
    run.aux.add(idx, o.at("compute_ms"));
    run.ready.add(idx, o.at("restart_ms"));
    run.rss.add(idx, o.at("maxrss_mb"));
    run.overhead.add(idx, o.at("ckpt_ms") / o.at("floor_ms"));
  }
}

}  // namespace crac::bench
