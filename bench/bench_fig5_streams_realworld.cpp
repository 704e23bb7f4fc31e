// Figure 5 reproduction:
//  (a) runtimes of the stream-oriented benchmarks (simpleStreams at max
//      streams, UnifiedMemoryStreams, mini-LULESH) native vs CRAC;
//  (b) runtimes of the real-world benchmarks (mini-HPGMG-FV, mini-HYPRE);
//  (c) checkpoint and restart times with image sizes for all five.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_table.hpp"
#include "workloads/apps.hpp"

int main() {
  using namespace crac;
  using namespace crac::bench;

  print_header("Figure 5: stream-oriented and real-world benchmarks",
               "Figures 5(a), 5(b), 5(c)");
  Report report("fig5");

  struct App {
    workloads::Workload* w;
    const char* figure;
  };
  const std::vector<App> apps = {
      {workloads::simple_streams_workload(), "5a"},
      {workloads::unified_memory_streams_workload(), "5a"},
      {workloads::mini_lulesh_workload(), "5a"},
      {workloads::mini_hpgmg_workload(), "5b"},
      {workloads::mini_hypre_workload(), "5b"},
  };

  Table& runtime =
      report.table("runtime", {"fig", "name"}, paired_measures());
  for (const App& app : apps) {
    repeat_paired(runtime.row({app.figure, app.w->name()}), app.w,
                   scaled_params(app.w));
  }
  runtime.print();

  Table& ckpt_restart = report.table(
      "ckpt_restart", {"name"},
      {lower("ckpt_s"), lower("restart_s"), lower("image_bytes", "%.0f"),
       lower("calls_replayed", "%.0f")});
  for (const App& app : apps) {
    const auto params = scaled_params(app.w);
    const std::string path =
        "/tmp/crac_bench5c_" + std::string(app.w->name()) + ".img";
    Table::Row& row = ckpt_restart.row({app.w->name()});
    row.repeat([&]() -> Status {
      Result<CheckpointReport> ckpt = Internal("checkpoint never ran");
      {
        CracContext ctx(crac_options());
        bool done = false;
        auto hook = [&](int iteration) {
          if (done || iteration < 1) return;
          ckpt = ctx.checkpoint(path);
          done = true;
        };
        CRAC_RETURN_IF_ERROR(status_of(app.w->run(ctx.api(), params, hook)));
        if (!done) ckpt = ctx.checkpoint(path);
        CRAC_RETURN_IF_ERROR(status_of(ckpt));
      }
      RestartReport restart;
      const Status restored = status_of(
          CracContext::restart_from_image(path, crac_options(), &restart));
      std::remove(path.c_str());
      CRAC_RETURN_IF_ERROR(restored);
      row.add("ckpt_s", ckpt->total_s);
      row.add("restart_s", restart.total_s);
      row.add("image_bytes", static_cast<double>(ckpt->image_bytes));
      row.add("calls_replayed",
              static_cast<double>(restart.replay.calls_replayed));
      return OkStatus();
    });
  }
  ckpt_restart.print();
  std::printf("\nshape check (paper): overhead <2%% (LULESH, HPGMG), ~1.5%% "
              "(UMS), ~3%% (HYPRE); HYPRE has the largest image (big UVM "
              "regions); HPGMG's restart is the slowest relative to its "
              "image because of its long replay log.\n");
  return report.write();
}
