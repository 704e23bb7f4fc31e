// Figure 2 reproduction: Rodinia runtimes, native vs CRAC, with the total
// CUDA API call count per benchmark. The paper reports 0-2% overhead for
// the longer benchmarks and up to ~14% for sub-7-second ones (startup and
// measurement noise dominate there); the shape to check is "CRAC ~= native".
#include <cstdio>

#include "bench/bench_table.hpp"

int main() {
  using namespace crac;
  using namespace crac::bench;

  print_header("Figure 2: Rodinia runtimes without and with CRAC",
               "Figure 2 (runtime bars + call counts)");
  Report report("fig2");
  Table& table = report.table("rodinia", {"name"}, paired_measures());
  for (workloads::Workload* w : workloads::rodinia_workloads()) {
    repeat_paired(table.row({w->name()}), w, scaled_params(w));
  }
  table.print();
  std::printf("\nshape check (paper): overhead_pct 0-2%% for >10s runs, "
              "1-14%% for short ones.\n");
  return report.write();
}
