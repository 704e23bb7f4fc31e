// Table 1 + Table 2 reproduction: application characterization.
//
// For every workload: UVM usage, stream usage, CUDA calls-per-second (CPS,
// equation 2 of §4.3: total upper->lower calls / native execution time, with
// each kernel launch counting as 3 calls via push/pop/launch), and the
// stream-count range. Also records each app's original command line
// (Table 2).
#include <cstdio>
#include <string>

#include "bench/bench_table.hpp"
#include "workloads/apps.hpp"

int main() {
  using namespace crac;
  using namespace crac::bench;

  print_header("Table 1: Application benchmarks characterization",
               "Table 1 and Table 2 of the paper");
  Report report("table1");
  Table& table = report.table(
      "characterization", {"name", "uvm", "streams", "stream_range"},
      {higher("cps", "%.0f"), lower("cuda_calls", "%.0f")});
  for (workloads::Workload* w : workloads::all_workloads()) {
    const auto params = scaled_params(w);
    std::string range = "-";
    if (w->uses_streams()) {
      const auto [lo, hi] = w->stream_range();
      range = std::to_string(lo) + "-" + std::to_string(hi);
    }
    Table::Row& row = table.row({w->name(), w->uses_uvm() ? "yes" : "no",
                                 w->uses_streams() ? "yes" : "no", range});
    row.repeat([&]() -> Status {
      CRAC_ASSIGN_OR_RETURN(TimedRun native,
                            time_run<NativeBackend>(w, params));
      row.add("cps", static_cast<double>(native.cuda_calls) / native.seconds);
      row.add("cuda_calls", static_cast<double>(native.cuda_calls));
      return OkStatus();
    });
  }
  table.print();
  std::printf("\nshape check (paper): Rodinia CPS spans 38K-132K on a V100 "
              "at full problem sizes.\n\n");

  Table& args = report.table("paper_args", {"name", "args"}, {});
  for (workloads::Workload* w : workloads::all_workloads()) {
    args.row({w->name(), w->paper_args()});
  }
  args.print();
  return report.write();
}
