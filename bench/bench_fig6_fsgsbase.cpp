// Figure 6 reproduction: CRAC runtime overhead with and without the Linux
// FSGSBASE patch. On an unpatched kernel every upper<->lower transition
// sets the fs register via a kernel call; with FSGSBASE it is a single
// unprivileged instruction. The paper finds the benefit small and often
// near zero — the point being that CRAC's overhead is already dominated by
// nothing at all.
#include <cstdio>

#include "bench/bench_table.hpp"
#include "splitproc/trampoline.hpp"

int main() {
  using namespace crac;
  using namespace crac::bench;

  print_header("Figure 6: CRAC overhead, unpatched vs FSGSBASE Linux",
               "Figure 6 (left: runtimes; right: overhead %% and delta)");
  std::printf("CPU FSGSBASE support: %s\n\n",
              split::Trampoline::cpu_supports_fsgsbase()
                  ? "yes"
                  : "no (direct-mode cost = plain call)");
  Report report("fig6");
  Table& table = report.table(
      "rodinia", {"name"},
      {lower("native_s"), lower("syscall_s"), lower("fsgsbase_s"),
       lower("overhead_pct", "%.2f"), lower("fsgsbase_overhead_pct", "%.2f"),
       lower("delta_pts", "%+.2f")});
  for (workloads::Workload* w : workloads::rodinia_workloads()) {
    const auto params = scaled_params(w);
    Table::Row& row = table.row({w->name()});
    // The three arms interleave per repetition (as repeat_paired does) so
    // load drift cannot masquerade as a patch effect.
    row.repeat([&]() -> Status {
      CRAC_ASSIGN_OR_RETURN(TimedRun native,
                            time_run<NativeBackend>(w, params));
      CRAC_ASSIGN_OR_RETURN(
          TimedRun unpatched,
          time_run<CracContext>(w, params,
                                crac_options(split::FsSwitchMode::kSyscall)));
      CRAC_ASSIGN_OR_RETURN(
          TimedRun patched,
          time_run<CracContext>(w, params,
                                crac_options(split::FsSwitchMode::kFsgsbase)));
      const double ovh = overhead_pct(native.seconds, unpatched.seconds);
      const double ovh_fs = overhead_pct(native.seconds, patched.seconds);
      row.add("native_s", native.seconds);
      row.add("syscall_s", unpatched.seconds);
      row.add("fsgsbase_s", patched.seconds);
      row.add("overhead_pct", ovh);
      row.add("fsgsbase_overhead_pct", ovh_fs);
      row.add("delta_pts", ovh_fs - ovh);
      return OkStatus();
    });
  }
  table.print();
  std::printf("\nshape check (paper fig 6, right-bottom): the FSGSBASE "
              "delta is small (within ~2 points either way) because the "
              "per-call fs-switch cost is tiny relative to kernel work.\n");
  return report.write();
}
