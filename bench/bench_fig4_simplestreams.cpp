// Figure 4 reproduction: simpleStreams.
//  (a) total runtime vs niterations (kernel inner-loop length), native vs
//      CRAC — CRAC must stay within ~1%.
//  (b) per-(kernel+copy)-pair time, non-streamed vs streamed, native vs
//      CRAC — streaming should approach 1/nstreams of the serial cost as
//      kernels grow, and CRAC must not blunt that advantage even at the
//      maximum concurrency.
#include <cstdio>

#include "bench/bench_table.hpp"
#include "workloads/apps.hpp"

int main() {
  using namespace crac;
  using namespace crac::bench;

  print_header("Figure 4: simpleStreams runtime and per-kernel times",
               "Figures 4(a) and 4(b)");
  const int nstreams = static_cast<int>(env_int("CRAC_BENCH_STREAMS", 64));
  std::printf("streams=%d (paper: 128, the V100 concurrent-kernel max)\n\n",
              nstreams);
  Report report("fig4");
  Table& table = report.table(
      "simple_streams", {"niters"},
      {lower("native_s"), lower("crac_s"), lower("overhead_pct", "%.2f"),
       lower("native_serial_ms"), lower("crac_serial_ms"),
       lower("native_stream_ms"), lower("crac_stream_ms")});
  for (const int niters : {5, 10, 100, 500}) {
    workloads::WorkloadParams params;
    params.size_a = 1 << 16;
    params.size_b = static_cast<std::uint64_t>(niters);
    params.iterations =
        std::max(1, static_cast<int>(20 * scale()));  // nreps (paper: 1000)
    params.streams = nstreams;
    Table::Row& row = table.row({niters});
    row.repeat([&]() -> Status {
      workloads::SimpleStreamsReport native;
      {
        NativeBackend backend;
        CRAC_ASSIGN_OR_RETURN(native, workloads::run_simple_streams_detailed(
                                          backend.api(), params));
      }
      CracContext ctx(crac_options());
      CRAC_ASSIGN_OR_RETURN(
          workloads::SimpleStreamsReport crac,
          workloads::run_simple_streams_detailed(ctx.api(), params));
      row.add("native_s", native.total_s);
      row.add("crac_s", crac.total_s);
      row.add("overhead_pct", overhead_pct(native.total_s, crac.total_s));
      row.add("native_serial_ms", native.nonstreamed_pair_ms);
      row.add("crac_serial_ms", crac.nonstreamed_pair_ms);
      row.add("native_stream_ms", native.streamed_pair_ms);
      row.add("crac_stream_ms", crac.streamed_pair_ms);
      return OkStatus();
    });
  }
  table.print();
  std::printf("\nshape check (paper fig 4b): streamed pair cost << serial "
              "pair cost, and CRAC tracks native in both modes.\n");
  return report.write();
}
