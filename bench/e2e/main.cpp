// crac_bench — one workload, one seed, one run:
//
//   crac_bench --workload <interpose|ckpt-file|migrate|registry> --seed <n>
//              [--seconds <s>] [--trace 0|1] [--quick]
//
// Prints every metric by name with its unit, the failure tally, and as its
// last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the same
// trials alternate traced/untraced and the metrics are the per-layer set,
// plus a Chrome trace and a self-time table. A results file with a metadata
// header (nproc, build type, commit, workload, seed) goes to
// build-bench/results/ under the working directory; scratch files go to
// build-bench/tmp/ and are removed at exit.
#include <signal.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"

#ifndef CRAC_BENCH_BUILD_TYPE
#define CRAC_BENCH_BUILD_TYPE "unknown"
#endif

namespace crac::bench {
namespace {

// The end-to-end set; every workload reports each one (README has the
// per-workload meaning of op, aux, ready and the overhead ratio's floor).
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", false},       {"op_ms_p50", "ms", false},
    {"op_ms_p90", "ms", false},    {"aux_ms_p50", "ms", false},
    {"ready_ms_p50", "ms", false}, {"peak_rss_mb", "MB", false},
    {"overhead_ratio_p50", "ratio", false},
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "crac_bench: %s\nusage: crac_bench --workload "
               "<interpose|ckpt-file|migrate|registry> --seed <n> [--seconds <s>] "
               "[--trace 0|1] [--quick]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    auto number = [&](auto parse_fn) {
      const std::string s = next();
      try {
        return parse_fn(s);
      } catch (const std::exception&) {
        usage(("not a number for " + a + ": " + s).c_str());
      }
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = number([](const std::string& s) { return std::stoull(s); });
    } else if (a == "--seconds") {
      o.seconds = number([](const std::string& s) { return std::stod(s); });
    } else if (a == "--trace") {
      o.trace = next() != "0";
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  o.out_dir = "build-bench/results";
  o.tmp_dir = "build-bench/tmp/run" + std::to_string(::getpid());
  return o;
}

std::vector<Metric> end_to_end(const Run& run) {
  const double values[] = {median(run.setup_s), run.op.typical(),    run.op.tail(0.9),
                           run.aux.typical(),   run.ready.typical(), run.rss.typical(),
                           run.overhead.typical()};
  std::vector<Metric> out;
  for (std::size_t i = 0; i < kEndToEnd.size(); ++i) {
    out.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
  }
  return out;
}

std::vector<Metric> per_layer(Run& run, const std::vector<LayerSelf>& selves) {
  std::map<std::string, double> v = run.layer;
  for (const auto& [key, samples] : run.layer_samples) {
    if (v.count(key) != 0) continue;
    bool summed = false;
    for (const MetricDef& m : kLayerMetrics) {
      if (key == m.name) summed = m.summed;
    }
    double sum = 0;
    for (double x : samples) sum += x;
    v[key] = summed ? sum : median(samples);
  }
  for (int side = 0; side < kApiSides; ++side) {
    const std::string prefix = side == kCracSide ? "crac." : "native.";
    CallHist all;
    for (int k = 0; k < kCallKinds; ++k) {
      const CallHist& h = run.telemetry.calls[side][k];
      all.merge(h);
      v[prefix + call_kind_name(k) + ".ns_p50"] = h.quantile(0.5);
    }
    v[prefix + "ns_per_call_p50"] = all.quantile(0.5);
  }
  // Medians, not means: a run's few long synchronizations would otherwise
  // swamp the per-call difference.
  if (v["crac.ns_per_call_p50"] > 0 && v["native.ns_per_call_p50"] > 0) {
    v["crac.added_ns_per_call"] = v["crac.ns_per_call_p50"] - v["native.ns_per_call_p50"];
  }
  const double ops = static_cast<double>(std::max<std::size_t>(1, run.traced_op.count()));
  for (const LayerSelf& l : selves) v["selftime." + l.layer + "_ms"] = l.self_ms / ops;
  if (!run.op.empty() && !run.traced_op.empty()) {
    v["trace.overhead_ratio"] = run.traced_op.typical() / run.op.typical();
  }
  std::vector<Metric> out;
  for (const MetricDef& m : kLayerMetrics) out.push_back({m.name, m.unit, v[m.name]});
  return out;
}

std::string metadata_json(const Options& o) {
  utsname u{};
  ::uname(&u);
  const char* commit = std::getenv("CRAC_BENCH_COMMIT");
  return std::string("{\"nproc\": ") + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + json_str(CRAC_BENCH_BUILD_TYPE) +
         ", \"commit\": " + json_str(commit != nullptr ? commit : "unknown") +
         ", \"host\": " + json_str(std::string(u.sysname) + " " + u.release + " " + u.machine) +
         ", \"workload\": " + json_str(o.workload) + ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + num(o.seconds) + ", \"trace\": " + (o.trace ? "true" : "false") +
         ", \"quick\": " + (o.quick ? "true" : "false") + "}";
}

}  // namespace
}  // namespace crac::bench

int main(int argc, char** argv) {
  using namespace crac::bench;
  const Options opt = parse(argc, argv);
  void (*workload)(Run&) = nullptr;
  if (opt.workload == "interpose") workload = run_interpose;
  if (opt.workload == "ckpt-file") workload = run_ckpt_file;
  if (opt.workload == "migrate") workload = run_migrate;
  if (opt.workload == "registry") workload = run_registry;
  if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  std::filesystem::create_directories(opt.tmp_dir, ec);
  if (ec) {
    std::fprintf(stderr, "crac_bench: cannot create %s: %s\n", opt.tmp_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  // Spool overflow and snapstore spill files follow TMPDIR; keep them here.
  ::setenv("TMPDIR", opt.tmp_dir.c_str(), 1);
  ::signal(SIGPIPE, SIG_IGN);
  Tracer::get().enabled = opt.trace;

  Run run;
  run.opt = opt;
  const std::string meta = metadata_json(opt);
  std::printf("crac_bench %s\n", meta.c_str());
  try {
    workload(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crac_bench: %s set-up failed: %s\n", opt.workload.c_str(), e.what());
    std::filesystem::remove_all(opt.tmp_dir, ec);
    return 3;
  }
  std::filesystem::remove_all(opt.tmp_dir, ec);
  if (run.attempted == 0) {
    std::fprintf(stderr, "crac_bench: no operation was attempted\n");
    return 1;
  }

  std::vector<Metric> metrics;
  std::vector<LayerSelf> selves;
  const std::string tag = opt.workload + "_seed" + std::to_string(opt.seed);
  if (opt.trace) {
    for (SpanRec& s : Tracer::get().telemetry.spans) run.telemetry.record(s);
    selves = self_times(run.telemetry.spans);
    metrics = per_layer(run, selves);
    const std::string trace_path = opt.out_dir + "/trace_" + tag + ".json";
    if (write_chrome_trace(trace_path, run.telemetry.spans, meta)) {
      std::printf("trace: %s (%zu spans)\n", trace_path.c_str(), run.telemetry.spans.size());
    }
    std::printf("\nself time by layer (%zu traced ops):\n", run.traced_op.count());
    double total = 0;
    for (const LayerSelf& l : selves) total += l.self_ms;
    for (const LayerSelf& l : selves) {
      std::printf("  %-10s %8llu spans %12.3f ms %10.3f ms/op %6.1f%%\n", l.layer.c_str(),
                  static_cast<unsigned long long>(l.spans), l.self_ms,
                  l.self_ms / std::max<double>(1, static_cast<double>(run.traced_op.count())),
                  total > 0 ? 100 * l.self_ms / total : 0);
    }
    std::printf("tracing overhead: traced op %.3f ms vs untraced %.3f ms (ratio %.4f)\n",
                run.traced_op.typical(), run.op.typical(),
                run.op.empty() ? 0 : run.traced_op.typical() / run.op.typical());
  } else {
    metrics = end_to_end(run);
  }

  std::printf("\n%s, seed %llu, %.0f s%s: %llu ops succeeded\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? ", traced" : "",
              static_cast<unsigned long long>(run.attempted - run.failed));
  std::printf("samples: op %zu (+%zu traced), aux %zu, ready %zu, rss %zu, set-ups %zu\n",
              run.op.count(), run.traced_op.count(), run.aux.count(), run.ready.count(),
              run.rss.count(), run.setup_s.size());
  if (!run.overhead.empty()) {
    std::printf("op time over its floor (%s): p50 %.4f, p90 %.4f over %zu ops\n",
                opt.workload == "interpose" ? "CRAC over native run" : "memcpy of its bytes",
                run.overhead.typical(), run.overhead.tail(0.9), run.overhead.count());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed: %llu of %llu ops (%llu wrong answers)\n",
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.mismatches));
  for (const auto& [reason, n] : run.reasons) {
    std::printf("  %5llu  %s\n", static_cast<unsigned long long>(n), reason.c_str());
  }

  bool measured = true;
  if (!opt.trace) {
    for (const Metric& m : metrics) measured = measured && m.value > 0;
  }
  const bool correct = run.mismatches == 0 && measured;
  std::string metrics_json;
  for (const Metric& m : metrics) {
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += json_str(m.name) + ": {\"value\": " + num(m.value) +
                    ", \"unit\": " + json_str(m.unit) + "}";
  }
  const std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(run.attempted) +
                             ", \"failed\": " + std::to_string(run.failed) +
                             ", \"metrics\": {" + metrics_json + "}}";

  std::string reasons_json;
  for (const auto& [reason, n] : run.reasons) {
    if (!reasons_json.empty()) reasons_json += ", ";
    reasons_json += json_str(reason) + ": " + std::to_string(n);
  }
  const std::string file = opt.out_dir + "/" + tag + (opt.trace ? "_trace" : "") + ".json";
  if (std::FILE* f = std::fopen(file.c_str(), "w")) {
    std::fprintf(f, "{\"meta\": %s,\n \"failures\": {%s},\n \"result\": %s}\n", meta.c_str(),
                 reasons_json.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
