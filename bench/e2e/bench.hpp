// crac_bench shared infrastructure: options, statistics, forked trials with
// failure accounting, the app table, and the per-run state every workload
// fills in.
//
// The parent process stays single-threaded and never creates a CracContext:
// every trial runs in a forked child that reports back over a pipe, so a
// crash, hang, or wrong answer in the library costs one failed operation,
// never the run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crac/context.hpp"
#include "trace.hpp"
#include "workloads/workload.hpp"

namespace crac::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool quick = false;       // smaller set-up for a fast smoke run
  std::string out_dir;      // results JSON and the Chrome trace
  std::string tmp_dir;      // images, registry dirs, spool overflow
};

// Result::status() is only valid on failure; this is OK for a value.
template <typename T>
Status status_of(const Result<T>& r) {
  return r.ok() ? OkStatus() : r.status();
}

// ---------------------------------------------------------------- stats --

// Linear-interpolated quantile (numpy's default), q in [0, 1]; 0 if empty.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return xs.empty() ? 0 : median_of(xs); }

// Samples keyed by group (an app, an image). A run mixes groups whose
// latencies differ by 10x, so pooled percentiles would jump between groups
// as the seed shifts the mix by one trial; these aggregates stay put.
class Series {
 public:
  void add(int group, double v) { groups_[group].push_back(v); }
  std::size_t count() const;
  bool empty() const { return count() == 0; }
  // Count-weighted geometric mean of the per-group medians.
  double typical() const;
  // typical() scaled by the pooled q-quantile of each sample over its own
  // group's median: the tail of a typical group, over every sample.
  double tail(double q) const;

 private:
  std::map<int, std::vector<double>> groups_;
};

// ------------------------------------------------------------- children --

// What a trial child sends home. Written by the child into a buffer, shipped
// over the result pipe when the body returns.
class Report {
 public:
  void value(const std::string& key, double v);
  // A free-form record the parent reads back from Outcome::records (one per
  // operation when a child performs many).
  void record(const std::string& line);
  // Marks the trial failed; the reason is tallied ("mismatch: ..." for a
  // wrong answer, anything else for an error Status).
  void fail(const std::string& reason);
  // Ships the buffer (plus this process's spans and call histograms) down
  // the pipe and exits the process without running static destructors.
  [[noreturn]] void finish_and_exit();

  int fd = -1;

 private:
  std::string buf_;
};

struct Outcome {
  std::string failure;  // empty when the trial succeeded
  bool mismatch = false;
  std::map<std::string, double> values;
  std::vector<std::string> records;
  double cpu_s = 0;
  double maxrss_mb = 0;
  double minflt = 0;
  double nivcsw = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double at(const std::string& key) const {
    auto it = values.find(key);
    return it == values.end() ? 0.0 : it->second;
  }
};

class Child {
 public:
  using Body = std::function<void(Report&)>;
  // Forks a child running `body`. When `traced`, the child records spans
  // under a "proc.trial" root span and ships them back.
  static Child spawn(const Body& body, int trial, bool traced);

  pid_t pid = -1;
  int fd = -1;
  bool done = false;
  Outcome out;
  std::string raw;
  std::uint64_t span_id = 0;
  int trial = 0;
  bool traced = false;
};

// Reads every child's pipe to EOF and reaps it with wait4. A child still
// running after `timeout_s` is killed and fails with "timeout".
void collect(std::vector<Child*> children, double timeout_s);

// Runs one body in a child and waits for it.
Outcome run_child(const Child::Body& body, int trial, bool traced,
                  double timeout_s = 60);

// Set-up work: runs untraced bodies in children, at most four at a time
// (the host's core count), and returns their outcomes in order.
std::vector<Outcome> run_parallel(const std::vector<Child::Body>& bodies,
                                  double timeout_s);

// ------------------------------------------------------------------ apps --

struct AppSpec {
  workloads::Workload* w = nullptr;
  workloads::WorkloadParams params;
  int hook_calls = 0;  // iteration-hook invocations in one run
};

// The app with the bench's parameters for this seed.
AppSpec app(const std::string& name, std::uint64_t seed);
std::vector<AppSpec> apps(const std::vector<std::string>& names,
                          std::uint64_t seed);

// Seeded permutation of [0, n): trial i runs app perm[i % n], so every app
// gets the same share of trials whatever the run length.
std::vector<int> schedule(int n, std::uint64_t seed);

// Traced runs trace every other pass over the schedule, so each app has
// traced and untraced trials alike.
inline bool traced_trial(bool trace, int k, int n) { return trace && (k / n) % 2 == 0; }

// Seeded hook invocation, in the middle half of the run, at which to
// checkpoint.
int pick_fire_index(const AppSpec& a, Rng& rng);

// Each app's CPU oracle for its parameters, computed one after another in
// one child. Throws if an oracle fails: the run could not check.
std::vector<double> compute_oracles(const std::vector<AppSpec>& set);

// The comparison workloads_test uses: exact at zero tolerance, otherwise
// relative to max(1, |expected|).
bool checksum_matches(const AppSpec& a, double got, double expected);

// ------------------------------------------------------------------- run --

struct MetricDef {
  const char* name;
  const char* unit;
  bool summed;  // per-layer: summed over traced trials instead of a median
};
// Every per-layer metric, in print order; BENCHMARK.json's per_layer list.
extern const std::vector<MetricDef> kLayerMetrics;
bool is_layer_metric(const std::string& name);

// Everything one run measures; workloads fill it, main prints it.
struct Run {
  Options opt;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::map<std::string, std::uint64_t> reasons;

  std::vector<double> setup_s;
  // End-to-end series (see README): the op a user waits for, the
  // workload's second op, time to be usable after a (re)start, peak RSS.
  Series op, aux, ready, rss;
  // Traced runs only: op latency of the traced trials, for the overhead.
  Series traced_op;
  // Op time over its floor, measured next to it so host-speed drift
  // cancels: the paired native run on interpose (the paper's Fig 2), one
  // memcpy of the op's bytes (memcpy_floor_ms) elsewhere.
  Series overhead;

  // Per-layer values (traced runs); missing names print as 0.
  std::map<std::string, double> layer;
  // Per-trial samples of per-layer values; their medians go into `layer`.
  std::map<std::string, std::vector<double>> layer_samples;

  Telemetry telemetry;  // spans and call histograms gathered from children

  // Counts one attempted op and returns true when it succeeded; a failure
  // is tallied under "<label> <reason>".
  bool tally(const Outcome& o, const std::string& label);
  // Adds an op that failed without a child outcome.
  void tally_failure(const std::string& reason);
  // Merges a traced child's spans/histograms, and (if it succeeded) its
  // per-layer values and rusage, into the per-layer samples.
  void absorb(const Child& c);
  void sample(const std::string& key, double v) { layer_samples[key].push_back(v); }
};

// Times `setup` several times (once in quick mode) and keeps the last
// result; earlier results are handed to `discard` first.
template <typename T>
T timed_setup(Run& run, const std::function<T()>& setup,
              const std::function<void(T&)>& discard) {
  const int reps = run.opt.quick ? 1 : 3;
  T kept{};
  for (int i = 0; i < reps; ++i) {
    if (i > 0) discard(kept);
    const std::int64_t t0 = now_ns();
    kept = setup();
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return kept;
}

// Traced runs: pushes one image's bytes through each checkpoint stage in
// isolation and reports ckpt.<stage>_mbs for memcpy (the floor), crc32,
// decode (ImageReader, every section CRC-checked), encode (ImageWriter into
// a MemorySink), filesink and filesource. `scratch` is a file it may use.
void stage_waterfall(const std::vector<std::byte>& image,
                     const std::string& scratch, Report& r);

// The simulated GPU every trial runs on, CRAC and native alike, has one SM
// worker. With several, ThreadPool::parallel_for signals its stack-local
// mutex after the launching thread may already have returned and reused
// that stack, which aborts 1-3% of the launch-heavy runs (nw, gaussian)
// with glibc's "mutex->__data.__owner == 0" assertion: failures that come
// and go from run to run. One worker runs a kernel's blocks inline on the
// stream thread, so no run hits it, and each trial keeps to about one busy
// core of the host.
constexpr int kBenchSms = 1;

inline sim::DeviceConfig bench_device() {
  sim::DeviceConfig d;
  d.num_sms = kBenchSms;
  return d;
}

// The benches' CRAC configuration (crac_options(): the paper's default, the
// fs-base switch paid as a kernel call per transition) on bench_device().
inline CracOptions bench_options() {
  CracOptions o = crac_options();
  o.split.device.num_sms = kBenchSms;
  return o;
}

// A fresh context with bench_options(); reports its construction time as
// "init_ms" (and crac.context_init_s when traced).
std::unique_ptr<crac::CracContext> timed_context(bool traced, Report& r);

// Per-trial counters of a context's layers, and the public fields of the
// library's checkpoint/restart reports (traced runs).
void report_context_layers(crac::CracContext& ctx, Report& r);
void report_checkpoint(const crac::CheckpointReport& c, Report& r);
void report_restart(const crac::RestartReport& s, Report& r);

void run_interpose(Run& run);
void run_ckpt_file(Run& run);
void run_migrate(Run& run);
void run_registry(Run& run);

// The time of one memcpy of `bytes` between two buffers of this thread that
// are already faulted in: the memory-bandwidth floor of an op moving that
// many bytes, taken on the same host at the same moment as the op.
double memcpy_floor_ms(std::size_t bytes);

// This process's peak resident set so far, in MB.
double peak_rss_mb();

// A name unique to this process under the run's tmp dir.
std::string tmp_path(const Run& run, const std::string& stem);

}  // namespace crac::bench
