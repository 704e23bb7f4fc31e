#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace crac::bench {

// ---------------------------------------------------------------- stats --

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

std::size_t Series::count() const {
  std::size_t n = 0;
  for (const auto& [_, v] : groups_) n += v.size();
  return n;
}

double Series::typical() const {
  double log_sum = 0;
  std::size_t n = 0;
  for (const auto& [_, v] : groups_) {
    const double m = median(v);
    if (m <= 0) continue;
    log_sum += std::log(m) * static_cast<double>(v.size());
    n += v.size();
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

double Series::tail(double q) const {
  std::vector<double> rel;
  for (const auto& [_, v] : groups_) {
    const double m = median(v);
    if (m <= 0) continue;
    for (double x : v) rel.push_back(x / m);
  }
  return typical() * quantile(std::move(rel), q);
}

// ------------------------------------------------------------- children --

void Report::value(const std::string& key, double v) {
  char num[64];
  std::snprintf(num, sizeof(num), "%.17g", v);
  buf_ += "v " + key + ' ' + num + '\n';
}

void Report::record(const std::string& line) { buf_ += "o " + line + '\n'; }

void Report::fail(const std::string& reason) {
  std::string r = reason.substr(0, 160);
  std::replace(r.begin(), r.end(), '\n', ' ');
  buf_ += "f " + r + '\n';
}

void Report::finish_and_exit() {
  Tracer& t = Tracer::get();
  if (t.enabled) buf_ += t.telemetry.serialize();
  const char* p = buf_.data();
  std::size_t left = buf_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  ::close(fd);
  ::_exit(0);
}

Child Child::spawn(const Body& body, int trial, bool traced) {
  Child c;
  c.trial = trial;
  c.traced = traced;
  if (traced) c.span_id = Tracer::get().new_id();
  int p[2];
  if (::pipe(p) != 0) {
    c.done = true;
    c.out.failure = std::string("pipe: ") + strerror(errno);
    return c;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  c.out.start_ns = now_ns();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(p[0]);
    ::signal(SIGPIPE, SIG_IGN);
    Tracer& t = Tracer::get();
    t.enabled = traced;
    t.trial = trial;
    t.root = c.span_id;
    t.telemetry.spans.clear();
    Report r;
    r.fd = p[1];
    try {
      body(r);
    } catch (const std::exception& e) {
      r.fail(std::string("exception: ") + e.what());
    } catch (...) {
      r.fail("exception");
    }
    r.finish_and_exit();
  }
  ::close(p[1]);
  if (pid < 0) {
    ::close(p[0]);
    c.done = true;
    c.out.failure = std::string("fork: ") + strerror(errno);
    return c;
  }
  c.pid = pid;
  c.fd = p[0];
  return c;
}

namespace {

void parse_result(Child& c) {
  std::istringstream in(c.raw);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) {
      const std::size_t sp = line.find(' ', 2);
      if (sp == std::string::npos) continue;
      c.out.values[line.substr(2, sp - 2)] = std::strtod(line.c_str() + sp + 1, nullptr);
    } else if (line.rfind("o ", 0) == 0) {
      c.out.records.push_back(line.substr(2));
    } else if (line.rfind("f ", 0) == 0 && c.out.failure.empty()) {
      c.out.failure = line.substr(2);
      c.out.mismatch = c.out.failure.rfind("mismatch", 0) == 0;
    }
  }
}

void reap(Child& c, bool timed_out) {
  int status = 0;
  rusage ru{};
  while (::wait4(c.pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.out.end_ns = now_ns();
  c.out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  c.out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  c.out.minflt = static_cast<double>(ru.ru_minflt);
  c.out.nivcsw = static_cast<double>(ru.ru_nivcsw);
  parse_result(c);
  // A crash or a timeout outranks whatever the child managed to report.
  if (timed_out) {
    c.out.failure = "timeout";
    c.out.mismatch = false;
  } else if (WIFSIGNALED(status)) {
    c.out.failure = std::string("signal ") + sigabbrev_np(WTERMSIG(status));
    c.out.mismatch = false;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    c.out.failure = "exit " + std::to_string(WEXITSTATUS(status));
    c.out.mismatch = false;
  }
  c.done = true;
}

}  // namespace

void collect(std::vector<Child*> children, double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  bool timed_out = false;
  char buf[1 << 16];
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<Child*> owners;
    for (Child* c : children) {
      if (!c->done && c->fd >= 0) {
        fds.push_back(pollfd{c->fd, POLLIN, 0});
        owners.push_back(c);
      }
    }
    if (fds.empty()) break;
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0 && !timed_out) {
      timed_out = true;
      for (Child* c : owners) ::kill(c->pid, SIGKILL);
    }
    const int n = ::poll(fds.data(), fds.size(),
                         timed_out ? 1000 : static_cast<int>(std::min<std::int64_t>(left_ms, 1000)));
    if (n < 0 && errno != EINTR) break;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Child* c = owners[i];
      const ssize_t got = ::read(c->fd, buf, sizeof(buf));
      if (got > 0) {
        c->raw.append(buf, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        ::close(c->fd);
        c->fd = -1;
        reap(*c, timed_out);
      }
    }
  }
}

Outcome run_child(const Child::Body& body, int trial, bool traced,
                  double timeout_s) {
  Child c = Child::spawn(body, trial, traced);
  collect({&c}, timeout_s);
  return c.out;
}

// ------------------------------------------------------------------ apps --

namespace {

// Bench parameters: the apps' defaults (the paper's Table 2, scaled),
// shortened so one run takes ~40-130 ms on one SM worker and a 25 s phase
// gathers 100+ trials. hook_calls is the iteration-hook count at these
// parameters, used to pick a mid-run checkpoint.
struct AppTuning {
  const char* name;
  std::uint64_t size_a;  // 0 = app default
  int iterations;        // 0 = app default
  int hook_calls;
};

constexpr AppTuning kTuning[] = {
    {"bfs", 750000, 0, 12},
    {"cfd", 0, 50, 50},
    {"dwt2d", 0, 25, 25},
    {"gaussian", 768, 0, 24},
    {"heartwall", 0, 52, 52},
    {"hotspot", 0, 100, 100},
    {"hotspot3d", 0, 30, 30},
    {"kmeans", 0, 20, 20},
    {"nw", 1536, 0, 48},
    {"srad", 0, 40, 40},
    {"streamcluster", 0, 0, 100},
    {"simple_streams", 0, 50, 100},
    {"unified_memory_streams", 0, 0, 40},
    {"mini_lulesh", 0, 20, 20},
    {"mini_hpgmg", 0, 10, 10},
    {"mini_hypre", 0, 8, 8},
};

}  // namespace

AppSpec app(const std::string& name, std::uint64_t seed) {
  const AppTuning* tuning = nullptr;
  for (const AppTuning& t : kTuning) {
    if (name == t.name) tuning = &t;
  }
  AppSpec a;
  a.w = workloads::find_workload(name);
  if (a.w == nullptr || tuning == nullptr) {
    std::fprintf(stderr, "crac_bench: no bench parameters for app %s\n", name.c_str());
    std::exit(2);
  }
  a.params = a.w->default_params();
  if (tuning->size_a != 0) a.params.size_a = tuning->size_a;
  if (tuning->iterations != 0) a.params.iterations = tuning->iterations;
  a.hook_calls = tuning->hook_calls;
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a of the name
  for (char ch : name) h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
  Rng rng(seed ^ h);
  a.params.seed = 1 + rng.next_below(1u << 30);
  return a;
}

std::vector<AppSpec> apps(const std::vector<std::string>& names,
                          std::uint64_t seed) {
  std::vector<AppSpec> out;
  for (const auto& n : names) out.push_back(app(n, seed));
  return out;
}

std::vector<int> schedule(int n, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

int pick_fire_index(const AppSpec& a, Rng& rng) {
  const int lo = std::max(1, a.hook_calls / 4);
  const int hi = std::max(lo + 1, a.hook_calls * 3 / 4);
  return lo + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

std::vector<Outcome> run_parallel(const std::vector<Child::Body>& bodies,
                                  double timeout_s) {
  constexpr std::size_t kParallel = 4;
  std::vector<Outcome> out;
  for (std::size_t first = 0; first < bodies.size(); first += kParallel) {
    std::vector<Child> batch;
    for (std::size_t i = first; i < std::min(bodies.size(), first + kParallel); ++i) {
      batch.push_back(Child::spawn(bodies[i], 0, false));
    }
    std::vector<Child*> ptrs;
    for (Child& c : batch) ptrs.push_back(&c);
    collect(ptrs, timeout_s);
    for (Child& c : batch) out.push_back(std::move(c.out));
  }
  return out;
}

std::vector<double> compute_oracles(const std::vector<AppSpec>& set) {
  const Outcome done = run_child(
      [&](Report& r) {
        for (std::size_t i = 0; i < set.size(); ++i) {
          auto ref = set[i].w->reference_checksum(set[i].params);
          if (!ref.ok()) {
            return r.fail(std::string("oracle for ") + set[i].w->name() + ": " +
                          ref.status().to_string());
          }
          r.value("oracle" + std::to_string(i), *ref);
        }
      },
      0, false, 120);
  if (!done.failure.empty()) throw std::runtime_error(done.failure);
  std::vector<double> out;
  for (std::size_t i = 0; i < set.size(); ++i) out.push_back(done.at("oracle" + std::to_string(i)));
  return out;
}

bool checksum_matches(const AppSpec& a, double got, double expected) {
  const double tol = a.w->checksum_tolerance();
  if (tol == 0.0) return got == expected;
  return std::fabs(got - expected) <= tol * std::max(1.0, std::fabs(expected));
}

// ------------------------------------------------------------------- run --

const std::vector<MetricDef> kLayerMetrics = {
    // crac: the interposer, timed per call by TimedApi (and its native twin).
    {"crac.calls", "count", false},
    {"crac.ns_per_call_p50", "ns", false},
    {"crac.launch.ns_p50", "ns", false},
    {"crac.memcpy.ns_p50", "ns", false},
    {"crac.memset.ns_p50", "ns", false},
    {"crac.malloc.ns_p50", "ns", false},
    {"crac.free.ns_p50", "ns", false},
    {"crac.sync.ns_p50", "ns", false},
    {"crac.stream.ns_p50", "ns", false},
    {"native.ns_per_call_p50", "ns", false},
    {"native.launch.ns_p50", "ns", false},
    {"native.memcpy.ns_p50", "ns", false},
    {"native.memset.ns_p50", "ns", false},
    {"native.malloc.ns_p50", "ns", false},
    {"native.free.ns_p50", "ns", false},
    {"native.sync.ns_p50", "ns", false},
    {"native.stream.ns_p50", "ns", false},
    {"crac.added_ns_per_call", "ns", false},
    {"crac.log_records", "count", false},
    {"crac.context_init_s", "s", false},
    // splitproc / simgpu.
    {"splitproc.transitions", "count", false},
    {"uvm.host_faults", "count", false},
    {"simgpu.device_committed_mb", "MB", false},
    // ckpt: the library's own capture/restore reports, then the isolated
    // stage waterfall on each trial's image bytes.
    {"report.drain_s", "s", false},
    {"report.write_s", "s", false},
    {"report.pause_s", "s", false},
    {"report.raw_mb", "MB", false},
    {"report.read_s", "s", false},
    {"report.replay_s", "s", false},
    {"report.calls_replayed", "count", false},
    {"ckpt.memcpy_mbs", "MB/s", false},
    {"ckpt.crc32_mbs", "MB/s", false},
    {"ckpt.encode_mbs", "MB/s", false},
    {"ckpt.filesink_mbs", "MB/s", false},
    {"ckpt.decode_mbs", "MB/s", false},
    {"ckpt.filesource_mbs", "MB/s", false},
    // remote: TimedSink / TimedSource around the shipping transport.
    {"remote.sink_block_s", "s", false},
    {"remote.source_wait_s", "s", false},
    {"remote.source_reads", "count", false},
    {"remote.overlapped", "count", true},
    // registry: client-side latencies, host-side accounting read from
    // /proc and the STAT verb.
    {"registry.put_ms_p90", "ms", false},
    {"registry.get_mbs", "MB/s", false},
    {"registry.stat_ms_p50", "ms", false},
    {"registry.host_cpu_s", "s", false},
    {"registry.write_bytes_per_put_byte", "ratio", false},
    {"registry.stored_mb", "MB", false},
    {"registry.logical_mb", "MB", false},
    {"registry.dedup_ratio", "ratio", false},
    {"registry.unique_chunks", "count", false},
    {"registry.slab_file_mb", "MB", false},
    {"registry.wal_mb", "MB", false},
    {"registry.recover_mbs", "MB/s", false},
    // proc: wait4 rusage of each trial process, the scheduler-noise witness.
    {"proc.cpu_s", "s", false},
    {"proc.maxrss_mb", "MB", false},
    {"proc.minflt", "count", false},
    {"proc.nivcsw", "count", false},
    // Self time per layer from the spans, per traced op.
    {"selftime.proc_ms", "ms", false},
    {"selftime.crac_ms", "ms", false},
    {"selftime.simgpu_ms", "ms", false},
    {"selftime.ckpt_ms", "ms", false},
    {"selftime.remote_ms", "ms", false},
    {"selftime.registry_ms", "ms", false},
    // Traced op latency over untraced, same run.
    {"trace.overhead_ratio", "ratio", false},
};

bool is_layer_metric(const std::string& name) {
  for (const MetricDef& m : kLayerMetrics) {
    if (name == m.name) return true;
  }
  return false;
}

bool Run::tally(const Outcome& o, const std::string& label) {
  ++attempted;
  if (o.failure.empty()) return true;
  ++failed;
  if (o.mismatch) ++mismatches;
  ++reasons[label + " " + o.failure];
  return false;
}

void Run::tally_failure(const std::string& reason) {
  ++attempted;
  ++failed;
  ++reasons[reason];
}

void Run::absorb(const Child& c) {
  if (!c.traced) return;
  std::istringstream in(c.raw);
  std::string line;
  while (std::getline(in, line)) telemetry.parse_line(line);
  telemetry.record(SpanRec{c.span_id, 0, c.out.start_ns, c.out.end_ns, c.trial,
                           static_cast<int>(c.pid), "proc.trial"});
  if (!c.out.failure.empty()) return;
  for (const auto& [key, v] : c.out.values) {
    if (is_layer_metric(key)) sample(key, v);
  }
  sample("proc.cpu_s", c.out.cpu_s);
  sample("proc.maxrss_mb", c.out.maxrss_mb);
  sample("proc.minflt", c.out.minflt);
  sample("proc.nivcsw", c.out.nivcsw);
}

double memcpy_floor_ms(std::size_t bytes) {
  thread_local std::vector<std::byte> src, dst;
  if (src.size() < bytes) {
    src.assign(bytes, std::byte{1});
    dst.assign(bytes, std::byte{2});
  }
  // One copy, not the fastest of several: the floor should slow down with
  // the host as the op beside it does, or drift would not cancel.
  const std::int64_t t0 = now_ns();
  std::memcpy(dst.data(), src.data(), bytes);
  const std::int64_t t1 = now_ns();
  // Keep the copy observable so it cannot be dropped.
  volatile std::byte sink = dst[bytes / 2];
  (void)sink;
  return static_cast<double>(t1 - t0) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string tmp_path(const Run& run, const std::string& stem) {
  return run.opt.tmp_dir + "/" + stem + "." + std::to_string(::getpid());
}

}  // namespace crac::bench
