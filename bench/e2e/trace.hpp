// The traced run's recorder: spans at every layer boundary the benchmark
// calls into, plus per-call latency histograms for the interposed CUDA API.
//
// Spans live in memory (name, start, end, parent, trial) and are written
// out only when the run ends — as Chrome trace-event JSON, and as a
// per-layer self-time table (a span's duration minus the part of it its
// child spans cover). A span's layer is its name up to the first '.'.
//
// Per-call boundaries are far too frequent for spans (an app makes 10^4-10^5
// calls), so TimedApi counts them into fixed log-linear histograms instead.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace crac::bench {

// CLOCK_MONOTONIC in ns: comparable across fork, which the migrate
// workload's sender-to-receiver timing relies on.
std::int64_t now_ns();

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int trial = 0;
  int pid = 0;
  std::string name;
};

// Log-linear latency histogram, 16 buckets per power of two (~6% wide).
class CallHist {
 public:
  static constexpr int kBuckets = 1024;
  void add(std::uint64_t ns) noexcept;
  void add_bucket(int bucket, std::uint64_t n) noexcept;
  std::uint64_t count() const noexcept;
  // Bucket midpoint at quantile q; 0 when empty.
  double quantile(double q) const noexcept;
  std::uint64_t bucket(int i) const noexcept {
    return b_[i].load(std::memory_order_relaxed);
  }
  void merge(const CallHist& other) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> b_{};
};

// CUDA call categories the per-call metrics are broken down by.
enum CallKind : int {
  kLaunch = 0,
  kMemcpy,
  kMemset,
  kMalloc,
  kFree,
  kSync,
  kStream,
  kOther,
  kCallKinds
};
const char* call_kind_name(int kind);

// Which API a TimedApi wraps: the CRAC context's, or the native baseline's.
enum ApiSide : int { kCracSide = 0, kNativeSide = 1, kApiSides };

struct Telemetry {
  std::mutex mu;  // guards spans (recorded from several threads)
  std::vector<SpanRec> spans;
  CallHist calls[kApiSides][kCallKinds];

  void record(SpanRec span);
  // Line-oriented wire form ("s ..." spans, "h ..." histogram buckets) a
  // child ships home.
  std::string serialize();
  // Parses one line produced by serialize(); ignores anything else.
  void parse_line(const std::string& line);
};

// Process-wide recorder state.
struct Tracer {
  static Tracer& get();
  bool enabled = false;
  int trial = 0;
  std::uint64_t root = 0;  // parent of spans opened with an empty stack
  std::atomic<std::uint64_t> next{1};
  Telemetry telemetry;

  std::uint64_t new_id();
};

// Records [construction, destruction) as one span under the innermost open
// span of this thread. Free when tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Records the span now rather than at destruction, for a scope the
  // process leaves through _exit. Later calls do nothing.
  void end();

 private:
  const char* name_;
  bool on_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ = 0;
};

struct LayerSelf {
  std::string layer;
  std::uint64_t spans = 0;
  double self_ms = 0;
};
// Self time per layer over all spans.
std::vector<LayerSelf> self_times(const std::vector<SpanRec>& spans);

// Writes spans as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing). One process track per trial pid.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans,
                        const std::string& metadata_json);

}  // namespace crac::bench
