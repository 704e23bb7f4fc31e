#include "trace.hpp"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace crac::bench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

// ------------------------------------------------------------- CallHist --

namespace {

int bucket_of(std::uint64_t v) {
  if (v < 16) return static_cast<int>(v);
  const int e = 63 - __builtin_clzll(v);  // >= 4
  const int sub = static_cast<int>((v >> (e - 4)) & 15);
  return (e - 3) * 16 + sub;
}

double bucket_mid(int b) {
  if (b < 16) return b;
  const int e = b / 16 + 3;
  const int sub = b % 16;
  const double lo = static_cast<double>((16ULL + sub) << (e - 4));
  const double width = static_cast<double>(1ULL << (e - 4));
  return lo + width / 2;
}

}  // namespace

void CallHist::add(std::uint64_t ns) noexcept {
  b_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
}

void CallHist::add_bucket(int bucket, std::uint64_t n) noexcept {
  if (bucket >= 0 && bucket < kBuckets) {
    b_[bucket].fetch_add(n, std::memory_order_relaxed);
  }
}

std::uint64_t CallHist::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& b : b_) n += b.load(std::memory_order_relaxed);
  return n;
}

double CallHist::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > target) return bucket_mid(i);
  }
  return bucket_mid(kBuckets - 1);
}

void CallHist::merge(const CallHist& other) noexcept {
  for (int i = 0; i < kBuckets; ++i) add_bucket(i, other.bucket(i));
}

const char* call_kind_name(int kind) {
  static const char* const kNames[kCallKinds] = {
      "launch", "memcpy", "memset", "malloc", "free", "sync", "stream", "other"};
  return kind >= 0 && kind < kCallKinds ? kNames[kind] : "?";
}

// ------------------------------------------------------------ Telemetry --

void Telemetry::record(SpanRec span) {
  std::lock_guard<std::mutex> lock(mu);
  spans.push_back(std::move(span));
}

std::string Telemetry::serialize() {
  std::ostringstream out;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const SpanRec& s : spans) {
      out << "s " << s.id << ' ' << s.parent << ' ' << s.start_ns << ' '
          << s.end_ns << ' ' << s.trial << ' ' << s.pid << ' ' << s.name
          << '\n';
    }
  }
  for (int side = 0; side < kApiSides; ++side) {
    for (int k = 0; k < kCallKinds; ++k) {
      const CallHist& h = calls[side][k];
      for (int i = 0; i < CallHist::kBuckets; ++i) {
        if (h.bucket(i) != 0) {
          out << "h " << side << ' ' << k << ' ' << i << ' ' << h.bucket(i)
              << '\n';
        }
      }
    }
  }
  return out.str();
}

void Telemetry::parse_line(const std::string& line) {
  std::istringstream in(line);
  std::string tag;
  in >> tag;
  if (tag == "s") {
    SpanRec s;
    in >> s.id >> s.parent >> s.start_ns >> s.end_ns >> s.trial >> s.pid >>
        s.name;
    if (in) record(std::move(s));
  } else if (tag == "h") {
    int side = 0, kind = 0, bucket = 0;
    std::uint64_t n = 0;
    in >> side >> kind >> bucket >> n;
    if (in && side >= 0 && side < kApiSides && kind >= 0 && kind < kCallKinds) {
      calls[side][kind].add_bucket(bucket, n);
    }
  }
}

// --------------------------------------------------------------- Tracer --

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::new_id() {
  return (static_cast<std::uint64_t>(::getpid()) << 32) |
         next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

thread_local std::vector<std::uint64_t> t_stack;  // this thread's open spans

// The innermost open span of this thread, or the tracer root.
std::uint64_t current_span() {
  return t_stack.empty() ? Tracer::get().root : t_stack.back();
}

}  // namespace

Span::Span(const char* name) : name_(name), on_(Tracer::get().enabled) {
  if (!on_) return;
  id_ = Tracer::get().new_id();
  parent_ = current_span();
  t_stack.push_back(id_);
  start_ = now_ns();
}

void Span::end() {
  if (!on_) return;
  on_ = false;
  const std::int64_t end = now_ns();
  if (!t_stack.empty() && t_stack.back() == id_) t_stack.pop_back();
  Tracer& t = Tracer::get();
  t.telemetry.record(
      SpanRec{id_, parent_, start_, end, t.trial, ::getpid(), name_});
}

// ----------------------------------------------------------- self time --

std::vector<LayerSelf> self_times(const std::vector<SpanRec>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      kids;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, LayerSelf> by_layer;
  for (const SpanRec& s : spans) {
    std::int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    LayerSelf& l = by_layer[layer];
    l.layer = layer;
    l.spans += 1;
    l.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  std::vector<LayerSelf> out;
  for (auto& [_, l] : by_layer) out.push_back(l);
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans,
                        const std::string& metadata_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const SpanRec& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n",
               metadata_json.c_str());
  bool first = true;
  for (const SpanRec& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trial\":%d}}",
                 first ? "" : ",\n", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.pid,
                 s.pid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.trial);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace crac::bench
