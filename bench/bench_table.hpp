// One way to print and record a bench row: bench::Table.
//
// A table names its key columns (what identifies a row: an app, a thread
// count) and its measured columns, each marked lower- or higher-is-better.
// Every measured cell keeps all of its samples, one per repetition, and the
// aligned human table and the JSON both come from the same rows. In the
// JSON a measured cell keeps its column name for the median and adds
// <name>_q1, <name>_q3 (quartiles, linear interpolation) and <name>_n. A
// cell with no samples is null, and its row reads "ok": false.
//
// A Report holds every table one binary produces and writes them to one
// file, BENCH_<bench>.json (path override: CRAC_BENCH_JSON), under a header
// naming the bench, hardware threads, build type, quick or full mode,
// scale, reps() and each table's column roles.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/log.hpp"

#ifndef CRAC_BENCH_BUILD_TYPE
#define CRAC_BENCH_BUILD_TYPE "unknown"
#endif

namespace crac::bench {

// Quick mode (CRAC_BENCH_QUICK=1): benches with sweeps shrink them to their
// corner cells so a smoke run still drives every pipeline end to end.
inline bool quick() { return env_int("CRAC_BENCH_QUICK", 0) != 0; }

// Result::status() is only valid on failure; this is OK for a value.
template <typename T>
Status status_of(const Result<T>& r) {
  return r.ok() ? OkStatus() : r.status();
}

inline unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// Integral values print exactly, everything else to 6 significant digits.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const bool integral = v == std::floor(v) && std::fabs(v) < 1e15;
  std::snprintf(buf, sizeof(buf), integral ? "%.0f" : "%.6g", v);
  return buf;
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

enum class Better { kLower, kHigher };

struct Measure {
  std::string name;
  Better better;
  const char* fmt = "%.4f";  // how the human table prints the median
};

inline Measure lower(std::string name, const char* fmt = "%.4f") {
  return {std::move(name), Better::kLower, fmt};
}
inline Measure higher(std::string name, const char* fmt = "%.4f") {
  return {std::move(name), Better::kHigher, fmt};
}

// A key cell: text (quoted in the JSON) or a number (written bare).
struct Key {
  Key(const char* s) : text(s), quoted(true) {}
  Key(std::string s) : text(std::move(s)), quoted(true) {}
  template <typename T, typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  Key(T v) : text(json_number(static_cast<double>(v))), quoted(false) {}
  std::string text;
  bool quoted;
};

class Table {
 public:
  class Row {
   public:
    // Records one repetition's value of the measured column `name`.
    void add(const std::string& name, double sample) {
      samples_[table_->measure_index(name)].push_back(sample);
    }
    // Marks the row failed; cells that got no sample print null.
    void fail() { failed_ = true; }

    // Runs `rep` (returning Status) reps() times. The first failure is
    // printed with the row's keys and fails the row.
    template <typename F>
    void repeat(F&& rep) {
      for (int r = 0; r < reps() && !failed_; ++r) {
        const Status s = rep();
        if (s.ok()) continue;
        std::string keys;
        for (const Key& k : keys_) keys += " " + k.text;
        std::fprintf(stderr, "%s%s: %s\n", table_->name_.c_str(),
                     keys.c_str(), s.to_string().c_str());
        fail();
      }
    }

   private:
    friend class Table;

    bool ok() const {
      return !failed_ && std::none_of(samples_.begin(), samples_.end(),
                                      [](const auto& s) { return s.empty(); });
    }

    Row(const Table* table, std::vector<Key> keys)
        : table_(table),
          keys_(std::move(keys)),
          samples_(table->measures_.size()) {}

    const Table* table_;
    std::vector<Key> keys_;
    std::vector<std::vector<double>> samples_;  // one list per measure
    bool failed_ = false;
  };

  Table(std::string name, std::vector<std::string> keys,
        std::vector<Measure> measures)
      : name_(std::move(name)),
        keys_(std::move(keys)),
        measures_(std::move(measures)) {}

  // Starts a row; `keys` in key-column order.
  Row& row(std::vector<Key> keys) {
    CRAC_CHECK_MSG(keys.size() == keys_.size(),
                   "bench row has the wrong number of keys");
    return rows_.emplace_back(Row(this, std::move(keys)));
  }

  const std::string& name() const { return name_; }

  // The aligned human table: keys left-aligned, medians right-aligned.
  void print() const {
    std::vector<std::string> header = keys_;
    for (const Measure& m : measures_) header.push_back(m.name);
    std::vector<std::vector<std::string>> cells;
    for (const Row& r : rows_) {
      std::vector<std::string> line;
      for (const Key& k : r.keys_) line.push_back(k.text);
      for (std::size_t m = 0; m < measures_.size(); ++m) {
        if (r.samples_[m].empty()) {
          line.emplace_back("FAILED");
          continue;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), measures_[m].fmt,
                      quantile(r.samples_[m], 0.5));
        line.emplace_back(buf);
      }
      cells.push_back(std::move(line));
    }
    std::vector<std::size_t> width;
    for (const std::string& h : header) width.push_back(h.size());
    for (const auto& line : cells) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        width[c] = std::max(width[c], line[c].size());
      }
    }
    auto print_line = [&](const std::vector<std::string>& line) {
      std::string out = " ";
      for (std::size_t c = 0; c < line.size(); ++c) {
        const std::string pad(width[c] - line[c].size(), ' ');
        out += c < keys_.size() ? " " + line[c] + pad : " " + pad + line[c];
      }
      out.erase(out.find_last_not_of(' ') + 1);
      std::printf("%s\n", out.c_str());
    };
    if (measures_.empty()) {
      std::printf("%s:\n", name_.c_str());
    } else {
      std::printf("%s (median of %d):\n", name_.c_str(), reps());
    }
    print_line(header);
    for (const auto& line : cells) print_line(line);
  }

  // {"<column>": "key" | "lower" | "higher", ...}
  std::string columns_json() const {
    std::string s = "{";
    for (const std::string& k : keys_) s += "\"" + k + "\": \"key\", ";
    for (const Measure& m : measures_) {
      s += "\"" + m.name + "\": \"" +
           (m.better == Better::kLower ? "lower" : "higher") + "\", ";
    }
    if (s.size() > 1) s.resize(s.size() - 2);
    return s + "}";
  }

  // The rows as a JSON array, one object per line.
  std::string rows_json() const {
    std::string s = "[";
    for (const Row& r : rows_) {
      s += s.size() > 1 ? ",\n    {" : "\n    {";
      for (std::size_t k = 0; k < keys_.size(); ++k) {
        const Key& key = r.keys_[k];
        s += "\"" + keys_[k] + "\": " +
             (key.quoted ? json_string(key.text) : key.text) + ", ";
      }
      s += std::string("\"ok\": ") + (r.ok() ? "true" : "false");
      for (std::size_t m = 0; m < measures_.size(); ++m) {
        const std::vector<double>& xs = r.samples_[m];
        const std::string& n = measures_[m].name;
        auto stat = [&xs](double p) {
          return xs.empty() ? std::string("null")
                            : json_number(quantile(xs, p));
        };
        s += ", \"" + n + "\": " + stat(0.5) + ", \"" + n +
             "_q1\": " + stat(0.25) + ", \"" + n + "_q3\": " + stat(0.75) +
             ", \"" + n + "_n\": " + std::to_string(xs.size());
      }
      s += "}";
    }
    return s + (rows_.empty() ? "]" : "\n  ]");
  }

 private:
  // Linear interpolation between the closest ranks (numpy's default).
  static double quantile(std::vector<double> xs, double p) {
    std::sort(xs.begin(), xs.end());
    const double at = p * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (at - static_cast<double>(lo));
  }

  std::size_t measure_index(const std::string& name) const {
    for (std::size_t m = 0; m < measures_.size(); ++m) {
      if (measures_[m].name == name) return m;
    }
    CRAC_CHECK_MSG(false, "bench row names an undeclared column");
    return 0;
  }

  std::string name_;
  std::vector<std::string> keys_;
  std::vector<Measure> measures_;
  std::deque<Row> rows_;  // deque: a Row& stays valid as rows are added
};

class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  Table& table(std::string name, std::vector<std::string> keys,
               std::vector<Measure> measures) {
    return tables_.emplace_back(std::move(name), std::move(keys),
                                std::move(measures));
  }

  // Writes every table to BENCH_<bench>.json (or $CRAC_BENCH_JSON).
  // Returns the process exit status.
  int write() const {
    std::string s = "{\n  \"bench\": \"" + bench_ + "\",\n";
    s += "  \"hardware_threads\": " + std::to_string(hardware_threads()) +
         ",\n";
    s += "  \"build_type\": \"" CRAC_BENCH_BUILD_TYPE "\",\n";
    s += std::string("  \"quick\": ") + (quick() ? "true" : "false") + ",\n";
    s += "  \"scale\": " + json_number(scale()) + ",\n";
    s += "  \"reps\": " + std::to_string(reps()) + ",\n";
    s += "  \"columns\": {";
    for (const Table& t : tables_) {
      s += (&t == &tables_.front() ? "\n    \"" : ",\n    \"") + t.name() +
           "\": " + t.columns_json();
    }
    s += "\n  }";
    for (const Table& t : tables_) {
      s += ",\n  \"" + t.name() + "\": " + t.rows_json();
    }
    s += "\n}\n";

    const char* env_path = std::getenv("CRAC_BENCH_JSON");
    const std::string path =
        env_path != nullptr ? env_path : "BENCH_" + bench_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    bool wrote = f != nullptr;
    if (wrote) {
      wrote = std::fwrite(s.data(), 1, s.size(), f) == s.size();
      wrote = std::fclose(f) == 0 && wrote;
    }
    if (!wrote) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nmachine-readable results: %s\n", path.c_str());
    return 0;
  }

 private:
  std::string bench_;
  std::deque<Table> tables_;
};

// The paper's overhead row (Figs 2, 5): one native run then one CRAC run
// per repetition, so machine-load drift hits both arms equally (on a
// shared box, back-to-back arms can diverge by tens of percent from
// scheduler noise alone). Adds native_s, crac_s, overhead_pct, cuda_calls.
inline const std::vector<Measure>& paired_measures() {
  static const std::vector<Measure> m = {lower("native_s"), lower("crac_s"),
                                         lower("overhead_pct", "%.2f"),
                                         lower("cuda_calls", "%.0f")};
  return m;
}

inline void repeat_paired(Table::Row& row, workloads::Workload* w,
                           const workloads::WorkloadParams& params) {
  row.repeat([&]() -> Status {
    CRAC_ASSIGN_OR_RETURN(TimedRun native, time_run<NativeBackend>(w, params));
    CRAC_ASSIGN_OR_RETURN(TimedRun crac,
                          time_run<CracContext>(w, params, crac_options()));
    row.add("native_s", native.seconds);
    row.add("crac_s", crac.seconds);
    row.add("overhead_pct", overhead_pct(native.seconds, crac.seconds));
    row.add("cuda_calls", static_cast<double>(native.cuda_calls));
    return OkStatus();
  });
}

}  // namespace crac::bench
