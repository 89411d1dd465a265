// Standardized machine-readable bench output.
//
// Every bench binary — paper-reproduction tables and google-benchmark
// micro benches alike — writes results/BENCH_<name>.json through this
// emitter, so the perf trajectory is populated uniformly and
// tools/bench_diff.py can compare any two runs with a tolerance.
//
// Schema ("zka-bench-v1"):
//   {
//     "schema":  "zka-bench-v1",
//     "bench":   "<name>",
//     "git_rev": "<short rev at configure time>",
//     "config":  { ... bench-reported knobs ... },
//     "entries": [
//       { "label": "<case>", "samples": N,
//         "ns_op": {"mean":..,"min":..,"max":..,"p50":..,"stddev":..},
//         "metrics": { ... optional domain metrics (acc, ASR, ...) ... } }
//     ],
//     "prof": { "enabled": bool, "dropped_events": N,
//               "counters": {...}, "summary": [...] }
//   }
//
// "summary" is rebuilt from per-thread event rings that wrap; a non-zero
// "dropped_events" says it undercounts, and tools/bench_diff.py --validate
// rejects such a file.
//
// All times are nanoseconds. NaN metrics serialize as null.
#pragma once

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/prof.h"
#include "util/stats.h"

namespace zka::bench {

#ifndef ZKA_GIT_REV
#define ZKA_GIT_REV "unknown"
#endif

class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  const std::string& name() const noexcept { return name_; }

  void set_config(const std::string& key, const std::string& value) {
    std::string quoted;
    append_json_string(quoted, value);
    set_config_raw(key, quoted);
  }
  void set_config(const std::string& key, std::int64_t value) {
    set_config_raw(key, std::to_string(value));
  }
  void set_config(const std::string& key, double value) {
    set_config_raw(key, number(value));
  }

  /// Records one timing sample (nanoseconds) for `label`; samples with the
  /// same label accumulate into one entry's distribution.
  void add_sample(const std::string& label, double ns) {
    entry(label).ns_samples.push_back(ns);
  }

  /// Attaches a domain metric (accuracy, ASR, DPR, ...) to `label`'s entry.
  void add_metric(const std::string& label, const std::string& key,
                  double value) {
    entry(label).metrics.emplace_back(key, value);
  }

  /// Serializes the report, capturing the current prof counters/summary.
  std::string json() const {
    std::string out = "{\"schema\":\"zka-bench-v1\",\"bench\":";
    append_json_string(out, name_);
    out += ",\"git_rev\":";
    append_json_string(out, ZKA_GIT_REV);
    out += ",\"config\":{";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      if (i) out += ',';
      append_json_string(out, config_[i].first);
      out += ':';
      out += config_[i].second;
    }
    out += "},\"entries\":[";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i) out += ',';
      out += "{\"label\":";
      append_json_string(out, e.label);
      out += ",\"samples\":" + std::to_string(e.ns_samples.size());
      out += ",\"ns_op\":{";
      std::vector<double> sorted = e.ns_samples;
      std::sort(sorted.begin(), sorted.end());
      const std::span<const double> view(sorted);
      out += "\"mean\":" + number(util::mean(view));
      out += ",\"min\":" + number(sorted.empty() ? 0.0 : sorted.front());
      out += ",\"max\":" + number(sorted.empty() ? 0.0 : sorted.back());
      // Metric-only entries have no samples; util::median's empty-range
      // contract (DCHECK, UB in release) must not be reached.
      out += ",\"p50\":" +
             number(sorted.empty() ? 0.0 : util::median(sorted));
      out += ",\"stddev\":" + number(util::stddev(view));
      out += '}';
      if (!e.metrics.empty()) {
        out += ",\"metrics\":{";
        for (std::size_t m = 0; m < e.metrics.size(); ++m) {
          if (m) out += ',';
          append_json_string(out, e.metrics[m].first);
          out += ':';
          out += number(e.metrics[m].second);
        }
        out += '}';
      }
      out += '}';
    }
    out += "],\"prof\":{\"enabled\":";
    out += util::prof::enabled() ? "true" : "false";
    out += ",\"dropped_events\":" +
           std::to_string(util::prof::dropped_events());
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& c : util::prof::counters()) {
      if (!first) out += ',';
      first = false;
      append_json_string(out, c.name);
      out += ':' + std::to_string(c.value);
    }
    out += "},\"summary\":[";
    first = true;
    for (const auto& s : util::prof::summary()) {
      if (!first) out += ',';
      first = false;
      out += "{\"label\":";
      append_json_string(out, s.label);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ",\"count\":%" PRIu64 ",\"total_ns\":%" PRIu64
                    ",\"p50_ns\":%" PRIu64 ",\"p99_ns\":%" PRIu64 "}",
                    s.count, s.total_ns, s.p50_ns, s.p99_ns);
      out += buf;
    }
    out += "]}}";
    return out;
  }

  /// Writes the report to `dir`/BENCH_<name>.json (creating `dir`), throws
  /// ZKA_CHECK-style on any I/O failure, and returns the path written.
  std::string write(const std::string& dir = "results") const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    ZKA_CHECK(out.good(), "BenchJson: cannot open %s for writing",
              path.c_str());
    out << json() << '\n';
    out.flush();
    ZKA_CHECK(out.good(), "BenchJson: failed writing %s", path.c_str());
    return path;
  }

 private:
  struct Entry {
    std::string label;
    std::vector<double> ns_samples;
    std::vector<std::pair<std::string, double>> metrics;
  };

  Entry& entry(const std::string& label) {
    for (Entry& e : entries_) {
      if (e.label == label) return e;
    }
    entries_.push_back(Entry{label, {}, {}});
    return entries_.back();
  }

  void set_config_raw(const std::string& key, std::string json_value) {
    for (auto& [k, v] : config_) {
      if (k == key) {
        v = std::move(json_value);
        return;
      }
    }
    config_.emplace_back(key, std::move(json_value));
  }

  static std::string number(double v) {
    if (std::isnan(v) || std::isinf(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static void append_json_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char ch : s) {
      switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(
                buf, sizeof(buf), "\\u%04x",
                static_cast<unsigned>(static_cast<unsigned char>(ch)));
            out += buf;
          } else {
            out += ch;
          }
      }
    }
    out += '"';
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Entry> entries_;
};

}  // namespace zka::bench
