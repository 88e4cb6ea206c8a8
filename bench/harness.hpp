// The one harness behind every gated benchmark: the six simulated sweeps
// in bench/ and the wall-clock codec sweep tools/bench_runner.
//
// Each binary takes the same flags,
//
//   <prog> [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// and writes one JSON file (BENCH_*.json) with one result per line:
//
//   {
//     "schema": "gcmpi-bench-<name>-v1",
//     "quick": true|false,
//     "units": {"mbps": "...", ...},
//     "results": [
//       {"name": "...", "<key>": <value>, ...},
//       ...
//     ]
//   }
//
// With --baseline, every row of the run must have a row of the same name in
// the baseline file, and its "mbps" must not fall more than --threshold
// below the baseline's. The reader only looks for the "name" and "mbps"
// keys of each results line, so any file this writer produced is a valid
// baseline. Acceptance bars report through `gate`; `time_seconds` is the
// one wall-clock timer.
//
// The header includes no simulator or MPI header, because tools/bench_runner
// links none of those libraries; the simulated runners live in common.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gcmpi::bench {

struct Options {
  bool quick = false;
  std::string out;
  std::string baseline;
  double threshold = 0.0;  // allowed fractional mbps regression vs the baseline
};

/// Parses the four flags over the given defaults. On anything else prints
/// the usage line and returns nullopt; the binary then exits with status 2.
inline std::optional<Options> parse_options(int argc, char** argv, const char* prog,
                                            const char* default_out,
                                            double default_threshold) {
  Options opt;
  opt.out = default_out;
  opt.threshold = default_threshold;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (arg == "--threshold" && i + 1 < argc) {
      opt.threshold = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]\n",
                   prog);
      return std::nullopt;
    }
  }
  return opt;
}

/// One value of a results line: a JSON string, an integer count, or a
/// fixed-point number printed with `precision` digits after the point.
struct Metric {
  std::string key;
  std::variant<std::string, std::uint64_t, double> value;
  int precision = 0;
};

/// One results line: its name, then its metrics in the order they print.
struct Row {
  std::string name;
  std::vector<Metric> metrics;

  explicit Row(std::string row_name) : name(std::move(row_name)) {}

  Row& text(std::string key, std::string value) {
    metrics.push_back({std::move(key), std::move(value)});
    return *this;
  }
  Row& count(std::string key, std::uint64_t value) {
    metrics.push_back({std::move(key), value});
    return *this;
  }
  Row& fixed(std::string key, double value, int precision) {
    metrics.push_back({std::move(key), value, precision});
    return *this;
  }

  /// The value of the count or number `key`; throws if the row has none.
  [[nodiscard]] double number(std::string_view key) const {
    for (const Metric& m : metrics) {
      if (m.key != key) continue;
      if (const auto* v = std::get_if<double>(&m.value)) return *v;
      if (const auto* v = std::get_if<std::uint64_t>(&m.value)) return static_cast<double>(*v);
    }
    throw std::out_of_range("bench row " + name + " has no number " + std::string(key));
  }

  /// The row as one JSON object on one line.
  [[nodiscard]] std::string json() const {
    std::string line = "{\"name\": \"" + name + "\"";
    for (const Metric& m : metrics) {
      line += ", \"" + m.key + "\": ";
      if (const auto* s = std::get_if<std::string>(&m.value)) {
        line += "\"" + *s + "\"";
      } else if (const auto* n = std::get_if<std::uint64_t>(&m.value)) {
        line += std::to_string(*n);
      } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", m.precision, std::get<double>(m.value));
        line += buf;
      }
    }
    return line + "}";
  }
};

/// What a BENCH file says about itself: its schema tag and the meaning of
/// its metrics, printed as the "units" object.
struct Schema {
  const char* tag;
  std::vector<std::pair<const char*, const char*>> units;
};

inline void write_json(std::ostream& os, const Schema& schema, bool quick,
                       const std::vector<Row>& rows) {
  os << "{\n"
     << "  \"schema\": \"" << schema.tag << "\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"units\": {";
  for (std::size_t i = 0; i < schema.units.size(); ++i) {
    os << (i > 0 ? ", " : "") << '"' << schema.units[i].first << "\": \""
       << schema.units[i].second << '"';
  }
  os << "},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << "    " << rows[i].json() << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

/// (name, mbps) of each results line of a BENCH file.
using Baseline = std::vector<std::pair<std::string, double>>;

/// Reads a BENCH file `write_json` produced; nullopt if it cannot be opened.
inline std::optional<Baseline> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  Baseline out;
  std::string line;
  while (std::getline(f, line)) {
    const std::size_t np = line.find("\"name\": \"");
    const std::size_t mp = line.find("\"mbps\": ");
    if (np == std::string::npos || mp == std::string::npos) continue;
    const std::size_t ns = np + 9;
    const std::size_t ne = line.find('"', ns);
    if (ne == std::string::npos) continue;
    out.emplace_back(line.substr(ns, ne - ns), std::strtod(line.c_str() + mp + 8, nullptr));
  }
  return out;
}

/// The regression gate. A row fails when the baseline has no row of its
/// name, or when its mbps is below the baseline's by more than `threshold`
/// (a row exactly at the limit passes). Prints each failing row, each
/// matched row that moved by more than 10%, and a summary; returns the
/// number of failing rows.
inline int compare_baseline(const std::vector<Row>& rows, const Baseline& base,
                            double threshold) {
  int regressions = 0;
  int missing = 0;
  for (const Row& r : rows) {
    const auto it = std::find_if(base.begin(), base.end(),
                                 [&](const auto& b) { return b.first == r.name; });
    if (it == base.end()) {
      ++missing;
      std::printf("MISSING %s: no baseline row of this name\n", r.name.c_str());
      continue;
    }
    const double mbps = r.number("mbps");
    const double delta = (mbps / it->second - 1.0) * 100.0;
    if (mbps < it->second * (1.0 - threshold)) {
      ++regressions;
      std::printf("REGRESSION %-44s %8.1f -> %8.1f MB/s (%+.1f%%)\n", r.name.c_str(),
                  it->second, mbps, delta);
    } else if (std::fabs(delta) > 10.0) {
      std::printf("  %-52s %8.1f -> %8.1f MB/s (%+.1f%%)\n", r.name.c_str(), it->second,
                  mbps, delta);
    }
  }
  std::printf("baseline: %zu/%zu entries matched, %d regression(s) beyond %.1f%%\n",
              rows.size() - static_cast<std::size_t>(missing), rows.size(), regressions,
              threshold * 100.0);
  return regressions + missing;
}

/// Reports one acceptance bar: 0 if `ok`, else prints "GATE FAIL <message>"
/// and returns 1, so a binary can sum its failures.
[[gnu::format(printf, 2, 3)]] inline int gate(bool ok, const char* fmt, ...) {
  if (ok) return 0;
  std::va_list args;
  va_start(args, fmt);
  std::printf("GATE FAIL ");
  std::vprintf(fmt, args);
  std::printf("\n");
  va_end(args);
  return 1;
}

/// Wall-clock seconds per call of `fn`: after one warm-up call, the
/// iteration count grows until one repeat lasts at least `min_seconds` (a
/// one-shot timing of a sub-millisecond call is mostly clock noise); the
/// result is the fastest of three such repeats.
inline double time_seconds(const std::function<void()>& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm caches, fault in pages
  std::size_t iters = 1;
  double elapsed = 0.0;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    if (elapsed >= min_seconds || iters > (1u << 24)) break;
    const double scale = elapsed > 1e-9 ? min_seconds / elapsed : 16.0;
    iters = std::max(iters + 1, static_cast<std::size_t>(
                                    static_cast<double>(iters) * std::min(scale * 1.3, 16.0)));
  }
  double best = elapsed / static_cast<double>(iters);
  for (int r = 0; r < 2; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double t = std::chrono::duration<double>(Clock::now() - t0).count() /
                     static_cast<double>(iters);
    best = std::min(best, t);
  }
  return best;
}

/// Writes `rows` to `opt.out`, then runs the regression gate when
/// `opt.baseline` is set. Returns the exit status: 2 if the output cannot
/// be written or the baseline read, 1 if an acceptance bar
/// (`gate_failures`) or the regression gate failed, else 0.
inline int finish(const Options& opt, const Schema& schema, const std::vector<Row>& rows,
                  int gate_failures) {
  {
    std::ofstream f(opt.out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
      return 2;
    }
    write_json(f, schema, opt.quick, rows);
  }
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
  int rc = gate_failures == 0 ? 0 : 1;
  if (!opt.baseline.empty()) {
    const auto base = read_baseline(opt.baseline);
    if (!base) {
      std::fprintf(stderr, "cannot read baseline %s\n", opt.baseline.c_str());
      return 2;
    }
    if (compare_baseline(rows, *base, opt.threshold) > 0) rc = 1;
  }
  return rc;
}

}  // namespace gcmpi::bench
