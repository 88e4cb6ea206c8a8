// gcmpi_perfbench: repeat one workload for a wall-clock budget and write its
// raw measurements as JSON. run.py builds this binary and reduces the raw
// document to the benchmark's metrics.
//
//   gcmpi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --out RAW.json [--trace-out TRACE.json]
//
// Every repetition rebuilds the Worlds and reruns the whole seeded job, so
// repetitions differ only in wall-clock noise: their virtual results and
// counters must match exactly (checked here). With --trace 1 repetitions
// alternate untraced and traced; the traced ones record spans, and the
// codec/solver replays run once at the end.
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compress/kernel_cost.hpp"
#include "gpu/cost_model.hpp"
#include "net/cluster.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || a.out.empty()) {
    throw std::invalid_argument(
        "usage: gcmpi_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--out RAW.json [--trace-out TRACE.json]");
  }
  return a;
}

/// FNV-1a over everything the modelled system decided in one repetition.
class Fingerprint {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void add(double x) { add(&x, sizeof x); }
  void add(const std::string& s) { add(s.data(), s.size() + 1); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const VirtualResult& v) {
  Fingerprint f;
  for (double x : v.op_us) f.add(x);
  for (const auto& [name, xs] : v.call_us) {
    f.add(name);
    for (double x : xs) f.add(x);
  }
  for (const auto& [name, x] : v.counts) {
    f.add(name);
    f.add(x);
  }
  f.add(v.makespan_ms);
  f.add(static_cast<double>(v.attempted));
  f.add(static_cast<double>(v.failed));
  return f.value();
}

// --- minimal JSON writer -------------------------------------------------------

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string str(const std::string& s) { return "\"" + s + "\""; }

std::string array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + num(xs[i]);
  return out + "]";
}

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt&& fmt) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ", ") + str(k) + ": " + fmt(v);
    first = false;
  }
  return out + "}";
}

/// Cost-model constants at fixed anchors: a virtual-time gain that comes
/// from editing a constant moves one of these.
std::map<std::string, double> calibration() {
  const gcmpi::gpu::GpuSpec v100 = gcmpi::gpu::v100_spec();
  const gcmpi::comp::KernelCostModel model;
  const std::uint64_t in = 64u << 20;
  // Table III anchors: MPC on datasets of compression ratio ~1.4, ZFP at rate 8.
  const auto out = static_cast<std::uint64_t>(static_cast<double>(in) / 1.4);
  const double mpc_s = model.mpc_compress(in, out, v100.sm_count, v100).to_seconds();
  const double zfp_s = model.zfp_compress(in, 8, v100).to_seconds();
  const gcmpi::net::Fabric fabric(gcmpi::net::longhorn(2, 1));
  return {{"calib.mpc_compress_gbps", static_cast<double>(in) * 8.0 / mpc_s / 1e9},
          {"calib.zfp8_compress_gbps", static_cast<double>(in) * 8.0 / zfp_s / 1e9},
          {"calib.ib_edr_4mib_us", fabric.estimate(0, 1, 4u << 20).to_us()}};
}

std::string rep_json(const Repetition& rep, bool traced) {
  const WallResult& w = rep.wall;
  std::ostringstream os;
  os << "{\"traced\": " << (traced ? "true" : "false") << ", \"setup_s\": " << num(w.setup_s)
     << ", \"run_s\": " << num(w.run_s)
     << ", \"nvcsw\": " << num(static_cast<double>(w.run_usage.nvcsw))
     << ", \"nivcsw\": " << num(static_cast<double>(w.run_usage.nivcsw))
     << ", \"setup_minflt\": " << num(static_cast<double>(w.setup_usage.minflt))
     << ", \"run_minflt\": " << num(static_cast<double>(w.run_usage.minflt))
     << ", \"run_sys_s\": " << num(w.run_usage.sys_s)
     << ", \"adapt_choose_ms\": " << num(w.adapt_choose_ms)
     << ", \"adapt_observe_ms\": " << num(w.adapt_observe_ms)
     << ", \"call_wall_ms\": " << object(w.call_wall_ms, num) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every large allocation from fresh mmap'ed pages. glibc otherwise
  // raises its mmap threshold after the first large free, and later
  // repetitions would reuse warm heap pages that the first one had to fault
  // in, so repetitions of one run would not cost the same.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    const Args a = parse(argc, argv);
    Tracer tracer(a.trace);
    Tracer silent(false);
    std::unique_ptr<Workload> workload = make_workload(a.workload, a.seed);

    std::vector<Repetition> reps;
    std::vector<bool> traced;
    const std::size_t min_reps = a.trace ? 4 : 3;
    const double start = wall_s();
    bool deterministic = true;
    std::uint64_t first_fp = 0;
    for (std::size_t i = 0;; ++i) {
      const bool tr = a.trace && i % 2 == 1;
      if (tr) tracer.clear();  // the trace file keeps the last traced repetition
      Repetition rep = workload->run(tr ? tracer : silent);
      const std::uint64_t fp = fingerprint(rep.virt);
      if (i == 0) first_fp = fp;
      if (fp != first_fp) {
        deterministic = false;
        std::fprintf(stderr,
                     "gcmpi_perfbench: repetition %zu (%s) diverged from repetition 0: "
                     "virtual results or counters differ\n",
                     i, tr ? "traced" : "untraced");
      }
      reps.push_back(std::move(rep));
      traced.push_back(tr);
      if (reps.size() >= min_reps && wall_s() - start >= a.seconds) break;
    }

    std::uint64_t attempted = 0, failed = 0;
    for (const auto& r : reps) {
      attempted += r.virt.attempted;
      failed += r.virt.failed;
    }
    const VirtualResult& v = reps.front().virt;
    char fp_hex[20];
    std::snprintf(fp_hex, sizeof(fp_hex), "%016llx", static_cast<unsigned long long>(first_fp));

    std::ostringstream os;
    os << "{\"workload\": " << str(a.workload) << ", \"seed\": " << a.seed
       << ", \"trace\": " << (a.trace ? 1 : 0)
       << ", \"deterministic\": " << (deterministic ? "true" : "false")
       << ", \"fingerprint\": " << str(fp_hex) << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"peak_rss_mib\": " << num(peak_rss_mib())
       << ",\n \"virt\": {\"makespan_ms\": " << num(v.makespan_ms)
       << ", \"op_us\": " << array(v.op_us)
       << ",\n  \"call_us\": " << object(v.call_us, array)
       << ",\n  \"counts\": " << object(v.counts, num) << "},\n \"calib\": "
       << object(calibration(), num) << ",\n \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
      os << (i ? ",\n  " : "\n  ") << rep_json(reps[i], traced[i]);
    }
    os << "]";
    if (a.trace) {
      const Replay r = workload->replay(tracer);
      os << ",\n \"replay\": {\"mpc_compress_mbps\": " << num(r.mpc_compress_mbps)
         << ", \"mpc_decompress_mbps\": " << num(r.mpc_decompress_mbps)
         << ", \"zfp8_compress_mbps\": " << num(r.zfp8_compress_mbps)
         << ", \"zfp8_decompress_mbps\": " << num(r.zfp8_decompress_mbps)
         << ", \"solver_s\": " << num(r.solver_s) << ", \"ok\": " << (r.ok ? "true" : "false")
         << "}";
      if (!a.trace_out.empty() && !tracer.write_chrome_trace(a.trace_out, a.workload)) {
        throw std::runtime_error("cannot write " + a.trace_out);
      }
    }
    os << "}\n";

    std::ofstream f(a.out);
    f << os.str();
    if (!f) throw std::runtime_error("cannot write " + a.out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcmpi_perfbench: %s\n", e.what());
    return 1;
  }
}
