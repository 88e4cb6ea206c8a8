// Topology-aware hierarchical collectives (see src/mpi/hier_engine.cpp):
// flat wire-forwarding bcast (one transit per remote RANK crossing the
// shared IB NIC) against the hierarchical schedule (root compresses once,
// the wire form hops a binomial tree over node REPRESENTATIVES, then fans
// out intra-node over NVLink). An inert fault injector rides along purely
// as a packet counter: its inter_node_data_packets split measures the IB
// transit budget directly. The simulation is deterministic, so the JSON
// this writes (BENCH_hierarchical.json) is an exact expected output; CI
// regenerates it with --quick and gates on the committed file.
//
//   hier_collectives [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) any baseline entry regressed beyond the
// threshold, or (b) the engine's acceptance bar fails: hierarchical+MPC
// must beat the flat schedule by >= 30% at 16 MiB on 4 nodes x 4 GPUs,
// with exactly one inter-node wire transit per non-root node (nodes-1).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "core/collective.hpp"
#include "core/telemetry.hpp"
#include "fault/injector.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

struct Options {
  bool quick = false;
  std::string out = "BENCH_hierarchical.json";
  std::string baseline;
  double threshold = 0.02;  // simulation is deterministic; tiny drift budget
};

struct Row {
  std::string name;
  std::size_t bytes = 0;  // bcast message bytes
  double latency_us = 0.0;
  double mbps = 0.0;  // message bytes per simulated second, barriers included
  double compress_us = 0.0;
  double decompress_us = 0.0;
  std::uint64_t inter_packets = 0;  // IB data-packet transits (clean fabric)
};

struct RunResult {
  sim::Time latency;
  core::Telemetry::Summary summary;
  std::uint64_t inter_packets = 0;
};

RunResult run_bcast(core::CollectiveAlgorithm algorithm, core::CompressionConfig cfg,
                    const std::vector<float>& payload, std::size_t bytes, int nodes,
                    int gpn) {
  sim::Engine engine;
  core::Telemetry telemetry;
  fault::FaultInjector counter{fault::FaultPlan{}};  // inert: pure packet counting
  cfg.pool_buffer_bytes = bytes + (1u << 20);
  cfg.pool_buffers = 8;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.fault = &counter;
  opts.collectives[core::CollectiveOp::Bcast] = algorithm;
  mpi::World world(engine, net::longhorn(nodes, gpn), cfg, opts);
  const int root = 1;  // off-leader root: the representative tree is not aligned
  sim::Time t = sim::Time::zero();
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<std::uint8_t*>(R.gpu_malloc(bytes));
    if (R.rank() == root) std::memcpy(dev, payload.data(), bytes);
    R.barrier();
    const sim::Time t0 = R.now();
    R.bcast(dev, bytes, root);
    R.barrier();
    if (R.rank() == 0) t = R.now() - t0;
    R.gpu_free(dev);
  });
  RunResult res;
  res.latency = t;
  res.summary = telemetry.summarize();
  res.inter_packets = counter.stats().inter_node_data_packets;
  return res;
}

Row make_row(const char* algo, const char* codec, core::CollectiveAlgorithm a,
             core::CompressionConfig cfg, std::size_t bytes, int nodes, int gpn) {
  const auto payload = data::generate("obs_error", bytes / 4);
  const RunResult res = run_bcast(a, std::move(cfg), payload, bytes, nodes, gpn);
  Row r;
  std::ostringstream name;
  name << "bcast/" << algo << "/" << codec << "/" << size_label(bytes) << "@" << nodes
       << "x" << gpn;
  r.name = name.str();
  r.bytes = bytes;
  r.latency_us = res.latency.to_seconds() * 1e6;
  r.mbps = static_cast<double>(bytes) / 1e6 / res.latency.to_seconds();
  r.compress_us = res.summary.compression_time.to_seconds() * 1e6;
  r.decompress_us = res.summary.decompression_time.to_seconds() * 1e6;
  r.inter_packets = res.inter_packets;
  std::printf("%-32s %10.1f us %9.1f MB/s  c=%8.1fus d=%8.1fus ib_transits=%llu\n",
              r.name.c_str(), r.latency_us, r.mbps, r.compress_us, r.decompress_us,
              static_cast<unsigned long long>(r.inter_packets));
  return r;
}

int sweep(const Options& opt, std::vector<Row>& rows) {
  print_header("Hierarchical bcast: flat wire-forwarding vs per-node staging "
               "(obs_error, root=1)");
  auto mpc = core::CompressionConfig::mpc_opt();
  mpc.threshold_bytes = 256 * 1024;
  auto zfp = core::CompressionConfig::zfp_opt(8);
  zfp.threshold_bytes = 256 * 1024;
  const auto raw = core::CompressionConfig::off();
  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{16u << 20}
                : std::vector<std::size_t>{4u << 20, 16u << 20, 64u << 20};
  const std::vector<std::pair<int, int>> topos =
      opt.quick ? std::vector<std::pair<int, int>>{{4, 4}}
                : std::vector<std::pair<int, int>>{{2, 4}, {4, 4}};

  double flat_16m = 0.0, hier_16m = 0.0;
  std::uint64_t hier_16m_transits = 0;
  int gate_nodes = 0;
  for (const auto& [nodes, gpn] : topos) {
    for (const std::size_t bytes : sizes) {
      struct Cfg {
        const char* codec;
        core::CompressionConfig cfg;
      };
      const Cfg cfgs[] = {{"raw", raw}, {"mpc", mpc}, {"zfp8", zfp}};
      for (const auto& [codec, cfg] : cfgs) {
        if (opt.quick && std::string(codec) != "mpc") continue;
        const Row flat =
            make_row("flat", codec, core::CollectiveAlgorithm::Linear, cfg, bytes, nodes,
                     gpn);
        const Row hier = make_row("hier", codec, core::CollectiveAlgorithm::Hierarchical,
                                  cfg, bytes, nodes, gpn);
        if (nodes == 4 && gpn == 4 && bytes == (16u << 20) &&
            std::string(codec) == "mpc") {
          flat_16m = flat.latency_us;
          hier_16m = hier.latency_us;
          hier_16m_transits = hier.inter_packets;
          gate_nodes = nodes;
        }
        rows.push_back(flat);
        rows.push_back(hier);
      }
    }
  }

  const double improvement = (1.0 - hier_16m / flat_16m) * 100.0;
  std::printf("\nhier+MPC vs flat+MPC at 16M on 4x4: %.1f%% faster (gate: >= 30%%)\n",
              improvement);
  int failures = 0;
  if (!(hier_16m <= 0.70 * flat_16m)) {
    std::fprintf(stderr,
                 "FAIL: hierarchical bcast (%.1f us) does not beat flat (%.1f us) by "
                 "30%%\n",
                 hier_16m, flat_16m);
    ++failures;
  }
  std::printf("inter-node wire transits in the hier+MPC run: %llu (gate: == %d, one per "
              "non-root node)\n\n",
              static_cast<unsigned long long>(hier_16m_transits), gate_nodes - 1);
  if (hier_16m_transits != static_cast<std::uint64_t>(gate_nodes - 1)) {
    std::fprintf(stderr, "FAIL: expected %d inter-node transits (nodes-1), got %llu\n",
                 gate_nodes - 1, static_cast<unsigned long long>(hier_16m_transits));
    ++failures;
  }
  return failures;
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"gcmpi-bench-hierarchical-v1\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": {\"mbps\": \"bcast message MB per simulated second, both barriers "
        "included\", \"inter_packets\": \"inter-node rendezvous data packets on a clean "
        "fabric\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"bytes\": %zu, \"latency_us\": %.3f, "
                  "\"mbps\": %.1f, \"compress_us\": %.3f, \"decompress_us\": %.3f, "
                  "\"inter_packets\": %llu}%s\n",
                  r.name.c_str(), r.bytes, r.latency_us, r.mbps, r.compress_us,
                  r.decompress_us, static_cast<unsigned long long>(r.inter_packets),
                  i + 1 < rows.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream f(opt.out);
  if (!f) {
    std::fprintf(stderr, "hier_collectives: cannot write %s\n", opt.out.c_str());
    std::exit(2);
  }
  f << os.str();
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
}

std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "hier_collectives: cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::pair<std::string, double>> out;
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

int compare_baseline(const Options& opt, const std::vector<Row>& rows) {
  const auto base = read_baseline(opt.baseline);
  int regressions = 0;
  std::size_t matched = 0;
  for (const Row& r : rows) {
    const auto it = std::find_if(base.begin(), base.end(),
                                 [&](const auto& b) { return b.first == r.name; });
    if (it == base.end()) continue;
    ++matched;
    if (r.mbps < it->second * (1.0 - opt.threshold)) {
      std::fprintf(stderr, "REGRESSION %s: %.1f MB/s vs baseline %.1f MB/s\n",
                   r.name.c_str(), r.mbps, it->second);
      ++regressions;
    }
  }
  std::printf("baseline check: %zu entries matched, %d regressions (threshold %.0f%%)\n",
              matched, regressions, opt.threshold * 100.0);
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      opt.quick = true;
    } else if (a == "--out" && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (a == "--baseline" && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (a == "--threshold" && i + 1 < argc) {
      opt.threshold = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: hier_collectives [--quick] [--out FILE] [--baseline FILE] "
                   "[--threshold FRAC]\n");
      return 2;
    }
  }

  std::vector<Row> rows;
  int gate_failures = sweep(opt, rows);
  write_json(opt, rows);
  if (!opt.baseline.empty()) gate_failures += compare_baseline(opt, rows);
  return gate_failures > 0 ? 1 : 0;
}
