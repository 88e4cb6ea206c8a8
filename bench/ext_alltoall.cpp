// Extension (paper future work, Sec. IX): "explore the designs to
// accelerate various communication patterns like Alltoall and Allreduce".
//
// MPI_Alltoall algorithm sweep on the Longhorn preset: the naive pairwise
// sendrecv loop (one compression launch + sync per destination block, P-1
// of them serialized) against the batched engine (ONE launch for all P-1
// blocks via CompressionManager::compress_batch, slab slices exchanged
// over the scattered pairwise schedule, decodes overlapped). Per-stage
// breakdowns come from the telemetry event log. The simulation is
// deterministic, so the JSON this writes (BENCH_alltoall.json) is an exact
// expected output; CI regenerates it with --quick and gates on the
// committed file.
//
//   ext_alltoall [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) any baseline entry regressed beyond the
// threshold, or (b) the engine's acceptance bar fails: batched+MPC must
// beat the naive pairwise path by >= 25% at 8 ranks / 4 MiB blocks, with
// exactly one compression launch per rank recorded in telemetry.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "core/collective.hpp"
#include "core/telemetry.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

struct Options {
  bool quick = false;
  std::string out = "BENCH_alltoall.json";
  std::string baseline;
  double threshold = 0.02;  // simulation is deterministic; tiny drift budget
};

struct Row {
  std::string name;
  std::size_t bytes = 0;  // per-destination block bytes
  double latency_us = 0.0;
  double mbps = 0.0;  // total payload (P * P * block) per simulated second
  double compress_us = 0.0;    // telemetry: summed compression event time
  double decompress_us = 0.0;  // telemetry: summed decompression event time
  std::uint64_t compress_events = 0;
};

struct RunResult {
  sim::Time latency;
  core::Telemetry::Summary summary;
};

RunResult run_alltoall(core::CollectiveAlgorithm algorithm, core::CompressionConfig cfg,
                       const std::vector<float>& payload, std::size_t block_bytes,
                       int ranks) {
  sim::Engine engine;
  core::Telemetry telemetry;
  cfg.pool_buffer_bytes =
      static_cast<std::size_t>(ranks) * (block_bytes + (1u << 16)) + (1u << 20);
  cfg.pool_buffers = 24;  // the batch slab + P-1 decompressions in flight
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.collectives[core::CollectiveOp::Alltoall] = algorithm;
  mpi::World world(engine, net::longhorn(ranks, 1), cfg, opts);
  sim::Time t = sim::Time::zero();
  world.run([&](mpi::Rank& R) {
    const auto P = static_cast<std::size_t>(R.size());
    auto* send = static_cast<std::uint8_t*>(R.gpu_malloc(block_bytes * P));
    std::vector<std::uint8_t> recv(block_bytes * P);
    for (std::size_t b = 0; b < P; ++b) {
      std::memcpy(send + b * block_bytes, payload.data(), block_bytes);
    }
    R.barrier();
    const sim::Time t0 = R.now();
    R.alltoall(send, block_bytes, recv.data());
    R.barrier();
    if (R.rank() == 0) t = R.now() - t0;
    R.gpu_free(send);
  });
  RunResult res;
  res.latency = t;
  res.summary = telemetry.summarize();
  return res;
}

Row make_row(const char* algo, const char* codec, core::CollectiveAlgorithm a,
             core::CompressionConfig cfg, std::size_t block_bytes, int ranks) {
  const auto payload = data::generate("msg_sppm", block_bytes / 4);
  const RunResult res = run_alltoall(a, std::move(cfg), payload, block_bytes, ranks);
  Row r;
  std::ostringstream name;
  name << "alltoall/" << algo << "/" << codec << "/" << size_label(block_bytes) << "@"
       << ranks << "x1";
  r.name = name.str();
  r.bytes = block_bytes;
  r.latency_us = res.latency.to_seconds() * 1e6;
  const double total =
      static_cast<double>(block_bytes) * static_cast<double>(ranks) * ranks;
  r.mbps = total / 1e6 / res.latency.to_seconds();
  r.compress_us = res.summary.compression_time.to_seconds() * 1e6;
  r.decompress_us = res.summary.decompression_time.to_seconds() * 1e6;
  r.compress_events = res.summary.compressions;
  std::printf("%-34s %10.1f us %9.1f MB/s  c=%8.1fus d=%8.1fus launches=%llu\n",
              r.name.c_str(), r.latency_us, r.mbps, r.compress_us, r.decompress_us,
              static_cast<unsigned long long>(r.compress_events));
  return r;
}

int sweep(const Options& opt, std::vector<Row>& rows) {
  print_header("Ext: MPI_Alltoall by algorithm, Longhorn 8x1 (msg_sppm)");
  auto mpc = core::CompressionConfig::mpc_opt();
  mpc.threshold_bytes = 256 * 1024;
  auto zfp = core::CompressionConfig::zfp_opt(8);
  zfp.threshold_bytes = 256 * 1024;
  const auto raw = core::CompressionConfig::off();
  const int P = 8;
  const std::vector<std::size_t> sizes =
      opt.quick ? std::vector<std::size_t>{4u << 20}
                : std::vector<std::size_t>{1u << 20, 4u << 20, 8u << 20};

  double naive_4m = 0.0, batched_4m = 0.0;
  std::uint64_t batched_4m_launches = 0;
  for (const std::size_t block : sizes) {
    const Row naive_raw =
        make_row("naive", "raw", core::CollectiveAlgorithm::Linear, raw, block, P);
    const Row naive_mpc =
        make_row("naive", "mpc", core::CollectiveAlgorithm::Linear, mpc, block, P);
    const Row batched_mpc = make_row("batched", "mpc",
                                     core::CollectiveAlgorithm::BatchedPairwise, mpc,
                                     block, P);
    const Row batched_zfp = make_row("batched", "zfp8",
                                     core::CollectiveAlgorithm::BatchedPairwise, zfp,
                                     block, P);
    if (block == (4u << 20)) {
      naive_4m = naive_mpc.latency_us;
      batched_4m = batched_mpc.latency_us;
      batched_4m_launches = batched_mpc.compress_events;
    }
    rows.push_back(naive_raw);
    rows.push_back(naive_mpc);
    rows.push_back(batched_mpc);
    rows.push_back(batched_zfp);
  }

  const double improvement = (1.0 - batched_4m / naive_4m) * 100.0;
  std::printf("\nbatched+MPC vs naive+MPC at 4M blocks / 8 ranks: %.1f%% faster "
              "(gate: >= 25%%)\n",
              improvement);
  int failures = 0;
  if (!(batched_4m <= 0.75 * naive_4m)) {
    std::fprintf(stderr,
                 "FAIL: batched alltoall (%.1f us) does not beat naive (%.1f us) by 25%%\n",
                 batched_4m, naive_4m);
    ++failures;
  }
  // One batched launch per rank per alltoall: exactly P Compress events.
  std::printf("compression launches in the batched+MPC run: %llu (gate: == %d, one "
              "per rank)\n\n",
              static_cast<unsigned long long>(batched_4m_launches), P);
  if (batched_4m_launches != static_cast<std::uint64_t>(P)) {
    std::fprintf(stderr, "FAIL: expected %d compression launches (one per rank), got %llu\n",
                 P, static_cast<unsigned long long>(batched_4m_launches));
    ++failures;
  }
  return failures;
}

void write_json(const Options& opt, const std::vector<Row>& rows) {
  std::ostringstream os;
  os << "{\n"
     << "  \"schema\": \"gcmpi-bench-alltoall-v1\",\n"
     << "  \"quick\": " << (opt.quick ? "true" : "false") << ",\n"
     << "  \"units\": {\"mbps\": \"total alltoall payload (P*P*block) MB per simulated "
        "second, both barriers included\"},\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"bytes\": %zu, \"latency_us\": %.3f, "
                  "\"mbps\": %.1f, \"compress_us\": %.3f, \"decompress_us\": %.3f, "
                  "\"compress_events\": %llu}%s\n",
                  r.name.c_str(), r.bytes, r.latency_us, r.mbps, r.compress_us,
                  r.decompress_us, static_cast<unsigned long long>(r.compress_events),
                  i + 1 < rows.size() ? "," : "");
    os << line;
  }
  os << "  ]\n}\n";
  std::ofstream f(opt.out);
  if (!f) {
    std::fprintf(stderr, "ext_alltoall: cannot write %s\n", opt.out.c_str());
    std::exit(2);
  }
  f << os.str();
  std::printf("wrote %s (%zu entries)\n", opt.out.c_str(), rows.size());
}

std::vector<std::pair<std::string, double>> read_baseline(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "ext_alltoall: cannot read baseline %s\n", path.c_str());
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
                   "usage: ext_alltoall [--quick] [--out FILE] [--baseline FILE] "
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
