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
// Exit status is nonzero if (a) a row is missing from the baseline or
// regressed beyond the threshold, or (b) the engine's acceptance bar fails:
// hierarchical+MPC must beat the flat schedule by >= 30% at 16 MiB on 4 nodes
// x 4 GPUs, with exactly one inter-node wire transit per non-root node
// (nodes-1).
#include "common.hpp"
#include "core/collective.hpp"
#include "core/telemetry.hpp"
#include "fault/injector.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

const Schema kSchema{
    "gcmpi-bench-hierarchical-v1",
    {{"mbps", "bcast message MB per simulated second, both barriers included"},
     {"inter_packets", "inter-node rendezvous data packets on a clean fabric"}}};

Row make_row(const char* algo, const char* codec, core::CollectiveAlgorithm a,
             core::CompressionConfig cfg, std::size_t bytes, int nodes, int gpn) {
  const auto payload = data::generate("obs_error", bytes / 4);
  core::Telemetry telemetry;
  fault::FaultInjector counter{fault::FaultPlan{}};  // inert: pure packet counting
  cfg.pool_buffer_bytes = bytes + (1u << 20);
  cfg.pool_buffers = 8;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.fault = &counter;
  opts.collectives[core::CollectiveOp::Bcast] = a;
  const int root = 1;  // off-leader root: the representative tree is not aligned
  const sim::Time t = time_op(net::longhorn(nodes, gpn), cfg, opts, [&](mpi::Rank& R) {
    auto* dev = static_cast<std::uint8_t*>(R.gpu_malloc(bytes));
    if (R.rank() == root) std::memcpy(dev, payload.data(), bytes);
    return [&R, dev, bytes, root] { R.bcast(dev, bytes, root); };
  });
  const core::Telemetry::Summary summary = telemetry.summarize();
  const std::uint64_t inter_packets = counter.stats().inter_node_data_packets;
  const double compress_us = summary.compression_time.to_seconds() * 1e6;
  const double decompress_us = summary.decompression_time.to_seconds() * 1e6;
  Row r = collective_row("bcast", algo, codec, bytes, nodes, gpn, t, static_cast<double>(bytes));
  r.fixed("compress_us", compress_us, 3)
      .fixed("decompress_us", decompress_us, 3)
      .count("inter_packets", inter_packets);
  std::printf("%-32s %10.1f us %9.1f MB/s  c=%8.1fus d=%8.1fus ib_transits=%llu\n",
              r.name.c_str(), r.number("latency_us"), r.number("mbps"), compress_us,
              decompress_us, static_cast<unsigned long long>(inter_packets));
  return r;
}

int sweep(bool quick, std::vector<Row>& rows) {
  print_header("Hierarchical bcast: flat wire-forwarding vs per-node staging "
               "(obs_error, root=1)");
  auto mpc = core::CompressionConfig::mpc_opt();
  mpc.threshold_bytes = 256 * 1024;
  auto zfp = core::CompressionConfig::zfp_opt(8);
  zfp.threshold_bytes = 256 * 1024;
  const auto raw = core::CompressionConfig::off();
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{16u << 20}
            : std::vector<std::size_t>{4u << 20, 16u << 20, 64u << 20};
  const std::vector<std::pair<int, int>> topos =
      quick ? std::vector<std::pair<int, int>>{{4, 4}}
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
        if (quick && std::string(codec) != "mpc") continue;
        const Row flat =
            make_row("flat", codec, core::CollectiveAlgorithm::Linear, cfg, bytes, nodes,
                     gpn);
        const Row hier = make_row("hier", codec, core::CollectiveAlgorithm::Hierarchical,
                                  cfg, bytes, nodes, gpn);
        if (nodes == 4 && gpn == 4 && bytes == (16u << 20) &&
            std::string(codec) == "mpc") {
          flat_16m = flat.number("latency_us");
          hier_16m = hier.number("latency_us");
          hier_16m_transits = static_cast<std::uint64_t>(hier.number("inter_packets"));
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
  int failures = gate(hier_16m <= 0.70 * flat_16m,
                      "hierarchical bcast (%.1f us) does not beat flat (%.1f us) by 30%%",
                      hier_16m, flat_16m);
  std::printf("inter-node wire transits in the hier+MPC run: %llu (gate: == %d, one per "
              "non-root node)\n\n",
              static_cast<unsigned long long>(hier_16m_transits), gate_nodes - 1);
  failures += gate(hier_16m_transits == static_cast<std::uint64_t>(gate_nodes - 1),
                   "expected %d inter-node transits (nodes-1), got %llu", gate_nodes - 1,
                   static_cast<unsigned long long>(hier_16m_transits));
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      parse_options(argc, argv, "hier_collectives", "BENCH_hierarchical.json", 0.02);
  if (!opt) return 2;
  std::vector<Row> rows;
  const int gate_failures = sweep(opt->quick, rows);
  return finish(*opt, kSchema, rows, gate_failures);
}
