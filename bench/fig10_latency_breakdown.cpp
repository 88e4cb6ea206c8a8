// Fig. 10: inter-node latency percentage breakdown (compression /
// decompression / communication+other) for MPC-OPT and ZFP-OPT(rate 4) on
// Frontera Liquid. Expected shape: MPC-OPT's kernel shares grow with
// message size; ZFP-OPT decompression is cheap and nearly constant; MPC's
// communication share is lower than ZFP's because of the higher ratio on
// dummy data (the paper's own observation).
#include "common.hpp"
#include "core/telemetry.hpp"
#include "net/cluster.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

void panel(const char* title, const core::CompressionConfig& cfg) {
  print_header(title);
  std::printf("%8s %10s | %12s %12s %12s | %7s\n", "size", "total", "compression",
              "decompression", "comm+other", "ratio");
  for (const std::size_t bytes : omb_sizes()) {
    const auto payload = omb_dummy(bytes);
    const auto r = ping_pong(net::frontera_liquid(2, 1), cfg, payload);
    const double total = r.one_way.to_us();
    // "Compression/decompression time includes all overheads on the
    // sender/receiver side" (Sec. VI-A3).
    const double comp = r.sender.total().to_us();
    const double decomp = r.receiver.total().to_us();
    const double comm = total - comp - decomp;
    std::printf("%8s %8.1fus | %8.1fus %2.0f%% %6.1fus %2.0f%% %7.1fus %2.0f%% | %6.2fx\n",
                size_label(bytes), total, comp, comp / total * 100, decomp,
                decomp / total * 100, comm, comm / total * 100, r.ratio);
  }
  std::printf("\n");
}

// Extension panel: the chunked pipelined rendezvous against the serial
// protocol on the same workload — how much of the compress/transfer/
// decompress sum the chunk overlap hides (see bench/pipeline_overlap for
// the full sweep and the committed regression baseline).
void pipeline_panel(const char* title, const core::CompressionConfig& cfg) {
  print_header(title);
  std::printf("%8s %12s %12s %7s | %6s %9s\n", "size", "serial", "pipelined", "win",
              "chunks", "overlap");
  for (const std::size_t bytes : omb_sizes()) {
    if (bytes < (1u << 20)) continue;  // below min_bytes the paths coincide
    const auto payload = omb_dummy(bytes);
    const auto serial = ping_pong(net::longhorn(2, 1), cfg, payload);
    core::Telemetry telemetry;
    mpi::WorldOptions opts;
    opts.telemetry = &telemetry;
    opts.pipeline.enabled = true;
    const auto piped = ping_pong(net::longhorn(2, 1), cfg, payload, true, opts);
    std::uint32_t chunks = 0;
    double overlap = 0.0;
    if (!telemetry.pipelines().empty()) {
      chunks = telemetry.pipelines().front().chunks;
      overlap = overlap_pct(telemetry.pipelines().front());
    }
    std::printf("%8s %10.1fus %10.1fus %6.1f%% | %6u %8.1f%%\n", size_label(bytes),
                serial.one_way.to_us(), piped.one_way.to_us(),
                pct_improvement(serial.one_way, piped.one_way), chunks, overlap);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  panel("Fig 10(a): MPC-OPT latency breakdown (Frontera Liquid inter-node)",
        core::CompressionConfig::mpc_opt());
  panel("Fig 10(b): ZFP-OPT(rate 4) latency breakdown (Frontera Liquid inter-node)",
        core::CompressionConfig::zfp_opt(4));
  pipeline_panel("Ext: MPC-OPT serial vs chunked pipelined rendezvous (Longhorn inter-node)",
                 core::CompressionConfig::mpc_opt());
  std::printf("Paper shapes: MPC overheads grow with size; ZFP-OPT decompression nearly\n"
              "constant 256KB-32MB; MPC comm share lower due to high CR on dummy data.\n");
  return 0;
}
