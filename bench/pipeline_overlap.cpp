// pipeline_overlap — chunked pipelined rendezvous vs the serial protocol.
//
// Sweeps message size x codec x chunking mode for a one-way D-D transfer on
// Longhorn (IB-EDR inter-node), reporting the simulated one-way latency, the
// effective throughput, and the per-stage busy breakdown the pipeline
// telemetry records (compress / wire / decompress overlap). The simulation
// is deterministic, so the JSON this writes (BENCH_pipeline.json) is an
// exact, reproducible artifact: CI re-runs the sweep and compares against
// the committed file with a tight threshold.
//
// Usage:
//   pipeline_overlap [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) a row is missing from the baseline or
// regressed beyond the threshold, or (b) the acceptance bar fails: auto-tuned
// pipelining must cut >= 20% off the serial one-way latency for MPC messages
// >= 4 MiB.
#include <string>
#include <vector>

#include "common.hpp"
#include "core/telemetry.hpp"
#include "net/cluster.hpp"

namespace {

using namespace gcmpi;

const bench::Schema kSchema{
    "gcmpi-bench-pipeline-v1",
    {{"mbps", "original MB per simulated second, one-way D-D Longhorn inter-node"}}};

/// One-way rank0 -> rank1 transfer of a device-resident payload, printed
/// and returned as the row pipeline/<codec>/<size>/<mode>.
bench::Row run_row(const std::string& codec_label, const core::CompressionConfig& cfg,
                   std::size_t bytes, const std::string& mode, std::uint64_t chunk_bytes,
                   bool pipelined) {
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.pipeline.enabled = pipelined;
  opts.pipeline.chunk_bytes = chunk_bytes;
  const auto payload = bench::omb_dummy(bytes);
  const sim::Time one_way =
      bench::ping_pong(net::longhorn(2, 1), cfg, payload, /*warmup=*/false, opts).one_way;
  const double latency_us = one_way.to_seconds() * 1e6;
  const double mbps = static_cast<double>(bytes) / one_way.to_seconds() / 1e6;
  const core::PipelineRecord* p =
      telemetry.pipelines().empty() ? nullptr : &telemetry.pipelines().front();  // serial: none

  bench::Row row{"pipeline/" + codec_label + "/" + bench::size_label(bytes) + "/" + mode};
  row.text("codec", codec_label)
      .text("mode", mode)
      .count("bytes", bytes)
      .fixed("latency_us", latency_us, 3)
      .fixed("mbps", mbps, 1)
      .count("chunks", p != nullptr ? p->chunks : 0u);
  if (p != nullptr) {
    std::printf(
        "%-36s %10.1f us %9.1f MB/s  chunks=%2u  c/w/d=%.0f/%.0f/%.0f us  overlap=%4.1f%%\n",
        row.name.c_str(), latency_us, mbps, p->chunks, p->compress_busy.to_seconds() * 1e6,
        p->transfer_busy.to_seconds() * 1e6, p->decompress_busy.to_seconds() * 1e6,
        bench::overlap_pct(*p));
  } else {
    std::printf("%-36s %10.1f us %9.1f MB/s\n", row.name.c_str(), latency_us, mbps);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      bench::parse_options(argc, argv, "pipeline_overlap", "BENCH_pipeline.json", 0.02);
  if (!opt) return 2;

  const std::vector<std::size_t> sizes =
      opt->quick ? std::vector<std::size_t>{4u << 20, 16u << 20}
                 : std::vector<std::size_t>{1u << 20, 4u << 20, 8u << 20, 16u << 20, 32u << 20};
  struct CodecCase {
    std::string label;
    core::CompressionConfig cfg;
  };
  const std::vector<CodecCase> codecs = {
      {"mpc", core::CompressionConfig::mpc_opt()},
      {"zfp16", core::CompressionConfig::zfp_opt(16)},
  };
  struct Mode {
    std::string label;
    std::uint64_t chunk_bytes;  // 0 = auto-tune
    bool pipelined;
  };
  const std::vector<Mode> modes = {
      {"serial", 0, false},
      {"auto", 0, true},
      {"chunk512K", 512u << 10, true},
      {"chunk2M", 2u << 20, true},
  };

  std::printf("pipeline_overlap: one-way D-D latency, Longhorn inter-node (IB-EDR)\n");
  std::vector<bench::Row> rows;
  int gate_failures = 0;
  for (const auto& codec : codecs) {
    for (std::size_t bytes : sizes) {
      double serial_lat = 0.0;
      for (const auto& mode : modes) {
        bench::Row row = run_row(codec.label, codec.cfg, bytes, mode.label, mode.chunk_bytes,
                                 mode.pipelined);
        const double latency_us = row.number("latency_us");
        if (mode.label == "serial") serial_lat = latency_us;
        // The acceptance bar: auto-tuned pipelining cuts >= 20% off the
        // serial one-way latency for MPC messages of 4 MiB and up.
        if (codec.label == "mpc" && bytes >= (4u << 20) && mode.label == "auto") {
          gate_failures += bench::gate(latency_us <= 0.8 * serial_lat,
                                       "%s: %.1f us vs serial %.1f us (< 20%% win)",
                                       row.name.c_str(), latency_us, serial_lat);
        }
        rows.push_back(std::move(row));
      }
    }
  }
  return bench::finish(*opt, kSchema, rows, gate_failures);
}
