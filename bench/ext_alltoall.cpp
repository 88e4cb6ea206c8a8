// Extension (paper future work, Sec. IX): "explore the designs to
// accelerate various communication patterns like Alltoall and Allreduce".
//
// MPI_Alltoall algorithm sweep on the Longhorn preset: the naive pairwise
// sendrecv loop (one compression launch + sync per destination block, P-1
// of them serialized) against the batched engine (ONE launch for all P-1
// blocks in one CompressionManager launch, slab slices exchanged
// over the scattered pairwise schedule, decodes overlapped). Per-stage
// breakdowns come from the telemetry event log. The simulation is
// deterministic, so the JSON this writes (BENCH_alltoall.json) is an exact
// expected output; CI regenerates it with --quick and gates on the
// committed file.
//
//   ext_alltoall [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) a row is missing from the baseline or
// regressed beyond the threshold, or (b) the engine's acceptance bar fails:
// batched+MPC must beat the naive pairwise path by >= 25% at 8 ranks / 4 MiB
// blocks, with exactly one compression launch per rank recorded in telemetry.
#include "common.hpp"
#include "core/collective.hpp"
#include "core/telemetry.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

const Schema kSchema{"gcmpi-bench-alltoall-v1",
                     {{"mbps", "total alltoall payload (P*P*block) MB per simulated second, "
                               "both barriers included"}}};

Row make_row(const char* algo, const char* codec, core::CollectiveAlgorithm a,
             core::CompressionConfig cfg, std::size_t block_bytes, int ranks) {
  const auto payload = data::generate("msg_sppm", block_bytes / 4);
  core::Telemetry telemetry;
  cfg.pool_buffer_bytes =
      static_cast<std::size_t>(ranks) * (block_bytes + (1u << 16)) + (1u << 20);
  cfg.pool_buffers = 24;  // the batch slab + P-1 decompressions in flight
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.collectives[core::CollectiveOp::Alltoall] = a;
  const sim::Time t = time_op(net::longhorn(ranks, 1), cfg, opts, [&](mpi::Rank& R) {
    const auto P = static_cast<std::size_t>(R.size());
    auto* send = static_cast<std::uint8_t*>(R.gpu_malloc(block_bytes * P));
    for (std::size_t b = 0; b < P; ++b) {
      std::memcpy(send + b * block_bytes, payload.data(), block_bytes);
    }
    return [&R, send, block_bytes, recv = std::vector<std::uint8_t>(block_bytes * P)]() mutable {
      R.alltoall(send, block_bytes, recv.data());
    };
  });
  const core::Telemetry::Summary summary = telemetry.summarize();
  const double total =
      static_cast<double>(block_bytes) * static_cast<double>(ranks) * ranks;
  const double compress_us = summary.compression_time.to_seconds() * 1e6;
  const double decompress_us = summary.decompression_time.to_seconds() * 1e6;
  // bytes: per-destination block bytes; compress_us: summed compression
  // event time from telemetry.
  Row r = collective_row("alltoall", algo, codec, block_bytes, ranks, 1, t, total);
  r.fixed("compress_us", compress_us, 3)
      .fixed("decompress_us", decompress_us, 3)
      .count("compress_events", summary.compressions);
  std::printf("%-34s %10.1f us %9.1f MB/s  c=%8.1fus d=%8.1fus launches=%llu\n",
              r.name.c_str(), r.number("latency_us"), r.number("mbps"), compress_us,
              decompress_us, static_cast<unsigned long long>(summary.compressions));
  return r;
}

int sweep(bool quick, std::vector<Row>& rows) {
  print_header("Ext: MPI_Alltoall by algorithm, Longhorn 8x1 (msg_sppm)");
  auto mpc = core::CompressionConfig::mpc_opt();
  mpc.threshold_bytes = 256 * 1024;
  auto zfp = core::CompressionConfig::zfp_opt(8);
  zfp.threshold_bytes = 256 * 1024;
  const auto raw = core::CompressionConfig::off();
  const int P = 8;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4u << 20}
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
      naive_4m = naive_mpc.number("latency_us");
      batched_4m = batched_mpc.number("latency_us");
      batched_4m_launches = static_cast<std::uint64_t>(batched_mpc.number("compress_events"));
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
  int failures = gate(batched_4m <= 0.75 * naive_4m,
                      "batched alltoall (%.1f us) does not beat naive (%.1f us) by 25%%",
                      batched_4m, naive_4m);
  // One batched launch per rank per alltoall: exactly P Compress events.
  std::printf("compression launches in the batched+MPC run: %llu (gate: == %d, one "
              "per rank)\n\n",
              static_cast<unsigned long long>(batched_4m_launches), P);
  failures += gate(batched_4m_launches == static_cast<std::uint64_t>(P),
                   "expected %d compression launches (one per rank), got %llu", P,
                   static_cast<unsigned long long>(batched_4m_launches));
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse_options(argc, argv, "ext_alltoall", "BENCH_alltoall.json", 0.02);
  if (!opt) return 2;
  std::vector<Row> rows;
  const int gate_failures = sweep(opt->quick, rows);
  return finish(*opt, kSchema, rows, gate_failures);
}
