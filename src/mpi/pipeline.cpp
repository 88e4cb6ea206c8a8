#include "mpi/pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "compress/kernel_cost.hpp"

namespace gcmpi::mpi {

namespace {

constexpr std::uint64_t kChunkAlign = 64ull << 10;  // MPC chunk multiple
constexpr std::uint64_t kMinChunk = 256ull << 10;

/// Planning-time compression ratio: the tune must not depend on payload
/// content (determinism), so use the codec's nominal ratio — fixed-rate for
/// ZFP, the Table-III CR-ish 2.0 for MPC on typical HPC data.
double planning_ratio(const core::CompressionConfig& cfg) {
  if (cfg.algorithm == core::Algorithm::ZFP) {
    return 32.0 / static_cast<double>(std::max(1, cfg.zfp_rate));
  }
  return 2.0;
}

}  // namespace

int pipeline_chunk_blocks(const gpu::GpuSpec& gpu, int window, int chunks) {
  const int concurrent = std::max(1, std::min(window, chunks));
  return std::max(1, gpu.sm_count / concurrent);
}

std::uint64_t auto_chunk_bytes(std::uint64_t message_bytes,
                               const core::CompressionConfig& cfg,
                               const gpu::GpuSpec& gpu, const net::LinkSpec& link) {
  const comp::KernelCostModel model;
  const double ratio = planning_ratio(cfg);
  constexpr int window = kPipelineWindow;
  const int blocks = std::max(1, gpu.sm_count / window);

  // Per-byte slope of each stage, probed at two sizes so per-kernel fixed
  // costs cancel out. GPU stages run up to `window` chunks concurrently on
  // separate streams, so their effective slope is divided by the window.
  const auto probe = [&](auto&& cost_at) {
    constexpr std::uint64_t p = 1ull << 20;
    const double t1 = cost_at(p);
    const double t2 = cost_at(2 * p);
    return std::pair<double, double>{(t2 - t1) / static_cast<double>(p),  // ns/byte
                                     t1 - (t2 - t1)};                     // fixed ns
  };
  std::pair<double, double> comp;
  std::pair<double, double> decomp;
  if (cfg.algorithm == core::Algorithm::ZFP) {
    comp = probe([&](std::uint64_t b) {
      return static_cast<double>(model.zfp_compress(b, cfg.zfp_rate, gpu).count_ns());
    });
    decomp = probe([&](std::uint64_t b) {
      return static_cast<double>(model.zfp_decompress(b, cfg.zfp_rate, gpu).count_ns());
    });
  } else {
    comp = probe([&](std::uint64_t b) {
      const auto out = static_cast<std::uint64_t>(static_cast<double>(b) / ratio);
      return static_cast<double>(model.mpc_compress(b, out, blocks, gpu).count_ns());
    });
    decomp = probe([&](std::uint64_t b) {
      const auto in = static_cast<std::uint64_t>(static_cast<double>(b) / ratio);
      return static_cast<double>(model.mpc_decompress(in, b, blocks, gpu).count_ns());
    });
  }
  const double wire_slope = 1.0 / ratio / link.bandwidth_gbs;  // ns per original byte

  const double s = std::max({wire_slope, comp.first / window, decomp.first / window});

  // Per-chunk fixed overhead: stage intercepts plus the host-side protocol
  // and driver charges every chunk pays (enqueues, readback, progress).
  const gpu::CostModel& c = gpu.costs;
  const double host_ns = static_cast<double>(
      (c.cuda_memset_launch + c.kernel_launch + c.stream_sync + c.gdrcopy_small +
       link.per_message_overhead)
          .count_ns());
  const double overhead = std::max(0.0, comp.second) + std::max(0.0, decomp.second) + host_ns;

  const double c_star =
      std::sqrt(static_cast<double>(message_bytes) * overhead / (2.0 * std::max(s, 1e-9)));
  auto chunk = static_cast<std::uint64_t>(c_star);
  chunk = std::clamp<std::uint64_t>(chunk, kMinChunk, std::max(kMinChunk, message_bytes));
  chunk = std::max(kChunkAlign, (chunk / kChunkAlign) * kChunkAlign);
  return chunk;
}

}  // namespace gcmpi::mpi
