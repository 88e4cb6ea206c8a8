// Dynamic compression selection — the paper's future work (Sec. IX):
// "explore the dynamic design to automatically determine the use of
// compression or selection of different algorithms for specific
// communication calls based on the compression costs and communication
// time".
//
// The selector estimates the MPC compression ratio from a small real
// sample of the message, evaluates the analytical cost model of Sec. II-A
// (eq. 2) for every candidate scheme, and picks the minimum-latency one:
//
//   T' = T_compr + T_oh_compr + S/(CR*B) + T_decompr + T_oh_decompr
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/kernel_cost.hpp"
#include "core/collective.hpp"
#include "core/config.hpp"
#include "gpu/cost_model.hpp"
#include "sim/time.hpp"

namespace gcmpi::core {

using sim::Time;

struct CandidateCost {
  Algorithm algorithm = Algorithm::None;
  int zfp_rate = 0;          // 0 for None/MPC
  double estimated_cr = 1.0;
  Time predicted;            // end-to-end predicted transfer latency
  Time compress;             // the kernel terms of `predicted` (zero for None)
  Time decompress;
};

class DynamicSelector {
 public:
  /// `network_gbs`: bandwidth of the link the message will traverse.
  /// `lossy_allowed`: whether the application tolerates ZFP's fixed-rate
  /// loss for this buffer (AWP at rate 4 does not — Sec. VII-A).
  /// `intra_network_gbs`: bandwidth of the intra-node link, used by the
  /// hierarchical collective pricing to weigh NVLink fan-out against IB
  /// transits; 0 keeps the historical 4x-the-wire approximation.
  DynamicSelector(gpu::GpuSpec gpu, double network_gbs, bool lossy_allowed = true,
                  int min_zfp_rate = 8, double intra_network_gbs = 0.0);

  /// Estimate the MPC ratio by really compressing `sample_values` values
  /// of the message (cheap: default 16K values).
  [[nodiscard]] double estimate_mpc_ratio(std::span<const float> message,
                                          std::size_t sample_values = 16384) const;

  /// Evaluate every candidate for a `message_bytes`-sized device message
  /// whose sampled MPC ratio is `mpc_cr`; sorted best-first.
  [[nodiscard]] std::vector<CandidateCost> evaluate(std::uint64_t message_bytes,
                                                    double mpc_cr) const;

  /// One-call convenience: sample + evaluate + pick.
  [[nodiscard]] CandidateCost choose(std::span<const float> message) const;

  /// Apply a decision onto a config (keeps all other knobs).
  static void apply(const CandidateCost& decision, CompressionConfig& config);

  /// Cost-model companion to core::resolve_collective: price each of
  /// `op`'s candidates for a `bytes`-sized message (per-rank block for
  /// alltoall/allgather/gather/scatter) over `ranks` ranks on a (nodes x
  /// gpus_per_node) topology whose sampled MPC ratio is `mpc_cr`, and
  /// return the fastest (gZCCL-style analysis):
  ///  * allreduce: Linear moves the full vector O(log P) times; the ring
  ///    moves ~2S of compressed shards plus per-hop kernel time; the
  ///    hierarchical variant folds intra-node first, then rings the leaders;
  ///  * alltoall: P-1 serialized full-SM compress launches (naive) against
  ///    one launch round with the SMs divided across the blocks, decodes
  ///    overlapped with the remaining transfers (batched). Below the
  ///    compression floor, or on incompressible data, there are no kernels
  ///    to batch and the naive path wins by default;
  ///  * bcast: log2 P serialized wire transits of the whole message (flat
  ///    binomial tree) against log2 nodes IB transits + the NVLink fan-out;
  ///  * allgather/gather/scatter: P-1 individually compressed blocks against
  ///    node slabs (one compress+decode per node) staged over NVLink;
  ///    scatter is gather with the direction reversed and shares its price.
  [[nodiscard]] CollectiveAlgorithm choose_collective(CollectiveOp op, std::uint64_t bytes,
                                                      int ranks, int nodes, int gpus_per_node,
                                                      double mpc_cr) const;

 private:
  [[nodiscard]] double intra_bps() const;
  /// MPC compress + decompress kernel seconds for one `bytes`-sized hop at
  /// ratio `cr` (quarter-SM partitioned launches, the engines' shape).
  [[nodiscard]] double hop_kernel_secs(double bytes, double cr) const;

  gpu::GpuSpec gpu_;
  double network_gbs_;
  bool lossy_allowed_;
  int min_zfp_rate_;
  double intra_network_gbs_;
  comp::KernelCostModel model_;
};

}  // namespace gcmpi::core
