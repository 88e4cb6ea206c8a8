// Adaptive compression control plane — the core-side policy interface.
//
// The paper's Sec. IX future work asks for compression decisions driven by
// a real-time monitor. src/adapt implements that closed loop; this header
// is the thin seam the rest of the library sees, so gcmpi_core/gcmpi_mpi
// never depend on the adapt library: CompressionManager and the collective
// engines consult an AdaptivePolicy pointer when one is installed (via
// mpi::WorldOptions::adaptive) and behave exactly as before when it is
// null — the control plane is inert by default.
//
// Channel scopes: every consultation (and the telemetry it generates) is
// tagged with the call site it came from, so the controller can keep
// independent per-channel statistics for the serial p2p path, batched
// alltoall launches, pipeline chunks, and the collective engines.
#pragma once

#include <cstdint>

#include "core/collective.hpp"
#include "core/config.hpp"
#include "sim/time.hpp"

namespace gcmpi::core {

inline constexpr const char* kScopeP2P = "p2p";
inline constexpr const char* kScopeBatch = "batch";
inline constexpr const char* kScopeChunk = "chunk";
inline constexpr const char* kScopeAllreduce = "allreduce";
inline constexpr const char* kScopeAlltoall = "alltoall";
inline constexpr const char* kScopeBcast = "bcast";
inline constexpr const char* kScopeAllgather = "allgather";
inline constexpr const char* kScopeGather = "gather";
inline constexpr const char* kScopeScatter = "scatter";

/// One codec decision for one outgoing message (or batch, or chunk).
struct CompressChoice {
  bool use_compression = false;
  Algorithm algorithm = Algorithm::None;
  int zfp_rate = 0;  // meaningful only when algorithm == ZFP
};

/// Closed-loop selection policy consulted before every compression and at
/// the collective engines' algorithm-resolution points. Implemented by
/// adapt::AdaptiveController; the default (no policy installed) keeps the
/// static CompressionConfig / CollectiveTuning behaviour bit-for-bit.
class AdaptivePolicy {
 public:
  virtual ~AdaptivePolicy() = default;

  /// Pick the codec for a `bytes`-sized eligible message on `scope`.
  /// Called only for messages the static gate already qualified
  /// (device-resident, above threshold), so returning use_compression =
  /// false degrades that message to the ordinary raw-bypass path.
  virtual CompressChoice choose_codec(sim::Time now, int rank, const char* scope,
                                      std::uint64_t bytes) = 0;

  /// Resolve the allreduce/reduce-scatter schedule. Must return the SAME
  /// algorithm to every rank of one collective (MPI ranks issue their
  /// collectives in identical order, which implementations use to keep a
  /// per-rank round index into a shared decision sequence).
  virtual CollectiveAlgorithm choose_allreduce(sim::Time now, int rank,
                                               std::uint64_t bytes, int ranks, int nodes,
                                               int gpus_per_node) = 0;

  /// Resolve the alltoall schedule (naive pairwise vs batched one-shot).
  /// Same all-ranks-agree contract as choose_allreduce.
  virtual CollectiveAlgorithm choose_alltoall(sim::Time now, int rank,
                                              std::uint64_t block_bytes, int ranks) = 0;

  /// Resolve the bcast schedule (flat binomial vs hierarchical per-node
  /// staging). Same all-ranks-agree contract as choose_allreduce.
  virtual CollectiveAlgorithm choose_bcast(sim::Time now, int rank, std::uint64_t bytes,
                                           int ranks, int nodes, int gpus_per_node) = 0;

  /// Resolve the allgather schedule (flat ring vs leader ring of node
  /// slabs). Same all-ranks-agree contract.
  virtual CollectiveAlgorithm choose_allgather(sim::Time now, int rank,
                                               std::uint64_t block_bytes, int ranks,
                                               int nodes, int gpus_per_node) = 0;

  /// Resolve the gather schedule (direct-to-root vs leader-staged slabs).
  /// Same all-ranks-agree contract.
  virtual CollectiveAlgorithm choose_gather(sim::Time now, int rank,
                                            std::uint64_t block_bytes, int ranks,
                                            int nodes, int gpus_per_node) = 0;

  /// Resolve the scatter schedule (direct-from-root vs batched node slabs).
  /// Same all-ranks-agree contract.
  virtual CollectiveAlgorithm choose_scatter(sim::Time now, int rank,
                                             std::uint64_t block_bytes, int ranks,
                                             int nodes, int gpus_per_node) = 0;
};

/// Ask `policy` for `op`'s schedule through the matching choose_* override.
inline CollectiveAlgorithm choose_collective(AdaptivePolicy& policy, CollectiveOp op,
                                             sim::Time now, int rank, std::uint64_t bytes,
                                             int ranks, int nodes, int gpus_per_node) {
  switch (op) {
    case CollectiveOp::Allreduce:
      return policy.choose_allreduce(now, rank, bytes, ranks, nodes, gpus_per_node);
    case CollectiveOp::Alltoall:
      return policy.choose_alltoall(now, rank, bytes, ranks);
    case CollectiveOp::Bcast:
      return policy.choose_bcast(now, rank, bytes, ranks, nodes, gpus_per_node);
    case CollectiveOp::Allgather:
      return policy.choose_allgather(now, rank, bytes, ranks, nodes, gpus_per_node);
    case CollectiveOp::Gather:
      return policy.choose_gather(now, rank, bytes, ranks, nodes, gpus_per_node);
    case CollectiveOp::Scatter:
      return policy.choose_scatter(now, rank, bytes, ranks, nodes, gpus_per_node);
  }
  return CollectiveAlgorithm::Linear;
}

}  // namespace gcmpi::core
