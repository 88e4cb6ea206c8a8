// Collective algorithm selection and the canonical-order reduction oracle.
//
// Determinism contract (pinned by tests/test_determinism.cpp): every
// allreduce algorithm reduces in a *canonical fold order* that is a pure
// function of (algorithm, ranks, topology) — never of message delivery
// timing. The fold always uses comp::reduce_inplace with the accumulator
// as the first operand (see compress/reduce.hpp), and `allreduce_oracle`
// replays the exact order on the host, so with lossless codecs the engine
// must reproduce the oracle bit-for-bit.
//
// Canonical orders:
//   Linear       — Rabenseifner fold + recursive doubling, the fixed
//                  schedule in src/mpi/collectives.cpp.
//   Ring         — shard s is folded along the ring rotation: starting
//                  from rank s+1's contribution, each next rank j applies
//                  op(x_j, partial); rank s finishes its own shard.
//   Hierarchical — each node leader folds its members in ascending rank
//                  order, then node partials fold along the leader ring.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "compress/reduce.hpp"

namespace gcmpi::core {

using comp::ReduceOp;
using comp::reduce_op_name;

enum class CollectiveAlgorithm : std::uint8_t {
  Auto,
  Linear,
  Ring,
  Hierarchical,
  // Alltoall only: compress all P-1 outgoing blocks in ONE batched kernel
  // launch, then exchange slab slices over the scattered pairwise schedule
  // (see src/mpi/alltoall_engine.cpp).
  BatchedPairwise,
};

[[nodiscard]] const char* collective_algorithm_name(CollectiveAlgorithm a);

/// The collectives whose schedule is selected. reduce_scatter asks as
/// Allreduce: it shares allreduce's decision and history.
enum class CollectiveOp : std::uint8_t {
  Allreduce,
  Alltoall,
  Bcast,
  Allgather,
  Gather,
  Scatter,
};
inline constexpr std::size_t kCollectiveOps = 6;

/// One op's selection constants, read by every selection layer: the static
/// policy (resolve_collective), the cost model
/// (DynamicSelector::choose_collective), the adaptive controller and the
/// engines (mpi::Rank::select_collective).
struct CollectiveRow {
  const char* name;  // decision scope and adaptive History key
  // Linear (the flat schedule) first, then the staged/sharded ones in the
  // order the adaptive refinement tries them.
  std::span<const CollectiveAlgorithm> candidates;
  // Auto floors: below either one Linear runs. Bytes are the whole message
  // for allreduce and bcast, the per-rank block for the others.
  std::uint64_t min_bytes;
  int min_ranks;
  // A Hierarchical answer on a one-level topology (one node, or one GPU per
  // node) runs Linear: there is no second level to stage on. Allreduce's
  // engine runs it as a leader ring instead.
  bool flat_on_one_level;
};

[[nodiscard]] const CollectiveRow& collective_row(CollectiveOp op);

/// The forced algorithm per op, surfaced through
/// mpi::WorldOptions::collectives. Auto selects by the row's floors (or the
/// adaptive controller when one is installed); anything else is forced.
struct CollectiveTuning {
  std::array<CollectiveAlgorithm, kCollectiveOps> forced{};  // all Auto

  CollectiveAlgorithm& operator[](CollectiveOp op) {
    return forced[static_cast<std::size_t>(op)];
  }
  CollectiveAlgorithm operator[](CollectiveOp op) const {
    return forced[static_cast<std::size_t>(op)];
  }
};

/// The admission rule every answer passes, forced, Auto or adaptive: an
/// algorithm that is not among the op's candidates runs Linear, and so does
/// Hierarchical on a one-level topology where the row says so.
[[nodiscard]] CollectiveAlgorithm admit_collective(CollectiveOp op, CollectiveAlgorithm alg,
                                                   int nodes, int gpus_per_node);

/// The static policy for a `bytes`-sized `op` over `ranks` ranks on a
/// (nodes x gpus_per_node) cluster: the forced algorithm, or under Auto
/// Linear below the row's floors and above them the last candidate the
/// topology can stage; then admit_collective.
[[nodiscard]] CollectiveAlgorithm resolve_collective(CollectiveOp op,
                                                     const CollectiveTuning& tuning,
                                                     std::uint64_t bytes, int ranks, int nodes,
                                                     int gpus_per_node);

/// Contiguous shard of an n-element vector split across P ranks:
/// [first, second) for shard s, balanced to within one element.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                                     int P,
                                                                     int s) {
  const auto p = static_cast<std::size_t>(P);
  const auto i = static_cast<std::size_t>(s);
  return {n * i / p, n * (i + 1) / p};
}

/// One vrank's place in the binomial tree over P vranks rooted at vrank 0
/// (MPICH's bcast/reduce tree). The parent is vrank minus its lowest set
/// bit, -1 at the root. Children are vrank + 2^k for each 2^k below that
/// bit, largest first: the order a broadcast posts them. A reduction folds
/// them in reverse, nearest first.
struct BinomialTree {
  int parent = -1;
  std::vector<int> children;
};
[[nodiscard]] BinomialTree binomial_tree(int vrank, int P);

/// Host-side replay of the canonical fold order: given every rank's
/// contribution, compute the allreduce result `algorithm` must produce.
/// `algorithm` must be concrete (not Auto); `gpus_per_node` shapes the
/// Hierarchical fold and is ignored otherwise.
[[nodiscard]] std::vector<float> allreduce_oracle(
    const std::vector<std::vector<float>>& contributions, ReduceOp op,
    CollectiveAlgorithm algorithm, int gpus_per_node = 1);

}  // namespace gcmpi::core
