#include "core/collective.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace gcmpi::core {

const char* collective_algorithm_name(CollectiveAlgorithm a) {
  switch (a) {
    case CollectiveAlgorithm::Auto: return "auto";
    case CollectiveAlgorithm::Linear: return "linear";
    case CollectiveAlgorithm::Ring: return "ring";
    case CollectiveAlgorithm::Hierarchical: return "hierarchical";
    case CollectiveAlgorithm::BatchedPairwise: return "batched";
  }
  return "?";
}

namespace {

using A = CollectiveAlgorithm;
constexpr A kReduceCandidates[] = {A::Linear, A::Ring, A::Hierarchical};
constexpr A kAlltoallCandidates[] = {A::Linear, A::BatchedPairwise};
constexpr A kStagedCandidates[] = {A::Linear, A::Hierarchical};

// Floors:
//  * allreduce: the ring shards the message across ranks, so it only pays
//    once per-shard chunks are big enough to compress and saturate the
//    wire; on Longhorn at 8 ranks it pulls ahead of the linear schedule
//    between 4 and 8 MiB (bench/fig11_collectives.cpp).
//  * alltoall: one batched launch for all P-1 blocks only pays once the
//    per-destination compression kernels, not the launch overhead being
//    amortized, dominate; measured crossover in bench/ext_alltoall.cpp on
//    Longhorn at 8 ranks.
//  * bcast/allgather/gather/scatter: staging at one representative per node
//    (hier_engine.cpp) beats the flat schedules' lower hop count and launch
//    overhead from 1 MiB messages / 256 KiB blocks.
constexpr CollectiveRow kRows[kCollectiveOps] = {
    {"allreduce", kReduceCandidates, 4ull << 20, 4, false},
    {"alltoall", kAlltoallCandidates, 1ull << 20, 4, false},
    {"bcast", kStagedCandidates, 1ull << 20, 4, true},
    {"allgather", kStagedCandidates, 256ull << 10, 4, true},
    {"gather", kStagedCandidates, 256ull << 10, 4, true},
    {"scatter", kStagedCandidates, 256ull << 10, 4, true},
};

bool two_level(int nodes, int gpus_per_node) { return nodes > 1 && gpus_per_node > 1; }

}  // namespace

const CollectiveRow& collective_row(CollectiveOp op) {
  return kRows[static_cast<std::size_t>(op)];
}

CollectiveAlgorithm admit_collective(CollectiveOp op, CollectiveAlgorithm alg, int nodes,
                                     int gpus_per_node) {
  const CollectiveRow& row = collective_row(op);
  if (std::find(row.candidates.begin(), row.candidates.end(), alg) == row.candidates.end() ||
      (alg == A::Hierarchical && row.flat_on_one_level && !two_level(nodes, gpus_per_node))) {
    return A::Linear;
  }
  return alg;
}

CollectiveAlgorithm resolve_collective(CollectiveOp op, const CollectiveTuning& tuning,
                                       std::uint64_t bytes, int ranks, int nodes,
                                       int gpus_per_node) {
  const CollectiveRow& row = collective_row(op);
  CollectiveAlgorithm alg = tuning[op];
  if (alg == A::Auto) {
    alg = A::Linear;
    if (ranks >= row.min_ranks && bytes >= row.min_bytes) {
      for (auto it = row.candidates.rbegin(); it != row.candidates.rend(); ++it) {
        if (*it != A::Hierarchical || two_level(nodes, gpus_per_node)) {
          alg = *it;
          break;
        }
      }
    }
  }
  return admit_collective(op, alg, nodes, gpus_per_node);
}

BinomialTree binomial_tree(int vrank, int P) {
  BinomialTree tree;
  int mask = 1;
  while (mask < P && (vrank & mask) == 0) mask <<= 1;
  if (vrank != 0) tree.parent = vrank - mask;
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (vrank + mask < P) tree.children.push_back(vrank + mask);
  }
  return tree;
}

namespace {

/// Ring fold for shard `s` over `parts` contributions (each a full-length
/// vector): partial = x[(s+1)%N]; then op(x[(s+k)%N], partial) for k=2..N.
/// Writes the reduced shard into `out`.
void ring_fold_shard(const std::vector<const float*>& parts, std::size_t n, int s,
                     ReduceOp op, float* out) {
  const int N = static_cast<int>(parts.size());
  const auto [lo, hi] = shard_range(n, N, s);
  const std::size_t len = hi - lo;
  if (len == 0) return;
  std::memcpy(out + lo, parts[static_cast<std::size_t>((s + 1) % N)] + lo, len * 4);
  std::vector<float> partial(out + lo, out + hi);
  for (int k = 2; k <= N; ++k) {
    const int j = (s + k) % N;
    std::memcpy(out + lo, parts[static_cast<std::size_t>(j)] + lo, len * 4);
    comp::reduce_inplace(out + lo, partial.data(), len, op);
    partial.assign(out + lo, out + hi);
  }
}

std::vector<float> ring_oracle(const std::vector<const float*>& parts, std::size_t n,
                               ReduceOp op) {
  const int N = static_cast<int>(parts.size());
  std::vector<float> out(n);
  if (N == 1) {
    std::memcpy(out.data(), parts[0], n * 4);
    return out;
  }
  for (int s = 0; s < N; ++s) ring_fold_shard(parts, n, s, op, out.data());
  return out;
}

/// Replay the fixed Rabenseifner fold + recursive-doubling schedule of
/// mpi::Rank::allreduce (the Linear path) on the host.
std::vector<float> linear_oracle(const std::vector<std::vector<float>>& x,
                                 ReduceOp op) {
  const int P = static_cast<int>(x.size());
  const std::size_t n = x[0].size();
  std::vector<std::vector<float>> accum = x;

  int pof2 = 1;
  while (pof2 * 2 <= P) pof2 *= 2;
  const int rem = P - pof2;

  std::vector<int> newrank(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    if (r < 2 * rem) {
      if (r % 2 != 0) {
        newrank[static_cast<std::size_t>(r)] = -1;
      } else {
        comp::reduce_inplace(accum[static_cast<std::size_t>(r)].data(),
                             accum[static_cast<std::size_t>(r + 1)].data(), n, op);
        newrank[static_cast<std::size_t>(r)] = r / 2;
      }
    } else {
      newrank[static_cast<std::size_t>(r)] = r - rem;
    }
  }

  for (int mask = 1; mask < pof2; mask <<= 1) {
    // sendrecv exchanges the pre-step accumulators on both sides.
    const std::vector<std::vector<float>> snapshot = accum;
    for (int r = 0; r < P; ++r) {
      const int nr = newrank[static_cast<std::size_t>(r)];
      if (nr < 0) continue;
      const int peer_new = nr ^ mask;
      const int peer = peer_new < rem ? peer_new * 2 : peer_new + rem;
      comp::reduce_inplace(accum[static_cast<std::size_t>(r)].data(),
                           snapshot[static_cast<std::size_t>(peer)].data(), n, op);
    }
  }

  // Un-fold only copies the result back to folded-away odd ranks; rank 0
  // (always a surviving even rank) already holds the final vector.
  return accum[0];
}

}  // namespace

std::vector<float> allreduce_oracle(const std::vector<std::vector<float>>& contributions,
                                    ReduceOp op, CollectiveAlgorithm algorithm,
                                    int gpus_per_node) {
  assert(!contributions.empty());
  const int P = static_cast<int>(contributions.size());
  const std::size_t n = contributions[0].size();
  if (P == 1 || n == 0) return contributions[0];

  switch (algorithm) {
    case CollectiveAlgorithm::Linear:
      return linear_oracle(contributions, op);
    case CollectiveAlgorithm::Ring: {
      std::vector<const float*> parts;
      parts.reserve(static_cast<std::size_t>(P));
      for (const auto& c : contributions) parts.push_back(c.data());
      return ring_oracle(parts, n, op);
    }
    case CollectiveAlgorithm::Hierarchical: {
      const int gpn = gpus_per_node > 0 ? gpus_per_node : 1;
      const int nodes = (P + gpn - 1) / gpn;
      // Phase 1: leaders fold their members in ascending rank order.
      std::vector<std::vector<float>> partials;
      partials.reserve(static_cast<std::size_t>(nodes));
      for (int node = 0; node < nodes; ++node) {
        const int leader = node * gpn;
        std::vector<float> acc = contributions[static_cast<std::size_t>(leader)];
        for (int m = leader + 1; m < std::min(leader + gpn, P); ++m) {
          comp::reduce_inplace(acc.data(), contributions[static_cast<std::size_t>(m)].data(),
                               n, op);
        }
        partials.push_back(std::move(acc));
      }
      // Phase 2: node partials fold along the leader ring.
      std::vector<const float*> parts;
      parts.reserve(partials.size());
      for (const auto& p : partials) parts.push_back(p.data());
      return ring_oracle(parts, n, op);
    }
    case CollectiveAlgorithm::Auto:
    case CollectiveAlgorithm::BatchedPairwise:
      assert(false && "allreduce_oracle needs a concrete allreduce algorithm");
      break;
  }
  return contributions[0];
}

}  // namespace gcmpi::core
