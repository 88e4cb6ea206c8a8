// Dynamic per-message scheme selection (the paper's Sec. IX future work):
// the selector must rank candidates by the Sec. II-A cost model and make
// the qualitatively right calls on known data/link combinations. The
// collective-selection pins hash every static-policy and cost-model
// collective answer over a size x rank x topology grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "compress/mpc.hpp"
#include "core/dynamic.hpp"
#include "data/datasets.hpp"
#include "gpu/device.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi;
namespace tsup = gcmpi::testing;
using core::Algorithm;
using core::CollectiveAlgorithm;
using core::CollectiveOp;
using core::DynamicSelector;

TEST(DynamicSelector, EstimatesRatioFromSample) {
  DynamicSelector sel(gpu::v100_spec(), 12.5);
  const auto sppm = data::generate("msg_sppm", 1 << 16);
  const auto plasma = data::generate("num_plasma", 1 << 16);
  EXPECT_GT(sel.estimate_mpc_ratio(sppm), 5.0);
  EXPECT_LT(sel.estimate_mpc_ratio(plasma), 2.0);
}

TEST(DynamicSelector, TinySampleDefaultsToNoRatio) {
  DynamicSelector sel(gpu::v100_spec(), 12.5);
  std::vector<float> tiny(8, 1.0f);
  EXPECT_DOUBLE_EQ(sel.estimate_mpc_ratio(tiny), 1.0);
}

TEST(DynamicSelector, EvaluateIsSortedBestFirst) {
  DynamicSelector sel(gpu::v100_spec(), 12.5);
  const auto candidates = sel.evaluate(16ull << 20, 1.4);
  ASSERT_GE(candidates.size(), 4u);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_LE(candidates[i - 1].predicted, candidates[i].predicted);
  }
}

TEST(DynamicSelector, PrefersNoCompressionOnNvlink) {
  // 75 GB/s: the wire beats any codec pipeline for MPC-class ratios.
  DynamicSelector sel(gpu::v100_spec(), 75.0);
  const auto best = sel.evaluate(8ull << 20, 1.5).front();
  EXPECT_EQ(best.algorithm, Algorithm::None);
}

TEST(DynamicSelector, PrefersMpcOnHighlyCompressibleSlowLink) {
  DynamicSelector sel(gpu::v100_spec(), 6.8, /*lossy_allowed=*/false);
  const auto best = sel.evaluate(16ull << 20, 20.0).front();
  EXPECT_EQ(best.algorithm, Algorithm::MPC);
}

TEST(DynamicSelector, PrefersZfpOnLowRatioData) {
  DynamicSelector sel(gpu::v100_spec(), 12.5, /*lossy_allowed=*/true, /*min_zfp_rate=*/4);
  const auto best = sel.evaluate(16ull << 20, 1.2).front();
  EXPECT_EQ(best.algorithm, Algorithm::ZFP);
  EXPECT_EQ(best.zfp_rate, 4);  // lowest allowed rate wins on latency
}

TEST(DynamicSelector, LossyConstraintExcludesZfp) {
  DynamicSelector sel(gpu::v100_spec(), 12.5, /*lossy_allowed=*/false);
  for (const auto& c : sel.evaluate(8ull << 20, 1.4)) {
    EXPECT_NE(c.algorithm, Algorithm::ZFP);
  }
}

TEST(DynamicSelector, MinRateConstraintRespected) {
  DynamicSelector sel(gpu::v100_spec(), 12.5, true, /*min_zfp_rate=*/8);
  for (const auto& c : sel.evaluate(8ull << 20, 1.4)) {
    if (c.algorithm == Algorithm::ZFP) {
      EXPECT_GE(c.zfp_rate, 8);
    }
  }
}

TEST(DynamicSelector, ApplyWritesConfig) {
  core::CompressionConfig cfg = core::CompressionConfig::mpc_opt();
  core::CandidateCost zfp{Algorithm::ZFP, 8, 4.0, sim::Time::us(10), {}, {}};
  DynamicSelector::apply(zfp, cfg);
  EXPECT_EQ(cfg.algorithm, Algorithm::ZFP);
  EXPECT_EQ(cfg.zfp_rate, 8);

  core::CandidateCost none{Algorithm::None, 0, 1.0, sim::Time::us(10), {}, {}};
  DynamicSelector::apply(none, cfg);
  EXPECT_EQ(cfg.algorithm, Algorithm::None);
}

TEST(DynamicSelectorProperty, ChooseNeverPicksLossyWhenLossyDisallowed) {
  // Property: with lossy_allowed=false, neither choose() nor any candidate
  // evaluate() emits may be ZFP (the only lossy scheme the selector knows),
  // regardless of payload shape, message size, or link bandwidth.
  sim::Rng rng(tsup::test_seed() ^ 0xd15aULL);
  const double bandwidths[] = {1.0, 6.8, 12.5, 25.0, 75.0, 300.0};
  for (int c = 0; c < 60; ++c) {
    const auto pc = tsup::draw_case(rng, 1 << 16, /*finite_only=*/true);
    const auto payload = tsup::make_floats(pc.kind, pc.n, pc.seed);
    const double gbs = bandwidths[rng.next_below(6)];
    DynamicSelector sel(gpu::v100_spec(), gbs, /*lossy_allowed=*/false);
    const auto choice = sel.choose(payload);
    EXPECT_NE(choice.algorithm, Algorithm::ZFP)
        << "lossy pick for kind=" << static_cast<int>(pc.kind) << " n=" << pc.n
        << " seed=" << pc.seed << " gbs=" << gbs;
    const std::uint64_t bytes = std::max<std::uint64_t>(payload.size() * 4, 1);
    for (const auto& cand : sel.evaluate(bytes, 1.4)) {
      EXPECT_NE(cand.algorithm, Algorithm::ZFP)
          << "lossy candidate surfaced at bytes=" << bytes << " gbs=" << gbs;
    }
  }
}

TEST(DynamicSelectorProperty, ConstantBufferEstimateLowerBoundsFullRatio) {
  // Property: on a constant buffer MPC compresses every chunk identically,
  // so the sampled-prefix estimate must track the true full-buffer ratio —
  // never undershooting its lower bound (15% slack for the per-buffer
  // header amortization difference between sample and full sizes).
  sim::Rng rng(tsup::test_seed() ^ 0xc057ULL);
  DynamicSelector sel(gpu::v100_spec(), 12.5);
  const float constants[] = {0.0f, 1.0f, -2.75f, 3.14159e7f, 1.0e-38f, -6.25e-3f};
  for (int c = 0; c < 24; ++c) {
    const std::size_t n = 16384 + rng.next_below(1u << 18);
    const std::vector<float> buf(n, constants[rng.next_below(6)]);
    const double est = sel.estimate_mpc_ratio(buf);
    const comp::MpcCodec codec(1);
    std::vector<std::uint8_t> out(codec.max_compressed_bytes(n));
    const std::size_t full_bytes = codec.compress(buf, out);
    const double full = static_cast<double>(n * 4) / static_cast<double>(full_bytes);
    EXPECT_GE(est, full * 0.85)
        << "estimate " << est << " undershoots full ratio " << full << " at n=" << n
        << " value=" << buf[0];
    EXPECT_GT(est, 1.0) << "constant data must be seen as compressible, n=" << n;
  }
}

TEST(DynamicSelector, ChooseEndToEnd) {
  DynamicSelector sel(gpu::v100_spec(), 12.5, true, 8);
  const auto sppm = data::generate("msg_sppm", (8u << 20) / 4);
  const auto choice = sel.choose(sppm);
  // CR ~9-11 lossless vs CR 4 lossy at rate 8: MPC should win or at least
  // compression must be on.
  EXPECT_NE(choice.algorithm, Algorithm::None);
}

// --- collective selection pins ---
//
// Every static-policy and cost-model collective answer across a grid of
// sizes (each side of every byte floor), rank counts and topologies,
// hashed into one digest. A refactor of the selection layers must keep
// every cell: a moved decision changes the digest.

struct PinRow {
  CollectiveOp op;
  const char* name;
  std::vector<CollectiveAlgorithm> forced;  // Auto plus the op's own candidates
};

const std::vector<PinRow>& pin_rows() {
  using A = CollectiveAlgorithm;
  static const std::vector<PinRow> rows = {
      {CollectiveOp::Allreduce, "allreduce", {A::Auto, A::Linear, A::Ring, A::Hierarchical}},
      {CollectiveOp::Alltoall, "alltoall", {A::Auto, A::Linear, A::BatchedPairwise}},
      {CollectiveOp::Bcast, "bcast", {A::Auto, A::Linear, A::Hierarchical}},
      {CollectiveOp::Allgather, "allgather", {A::Auto, A::Linear, A::Hierarchical}},
      {CollectiveOp::Gather, "gather", {A::Auto, A::Linear, A::Hierarchical}},
      {CollectiveOp::Scatter, "scatter", {A::Auto, A::Linear, A::Hierarchical}},
  };
  return rows;
}

/// (nodes, gpus_per_node) for 1xP, Px1, 2xP/2 and 4xP/4, where P divides.
std::vector<std::pair<int, int>> pin_topologies(int P) {
  std::vector<std::pair<int, int>> out = {{1, P}, {P, 1}};
  if (P % 2 == 0) out.emplace_back(2, P / 2);
  if (P % 4 == 0) out.emplace_back(4, P / 4);
  return out;
}

const std::vector<std::uint64_t>& pin_sizes() {
  static const std::vector<std::uint64_t> sizes = {
      0,         4u << 10,  (256u << 10) - 1, 256u << 10, (1u << 20) - 1,
      1u << 20, (4u << 20) - 1, 4u << 20,     64ull << 20};
  return sizes;
}

constexpr int kPinRanks[] = {2, 3, 4, 8, 16};

std::string digest_of(const std::string& log) {
  return gcmpi::testing::sha256_hex(
      {reinterpret_cast<const std::uint8_t*>(log.data()), log.size()});
}

TEST(CollectiveSelectionPin, StaticPolicyDecisionsArePinned) {
  std::ostringstream log;
  std::size_t cells = 0;
  for (const PinRow& row : pin_rows()) {
    for (const std::uint64_t bytes : pin_sizes()) {
      for (const int P : kPinRanks) {
        for (const auto& [nodes, gpn] : pin_topologies(P)) {
          for (const CollectiveAlgorithm forced : row.forced) {
            core::CollectiveTuning t;
            t[row.op] = forced;
            const auto got = core::resolve_collective(row.op, t, bytes, P, nodes, gpn);
            log << row.name << ' ' << bytes << ' ' << nodes << 'x' << gpn << ' '
                << core::collective_algorithm_name(forced) << " -> "
                << core::collective_algorithm_name(got) << '\n';
            ++cells;
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 2907u);
  EXPECT_EQ(digest_of(log.str()),
            "47ca4e2d7f4ebba39881a8c08088e9579516c7c3a00b6076e42343dfb953eae4");
}

TEST(CollectiveSelectionPin, CostModelDecisionsArePinned) {
  std::ostringstream log;
  std::size_t cells = 0;
  for (const double intra_gbs : {0.0, 50.0}) {
    const DynamicSelector sel(gpu::v100_spec(), 12.5, true, 8, intra_gbs);
    for (const double cr : {1.0, 2.0, 4.0, 11.3}) {
      for (const PinRow& row : pin_rows()) {
        for (const std::uint64_t bytes : pin_sizes()) {
          for (const int P : kPinRanks) {
            for (const auto& [nodes, gpn] : pin_topologies(P)) {
              const auto got = sel.choose_collective(row.op, bytes, P, nodes, gpn, cr);
              log << intra_gbs << ' ' << cr << ' ' << row.name << ' ' << bytes << ' '
                  << nodes << 'x' << gpn << " -> " << core::collective_algorithm_name(got)
                  << '\n';
              ++cells;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cells, 7344u);
  EXPECT_EQ(digest_of(log.str()),
            "df4714a05ce5f8e57217c42ce6f92c791010c40ccc03576a07f0392c6c78e293");
}

// --- selection tables: the floors, the topology guard and the cost model ---

std::string describe(CollectiveOp op, CollectiveAlgorithm forced, std::uint64_t bytes,
                     int nodes, int gpn) {
  std::ostringstream os;
  os << core::collective_row(op).name << " forced=" << core::collective_algorithm_name(forced)
     << " bytes=" << bytes << " topo=" << nodes << 'x' << gpn;
  return os.str();
}

TEST(CollectiveSelection, StaticPolicyHonorsFloorsAndTopology) {
  using A = CollectiveAlgorithm;
  using O = CollectiveOp;
  constexpr std::uint64_t KiB = 1024, MiB = 1024 * KiB;
  struct Case {
    O op;
    A forced;
    std::uint64_t bytes;
    int nodes, gpn;
    A want;
  };
  const Case cases[] = {
      // Allreduce (4 MiB, 4 ranks): Linear below either floor, the ring
      // above them, the leader ring on a two-level topology.
      {O::Allreduce, A::Auto, 16 * MiB, 2, 1, A::Linear},
      {O::Allreduce, A::Auto, 1 * MiB, 8, 1, A::Linear},
      {O::Allreduce, A::Auto, 16 * MiB, 8, 1, A::Ring},
      {O::Allreduce, A::Auto, 16 * MiB, 4, 2, A::Hierarchical},
      {O::Allreduce, A::Linear, 16 * MiB, 4, 2, A::Linear},
      // Alltoall (1 MiB blocks, 4 ranks); forcing overrides the floors in
      // both directions.
      {O::Alltoall, A::Auto, 512 * KiB, 8, 1, A::Linear},
      {O::Alltoall, A::Auto, 4 * MiB, 2, 1, A::Linear},
      {O::Alltoall, A::Auto, 1 * MiB, 4, 1, A::BatchedPairwise},
      {O::Alltoall, A::BatchedPairwise, 4 * KiB, 2, 1, A::BatchedPairwise},
      {O::Alltoall, A::Linear, 16 * MiB, 8, 1, A::Linear},
      // Moving collectives (1 MiB bcast, 256 KiB blocks, 4 ranks): below the
      // floor flat, at or above it hierarchical, but only on a genuinely
      // two-level topology.
      {O::Bcast, A::Auto, 512 * KiB, 4, 2, A::Linear},
      {O::Bcast, A::Auto, 1 * MiB, 4, 2, A::Hierarchical},
      {O::Bcast, A::Auto, 16 * MiB, 8, 1, A::Linear},
      {O::Bcast, A::Auto, 16 * MiB, 1, 8, A::Linear},
      {O::Allgather, A::Auto, 128 * KiB, 4, 2, A::Linear},
      {O::Allgather, A::Auto, 256 * KiB, 4, 2, A::Hierarchical},
      {O::Gather, A::Auto, 256 * KiB, 4, 2, A::Hierarchical},
      {O::Scatter, A::Auto, 256 * KiB, 4, 2, A::Hierarchical},
      // Too few ranks for the staging to pay off.
      {O::Bcast, A::Auto, 16 * MiB, 2, 1, A::Linear},
      // Forcing overrides the floors, except on degenerate topologies, where
      // Hierarchical resolves to Linear (no second level to stage on).
      {O::Bcast, A::Hierarchical, 4 * KiB, 4, 2, A::Hierarchical},
      {O::Bcast, A::Hierarchical, 4 * KiB, 8, 1, A::Linear},
      {O::Gather, A::Hierarchical, 4 * KiB, 1, 8, A::Linear},
  };
  for (const Case& c : cases) {
    core::CollectiveTuning t;
    t[c.op] = c.forced;
    EXPECT_EQ(core::resolve_collective(c.op, t, c.bytes, c.nodes * c.gpn, c.nodes, c.gpn),
              c.want)
        << describe(c.op, c.forced, c.bytes, c.nodes, c.gpn);
  }
}

TEST(CollectiveSelection, CostModelPricesEveryOp) {
  using A = CollectiveAlgorithm;
  using O = CollectiveOp;
  constexpr std::uint64_t KiB = 1024, MiB = 1024 * KiB;
  struct Case {
    O op;
    std::uint64_t bytes;
    int ranks, nodes, gpn;
    double mpc_cr;
    A want;
  };
  const Case cases[] = {
      // Large compressible vectors favour the ring; tiny ones stay linear.
      {O::Allreduce, 8 * MiB, 8, 8, 1, 4.0, A::Ring},
      {O::Allreduce, 4 * KiB, 2, 2, 1, 1.0, A::Linear},
      // Alltoall: below 256 KiB blocks the launch amortization cannot pay
      // for itself; incompressible data and trivial worlds also stay naive.
      {O::Alltoall, 128 * KiB, 8, 8, 1, 8.0, A::Linear},
      {O::Alltoall, 8 * MiB, 8, 8, 1, 1.0, A::Linear},
      {O::Alltoall, 8 * MiB, 2, 2, 1, 8.0, A::Linear},
      // NVLink intra at 4x the IB wire rate (the default multiplier):
      // staging at node leaders wins for large messages on a 4x4 cluster
      // but can never be chosen on a flat one.
      {O::Bcast, 16 * MiB, 16, 4, 4, 2.0, A::Hierarchical},
      {O::Bcast, 16 * MiB, 16, 16, 1, 2.0, A::Linear},
      {O::Bcast, 16 * MiB, 16, 1, 16, 2.0, A::Linear},
      {O::Allgather, 4 * MiB, 16, 4, 4, 2.0, A::Hierarchical},
      {O::Gather, 4 * MiB, 16, 4, 4, 2.0, A::Hierarchical},
  };
  const DynamicSelector sel(gpu::v100_spec(), 12.5);
  for (const Case& c : cases) {
    EXPECT_EQ(sel.choose_collective(c.op, c.bytes, c.ranks, c.nodes, c.gpn, c.mpc_cr), c.want)
        << describe(c.op, A::Auto, c.bytes, c.nodes, c.gpn) << " cr=" << c.mpc_cr;
  }
  // Scatter mirrors gather by construction.
  EXPECT_EQ(sel.choose_collective(O::Scatter, 4 * MiB, 16, 4, 4, 2.0),
            sel.choose_collective(O::Gather, 4 * MiB, 16, 4, 4, 2.0));
}

TEST(DynamicSelector, AlltoallCrossoverMonotoneInBlockSize) {
  // Once the cost model prefers the batched engine at some block size, it
  // must keep preferring it for every larger block (the per-launch savings
  // only grow): exactly one Linear -> BatchedPairwise transition.
  const DynamicSelector sel(gpu::v100_spec(), 12.5);
  bool batched_seen = false;
  bool crossed_back = false;
  for (std::uint64_t bytes = 64u << 10; bytes <= (64ull << 20); bytes *= 2) {
    const auto got = sel.choose_collective(CollectiveOp::Alltoall, bytes, 8, 8, 1, 4.0);
    if (got == CollectiveAlgorithm::BatchedPairwise) {
      batched_seen = true;
    } else if (batched_seen) {
      crossed_back = true;
    }
  }
  EXPECT_TRUE(batched_seen) << "batched never chosen up to 64 MiB blocks";
  EXPECT_FALSE(crossed_back) << "choice flipped back to naive at a larger block";
}

TEST(DynamicSelector, AlltoallCrossoverMonotoneInRanks) {
  // More destinations means more serialized launches saved: once batched
  // wins at some P it must keep winning for every larger P.
  const DynamicSelector sel(gpu::v100_spec(), 12.5);
  bool batched_seen = false;
  bool crossed_back = false;
  for (int ranks = 2; ranks <= 64; ++ranks) {
    const auto got = sel.choose_collective(CollectiveOp::Alltoall, 4u << 20, ranks, ranks, 1,
                                           4.0);
    if (got == CollectiveAlgorithm::BatchedPairwise) {
      batched_seen = true;
    } else if (batched_seen) {
      crossed_back = true;
    }
  }
  EXPECT_TRUE(batched_seen) << "batched never chosen up to 64 ranks";
  EXPECT_FALSE(crossed_back) << "choice flipped back to naive at a larger P";
}

}  // namespace
