// Exhaustive collective conformance matrix: allreduce/reduce_scatter swept
// over op x message size x rank count x codec x pipeline x algorithm,
// validated against the host-side canonical-order oracle
// (core::allreduce_oracle). Lossless codecs (raw, MPC) must reproduce the
// oracle BIT-exactly; ZFP is lossy per hop, so ring results are compared
// within a P-scaled tolerance of the oracle on smooth payloads.
//
// The FPC codec is double-precision and has no manager-level wire
// algorithm, so its fused-reduce conformance lives at the codec level in
// tests/test_fuzz_reduce.cpp.
//
// The full cross product would be ~1800 worlds; this suite runs a curated
// ~90-world cover: every dimension is swept fully against a fixed setting
// of the others, plus the interesting interactions (multi-chunk pipeline,
// Auto selection crossover). Labeled `collectives` in ctest (see
// tests/CMakeLists.txt); CI runs `ctest -L collectives` as its own step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/collective.hpp"
#include "fault/injector.hpp"
#include "gpu/cost_model.hpp"
#include "mpi/world.hpp"
#include "support/payloads.hpp"

namespace {

using namespace gcmpi;
using core::CollectiveAlgorithm;
using core::CollectiveOp;
using gcmpi::testing::make_floats;
using gcmpi::testing::PayloadKind;
using mpi::Rank;
using mpi::ReduceOp;
using mpi::World;

enum class Codec { Raw, Mpc, Zfp };

/// memcmp equality that also accepts the null data() of empty outputs.
bool bits_equal(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

struct MatrixCase {
  int nodes = 2;
  int gpus_per_node = 1;
  std::size_t n = 1024;         // floats per rank
  ReduceOp op = ReduceOp::Sum;
  Codec codec = Codec::Raw;
  CollectiveAlgorithm algorithm = CollectiveAlgorithm::Ring;
  bool pipeline = false;
};

std::string describe(const MatrixCase& c) {
  std::string s = "P=" + std::to_string(c.nodes * c.gpus_per_node) + "(" +
                  std::to_string(c.nodes) + "x" + std::to_string(c.gpus_per_node) +
                  ") n=" + std::to_string(c.n) + " op=" + core::reduce_op_name(c.op) +
                  " codec=";
  s += c.codec == Codec::Raw ? "raw" : c.codec == Codec::Mpc ? "mpc" : "zfp";
  s += std::string(" algo=") + core::collective_algorithm_name(c.algorithm);
  if (c.pipeline) s += " pipeline";
  return s;
}

core::CompressionConfig config_for(const MatrixCase& c) {
  core::CompressionConfig cfg;
  switch (c.codec) {
    case Codec::Raw: cfg = core::CompressionConfig::off(); break;
    case Codec::Mpc: cfg = core::CompressionConfig::mpc_opt(); break;
    case Codec::Zfp: cfg = core::CompressionConfig::zfp_opt(16); break;
  }
  // Ring shards are n/P-sized: lower the threshold so moderate matrix
  // sizes actually exercise the compressed hop path.
  cfg.threshold_bytes = 4 * 1024;
  return cfg;
}

/// Per-rank contribution: deterministic in (rank, size). SmoothField keeps
/// ZFP's per-hop error small and makes float summation association-
/// sensitive, so any non-canonical fold order diverges bit-wise.
std::vector<float> contribution(int rank, std::size_t n) {
  return make_floats(PayloadKind::SmoothField, n,
                     0x5EEDu + static_cast<std::uint64_t>(rank));
}

struct RunResult {
  std::vector<std::vector<float>> outputs;  // per-rank allreduce result
  bool used_engine = false;                 // any CollectiveRecord emitted?
};

RunResult run_allreduce(const MatrixCase& c) {
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.collectives[CollectiveOp::Allreduce] = c.algorithm;
  opts.pipeline.enabled = c.pipeline;
  opts.pipeline.min_bytes = 256 * 1024;
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node), config_for(c), opts);
  const int P = world.size();

  RunResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    const auto mine = contribution(R.rank(), c.n);
    auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4 + 4));
    std::copy(mine.begin(), mine.end(), dev);
    std::vector<float>& out = res.outputs[static_cast<std::size_t>(R.rank())];
    out.resize(c.n);
    R.allreduce(dev, out.data(), c.n, c.op);
    R.gpu_free(dev);
  });
  res.used_engine = !telemetry.collectives().empty();
  return res;
}

class CollectiveMatrix : public ::testing::Test {
 protected:
  void check(const MatrixCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_allreduce(c);

    // Resolve what the world actually ran (Auto goes through the same
    // policy function the dispatcher uses).
    core::CollectiveTuning tuning;
    tuning[CollectiveOp::Allreduce] = c.algorithm;
    const auto resolved = core::resolve_collective(CollectiveOp::Allreduce, tuning, c.n * 4,
                                                   P, c.nodes, c.gpus_per_node);

    std::vector<std::vector<float>> contribs;
    for (int r = 0; r < P; ++r) contribs.push_back(contribution(r, c.n));
    const auto oracle =
        core::allreduce_oracle(contribs, c.op, resolved, c.gpus_per_node);

    for (int r = 0; r < P; ++r) {
      const auto& got = res.outputs[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), oracle.size()) << describe(c);
      if (c.codec != Codec::Zfp) {
        ASSERT_TRUE(bits_equal(got.data(), oracle.data(), c.n * 4))
            << describe(c) << " rank " << r << ": engine diverged from the oracle";
      } else {
        // ZFP is lossy per hop; errors accumulate over O(P) hops. Smooth
        // payloads at rate 16 stay well within this envelope.
        for (std::size_t i = 0; i < c.n; ++i) {
          ASSERT_NEAR(got[i], oracle[i], 0.05 * static_cast<double>(P))
              << describe(c) << " rank " << r << " index " << i;
        }
      }
    }

    // With lossless codecs every rank must agree bit-wise with rank 0: the
    // allgather phase forwards one wire form per shard. ZFP is exempt — the
    // shard owner keeps its exact reduced values while the other ranks hold
    // the lossy decode of the forwarded wire form.
    for (int r = 1; c.codec != Codec::Zfp && r < P; ++r) {
      ASSERT_TRUE(bits_equal(res.outputs[0].data(),
                             res.outputs[static_cast<std::size_t>(r)].data(), c.n * 4))
          << describe(c) << ": ranks 0 and " << r << " disagree";
    }

    // Telemetry cross-check: engine algorithms emit CollectiveRecords, the
    // legacy linear path stays silent (dump compatibility).
    if (P > 1 && c.n > 0) {
      EXPECT_EQ(res.used_engine, resolved != CollectiveAlgorithm::Linear)
          << describe(c);
    }
  }
};

// --- dimension sweeps (each against a fixed default of the others) ---

TEST_F(CollectiveMatrix, OpsSweep) {
  for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min}) {
    for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
                      CollectiveAlgorithm::Hierarchical}) {
      MatrixCase c;
      c.nodes = 4;
      c.gpus_per_node = 2;
      c.n = 16411;  // odd, 64KiB-unaligned
      c.op = op;
      c.codec = Codec::Mpc;
      c.algorithm = algo;
      check(c);
    }
  }
}

TEST_F(CollectiveMatrix, SizeAndRankSweep) {
  const std::size_t sizes[] = {0, 1, 7, 16411};
  const std::pair<int, int> topos[] = {{1, 1}, {2, 1}, {3, 1}, {4, 2}, {3, 2}};
  for (std::size_t n : sizes) {
    for (auto [nodes, gpn] : topos) {
      for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
                        CollectiveAlgorithm::Hierarchical}) {
        MatrixCase c;
        c.nodes = nodes;
        c.gpus_per_node = gpn;
        c.n = n;
        c.codec = Codec::Mpc;
        c.algorithm = algo;
        check(c);
      }
    }
  }
}

TEST_F(CollectiveMatrix, CodecSweep) {
  // The 2-rank case has ring shards just over 2 MiB, so the fused
  // decode-reduce scratch and the shard buffers are huge-page mapped.
  struct Shape {
    int nodes, gpus_per_node;
    std::size_t n;
  };
  for (const Shape shape : {Shape{4, 2, 16411}, Shape{2, 1, (std::size_t{1} << 20) + 7}}) {
    for (Codec codec : {Codec::Raw, Codec::Mpc, Codec::Zfp}) {
      for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
                        CollectiveAlgorithm::Hierarchical}) {
        MatrixCase c;
        c.nodes = shape.nodes;
        c.gpus_per_node = shape.gpus_per_node;
        c.n = shape.n;
        c.codec = codec;
        c.algorithm = algo;
        if (codec == Codec::Zfp && algo == CollectiveAlgorithm::Linear) {
          // The linear path moves host accumulators (never compressed), so
          // ZFP-vs-oracle equality is trivially exact there.
          continue;
        }
        check(c);
      }
    }
  }
}

TEST_F(CollectiveMatrix, PipelineOnMultiChunk) {
  // Multi-chunk sizes with the PR-4 pipeline enabled: the ring engine's
  // wire hops coexist with pipelined point-to-point traffic inside the
  // same world options.
  for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
                    CollectiveAlgorithm::Hierarchical}) {
    MatrixCase c;
    c.nodes = 2;
    c.gpus_per_node = 2;
    c.n = 300000;  // ~1.2 MB: multiple pipeline chunks on the linear path
    c.codec = Codec::Mpc;
    c.algorithm = algo;
    c.pipeline = true;
    check(c);
  }
}

TEST_F(CollectiveMatrix, AutoSelectionCrossover) {
  // Auto must route small vectors to Linear and large ones (>= the 4 MiB
  // ring floor: the last size is 2^21 floats = 8 MiB) to the engine;
  // conformance holds on both sides of the threshold.
  for (std::size_t n : {std::size_t{1}, std::size_t{16411}, std::size_t{1} << 21}) {
    MatrixCase c;
    c.nodes = 4;
    c.gpus_per_node = 2;
    c.n = n;
    c.codec = Codec::Mpc;
    c.algorithm = CollectiveAlgorithm::Auto;
    check(c);
  }
}

// --- reduce_scatter conformance ---

TEST(ReduceScatterMatrix, RingMatchesOracleShards) {
  const std::pair<int, int> topos[] = {{4, 2}, {3, 1}};
  const std::size_t counts[] = {0, 1, 521};
  for (auto [nodes, gpn] : topos) {
    for (std::size_t recvcount : counts) {
      for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max}) {
        const int P = nodes * gpn;
        const std::size_t n = recvcount * static_cast<std::size_t>(P);
        sim::Engine engine;
        mpi::WorldOptions opts;
        opts.collectives[CollectiveOp::Allreduce] = CollectiveAlgorithm::Ring;
        World world(engine, net::longhorn(nodes, gpn),
                    core::CompressionConfig::mpc_opt(), opts);

        std::vector<std::vector<float>> outputs(static_cast<std::size_t>(P));
        world.run([&](Rank& R) {
          const auto mine = contribution(R.rank(), n);
          auto& out = outputs[static_cast<std::size_t>(R.rank())];
          out.assign(recvcount, -1.0f);
          R.reduce_scatter(mine.data(), out.data(), recvcount, op);
        });

        std::vector<std::vector<float>> contribs;
        for (int r = 0; r < P; ++r) contribs.push_back(contribution(r, n));
        // A ring allreduce's shard r IS the reduce-scatter result at rank
        // r: the allgather phase only copies shards around.
        const auto oracle =
            core::allreduce_oracle(contribs, op, CollectiveAlgorithm::Ring, gpn);
        for (int r = 0; r < P; ++r) {
          const auto [lo, hi] = core::shard_range(n, P, r);
          ASSERT_EQ(hi - lo, recvcount);
          ASSERT_TRUE(bits_equal(outputs[static_cast<std::size_t>(r)].data(),
                                 oracle.data() + lo, recvcount * 4))
              << "P=" << P << " recvcount=" << recvcount << " rank " << r;
        }
      }
    }
  }
}

TEST(ReduceScatterMatrix, LinearFallbackMatchesCommutativeOracle) {
  // Small vectors resolve to the reduce+scatter composition; integer-valued
  // payloads make any fold order exact, so compare against the naive sum.
  const int nodes = 3, gpn = 1, P = 3;
  const std::size_t recvcount = 8;
  const std::size_t n = recvcount * P;
  sim::Engine engine;
  World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::off());
  std::vector<std::vector<float>> outputs(static_cast<std::size_t>(P));
  world.run([&](Rank& R) {
    std::vector<float> mine(n);
    for (std::size_t i = 0; i < n; ++i) {
      mine[i] = static_cast<float>((R.rank() + 1) * static_cast<int>(i + 1));
    }
    auto& out = outputs[static_cast<std::size_t>(R.rank())];
    out.assign(recvcount, -1.0f);
    R.reduce_scatter(mine.data(), out.data(), recvcount, ReduceOp::Sum);
  });
  for (int r = 0; r < P; ++r) {
    for (std::size_t i = 0; i < recvcount; ++i) {
      const std::size_t idx = static_cast<std::size_t>(r) * recvcount + i;
      const float expect = static_cast<float>((1 + 2 + 3) * static_cast<int>(idx + 1));
      ASSERT_EQ(outputs[static_cast<std::size_t>(r)][i], expect)
          << "rank " << r << " index " << i;
    }
  }
}

TEST(ReduceScatterMatrix, ForeignForcedAlgorithmRunsLinearForBothReductions) {
  // BatchedPairwise is not an allreduce candidate, so forcing it must run
  // the Linear schedule for allreduce AND reduce_scatter (they share one
  // decision): the same outputs, records and virtual clock as forcing
  // Linear, and no allreduce or reduce_scatter engine record (the Linear
  // reduce_scatter's own reduce and scatter still select their schedules).
  const int P = 4;
  const std::size_t recvcount = 1u << 16;
  const std::size_t n = recvcount * P;
  struct Outcome {
    std::vector<std::vector<float>> allreduce, reduce_scatter;
    std::vector<std::string> records;
    sim::Time end;
  };
  const auto run = [&](CollectiveAlgorithm forced) {
    sim::Engine engine;
    core::Telemetry telemetry;
    mpi::WorldOptions opts;
    opts.telemetry = &telemetry;
    opts.collectives[CollectiveOp::Allreduce] = forced;
    World world(engine, net::longhorn(2, 2), core::CompressionConfig::mpc_opt(), opts);
    Outcome o;
    o.allreduce.resize(P);
    o.reduce_scatter.resize(P);
    world.run([&](Rank& R) {
      std::vector<float> mine(n);
      for (std::size_t i = 0; i < n; ++i) {
        mine[i] = static_cast<float>((R.rank() + 1) * static_cast<int>(i % 1000));
      }
      auto& all = o.allreduce[static_cast<std::size_t>(R.rank())];
      all.assign(n, -1.0f);
      R.allreduce(mine.data(), all.data(), n, ReduceOp::Sum);
      auto& shard = o.reduce_scatter[static_cast<std::size_t>(R.rank())];
      shard.assign(recvcount, -1.0f);
      R.reduce_scatter(mine.data(), shard.data(), recvcount, ReduceOp::Sum);
    });
    for (const auto& rec : telemetry.collectives()) {
      o.records.push_back(std::string(rec.op) + ":" + rec.algorithm);
    }
    o.end = engine.now();
    return o;
  };
  const Outcome linear = run(CollectiveAlgorithm::Linear);
  const Outcome foreign = run(CollectiveAlgorithm::BatchedPairwise);
  for (const auto& rec : foreign.records) {
    EXPECT_NE(rec.rfind("allreduce:", 0), 0u) << "engine ran " << rec;
    EXPECT_NE(rec.rfind("reduce_scatter:", 0), 0u) << "engine ran " << rec;
  }
  EXPECT_EQ(foreign.records, linear.records);
  EXPECT_EQ(foreign.end, linear.end);
  for (int r = 0; r < P; ++r) {
    const auto& all = foreign.allreduce[static_cast<std::size_t>(r)];
    const auto& shard = foreign.reduce_scatter[static_cast<std::size_t>(r)];
    EXPECT_EQ(all, linear.allreduce[static_cast<std::size_t>(r)]) << "rank " << r;
    EXPECT_EQ(shard, linear.reduce_scatter[static_cast<std::size_t>(r)]) << "rank " << r;
    for (std::size_t i = 0; i < recvcount; ++i) {
      const std::size_t idx = static_cast<std::size_t>(r) * recvcount + i;
      ASSERT_EQ(shard[i], static_cast<float>((1 + 2 + 3 + 4) * static_cast<int>(idx % 1000)))
          << "rank " << r << " index " << i;
    }
  }
}

// --- alltoall conformance ---
//
// The alltoall oracle is trivial and exact: received block s at rank r must
// equal send block r of rank s. Lossless codecs (raw, MPC) must satisfy it
// bit-exactly through the batched wire slab; ZFP is a single lossy
// encode/decode per block, so it is compared within a fixed tolerance.

struct AlltoallCase {
  int nodes = 2;
  int gpus_per_node = 1;
  std::size_t block_n = 1024;  // floats per destination block
  Codec codec = Codec::Mpc;
  CollectiveAlgorithm algorithm = CollectiveAlgorithm::BatchedPairwise;
};

std::string describe(const AlltoallCase& c) {
  std::string s = "alltoall P=" + std::to_string(c.nodes * c.gpus_per_node) + "(" +
                  std::to_string(c.nodes) + "x" + std::to_string(c.gpus_per_node) +
                  ") block_n=" + std::to_string(c.block_n) + " codec=";
  s += c.codec == Codec::Raw ? "raw" : c.codec == Codec::Mpc ? "mpc" : "zfp";
  s += std::string(" algo=") + core::collective_algorithm_name(c.algorithm);
  return s;
}

/// Block rank r sends to destination d: deterministic in (r, d, size).
std::vector<float> alltoall_block(int src, int dst, std::size_t n) {
  return make_floats(PayloadKind::SmoothField, n,
                     0xA2Au + static_cast<std::uint64_t>(src) * 131u +
                         static_cast<std::uint64_t>(dst));
}

struct AlltoallResult {
  std::vector<std::vector<float>> outputs;  // per-rank P*block_n receive buffer
  std::size_t engine_records = 0;           // "alltoall" CollectiveRecords
};

AlltoallResult run_alltoall_case(const AlltoallCase& c) {
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.collectives[CollectiveOp::Alltoall] = c.algorithm;
  auto cfg = config_for(MatrixCase{.codec = c.codec});
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node), cfg, opts);
  const int P = world.size();
  const std::size_t n = c.block_n;

  AlltoallResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    auto* send = static_cast<float*>(R.gpu_malloc(n * 4 * static_cast<std::size_t>(P) + 4));
    for (int d = 0; d < P; ++d) {
      const auto block = alltoall_block(R.rank(), d, n);
      std::copy(block.begin(), block.end(), send + static_cast<std::size_t>(d) * n);
    }
    auto& out = res.outputs[static_cast<std::size_t>(R.rank())];
    out.assign(n * static_cast<std::size_t>(P), -7.0f);
    R.alltoall(send, n * 4, out.data());
    R.gpu_free(send);
  });
  for (const auto& rec : telemetry.collectives()) {
    if (std::string(rec.op) == "alltoall") ++res.engine_records;
  }
  return res;
}

class AlltoallMatrix : public ::testing::Test {
 protected:
  void check(const AlltoallCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_alltoall_case(c);

    for (int r = 0; r < P; ++r) {
      const auto& got = res.outputs[static_cast<std::size_t>(r)];
      for (int s = 0; s < P; ++s) {
        const auto expect = alltoall_block(s, r, c.block_n);
        const float* slot = got.data() + static_cast<std::size_t>(s) * c.block_n;
        if (c.codec != Codec::Zfp) {
          ASSERT_TRUE(bits_equal(slot, expect.data(), c.block_n * 4))
              << describe(c) << ": rank " << r << " block from " << s
              << " is not bit-exact";
        } else {
          // One lossy encode/decode per block: rate-16 ZFP on smooth values
          // of magnitude ~1e3 lands well under this absolute envelope.
          for (std::size_t i = 0; i < c.block_n; ++i) {
            ASSERT_NEAR(slot[i], expect[i], 0.25)
                << describe(c) << ": rank " << r << " block from " << s << " index " << i;
          }
        }
      }
    }

    // Telemetry cross-check: the batched engine emits one "alltoall"
    // CollectiveRecord per rank; the naive sendrecv loop emits none.
    core::CollectiveTuning tuning;
    tuning[CollectiveOp::Alltoall] = c.algorithm;
    const auto resolved = core::resolve_collective(CollectiveOp::Alltoall, tuning,
                                                   c.block_n * 4, P, c.nodes, c.gpus_per_node);
    if (P > 1 && c.block_n > 0 && resolved == CollectiveAlgorithm::BatchedPairwise) {
      EXPECT_EQ(res.engine_records, static_cast<std::size_t>(P)) << describe(c);
    } else {
      EXPECT_EQ(res.engine_records, 0u) << describe(c);
    }
  }
};

TEST_F(AlltoallMatrix, SizeAndRankSweepLossless) {
  const std::size_t sizes[] = {0, 1, 521, 16411};
  const std::pair<int, int> topos[] = {{2, 1}, {4, 1}, {3, 2}, {4, 2}};
  for (std::size_t n : sizes) {
    for (auto [nodes, gpn] : topos) {
      for (Codec codec : {Codec::Raw, Codec::Mpc}) {
        for (auto algo :
             {CollectiveAlgorithm::Linear, CollectiveAlgorithm::BatchedPairwise,
              CollectiveAlgorithm::Auto}) {
          AlltoallCase c;
          c.nodes = nodes;
          c.gpus_per_node = gpn;
          c.block_n = n;
          c.codec = codec;
          c.algorithm = algo;
          check(c);
        }
      }
    }
  }
}

TEST_F(AlltoallMatrix, ZfpBlocksStayWithinTolerance) {
  for (auto [nodes, gpn] : {std::pair<int, int>{4, 1}, std::pair<int, int>{3, 2}}) {
    AlltoallCase c;
    c.nodes = nodes;
    c.gpus_per_node = gpn;
    c.block_n = 16411;
    c.codec = Codec::Zfp;
    c.algorithm = CollectiveAlgorithm::BatchedPairwise;
    check(c);
  }
}

TEST_F(AlltoallMatrix, AutoCrossesToBatchedAtTheFloor) {
  // 1 MiB blocks at 8 ranks sit exactly at the default floor: Auto resolves
  // to the engine, and conformance holds there too.
  AlltoallCase c;
  c.nodes = 8;
  c.gpus_per_node = 1;
  c.block_n = (1u << 20) / 4;
  c.codec = Codec::Mpc;
  c.algorithm = CollectiveAlgorithm::Auto;
  check(c);
}

// --- moving collectives (bcast / allgather / gather / scatter) ---
//
// The hierarchical engine restages these at one representative per node
// (see src/mpi/hier_engine.cpp). The oracles are trivial and exact: bcast
// puts the root's payload everywhere, allgather puts rank s's block at
// offset s, gather concatenates at the root, scatter hands rank r the
// root's block r. Lossless codecs must satisfy them BIT-exactly on both
// the flat and the hierarchical schedule; ZFP cases carry per-generation
// tolerances.
//
// Telemetry contract: bcast/allgather check the eager path BEFORE the
// hierarchical select, so a forced Hierarchical at or below the eager
// threshold silently runs the flat eager schedule (no CollectiveRecords).
// Gather/scatter dispatch hierarchically at any nonzero block size. When
// the engine runs, bcast/allgather record on every rank; gather/scatter
// record on the root and the remote node leaders only (`nodes` records).

struct MovingCase {
  int nodes = 4;
  int gpus_per_node = 2;
  std::size_t n = 16411;  // bcast: message floats; others: floats per block
  Codec codec = Codec::Mpc;
  CollectiveAlgorithm algorithm = CollectiveAlgorithm::Linear;
  int root = 1;  // off-leader root exercises the representative selection
};

std::string describe(const char* op, const MovingCase& c) {
  std::string s = std::string(op) + " P=" + std::to_string(c.nodes * c.gpus_per_node) +
                  "(" + std::to_string(c.nodes) + "x" + std::to_string(c.gpus_per_node) +
                  ") n=" + std::to_string(c.n) + " root=" + std::to_string(c.root) +
                  " codec=";
  s += c.codec == Codec::Raw ? "raw" : c.codec == Codec::Mpc ? "mpc" : "zfp";
  s += std::string(" algo=") + core::collective_algorithm_name(c.algorithm);
  return s;
}

/// CI's degenerate-topology job sets GCMPI_FORCE_GPN=1: every swept
/// topology reshapes to P nodes x 1 GPU (same rank count), where forced
/// Hierarchical must resolve to Linear and every oracle must still hold.
std::pair<int, int> moving_topology(int nodes, int gpn) {
  static const int forced = [] {
    const char* v = std::getenv("GCMPI_FORCE_GPN");
    return v != nullptr ? std::atoi(v) : 0;
  }();
  if (forced <= 0) return {nodes, gpn};
  const int P = nodes * gpn;
  return {std::max(1, P / forced), forced};
}

std::vector<float> bcast_payload(std::size_t n) {
  return make_floats(PayloadKind::SmoothField, n, 0xB0CA57u);
}

/// Scatter source block destined for rank d.
std::vector<float> scatter_block(int dst, std::size_t n) {
  return make_floats(PayloadKind::SmoothField, n,
                     0x5CA7u + static_cast<std::uint64_t>(dst) * 131u);
}

struct MovingResult {
  std::vector<std::vector<float>> outputs;
  std::size_t records = 0;  // CollectiveRecords matching the op under test
};

mpi::WorldOptions moving_options(const MovingCase& c, core::Telemetry* t) {
  mpi::WorldOptions opts;
  opts.telemetry = t;
  for (const CollectiveOp op : {CollectiveOp::Bcast, CollectiveOp::Allgather,
                                CollectiveOp::Gather, CollectiveOp::Scatter}) {
    opts.collectives[op] = c.algorithm;
  }
  return opts;
}

std::size_t count_records(const core::Telemetry& t, const char* op) {
  std::size_t k = 0;
  for (const auto& rec : t.collectives()) {
    if (std::string(rec.op) == op) ++k;
  }
  return k;
}

MovingResult run_bcast_case(const MovingCase& c, fault::FaultInjector* inj = nullptr) {
  sim::Engine engine;
  core::Telemetry telemetry;
  auto opts = moving_options(c, &telemetry);
  opts.fault = inj;
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node),
              config_for(MatrixCase{.codec = c.codec}), opts);
  const int P = world.size();
  const auto truth = bcast_payload(c.n);

  MovingResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4 + 4));
    if (R.rank() == c.root) {
      std::memcpy(dev, truth.data(), c.n * 4);
    } else {
      std::memset(dev, 0, c.n * 4);
    }
    R.bcast(dev, c.n * 4, c.root);
    auto& out = res.outputs[static_cast<std::size_t>(R.rank())];
    out.resize(c.n);
    std::memcpy(out.data(), dev, c.n * 4);
    R.gpu_free(dev);
  });
  res.records = count_records(telemetry, "bcast");
  return res;
}

MovingResult run_allgather_case(const MovingCase& c) {
  sim::Engine engine;
  core::Telemetry telemetry;
  auto opts = moving_options(c, &telemetry);
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node),
              config_for(MatrixCase{.codec = c.codec}), opts);
  const int P = world.size();

  MovingResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    const auto mine = contribution(R.rank(), c.n);
    auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4 + 4));
    std::memcpy(dev, mine.data(), c.n * 4);
    auto& out = res.outputs[static_cast<std::size_t>(R.rank())];
    out.assign(c.n * static_cast<std::size_t>(P), -3.0f);
    R.allgather(dev, c.n * 4, out.data());
    R.gpu_free(dev);
  });
  res.records = count_records(telemetry, "allgather");
  return res;
}

MovingResult run_gather_case(const MovingCase& c) {
  sim::Engine engine;
  core::Telemetry telemetry;
  auto opts = moving_options(c, &telemetry);
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node),
              config_for(MatrixCase{.codec = c.codec}), opts);
  const int P = world.size();

  MovingResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    const auto mine = contribution(R.rank(), c.n);
    auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4 + 4));
    std::memcpy(dev, mine.data(), c.n * 4);
    auto& out = res.outputs[static_cast<std::size_t>(R.rank())];
    if (R.rank() == c.root) out.assign(c.n * static_cast<std::size_t>(P), -3.0f);
    R.gather(dev, c.n * 4, out.data(), c.root);
    R.gpu_free(dev);
  });
  res.records = count_records(telemetry, "gather");
  return res;
}

MovingResult run_scatter_case(const MovingCase& c, fault::FaultInjector* inj = nullptr) {
  sim::Engine engine;
  core::Telemetry telemetry;
  auto opts = moving_options(c, &telemetry);
  opts.fault = inj;
  World world(engine, net::longhorn(c.nodes, c.gpus_per_node),
              config_for(MatrixCase{.codec = c.codec}), opts);
  const int P = world.size();

  MovingResult res;
  res.outputs.assign(static_cast<std::size_t>(P), {});
  world.run([&](Rank& R) {
    auto* send = static_cast<float*>(
        R.gpu_malloc(c.n * 4 * static_cast<std::size_t>(P) + 4));
    if (R.rank() == c.root) {
      for (int d = 0; d < P; ++d) {
        const auto block = scatter_block(d, c.n);
        std::memcpy(send + static_cast<std::size_t>(d) * c.n, block.data(), c.n * 4);
      }
    }
    auto& out = res.outputs[static_cast<std::size_t>(R.rank())];
    out.assign(c.n, -3.0f);
    R.scatter(send, c.n * 4, out.data(), c.root);
    R.gpu_free(send);
  });
  res.records = count_records(telemetry, "scatter");
  return res;
}

class MovingMatrix : public ::testing::Test {
 protected:
  static std::uint64_t eager_threshold() { return mpi::WorldOptions{}.eager_threshold; }

  /// Whether the dispatcher's policy function resolves `op` to the
  /// hierarchical schedule for this case.
  static bool hierarchical(CollectiveOp op, const MovingCase& c) {
    core::CollectiveTuning t;
    t[op] = c.algorithm;
    return core::resolve_collective(op, t, c.n * 4, c.nodes * c.gpus_per_node, c.nodes,
                                    c.gpus_per_node) == CollectiveAlgorithm::Hierarchical;
  }

  void check_bcast(const MovingCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_bcast_case(c);
    const auto truth = bcast_payload(c.n);
    for (int r = 0; r < P; ++r) {
      const auto& got = res.outputs[static_cast<std::size_t>(r)];
      if (c.codec != Codec::Zfp) {
        ASSERT_EQ(std::memcmp(got.data(), truth.data(), c.n * 4), 0)
            << describe("bcast", c) << " rank " << r;
      } else {
        // One encode at the root, one decode per rank: a single lossy
        // generation regardless of the schedule.
        for (std::size_t i = 0; i < c.n; ++i) {
          ASSERT_NEAR(got[i], truth[i], 0.25) << describe("bcast", c) << " rank " << r
                                              << " index " << i;
        }
      }
    }
    // Hierarchical records on every rank; the eager path (<= threshold)
    // preempts the engine even when Hierarchical is forced.
    const bool engine =
        P > 1 && hierarchical(CollectiveOp::Bcast, c) && c.n * 4 > eager_threshold();
    EXPECT_EQ(res.records, engine ? static_cast<std::size_t>(P) : 0u)
        << describe("bcast", c);
  }

  void check_allgather(const MovingCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_allgather_case(c);
    for (int r = 0; r < P; ++r) {
      const auto& got = res.outputs[static_cast<std::size_t>(r)];
      for (int s = 0; s < P; ++s) {
        const auto expect = contribution(s, c.n);
        ASSERT_EQ(std::memcmp(got.data() + static_cast<std::size_t>(s) * c.n,
                              expect.data(), c.n * 4),
                  0)
            << describe("allgather", c) << " rank " << r << " block from " << s;
      }
    }
    const bool engine =
        P > 1 && hierarchical(CollectiveOp::Allgather, c) && c.n * 4 > eager_threshold();
    EXPECT_EQ(res.records, engine ? static_cast<std::size_t>(P) : 0u)
        << describe("allgather", c);
  }

  void check_gather(const MovingCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_gather_case(c);
    const auto& got = res.outputs[static_cast<std::size_t>(c.root)];
    for (int s = 0; s < P; ++s) {
      const auto expect = contribution(s, c.n);
      ASSERT_EQ(std::memcmp(got.data() + static_cast<std::size_t>(s) * c.n, expect.data(),
                            c.n * 4),
                0)
          << describe("gather", c) << " block from " << s;
    }
    // Root + one record per remote node leader.
    const bool engine = P > 1 && c.n > 0 && hierarchical(CollectiveOp::Gather, c);
    EXPECT_EQ(res.records, engine ? static_cast<std::size_t>(c.nodes) : 0u)
        << describe("gather", c);
  }

  void check_scatter(const MovingCase& c) {
    const int P = c.nodes * c.gpus_per_node;
    const auto res = run_scatter_case(c);
    for (int r = 0; r < P; ++r) {
      const auto& got = res.outputs[static_cast<std::size_t>(r)];
      const auto expect = scatter_block(r, c.n);
      if (c.codec != Codec::Zfp) {
        ASSERT_EQ(std::memcmp(got.data(), expect.data(), c.n * 4), 0)
            << describe("scatter", c) << " rank " << r;
      } else {
        // Worst case two lossy generations: root slab -> leader, leader
        // block -> member.
        for (std::size_t i = 0; i < c.n; ++i) {
          ASSERT_NEAR(got[i], expect[i], 0.5)
              << describe("scatter", c) << " rank " << r << " index " << i;
        }
      }
    }
    const bool engine = P > 1 && c.n > 0 && hierarchical(CollectiveOp::Scatter, c);
    EXPECT_EQ(res.records, engine ? static_cast<std::size_t>(c.nodes) : 0u)
        << describe("scatter", c);
  }
};

TEST_F(MovingMatrix, SizeTopologyCodecSweepLossless) {
  // 4096 floats sit exactly at the 16 KiB eager threshold (flat even when
  // Hierarchical is forced); 16411 floats are past it and odd-sized.
  const std::size_t sizes[] = {1, 4096, 16411};
  const std::pair<int, int> topos[] = {{4, 2}, {3, 2}, {2, 2}, {4, 1}};
  for (std::size_t n : sizes) {
    for (auto [nodes, gpn] : topos) {
      std::tie(nodes, gpn) = moving_topology(nodes, gpn);
      for (Codec codec : {Codec::Raw, Codec::Mpc}) {
        for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Hierarchical}) {
          MovingCase c;
          c.nodes = nodes;
          c.gpus_per_node = gpn;
          c.n = n;
          c.codec = codec;
          c.algorithm = algo;
          check_bcast(c);
          check_allgather(c);
          check_gather(c);
          check_scatter(c);
        }
      }
    }
  }
}

TEST_F(MovingMatrix, AutoCrossesToHierarchicalAtTheFloors) {
  // bcast Auto floor: 1 MiB messages; allgather/gather/scatter: 256 KiB
  // blocks. One size below, one at the floor; conformance holds on both
  // sides and records flip on exactly at the floor.
  for (std::size_t n : {std::size_t{16411}, std::size_t{1} << 18}) {
    MovingCase c;
    std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 2);
    c.n = n;
    c.algorithm = CollectiveAlgorithm::Auto;
    check_bcast(c);
  }
  for (std::size_t n : {std::size_t{16411}, std::size_t{1} << 16}) {
    MovingCase c;
    std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 2);
    c.n = n;
    c.algorithm = CollectiveAlgorithm::Auto;
    check_allgather(c);
    check_gather(c);
    check_scatter(c);
  }
}

TEST_F(MovingMatrix, ZfpStaysWithinPerGenerationTolerance) {
  for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Hierarchical}) {
    MovingCase c;
    std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 2);
    c.codec = Codec::Zfp;
    c.algorithm = algo;
    check_bcast(c);
    check_scatter(c);
  }
}

TEST_F(MovingMatrix, RootOnLastNodeAndLeaderRoot) {
  // Roots that are (a) a node leader and (b) on the highest-numbered node:
  // the virtual-node rotation and the root-node representative choice both
  // get exercised away from the defaults.
  for (int root : {0, 6}) {
    MovingCase c;
    std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 2);
    c.algorithm = CollectiveAlgorithm::Hierarchical;
    c.root = root;
    check_bcast(c);
    check_gather(c);
    check_scatter(c);
  }
}

TEST_F(MovingMatrix, DegenerateTopologyForcedHierIsBitIdenticalToFlat) {
  // One GPU per node: Hierarchical must resolve to Linear, run the flat
  // schedule, emit no records, and match the forced-Linear run bit-for-bit.
  for (const char* op : {"bcast", "allgather", "gather", "scatter"}) {
    MovingCase hier;
    hier.nodes = 6;
    hier.gpus_per_node = 1;
    hier.algorithm = CollectiveAlgorithm::Hierarchical;
    MovingCase flat = hier;
    flat.algorithm = CollectiveAlgorithm::Linear;

    const auto run = [&](const MovingCase& c) {
      if (std::string(op) == "bcast") return run_bcast_case(c);
      if (std::string(op) == "allgather") return run_allgather_case(c);
      if (std::string(op) == "gather") return run_gather_case(c);
      return run_scatter_case(c);
    };
    const auto a = run(hier);
    const auto b = run(flat);
    EXPECT_EQ(a.records, 0u) << op;
    EXPECT_EQ(b.records, 0u) << op;
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (std::size_t r = 0; r < a.outputs.size(); ++r) {
      ASSERT_EQ(a.outputs[r].size(), b.outputs[r].size()) << op << " rank " << r;
      ASSERT_TRUE(bits_equal(a.outputs[r].data(), b.outputs[r].data(),
                             a.outputs[r].size() * 4))
          << op << " rank " << r << ": degenerate hierarchical diverged from flat";
    }
  }
}

TEST_F(MovingMatrix, ScatterInterNodeTransitBudget) {
  // The IB transit budget, measured: flat scatter pushes one rendezvous
  // data packet per remote RANK (P - gpus_per_node inter-node packets);
  // the hierarchical schedule pushes one slab per remote NODE (nodes - 1).
  // The batched root send (one compress launch, all sends in flight) is
  // PR-7's isend_batched on the flat path and the slab batch here.
  MovingCase c;
  std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 2);
  if (c.gpus_per_node == 1) GTEST_SKIP() << "budget split needs a two-level topology";
  const int P = c.nodes * c.gpus_per_node;

  fault::FaultInjector flat_inj{fault::FaultPlan{}};  // inert: pure packet counting
  c.algorithm = CollectiveAlgorithm::Linear;
  const auto flat = run_scatter_case(c, &flat_inj);
  EXPECT_EQ(flat_inj.stats().inter_node_data_packets,
            static_cast<std::uint64_t>(P - c.gpus_per_node));
  EXPECT_EQ(flat_inj.stats().drops, 0u);

  fault::FaultInjector hier_inj{fault::FaultPlan{}};
  c.algorithm = CollectiveAlgorithm::Hierarchical;
  const auto hier = run_scatter_case(c, &hier_inj);
  EXPECT_EQ(hier_inj.stats().inter_node_data_packets,
            static_cast<std::uint64_t>(c.nodes - 1));

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(flat.outputs[static_cast<std::size_t>(r)].data(),
                          hier.outputs[static_cast<std::size_t>(r)].data(), c.n * 4),
              0)
        << "rank " << r << ": schedules disagree";
  }
}

TEST_F(MovingMatrix, BcastInterNodeTransitBudget) {
  // Hierarchical bcast from a non-leader root: exactly nodes-1 inter-node
  // wire transits on a clean fabric — the one-transit-per-node guarantee.
  MovingCase c;
  std::tie(c.nodes, c.gpus_per_node) = moving_topology(4, 4);
  if (c.gpus_per_node == 1) GTEST_SKIP() << "budget split needs a two-level topology";
  c.algorithm = CollectiveAlgorithm::Hierarchical;
  fault::FaultInjector inj{fault::FaultPlan{}};
  const auto res = run_bcast_case(c, &inj);
  (void)res;
  EXPECT_EQ(inj.stats().inter_node_data_packets, static_cast<std::uint64_t>(c.nodes - 1));
}

// --- rooted reduce conformance ---
//
// Rank::reduce folds on the binomial tree: each rank takes its own vector,
// then each child's subtree result nearest child first, accumulator-first.
// Below the eager threshold it folds on the host; above it every hop is a
// wire form folded by the fused decompress+reduce kernels. Both must equal
// the host replay bit-exactly for lossless codecs.

/// The subtree result of virtual rank `vrank` for a reduce rooted at `root`.
std::vector<float> reduce_oracle(const std::vector<std::vector<float>>& contribs, ReduceOp op,
                                 int root, int vrank) {
  const int P = static_cast<int>(contribs.size());
  std::vector<float> acc = contribs[static_cast<std::size_t>((vrank + root) % P)];
  const core::BinomialTree tree = core::binomial_tree(vrank, P);
  for (auto child = tree.children.rbegin(); child != tree.children.rend(); ++child) {
    const auto sub = reduce_oracle(contribs, op, root, *child);
    comp::reduce_inplace(acc.data(), sub.data(), acc.size(), op);
  }
  return acc;
}

TEST(ReduceMatrix, RootedReduceMatchesBinomialFold) {
  const std::pair<int, int> topos[] = {{2, 2}, {3, 1}};
  for (auto [swept_nodes, swept_gpn] : topos) {
    const auto [nodes, gpn] = moving_topology(swept_nodes, swept_gpn);
    const int P = nodes * gpn;
    for (int root : {0, P - 1}) {
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{16411}}) {
        for (Codec codec : {Codec::Raw, Codec::Mpc}) {
          for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Max}) {
            const MatrixCase c{.nodes = nodes, .gpus_per_node = gpn, .n = n, .op = op,
                               .codec = codec, .algorithm = CollectiveAlgorithm::Linear};
            sim::Engine engine;
            core::Telemetry telemetry;
            mpi::WorldOptions opts;
            opts.telemetry = &telemetry;
            World world(engine, net::longhorn(nodes, gpn), config_for(c), opts);
            std::vector<float> out(n, -1.0f);
            world.run([&](Rank& R) {
              const auto mine = contribution(R.rank(), n);
              auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
              std::copy(mine.begin(), mine.end(), dev);
              R.reduce(dev, R.rank() == root ? out.data() : nullptr, n, op, root);
              R.gpu_free(dev);
            });

            std::vector<std::vector<float>> contribs;
            for (int r = 0; r < P; ++r) contribs.push_back(contribution(r, n));
            const auto oracle = reduce_oracle(contribs, op, root, 0);
            EXPECT_TRUE(bits_equal(out.data(), oracle.data(), n * 4))
                << describe(c) << " root=" << root;
            // Rendezvous-sized vectors run the wire body, which records.
            const bool wire = n * 4 > mpi::WorldOptions{}.eager_threshold;
            EXPECT_EQ(count_records(telemetry, "reduce"), wire ? std::size_t(P) : 0u)
                << describe(c) << " root=" << root;
          }
        }
      }
    }
  }
}

// --- oracle self-checks ---

TEST(OracleSanity, RingOracleMatchesNaiveSumOnIntegers) {
  // Integer-valued floats make summation order-insensitive, so every
  // canonical order must equal the naive left fold.
  const int P = 5;
  const std::size_t n = 97;
  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < P; ++r) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>((r + 1) * ((i % 13) + 1));
    contribs.push_back(std::move(v));
  }
  std::vector<float> naive = contribs[0];
  for (int r = 1; r < P; ++r) {
    comp::reduce_inplace(naive.data(), contribs[static_cast<std::size_t>(r)].data(), n,
                         ReduceOp::Sum);
  }
  for (auto algo : {CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
                    CollectiveAlgorithm::Hierarchical}) {
    const auto got = core::allreduce_oracle(contribs, ReduceOp::Sum, algo, 2);
    ASSERT_EQ(std::memcmp(got.data(), naive.data(), n * 4), 0)
        << core::collective_algorithm_name(algo);
  }
}

// --- the binomial tree, without a World ---

/// Reference copy of the hand-rolled bcast loop core::binomial_tree
/// replaced: receive at vrank's lowest set bit, then post children from the
/// next lower bit down.
core::BinomialTree reference_bcast_tree(int vrank, int P) {
  core::BinomialTree t;
  int mask = 1;
  if (vrank != 0) {
    while (mask < P) {
      if (vrank & mask) {
        t.parent = vrank - mask;
        break;
      }
      mask <<= 1;
    }
  } else {
    while (mask < P) mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < P) t.children.push_back(vrank + mask);
    mask >>= 1;
  }
  return t;
}

/// Reference copy of the hand-rolled reduce loop: fold children in
/// ascending mask order, then ship to vrank with its lowest set bit cleared.
core::BinomialTree reference_reduce_tree(int vrank, int P) {
  core::BinomialTree t;
  for (int mask = 1; mask < P; mask <<= 1) {
    if ((vrank & mask) == 0) {
      if ((vrank | mask) < P) t.children.push_back(vrank | mask);
    } else {
      t.parent = vrank & ~mask;
      break;
    }
  }
  return t;
}

TEST(BinomialTree, EveryShapeIsASpanningTreeInBcastPostOrder) {
  for (int P = 1; P <= 64; ++P) {
    std::vector<int> parent(static_cast<std::size_t>(P));
    std::vector<int> listed_by(static_cast<std::size_t>(P), -1);
    for (int v = 0; v < P; ++v) {
      const core::BinomialTree t = core::binomial_tree(v, P);
      const core::BinomialTree bcast = reference_bcast_tree(v, P);
      EXPECT_EQ(t.parent, bcast.parent) << "P=" << P << " vrank=" << v;
      EXPECT_EQ(t.children, bcast.children) << "P=" << P << " vrank=" << v;
      // The reduce loop folds the same children, nearest first.
      const core::BinomialTree reduce = reference_reduce_tree(v, P);
      EXPECT_EQ(t.parent, reduce.parent) << "P=" << P << " vrank=" << v;
      EXPECT_EQ(std::vector<int>(t.children.rbegin(), t.children.rend()), reduce.children)
          << "P=" << P << " vrank=" << v;

      parent[static_cast<std::size_t>(v)] = t.parent;
      for (int c : t.children) {
        ASSERT_GT(c, v);
        ASSERT_LT(c, P);
        EXPECT_EQ(listed_by[static_cast<std::size_t>(c)], -1) << "listed twice: " << c;
        listed_by[static_cast<std::size_t>(c)] = v;
      }
    }
    EXPECT_EQ(parent[0], -1);
    EXPECT_EQ(listed_by[0], -1);
    for (int v = 1; v < P; ++v) {
      // Exactly one parent, and that parent lists v as a child.
      EXPECT_EQ(listed_by[static_cast<std::size_t>(v)], parent[static_cast<std::size_t>(v)])
          << "P=" << P << " vrank=" << v;
      // Parents are strictly smaller, so following them reaches the root:
      // the tree spans all P vranks.
      int u = v;
      while (u > 0) {
        const int up = parent[static_cast<std::size_t>(u)];
        ASSERT_GE(up, 0);
        ASSERT_LT(up, u);
        u = up;
      }
    }
  }
}

}  // namespace
