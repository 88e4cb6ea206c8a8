// Collective-operation correctness across rank counts (including
// non-powers of two) and with compression enabled on the hop level.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "mpi/world.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::World;

class CollectiveSizes : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSizes, Barrier) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  int count = 0;
  world.run([&](Rank& R) {
    R.compute(sim::Time::us(static_cast<double>(R.rank()) * 100));
    R.barrier();
    ++count;  // actors run one at a time: no data race
    R.barrier();
  });
  EXPECT_EQ(count, P);
}

TEST_P(CollectiveSizes, BcastFromEveryRoot) {
  const int P = GetParam();
  for (int root = 0; root < P; root += std::max(1, P / 3)) {
    sim::Engine engine;
    World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
    std::vector<int> ok(static_cast<std::size_t>(P), 0);
    world.run([&](Rank& R) {
      std::vector<float> buf(1024, 0.0f);
      if (R.rank() == root) {
        std::iota(buf.begin(), buf.end(), 1.0f);
      }
      R.bcast(buf.data(), buf.size() * 4, root);
      ok[static_cast<std::size_t>(R.rank())] =
          (buf[0] == 1.0f && buf[1023] == 1024.0f) ? 1 : 0;
    });
    for (int r = 0; r < P; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << "root " << root;
  }
}

TEST_P(CollectiveSizes, AllgatherCollectsEveryBlock) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  int failures = 0;
  world.run([&](Rank& R) {
    const std::size_t bn = 256;
    std::vector<float> mine(bn, static_cast<float>(R.rank() + 1));
    std::vector<float> all(bn * static_cast<std::size_t>(P), -1.0f);
    R.allgather(mine.data(), bn * 4, all.data());
    for (int r = 0; r < P; ++r) {
      for (std::size_t i = 0; i < bn; ++i) {
        if (all[static_cast<std::size_t>(r) * bn + i] != static_cast<float>(r + 1)) ++failures;
      }
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(CollectiveSizes, AllreduceSumMaxMin) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  int failures = 0;
  world.run([&](Rank& R) {
    const std::size_t n = 64;
    std::vector<float> v(n), sum(n), mx(n), mn(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(R.rank() + 1) * (i % 7 == 0 ? -1.0f : 1.0f);
    R.allreduce(v.data(), sum.data(), n, mpi::ReduceOp::Sum);
    R.allreduce(v.data(), mx.data(), n, mpi::ReduceOp::Max);
    R.allreduce(v.data(), mn.data(), n, mpi::ReduceOp::Min);
    const float total = static_cast<float>(P * (P + 1)) / 2.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float sign = (i % 7 == 0) ? -1.0f : 1.0f;
      if (sum[i] != sign * total) ++failures;
      if (mx[i] != (sign > 0 ? static_cast<float>(P) : -1.0f)) ++failures;
      if (mn[i] != (sign > 0 ? 1.0f : -static_cast<float>(P))) ++failures;
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(CollectiveSizes, ReduceToRoot) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  float result = 0.0f;
  world.run([&](Rank& R) {
    float v = static_cast<float>(R.rank() + 1);
    float out = 0.0f;
    R.reduce(&v, &out, 1, mpi::ReduceOp::Sum, 0);
    if (R.rank() == 0) result = out;
  });
  EXPECT_EQ(result, static_cast<float>(P * (P + 1)) / 2.0f);
}

TEST_P(CollectiveSizes, AlltoallPermutesBlocks) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  int failures = 0;
  world.run([&](Rank& R) {
    const std::size_t bn = 128;
    std::vector<float> send(bn * static_cast<std::size_t>(P));
    std::vector<float> recv(bn * static_cast<std::size_t>(P), -1.0f);
    // Block for destination d carries value 1000*me + d.
    for (int d = 0; d < P; ++d) {
      for (std::size_t i = 0; i < bn; ++i) {
        send[static_cast<std::size_t>(d) * bn + i] = static_cast<float>(1000 * R.rank() + d);
      }
    }
    R.alltoall(send.data(), bn * 4, recv.data());
    for (int s = 0; s < P; ++s) {
      for (std::size_t i = 0; i < bn; ++i) {
        if (recv[static_cast<std::size_t>(s) * bn + i] !=
            static_cast<float>(1000 * s + R.rank())) {
          ++failures;
        }
      }
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST_P(CollectiveSizes, GatherAndScatter) {
  const int P = GetParam();
  sim::Engine engine;
  World world(engine, net::longhorn(P, 1), core::CompressionConfig::off());
  int failures = 0;
  world.run([&](Rank& R) {
    const std::size_t bn = 32;
    std::vector<float> mine(bn, static_cast<float>(R.rank()) + 0.5f);
    std::vector<float> gathered(bn * static_cast<std::size_t>(P), -1.0f);
    R.gather(mine.data(), bn * 4, gathered.data(), 0);
    if (R.rank() == 0) {
      for (int r = 0; r < P; ++r) {
        if (gathered[static_cast<std::size_t>(r) * bn] != static_cast<float>(r) + 0.5f) ++failures;
      }
    }
    std::vector<float> back(bn, -1.0f);
    R.scatter(gathered.data(), bn * 4, back.data(), 0);
    if (back[0] != static_cast<float>(R.rank()) + 0.5f) ++failures;
  });
  EXPECT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSizes, ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(CollectivesCompressed, BcastOfDeviceDatasetIsLossless) {
  const int P = 4;
  const std::size_t n = (1u << 20) / 4;  // 1MB message
  const auto dataset = data::generate("msg_sweep3d", n);
  sim::Engine engine;
  World world(engine, net::frontera_liquid(P, 1), core::CompressionConfig::mpc_opt());
  int failures = 0;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    if (R.rank() == 0) std::memcpy(dev, dataset.data(), n * 4);
    R.bcast(dev, n * 4, 0);
    if (std::memcmp(dev, dataset.data(), n * 4) != 0) ++failures;
    R.gpu_free(dev);
  });
  EXPECT_EQ(failures, 0);
}

TEST(CollectivesCompressed, BcastWithCompressionIsFasterOnCompressibleData) {
  const int P = 8;
  const std::size_t n = (4u << 20) / 4;
  const auto dataset = data::generate("msg_sppm", n);  // CR ~9 dataset

  auto run_one = [&](core::CompressionConfig cfg) {
    sim::Engine engine;
    World world(engine, net::frontera_liquid(P, 2), cfg);
    sim::Time done = sim::Time::zero();
    world.run([&](Rank& R) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      if (R.rank() == 0) std::memcpy(dev, dataset.data(), n * 4);
      R.barrier();
      R.bcast(dev, n * 4, 0);
      R.barrier();
      if (R.rank() == 0) done = R.now();
      R.gpu_free(dev);
    });
    return done;
  };
  const auto baseline = run_one(core::CompressionConfig::off());
  const auto mpc = run_one(core::CompressionConfig::mpc_opt());
  EXPECT_LT(mpc, baseline);  // Fig. 11(a): biggest win on msg_sppm
}

/// The CollectiveRecords of one 4 MiB `op` (rooted at rank 1) on
/// longhorn(nodes, gpn) under MPC-OPT, with `algorithm` forced.
std::vector<core::CollectiveRecord> records_of(int nodes, int gpn, core::CollectiveOp op,
                                               core::CollectiveAlgorithm algorithm) {
  const std::size_t n = (4u << 20) / 4;
  const auto dataset = data::generate("msg_sppm", n);
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.collectives[op] = algorithm;
  sim::Engine engine;
  World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::mpc_opt(), opts);
  world.run([&](Rank& R) {
    auto* buf = static_cast<float*>(R.gpu_malloc(n * 4));
    auto* out = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(buf, dataset.data(), n * 4);
    if (op == core::CollectiveOp::Bcast) {
      R.bcast(buf, n * 4, 1);
    } else {
      R.allreduce(buf, out, n, mpi::ReduceOp::Sum);
    }
    R.gpu_free(out);
    R.gpu_free(buf);
  });
  return telemetry.collectives();
}

sim::Time busy(const core::CollectiveRecord& r) {
  return r.compress_busy + r.transfer_busy + r.reduce_busy;
}

TEST(CollectiveBusy, HierarchicalBcastChargesEveryStepOnce) {
  // The representatives decode off the inter-node critical path; that
  // decode is reduce time only, never transfer time as well.
  const auto records = records_of(3, 2, core::CollectiveOp::Bcast,
                                  core::CollectiveAlgorithm::Hierarchical);
  ASSERT_EQ(records.size(), 6u);
  for (const auto& r : records) EXPECT_LE(busy(r), r.span) << "rank " << r.rank;
}

TEST(CollectiveBusy, AllreduceBusyColumnsPartitionTheSpan) {
  // Every step of the schedule is charged to one column, so all that is
  // left of the span is the device accumulator's cudaMalloc and cudaFree
  // and the copies into and out of it. Members and leaders alike: the
  // leaders' drains are reduce time.
  const gpu::CostModel& costs = net::longhorn(2, 2).gpu.costs;
  const std::uint64_t bytes = 4u << 20;
  const sim::Time residue =
      costs.cuda_malloc(bytes) + costs.cuda_free + costs.d2d_copy(bytes) + costs.d2d_copy(bytes);
  for (const auto algorithm :
       {core::CollectiveAlgorithm::Ring, core::CollectiveAlgorithm::Hierarchical}) {
    const auto records = records_of(2, 2, core::CollectiveOp::Allreduce, algorithm);
    ASSERT_EQ(records.size(), 4u);
    for (const auto& r : records) {
      EXPECT_EQ((r.span - busy(r)).count_ns(), residue.count_ns())
          << r.algorithm << " rank " << r.rank;
    }
  }
}

TEST(Collectives, ZeroCountWithNullBuffers) {
  // MPI allows a zero count with any buffer, NULL included: no collective
  // may pass a null pointer to memcpy, under any forced algorithm. The
  // sanitizer build turns such a call into a failure.
  using core::CollectiveAlgorithm;
  const std::pair<int, int> topologies[] = {{1, 1}, {2, 1}, {2, 2}};
  for (auto [nodes, gpn] : topologies) {
    for (const CollectiveAlgorithm algorithm :
         {CollectiveAlgorithm::Auto, CollectiveAlgorithm::Linear, CollectiveAlgorithm::Ring,
          CollectiveAlgorithm::Hierarchical, CollectiveAlgorithm::BatchedPairwise}) {
      sim::Engine engine;
      mpi::WorldOptions opts;
      opts.collectives.forced.fill(algorithm);
      World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::mpc_opt(), opts);
      int done = 0;
      world.run([&](Rank& R) {
        const int last = R.size() - 1;
        R.bcast(nullptr, 0, last);
        R.allgather(nullptr, 0, nullptr);
        R.reduce(nullptr, nullptr, 0, mpi::ReduceOp::Sum, last);
        R.allreduce(nullptr, nullptr, 0, mpi::ReduceOp::Sum);
        R.reduce_scatter(nullptr, nullptr, 0, mpi::ReduceOp::Sum);
        R.alltoall(nullptr, 0, nullptr);
        R.gather(nullptr, 0, nullptr, last);
        R.scatter(nullptr, 0, nullptr, last);
        ++done;
      });
      EXPECT_EQ(done, nodes * gpn) << nodes << "x" << gpn << " "
                                   << core::collective_algorithm_name(algorithm);
    }
  }

  // Valid buffers: the eager reduce's accumulator is an empty vector, whose
  // data() is null.
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt());
  float result = -1.0f;
  world.run([&](Rank& R) {
    const float a = 1.0f;
    float b = -1.0f;
    R.reduce(&a, &b, 0, mpi::ReduceOp::Sum, 0);
    if (R.rank() == 0) result = b;
  });
  EXPECT_EQ(result, -1.0f);
}

}  // namespace
