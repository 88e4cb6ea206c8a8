// End-to-end integration tests across the whole stack: the paper's headline
// qualitative results must hold on the simulated clusters.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::World;
using sim::Time;

/// osu_latency's one-way latency of `payload` from rank 0 to rank 1.
Time latency(const net::ClusterSpec& cluster, core::CompressionConfig cfg,
             const std::vector<float>& payload) {
  return bench::ping_pong(cluster, std::move(cfg), payload, /*warmup=*/false).one_way;
}

class InterNodeLatency : public ::testing::TestWithParam<std::size_t> {};

TEST_P(InterNodeLatency, Fig9ShapeOnLonghorn) {
  const std::size_t bytes = GetParam();
  const auto payload = data::plateau_field(bytes / 4, 200, 256, 31);  // OMB-style dummy data
  const auto cluster = net::longhorn(2, 1);

  const Time base = latency(cluster, core::CompressionConfig::off(), payload);
  const Time mpc = latency(cluster, core::CompressionConfig::mpc_opt(), payload);
  const Time zfp4 = latency(cluster, core::CompressionConfig::zfp_opt(4), payload);

  if (bytes >= (4u << 20)) {
    // Fig. 9(a): MPC-OPT and ZFP-OPT(4) both beat the baseline at >= 4MB.
    EXPECT_LT(mpc, base) << bytes;
    EXPECT_LT(zfp4, base) << bytes;
    // ZFP rate 4 (CR 8) beats MPC on these CR~2-3 datasets.
    EXPECT_LT(zfp4, mpc) << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InterNodeLatency,
                         ::testing::Values(std::size_t{1} << 20, std::size_t{4} << 20,
                                           std::size_t{16} << 20, std::size_t{32} << 20));

TEST(Integration, NaiveIntegrationIsWorseThanBaseline) {
  // Fig. 5: the naive integration's overheads outweigh the reduced wire
  // time at small-to-medium sizes.
  const std::size_t bytes = 1u << 20;
  const auto payload = data::smooth_field(bytes / 4, 1e-4, 3);
  const auto cluster = net::longhorn(2, 1);
  const Time base = latency(cluster, core::CompressionConfig::off(), payload);
  const Time naive_mpc = latency(cluster, core::CompressionConfig::mpc_naive(), payload);
  const Time naive_zfp = latency(cluster, core::CompressionConfig::zfp_naive(16), payload);
  EXPECT_GT(naive_mpc, base);
  EXPECT_GT(naive_zfp, base);
  // ... and the OPT schemes fix it (4x claim of Fig. 6 at larger sizes).
  const Time opt_mpc = latency(cluster, core::CompressionConfig::mpc_opt(), payload);
  EXPECT_LT(opt_mpc, naive_mpc);
}

TEST(Integration, NvlinkMakesMpcUnprofitable) {
  // Fig. 9(c): on 75 GB/s NVLink, MPC-OPT does not pay off at any size up
  // to 32MB; ZFP-OPT(4) only wins for large messages.
  const std::size_t bytes = 8u << 20;
  const auto payload = data::plateau_field(bytes / 4, 200, 256, 5);
  const auto cluster = net::longhorn(1, 2);  // intra-node pair
  const Time base = latency(cluster, core::CompressionConfig::off(), payload);
  const Time mpc = latency(cluster, core::CompressionConfig::mpc_opt(), payload);
  EXPECT_GT(mpc, base);
}

TEST(Integration, PcieIntraNodeBenefitsFromCompression) {
  // Fig. 9(d): the PCIe link is slower than the compression pipeline, so
  // both schemes win intra-node on Frontera.
  const std::size_t bytes = 16u << 20;
  const auto payload = data::plateau_field(bytes / 4, 200, 256, 5);
  const auto cluster = net::frontera_liquid(1, 2);
  const Time base = latency(cluster, core::CompressionConfig::off(), payload);
  const Time mpc = latency(cluster, core::CompressionConfig::mpc_opt(), payload);
  const Time zfp = latency(cluster, core::CompressionConfig::zfp_opt(4), payload);
  EXPECT_LT(mpc, base);
  EXPECT_LT(zfp, base);
}

TEST(Integration, LowerZfpRateLowerLatency) {
  const std::size_t bytes = 16u << 20;
  const auto payload = data::smooth_field(bytes / 4, 1e-4, 9);
  const auto cluster = net::frontera_liquid(2, 1);
  const Time r16 = latency(cluster, core::CompressionConfig::zfp_opt(16), payload);
  const Time r8 = latency(cluster, core::CompressionConfig::zfp_opt(8), payload);
  const Time r4 = latency(cluster, core::CompressionConfig::zfp_opt(4), payload);
  EXPECT_LT(r8, r16);
  EXPECT_LT(r4, r8);
}

TEST(Integration, BelowThresholdIsUntouched) {
  const std::size_t bytes = 128u << 10;  // below the 256KB default threshold
  const auto payload = data::smooth_field(bytes / 4, 1e-4, 2);
  const auto cluster = net::longhorn(2, 1);
  sim::Engine engine;
  World world(engine, cluster, core::CompressionConfig::mpc_opt());
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(bytes));
    std::memcpy(dev, payload.data(), bytes);
    if (R.rank() == 0) {
      R.send(dev, bytes, 1, 1);
      EXPECT_EQ(R.compression().stats().messages_compressed, 0u);
    } else {
      R.recv(dev, bytes, 0, 1);
      EXPECT_EQ(std::memcmp(dev, payload.data(), bytes), 0);
    }
    R.gpu_free(dev);
  });
}

}  // namespace
