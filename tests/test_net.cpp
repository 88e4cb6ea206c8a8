// Network fabric tests: link cost arithmetic, port serialization
// (contention), intra- vs inter-node routing, cluster presets.
#include <gtest/gtest.h>

#include "net/cluster.hpp"
#include "net/link.hpp"

namespace {

using namespace gcmpi::net;
using gcmpi::sim::Time;

TEST(Link, WireTimeMatchesBandwidth) {
  const LinkSpec edr = ib_edr();
  EXPECT_EQ(edr.wire_time(12'500'000), Time::ms(1));  // 12.5 MB at 12.5 GB/s
  EXPECT_EQ(edr.wire_time(0), Time::zero());
}

TEST(Link, PresetsAreOrderedByGeneration) {
  EXPECT_GT(ib_edr().bandwidth_gbs, ib_fdr().bandwidth_gbs);
  EXPECT_GT(nvlink3().bandwidth_gbs, ib_edr().bandwidth_gbs);
}

TEST(Cluster, RankToNodeMapping) {
  const ClusterSpec c = longhorn(4, 2);
  EXPECT_EQ(c.ranks(), 8);
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(1), 0);
  EXPECT_EQ(c.node_of(2), 1);
  EXPECT_TRUE(c.same_node(0, 1));
  EXPECT_FALSE(c.same_node(1, 2));
}

TEST(Fabric, InterNodeUsesIbIntraUsesNvlink) {
  const ClusterSpec c = longhorn(2, 2);
  Fabric fabric(c);
  const std::uint64_t bytes = 10 << 20;
  const Time inter = fabric.transfer(Time::zero(), 0, 2, bytes);
  Fabric fabric2(c);
  const Time intra = fabric2.transfer(Time::zero(), 0, 1, bytes);
  EXPECT_LT(intra, inter);  // NVLink is ~6x faster than EDR
  const double ratio = static_cast<double>(inter.count_ns()) / intra.count_ns();
  EXPECT_NEAR(ratio, 75.0 / 12.5, 1.0);
}

TEST(Fabric, SelfSendIsFree) {
  Fabric fabric(longhorn(2, 1));
  EXPECT_EQ(fabric.transfer(Time::us(5), 0, 0, 1 << 20), Time::us(5));
}

TEST(Fabric, TransfersSerializeOnSharedNic) {
  const ClusterSpec c = longhorn(2, 2);  // ranks 0,1 on node 0 share the HCA
  Fabric fabric(c);
  const std::uint64_t bytes = 12'500'000;  // 1ms of wire each
  const Time a = fabric.transfer(Time::zero(), 0, 2, bytes);
  const Time b = fabric.transfer(Time::zero(), 1, 3, bytes);
  // Second transfer queues behind the first on the node-0 egress port.
  EXPECT_GT(b, a);
  EXPECT_NEAR(static_cast<double>((b - a).count_ns()), 1e6, 1e4);
}

TEST(Fabric, IntraNodeLinksAreIndependentPerGpuPair) {
  const ClusterSpec c = longhorn(1, 4);
  Fabric fabric(c);
  const std::uint64_t bytes = 75'000'000;  // 1ms on NVLink
  const Time a = fabric.transfer(Time::zero(), 0, 1, bytes);
  const Time b = fabric.transfer(Time::zero(), 2, 3, bytes);
  EXPECT_EQ(a, b);  // distinct GPU pairs do not contend
}

TEST(Fabric, LatencyAddsAfterSerialization) {
  const ClusterSpec c = longhorn(2, 1);
  Fabric fabric(c);
  const Time t = fabric.transfer(Time::zero(), 0, 1, 0);
  EXPECT_EQ(t, c.inter.latency + c.inter.per_message_overhead);
}

TEST(Fabric, BytesMovedAccounting) {
  Fabric fabric(longhorn(2, 1));
  (void)fabric.transfer(Time::zero(), 0, 1, 1000);
  (void)fabric.control(Time::zero(), 1, 0);
  EXPECT_EQ(fabric.bytes_moved(), 1064u);
}

TEST(Cluster, PresetsHaveExpectedHardware) {
  EXPECT_EQ(std::string(frontera_liquid(2, 2).gpu.name), "Quadro RTX 5000");
  EXPECT_EQ(frontera_liquid(2, 2).inter.name, "InfiniBand FDR");
  EXPECT_EQ(longhorn(2, 2).intra.name, "NVLink 3-lane");
  EXPECT_EQ(ri2(2, 1).intra.name, "PCIe Gen3 x16");
  EXPECT_EQ(lassen(2, 4).inter.name, "InfiniBand EDR");
}

TEST(Fabric, BadDimensionsRejected) {
  ClusterSpec c = longhorn(0, 1);
  EXPECT_THROW(Fabric{c}, std::invalid_argument);
}

}  // namespace
