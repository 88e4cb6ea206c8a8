// FaultInjector unit tests: deterministic scheduling (same seed => same
// verdict sequence, independent of interleaving), statistical sanity of
// the fault rates, link-state windows through the Fabric, and the codec
// fault streams.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "net/cluster.hpp"

namespace {

using namespace gcmpi;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::PacketFault;
using sim::Time;

std::vector<PacketFault> schedule(FaultInjector& inj, int src, int dst, int n) {
  std::vector<PacketFault> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(inj.on_data_packet(src, dst));
  return out;
}

bool same_verdicts(const std::vector<PacketFault>& a, const std::vector<PacketFault>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drop != b[i].drop || a[i].corrupt != b[i].corrupt ||
        a[i].corrupt_bits != b[i].corrupt_bits ||
        a[i].extra_latency != b[i].extra_latency) {
      return false;
    }
  }
  return true;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultPlan plan = FaultPlan::lossy(42, 0.1, 0.05);
  FaultInjector a(plan), b(plan);
  EXPECT_TRUE(same_verdicts(schedule(a, 0, 1, 500), schedule(b, 0, 1, 500)));
  EXPECT_TRUE(same_verdicts(schedule(a, 3, 2, 500), schedule(b, 3, 2, 500)));
}

TEST(FaultInjector, DifferentSeedsDifferentSchedules) {
  FaultInjector a(FaultPlan::lossy(1, 0.1, 0.05));
  FaultInjector b(FaultPlan::lossy(2, 0.1, 0.05));
  EXPECT_FALSE(same_verdicts(schedule(a, 0, 1, 500), schedule(b, 0, 1, 500)));
}

TEST(FaultInjector, LinksAreIndependentStreams) {
  // The verdicts for link 0->1 must not change when traffic on other links
  // is interleaved between its packets: each (kind, src, dst) stream has
  // its own counter.
  const FaultPlan plan = FaultPlan::lossy(7, 0.2, 0.1);
  FaultInjector solo(plan);
  const auto expected = schedule(solo, 0, 1, 300);

  FaultInjector interleaved(plan);
  std::vector<PacketFault> got;
  for (int i = 0; i < 300; ++i) {
    (void)interleaved.on_data_packet(2, 3);  // noise on another link
    got.push_back(interleaved.on_data_packet(0, 1));
    (void)interleaved.on_data_packet(1, 0);  // reverse direction is separate too
  }
  EXPECT_TRUE(same_verdicts(expected, got));
}

TEST(FaultInjector, RatesApproximateProbabilities) {
  FaultInjector inj(FaultPlan::lossy(1234, 0.05, 0.03));
  const int n = 20'000;
  (void)schedule(inj, 0, 1, n);
  const auto& s = inj.stats();
  EXPECT_EQ(s.data_packets, static_cast<std::uint64_t>(n));
  // 3-sigma band around the expected counts.
  EXPECT_NEAR(static_cast<double>(s.drops), 0.05 * n, 3 * std::sqrt(0.05 * 0.95 * n));
  // Corruption draws only happen on non-dropped packets (~0.95 * n of them).
  EXPECT_NEAR(static_cast<double>(s.corruptions), 0.03 * 0.95 * n,
              3 * std::sqrt(0.03 * 0.97 * n));
}

TEST(FaultInjector, DropPrecludesCorruptionOnSamePacket) {
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.corrupt_probability = 1.0;
  FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    const auto f = inj.on_data_packet(0, 1);
    EXPECT_TRUE(f.drop);
    EXPECT_FALSE(f.corrupt);
  }
}

TEST(FaultInjector, CertainLatencySpikeAlwaysFires) {
  FaultPlan plan;
  plan.latency_spike_probability = 1.0;
  plan.latency_spike = Time::us(50);
  FaultInjector inj(plan);
  EXPECT_EQ(inj.timing_fault(0, 1), Time::us(50));
  const auto f = inj.on_data_packet(0, 1);
  EXPECT_EQ(f.extra_latency, Time::us(50));
  EXPECT_FALSE(f.drop);
  EXPECT_FALSE(f.corrupt);
}

TEST(FaultInjector, IdlePlanIsTransparent) {
  // With every probability zero, no draws are consumed and every verdict
  // is clean — the injector is a pure pass-through.
  FaultInjector inj(FaultPlan{});
  for (int i = 0; i < 100; ++i) {
    const auto f = inj.on_data_packet(0, 1);
    EXPECT_FALSE(f.drop);
    EXPECT_FALSE(f.corrupt);
    EXPECT_EQ(f.extra_latency, Time::zero());
    EXPECT_EQ(inj.timing_fault(0, 1), Time::zero());
    EXPECT_FALSE(inj.on_decompress(0));
    EXPECT_FALSE(inj.on_compress(0).any());
  }
  EXPECT_EQ(inj.stats().drops, 0u);
  EXPECT_EQ(inj.stats().corruptions, 0u);
  EXPECT_EQ(inj.stats().latency_spikes, 0u);
}

TEST(FaultInjector, CodecFaultStreams) {
  FaultPlan plan;
  plan.compress_fail_probability = 1.0;
  plan.decompress_fail_probability = 1.0;
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.on_compress(0).fail);
  EXPECT_TRUE(inj.on_decompress(0));
  EXPECT_EQ(inj.stats().compress_faults, 1u);
  EXPECT_EQ(inj.stats().decompress_faults, 1u);

  FaultPlan trunc;
  trunc.compress_truncate_probability = 1.0;
  FaultInjector inj2(trunc);
  const auto f = inj2.on_compress(3);
  EXPECT_FALSE(f.fail);
  EXPECT_TRUE(f.truncate);
}

TEST(FaultInjector, CodecRatesApproximateProbability) {
  FaultPlan plan;
  plan.decompress_fail_probability = 0.1;
  FaultInjector inj(plan);
  const int n = 20'000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += inj.on_decompress(2) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits), 0.1 * n, 3 * std::sqrt(0.1 * 0.9 * n));
}

TEST(FaultInjector, DroppedDataPacketsStillOccupyPorts) {
  // A dropped rendezvous payload was transmitted and then lost: the ports
  // stay busy, so a later packet queues behind it exactly as if delivered.
  FaultPlan plan;
  plan.drop_probability = 1.0;
  fault::FaultInjector inj(plan);
  const net::ClusterSpec c = net::longhorn(2, 1);
  net::Fabric fabric(c);
  fabric.set_fault_injector(&inj);

  const std::uint64_t bytes = 12'500'000;  // ~1 ms each
  const auto first = fabric.transfer_data(Time::zero(), 0, 1, bytes);
  EXPECT_TRUE(first.dropped);
  const auto second = fabric.transfer_data(Time::zero(), 0, 1, bytes);
  EXPECT_GT(second.at, first.at);  // queued behind the lost packet
}

}  // namespace
