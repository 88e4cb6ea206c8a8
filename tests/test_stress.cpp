// Stress and property tests across the stack: engine determinism under
// many actors, randomized MPI traffic soak (every message delivered
// exactly once, unmodified, in per-pair order), fabric monotonicity, and
// full-matrix compression-config sweeps through the manager.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/manager.hpp"
#include "data/datasets.hpp"
#include "mpi/world.hpp"
#include "sim/rng.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::World;
using sim::Time;

TEST(Stress, ManyActorsDeterministicFinishTime) {
  auto run_once = [] {
    sim::Engine engine;
    sim::Rng rng(99);
    for (int a = 0; a < 64; ++a) {
      const int hops = 1 + static_cast<int>(rng.next_below(20));
      std::string name = "a";
      name += std::to_string(a);
      engine.spawn(name, [hops](sim::ActorContext& ctx) {
        for (int h = 0; h < hops; ++h) ctx.advance(Time::us(3 + h));
      });
    }
    engine.run();
    return engine.now();
  };
  const Time first = run_once();
  const Time second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, Time::zero());
}

TEST(Stress, RandomTrafficSoakDeliversEverythingInOrder) {
  // 6 ranks; every rank sends a random schedule of messages (mixed eager /
  // rendezvous sizes) to random peers. Receivers drain with wildcard
  // receives; contents encode (src, sequence) so ordering and integrity
  // are checkable.
  const int P = 6;
  const int kPerRank = 25;
  sim::Engine engine;
  World world(engine, net::longhorn(P / 2, 2), core::CompressionConfig::off());

  // Plan the traffic deterministically up front.
  sim::Rng rng(7);
  std::vector<std::vector<std::pair<int, std::size_t>>> plan(P);  // (dst, floats)
  std::vector<int> expected_counts(P, 0);
  for (int s = 0; s < P; ++s) {
    for (int m = 0; m < kPerRank; ++m) {
      const int dst = static_cast<int>(rng.next_below(P - 1));
      const int real_dst = dst >= s ? dst + 1 : dst;  // never self
      const bool big = rng.next_double() < 0.3;
      const std::size_t n = big ? 8192 + rng.next_below(8192) : 4 + rng.next_below(512);
      plan[static_cast<std::size_t>(s)].emplace_back(real_dst, n);
      ++expected_counts[static_cast<std::size_t>(real_dst)];
    }
  }

  std::vector<std::map<int, std::vector<int>>> received_seqs(P);  // dst -> src -> seqs
  int integrity_failures = 0;

  world.run([&](Rank& R) {
    const int me = R.rank();
    std::vector<mpi::Request> sends;
    std::vector<std::vector<float>> live_buffers;
    int seq = 0;
    for (const auto& [dst, n] : plan[static_cast<std::size_t>(me)]) {
      live_buffers.emplace_back(n);
      auto& buf = live_buffers.back();
      buf[0] = static_cast<float>(me);
      buf[1] = static_cast<float>(seq);
      for (std::size_t i = 2; i < n; ++i) buf[i] = static_cast<float>(me * 1000 + seq);
      sends.push_back(R.isend(buf.data(), n * 4, dst, 1));
      ++seq;
    }
    std::vector<float> rbuf(8192 + 8192 + 16);
    for (int m = 0; m < expected_counts[static_cast<std::size_t>(me)]; ++m) {
      const auto st = R.recv(rbuf.data(), rbuf.size() * 4, mpi::kAnySource, 1);
      const int src = static_cast<int>(rbuf[0]);
      const int got_seq = static_cast<int>(rbuf[1]);
      if (src != st.source) ++integrity_failures;
      const std::size_t n = st.bytes / 4;
      for (std::size_t i = 2; i < n; ++i) {
        if (rbuf[i] != static_cast<float>(src * 1000 + got_seq)) {
          ++integrity_failures;
          break;
        }
      }
      received_seqs[static_cast<std::size_t>(me)][src].push_back(got_seq);
    }
    R.waitall(sends);
  });

  EXPECT_EQ(integrity_failures, 0);
  // Per (src,dst) pair: sequence numbers strictly increase (no overtaking)
  // and every planned message arrived exactly once.
  int total = 0;
  for (int dstv = 0; dstv < P; ++dstv) {
    for (const auto& [src, seqs] : received_seqs[static_cast<std::size_t>(dstv)]) {
      (void)src;
      for (std::size_t i = 1; i < seqs.size(); ++i) {
        EXPECT_LT(seqs[i - 1], seqs[i]);
      }
      total += static_cast<int>(seqs.size());
    }
  }
  EXPECT_EQ(total, P * kPerRank);
}

TEST(Stress, RandomTrafficWithCompressionIsLossless) {
  const int P = 4;
  sim::Engine engine;
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.threshold_bytes = 16 * 1024;
  World world(engine, net::frontera_liquid(P, 1), cfg);
  int mismatches = 0;
  world.run([&](Rank& R) {
    const int right = (R.rank() + 1) % P;
    const int left = (R.rank() - 1 + P) % P;
    for (int round = 0; round < 5; ++round) {
      const std::size_t n = 8192 << (round % 3);
      const auto data = data::generate("msg_sweep3d", n,
                                       static_cast<std::uint64_t>(R.rank() * 10 + round));
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      auto* rdev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, data.data(), n * 4);
      R.sendrecv(dev, n * 4, right, round, rdev, n * 4, left, round);
      const auto expect = data::generate("msg_sweep3d", n,
                                         static_cast<std::uint64_t>(left * 10 + round));
      if (std::memcmp(rdev, expect.data(), n * 4) != 0) ++mismatches;
      R.gpu_free(dev);
      R.gpu_free(rdev);
    }
  });
  EXPECT_EQ(mismatches, 0);
}

TEST(Stress, FabricTimesAreMonotonicUnderLoad) {
  net::Fabric fabric(net::longhorn(4, 2));
  sim::Rng rng(3);
  Time prev_arrival = Time::zero();
  Time now = Time::zero();
  for (int i = 0; i < 500; ++i) {
    const int src = static_cast<int>(rng.next_below(8));
    int dst = static_cast<int>(rng.next_below(8));
    if (dst == src) dst = (dst + 1) % 8;
    now += Time::us(static_cast<double>(rng.next_below(5)));
    const Time arrival = fabric.transfer(now, src, dst, 1 + rng.next_below(1 << 20));
    EXPECT_GE(arrival, now);  // arrivals never precede departure
    (void)prev_arrival;
    prev_arrival = arrival;
  }
  EXPECT_GT(fabric.bytes_moved(), 0u);
}

class ManagerConfigMatrix : public ::testing::TestWithParam<int> {};

TEST_P(ManagerConfigMatrix, EveryToggleComboRoundTripsLosslessly) {
  // 4 toggle bits: pool, gdrcopy, partitions, attribute cache (the attr
  // cache only matters for ZFP, still exercised for coverage).
  const int bits = GetParam();
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.use_buffer_pool = (bits & 1) != 0;
  cfg.use_gdrcopy = (bits & 2) != 0;
  cfg.multi_stream_partitions = (bits & 4) != 0;
  cfg.cache_device_attributes = (bits & 8) != 0;

  gpu::Gpu gpu(gpu::v100_spec());
  core::CompressionManager mgr(gpu, cfg);
  const std::size_t n = (1u << 20) / 4;
  const auto data = data::generate("msg_lu", n);
  auto* dev = static_cast<float*>(gpu.malloc_device_untimed(n * 4));
  std::memcpy(dev, data.data(), n * 4);

  sim::Timeline tl(Time::zero());
  const core::CompressionManager::Message msg{dev, n * 4};
  auto sent = mgr.launch(tl, {&msg, 1}, core::CompressionManager::Placement::message());
  mgr.finish(tl, sent);
  const auto& wire = sent.wires[0];
  std::vector<std::uint8_t> staged(static_cast<const std::uint8_t*>(wire.data),
                                   static_cast<const std::uint8_t*>(wire.data) + wire.bytes);
  const auto header = wire.header;
  mgr.release(tl, sent.staging);
  ASSERT_TRUE(header.compressed);

  std::vector<float> out(n);
  auto staging = mgr.prepare_receive(tl, header);
  std::memcpy(staging.data, staged.data(), staged.size());
  mgr.decode(tl, header, staging.data, out.data(), n * 4, std::nullopt,
             core::CompressionManager::Placement::message());
  mgr.release(tl, staging);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), n * 4), 0) << "toggle bits " << bits;
  EXPECT_GT(tl.now(), Time::zero());
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombos, ManagerConfigMatrix, ::testing::Range(0, 16));

TEST(Stress, CollectivesComposeAcrossRounds) {
  // Interleave different collectives over several rounds on 6 ranks; any
  // tag/matching leak between them would deadlock or corrupt data.
  sim::Engine engine;
  World world(engine, net::longhorn(3, 2), core::CompressionConfig::off());
  int failures = 0;
  world.run([&](Rank& R) {
    const int P = R.size();
    for (int round = 0; round < 4; ++round) {
      float v = static_cast<float>(R.rank() + round);
      float sum = 0;
      R.allreduce(&v, &sum, 1, mpi::ReduceOp::Sum);
      const float expect_sum = static_cast<float>(P * (P - 1) / 2 + P * round);
      if (sum != expect_sum) ++failures;

      std::vector<float> block(64, v);
      std::vector<float> all(64 * static_cast<std::size_t>(P));
      R.allgather(block.data(), 64 * 4, all.data());
      if (all[0] != static_cast<float>(round)) ++failures;

      R.barrier();
      float root_val = R.rank() == round % P ? 123.0f + static_cast<float>(round) : 0.0f;
      R.bcast(&root_val, 4, round % P);
      if (root_val != 123.0f + static_cast<float>(round)) ++failures;
    }
  });
  EXPECT_EQ(failures, 0);
}

}  // namespace
