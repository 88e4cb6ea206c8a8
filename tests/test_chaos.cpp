// Chaos integration tests: full MiniMPI traffic over a deterministic
// lossy/corrupting fabric with injected codec faults. The reliability
// contract under test: every message is either delivered bit-exactly
// (whatever it took — CRC-triggered NACKs, drop timeouts, raw-resend
// degradation) or completes with a clean RetryLimit error status. No
// hangs, no silent corruption, bounded retries.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::StatusError;
using mpi::World;
using sim::Time;

TEST(Chaos, LossyWirePt2PtSweepDeliversBitExact) {
  // Fig. 9-style pt2pt sweep (several sizes, both directions) but over a
  // fabric that drops 5% and corrupts 5% of the rendezvous data packets.
  fault::FaultInjector injector(fault::FaultPlan::lossy(20260806, 0.05, 0.05));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t sizes[] = {16384, 65536, 262144};  // floats: 64 KB .. 1 MB
  const int iters = 8;
  int messages = 0;

  world.run([&](Rank& R) {
    const int peer = 1 - R.rank();
    for (const std::size_t n : sizes) {
      const auto payload =
          data::generate("msg_sppm", n, /*seed=*/n ^ 0x9e37);
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      std::vector<float> rbuf(n);
      for (int it = 0; it < iters; ++it) {
        // Rank 0 sends on even iterations, rank 1 on odd ones.
        const bool sender = (it % 2 == 0) == (R.rank() == 0);
        if (sender) {
          R.send(dev, n * 4, peer, static_cast<int>(n % 1000) + it);
          ++messages;
        } else {
          std::memset(rbuf.data(), 0, n * 4);
          const auto st =
              R.recv(rbuf.data(), n * 4, peer, static_cast<int>(n % 1000) + it);
          ASSERT_TRUE(st.ok());
          ASSERT_EQ(st.bytes, n * 4);
          ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0)
              << "size " << n << " iter " << it;
        }
      }
      R.gpu_free(dev);
    }
  });

  // The chosen seed makes the fabric actually misbehave...
  const auto& fs = injector.stats();
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
  // ...and every fault was recovered by a bounded number of re-pushes.
  const auto summary = telemetry.summarize();
  EXPECT_GT(summary.retransmits, 0u);
  EXPECT_LE(summary.retransmits, fs.data_packets);
  EXPECT_EQ(summary.corruptions_detected, fs.corruptions);
}

TEST(Chaos, CollectivesUnderLossAndCorruption) {
  // Binomial-tree bcast + ring allgather (the compression-aware wire
  // forms) on real dataset payloads over a 3%/3% lossy fabric: every rank
  // must end with bit-identical data.
  fault::FaultInjector injector(fault::FaultPlan::lossy(777, 0.03, 0.03));
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  World world(engine, net::longhorn(2, 2), core::CompressionConfig::mpc_opt(), opts);
  const int P = world.size();

  const std::size_t n = 65536;  // 256 KB, well past the eager threshold
  const auto truth = data::generate("msg_sweep3d", n, 3);
  const std::size_t block = 16384;
  std::vector<std::vector<float>> gathered(static_cast<std::size_t>(P));

  world.run([&](Rank& R) {
    const int me = R.rank();
    // bcast from rank 0 out of device memory (compressed per hop).
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    if (me == 0) std::memcpy(dev, truth.data(), n * 4);
    R.bcast(dev, n * 4, 0);
    ASSERT_EQ(std::memcmp(dev, truth.data(), n * 4), 0) << "bcast diverged on rank " << me;

    // allgather of per-rank blocks (slices of the broadcast data).
    auto* sendblk = static_cast<float*>(R.gpu_malloc(block * 4));
    std::memcpy(sendblk, truth.data() + static_cast<std::size_t>(me) * block, block * 4);
    auto& all = gathered[static_cast<std::size_t>(me)];
    all.resize(block * static_cast<std::size_t>(P));
    R.allgather(sendblk, block * 4, all.data());
    R.gpu_free(sendblk);
    R.gpu_free(dev);
  });

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(gathered[static_cast<std::size_t>(r)].data(), truth.data(),
                          block * static_cast<std::size_t>(P) * 4),
              0)
        << "allgather diverged on rank " << r;
  }
  EXPECT_GT(injector.stats().data_packets, 0u);
}

TEST(Chaos, RingAllreduceUnderLossIsBitExactWithAccountedRetransmits) {
  // The collective engine's ring allreduce over a 4%/4% lossy fabric: every
  // hop is an independently CRC-verified rendezvous transfer, so a dropped
  // or corrupted hop re-pushes only its own chunk. The result must match
  // the fault-free run bit-for-bit AND the host oracle, and the fabric
  // accounting must close: every rendezvous data push is either one of the
  // ring's scheduled hops or a retransmission of one.
  const int nodes = 2, gpn = 2;
  const int P = nodes * gpn;
  const std::size_t n = 65536;  // 256 KB => 64 KB shards, all past threshold
  auto contribution = [n](int rank) {
    return data::generate("msg_sppm", n, 40 + static_cast<std::uint64_t>(rank));
  };

  auto run_ring = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives[core::CollectiveOp::Allreduce] = core::CollectiveAlgorithm::Ring;
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.threshold_bytes = 8 * 1024;
    World world(engine, net::longhorn(nodes, gpn), cfg, opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      const auto mine = contribution(R.rank());
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, mine.data(), n * 4);
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.resize(n);
      R.allreduce(dev, out.data(), n, mpi::ReduceOp::Sum);
      R.gpu_free(dev);
    });
    return outs;
  };

  const auto clean = run_ring(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xC4A05, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_ring(&injector, &telemetry);

  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < P; ++r) contribs.push_back(contribution(r));
  const auto oracle = core::allreduce_oracle(contribs, core::ReduceOp::Sum,
                                             core::CollectiveAlgorithm::Ring);
  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(), n * 4),
              0)
        << "lossy run diverged from fault-free run on rank " << r;
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(), oracle.data(), n * 4),
              0)
        << "lossy run diverged from the oracle on rank " << r;
  }

  // Accounting closure: the ring schedules 2*P*(P-1) non-empty shard hops
  // (P-1 reduce-scatter + P-1 allgather steps, P senders each, every shard
  // non-empty at this size); each is one rendezvous data push, plus one
  // push per retransmission. The plan corrupts only data packets (never
  // decompress kernels), so no local-retry path muddies the count.
  const auto& fs = injector.stats();
  const auto summary = telemetry.summarize();
  const std::uint64_t hops = 2ull * P * (P - 1);
  EXPECT_EQ(fs.data_packets, hops + summary.retransmits);
  EXPECT_GT(summary.retransmits, 0u) << "fault plan never fired; chaos path untested";
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
}

TEST(Chaos, BatchedAlltoallUnderLossIsBitExactWithAccountedRetransmits) {
  // The batched alltoall engine over a 4%/4% lossy fabric: every slab
  // slice is its own CRC-verified rendezvous transfer, so a dropped or
  // corrupted slice re-pushes only itself while the other P-2 in-flight
  // slices are untouched. The lossy run must match the fault-free run
  // bit-for-bit, and the packet accounting must close: P*(P-1) scheduled
  // slices plus one push per retransmission.
  const int nodes = 2, gpn = 2;
  const int P = nodes * gpn;
  const std::size_t bn = 65536;  // floats per destination block: 256 KB slices
  auto block = [bn](int src, int dst) {
    return data::generate("msg_sppm", bn,
                          90 + static_cast<std::uint64_t>(src) * 17u +
                              static_cast<std::uint64_t>(dst));
  };

  auto run_alltoall = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives[core::CollectiveOp::Alltoall] = core::CollectiveAlgorithm::BatchedPairwise;
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.threshold_bytes = 8 * 1024;
    World world(engine, net::longhorn(nodes, gpn), cfg, opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      auto* send =
          static_cast<float*>(R.gpu_malloc(bn * 4 * static_cast<std::size_t>(P)));
      for (int d = 0; d < P; ++d) {
        const auto b = block(R.rank(), d);
        std::memcpy(send + static_cast<std::size_t>(d) * bn, b.data(), bn * 4);
      }
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.assign(bn * static_cast<std::size_t>(P), -1.0f);
      R.alltoall(send, bn * 4, out.data());
      R.gpu_free(send);
    });
    return outs;
  };

  const auto clean = run_alltoall(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xA77A11, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_alltoall(&injector, &telemetry);

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(),
                          bn * 4 * static_cast<std::size_t>(P)),
              0)
        << "lossy alltoall diverged from fault-free run on rank " << r;
    for (int s = 0; s < P; ++s) {
      const auto expect = block(s, r);
      ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data() +
                                static_cast<std::size_t>(s) * bn,
                            expect.data(), bn * 4),
                0)
          << "rank " << r << " block from " << s << " corrupted";
    }
  }

  // Accounting closure: the scattered schedule moves exactly P*(P-1)
  // slices, each one rendezvous data push; the plan touches only data
  // packets, so every extra push is an accounted retransmission.
  const auto& fs = injector.stats();
  const auto summary = telemetry.summarize();
  const std::uint64_t scheduled = static_cast<std::uint64_t>(P) * (P - 1);
  EXPECT_EQ(fs.data_packets, scheduled + summary.retransmits);
  EXPECT_GT(summary.retransmits, 0u) << "fault plan never fired; chaos path untested";
  EXPECT_GT(fs.drops + fs.corruptions, 0u);
}

TEST(Chaos, HierarchicalBcastUnderLossIsBitExactWithTransitBudget) {
  // The hierarchical bcast (one inter-node wire transit per node, see
  // src/mpi/hier_engine.cpp) on 4 nodes x 4 GPUs over a 4%/4% lossy
  // fabric. Three rounds from different roots (a non-leader, a leader,
  // one on the last node) must deliver bit-exactly, and the split
  // inter-node accounting must close: the representative tree has exactly
  // nodes-1 IB edges per round and each edge needs exactly one SUCCESSFUL
  // delivery, so every extra inter-node push is an accounted drop or a
  // CRC-caught corruption (the two verdicts are exclusive per packet).
  const int nodes = 4, gpn = 4;
  const int P = nodes * gpn;
  const std::size_t n = 65536;  // 256 KB: rendezvous wire transits
  const int roots[] = {1, 4, 13};
  auto payload = [n](int round) {
    return data::generate("msg_sppm", n, 60 + static_cast<std::uint64_t>(round));
  };

  auto run_bcasts = [&](fault::FaultInjector* injector, core::Telemetry* telemetry) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = injector;
    opts.telemetry = telemetry;
    opts.collectives[core::CollectiveOp::Bcast] = core::CollectiveAlgorithm::Hierarchical;
    World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::mpc_opt(),
                opts);
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](Rank& R) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.resize(n * 3);
      for (int round = 0; round < 3; ++round) {
        const auto truth = payload(round);
        if (R.rank() == roots[round]) {
          std::memcpy(dev, truth.data(), n * 4);
        } else {
          std::memset(dev, 0, n * 4);
        }
        R.bcast(dev, n * 4, roots[round]);
        std::memcpy(out.data() + static_cast<std::size_t>(round) * n, dev, n * 4);
      }
      R.gpu_free(dev);
    });
    return outs;
  };

  const auto clean = run_bcasts(nullptr, nullptr);

  fault::FaultInjector injector(fault::FaultPlan::lossy(0xB0A57C, 0.04, 0.04));
  core::Telemetry telemetry;
  const auto lossy = run_bcasts(&injector, &telemetry);

  for (int r = 0; r < P; ++r) {
    ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data(),
                          clean[static_cast<std::size_t>(r)].data(), n * 3 * 4),
              0)
        << "lossy hierarchical bcast diverged from fault-free run on rank " << r;
    for (int round = 0; round < 3; ++round) {
      const auto truth = payload(round);
      ASSERT_EQ(std::memcmp(lossy[static_cast<std::size_t>(r)].data() +
                                static_cast<std::size_t>(round) * n,
                            truth.data(), n * 4),
                0)
          << "rank " << r << " round " << round << " corrupted";
    }
  }

  const auto& fs = injector.stats();
  EXPECT_EQ(fs.inter_node_data_packets,
            3ull * (nodes - 1) + fs.inter_node_drops + fs.inter_node_corruptions);
  EXPECT_GT(fs.inter_node_drops + fs.inter_node_corruptions, 0u)
      << "fault plan never hit an IB transit; budget accounting untested";
  EXPECT_GT(telemetry.summarize().retransmits, 0u);
}

TEST(Chaos, CompressionKernelFaultsDegradeToRaw) {
  // Every compression kernel launch fails: all rendezvous messages fall
  // back to raw sends, delivery stays bit-exact, telemetry records the
  // faults.
  fault::FaultInjector injector(fault::FaultPlan::flaky_codec(11, 1.0));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 65536;
  const auto payload = data::generate("obs_error", n, 4);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      for (int i = 0; i < 4; ++i) R.send(dev, n * 4, 1, i);
      R.gpu_free(dev);
    } else {
      std::vector<float> rbuf(n);
      for (int i = 0; i < 4; ++i) {
        const auto st = R.recv(rbuf.data(), n * 4, 0, i);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0);
      }
    }
  });

  const auto summary = telemetry.summarize();
  EXPECT_EQ(summary.codec_faults, 4u);
  EXPECT_EQ(summary.compressions, 0u);  // no kernel ever succeeded
  EXPECT_EQ(world.compression_of(0).stats().codec_faults, 4u);
  EXPECT_EQ(world.compression_of(0).stats().messages_fallback_raw, 4u);
}

// --- one reliability contract, three transfer kinds ----------------------
//
// Serial rendezvous, pipelined chunks, and warm-channel messages all ride
// the same per-segment cycle (push, CRC check, NACK or watchdog, raw
// degrade, RetryLimit); these tests hold every kind to the same contract.

enum class TransferKind { Serial, Pipelined, Warm };

constexpr std::size_t kKindValues = 1 << 16;  // 256 KiB of floats: rendezvous
constexpr int kKindMessages = 6;

/// Segments one message of kKindValues floats moves as under `kind`.
std::uint64_t segments_per_message(TransferKind kind) {
  return kind == TransferKind::Pipelined ? 4 : 1;
}

/// Options that route a device-resident kKindValues send through `kind`.
mpi::WorldOptions kind_options(TransferKind kind) {
  mpi::WorldOptions o;
  if (kind == TransferKind::Pipelined) {
    o.pipeline.enabled = true;
    o.pipeline.min_bytes = 128ull << 10;
    o.pipeline.chunk_bytes = 64ull << 10;  // four chunks per message
  }
  o.persistent.enabled = kind == TransferKind::Warm;
  return o;
}

/// Distinct contents per message, so a receive handed the wrong message
/// cannot pass the bit-exact check.
std::vector<float> kind_payload(int message) {
  return data::smooth_field(kKindValues, 1e-4, 100 + static_cast<std::uint64_t>(message));
}

class ChaosByKind : public ::testing::TestWithParam<TransferKind> {};

TEST_P(ChaosByKind, RetryLimitCompletesWithCleanErrorStatus) {
  // One message of a same-tag stream crosses a black-hole link (100% drop).
  // It must not hang: every segment is pushed exactly max_data_retries + 1
  // times, then both sides complete with RetryLimit. The link then heals
  // and every later message lands bit-exactly on its own receive. For the
  // warm kind the failing message rides a warm channel (message 0 warmed it).
  const TransferKind kind = GetParam();
  constexpr int kFailing = 3;
  const fault::FaultPlan clean = fault::FaultPlan::lossy(5, 0.0, 0.0);
  fault::FaultInjector injector(clean);
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts = kind_options(kind);
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  opts.max_data_retries = 2;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::uint64_t bytes = kKindValues * 4;
  std::vector<mpi::Status> sent(kKindMessages), got(kKindMessages);
  fault::FaultStats black_hole;
  auto warm_sends = [&world] {
    return world.channels().empty() ? 0u : world.channels().begin()->second.warm_sends;
  };
  std::uint64_t failing_warm_sends = 0;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(bytes));
    std::vector<float> rbuf(kKindValues);
    for (int m = 0; m < kKindMessages; ++m) {
      const auto payload = kind_payload(m);
      if (R.rank() == 0) {
        std::memcpy(dev, payload.data(), bytes);
        const std::uint64_t warm_before = warm_sends();
        if (m == kFailing) injector = fault::FaultInjector(fault::FaultPlan::lossy(5, 1.0, 0.0));
        auto req = R.isend(dev, bytes, 1, 7);
        sent[static_cast<std::size_t>(m)] = R.wait(req);
        if (m == kFailing) {
          black_hole = injector.stats();
          failing_warm_sends = warm_sends() - warm_before;
          injector = fault::FaultInjector(clean);
        }
      } else {
        std::memset(rbuf.data(), 0, bytes);
        const auto st = R.recv(rbuf.data(), bytes, 0, 7);
        got[static_cast<std::size_t>(m)] = st;
        if (st.ok()) {
          EXPECT_EQ(std::memcmp(rbuf.data(), payload.data(), bytes), 0) << "message " << m;
        }
      }
    }
    R.gpu_free(dev);
  });

  for (int m = 0; m < kKindMessages; ++m) {
    const auto& s = sent[static_cast<std::size_t>(m)];
    const auto& r = got[static_cast<std::size_t>(m)];
    const StatusError want = m == kFailing ? StatusError::RetryLimit : StatusError::None;
    EXPECT_EQ(s.error, want) << "message " << m;
    EXPECT_EQ(r.error, want) << "message " << m;
    EXPECT_EQ(r.bytes, m == kFailing ? 0u : bytes) << "message " << m;
  }
  // 1 initial push + max_data_retries re-pushes per segment, not one more.
  const std::uint64_t pushes = segments_per_message(kind) * 3;
  EXPECT_EQ(black_hole.data_packets, pushes);
  EXPECT_EQ(black_hole.drops, pushes);
  EXPECT_EQ(telemetry.summarize().retransmits, segments_per_message(kind) * 2);
  EXPECT_EQ(failing_warm_sends, kind == TransferKind::Warm ? 1u : 0u);
  if (kind == TransferKind::Warm) {
    // The failure demoted the channel; a later cold exchange re-warmed it.
    ASSERT_EQ(world.channels().size(), 1u);
    EXPECT_TRUE(world.channels().begin()->second.warm);
  }
}

TEST_P(ChaosByKind, DecompressionFaultsTriggerRawResend) {
  // The receiver's decompression kernel always fails. Protocol-level
  // recovery: NACK(decode_fail) -> the sender re-pushes that segment from
  // the original user buffer raw -> delivery completes bit-exactly
  // without decompression. Exactly one fault and one NACK per segment.
  const TransferKind kind = GetParam();
  fault::FaultPlan plan;
  plan.seed = 13;
  plan.decompress_fail_probability = 1.0;
  fault::FaultInjector injector(plan);
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts = kind_options(kind);
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::uint64_t bytes = kKindValues * 4;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(bytes));
    std::vector<float> rbuf(kKindValues);
    for (int m = 0; m < kKindMessages; ++m) {
      const auto payload = kind_payload(m);
      if (R.rank() == 0) {
        std::memcpy(dev, payload.data(), bytes);
        R.send(dev, bytes, 1, 1);
      } else {
        std::memset(rbuf.data(), 0, bytes);
        const auto st = R.recv(rbuf.data(), bytes, 0, 1);
        ASSERT_TRUE(st.ok()) << "message " << m;
        ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), bytes), 0) << "message " << m;
      }
    }
    R.gpu_free(dev);
  });

  const std::uint64_t segments = segments_per_message(kind) * kKindMessages;
  const auto summary = telemetry.summarize();
  EXPECT_EQ(summary.codec_faults, segments);  // one failed decompress each
  EXPECT_EQ(summary.retransmits, segments);   // one decode_fail NACK -> raw resend
  EXPECT_EQ(injector.stats().decompress_faults, segments);
  if (kind == TransferKind::Warm) {
    ASSERT_EQ(world.channels().size(), 1u);
    const auto& ch = world.channels().begin()->second;
    EXPECT_GT(ch.warm_sends, 0u);
    EXPECT_EQ(ch.raw_degrades, ch.warm_sends);  // each warm message degraded alone
    EXPECT_TRUE(ch.warm);
  }
}

INSTANTIATE_TEST_SUITE_P(Transfer, ChaosByKind,
                         ::testing::Values(TransferKind::Serial, TransferKind::Pipelined,
                                           TransferKind::Warm),
                         [](const ::testing::TestParamInfo<TransferKind>& info) {
                           switch (info.param) {
                             case TransferKind::Serial: return std::string("serial");
                             case TransferKind::Pipelined: return std::string("pipelined");
                             case TransferKind::Warm: return std::string("warm");
                           }
                           return std::string("unknown");
                         });

}  // namespace
