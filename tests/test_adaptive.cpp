// Adaptive control-plane tests (the paper's Sec. IX closed loop): decision
// determinism across reruns, convergence to the best fixed codec on a
// stationary workload, codec quarantine under an injected fault storm, and
// the all-ranks-agree contract for adaptive collective selection, plus
// pinned digests of the codec decisions and of every adaptive collective
// decision.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "support/sha256.hpp"
#include "support/world_dump.hpp"

namespace {

using namespace gcmpi;
using adapt::AdaptiveController;
using adapt::AdaptiveOptions;
using core::Telemetry;

// IB EDR's ~12.5 GB/s effective inter-node bandwidth — the same figure the
// static DynamicSelector tests use, so prior and fabric roughly agree.
constexpr double kNetworkGbs = 12.5;

struct StreamResult {
  sim::Time elapsed = sim::Time::zero();
  std::vector<float> received;
};

/// Rank 0 streams `iters` copies of `payload` to rank 1 over the two-node
/// Longhorn fabric; returns final virtual time and the last received copy.
StreamResult run_p2p_stream(const core::CompressionConfig& cfg,
                            AdaptiveController* controller, Telemetry* telemetry,
                            fault::FaultInjector* injector,
                            const std::vector<float>& payload, int iters) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.telemetry = telemetry;
  opts.fault = injector;
  opts.adaptive = controller;
  if (controller != nullptr && telemetry != nullptr) controller->bind(*telemetry);
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);

  const std::size_t n = payload.size();
  StreamResult out;
  out.received.resize(n, 0.0f);
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, payload.data(), n * 4);
    for (int i = 0; i < iters; ++i) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, i);
      } else {
        R.recv(dev, n * 4, 0, i);
      }
    }
    if (R.rank() == 1) std::memcpy(out.received.data(), dev, n * 4);
    R.gpu_free(dev);
  });
  out.elapsed = engine.now();
  return out;
}

std::string decision_csv(const Telemetry& t) {
  std::ostringstream os;
  t.write_decision_csv(os);
  return os.str();
}

// (a) Determinism: two identical adaptive runs replay the exact same
// decision sequence — probes included — byte for byte.
TEST(Adaptive, DecisionSequenceDeterministicAcrossReruns) {
  const std::size_t n = (4u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  std::string csv[2];
  for (int run = 0; run < 2; ++run) {
    Telemetry telemetry;
    AdaptiveController controller(gpu::v100_spec(), kNetworkGbs);
    run_p2p_stream(core::CompressionConfig::mpc_opt(), &controller, &telemetry,
                   nullptr, payload, 24);
    csv[run] = decision_csv(telemetry);
  }
  EXPECT_FALSE(csv[0].empty());
  EXPECT_EQ(csv[0], csv[1]);
}

// (b) Convergence: on a stationary workload the late, non-probe decisions
// all pick whichever fixed codec actually runs faster, within a bounded
// probe budget, and delivery stays bit-exact.
TEST(Adaptive, ConvergesToBestFixedCodecOnStationaryWorkload) {
  const std::size_t n = (4u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  const int iters = 32;

  const StreamResult raw = run_p2p_stream(core::CompressionConfig::off(), nullptr,
                                          nullptr, nullptr, payload, iters);
  const StreamResult mpc = run_p2p_stream(core::CompressionConfig::mpc_opt(), nullptr,
                                          nullptr, nullptr, payload, iters);
  const char* winner = mpc.elapsed < raw.elapsed ? "mpc" : "raw";

  Telemetry telemetry;
  AdaptiveOptions aopts;
  aopts.lossy_allowed = false;  // raw-vs-MPC duel; keeps delivery bit-exact
  AdaptiveController controller(gpu::v100_spec(), kNetworkGbs, aopts);
  const StreamResult adaptive = run_p2p_stream(core::CompressionConfig::mpc_opt(),
                                               &controller, &telemetry, nullptr,
                                               payload, iters);

  EXPECT_EQ(adaptive.received, payload);

  std::vector<const core::DecisionRecord*> p2p;
  int probes = 0;
  for (const auto& d : telemetry.decisions()) {
    if (std::strcmp(d.scope, "p2p") != 0) continue;
    p2p.push_back(&d);
    if (d.probe) ++probes;
  }
  ASSERT_EQ(p2p.size(), static_cast<std::size_t>(iters));
  // Probe budget: the counter-based draw routes ~1 in 16 decisions
  // to the runner-up; over 32 rounds that must stay well under a quarter.
  EXPECT_LE(probes, 8);
  // Every late non-probe decision agrees with the measured best fixed codec.
  for (std::size_t i = p2p.size() - 8; i < p2p.size(); ++i) {
    if (p2p[i]->probe) continue;
    EXPECT_STREQ(p2p[i]->choice, winner) << "decision " << i;
  }
}

// (c) Quarantine: a fault storm on the compression kernel trips the
// per-family streak, the controller degrades to raw, and delivery stays
// correct throughout.
TEST(Adaptive, QuarantinesFaultyCodecAndDegradesToRaw) {
  const std::size_t n = (4u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  const int iters = 24;

  fault::FaultInjector injector(fault::FaultPlan::flaky_codec(7, 1.0));
  Telemetry telemetry;
  AdaptiveOptions aopts;
  aopts.lossy_allowed = false;  // candidates: raw + MPC only
  AdaptiveController controller(gpu::v100_spec(), kNetworkGbs, aopts);
  const StreamResult got = run_p2p_stream(core::CompressionConfig::mpc_opt(),
                                          &controller, &telemetry, &injector,
                                          payload, iters);

  EXPECT_EQ(got.received, payload);  // every faulted compress fell back to raw

  int quarantined = 0;
  int raw_after_quarantine = 0;
  int mpc_after_quarantine = 0;
  bool seen_quarantine = false;
  for (const auto& d : telemetry.decisions()) {
    if (std::strcmp(d.scope, "p2p") != 0) continue;
    if (d.quarantined) {
      ++quarantined;
      seen_quarantine = true;
    }
    if (seen_quarantine && !d.probe) {
      if (std::strcmp(d.choice, "raw") == 0) ++raw_after_quarantine;
      if (std::strcmp(d.choice, "mpc") == 0) ++mpc_after_quarantine;
    }
  }
  EXPECT_GT(quarantined, 0) << "fault storm never tripped the quarantine";
  // Graceful degradation: once MPC is quarantined, the loop runs raw.
  EXPECT_GT(raw_after_quarantine, 0);
  EXPECT_EQ(mpc_after_quarantine, 0);
  // The codec faults actually happened (the streak fed on real events).
  EXPECT_GE(telemetry.summarize().codec_faults, 3u);
}

// The codec decision logs of (a)'s lossy stream and (c)'s fault storm,
// pinned: a change to how the controller prices a codec that moves any
// decision, probe or predicted latency changes the digest.
TEST(Adaptive, CodecDecisionsArePinned) {
  const auto payload = data::generate("msg_sppm", (4u << 20) / 4);
  std::string text;
  for (const bool storm : {false, true}) {
    fault::FaultInjector injector(fault::FaultPlan::flaky_codec(7, 1.0));
    Telemetry telemetry;
    AdaptiveOptions aopts;
    aopts.lossy_allowed = !storm;
    AdaptiveController controller(gpu::v100_spec(), kNetworkGbs, aopts);
    run_p2p_stream(core::CompressionConfig::mpc_opt(), &controller, &telemetry,
                   storm ? &injector : nullptr, payload, 24);
    text += decision_csv(telemetry);
  }
  EXPECT_EQ(text.size(), 1946u);
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}),
            "8bb5b9b275b3a2ae45e8978f1b99e9d5487ccb7cea244cbd418b9e437c36dfbc");
}

// (d) Collectives: the shared decision sequence keeps every rank on the
// same algorithm (no mismatch deadlock) and the reduction stays exact.
TEST(Adaptive, AllreduceAgreesAcrossRanksAndMatchesOracle) {
  const int nodes = 2, gpn = 2;
  const int P = nodes * gpn;
  const std::size_t n = (2u << 20) / 4;

  // Small-integer inputs: every partial sum is exactly representable, so
  // the oracle is order-independent (the ring and hierarchical schedules
  // reduce in different orders than a sequential host loop).
  std::vector<std::vector<float>> inputs;
  std::vector<float> expect(n, 0.0f);
  for (int r = 0; r < P; ++r) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<float>(static_cast<int>((i * 31 + static_cast<std::size_t>(r) * 17) % 257) - 128);
    }
    for (std::size_t i = 0; i < n; ++i) expect[i] += v[i];
    inputs.push_back(std::move(v));
  }

  Telemetry telemetry;
  AdaptiveOptions aopts;
  aopts.lossy_allowed = false;
  AdaptiveController controller(gpu::v100_spec(), kNetworkGbs, aopts);
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.adaptive = &controller;
  controller.bind(telemetry);
  sim::Engine engine;
  mpi::World world(engine, net::longhorn(nodes, gpn), core::CompressionConfig::mpc_opt(),
                   opts);

  int mismatches = 0;
  world.run([&](mpi::Rank& R) {
    std::vector<float> out(n, -1.0f);
    for (int round = 0; round < 3; ++round) {
      R.allreduce(inputs[static_cast<std::size_t>(R.rank())].data(), out.data(), n,
                  mpi::ReduceOp::Sum);
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i] != expect[i]) ++mismatches;
      }
    }
  });
  EXPECT_EQ(mismatches, 0);

  // The controller logged one allreduce decision per round, replayed by
  // all ranks (one shared sequence, not one per rank).
  int allreduce_decisions = 0;
  for (const auto& d : telemetry.decisions()) {
    if (std::strcmp(d.scope, "allreduce") == 0) ++allreduce_decisions;
  }
  EXPECT_EQ(allreduce_decisions, 3);
}

// (e) Pin: every collective, on each side of its static floor, through
// enough rounds that the measured history overrides the cost-model prior.
// Two measured alternatives are fed in up front (a fast hierarchical
// allreduce and a fast flat bcast below their floors), so the refinement
// displaces the prior once the prior's own schedule has enough samples. The
// decision log, the collective records and the final virtual clock are
// hashed together, so a selection refactor that moves any adaptive
// decision (or the schedule it runs) changes the digest. The decisions with
// the clock, and the records with their busy columns blanked, are pinned
// apart as well: a change to stage accounting alone moves only the whole.
TEST(Adaptive, CollectiveDecisionsArePinned) {
  constexpr std::uint64_t KiB = 1024, MiB = 1024 * KiB;
  Telemetry telemetry;
  AdaptiveOptions aopts;
  aopts.lossy_allowed = false;
  AdaptiveController controller(gpu::v100_spec(), kNetworkGbs, aopts);
  controller.bind(telemetry);
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.adaptive = &controller;
  sim::Engine engine;
  mpi::World world(engine, net::longhorn(2, 2), core::CompressionConfig::mpc_opt(), opts);
  const int P = world.size();

  // Below / above each static floor: allreduce and reduce_scatter 4 MiB,
  // alltoall 1 MiB blocks, bcast 1 MiB, allgather/gather/scatter 256 KiB
  // blocks.
  const std::uint64_t reduce_bytes[] = {2 * MiB, 6 * MiB};
  const std::uint64_t alltoall_block[] = {512 * KiB, 2 * MiB};
  const std::uint64_t bcast_bytes[] = {512 * KiB, 2 * MiB};
  const std::uint64_t block_bytes[] = {128 * KiB, 512 * KiB};
  const std::uint64_t max_bytes = 8 * MiB;  // the largest send or receive buffer
  const auto payload = data::generate("msg_sppm", max_bytes / 4);

  for (int i = 0; i < 2; ++i) {
    core::CollectiveRecord rec;
    rec.op = "allreduce";
    rec.algorithm = "hierarchical";
    rec.bytes = reduce_bytes[0];
    rec.span = sim::Time::us(100);
    telemetry.record_collective(rec);
    rec.op = "bcast";
    rec.algorithm = "linear";
    rec.bytes = bcast_bytes[0];
    rec.span = sim::Time::us(10);
    telemetry.record_collective(rec);
  }

  world.run([&](mpi::Rank& R) {
    auto* src = static_cast<float*>(R.gpu_malloc(max_bytes));
    auto* dst = static_cast<float*>(R.gpu_malloc(max_bytes));
    std::memcpy(src, payload.data(), max_bytes);
    for (int round = 0; round < 4; ++round) {
      for (int side = 0; side < 2; ++side) {
        const std::size_t n = reduce_bytes[side] / 4;
        R.allreduce(src, dst, n, mpi::ReduceOp::Sum);
        R.reduce_scatter(src, dst, n / static_cast<std::size_t>(P), mpi::ReduceOp::Sum);
        R.alltoall(src, alltoall_block[side], dst);
        R.bcast(src, bcast_bytes[side], 0);
        R.allgather(src, block_bytes[side], dst);
        R.gather(src, block_bytes[side], dst, 1);
        R.scatter(src, block_bytes[side], dst, 2);
      }
    }
    R.gpu_free(dst);
    R.gpu_free(src);
  });

  std::ostringstream log;
  log << decision_csv(telemetry);
  telemetry.write_collective_csv(log);
  log << "now_ns=" << engine.now().count_ns() << "\n";
  const std::string text = log.str();
  const auto sha = [](const std::string& s) {
    return gcmpi::testing::sha256_hex({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  };
  std::ostringstream decisions_and_clock, records;
  decisions_and_clock << decision_csv(telemetry) << "now_ns=" << engine.now().count_ns() << "\n";
  records << "collective_records=" << telemetry.collectives().size() << "\n";
  telemetry.write_collective_csv(records);
  EXPECT_EQ(sha(decisions_and_clock.str()),
            "cf41d44158300d95ba200db219ba3e21b5417ea83b09fb7f333f669450718f42");
  EXPECT_EQ(sha(gcmpi::testing::mask_busy_columns(records.str())),
            "16d8e99d6e25114ecf2c0b8d80ddd3f8401f8cb1721f07de2de13ae44eff6b9e");

  // One decision per collective call (reduce_scatter shares allreduce's
  // sequence), and the two fed-in alternatives displaced the prior.
  std::map<std::string, int> decisions;
  for (const auto& d : telemetry.decisions()) {
    ++decisions[std::string(d.scope) + ":" + d.choice];
  }
  EXPECT_EQ(decisions["allreduce:ring"] + decisions["allreduce:hierarchical"], 16);
  EXPECT_EQ(decisions["allreduce:hierarchical"], 3);
  EXPECT_EQ(decisions["bcast:linear"], 3);
  EXPECT_EQ(decisions["bcast:hierarchical"], 5);
  for (const char* op : {"alltoall:batched", "allgather:hierarchical", "gather:hierarchical",
                         "scatter:hierarchical"}) {
    EXPECT_EQ(decisions[op], 8) << op;
  }
  EXPECT_EQ(text.size(), 26486u);
  EXPECT_EQ(sha(text), "96e0012deba1e707ec7760cd4de4edde2566274b56c05305d5184e9c7df12c49");
}

}  // namespace
