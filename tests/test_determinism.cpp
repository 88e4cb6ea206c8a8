// Cross-run determinism of the discrete-event stack: identical seeded
// simulations must charge identical costs and produce byte-identical
// observable output — receive timelines, compression stats, telemetry CSV,
// and the final engine clock. Failures report the first diverging line of
// the canonical dump (tests/support/world_dump.*).
//
// This is the tripwire for the ROADMAP's perf PRs: any accidental
// dependence on wall clock, heap addresses, thread scheduling, or hash
// iteration order shows up here as a one-line diff.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "core/collective.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"
#include "support/sha256.hpp"
#include "support/world_dump.hpp"

namespace {

using namespace gcmpi;
namespace support = gcmpi::testing;
using support::first_divergence;
using support::mask_busy_columns;
using support::run_world_dump;
using support::WorldScenario;

void expect_identical_runs(const WorldScenario& s) {
  const std::string run1 = run_world_dump(s);
  const std::string run2 = run_world_dump(s);
  EXPECT_EQ(run1, run2) << first_divergence(run1, run2);
  EXPECT_GT(run1.size(), 0u);
}

TEST(Determinism, MixedTrafficWithCompressionIsByteIdentical) {
  WorldScenario s;
  s.seed = gcmpi::testing::test_seed();
  expect_identical_runs(s);
}

TEST(Determinism, MixedTrafficWithoutCompressionIsByteIdentical) {
  WorldScenario s;
  s.compression = false;
  s.seed = gcmpi::testing::test_seed() ^ 0x5a5a;
  expect_identical_runs(s);
}

TEST(Determinism, StressScaleWorldIsByteIdentical) {
  // test_stress-scale: more ranks, more messages, bigger payloads, more
  // collective rounds — the regime where nondeterminism from scheduling
  // or container ordering is most likely to surface.
  WorldScenario s;
  s.nodes = 6;
  s.gpus_per_node = 2;
  s.messages_per_rank = 30;
  s.max_message_values = 32768;
  s.collective_rounds = 3;
  s.seed = gcmpi::testing::test_seed() ^ 0x57e55;
  expect_identical_runs(s);
}

WorldScenario faulty_scenario(std::uint64_t seed) {
  // The chaos regime: drops, corruption, and decompression faults all
  // active on the serial rendezvous.
  WorldScenario s;
  s.seed = seed;
  s.fault_seed = 0xDEAD;
  s.max_message_values = 65536;  // more rendezvous traffic => more draws
  s.messages_per_rank = 40;
  s.fault_drop = 0.08;
  s.fault_corrupt = 0.05;
  s.fault_decompress = 0.05;
  return s;
}

std::string digest(const std::string& dump) {
  return gcmpi::testing::sha256_hex(
      {reinterpret_cast<const std::uint8_t*>(dump.data()), dump.size()});
}

/// The dump of `s`, with its host work counters (fresh payload buffers per
/// site, bytes checksummed per CRC site) checked against `pinned`. The
/// virtual clock does not charge that work, so the dump digest cannot see a
/// payload copy or a checksum put back; these counters do.
std::string pinned_dump(const WorldScenario& s, const std::string& pinned) {
  mpi::HostCounters host;
  std::string dump = run_world_dump(s, &host);
  EXPECT_EQ(support::host_counters_line(host), pinned);
  return dump;
}

TEST(Determinism, FaultyWorldIsByteIdentical) {
  // Retransmissions, NACKs, watchdog timeouts, and raw-resend fallbacks
  // must replay identically run to run.
  const WorldScenario s = faulty_scenario(gcmpi::testing::test_seed() ^ 0xfa);
  expect_identical_runs(s);
  // The scenario must actually exercise the reliability machinery: the
  // fault_stats line only prints when at least one fault fired, and a
  // ",retransmit," row is a telemetry *event* (the summary's
  // "retransmits=" label would match a bare "retransmit" even when zero).
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("fault_stats "), std::string::npos);
  EXPECT_NE(dump.find(",retransmit,"), std::string::npos);
}

TEST(Determinism, FaultyWorldDumpMatchesPinnedDigest) {
  // Golden for the serial reliability cycle: a rerun-vs-rerun check passes
  // a change that shifts every retransmit consistently; this pin does not.
  // The seed is fixed (not test_seed()) so the digest means one schedule.
  const std::string dump = pinned_dump(
      faulty_scenario(0xC0DECULL ^ 0xfa),
      "eager=433/916908 compressed=0/0 corrupt=1/21376 "
      "wire_out=0/0 assemble=0/0 minted=0/0 crc=916908/916908/3832316/3853692");
  ASSERT_NE(dump.find(",retransmit,"), std::string::npos);
  EXPECT_EQ(digest(dump), "5707688bf41a76a847c2ec297a3245bf5bd9decb0d539c578f516499646cac3d");
}

TEST(Determinism, IdleFaultPlanMatchesNoPlan) {
  // Reliability transparency: installing an injector whose plan never
  // fires (all probabilities zero) turns on CRC computation/verification
  // but must not change one byte of the observable run — checksums are
  // charged zero virtual time and no protocol path diverges.
  WorldScenario no_plan;
  no_plan.seed = gcmpi::testing::test_seed() ^ 0x1d1e;
  WorldScenario idle_plan = no_plan;
  idle_plan.fault_seed = 123;  // installed, but every rate is 0.0
  const auto a = run_world_dump(no_plan);
  const auto b = run_world_dump(idle_plan);
  EXPECT_EQ(a, b) << first_divergence(a, b);
}

WorldScenario pipelined_scenario(std::uint64_t seed) {
  // Big device-resident messages on a 2-rank inter-node world: every
  // qualifying send runs the chunked pipelined rendezvous (fixed 256 KiB
  // chunks so each transfer interleaves several in-flight chunk events).
  WorldScenario s;
  s.nodes = 2;
  s.gpus_per_node = 1;
  s.messages_per_rank = 8;
  s.max_message_values = 512 * 1024;
  s.collective_rounds = 1;
  s.device_payloads = true;
  s.pipeline = true;
  s.pipeline_min_bytes = 1ull << 17;  // draw_case is log-uniform: big is rare
  s.pipeline_chunk_bytes = 128ull << 10;
  s.seed = seed;
  return s;
}

TEST(Determinism, PipelinedWorldIsByteIdentical) {
  const WorldScenario s = pipelined_scenario(gcmpi::testing::test_seed() ^ 0x9199);
  expect_identical_runs(s);
  // The scenario must actually pipeline: the per-transfer telemetry section
  // only prints when at least one chunked rendezvous completed.
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("pipeline_transfers="), std::string::npos);
  EXPECT_NE(dump.find(" pipelined="), std::string::npos);
}

WorldScenario pipelined_faulty_scenario(std::uint64_t seed) {
  WorldScenario s = pipelined_scenario(seed);
  s.fault_seed = 0xBEEF;
  s.fault_drop = 0.10;
  s.fault_corrupt = 0.08;
  s.fault_decompress = 0.08;
  return s;
}

TEST(Determinism, PipelinedFaultyWorldIsByteIdentical) {
  // Per-chunk watchdogs, NACKs, and raw-resend fallbacks interleaved with
  // in-flight chunk kernels must replay identically run to run.
  const WorldScenario s = pipelined_faulty_scenario(gcmpi::testing::test_seed() ^ 0x9199);
  expect_identical_runs(s);
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("pipeline_transfers="), std::string::npos);
  EXPECT_NE(dump.find(",retransmit,"), std::string::npos);
}

TEST(Determinism, PipelinedFaultyWorldDumpMatchesPinnedDigest) {
  // Golden for the per-chunk reliability cycle (fixed seed, see above).
  const std::string dump = pinned_dump(
      pipelined_faulty_scenario(0xC0DECULL ^ 0x9199),
      "eager=18/29254 compressed=1/8728 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=0/0 crc=29254/29254/1712652/1712652");
  ASSERT_NE(dump.find("pipeline_transfers="), std::string::npos);
  ASSERT_NE(dump.find(",retransmit,"), std::string::npos);
  EXPECT_EQ(digest(dump), "966b31a29d3e5b7ef94540037ba8b66cefa1e62e9cf69b5641a058c52f0c87fb");
}

TEST(Determinism, LossyWarmChannelMatchesPinnedDigest) {
  // Golden for the warm-channel reliability cycle: 16 same-shape sends on
  // one persistent channel over a 20%/20% drop/corrupt fabric with 20% of
  // decodes faulting. The digest covers the telemetry events, the channel
  // record, and every receive's completion time, so a shifted retransmit,
  // NACK or raw degrade moves it.
  fault::FaultPlan plan = fault::FaultPlan::lossy(20260809, 0.2, 0.2);
  plan.decompress_fail_probability = 0.2;
  fault::FaultInjector injector(plan);
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  opts.persistent.enabled = true;
  mpi::World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 1 << 16;
  const auto payload = data::smooth_field(n, 1e-4, 8);
  std::ostringstream out;
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> rbuf(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < 16; ++it) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, 3);
      } else {
        const auto st = R.recv(rbuf.data(), n * 4, 0, 3);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(std::memcmp(rbuf.data(), payload.data(), n * 4), 0) << "iter " << it;
        out << "recv " << it << " " << R.now().count_ns() << "\n";
      }
    }
    R.gpu_free(dev);
  });
  ASSERT_EQ(world.channels().size(), 1u);
  ASSERT_GT(world.channels().begin()->second.retransmits, 0u);
  ASSERT_GT(world.channels().begin()->second.raw_degrades, 0u);
  telemetry.write_csv(out);
  telemetry.write_channel_csv(out);
  EXPECT_EQ(digest(out.str()), "1b624497366141b394ab92e6017c7e653eab7f5b8251f04d2fbd96990d20cfab");
  EXPECT_EQ(support::host_counters_line(world.host_counters()),
            "eager=0/0 compressed=16/2656384 corrupt=3/498072 "
            "wire_out=0/0 assemble=0/0 minted=0/0 crc=0/0/3180672/3678744");
}

TEST(Determinism, SerialDumpIsUnchangedByThePipelinePR) {
  // Two guarantees in one: (a) the serial-mode dump for a pinned scenario
  // still hashes to the digest captured before the pipelined rendezvous
  // landed (the wire format, cost charges, and dump layout are untouched),
  // and (b) enabling the pipeline on a world whose messages are all below
  // min_bytes is perfectly inert — not one byte of the dump moves.
  WorldScenario s;
  s.seed = 0xC0DEC;
  const std::string serial = pinned_dump(
      s,
      "eager=298/690224 compressed=0/0 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=0/0 crc=0/0/0/0");
  EXPECT_EQ(serial.size(), 14355u);
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(serial.data()), serial.size()}),
            "86008fcf193b6669198dfc159927b478afc85247be7edf779f53b3bfc29720ff");
  WorldScenario inert = s;
  inert.pipeline = true;  // enabled, but every message is below min_bytes
  const std::string with_pipeline = run_world_dump(inert);
  EXPECT_EQ(serial, with_pipeline) << first_divergence(serial, with_pipeline);
}

WorldScenario ring_scenario() {
  // Engine regime: a forced-Ring world with a device-resident 64 KiB-class
  // allreduce per round (the per-round n=1 allreduce also rides the ring,
  // exercising the empty-shard schedule).
  WorldScenario s;
  s.nodes = 2;
  s.gpus_per_node = 2;
  s.messages_per_rank = 6;
  s.collective_rounds = 2;
  s.engine_allreduce_values = 16411;
  s.collective_algorithm = static_cast<int>(core::CollectiveAlgorithm::Ring);
  s.seed = 0x5176;
  return s;
}

TEST(Determinism, RingAllreduceWorldIsByteIdentical) {
  const WorldScenario s = ring_scenario();
  expect_identical_runs(s);
  // The engine must actually have run: collective records only print when
  // ring/hierarchical collectives completed.
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("collective_records="), std::string::npos);
  EXPECT_NE(dump.find(",ring,"), std::string::npos);
}

WorldScenario hier_allreduce_scenario() {
  WorldScenario s = ring_scenario();
  s.nodes = 3;
  s.collective_algorithm = static_cast<int>(core::CollectiveAlgorithm::Hierarchical);
  s.seed = 0x41E7;
  return s;
}

TEST(Determinism, HierarchicalAllreduceWorldIsByteIdentical) {
  const WorldScenario s = hier_allreduce_scenario();
  expect_identical_runs(s);
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find(",hierarchical,"), std::string::npos);
}

TEST(Determinism, HierarchicalAllreduceWorldDumpMatchesPinnedDigest) {
  // Golden for the hierarchical allreduce: member folds at the leader, the
  // leader ring's two halves and the intra-node hand-back.
  const std::string dump = pinned_dump(
      hier_allreduce_scenario(),
      "eager=138/287600 compressed=0/0 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=48/922528 crc=0/0/0/0");
  EXPECT_EQ(digest(dump), "928db1754755943f665ea64041bc792582813660e2e34bebda5a30b25f58ccd6");
}

TEST(Determinism, RingWorldDumpMatchesPinnedDigest) {
  // Golden for the collective engine itself: the full observable dump of
  // the forced-Ring scenario is pinned, so any change to the engine's fold
  // order, cost charges, telemetry, or wire schedule shows up as a digest
  // mismatch. Update deliberately, never casually.
  const std::string dump = pinned_dump(
      ring_scenario(),
      "eager=61/176892 compressed=0/0 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=40/362528 crc=0/0/0/0");
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(dump.data()), dump.size()}),
            "c1c9738ac3c6108bf4ef3abe754ea07ea76d5a142e72577c0c03292af02b8ea7");
}

WorldScenario alltoall_scenario() {
  // Batched-alltoall regime: a forced-BatchedPairwise world with a
  // device-resident 64 KiB-class alltoall per round, so every round runs
  // one batched compression launch per rank and the scattered pairwise
  // wire schedule.
  WorldScenario s;
  s.nodes = 2;
  s.gpus_per_node = 2;
  s.messages_per_rank = 6;
  s.collective_rounds = 2;
  s.alltoall_block_values = 16411;
  s.alltoall_algorithm = static_cast<int>(core::CollectiveAlgorithm::BatchedPairwise);
  s.seed = 0xA22A;
  return s;
}

TEST(Determinism, BatchedAlltoallWorldIsByteIdentical) {
  const WorldScenario s = alltoall_scenario();
  expect_identical_runs(s);
  // The batched engine must actually have run: "alltoall" collective
  // records only print when the BatchedPairwise path completed.
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("collective_records="), std::string::npos);
  EXPECT_NE(dump.find("alltoall,batched"), std::string::npos);
}

TEST(Determinism, BatchedAlltoallWorldDumpMatchesPinnedDigest) {
  // Golden for the alltoall engine: the full observable dump of the
  // forced-batched scenario is pinned, so any change to the batch launch's
  // cost charges, the scattered wire schedule, the per-slice decode
  // streams, or the telemetry rows shows up as a digest mismatch. Update
  // deliberately, never casually.
  const std::string dump = pinned_dump(
      alltoall_scenario(),
      "eager=72/184784 compressed=0/0 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=24/1204488 crc=0/0/0/0");
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(dump.data()), dump.size()}),
            "20daaa39ef2d282bd7affde87fadedeeff4e943cbfcd701e8f7c80145b24fb7c");
}

WorldScenario hier_scenario() {
  // Hierarchical moving-collective regime: a forced-Hierarchical 3x2 world
  // running a device-resident 64 KiB-class bcast/allgather/gather/scatter
  // per round (rotating root), so every round exercises the per-node
  // staging slabs, the leader ring, and the batched scatter launch.
  WorldScenario s;
  s.nodes = 3;
  s.gpus_per_node = 2;
  s.messages_per_rank = 6;
  s.collective_rounds = 2;
  s.hier_block_values = 16411;
  s.hier_algorithm = static_cast<int>(core::CollectiveAlgorithm::Hierarchical);
  s.seed = 0x41E8;
  return s;
}

TEST(Determinism, HierarchicalMovingWorldIsByteIdentical) {
  const WorldScenario s = hier_scenario();
  expect_identical_runs(s);
  // The hierarchical engine must actually have run: bcast records only
  // print when the staged schedule completed.
  const auto dump = run_world_dump(s);
  EXPECT_NE(dump.find("collective_records="), std::string::npos);
  EXPECT_NE(dump.find("bcast,hierarchical"), std::string::npos);
  EXPECT_NE(dump.find("scatter,hierarchical"), std::string::npos);
}

TEST(Determinism, HierarchicalMovingWorldDumpMatchesPinnedDigest) {
  // Golden for the hierarchical moving collectives: the full observable
  // dump of the forced-Hierarchical scenario is pinned, so any change to
  // the representative tree, the leader ring, the slab staging costs, or
  // the telemetry rows shows up as a digest mismatch. Update deliberately,
  // never casually.
  const std::string dump = pinned_dump(
      hier_scenario(),
      "eager=162/258080 compressed=20/1194236 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=20/2963800 crc=0/0/0/0");
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(dump.data()), dump.size()}),
            "4e28864feadf9d1e3f9a32c3c8d42e5feb45ab2fc553f1a5585b3613e7ee03d6");
}

WorldScenario flat_scenario() {
  // Flat wire-schedule regime: a 2x2 world with Linear forced for bcast and
  // allgather and a device-resident 64 KiB-class bcast / allgather /
  // reduce per round (rotating non-zero root), so every round runs the
  // wire-forwarding binomial bcast, the compressed allgather ring and the
  // rendezvous binomial reduce with its fused device folds.
  WorldScenario s;
  s.nodes = 2;
  s.gpus_per_node = 2;
  s.messages_per_rank = 6;
  s.collective_rounds = 2;
  s.flat_block_values = 16411;
  s.hier_algorithm = static_cast<int>(core::CollectiveAlgorithm::Linear);
  s.seed = 0xF1A7;
  return s;
}

TEST(Determinism, FlatWireWorldDumpMatchesPinnedDigest) {
  // Golden for the flat compressed bodies: any change to the binomial
  // tree's post order, the ring's decode overlap or the reduce's fold and
  // drain points shows up as a digest mismatch. Update deliberately.
  const std::string dump = pinned_dump(
      flat_scenario(),
      "eager=82/176204 compressed=0/0 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=16/808112 crc=0/0/0/0");
  ASSERT_NE(dump.find("reduce,linear"), std::string::npos);
  EXPECT_EQ(digest(dump), "c4fd00ddb904dfc1afcff6a78ee9fb7a5f7648f316119e72ec4690003069de17");
}

WorldScenario flat_pipelined_scenario() {
  // The flat scenario with the chunked pipeline covering the bcast and
  // allgather blocks: the pipelined binomial bcast and sendrecv ring.
  WorldScenario s = flat_scenario();
  s.pipeline = true;
  s.pipeline_min_bytes = 32ull << 10;
  s.pipeline_chunk_bytes = 32ull << 10;
  return s;
}

TEST(Determinism, FlatPipelinedWorldDumpMatchesPinnedDigest) {
  const std::string dump = pinned_dump(
      flat_pipelined_scenario(),
      "eager=82/176204 compressed=12/297552 corrupt=0/0 "
      "wire_out=0/0 assemble=0/0 minted=6/304028 crc=0/0/0/0");
  ASSERT_NE(dump.find(" pipelined="), std::string::npos);
  EXPECT_EQ(digest(dump), "ef1f2457d1642d1e93d63fa8594b38db9ab0f0150ca27c17e8e7d9227d5b4520");
}

TEST(Determinism, CollectiveDumpsOutsideTheBusyColumnsMatchPinnedDigests) {
  // Every byte of the six collective scenarios' dumps except the three busy
  // columns: outputs, stats, events, hops, reduces, spans, the final clock.
  // A change to stage accounting alone moves none of these.
  const std::pair<WorldScenario, const char*> pins[] = {
      {ring_scenario(),
       "11dbd5172af469819957572721c54557e4c3cb52105a1d104f530a9c154bdfa7"},
      {hier_allreduce_scenario(),
       "a4dd848e5b7abb95d9f7218ea5c526473dc1e4a8a84b0bbd1f39ab34c36753eb"},
      {alltoall_scenario(),
       "77314f9fbd658a736d7cee6cecebb30a5855a8ef5ea232f727454cbb4d94b5d8"},
      {hier_scenario(),
       "592414b41348f6e5d641adfab1787c9411703d0086de5372d078fbf2da92dace"},
      {flat_scenario(),
       "e6b947b2dd99fb99adee898793ffbd5daa815c033895bc1e4fb0103813d52f34"},
      {flat_pipelined_scenario(),
       "e2df8be012bdda56e6e0ac188e8ef424b4cdeeca6bd3d809adaafd68cb1baaf5"},
  };
  for (const auto& [s, pinned] : pins) {
    EXPECT_EQ(digest(mask_busy_columns(run_world_dump(s))), pinned) << s.seed;
  }
}

TEST(Determinism, ReliableRunChecksumsEachPayloadByteOnceEachSide) {
  // Reliability on, no fault firing: every eager payload and every segment
  // is stamped once by its sender and verified once by its receiver. The
  // collective scenarios mint wire messages and forward received ones, each
  // hop its own segment; a second stamp of one payload (when its wire
  // message is minted, again at its send, or on a reassembled pipelined
  // wire-form receive) breaks the equality.
  for (WorldScenario s : {flat_scenario(), flat_pipelined_scenario(), ring_scenario(),
                          alltoall_scenario(),
                          hier_scenario(), hier_allreduce_scenario()}) {
    s.fault_seed = 123;  // installed, but every rate is 0.0
    mpi::HostCounters host;
    (void)run_world_dump(s, &host);
    EXPECT_GT(host.crc_segment_stamp, 0u) << s.seed;
    EXPECT_EQ(host.crc_segment_stamp, host.crc_segment_verify) << s.seed;
    EXPECT_EQ(host.crc_eager_stamp, host.crc_eager_verify) << s.seed;
  }
}

TEST(Determinism, AllreduceIsDeliveryOrderInvariant) {
  // Ranks enter the collective with two very different stagger patterns
  // (ascending vs descending pre-compute delays), skewing message arrival
  // orders; the canonical fold order must make the results — and the
  // oracle match — bit-identical either way.
  const std::size_t n = 16411;
  auto run_skewed = [n](bool ascending) {
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.collectives[core::CollectiveOp::Allreduce] = core::CollectiveAlgorithm::Ring;
    mpi::World world(engine, net::longhorn(2, 2), core::CompressionConfig::mpc_opt(),
                     opts);
    const int P = world.size();
    std::vector<std::vector<float>> outs(static_cast<std::size_t>(P));
    world.run([&](mpi::Rank& R) {
      const int skew = ascending ? R.rank() : (P - 1 - R.rank());
      R.compute(sim::Time::us(50.0 * skew));
      const auto mine = gcmpi::testing::make_floats(
          gcmpi::testing::PayloadKind::SmoothField, n,
          900 + static_cast<std::uint64_t>(R.rank()));
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, mine.data(), n * 4);
      auto& out = outs[static_cast<std::size_t>(R.rank())];
      out.resize(n);
      R.allreduce(dev, out.data(), n, mpi::ReduceOp::Sum);
      R.gpu_free(dev);
    });
    return outs;
  };
  const auto a = run_skewed(true);
  const auto b = run_skewed(false);
  std::vector<std::vector<float>> contribs;
  for (int r = 0; r < 4; ++r) {
    contribs.push_back(gcmpi::testing::make_floats(
        gcmpi::testing::PayloadKind::SmoothField, n, 900 + static_cast<std::uint64_t>(r)));
  }
  const auto oracle = core::allreduce_oracle(contribs, core::ReduceOp::Sum,
                                             core::CollectiveAlgorithm::Ring);
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(std::memcmp(a[r].data(), b[r].data(), n * 4), 0) << "rank " << r;
    ASSERT_EQ(std::memcmp(a[r].data(), oracle.data(), n * 4), 0) << "rank " << r;
  }
}

TEST(Determinism, DifferentFaultSeedsProduceDifferentSchedules) {
  WorldScenario a, b;
  a.seed = b.seed = 21;
  a.fault_seed = 1;
  b.fault_seed = 2;
  a.fault_drop = b.fault_drop = 0.05;
  EXPECT_NE(run_world_dump(a), run_world_dump(b));
}

TEST(Determinism, DifferentSeedsProduceDifferentTimelines) {
  // Sanity check that the dump actually observes the traffic: two
  // different seeds must not collide (else the suite tests nothing).
  WorldScenario a, b;
  a.seed = 11;
  b.seed = 12;
  EXPECT_NE(run_world_dump(a), run_world_dump(b));
}

TEST(Determinism, EngineEventOrderIsStableAcrossRuns) {
  // Record the exact dispatch order (actor id, virtual time) of a pile of
  // same-time and staggered events; the (time, seq) ordering contract
  // means two runs give identical sequences.
  auto trace_once = [] {
    sim::Engine engine;
    std::ostringstream trace;
    sim::Rng rng(7);
    for (int a = 0; a < 32; ++a) {
      const int hops = 1 + static_cast<int>(rng.next_below(12));
      const int stride = 1 + static_cast<int>(rng.next_below(5));
      engine.spawn("actor" + std::to_string(a), [&trace, a, hops, stride](sim::ActorContext& ctx) {
        for (int h = 0; h < hops; ++h) {
          ctx.advance(sim::Time::us(static_cast<double>(stride)));
          trace << a << "@" << ctx.now().count_ns() << "\n";
        }
      });
    }
    engine.run();
    return trace.str();
  };
  const auto t1 = trace_once();
  const auto t2 = trace_once();
  EXPECT_EQ(t1, t2) << first_divergence(t1, t2);
}

TEST(Determinism, TelemetryCsvIsStableAcrossRuns) {
  auto csv_once = [] {
    WorldScenario s;
    s.messages_per_rank = 10;
    s.seed = 77;
    return run_world_dump(s);
  };
  const auto c1 = csv_once();
  const auto c2 = csv_once();
  EXPECT_EQ(c1, c2) << first_divergence(c1, c2);
  // The telemetry section must actually contain compression events.
  EXPECT_NE(c1.find("telemetry_events="), std::string::npos);
  EXPECT_EQ(c1.find("telemetry_events=0"), std::string::npos);
}

TEST(Determinism, PayloadGeneratorsAreScheduleIndependent) {
  // Generating payloads from two interleaved Rng streams must equal
  // generating them back-to-back: draw_case consumes a bounded, fixed
  // number of draws per case.
  sim::Rng a(5), b(5);
  std::vector<gcmpi::testing::PayloadCase> seq1, seq2;
  for (int i = 0; i < 50; ++i) seq1.push_back(gcmpi::testing::draw_case(a, 4096));
  for (int i = 0; i < 50; ++i) seq2.push_back(gcmpi::testing::draw_case(b, 4096));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(seq1[static_cast<std::size_t>(i)].kind, seq2[static_cast<std::size_t>(i)].kind);
    EXPECT_EQ(seq1[static_cast<std::size_t>(i)].n, seq2[static_cast<std::size_t>(i)].n);
    EXPECT_EQ(seq1[static_cast<std::size_t>(i)].seed, seq2[static_cast<std::size_t>(i)].seed);
  }
}

}  // namespace
