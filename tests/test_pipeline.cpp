// Chunked pipelined rendezvous: bit-exactness against the serial protocol
// for every codec, the overlap timing identities, cost-model auto-tune
// sanity, and per-chunk fault recovery (a lost/corrupted/faulting chunk
// retransmits only itself).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/pipeline.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "support/payloads.hpp"

namespace {

using namespace gcmpi;
using gcmpi::testing::make_floats;
using gcmpi::testing::PayloadKind;

struct TransferResult {
  std::vector<float> received;
  sim::Time one_way;  // send-post to receive-completion, setup excluded
  core::CompressionStats sender_stats;
  core::Telemetry telemetry;
  mpi::Status recv_status;
};

/// One rank0 -> rank1 send of `payload` (staged in device memory) under the
/// given compression config and world options. Returns what rank1 saw.
TransferResult run_transfer(const std::vector<float>& payload,
                            const core::CompressionConfig& cfg, mpi::WorldOptions opts,
                            fault::FaultInjector* injector = nullptr) {
  TransferResult res;
  res.received.assign(payload.size(), -1.0f);
  sim::Engine engine;
  core::Telemetry telemetry;
  opts.telemetry = &telemetry;
  opts.fault = injector;
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);
  const std::uint64_t bytes = payload.size() * 4;
  sim::Time start = sim::Time::zero();
  world.run([&](mpi::Rank& R) {
    if (R.rank() == 0) {
      void* d = R.gpu_malloc(bytes);
      std::memcpy(d, payload.data(), bytes);
      R.barrier();  // device staging paid before the timed window opens
      start = R.now();
      R.send(d, bytes, 1, 7);
      R.gpu_free(d);
    } else {
      R.barrier();
      res.recv_status = R.recv(res.received.data(), bytes, 0, 7);
      res.one_way = R.now() - start;
    }
  });
  res.sender_stats = world.compression_of(0).stats();
  res.telemetry = telemetry;
  return res;
}

mpi::WorldOptions serial_opts() { return {}; }

mpi::WorldOptions pipelined_opts(std::uint64_t chunk_bytes = 0) {
  mpi::WorldOptions o;
  o.pipeline.enabled = true;
  o.pipeline.chunk_bytes = chunk_bytes;
  return o;
}

constexpr std::size_t kBigValues = 1u << 20;  // 4 MiB of floats

TEST(Pipeline, MpcPipelinedDeliveryIsBitExact) {
  const auto payload = make_floats(PayloadKind::SmoothField, kBigValues, 42);
  const auto serial = run_transfer(payload, core::CompressionConfig::mpc_opt(), serial_opts());
  const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(), pipelined_opts());
  ASSERT_EQ(piped.sender_stats.pipelined_messages, 1u);
  EXPECT_GT(piped.sender_stats.pipeline_chunks_compressed, 0u);
  // MPC is lossless: both protocols must reproduce the source bit-for-bit.
  EXPECT_EQ(0, std::memcmp(serial.received.data(), payload.data(), payload.size() * 4));
  EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
}

TEST(Pipeline, ZfpPipelinedMatchesSerialReconstruction) {
  // ZFP is lossy, so the contract is serial/pipelined EQUIVALENCE: chunk
  // boundaries are 64 KiB multiples (whole ZFP blocks), so per-chunk
  // streams decode to exactly the bytes the one-shot stream decodes to.
  const auto payload = make_floats(PayloadKind::SmoothField, kBigValues, 43);
  const auto serial = run_transfer(payload, core::CompressionConfig::zfp_opt(16), serial_opts());
  const auto piped = run_transfer(payload, core::CompressionConfig::zfp_opt(16), pipelined_opts());
  ASSERT_EQ(piped.sender_stats.pipelined_messages, 1u);
  EXPECT_EQ(0,
            std::memcmp(serial.received.data(), piped.received.data(), payload.size() * 4));
}

TEST(Pipeline, IncompressibleChunksFallBackRawBitExact) {
  const auto payload = make_floats(PayloadKind::HighEntropy, kBigValues, 44);
  const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(), pipelined_opts());
  ASSERT_EQ(piped.sender_stats.pipelined_messages, 1u);
  EXPECT_GT(piped.sender_stats.pipeline_chunks_raw, 0u);  // MPC expands noise
  EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
}

TEST(Pipeline, CompressionOffStaysOnSerialPath) {
  const auto payload = make_floats(PayloadKind::SmoothField, kBigValues, 45);
  const auto piped = run_transfer(payload, core::CompressionConfig::off(), pipelined_opts());
  EXPECT_EQ(piped.sender_stats.pipelined_messages, 0u);
  EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
}

TEST(Pipeline, BelowMinBytesStaysOnSerialPath) {
  const auto payload = make_floats(PayloadKind::SmoothField, 64 * 1024, 46);  // 256 KiB
  const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(), pipelined_opts());
  EXPECT_EQ(piped.sender_stats.pipelined_messages, 0u);
  EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
}

TEST(Pipeline, TwentyPercentLatencyWinAt4MiBMpcOnLonghorn) {
  // The PR's acceptance bar: >= 20% simulated one-way latency reduction vs
  // the serial rendezvous for a 4 MiB MPC message on Longhorn (IB-EDR),
  // measured on the OMB dummy buffer the paper's osu_latency runs use
  // (bench/pipeline_overlap sweeps the full size range).
  const auto payload = data::plateau_field(kBigValues, 200, 256, 1234);
  const auto serial = run_transfer(payload, core::CompressionConfig::mpc_opt(), serial_opts());
  const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(), pipelined_opts());
  const double t_serial = static_cast<double>(serial.one_way.count_ns());
  const double t_piped = static_cast<double>(piped.one_way.count_ns());
  EXPECT_LT(t_piped, 0.8 * t_serial)
      << "serial " << t_serial / 1e3 << " us vs pipelined " << t_piped / 1e3 << " us";
}

TEST(Pipeline, OverlapTimingIdentities) {
  const std::uint64_t chunk = 512ull << 10;
  const auto payload = make_floats(PayloadKind::Plateaus, kBigValues, 48);
  const auto piped =
      run_transfer(payload, core::CompressionConfig::mpc_opt(), pipelined_opts(chunk));
  ASSERT_EQ(piped.telemetry.pipelines().size(), 1u);
  const auto& rec = piped.telemetry.pipelines().front();
  EXPECT_EQ(rec.chunks, (kBigValues * 4 + chunk - 1) / chunk);
  EXPECT_EQ(rec.retransmits, 0u);
  EXPECT_EQ(rec.original_bytes, kBigValues * 4);
  EXPECT_LT(rec.wire_bytes, rec.original_bytes);  // plateaus compress well
  EXPECT_GT(rec.span.count_ns(), 0);
  // All chunks serialize over the same IB port back to back, so the span
  // can never undercut the wire stage's total busy time (fill identity)...
  EXPECT_GE(rec.span.count_ns(), rec.transfer_busy.count_ns());
  // ...but genuine overlap means the span beats the serial sum of stages
  // (drain identity: only the fill/drain tails add to the bottleneck).
  const auto busy_sum =
      rec.compress_busy.count_ns() + rec.transfer_busy.count_ns() + rec.decompress_busy.count_ns();
  EXPECT_LT(rec.span.count_ns(), busy_sum);
}

TEST(Pipeline, AutoTuneChunkIsMonotoneAlignedAndClamped) {
  const auto gpu = gpu::v100_spec();
  const auto link = net::ib_edr();
  for (const auto& cfg :
       {core::CompressionConfig::mpc_opt(), core::CompressionConfig::zfp_opt(16)}) {
    std::uint64_t prev = 0;
    for (std::uint64_t bytes = 1ull << 20; bytes <= 64ull << 20; bytes *= 2) {
      const std::uint64_t c = mpi::auto_chunk_bytes(bytes, cfg, gpu, link);
      EXPECT_GE(c, 256ull << 10);
      EXPECT_LE(c, bytes);
      EXPECT_EQ(c % (64ull << 10), 0u);
      EXPECT_GE(c, prev) << "auto chunk must be monotone in message size";
      prev = c;
    }
  }
}

TEST(Pipeline, ChunkBlocksDivideTheGpu) {
  const auto gpu = gpu::v100_spec();
  EXPECT_EQ(mpi::pipeline_chunk_blocks(gpu, 4, 8), gpu.sm_count / 4);
  EXPECT_EQ(mpi::pipeline_chunk_blocks(gpu, 4, 2), gpu.sm_count / 2);  // window = chunks
  EXPECT_GE(mpi::pipeline_chunk_blocks(gpu, 1024, 1024), 1);
}

// --- per-chunk fault recovery -------------------------------------------

TEST(Pipeline, DroppedChunkRetransmitsOnlyItself) {
  // Deterministic injector, so scan a fixed seed list for one that actually
  // drops chunks (p=0.2 over ~8 packets misses everything ~17% of the time).
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 8 && !fired; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.2;
    fault::FaultInjector injector(plan);
    const auto payload = make_floats(PayloadKind::Plateaus, kBigValues, 49);
    const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(),
                                    pipelined_opts(512ull << 10), &injector);
    EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
    const auto& fs = injector.stats();
    if (fs.drops == 0) continue;
    fired = true;
    // Exactly one extra data packet per retransmission event: damaged chunks
    // resend alone, intact chunks never resend.
    const auto summary = piped.telemetry.summarize();
    const std::uint32_t chunks = piped.telemetry.pipelines().front().chunks;
    EXPECT_EQ(fs.data_packets, chunks + summary.retransmits);
    EXPECT_EQ(summary.retransmits, fs.drops);
  }
  EXPECT_TRUE(fired) << "no seed in the scan list dropped a chunk";
}

TEST(Pipeline, CorruptedChunkIsDetectedAndRedelivered) {
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 8 && !fired; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.corrupt_probability = 0.25;
    fault::FaultInjector injector(plan);
    const auto payload = make_floats(PayloadKind::Plateaus, kBigValues, 50);
    const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(),
                                    pipelined_opts(512ull << 10), &injector);
    EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
    if (injector.stats().corruptions == 0) continue;
    fired = true;
    const auto summary = piped.telemetry.summarize();
    EXPECT_GT(summary.corruptions_detected, 0u);
    EXPECT_GE(summary.retransmits, summary.corruptions_detected);
  }
  EXPECT_TRUE(fired) << "no seed in the scan list corrupted a chunk";
}

TEST(Pipeline, DecompressFaultDegradesOnlyTheFaultingChunkToRaw) {
  bool fired = false;
  for (std::uint64_t seed = 1; seed <= 8 && !fired; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.decompress_fail_probability = 0.3;
    fault::FaultInjector injector(plan);
    const auto payload = make_floats(PayloadKind::Plateaus, kBigValues, 51);
    const auto piped = run_transfer(payload, core::CompressionConfig::mpc_opt(),
                                    pipelined_opts(512ull << 10), &injector);
    EXPECT_EQ(0, std::memcmp(piped.received.data(), payload.data(), payload.size() * 4));
    if (injector.stats().decompress_faults == 0) continue;
    fired = true;
    const auto summary = piped.telemetry.summarize();
    EXPECT_GT(summary.retransmits, 0u);
    // The faulting chunk is re-sent raw (decode-fault fallback); everything
    // else stays compressed, so the wire total grows by at most one raw
    // chunk per retransmission event.
    const auto& rec = piped.telemetry.pipelines().front();
    EXPECT_LT(rec.wire_bytes, rec.original_bytes + (512ull << 10) * summary.retransmits);
  }
  EXPECT_TRUE(fired) << "no seed in the scan list injected a decompress fault";
}

TEST(Pipeline, FailedTransferReleasesTheStagingOfChunksStillCompressing) {
  // Every segment is dropped, so the transfer fails; a pipelined one fails
  // while later chunks are still compressing. Each staging must go back:
  // the naive scheme cudaMallocs one per chunk on the sender and the decode
  // staging on the receiver, so a leak shows in either side's live
  // allocations once the run is over. The serial input (pipeline off) runs
  // the one-segment form of the same transfer.
  for (const bool pipelined : {true, false}) {
    for (const int retries : {0, 2}) {
      SCOPED_TRACE(std::string(pipelined ? "pipelined" : "serial") + ", retries " +
                   std::to_string(retries));
      fault::FaultPlan plan;
      plan.seed = 1;
      plan.drop_probability = 1.0;
      fault::FaultInjector injector(plan);
      mpi::WorldOptions opts = pipelined ? pipelined_opts(64ull << 10) : mpi::WorldOptions{};
      opts.max_data_retries = retries;
      opts.fault = &injector;
      sim::Engine engine;
      mpi::World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_naive(), opts);
      const std::size_t n = (16ull << 20) / 4;
      const auto payload = make_floats(PayloadKind::SmoothField, n, 52);
      std::size_t send_before = 0;
      std::size_t recv_before = 0;
      mpi::Status send_status;
      mpi::Status recv_status;
      world.run([&](mpi::Rank& R) {
        if (R.rank() == 0) {
          void* d = R.gpu_malloc(n * 4);
          std::memcpy(d, payload.data(), n * 4);
          send_before = R.gpu().allocation_count();
          mpi::Request req = R.isend(d, n * 4, 1, 7);
          send_status = R.wait(req);
        } else {
          std::vector<float> out(n);
          recv_before = R.gpu().allocation_count();
          recv_status = R.recv(out.data(), n * 4, 0, 7);
        }
      });
      EXPECT_EQ(send_status.error, mpi::StatusError::RetryLimit);
      EXPECT_EQ(recv_status.error, mpi::StatusError::RetryLimit);
      EXPECT_EQ(send_before, 1u);
      EXPECT_EQ(world.gpu_of(0).allocation_count(), send_before);
      EXPECT_EQ(world.gpu_of(1).allocation_count(), recv_before);
    }
  }
}

}  // namespace
