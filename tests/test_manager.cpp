// CompressionManager tests: Algorithms 1-3 end to end on one GPU — naive
// vs OPT cost structure, fallback on incompressible data, threshold and
// device-pointer gating, stats accounting, real data integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"
#include "sim/timeline.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi::core;
using gcmpi::gpu::Gpu;
using gcmpi::gpu::v100_spec;
using gcmpi::sim::Breakdown;
using gcmpi::sim::Phase;
using gcmpi::sim::Time;
using gcmpi::sim::Timeline;
using Placement = CompressionManager::Placement;

struct Fixture {
  Gpu gpu{v100_spec()};
  float* device_buf = nullptr;
  std::vector<float> data;

  explicit Fixture(std::size_t n, double noise = 1e-4) {
    data = gcmpi::data::smooth_field(n, noise, 11);
    device_buf = static_cast<float*>(gpu.malloc_device_untimed(n * 4));
    std::memcpy(device_buf, data.data(), n * 4);
  }
};

/// A serial send: one message launched at the message placement and
/// finished at once. Holds its wire view and the staging to release.
struct Sent : CompressionManager::WireBlock {
  Staging staging;
};
Sent send(CompressionManager& mgr, Timeline& tl, const void* buf, std::uint64_t bytes) {
  const CompressionManager::Message m{buf, bytes};
  CompressionManager::Launch l = mgr.launch(tl, {&m, 1}, CompressionManager::Placement::message());
  mgr.finish(tl, l);
  return {l.wires[0], l.staging};
}

/// One alltoall-style batch launch, finished at once.
CompressionManager::Launch send_batch(CompressionManager& mgr, Timeline& tl,
                                      const std::vector<CompressionManager::Message>& blocks) {
  CompressionManager::Launch l = mgr.launch(tl, blocks, CompressionManager::Placement::batch());
  mgr.finish(tl, l);
  return l;
}

/// Launch pipeline chunk `index` of `blocks` thread blocks; the caller
/// finishes it at kernel_done.
CompressionManager::Launch launch_chunk(CompressionManager& mgr, Timeline& tl, const void* buf,
                                        std::uint64_t bytes, int index, int blocks) {
  const CompressionManager::Message m{buf, bytes};
  return mgr.launch(tl, {&m, 1}, CompressionManager::Placement::pipelined(index, blocks));
}

/// Full sender->receiver pass through the manager; returns restored data.
std::vector<float> pump(CompressionManager& mgr, const float* buf, std::size_t bytes,
                        Timeline& tl) {
  auto wire = send(mgr, tl, buf, bytes);
  // Wire bytes leave the node; stage them like the protocol does.
  std::vector<std::uint8_t> staged(static_cast<const std::uint8_t*>(wire.data),
                                   static_cast<const std::uint8_t*>(wire.data) + wire.bytes);
  const CompressionHeader header = wire.header;
  mgr.release(tl, wire.staging);

  std::vector<float> out(header.original_bytes / 4, -1.0f);
  if (header.compressed) {
    auto staging = mgr.prepare_receive(tl, header);
    std::memcpy(staging.data, staged.data(), staged.size());
    mgr.decode(tl, header, staging.data, out.data(), out.size() * 4, std::nullopt, Placement::message());
    mgr.release(tl, staging);
  } else {
    std::memcpy(out.data(), staged.data(), staged.size());
  }
  return out;
}

TEST(Manager, GatingRespectsThresholdAndMemorySpace) {
  Fixture f(1 << 20);
  auto cfg = CompressionConfig::mpc_opt();
  cfg.threshold_bytes = 256 * 1024;
  CompressionManager mgr(f.gpu, cfg);

  EXPECT_TRUE(mgr.should_compress(f.device_buf, 1 << 20));
  EXPECT_FALSE(mgr.should_compress(f.device_buf, 1 << 10));       // below threshold
  EXPECT_FALSE(mgr.should_compress(f.data.data(), 1 << 20));      // host memory
  EXPECT_FALSE(mgr.should_compress(f.device_buf, (1 << 20) + 2)); // not float-aligned
}

TEST(Manager, DisabledConfigNeverCompresses) {
  Fixture f(1 << 18);
  CompressionManager mgr(f.gpu, CompressionConfig::off());
  EXPECT_FALSE(mgr.should_compress(f.device_buf, 1 << 20));
  Timeline tl(Time::zero());
  auto wire = send(mgr, tl, f.device_buf, 1 << 20);
  EXPECT_FALSE(wire.header.compressed);
  EXPECT_EQ(wire.data, f.device_buf);
  EXPECT_EQ(tl.now(), Time::zero());  // zero cost on the raw path
}

TEST(Manager, MpcOptRoundTripIsLossless) {
  const std::size_t n = 1 << 20;
  Fixture f(n);
  CompressionManager mgr(f.gpu, CompressionConfig::mpc_opt());
  Timeline tl(Time::zero());
  auto out = pump(mgr, f.device_buf, n * 4, tl);
  ASSERT_EQ(out.size(), n);
  EXPECT_EQ(std::memcmp(out.data(), f.data.data(), n * 4), 0);
  EXPECT_EQ(mgr.stats().messages_compressed, 1u);
  EXPECT_GT(mgr.stats().achieved_ratio(), 1.0);
}

TEST(Manager, ZfpOptRoundTripWithinErrorBound) {
  const std::size_t n = 1 << 20;
  Fixture f(n);
  CompressionManager mgr(f.gpu, CompressionConfig::zfp_opt(16));
  Timeline tl(Time::zero());
  auto out = pump(mgr, f.device_buf, n * 4, tl);
  ASSERT_EQ(out.size(), n);
  float max_abs = 0;
  for (float x : f.data) max_abs = std::max(max_abs, std::fabs(x));
  const double bound = gcmpi::comp::ZfpCodec(16).error_bound(max_abs);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(f.data[i], out[i], bound);
  }
  // Fixed rate 16 on float32: exactly (about) half the bytes on the wire.
  EXPECT_NEAR(mgr.stats().achieved_ratio(), 2.0, 0.01);
}

TEST(Manager, IncompressibleDataFallsBackToRaw) {
  const std::size_t n = 1 << 18;
  Gpu gpu(v100_spec());
  auto noise = gcmpi::data::quantized_noise(n, 1 << 22, 3);  // ~pure random
  // Randomize the bit patterns fully to defeat MPC.
  gcmpi::sim::Rng rng(5);
  for (auto& x : noise) {
    std::uint32_t b = rng.next_u32();
    std::memcpy(&x, &b, 4);
  }
  auto* dev = static_cast<float*>(gpu.malloc_device_untimed(n * 4));
  std::memcpy(dev, noise.data(), n * 4);

  CompressionManager mgr(gpu, CompressionConfig::mpc_opt());
  Timeline tl(Time::zero());
  auto wire = send(mgr, tl, dev, n * 4);
  EXPECT_FALSE(wire.header.compressed);
  EXPECT_EQ(wire.data, dev);  // raw send, no staging held
  EXPECT_EQ(mgr.stats().messages_fallback_raw, 1u);
  EXPECT_GT(tl.now(), Time::zero());  // the kernel time was genuinely wasted
  mgr.release(tl, wire.staging);
}

TEST(Manager, NaiveChargesMallocOptDoesNot) {
  const std::size_t n = 1 << 20;
  Fixture f1(n), f2(n);
  CompressionManager naive(f1.gpu, CompressionConfig::mpc_naive());
  CompressionManager opt(f2.gpu, CompressionConfig::mpc_opt());
  Timeline t_naive(Time::zero()), t_opt(Time::zero());
  (void)pump(naive, f1.device_buf, n * 4, t_naive);
  (void)pump(opt, f2.device_buf, n * 4, t_opt);

  const Time naive_alloc = naive.sender_breakdown().get(Phase::MemoryAllocation) +
                           naive.receiver_breakdown().get(Phase::MemoryAllocation);
  const Time opt_alloc = opt.sender_breakdown().get(Phase::MemoryAllocation) +
                         opt.receiver_breakdown().get(Phase::MemoryAllocation);
  EXPECT_GT(naive_alloc, Time::us(500));  // cudaMalloc/cudaFree on the path
  EXPECT_LT(opt_alloc, Time::us(20));     // pool + memset only
  EXPECT_LT(t_opt.now(), t_naive.now());  // OPT is strictly faster overall
}

TEST(Manager, GdrcopyReducesReadbackCost) {
  const std::size_t n = 1 << 20;
  Fixture f1(n), f2(n);
  auto cfg_memcpy = CompressionConfig::mpc_opt();
  cfg_memcpy.use_gdrcopy = false;
  CompressionManager slow(f1.gpu, cfg_memcpy);
  CompressionManager fast(f2.gpu, CompressionConfig::mpc_opt());
  Timeline t1(Time::zero()), t2(Time::zero());
  (void)pump(slow, f1.device_buf, n * 4, t1);
  (void)pump(fast, f2.device_buf, n * 4, t2);
  const Time copies_slow = slow.sender_breakdown().get(Phase::DataCopies);
  const Time copies_fast = fast.sender_breakdown().get(Phase::DataCopies);
  EXPECT_GT(copies_slow, copies_fast);
}

TEST(Manager, ZfpNaivePaysDevicePropertiesEveryMessage) {
  const std::size_t n = 1 << 19;
  Fixture f1(n), f2(n);
  CompressionManager naive(f1.gpu, CompressionConfig::zfp_naive(16));
  CompressionManager opt(f2.gpu, CompressionConfig::zfp_opt(16));
  Timeline t1(Time::zero()), t2(Time::zero());
  (void)pump(naive, f1.device_buf, n * 4, t1);
  (void)pump(naive, f1.device_buf, n * 4, t1);
  (void)pump(opt, f2.device_buf, n * 4, t2);
  (void)pump(opt, f2.device_buf, n * 4, t2);
  const Time q_naive = naive.sender_breakdown().get(Phase::DeviceQuery) +
                       naive.receiver_breakdown().get(Phase::DeviceQuery);
  const Time q_opt = opt.sender_breakdown().get(Phase::DeviceQuery) +
                     opt.receiver_breakdown().get(Phase::DeviceQuery);
  // Naive: ~1840us x 4 calls; OPT: 15us once + ~1us after.
  EXPECT_GT(q_naive, Time::us(7000));
  EXPECT_LT(q_opt, Time::us(25));
}

TEST(Manager, MpcPartitionCountFollowsTuningTable) {
  Fixture f(1 << 23);  // 32 MiB
  CompressionManager mgr(f.gpu, CompressionConfig::mpc_opt());
  Timeline tl(Time::zero());
  auto wire = send(mgr, tl, f.device_buf, 32ull << 20);
  EXPECT_EQ(wire.header.partitions(), 8);  // >8MB rule
  mgr.release(tl, wire.staging);

  Timeline t2(Time::zero());
  auto wire2 = send(mgr, t2, f.device_buf, 1ull << 20);
  EXPECT_EQ(wire2.header.partitions(), 2);  // <=2MB rule
  mgr.release(t2, wire2.staging);

  Timeline t3(Time::zero());
  auto wire3 = send(mgr, t3, f.device_buf, 256ull << 10);
  EXPECT_EQ(wire3.header.partitions(), 1);  // <=512KB rule
  mgr.release(t3, wire3.staging);
}

TEST(Manager, PartitionedMpcRestoresExactly) {
  const std::size_t n = (32ull << 20) / 4;
  Fixture f(n);
  CompressionManager mgr(f.gpu, CompressionConfig::mpc_opt());
  Timeline tl(Time::zero());
  auto out = pump(mgr, f.device_buf, n * 4, tl);
  EXPECT_EQ(std::memcmp(out.data(), f.data.data(), n * 4), 0);
}

TEST(Manager, StatsAccumulateAcrossMessages) {
  const std::size_t n = 1 << 19;
  Fixture f(n);
  CompressionManager mgr(f.gpu, CompressionConfig::zfp_opt(8));
  Timeline tl(Time::zero());
  (void)pump(mgr, f.device_buf, n * 4, tl);
  (void)pump(mgr, f.device_buf, n * 4, tl);
  EXPECT_EQ(mgr.stats().messages_considered, 2u);
  EXPECT_EQ(mgr.stats().messages_compressed, 2u);
  EXPECT_EQ(mgr.stats().original_bytes, 2 * n * 4);
  EXPECT_NEAR(mgr.stats().achieved_ratio(), 4.0, 0.01);  // rate 8 => 4x
  mgr.reset_stats();
  EXPECT_EQ(mgr.stats().messages_considered, 0u);
}

TEST(Manager, WarmPlanChargesNoAllocation) {
  // A replayed plan holds its staging and its d_off scratch, so once warm
  // no entry point may charge a cudaMalloc or cudaFree, naive schemes
  // included.
  const std::size_t n = (1u << 20) / 4;
  for (const auto& [name, cfg] : {std::pair{"mpc_naive", CompressionConfig::mpc_naive()},
                                  std::pair{"zfp_naive16", CompressionConfig::zfp_naive(16)}}) {
    Fixture f(n);
    CompressionManager mgr(f.gpu, cfg);
    mgr.enable_plan_cache(true);
    Timeline tl(Time::zero());
    std::vector<float> out(n);

    const auto serial = [&] {
      auto wire = send(mgr, tl, f.device_buf, n * 4);
      ASSERT_TRUE(wire.header.compressed);
      auto staging = mgr.prepare_receive(tl, wire.header);
      std::memcpy(staging.data, wire.data, wire.bytes);
      mgr.decode(tl, wire.header, staging.data, out.data(), n * 4, std::nullopt, Placement::message());
      mgr.release(tl, staging);
      mgr.release(tl, wire.staging);
    };
    const auto batched = [&] {
      auto batch = send_batch(
          mgr, tl, {{f.device_buf, 256u << 10}, {f.device_buf + (64u << 10), 512u << 10}});
      for (const auto& b : batch.wires) {
        ASSERT_TRUE(b.header.compressed);
        auto staging = mgr.prepare_receive(tl, b.header);
        std::memcpy(staging.data, b.data, b.bytes);
        mgr.decode(tl, b.header, staging.data, out.data(), n * 4, std::nullopt, Placement::message());
        mgr.release(tl, staging);
      }
      mgr.release(tl, batch.staging);
    };
    const auto chunked = [&] {
      const std::uint64_t chunk = 256u << 10;
      auto pipe = mgr.prepare_pipeline_receive(tl, chunk, 2);
      for (int i = 0; i < 2; ++i) {
        const float* src = f.device_buf + static_cast<std::size_t>(i) * (chunk / 4);
        auto ck = launch_chunk(mgr, tl, src, chunk, i, 20);
        tl.advance_to(ck.kernel_done);
        mgr.finish(tl, ck);
        ASSERT_TRUE(ck.wires[0].header.compressed);
        mgr.decode(tl, ck.wires[0].header, ck.wires[0].data, out.data(), chunk, std::nullopt,
                   Placement::pipelined(i, 20));
        mgr.release(tl, ck.staging);
      }
      mgr.release(tl, pipe);
    };

    const auto allocation = [&] {
      return mgr.sender_breakdown().get(Phase::MemoryAllocation) +
             mgr.receiver_breakdown().get(Phase::MemoryAllocation);
    };
    for (const auto& [entry, run] : {std::pair<const char*, std::function<void()>>{"serial", serial},
                                     {"batch", batched},
                                     {"chunk", chunked}}) {
      run();  // cold: acquires the staging and captures the plan
      const Time alloc_before = allocation();
      const auto acquisitions_before = mgr.staging_acquisitions();
      run();
      EXPECT_EQ(allocation().count_ns(), alloc_before.count_ns()) << name << ' ' << entry;
      EXPECT_EQ(mgr.staging_acquisitions(), acquisitions_before) << name << ' ' << entry;
    }
  }
}

TEST(Manager, ChunkDecodePlanIsKeyedByZfpRate) {
  // Two pipeline chunks of the same bytes and blocks, one at rate 8 and one
  // at rate 16, are two launch shapes: the second captures its own graph
  // and pays its own codec setup rather than replaying the first's.
  const std::uint64_t chunk = 256u << 10;
  const std::size_t n = chunk / 4;
  Fixture f(n);
  CompressionManager rx(f.gpu, CompressionConfig::zfp_naive(8));
  rx.enable_plan_cache(true);
  Timeline tl(Time::zero());
  std::vector<float> out(n);
  auto pipe = rx.prepare_pipeline_receive(tl, chunk, 2);
  int index = 0;
  for (const int rate : {8, 16}) {
    Gpu gpu{v100_spec()};
    CompressionManager tx(gpu, CompressionConfig::zfp_opt(rate));
    auto* src = static_cast<float*>(gpu.malloc_device_untimed(chunk));
    std::memcpy(src, f.data.data(), chunk);
    Timeline ttl(Time::zero());
    auto ck = launch_chunk(tx, ttl, src, chunk, index, 20);
    ttl.advance_to(ck.kernel_done);
    tx.finish(ttl, ck);
    ASSERT_TRUE(ck.wires[0].header.compressed);
    ASSERT_EQ(ck.wires[0].header.zfp_rate, rate);
    const Time query_before = rx.receiver_breakdown().get(Phase::DeviceQuery);
    rx.decode(tl, ck.wires[0].header, ck.wires[0].data, out.data(), chunk, std::nullopt,
              Placement::pipelined(index, 20));
    EXPECT_GT(rx.receiver_breakdown().get(Phase::DeviceQuery), query_before) << "rate " << rate;
    tx.release(ttl, ck.staging);
    ++index;
  }
  EXPECT_EQ(rx.plan_stats().graphs_instantiated, 2u);
  rx.release(tl, pipe);
}

/// Answers every codec consultation with one fixed choice and logs what it
/// was asked.
struct StubPolicy final : AdaptivePolicy {
  CompressChoice choice;
  std::vector<std::pair<std::string, std::uint64_t>> asked;  // (scope, bytes)

  explicit StubPolicy(CompressChoice c) : choice(c) {}
  CompressChoice choose_codec(Time, int, const char* scope, std::uint64_t bytes) override {
    asked.emplace_back(scope, bytes);
    return choice;
  }
  CollectiveAlgorithm choose_allreduce(Time, int, std::uint64_t, int, int, int) override {
    return CollectiveAlgorithm::Auto;
  }
  CollectiveAlgorithm choose_alltoall(Time, int, std::uint64_t, int) override {
    return CollectiveAlgorithm::Auto;
  }
  CollectiveAlgorithm choose_bcast(Time, int, std::uint64_t, int, int, int) override {
    return CollectiveAlgorithm::Auto;
  }
  CollectiveAlgorithm choose_allgather(Time, int, std::uint64_t, int, int, int) override {
    return CollectiveAlgorithm::Auto;
  }
  CollectiveAlgorithm choose_gather(Time, int, std::uint64_t, int, int, int) override {
    return CollectiveAlgorithm::Auto;
  }
  CollectiveAlgorithm choose_scatter(Time, int, std::uint64_t, int, int, int) override {
    return CollectiveAlgorithm::Auto;
  }
};

TEST(Manager, AdaptiveChoiceOverridesTheConfigForOneCall) {
  // A manager configured for MPC with a policy attached directly: the
  // policy's codec runs for the call it was asked about, and the
  // configuration reads MPC again afterwards.
  const std::size_t n = (1u << 20) / 4;
  Fixture f(n);
  float max_abs = 0;
  for (float x : f.data) max_abs = std::max(max_abs, std::fabs(x));
  const double bound = gcmpi::comp::ZfpCodec(8).error_bound(max_abs);
  const auto within_bound = [&](const std::vector<float>& out, std::size_t first,
                                std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      if (std::fabs(static_cast<double>(out[i]) - f.data[first + i]) > bound) return false;
    }
    return true;
  };

  StubPolicy zfp8({true, Algorithm::ZFP, 8});
  CompressionManager mgr(f.gpu, CompressionConfig::mpc_opt());
  mgr.attach_adaptive(&zfp8);
  Timeline tl(Time::zero());
  std::vector<float> out(n);

  // Serial.
  auto wire = send(mgr, tl, f.device_buf, n * 4);
  EXPECT_EQ(mgr.config().algorithm, Algorithm::MPC);
  ASSERT_TRUE(wire.header.compressed);
  EXPECT_EQ(wire.header.algorithm, Algorithm::ZFP);
  EXPECT_EQ(wire.header.zfp_rate, 8);
  auto staging = mgr.prepare_receive(tl, wire.header);
  std::memcpy(staging.data, wire.data, wire.bytes);
  mgr.decode(tl, wire.header, staging.data, out.data(), n * 4, std::nullopt, Placement::message());
  EXPECT_TRUE(within_bound(out, 0, n));
  mgr.release(tl, staging);
  mgr.release(tl, wire.staging);

  // Batch: two eligible device blocks and one ineligible host block; the
  // policy is asked once, about the eligible bytes.
  std::vector<float> host_block(1u << 16, 1.0f);
  auto batch = send_batch(mgr, tl, {{f.device_buf, 256u << 10},
                                       {host_block.data(), host_block.size() * 4},
                                       {f.device_buf + (64u << 10), 512u << 10}});
  EXPECT_EQ(mgr.config().algorithm, Algorithm::MPC);
  EXPECT_FALSE(batch.wires[1].header.compressed);
  for (const std::size_t k : {0u, 2u}) {
    const auto& b = batch.wires[k];
    ASSERT_TRUE(b.header.compressed) << k;
    EXPECT_EQ(b.header.algorithm, Algorithm::ZFP);
    EXPECT_EQ(b.header.zfp_rate, 8);
    auto s = mgr.prepare_receive(tl, b.header);
    std::memcpy(s.data, b.data, b.bytes);
    mgr.decode(tl, b.header, s.data, out.data(), n * 4, std::nullopt, Placement::message());
    EXPECT_TRUE(within_bound(out, k == 0 ? 0 : 64u << 10, b.header.original_bytes / 4)) << k;
    mgr.release(tl, s);
  }
  mgr.release(tl, batch.staging);

  // One pipeline chunk.
  const std::uint64_t chunk = 128u << 10;
  auto ck = launch_chunk(mgr, tl, f.device_buf, chunk, 1, 20);
  tl.advance_to(ck.kernel_done);
  mgr.finish(tl, ck);
  EXPECT_EQ(mgr.config().algorithm, Algorithm::MPC);
  ASSERT_TRUE(ck.wires[0].header.compressed);
  EXPECT_EQ(ck.wires[0].header.algorithm, Algorithm::ZFP);
  EXPECT_EQ(ck.wires[0].header.zfp_rate, 8);
  auto pipe = mgr.prepare_pipeline_receive(tl, chunk, 2);
  mgr.decode(tl, ck.wires[0].header, ck.wires[0].data, out.data(), chunk, std::nullopt,
             Placement::pipelined(1, 20));
  EXPECT_TRUE(within_bound(out, 0, chunk / 4));
  mgr.release(tl, ck.staging);
  mgr.release(tl, pipe);

  const std::vector<std::pair<std::string, std::uint64_t>> asked = {
      {"p2p", n * 4}, {"batch", (256u << 10) + (512u << 10)}, {"chunk", chunk}};
  EXPECT_EQ(zfp8.asked, asked);

  // A policy that declines: every call goes out raw, and the config is
  // untouched.
  StubPolicy decline({false, Algorithm::None, 0});
  Telemetry telemetry;
  CompressionManager raw_mgr(f.gpu, CompressionConfig::mpc_opt());
  raw_mgr.attach_adaptive(&decline);
  raw_mgr.attach_telemetry(&telemetry, 0);
  auto raw = send(raw_mgr, tl, f.device_buf, n * 4);
  EXPECT_FALSE(raw.header.compressed);
  EXPECT_EQ(raw.data, f.device_buf);
  EXPECT_EQ(raw_mgr.config().algorithm, Algorithm::MPC);
  auto raw_batch = send_batch(raw_mgr, tl, {{f.device_buf, 256u << 10},
                                               {f.device_buf + (64u << 10), 512u << 10}});
  for (const auto& b : raw_batch.wires) EXPECT_FALSE(b.header.compressed);
  EXPECT_EQ(raw_mgr.config().algorithm, Algorithm::MPC);
  auto raw_ck = launch_chunk(raw_mgr, tl, f.device_buf, chunk, 0, 20);
  raw_mgr.finish(tl, raw_ck);
  EXPECT_FALSE(raw_ck.wires[0].header.compressed);
  EXPECT_EQ(raw_mgr.config().algorithm, Algorithm::MPC);
  EXPECT_EQ(decline.asked.size(), 3u);
  // The serial send and the batch each record one RawBypass; a raw chunk
  // records no event and counts as a raw pipeline chunk.
  ASSERT_EQ(telemetry.events().size(), 2u);
  for (const auto& ev : telemetry.events()) {
    EXPECT_EQ(ev.kind, EventKind::RawBypass);
    EXPECT_EQ(ev.algorithm, Algorithm::None);
  }
  EXPECT_EQ(std::string(telemetry.events()[0].channel), "p2p");
  EXPECT_EQ(std::string(telemetry.events()[1].channel), "batch");
  EXPECT_EQ(raw_mgr.stats().messages_compressed, 0u);
  EXPECT_EQ(raw_mgr.stats().pipeline_chunks_raw, 1u);
}

TEST(Manager, IncompressibleFallbackIsOneRule) {
  // Fixed-rate ZFP at 32 bits per value never shrinks a float32 payload:
  // the serial send, the batch and the pipeline chunk all go out raw,
  // each recording a FallbackRaw event and counting its fallback.
  const std::size_t n = (1u << 20) / 4;
  Fixture f(n);
  CompressionManager mgr(f.gpu, CompressionConfig::zfp_opt(32));
  Telemetry telemetry;
  mgr.attach_telemetry(&telemetry, 0);
  Timeline tl(Time::zero());

  auto wire = send(mgr, tl, f.device_buf, n * 4);
  EXPECT_FALSE(wire.header.compressed);
  EXPECT_EQ(wire.data, f.device_buf);
  EXPECT_EQ(wire.bytes, n * 4);
  mgr.release(tl, wire.staging);

  auto batch = send_batch(mgr, tl, {{f.device_buf, 256u << 10},
                                       {f.device_buf + (64u << 10), 512u << 10}});
  for (const auto& b : batch.wires) EXPECT_FALSE(b.header.compressed);
  mgr.release(tl, batch.staging);

  const std::uint64_t chunk = 128u << 10;
  auto ck = launch_chunk(mgr, tl, f.device_buf, chunk, 0, 20);
  tl.advance_to(ck.kernel_done);
  mgr.finish(tl, ck);
  EXPECT_FALSE(ck.wires[0].header.compressed);
  EXPECT_EQ(ck.wires[0].data, f.device_buf);

  ASSERT_EQ(telemetry.events().size(), 3u);
  for (const auto& ev : telemetry.events()) {
    EXPECT_EQ(ev.kind, EventKind::FallbackRaw) << ev.channel;
  }
  EXPECT_EQ(mgr.stats().messages_compressed, 0u);
  EXPECT_EQ(mgr.stats().messages_fallback_raw, 3u);  // the serial message and two blocks
  EXPECT_EQ(mgr.stats().pipeline_chunks_raw, 1u);
  EXPECT_EQ(mgr.stats().wire_bytes, mgr.stats().original_bytes);
}

// --- Charge pin -------------------------------------------------------------
//
// Every manager entry point (serial send/receive, fused reduce, batch, and
// the pipelined chunk calls) under the four paper configurations, with the
// plan cache off (one pass) and on (three passes), on compressible and
// incompressible payloads, plus a seeded fault schedule. The log records
// the virtual clock after each call, both breakdowns per phase, headers and
// wire bytes, decoded output, stats, plan stats, staging acquisitions and
// telemetry; its SHA-256 is pinned so a refactor of the manager cannot
// move a charge unnoticed.

struct ChargeCell {
  const char* name;
  CompressionConfig cfg;
  bool plan_cache;
  bool incompressible;
  bool faults;
};

/// FNV-1a: the log only needs to change when the bytes do.
std::uint64_t bytes_digest(const void* data, std::size_t bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ static_cast<const std::uint8_t*>(data)[i]) * 1099511628211ull;
  }
  return h;
}

std::string charge_log(const ChargeCell& c, const std::vector<float>& payload,
                       std::uint64_t* faults_seen) {
  // Two streams, so batches and chunk sequences wrap around.
  Gpu gpu{v100_spec(), 2};
  const std::size_t n = payload.size();
  auto* dev = static_cast<float*>(gpu.malloc_device_untimed(n * 4));
  std::memcpy(dev, payload.data(), n * 4);
  std::vector<float> host_block(16384, 1.0f);  // ineligible: host memory

  CompressionManager mgr(gpu, c.cfg);
  Telemetry telemetry;
  mgr.attach_telemetry(&telemetry, 0);
  auto plan = gcmpi::fault::FaultPlan::lossy(99, 0.0, 0.0);
  plan.compress_fail_probability = 0.2;
  plan.compress_truncate_probability = 0.2;
  plan.decompress_fail_probability = 0.25;
  gcmpi::fault::FaultInjector injector(plan);
  if (c.faults) mgr.attach_fault_injector(&injector);
  mgr.enable_plan_cache(c.plan_cache);

  Timeline tl(Time::zero());
  std::ostringstream log;
  log << c.name << (c.plan_cache ? " plan" : " cold") << (c.incompressible ? " noise" : " smooth")
      << (c.faults ? " faults" : "") << '\n';
  const auto mark = [&](const char* what) {
    log << what << " t=" << tl.now().count_ns();
    for (std::size_t p = 0; p < Breakdown::kPhases; ++p) {
      log << ' ' << mgr.sender_breakdown().get(static_cast<Phase>(p)).count_ns() << '/'
          << mgr.receiver_breakdown().get(static_cast<Phase>(p)).count_ns();
    }
    log << '\n';
  };
  const auto wire_line = [&](const CompressionHeader& h, const void* data, std::uint64_t bytes) {
    const auto ser = h.serialize();
    log << "  hdr " << bytes_digest(ser.data(), ser.size()) << " wire " << bytes << ' '
        << bytes_digest(data, bytes) << '\n';
  };

  std::vector<float> out(n);
  const int passes = c.plan_cache ? 3 : 1;
  for (int pass = 0; pass < passes; ++pass) {
    // Serial: a message launch -> prepare_receive -> decode, then the same
    // wire through the fused reduce.
    auto wire = send(mgr, tl, dev, n * 4);
    mark("send");
    wire_line(wire.header, wire.data, wire.bytes);
    const CompressionHeader header = wire.header;
    std::vector<std::uint8_t> staged(static_cast<const std::uint8_t*>(wire.data),
                                     static_cast<const std::uint8_t*>(wire.data) + wire.bytes);
    mgr.release(tl, wire.staging);
    mark("release_send");
    if (header.compressed) {
      auto staging = mgr.prepare_receive(tl, header);
      mark("prepare_receive");
      std::memcpy(staging.data, staged.data(), staged.size());
      try {
        CompressionManager::retry_decode(
            [&] { mgr.decode(tl, header, staging.data, out.data(), n * 4, std::nullopt, Placement::message()); }, 1);
        log << "  out " << bytes_digest(out.data(), n * 4) << '\n';
      } catch (const CodecFaultError&) {
        log << "  decode fault\n";
      }
      mark("decompress_received");
      std::vector<float> acc(n, 0.5f);
      try {
        CompressionManager::retry_decode(
            [&] {
              mgr.decode(tl, header, staging.data, acc.data(), n * 4,
                         gcmpi::comp::ReduceOp::Sum, Placement::message());
            },
            1);
        log << "  acc " << bytes_digest(acc.data(), n * 4) << '\n';
      } catch (const CodecFaultError&) {
        log << "  reduce fault\n";
      }
      mark("decompress_reduce");
      mgr.release(tl, staging);
      mark("release_receive");
    }

    // Batch: three eligible device blocks (wrapping the two streams) and
    // one ineligible host block, decoded unsynchronized on rotated streams.
    const std::vector<CompressionManager::Message> inputs = {
        {dev, 256u << 10},
        {host_block.data(), host_block.size() * 4},
        {dev + (256u << 8), 512u << 10},
        {dev + (768u << 8), 256u << 10}};
    auto batch = send_batch(mgr, tl, inputs);
    mark("compress_batch");
    std::vector<Staging> stagings;
    for (std::size_t k = 0; k < batch.wires.size(); ++k) {
      const auto& b = batch.wires[k];
      wire_line(b.header, b.data, b.bytes);
      if (!b.header.compressed) continue;
      auto s = mgr.prepare_receive(tl, b.header);
      std::memcpy(s.data, b.data, b.bytes);
      try {
        CompressionManager::retry_decode(
            [&] {
              mgr.decode(tl, b.header, s.data, out.data(), n * 4, std::nullopt,
                         Placement::message(/*stream=*/static_cast<int>(k) + 1,
                                            /*synchronize=*/false));
            },
            1);
        log << "  out " << bytes_digest(out.data(), b.header.original_bytes) << '\n';
      } catch (const CodecFaultError&) {
        log << "  decode fault\n";
      }
      mark("decompress_block");
      stagings.push_back(s);
    }
    gpu.device_synchronize(tl, &mgr.receiver_breakdown());
    mark("device_synchronize");
    for (auto& s : stagings) mgr.release(tl, s);
    mgr.release(tl, batch.staging);
    mark("release_batch");

    // Pipelined chunks: four 128 KiB chunks launched, finished at their
    // kernel_done and decoded from their wire bytes, under a two-slice
    // receive staging.
    const std::uint64_t chunk = 128u << 10;
    auto pipe = mgr.prepare_pipeline_receive(tl, chunk, 2);
    mark("prepare_pipeline_receive");
    for (int i = 0; i < 4; ++i) {
      const float* src = dev + static_cast<std::size_t>(i) * (chunk / 4);
      auto ck = launch_chunk(mgr, tl, src, chunk, i, 20);
      log << "  kernel " << ck.kernel_done.count_ns() << ' ' << ck.kernel_time.count_ns() << '\n';
      mark("compress_chunk");
      tl.advance_to(ck.kernel_done);
      mgr.finish(tl, ck);
      mark("finish_chunk");
      wire_line(ck.wires[0].header, ck.wires[0].data, ck.wires[0].bytes);
      try {
        const auto k = mgr.decode(tl, ck.wires[0].header, ck.wires[0].data, out.data(), chunk,
                                  std::nullopt, Placement::pipelined(i, 20));
        log << "  done " << k.done.count_ns() << ' ' << k.cost.count_ns() << '\n';
      } catch (const CodecFaultError&) {
        log << "  chunk fault\n";
      }
      mark("decompress_chunk");
      mgr.release(tl, ck.staging);
      mark("release_chunk");
    }
    mgr.release(tl, pipe);
    mark("release_pipeline_receive");
  }

  const auto& s = mgr.stats();
  log << "stats " << s.messages_considered << ' ' << s.messages_compressed << ' '
      << s.messages_fallback_raw << ' ' << s.codec_faults << ' ' << s.original_bytes << ' '
      << s.wire_bytes << ' ' << s.pipelined_messages << ' ' << s.pipeline_chunks_compressed
      << ' ' << s.pipeline_chunks_raw << '\n';
  const auto& ps = mgr.plan_stats();
  log << "plans " << ps.hits << ' ' << ps.misses << ' ' << ps.graphs_instantiated
      << " acquisitions " << mgr.staging_acquisitions() << '\n';
  for (const auto& ev : telemetry.events()) {
    log << "ev " << ev.at.count_ns() << ' ' << event_kind_name(ev.kind) << ' '
        << algorithm_name(ev.algorithm) << ' ' << ev.original_bytes << ' ' << ev.wire_bytes
        << ' ' << ev.duration.count_ns() << ' ' << ev.channel << '\n';
  }
  *faults_seen += s.codec_faults;
  return log.str();
}

TEST(Manager, ChargeDigestIsPinned) {
  const std::vector<std::pair<const char*, CompressionConfig>> configs = {
      {"mpc_opt", CompressionConfig::mpc_opt()},
      {"mpc_naive", CompressionConfig::mpc_naive()},
      {"zfp_opt8", CompressionConfig::zfp_opt(8)},
      {"zfp_naive16", CompressionConfig::zfp_naive(16)}};
  const std::size_t n = (1u << 20) / 4;
  const std::vector<float> smooth = gcmpi::data::smooth_field(n, 1e-4, 11);
  std::vector<float> noise(n);
  gcmpi::sim::Rng rng(5);
  for (auto& x : noise) {
    const std::uint32_t b = rng.next_u32() & 0xBFFFFFFFu;  // finite, |x| < 2
    std::memcpy(&x, &b, 4);
  }
  std::string all;
  std::uint64_t faults_seen = 0;
  for (const auto& [name, cfg] : configs) {
    for (const bool plan_cache : {false, true}) {
      for (const auto& [noisy, faults] : {std::pair{false, false}, {true, false}, {false, true}}) {
        all += charge_log({name, cfg, plan_cache, noisy, faults}, noisy ? noise : smooth,
                          &faults_seen);
      }
    }
  }
  EXPECT_GT(faults_seen, 0u) << "the seeded fault schedule never fired";
  EXPECT_EQ(gcmpi::testing::sha256_hex({reinterpret_cast<const std::uint8_t*>(all.data()),
                                        all.size()}),
            "cb0148c5a1e8ef764efe3a87cdb47de0ffb8e383a2a28b36171a884be7964af0");
}

}  // namespace
