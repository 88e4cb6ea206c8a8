// Persistent-channel tests (mpi/channel.hpp): the RepeatHeader wire form,
// warm/cold content equivalence, the tentpole claims — zero control-plane
// round trips and zero staging acquisitions on warm iterations, for the
// serial p2p path AND the collective engines — and fault composition
// (drop/corrupt retransmits on the channel, decode faults degrade one
// message to raw while the channel stays warm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/channel.hpp"
#include "mpi/world.hpp"

namespace {

using namespace gcmpi;
using mpi::Channel;
using mpi::ChannelKey;
using mpi::Rank;
using mpi::RepeatHeader;
using mpi::World;
using sim::Time;

TEST(RepeatHeader, SerializeDeserializeRoundTrip) {
  RepeatHeader h;
  h.channel = 42;
  h.seq = 1'000'003;
  h.wire_len = (1ull << 20) + 17;
  h.crc32c = 0xdeadbeef;
  h.flags = RepeatHeader::kCompressed;
  h.partition_bytes = {100, 200, 300};

  const auto bytes = h.serialize();
  EXPECT_EQ(bytes.size(), h.wire_bytes());
  const RepeatHeader back = RepeatHeader::deserialize(bytes);
  EXPECT_EQ(back, h);

  // A raw-degrade header with no partitions round-trips too.
  RepeatHeader raw;
  raw.channel = 7;
  raw.seq = 9;
  raw.wire_len = 4096;
  raw.flags = RepeatHeader::kRawDegrade;
  EXPECT_EQ(RepeatHeader::deserialize(raw.serialize()), raw);

  // Truncated and over-long inputs are rejected.
  auto short_bytes = bytes;
  short_bytes.pop_back();
  EXPECT_THROW((void)RepeatHeader::deserialize(short_bytes), std::invalid_argument);
  auto long_bytes = bytes;
  long_bytes.push_back(0);
  EXPECT_THROW((void)RepeatHeader::deserialize(long_bytes), std::invalid_argument);
}

TEST(RepeatHeader, ExpandRebuildsFullHeaderFromTemplate) {
  core::CompressionHeader first;
  first.algorithm = core::Algorithm::MPC;
  first.original_bytes = 1 << 20;
  first.mpc_dimensionality = 3;
  first.mpc_chunk_values = 1024;
  first.compressed = true;
  first.compressed_bytes = 123456;  // per-message field: must NOT survive
  first.payload_crc32c = 0x1111;
  const auto tmpl = mpi::make_channel_template(first, 1 << 20);
  EXPECT_EQ(tmpl.compressed_bytes, 0u);
  EXPECT_EQ(tmpl.payload_crc32c, 0u);

  RepeatHeader rep;
  rep.wire_len = 654321;
  rep.crc32c = 0x2222;
  rep.flags = RepeatHeader::kCompressed;
  rep.partition_bytes = {654321};
  const auto h = rep.expand(tmpl);
  EXPECT_TRUE(h.compressed);
  EXPECT_EQ(h.algorithm, core::Algorithm::MPC);
  EXPECT_EQ(h.original_bytes, 1u << 20);
  EXPECT_EQ(h.compressed_bytes, 654321u);
  EXPECT_EQ(h.payload_crc32c, 0x2222u);
  EXPECT_EQ(h.mpc_dimensionality, 3);

  // Raw degrade: the expanded header describes a plain raw wire.
  RepeatHeader rawrep;
  rawrep.wire_len = 1 << 20;
  rawrep.flags = RepeatHeader::kRawDegrade;
  const auto rawh = rawrep.expand(tmpl);
  EXPECT_FALSE(rawh.compressed);
  EXPECT_EQ(rawh.algorithm, core::Algorithm::None);
}

// Total staging acquisitions across every rank of a world.
std::uint64_t total_staging(World& world) {
  std::uint64_t total = 0;
  for (int r = 0; r < world.size(); ++r) {
    total += world.compression_of(r).staging_acquisitions();
  }
  return total;
}

TEST(PersistentChannel, WarmP2PSkipsHandshakeAndStaging) {
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.persistent.enabled = true;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 1 << 16;  // 256 KiB of floats: compressible route
  const auto payload = data::smooth_field(n, 1e-4, 8);
  const int iters = 8;
  std::uint64_t control_before = 0, control_after = 0;
  std::uint64_t staging_before = 0, staging_after = 0;

  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> out(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < iters; ++it) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, 7);
      } else {
        std::memset(out.data(), 0, n * 4);
        const auto st = R.recv(out.data(), n * 4, 0, 7);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(st.bytes, n * 4);
        // Warm iterations deliver bit-exactly what the cold one did.
        ASSERT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0) << "iter " << it;
      }
      R.barrier();
      if (R.rank() == 0) {
        if (it == 2) {
          control_before = world.fabric().control_packets();
          staging_before = total_staging(world);
        } else if (it == iters - 1) {
          control_after = world.fabric().control_packets();
          staging_after = total_staging(world);
        }
      }
    }
    R.gpu_free(dev);
  });

  // Steady-state warm iterations run with ZERO control-plane packets (no
  // RTS, no CTS, refills piggyback on the completion notification) and
  // ZERO staging acquisitions (sender and receiver staging both come from
  // plan-cache slots that every iteration finds free).
  EXPECT_EQ(control_after, control_before);
  EXPECT_EQ(staging_after, staging_before);

  ASSERT_EQ(world.channels().size(), 1u);
  const Channel& ch = world.channels().begin()->second;
  EXPECT_EQ(ch.key, (ChannelKey{0, 1, 7, n * 4}));
  EXPECT_TRUE(ch.warm);
  EXPECT_EQ(ch.warmups, 1u);
  EXPECT_GE(ch.warm_sends, static_cast<std::uint64_t>(iters - 2));
  EXPECT_GT(ch.header_bytes_saved, 0u);
  EXPECT_GT(ch.plan_hits, 0u);
  EXPECT_EQ(ch.retransmits, 0u);
  EXPECT_EQ(ch.raw_degrades, 0u);

  // The channel's lifetime totals were flushed as one ChannelRecord.
  const auto s = telemetry.summarize();
  EXPECT_EQ(s.channels, 1u);
  EXPECT_EQ(s.channel_warmups, 1u);
  EXPECT_EQ(s.channel_warm_sends, ch.warm_sends);
  EXPECT_EQ(s.channel_header_bytes_saved, ch.header_bytes_saved);
  std::ostringstream csv;
  telemetry.write_channel_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("warm_sends"), std::string::npos);
  // Header plus one row for the single channel.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(PersistentChannel, DisabledLeavesNoTrace) {
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;  // persistent stays default-off
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);
  const std::size_t n = 1 << 16;
  const auto payload = data::smooth_field(n, 1e-4, 8);
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> out(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < 3; ++it) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, 7);
      } else {
        (void)R.recv(out.data(), n * 4, 0, 7);
      }
    }
    R.gpu_free(dev);
  });
  EXPECT_TRUE(world.channels().empty());
  EXPECT_EQ(telemetry.summarize().channels, 0u);
}

TEST(PersistentChannel, WarmRingAllreduceZeroControlPlane) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.persistent.enabled = true;
  opts.collectives[core::CollectiveOp::Allreduce] = core::CollectiveAlgorithm::Ring;
  World world(engine, net::longhorn(4, 1), core::CompressionConfig::mpc_opt(), opts);
  const int P = world.size();
  const std::size_t n = 1 << 18;  // 1 MiB of floats; 256 KiB ring shards

  const int iters = 6;
  std::uint64_t control_before = 0, control_after = 0;
  std::uint64_t staging_before = 0, staging_after = 0;
  int mismatches = 0;

  world.run([&](Rank& R) {
    const auto mine =
        data::generate("msg_sppm", n, static_cast<std::uint64_t>(R.rank()) + 1);
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, mine.data(), n * 4);
    std::vector<float> cold(n), warm(n);
    for (int it = 0; it < iters; ++it) {
      R.allreduce(dev, it == 0 ? cold.data() : warm.data(), n, mpi::ReduceOp::Sum);
      if (it > 0 && std::memcmp(warm.data(), cold.data(), n * 4) != 0) ++mismatches;
      R.barrier();
      if (R.rank() == 0) {
        if (it == 2) {
          control_before = world.fabric().control_packets();
          staging_before = total_staging(world);
        } else if (it == iters - 1) {
          control_after = world.fabric().control_packets();
          staging_after = total_staging(world);
        }
      }
    }
    R.gpu_free(dev);
  });

  EXPECT_EQ(mismatches, 0);  // warm rounds reproduce the cold result bit-exactly
  EXPECT_EQ(control_after, control_before);
  EXPECT_EQ(staging_after, staging_before);

  // One wire channel per ring edge, all warm, reused across both phases
  // of every round.
  EXPECT_EQ(world.channels().size(), static_cast<std::size_t>(P));
  for (const auto& [key, ch] : world.channels()) {
    EXPECT_EQ(key.tag_class, mpi::kWireTagClass);
    EXPECT_TRUE(ch.warm);
    EXPECT_GT(ch.warm_sends, 0u);
  }
}

TEST(PersistentChannel, WarmBatchedAlltoallZeroControlPlane) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.persistent.enabled = true;
  opts.collectives[core::CollectiveOp::Alltoall] = core::CollectiveAlgorithm::BatchedPairwise;
  World world(engine, net::longhorn(4, 1), core::CompressionConfig::mpc_opt(), opts);
  const int P = world.size();
  const std::size_t bn = 1 << 17;  // 512 KiB per-destination blocks

  // Every rank's send slab is globally known so each receiver can check
  // its assembled result against the host-computed expectation.
  std::vector<std::vector<float>> slabs;
  for (int r = 0; r < P; ++r) {
    slabs.push_back(data::generate("msg_sweep3d", bn * static_cast<std::size_t>(P),
                                   static_cast<std::uint64_t>(r) + 100));
  }

  const int rounds = 5;
  std::uint64_t control_before = 0, control_after = 0;
  std::uint64_t staging_before = 0, staging_after = 0;
  int mismatches = 0;

  world.run([&](Rank& R) {
    const int me = R.rank();
    const std::size_t slab = bn * static_cast<std::size_t>(P);
    auto* send = static_cast<float*>(R.gpu_malloc(slab * 4));
    auto* recv = static_cast<float*>(R.gpu_malloc(slab * 4));
    std::memcpy(send, slabs[static_cast<std::size_t>(me)].data(), slab * 4);
    for (int round = 0; round < rounds; ++round) {
      std::memset(recv, 0, slab * 4);
      R.alltoall(send, bn * 4, recv);
      for (int s = 0; s < P; ++s) {
        const float* expect =
            slabs[static_cast<std::size_t>(s)].data() + static_cast<std::size_t>(me) * bn;
        if (std::memcmp(recv + static_cast<std::size_t>(s) * bn, expect, bn * 4) != 0) {
          ++mismatches;
        }
      }
      R.barrier();
      if (me == 0) {
        if (round == 2) {
          control_before = world.fabric().control_packets();
          staging_before = total_staging(world);
        } else if (round == rounds - 1) {
          control_after = world.fabric().control_packets();
          staging_after = total_staging(world);
        }
      }
    }
    R.gpu_free(send);
    R.gpu_free(recv);
  });

  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(control_after, control_before);
  EXPECT_EQ(staging_after, staging_before);
  // One channel per ordered rank pair, all riding the wire tag class.
  EXPECT_EQ(world.channels().size(), static_cast<std::size_t>(P * (P - 1)));
  for (const auto& [key, ch] : world.channels()) {
    EXPECT_EQ(key.tag_class, mpi::kWireTagClass);
    EXPECT_TRUE(ch.warm);
  }
}

TEST(PersistentChannel, LossyWireRetransmitsOnChannelWithoutTeardown) {
  // Drops and corruptions on warm payloads recover with a per-message
  // NACK/watchdog re-push on the channel — no RTS/CTS renegotiation, no
  // teardown — and every message still lands bit-exactly.
  fault::FaultInjector injector(fault::FaultPlan::lossy(20260809, 0.2, 0.2));
  sim::Engine engine;
  core::Telemetry telemetry;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.telemetry = &telemetry;
  opts.persistent.enabled = true;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 1 << 16;
  const auto payload = data::smooth_field(n, 1e-4, 8);
  const int iters = 16;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> out(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < iters; ++it) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, 3);
      } else {
        std::memset(out.data(), 0, n * 4);
        const auto st = R.recv(out.data(), n * 4, 0, 3);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0) << "iter " << it;
      }
    }
    R.gpu_free(dev);
  });

  const auto& fs = injector.stats();
  EXPECT_GT(fs.drops + fs.corruptions, 0u);  // the seed actually misbehaved
  ASSERT_EQ(world.channels().size(), 1u);
  const Channel& ch = world.channels().begin()->second;
  EXPECT_TRUE(ch.warm);  // recoveries never tore the channel down
  EXPECT_GT(ch.warm_sends, 0u);
  EXPECT_GT(ch.retransmits, 0u);
  EXPECT_EQ(telemetry.summarize().channel_retransmits, ch.retransmits);
}

TEST(PersistentChannel, DecodeFaultDegradesOneMessageKeepsChannelWarm) {
  // Every decompression faults: each warm message degrades to a raw
  // resend (NACK -> sender re-pushes the original bytes), the channel
  // stays warm, and delivery is still bit-exact.
  fault::FaultPlan plan;
  plan.seed = 99;
  plan.decompress_fail_probability = 1.0;
  fault::FaultInjector injector(plan);
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.fault = &injector;
  opts.persistent.enabled = true;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 1 << 16;
  const auto payload = data::smooth_field(n, 1e-4, 8);
  const int iters = 6;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> out(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < iters; ++it) {
      if (R.rank() == 0) {
        R.send(dev, n * 4, 1, 5);
      } else {
        std::memset(out.data(), 0, n * 4);
        const auto st = R.recv(out.data(), n * 4, 0, 5);
        ASSERT_TRUE(st.ok());
        ASSERT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0) << "iter " << it;
      }
    }
    R.gpu_free(dev);
  });

  ASSERT_EQ(world.channels().size(), 1u);
  const Channel& ch = world.channels().begin()->second;
  EXPECT_TRUE(ch.warm);
  EXPECT_GT(ch.warm_sends, 0u);
  EXPECT_GT(ch.raw_degrades, 0u);
}

TEST(PersistentChannel, SameShapeChannelsShareOneReceiveStaging) {
  // Two channels of one shape into one receiver: each warm consume takes
  // its decode staging from the shape's plan slot and hands it back, so
  // the channels share one slot instead of each holding its own.
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.persistent.enabled = true;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);

  const std::size_t n = 1 << 16;  // 256 KiB of floats
  const auto payload = data::smooth_field(n, 1e-4, 8);
  const int rounds = 6;
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::vector<float> out(n);
    if (R.rank() == 0) std::memcpy(dev, payload.data(), n * 4);
    for (int it = 0; it < rounds; ++it) {
      for (const int tag : {7, 8}) {
        if (R.rank() == 0) {
          R.send(dev, n * 4, 1, tag);
        } else {
          std::memset(out.data(), 0, n * 4);
          ASSERT_TRUE(R.recv(out.data(), n * 4, 0, tag).ok());
          ASSERT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0)
              << "round " << it << " tag " << tag;
        }
      }
    }
    R.gpu_free(dev);
  });

  EXPECT_EQ(world.compression_of(1).staging_acquisitions(), 1u);
  ASSERT_EQ(world.channels().size(), 2u);
  const Channel& t7 = world.channels().at(ChannelKey{0, 1, 7, n * 4});
  const Channel& t8 = world.channels().at(ChannelKey{0, 1, 8, n * 4});
  EXPECT_TRUE(t7.warm);
  EXPECT_TRUE(t8.warm);
  EXPECT_EQ(t7.plan_hits, 10u);
  EXPECT_EQ(t7.plan_misses, 1u);
  EXPECT_EQ(t8.plan_hits, 11u);
  EXPECT_EQ(t8.plan_misses, 0u);
}

TEST(PersistentChannel, ProbeWakesWhenParkedWarmMessageBecomesHead) {
  // On a lossy wire the second warm message can overtake the first and
  // park. When the first is consumed the parked one becomes its channel's
  // head; a blocked probe must wake for it, or the run deadlocks.
  constexpr std::size_t kBytes = 64 << 10;
  constexpr int kTag = 5;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int m = 0; m < 3; ++m) sent.emplace_back(kBytes, static_cast<std::uint8_t>(m + 1));
  std::vector<std::uint64_t> bad_seeds;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fault::FaultInjector injector(fault::FaultPlan::lossy(seed, 0.5, 0.0));
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = &injector;
    opts.persistent.enabled = true;
    World world(engine, net::longhorn(2, 1), core::CompressionConfig::off(), opts);
    bool ok = false;
    try {
      world.run([&](Rank& R) {
        if (R.rank() == 0) {
          R.send(sent[0].data(), kBytes, 1, kTag);  // warms the channel
          R.barrier();
          std::vector<mpi::Request> reqs{R.isend(sent[1].data(), kBytes, 1, kTag),
                                         R.isend(sent[2].data(), kBytes, 1, kTag)};
          R.waitall(reqs);
          return;
        }
        std::vector<std::vector<std::uint8_t>> got(3, std::vector<std::uint8_t>(kBytes));
        bool all = R.recv(got[0].data(), kBytes, 0, kTag).ok();
        R.barrier();
        mpi::Request first = R.irecv(got[1].data(), kBytes, 0, kTag);
        all = R.probe(0, kTag).bytes == kBytes && all;
        all = R.recv(got[2].data(), kBytes, 0, kTag).ok() && all;
        all = R.wait(first).ok() && all;
        ok = all && got == sent;
      });
    } catch (const std::exception&) {
      ok = false;  // Engine::run: deadlock
    }
    if (!ok) bad_seeds.push_back(seed);
  }
  EXPECT_TRUE(bad_seeds.empty()) << bad_seeds.size() << " seeds failed, first "
                                 << (bad_seeds.empty() ? 0 : bad_seeds.front());
}

// --- Non-overtaking on warm channels ------------------------------------
// A warm message that is stalled on credits, dropped, or decode-faulted is
// still the earlier message: a later send under the same tag must not take
// the receive it is due to fill. Every scenario also runs with channels off,
// where the cold protocol already keeps this order.

constexpr std::size_t kWarmFloats = 1 << 16;  // 256 KiB: a rendezvous shape
constexpr std::size_t kEagerBytes = 1 << 10;  // 1 KiB: rides the eager path
constexpr int kOrderTag = 7;

/// Message m (0..6) of a run: a smooth (MPC-compressible) field shifted by
/// m, so every message has distinct bytes.
const std::vector<float>& warm_message(int m) {
  static const auto messages = [] {
    std::vector<std::vector<float>> all(7, data::smooth_field(kWarmFloats, 1e-4, 8));
    for (std::size_t k = 0; k < all.size(); ++k) {
      for (auto& x : all[k]) x += static_cast<float>(k);
    }
    return all;
  }();
  return messages.at(static_cast<std::size_t>(m));
}

std::vector<std::uint8_t> eager_message() {
  std::vector<std::uint8_t> v(kEagerBytes);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return v;
}

/// Rank 0 warms tag 7 with one rendezvous send, then (after a barrier)
/// isends `warm` more rendezvous messages and one 1 KiB eager message on
/// tag 7; rank 1 posts one irecv(0, 7) per message, `post_delay` after the
/// barrier. Returns the
/// receives that got another message than the one sent in their position
/// (a RetryLimit failure of a rendezvous message in its own position is
/// not a misorder). -1 if the run deadlocked. `stalls` gets the channel's
/// credit stalls.
int misordered_receives(int warm, core::CompressionConfig cfg, bool persistent,
                        fault::FaultInjector* injector = nullptr,
                        Time post_delay = Time::zero(), std::uint64_t* stalls = nullptr) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.fault = injector;
  opts.persistent.enabled = persistent;
  World world(engine, net::longhorn(2, 1), cfg, opts);
  constexpr std::size_t kBytes = kWarmFloats * 4;
  const auto eager = eager_message();
  int misordered = 0;
  try {
    world.run([&](Rank& R) {
      if (R.rank() == 0) {
        auto* dev = static_cast<float*>(R.gpu_malloc(kBytes * static_cast<std::size_t>(warm + 1)));
        for (int m = 0; m <= warm; ++m) {
          std::memcpy(dev + static_cast<std::size_t>(m) * kWarmFloats, warm_message(m).data(),
                      kBytes);
        }
        R.send(dev, kBytes, 1, kOrderTag);  // cold: warms the channel
        R.barrier();
        std::vector<mpi::Request> reqs;
        for (int m = 1; m <= warm; ++m) {
          reqs.push_back(R.isend(dev + static_cast<std::size_t>(m) * kWarmFloats, kBytes, 1,
                                 kOrderTag));
        }
        reqs.push_back(R.isend(eager.data(), kEagerBytes, 1, kOrderTag));
        R.waitall(reqs);
        R.gpu_free(dev);
        return;
      }
      std::vector<float> first(kWarmFloats);
      (void)R.recv(first.data(), kBytes, 0, kOrderTag);
      R.barrier();
      R.compute(post_delay);
      std::vector<std::vector<float>> got(static_cast<std::size_t>(warm) + 1,
                                          std::vector<float>(kWarmFloats));
      std::vector<mpi::Request> reqs;
      for (auto& g : got) reqs.push_back(R.irecv(g.data(), kBytes, 0, kOrderTag));
      for (int k = 0; k <= warm; ++k) {
        const auto st = R.wait(reqs[static_cast<std::size_t>(k)]);
        const auto& g = got[static_cast<std::size_t>(k)];
        if (k < warm) {
          const auto& expect = warm_message(k + 1);
          const bool mine = st.ok() ? st.bytes == kBytes &&
                                          std::memcmp(g.data(), expect.data(), kBytes) == 0
                                    : st.error == mpi::StatusError::RetryLimit;
          if (!mine) ++misordered;
        } else if (!st.ok() || st.bytes != kEagerBytes ||
                   std::memcmp(g.data(), eager.data(), kEagerBytes) != 0) {
          ++misordered;
        }
      }
    });
  } catch (const std::exception&) {
    return -1;  // Engine::run: deadlock
  }
  if (stalls != nullptr) {
    *stalls = 0;
    for (const auto& [key, ch] : world.channels()) *stalls += ch.credit_stalls;
  }
  return misordered;
}

TEST(PersistentChannel, CreditStalledWarmMessagesAreNotOvertaken) {
  // Six warm sends against four credits: two stall at the sender. The eager
  // message sent after them must still take the seventh receive. Raw sends
  // outrun the consumes even with the receives posted up front; compressed
  // ones stall when the receives are posted 1 ms late.
  for (const auto& cfg : {core::CompressionConfig::off(), core::CompressionConfig::mpc_opt()}) {
    for (const Time delay : {Time::zero(), Time::ms(1)}) {
      for (const bool persistent : {false, true}) {
        std::uint64_t stalls = 0;
        EXPECT_EQ(misordered_receives(6, cfg, persistent, nullptr, delay, &stalls), 0)
            << core::algorithm_name(cfg.algorithm) << " delay " << delay.count_ns()
            << " channels " << persistent;
        const bool must_stall =
            persistent && (cfg.algorithm == core::Algorithm::None || delay > Time::zero());
        if (must_stall) {
          EXPECT_EQ(stalls, 2u);
        }
      }
    }
  }
}

TEST(PersistentChannel, DroppedWarmMessageIsNotOvertaken) {
  // A warm message in retransmission recovery keeps its receive: the eager
  // message sent after it arrives first but takes the second receive.
  for (const bool persistent : {false, true}) {
    std::vector<std::uint64_t> bad_seeds;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      fault::FaultInjector injector(fault::FaultPlan::lossy(seed, 0.5, 0.0));
      if (misordered_receives(1, core::CompressionConfig::off(), persistent, &injector) != 0) {
        bad_seeds.push_back(seed);
      }
    }
    EXPECT_TRUE(bad_seeds.empty()) << "channels " << persistent << ": " << bad_seeds.size()
                                   << " seeds misordered, first "
                                   << (bad_seeds.empty() ? 0 : bad_seeds.front());
  }
}

TEST(PersistentChannel, DecodeFaultedWarmMessageKeepsItsReceive) {
  // A decode fault degrades the warm message to a raw re-push; its receive
  // stays bound to it, so the eager message cannot take it meanwhile.
  for (const bool persistent : {false, true}) {
    std::vector<std::uint64_t> bad_seeds;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      fault::FaultPlan plan;
      plan.seed = seed;
      plan.decompress_fail_probability = 0.5;
      fault::FaultInjector injector(plan);
      if (misordered_receives(1, core::CompressionConfig::mpc_opt(), persistent, &injector) !=
          0) {
        bad_seeds.push_back(seed);
      }
    }
    EXPECT_TRUE(bad_seeds.empty()) << "channels " << persistent << ": " << bad_seeds.size()
                                   << " seeds misordered, first "
                                   << (bad_seeds.empty() ? 0 : bad_seeds.front());
  }
}

}  // namespace
