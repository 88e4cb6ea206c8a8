// MiniMPI point-to-point tests: eager and rendezvous paths, matching
// semantics (ordering, wildcards, unexpected messages), non-blocking
// requests, device-buffer sends with and without compression.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "support/freed_sends.hpp"
#include "support/payloads.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::World;
using sim::Time;

core::CompressionConfig no_compression() { return core::CompressionConfig::off(); }

TEST(MiniMpi, EagerHostSendRecv) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  std::vector<int> received(4, 0);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const int data[4] = {1, 2, 3, 4};
      R.send(data, sizeof(data), 1, 7);
    } else {
      const auto st = R.recv(received.data(), 16, 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 16u);
    }
  });
  EXPECT_EQ(received, (std::vector<int>{1, 2, 3, 4}));
}

TEST(MiniMpi, RendezvousLargeHostMessage) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  const std::size_t n = 1 << 20;  // 4 MB > eager threshold
  std::vector<float> out(n, 0.0f);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      std::vector<float> in(n);
      std::iota(in.begin(), in.end(), 0.0f);
      R.send(in.data(), n * 4, 1, 1);
    } else {
      R.recv(out.data(), n * 4, 0, 1);
    }
  });
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[n - 1], static_cast<float>(n - 1));
}

TEST(MiniMpi, MessagesDoNotOvertakePerPair) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  std::vector<int> order;
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      for (int i = 0; i < 8; ++i) R.send(&i, 4, 1, 5);
    } else {
      for (int i = 0; i < 8; ++i) {
        int v = -1;
        R.recv(&v, 4, 0, 5);
        order.push_back(v);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(MiniMpi, SpikedRtsIsNotOvertakenByALaterEagerMessage) {
  // A latency spike on the control plane delays a 64 KiB message's RTS
  // past the 100-byte eager message sent after it under the same tag. The
  // eager message still must take the second receive, not the first.
  std::vector<std::uint64_t> bad_seeds;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.latency_spike_probability = 0.5;
    fault::FaultInjector injector(plan);
    sim::Engine engine;
    mpi::WorldOptions opts;
    opts.fault = &injector;
    World world(engine, net::longhorn(2, 1), no_compression(), opts);
    const std::vector<std::uint8_t> big(64 << 10, 1), small(100, 2);
    bool ok = false;
    world.run([&](Rank& R) {
      if (R.rank() == 0) {
        std::vector<mpi::Request> reqs{R.isend(big.data(), big.size(), 1, 3),
                                       R.isend(small.data(), small.size(), 1, 3)};
        R.waitall(reqs);
        return;
      }
      std::vector<std::uint8_t> first(big.size()), second(big.size());
      mpi::Request r1 = R.irecv(first.data(), first.size(), 0, 3);
      mpi::Request r2 = R.irecv(second.data(), second.size(), 0, 3);
      ok = R.wait(r1).bytes == big.size() && R.wait(r2).bytes == small.size();
    });
    if (!ok) bad_seeds.push_back(seed);
  }
  EXPECT_TRUE(bad_seeds.empty()) << bad_seeds.size() << " seeds misordered, first "
                                 << (bad_seeds.empty() ? 0 : bad_seeds.front());
}

TEST(MiniMpi, WildcardSourceAndTag) {
  sim::Engine engine;
  World world(engine, net::longhorn(3, 1), no_compression());
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      int a = 0, b = 0;
      const auto s1 = R.recv(&a, 4, mpi::kAnySource, mpi::kAnyTag);
      const auto s2 = R.recv(&b, 4, mpi::kAnySource, mpi::kAnyTag);
      EXPECT_NE(s1.source, s2.source);
      EXPECT_EQ(a + b, 30);
    } else if (R.rank() == 1) {
      const int v = 10;
      R.send(&v, 4, 0, 100);
    } else {
      R.compute(Time::us(50));  // stagger
      const int v = 20;
      R.send(&v, 4, 0, 200);
    }
  });
}

TEST(MiniMpi, UnexpectedEagerMessageIsBuffered) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  int got = 0;
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const int v = 77;
      R.send(&v, 4, 1, 3);
    } else {
      R.compute(Time::ms(5));  // the message arrives long before the recv
      R.recv(&got, 4, 0, 3);
    }
  });
  EXPECT_EQ(got, 77);
}

TEST(MiniMpi, LateRecvMatchesPendingRts) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  const std::size_t n = 1 << 18;
  std::vector<float> out(n, 0.0f);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      std::vector<float> in(n, 2.5f);
      R.send(in.data(), n * 4, 1, 9);  // blocks until receiver clears us
    } else {
      R.compute(Time::ms(2));
      R.recv(out.data(), n * 4, 0, 9);
    }
  });
  EXPECT_EQ(out[n / 2], 2.5f);
}

TEST(MiniMpi, NonblockingOverlapsCompute) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  Time with_overlap = Time::zero();
  world.run([&](Rank& R) {
    const std::size_t n = 1 << 20;
    if (R.rank() == 0) {
      std::vector<float> in(n, 1.0f);
      auto req = R.isend(in.data(), n * 4, 1, 1);
      R.compute(Time::ms(1));  // overlapped with the transfer
      R.wait(req);
    } else {
      std::vector<float> out(n);
      auto req = R.irecv(out.data(), n * 4, 0, 1);
      R.compute(Time::ms(1));
      R.wait(req);
      with_overlap = R.now();
    }
  });
  // 4MB over EDR is ~0.33ms; with 1ms compute overlapped the end-to-end
  // time must be well under the serial sum (~1.4ms).
  EXPECT_LT(with_overlap, Time::ms(1.4));
  EXPECT_GE(with_overlap, Time::ms(1.0));
}

TEST(MiniMpi, SelfSendAnySize) {
  sim::Engine engine;
  World world(engine, net::longhorn(1, 1), no_compression());
  const std::size_t n = 1 << 19;
  std::vector<float> out(n);
  world.run([&](Rank& R) {
    std::vector<float> in(n, 4.2f);
    auto rr = R.irecv(out.data(), n * 4, 0, 0);
    auto sr = R.isend(in.data(), n * 4, 0, 0);
    R.wait(rr);
    R.wait(sr);
  });
  EXPECT_EQ(out[123], 4.2f);
}

TEST(MiniMpi, TruncationIsAnError) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  // Eager truncation surfaces through the status (no partial copy) instead
  // of tearing the run down, matching MPI_ERR_TRUNCATE semantics.
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      std::vector<float> in(1024, 1.0f);
      R.send(in.data(), 4096, 1, 1);
    } else {
      std::vector<float> out(16, -1.0f);
      const mpi::Status st = R.recv(out.data(), 64, 0, 1);  // too small
      EXPECT_EQ(st.error, mpi::StatusError::Truncated);
      EXPECT_EQ(st.bytes, 0u);
      EXPECT_EQ(out[0], -1.0f);  // nothing was copied
    }
  });
}

// A rendezvous transfer cannot be abandoned mid-protocol, so a too-small
// receive on the large-message path remains a hard error for every kind of
// delivery: raw or compressed (MPC-OPT, device buffers), cold or on a warm
// persistent channel (the short receive is the second message of a warmed
// route).
class RendezvousTruncation : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(RendezvousTruncation, StillThrows) {
  const auto [compressed, warm] = GetParam();
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.persistent.enabled = warm;
  World world(engine, net::longhorn(2, 1),
              compressed ? core::CompressionConfig::mpc_opt() : no_compression(), opts);
  const std::size_t n = 1 << 18;  // 1 MiB of floats
  const auto payload = data::smooth_field(n, 1e-4, 8);
  EXPECT_THROW(world.run([&](Rank& R) {
    std::vector<float> host(n);
    float* buf = host.data();
    if (compressed) buf = static_cast<float*>(R.gpu_malloc(n * 4));
    if (R.rank() == 0) {
      std::memcpy(buf, payload.data(), n * 4);
      if (warm) {
        R.send(buf, n * 4, 1, 1);
        R.barrier();
      }
      R.send(buf, n * 4, 1, 1);
    } else {
      if (warm) {
        R.recv(buf, n * 4, 0, 1);
        R.barrier();
      }
      R.recv(buf, 64, 0, 1);  // too small
    }
  }),
               std::runtime_error);
  if (compressed) {
    EXPECT_GE(world.compression_of(0).stats().messages_compressed, 1u);
  }
  if (warm) {
    ASSERT_EQ(world.channels().size(), 1u);
    EXPECT_EQ(world.channels().begin()->second.warm_sends, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MiniMpi, RendezvousTruncation,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "MpcDevice" : "RawHost") +
             (std::get<1>(info.param) ? "Warm" : "Cold");
    });

TEST(MiniMpi, DeviceBufferRendezvousWithMpcCompression) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt());
  const std::size_t n = 1 << 19;  // 2 MB
  const auto data = data::smooth_field(n, 1e-4, 8);
  std::vector<float> out(n, 0.0f);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, data.data(), n * 4);
      R.send(dev, n * 4, 1, 1);
      R.gpu_free(dev);
      EXPECT_EQ(R.compression().stats().messages_compressed, 1u);
    } else {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      R.recv(dev, n * 4, 0, 1);
      std::memcpy(out.data(), dev, n * 4);
      R.gpu_free(dev);
    }
  });
  EXPECT_EQ(std::memcmp(out.data(), data.data(), n * 4), 0);  // lossless
}

TEST(MiniMpi, CompressionReducesLatencyOnLargeInterNodeMessages) {
  const std::size_t n = (16u << 20) / 4;
  // OMB-style dummy buffer: highly duplicated, so MPC achieves the high
  // compression ratio the paper observes on the microbenchmarks.
  const auto data = data::plateau_field(n, 200, 256, 8);

  auto run_one = [&](core::CompressionConfig cfg) {
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1), cfg);
    Time done = Time::zero();
    world.run([&](Rank& R) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      if (R.rank() == 0) {
        std::memcpy(dev, data.data(), n * 4);
        R.send(dev, n * 4, 1, 1);
      } else {
        R.recv(dev, n * 4, 0, 1);
        done = R.now();
      }
      R.gpu_free(dev);
    });
    return done;
  };

  const Time baseline = run_one(core::CompressionConfig::off());
  const Time mpc = run_one(core::CompressionConfig::mpc_opt());
  const Time zfp4 = run_one(core::CompressionConfig::zfp_opt(4));
  EXPECT_LT(mpc, baseline);   // Fig. 9(a): MPC-OPT wins from ~1MB inter-node
  EXPECT_LT(zfp4, baseline);  // ZFP-OPT(rate 4) wins even more
}

TEST(MiniMpi, StatusReportsSourceTagBytes) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const double v = 1.25;
      R.send(&v, 8, 1, 42);
    } else {
      double v = 0;
      const auto st = R.recv(&v, 8, 0, mpi::kAnyTag);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.bytes, 8u);
      EXPECT_EQ(v, 1.25);
    }
  });
}

TEST(MiniMpi, ReceiveTakesTheOlderUnexpectedMessage) {
  // A rendezvous message and a later eager one wait unexpected under the
  // same tag. The receive takes the older one (non-overtaking), whatever
  // the protocol each arrived by.
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  const std::size_t big = 1 << 20;
  mpi::Status first;
  mpi::Status second;
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const std::vector<std::uint8_t> large(big, 3);
      const int small = 7;
      std::vector<mpi::Request> reqs{R.isend(large.data(), big, 1, 9), R.isend(&small, 4, 1, 9)};
      R.waitall(reqs);
    } else {
      R.compute(Time::ms(1));  // both arrive before any receive is posted
      std::vector<std::uint8_t> out(big);
      first = R.recv(out.data(), big, 0, 9);
      int small = 0;
      second = R.recv(&small, 4, 0, 9);
      EXPECT_EQ(out[big - 1], 3);
      EXPECT_EQ(small, 7);
    }
  });
  EXPECT_EQ(first.bytes, big);
  EXPECT_EQ(second.bytes, 4u);
}

// ---------------------------------------------------------------------------
// Borrowed payloads: a raw rendezvous payload leaves straight from the
// sender's buffer. In each case the sender overwrites and frees that buffer
// as soon as its send completes; the receiver must still get the original
// bytes, and the ASan build must report no use after free.
// ---------------------------------------------------------------------------

using gcmpi::testing::copied_bytes;
using gcmpi::testing::FreedSends;
using gcmpi::testing::send_from_freed_buffers;

mpi::WorldOptions pipelined(std::uint64_t chunk_bytes) {
  mpi::WorldOptions o;
  o.pipeline.enabled = true;
  o.pipeline.chunk_bytes = chunk_bytes;
  return o;
}

/// Floats MPC cannot shrink (2 MiB by default): every pipeline chunk falls
/// back to raw.
std::vector<float> noise(std::size_t n = 1 << 19) {
  return gcmpi::testing::make_floats(gcmpi::testing::PayloadKind::HighEntropy, n, 44);
}

void expect_delivered(const FreedSends& r, std::size_t iters) {
  ASSERT_EQ(r.received.size(), iters);
  ASSERT_EQ(r.sent.size(), iters);
  for (std::size_t i = 0; i < iters; ++i) {
    EXPECT_TRUE(r.sent[i].ok()) << "iter " << i;
    EXPECT_TRUE(r.received[i].ok()) << "iter " << i;
  }
  EXPECT_EQ(r.mismatches, 0);
}

TEST(BorrowedPayload, RawSerialRendezvousSurvivesAFreedSendBuffer) {
  // Compression off on an inter-node route, and MPC-OPT on an intra-node
  // route that compress_intra_node exempts: both send 1 MiB and 4 MiB (a
  // huge-page mapped send buffer) raw in one segment.
  auto intra_exempt = core::CompressionConfig::mpc_opt();
  intra_exempt.compress_intra_node = false;
  for (const std::size_t n : {std::size_t{1} << 18, std::size_t{1} << 20}) {
    const auto payload = data::smooth_field(n, 1e-4, 8);
    for (const auto& [cluster, cfg] : {std::pair{net::longhorn(2, 1), no_compression()},
                                       std::pair{net::longhorn(1, 2), intra_exempt}}) {
      sim::Engine engine;
      World world(engine, cluster, cfg);
      expect_delivered(send_from_freed_buffers(world, payload, 4), 4);
      EXPECT_EQ(world.compression_of(0).stats().messages_compressed, 0u);
    }
  }
}

TEST(BorrowedPayload, RawPipelineChunksSurviveAFreedSendBuffer) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(),
              pipelined(256 << 10));
  expect_delivered(send_from_freed_buffers(world, noise(), 2), 2);
  const auto& st = world.compression_of(0).stats();
  EXPECT_EQ(st.pipelined_messages, 2u);
  EXPECT_GT(st.pipeline_chunks_raw, 0u);
}

TEST(BorrowedPayload, DecodeFaultRawDegradeSurvivesAFreedSendBuffer) {
  // Every decode faults, so every compressed segment is re-pushed raw from
  // the sender's buffer: the serial message, and each pipelined chunk.
  const auto payload = data::smooth_field(1 << 19, 1e-4, 8);
  for (const mpi::WorldOptions& base : {mpi::WorldOptions{}, pipelined(256 << 10)}) {
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.decompress_fail_probability = 1.0;
    fault::FaultInjector injector(plan);
    mpi::WorldOptions opts = base;
    opts.fault = &injector;
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);
    expect_delivered(send_from_freed_buffers(world, payload, 2), 2);
    EXPECT_GT(injector.stats().decompress_faults, 0u);
  }
}

TEST(BorrowedPayload, WireFormReceiveOfARawRendezvousOwnsItsBytes) {
  // A WireMessage from irecv_wire outlives the send, so a borrowed payload
  // is copied when it is delivered there: decompress_wire after the sender
  // freed its buffer still yields the original bytes. A pipelined send
  // reaches a wire-form receive as its reassembled buffer instead. 4 MiB
  // messages put both buffers on huge pages.
  struct Case {
    std::size_t n;
    bool pipeline;
  };
  for (const Case c : {Case{1 << 18, false}, Case{1 << 20, false}, Case{1 << 20, true}}) {
    const std::size_t n = c.n;
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1),
                c.pipeline ? core::CompressionConfig::mpc_opt() : no_compression(),
                c.pipeline ? pipelined(256 << 10) : mpi::WorldOptions{});
    const auto payload = data::smooth_field(n, 1e-4, 8);
    std::vector<float> out(n);
    world.run([&](Rank& R) {
      if (R.rank() == 0) {
        void* dev = R.gpu_malloc(n * 4);
        std::memcpy(dev, payload.data(), n * 4);
        R.send(dev, n * 4, 1, 4);
        std::memset(dev, 0xFF, n * 4);
        R.gpu_free(dev);
        const int freed = 1;
        R.send(&freed, 4, 1, 5);
      } else {
        mpi::WireMessage wire;
        mpi::Request req = R.irecv_wire(&wire, 0, 4);
        ASSERT_TRUE(R.wait(req).ok());
        int freed = 0;
        R.recv(&freed, 4, 0, 5);  // the sender's buffer is gone now
        R.decompress_wire(wire, out.data(), n * 4);
      }
    });
    EXPECT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0) << n;
    const auto& copies = world.host_counters();
    const auto& site = c.pipeline ? copies.assemble : copies.wire_out;
    EXPECT_EQ(site.buffers, 1u) << n;
    EXPECT_EQ(site.bytes, n * 4) << n;
    EXPECT_EQ(world.compression_of(0).stats().pipelined_messages, c.pipeline ? 1u : 0u);
  }
}

TEST(BorrowedPayload, RetryLimitSendMayFreeItsBufferWithEventsStillPending) {
  // 8 MiB of raw chunks over a fabric that drops most pushes, one re-push
  // allowed: the first chunk out of retries fails the transfer while later
  // chunks' intact arrivals (five on this seed), re-pushes and watchdogs are
  // still scheduled. The sender frees its buffer as soon as its failed wait
  // returns; those events must find their segments done and read nothing.
  fault::FaultInjector injector(fault::FaultPlan::lossy(1, 0.7, 0.0));
  mpi::WorldOptions opts = pipelined(256 << 10);
  opts.fault = &injector;
  opts.max_data_retries = 1;
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(), opts);
  const FreedSends r = send_from_freed_buffers(world, noise(1 << 21), 1);
  ASSERT_EQ(r.sent.size(), 1u);
  ASSERT_EQ(r.received.size(), 1u);
  EXPECT_EQ(r.sent[0].error, mpi::StatusError::RetryLimit);
  EXPECT_EQ(r.received[0].error, mpi::StatusError::RetryLimit);
  EXPECT_GT(engine.now(), r.ended);  // events ran after both ranks were done
}

TEST(BorrowedPayload, RawSendsCopyNoPayloadBytes) {
  // A raw serial, raw pipelined or raw pushed send moves its bytes from the
  // user buffer into the receive buffer with no fresh host buffer between.
  const auto payload = data::smooth_field(1 << 18, 1e-4, 8);
  {
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1), no_compression());
    expect_delivered(send_from_freed_buffers(world, payload, 2), 2);
    EXPECT_EQ(copied_bytes(world.host_counters()), 0u) << "serial";
  }
  {
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1), core::CompressionConfig::mpc_opt(),
                pipelined(256 << 10));
    expect_delivered(send_from_freed_buffers(world, noise(), 2), 2);
    ASSERT_EQ(world.compression_of(0).stats().pipeline_chunks_compressed, 0u);
    EXPECT_EQ(copied_bytes(world.host_counters()), 0u) << "pipelined";
  }
  {
    mpi::WorldOptions opts;
    opts.persistent.enabled = true;
    sim::Engine engine;
    World world(engine, net::longhorn(2, 1), no_compression(), opts);
    expect_delivered(send_from_freed_buffers(world, payload, 6), 6);
    ASSERT_EQ(world.channels().size(), 1u);
    ASSERT_GT(world.channels().begin()->second.warm_sends, 0u);
    EXPECT_EQ(copied_bytes(world.host_counters()), 0u) << "pushed";
  }
}

}  // namespace
