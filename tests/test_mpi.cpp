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

}  // namespace

namespace {

TEST(MiniMpiProbe, IprobeSeesUnexpectedEager) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const int v = 5;
      R.send(&v, 4, 1, 77);
    } else {
      R.compute(Time::ms(1));  // let the message arrive unexpected
      mpi::Status st;
      EXPECT_TRUE(R.iprobe(0, 77, &st));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 77);
      EXPECT_EQ(st.bytes, 4u);
      EXPECT_FALSE(R.iprobe(0, 78, nullptr));  // wrong tag
      int v = 0;
      R.recv(&v, 4, 0, 77);
      EXPECT_FALSE(R.iprobe(0, 77, nullptr));  // consumed
    }
  });
}

TEST(MiniMpiProbe, BlockingProbeWakesOnArrival) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  Time probed_at = Time::zero();
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      R.compute(Time::ms(2));
      const double v = 2.5;
      R.send(&v, 8, 1, 3);
    } else {
      const auto st = R.probe(mpi::kAnySource, mpi::kAnyTag);
      probed_at = R.now();
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.bytes, 8u);
      // Probe did not consume: the recv still completes.
      double v = 0;
      R.recv(&v, 8, 0, 3);
      EXPECT_EQ(v, 2.5);
    }
  });
  EXPECT_GE(probed_at, Time::ms(2));
}

TEST(MiniMpiProbe, ProbeSeesRendezvousSize) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  const std::size_t n = 1 << 18;
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      std::vector<float> in(n, 1.0f);
      R.send(in.data(), n * 4, 1, 6);
    } else {
      const auto st = R.probe(0, 6);
      EXPECT_EQ(st.bytes, n * 4);  // the RTS carries the original size
      std::vector<float> out(n);
      R.recv(out.data(), n * 4, 0, 6);
      EXPECT_EQ(out[0], 1.0f);
    }
  });
}

TEST(MiniMpiProbe, ProbeThenSizedRecv) {
  // The MPI_Probe idiom: learn the size, allocate, then receive.
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      std::vector<int> data(123, 9);
      R.send(data.data(), data.size() * 4, 1, 1);
    } else {
      const auto st = R.probe(0, 1);
      std::vector<int> out(st.bytes / 4);
      R.recv(out.data(), st.bytes, 0, 1);
      EXPECT_EQ(out.size(), 123u);
      EXPECT_EQ(out[122], 9);
    }
  });
}

TEST(MiniMpiProbe, ProbeReportsTheMessageTheNextReceiveTakes) {
  // A rendezvous message and a later eager one wait unexpected under the
  // same tag. The receive takes the older one (non-overtaking), so the
  // probe must report it too, or the probe-then-sized-receive idiom sizes
  // its buffer for the wrong message.
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), no_compression());
  const std::size_t big = 1 << 20;
  mpi::Status probed;
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
      EXPECT_TRUE(R.iprobe(0, 9, &probed));
      std::vector<std::uint8_t> out(big);
      first = R.recv(out.data(), big, 0, 9);
      int small = 0;
      second = R.recv(&small, 4, 0, 9);
      EXPECT_EQ(out[big - 1], 3);
      EXPECT_EQ(small, 7);
    }
  });
  EXPECT_EQ(probed.bytes, big);
  EXPECT_EQ(first.bytes, probed.bytes);
  EXPECT_EQ(second.bytes, 4u);
}

}  // namespace
