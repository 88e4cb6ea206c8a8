// Protocol conformance fuzz: seeded sweeps of message sizes across the
// eager/rendezvous boundary, wildcard (any-source/any-tag) matching under
// random traffic, tag-based matching independent of arrival order, and
// compression-header integrity through WireMessage forwarding. Plus the
// explicit boundary cases (0, T-1, T, T+1 bytes) through send/recv and a
// collective. Reproduce failures with GCMPI_TEST_SEED.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "core/header.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::WireMessage;
using mpi::World;

std::uint64_t suite_seed(std::uint64_t salt) { return gcmpi::testing::test_seed() ^ salt; }

/// Fill `bytes` of `dst` with a pattern that is a pure function of
/// (src, seq), so any corruption or mismatch is attributable.
void stamp(std::uint8_t* dst, std::uint64_t bytes, int src, int seq) {
  sim::Rng rng(static_cast<std::uint64_t>(src) * 1000003ULL + static_cast<std::uint64_t>(seq));
  for (std::uint64_t i = 0; i < bytes; ++i) {
    dst[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
}

bool check_stamp(const std::uint8_t* got, std::uint64_t bytes, int src, int seq) {
  std::vector<std::uint8_t> expect(bytes);
  stamp(expect.data(), bytes, src, seq);
  return bytes == 0 || std::memcmp(got, expect.data(), bytes) == 0;
}

TEST(FuzzProtocol, SizesAcrossEagerRendezvousBoundary) {
  // Two ranks ping messages whose sizes cluster around the eager threshold
  // (including 0 and exact-boundary sizes); every delivery must report the
  // exact byte count and carry unmodified content.
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.eager_threshold = 4 * 1024;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::off(), opts);
  const std::uint64_t T = opts.eager_threshold;

  sim::Rng rng(suite_seed(0xb0));
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{1}, T - 1, T, T + 1, 2 * T}) {
    sizes.push_back(s);
  }
  for (int i = 0; i < 120; ++i) {
    if (rng.next_double() < 0.5) {
      // Dense around the boundary: T +- [0, 64).
      const std::uint64_t delta = rng.next_below(64);
      sizes.push_back(rng.next_double() < 0.5 && T > delta ? T - delta : T + delta);
    } else {
      sizes.push_back(rng.next_below(4 * T));
    }
  }

  int failures = 0;
  world.run([&](Rank& R) {
    std::vector<std::uint8_t> buf(4 * T + 64);
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      const std::uint64_t n = sizes[i];
      const int tag = static_cast<int>(i % 7);
      if (R.rank() == 0) {
        stamp(buf.data(), n, 0, static_cast<int>(i));
        R.send(buf.data(), n, 1, tag);
      } else {
        const auto st = R.recv(buf.data(), buf.size(), 0, tag);
        if (st.bytes != n || st.source != 0 || st.tag != tag ||
            !check_stamp(buf.data(), n, 0, static_cast<int>(i))) {
          ++failures;
        }
      }
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST(FuzzProtocol, BoundarySizesThroughSendRecvAndBcast) {
  // The satellite boundary matrix: exactly eager_threshold, +-1, and 0
  // bytes through both the point-to-point path and one collective.
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.eager_threshold = 16 * 1024;
  World world(engine, net::longhorn(2, 2), core::CompressionConfig::off(), opts);
  const std::uint64_t T = opts.eager_threshold;
  const std::vector<std::uint64_t> cases = {0, T - 1, T, T + 1};

  int failures = 0;
  world.run([&](Rank& R) {
    std::vector<std::uint8_t> buf(T + 64);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::uint64_t n = cases[i];
      // p2p: 0 -> last rank.
      if (R.rank() == 0) {
        stamp(buf.data(), n, 0, static_cast<int>(i));
        R.send(buf.data(), n, R.size() - 1, 42);
      } else if (R.rank() == R.size() - 1) {
        std::memset(buf.data(), 0xEE, buf.size());
        const auto st = R.recv(buf.data(), buf.size(), 0, 42);
        if (st.bytes != n || !check_stamp(buf.data(), n, 0, static_cast<int>(i))) ++failures;
      }
      R.barrier();
      // collective: bcast of the same size from rank 0.
      stamp(buf.data(), n, 7, static_cast<int>(i));
      if (R.rank() != 0) std::memset(buf.data(), 0xCC, buf.size());
      R.bcast(buf.data(), n, 0);
      if (!check_stamp(buf.data(), n, 7, static_cast<int>(i))) ++failures;
      R.barrier();
    }
  });
  EXPECT_EQ(failures, 0);
}

/// One message of a random-traffic plan.
struct Planned {
  int dst;
  int tag;
  std::uint64_t bytes;
};

/// Every rank isends its plan (after `warmup`, if any, and a barrier);
/// receivers drain with (any-source, any-tag). MPI non-overtaking: for a
/// fixed (src, dst) pair, messages arrive in send order regardless of which
/// protocol (eager, rendezvous, warm channel) each message used. Counts body
/// or marker mismatches in `failures` and pair-order violations in
/// `violations`; returns the number of messages received.
int run_wildcard_traffic(World& world, const std::vector<std::vector<Planned>>& warmup,
                         const std::vector<std::vector<Planned>>& plan, std::uint64_t max_bytes,
                         int& failures, int& violations) {
  const int P = world.size();
  auto inbound = [&](const std::vector<std::vector<Planned>>& sends) {
    std::vector<int> n(static_cast<std::size_t>(P), 0);
    for (const auto& list : sends) {
      for (const auto& p : list) ++n[static_cast<std::size_t>(p.dst)];
    }
    return n;
  };
  const std::vector<int> warm_in = inbound(warmup);
  const std::vector<int> expected = inbound(plan);
  std::vector<std::map<int, std::vector<int>>> seqs(static_cast<std::size_t>(P));
  world.run([&](Rank& R) {
    const int me = R.rank();
    std::vector<std::uint8_t> buf(max_bytes + 64);
    if (!warmup.empty()) {
      std::vector<std::uint8_t> zeros(max_bytes);
      std::vector<mpi::Request> sends;
      for (const auto& p : warmup[static_cast<std::size_t>(me)]) {
        sends.push_back(R.isend(zeros.data(), p.bytes, p.dst, p.tag));
      }
      for (int m = 0; m < warm_in[static_cast<std::size_t>(me)]; ++m) {
        if (!R.recv(buf.data(), buf.size(), mpi::kAnySource, mpi::kAnyTag).ok()) ++failures;
      }
      R.waitall(sends);
      R.barrier();
    }
    std::vector<mpi::Request> sends;
    std::vector<std::vector<std::uint8_t>> live;
    int seq = 0;
    for (const auto& p : plan[static_cast<std::size_t>(me)]) {
      live.emplace_back(p.bytes);
      stamp(live.back().data(), p.bytes, me, seq);
      live.back()[0] = static_cast<std::uint8_t>(me);      // src marker
      live.back()[1] = static_cast<std::uint8_t>(seq);     // seq marker
      sends.push_back(R.isend(live.back().data(), p.bytes, p.dst, p.tag));
      ++seq;
    }
    for (int m = 0; m < expected[static_cast<std::size_t>(me)]; ++m) {
      const auto st = R.recv(buf.data(), buf.size(), mpi::kAnySource, mpi::kAnyTag);
      const int src = buf[0];
      const int got_seq = buf[1];
      if (src != st.source) ++failures;
      // Verify the whole body (bytes 0/1 were overwritten with markers).
      std::vector<std::uint8_t> expect_body(st.bytes);
      stamp(expect_body.data(), st.bytes, src, got_seq);
      expect_body[0] = static_cast<std::uint8_t>(src);
      expect_body[1] = static_cast<std::uint8_t>(got_seq);
      if (std::memcmp(buf.data(), expect_body.data(), st.bytes) != 0) ++failures;
      seqs[static_cast<std::size_t>(me)][src].push_back(got_seq);
    }
    R.waitall(sends);
  });
  int total = 0;
  for (const auto& by_src : seqs) {
    for (const auto& [src, list] : by_src) {
      (void)src;
      for (std::size_t i = 1; i < list.size(); ++i) violations += list[i - 1] < list[i] ? 0 : 1;
      total += static_cast<int>(list.size());
    }
  }
  return total;
}

TEST(FuzzProtocol, WildcardMatchingPreservesPairOrderUnderRandomTraffic) {
  // Every rank fires random-size random-tag messages at random peers.
  const int P = 5;
  const int kPerRank = 30;
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.eager_threshold = 2048;
  World world(engine, net::frontera_liquid(P, 1), core::CompressionConfig::off(), opts);

  sim::Rng rng(suite_seed(0x1d));
  std::vector<std::vector<Planned>> plan(P);
  for (int s = 0; s < P; ++s) {
    for (int m = 0; m < kPerRank; ++m) {
      const int d = static_cast<int>(rng.next_below(P - 1));
      Planned p{d >= s ? d + 1 : d, static_cast<int>(rng.next_below(5)),
                rng.next_below(3 * opts.eager_threshold) + 8};
      plan[static_cast<std::size_t>(s)].push_back(p);
    }
  }

  int failures = 0;
  int violations = 0;
  const int total =
      run_wildcard_traffic(world, {}, plan, 3 * opts.eager_threshold, failures, violations);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(total, P * kPerRank);
}

/// The persistent-channel variant: a warm-up exchange sends every
/// (dst, tag, rendezvous shape) once, so the burst's rendezvous messages
/// ride warm channels, stall on credits, and (under `drop`) retransmit,
/// while eager messages of the same pairs and tags overtake them on the wire.
void warm_wildcard_traffic(double drop) {
  const int P = 3;
  const int kPerRank = 60;
  const int kTags = 2;
  const std::uint64_t kSizes[] = {1000, 3500, 6000};
  fault::FaultInjector injector(fault::FaultPlan::lossy(suite_seed(0x3a7), drop, 0.0));
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.eager_threshold = 2048;
  opts.persistent.enabled = true;
  if (drop > 0) opts.fault = &injector;
  World world(engine, net::frontera_liquid(P, 1), core::CompressionConfig::off(), opts);

  std::vector<std::vector<Planned>> warmup(P), plan(P);
  for (int s = 0; s < P; ++s) {
    for (int d = 0; d < P; ++d) {
      if (d == s) continue;
      for (int tag = 0; tag < kTags; ++tag) {
        for (const std::uint64_t bytes : kSizes) {
          if (bytes > opts.eager_threshold) {
            warmup[static_cast<std::size_t>(s)].push_back({d, tag, bytes});
          }
        }
      }
    }
  }
  sim::Rng rng(suite_seed(0x3a8));
  for (int s = 0; s < P; ++s) {
    for (int m = 0; m < kPerRank; ++m) {
      const int d = static_cast<int>(rng.next_below(P - 1));
      plan[static_cast<std::size_t>(s)].push_back(
          {d >= s ? d + 1 : d, static_cast<int>(rng.next_below(kTags)),
           kSizes[rng.next_below(3)]});
    }
  }

  int failures = 0;
  int violations = 0;
  const int total = run_wildcard_traffic(world, warmup, plan, 6000, failures, violations);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(total, P * kPerRank);
  std::uint64_t warm_sends = 0;
  for (const auto& [key, ch] : world.channels()) warm_sends += ch.warm_sends;
  EXPECT_GT(warm_sends, 0u);  // the burst really rode warm channels
}

TEST(FuzzProtocol, WarmChannelsPreservePairOrderUnderWildcardTraffic) {
  warm_wildcard_traffic(0.0);
}

TEST(FuzzProtocol, WarmChannelsPreservePairOrderUnderWildcardTrafficWithDrops) {
  warm_wildcard_traffic(0.2);
}

TEST(FuzzProtocol, TagMatchingIsIndependentOfArrivalOrder) {
  // Sender emits rendezvous-sized tag 1, then eager-sized tag 2; the
  // receiver posts tag 2 first. Matching must go by tag, not arrival, for
  // every fuzzed size pairing.
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.eager_threshold = 1024;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::off(), opts);

  sim::Rng rng(suite_seed(0x7a6));
  const int kRounds = 40;
  std::vector<std::uint64_t> bigs, smalls;  // shared plan: both ranks agree
  for (int round = 0; round < kRounds; ++round) {
    bigs.push_back(opts.eager_threshold + 1 + rng.next_below(4096));
    smalls.push_back(rng.next_below(opts.eager_threshold));
  }
  int failures = 0;
  world.run([&](Rank& R) {
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t big = bigs[static_cast<std::size_t>(round)];
      const std::uint64_t small = smalls[static_cast<std::size_t>(round)];
      if (R.rank() == 0) {
        std::vector<std::uint8_t> a(big), b(small);
        stamp(a.data(), big, 1, round);
        stamp(b.data(), small, 2, round);
        auto r1 = R.isend(a.data(), big, 1, 1);
        auto r2 = R.isend(b.data(), small, 1, 2);
        R.wait(r1);
        R.wait(r2);
      } else {
        std::vector<std::uint8_t> a(big + 64), b(small + 64);
        auto r2 = R.irecv(b.data(), b.size(), 0, 2);
        auto r1 = R.irecv(a.data(), a.size(), 0, 1);
        const auto st2 = R.wait(r2);
        const auto st1 = R.wait(r1);
        if (st1.bytes != big || !check_stamp(a.data(), big, 1, round)) ++failures;
        if (st2.bytes != small || !check_stamp(b.data(), small, 2, round)) ++failures;
      }
      R.barrier();
    }
  });
  EXPECT_EQ(failures, 0);
}

TEST(FuzzProtocol, WireForwardingPreservesHeaderAndPayload) {
  // Ring-forward compressed wire messages through every rank: the header
  // and compressed payload must arrive bit-identical at each hop, and the
  // final decompression must restore the original buffer, across payload
  // kinds that compress well, badly (fallback raw), and not at all.
  const int P = 4;
  sim::Engine engine;
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.threshold_bytes = 8 * 1024;
  World world(engine, net::longhorn(P, 1), cfg);

  sim::Rng rng(suite_seed(0xf0));
  std::vector<gcmpi::testing::PayloadCase> cases;
  for (int i = 0; i < 12; ++i) {
    auto c = gcmpi::testing::draw_case(rng, 1u << 15);
    c.n = std::max<std::size_t>(c.n, 4096);  // stay above the threshold
    cases.push_back(c);
  }

  int failures = 0;
  std::ostringstream why;
  world.run([&](Rank& R) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& c = cases[i];
      const auto data = gcmpi::testing::make_floats(c.kind, c.n, c.seed);
      const int tag = static_cast<int>(i);
      if (R.rank() == 0) {
        auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4));
        std::memcpy(dev, data.data(), c.n * 4);
        const WireMessage msg = R.make_wire(dev, c.n * 4);
        // Header sanity: serialization round-trips bit-exactly.
        const auto hdr_bytes = msg.header.serialize();
        if (core::CompressionHeader::deserialize(hdr_bytes) != msg.header) {
          ++failures;
          why << "header serialize/deserialize mismatch on " << gcmpi::testing::describe(c)
              << "\n";
        }
        auto rq = R.isend_wire(msg, 1, tag);
        R.wait(rq);
        R.gpu_free(dev);
      } else {
        WireMessage msg;
        auto rr = R.irecv_wire(&msg, R.rank() - 1, tag);
        R.wait(rr);
        if (msg.original_bytes() != c.n * 4) {
          ++failures;
          why << "hop " << R.rank() << " original_bytes mismatch on "
              << gcmpi::testing::describe(c) << "\n";
        }
        if (msg.header.compressed && msg.payload->size() != msg.header.compressed_bytes) {
          ++failures;
          why << "hop " << R.rank() << " payload/header size skew on "
              << gcmpi::testing::describe(c) << "\n";
        }
        if (R.rank() < P - 1) {
          auto fw = R.isend_wire(msg, R.rank() + 1, tag);
          R.wait(fw);
        } else {
          std::vector<float> out(c.n, -1.0f);
          R.decompress_wire(msg, out.data(), c.n * 4);
          if (std::memcmp(out.data(), data.data(), c.n * 4) != 0) {
            ++failures;
            why << "payload corrupted end-to-end on " << gcmpi::testing::describe(c) << "\n";
          }
        }
      }
    }
  });
  EXPECT_EQ(failures, 0) << why.str();
}

TEST(FuzzProtocol, HeaderRoundTripsAndRejectsCorruptionWithoutCrashing) {
  sim::Rng rng(suite_seed(0x4ead));
  for (int i = 0; i < 400; ++i) {
    core::CompressionHeader h;
    h.algorithm = static_cast<core::Algorithm>(rng.next_below(3));
    h.compressed = rng.next_double() < 0.5;
    h.original_bytes = rng.next_u64() >> static_cast<int>(rng.next_below(40));
    h.compressed_bytes = rng.next_u64() >> static_cast<int>(rng.next_below(40));
    h.mpc_dimensionality = static_cast<std::uint16_t>(1 + rng.next_below(32));
    h.mpc_chunk_values = static_cast<std::uint32_t>(32 * (1 + rng.next_below(64)));
    h.zfp_rate = static_cast<std::uint16_t>(2 + rng.next_below(31));
    const auto parts = rng.next_below(9);
    for (std::uint64_t p = 0; p < parts; ++p) {
      h.partition_bytes.push_back(rng.next_u32());
    }
    auto bytes = h.serialize();
    ASSERT_EQ(bytes.size(), h.wire_bytes());
    EXPECT_EQ(core::CompressionHeader::deserialize(bytes), h);

    // Corruption: truncate, extend, or flip a byte. Deserialize must
    // either throw or return some header — never crash or overread.
    auto mutated = bytes;
    switch (rng.next_below(3)) {
      case 0:
        mutated.resize(rng.next_below(mutated.size() + 1));
        break;
      case 1:
        mutated.push_back(static_cast<std::uint8_t>(rng.next_u32()));
        break;
      default:
        if (!mutated.empty()) {
          mutated[rng.next_below(mutated.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
    }
    try {
      (void)core::CompressionHeader::deserialize(mutated);
    } catch (const std::invalid_argument&) {
      // expected for malformed inputs
    }
  }
}

TEST(FuzzProtocol, CompressedTrafficAcrossBoundarySizesIsLossless) {
  // Compression enabled with a low threshold: fuzz float message sizes
  // spanning eager, rendezvous-raw, and rendezvous-compressed regimes.
  sim::Engine engine;
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.threshold_bytes = 16 * 1024;
  mpi::WorldOptions opts;
  opts.eager_threshold = 8 * 1024;
  World world(engine, net::longhorn(2, 1), cfg, opts);

  sim::Rng rng(suite_seed(0xc0b0));
  std::vector<gcmpi::testing::PayloadCase> cases;
  for (int i = 0; i < 60; ++i) {
    auto c = gcmpi::testing::draw_case(rng, 1u << 14);
    cases.push_back(c);
  }

  int failures = 0;
  world.run([&](Rank& R) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto& c = cases[i];
      const auto data = gcmpi::testing::make_floats(c.kind, c.n, c.seed);
      if (R.rank() == 0) {
        auto* dev = static_cast<float*>(R.gpu_malloc(c.n * 4 + 4));
        if (c.n > 0) std::memcpy(dev, data.data(), c.n * 4);
        R.send(dev, c.n * 4, 1, 3);
        R.gpu_free(dev);
      } else {
        std::vector<float> out(c.n + 16, -5.0f);
        const auto st = R.recv(out.data(), out.size() * 4, 0, 3);
        if (st.bytes != c.n * 4 ||
            (c.n > 0 && std::memcmp(out.data(), data.data(), c.n * 4) != 0)) {
          ++failures;
        }
      }
    }
  });
  EXPECT_EQ(failures, 0);
}

}  // namespace
