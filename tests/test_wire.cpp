// Wire-level primitive tests (compression-aware collectives substrate):
// make_wire / isend_wire / irecv_wire / decompress_wire semantics, the
// forwarding path, intra-node compression gating, and equivalence of the
// compression-aware collectives with the plain ones.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/datasets.hpp"
#include "mpi/world.hpp"

namespace {

using namespace gcmpi;
using mpi::Rank;
using mpi::WireMessage;
using mpi::World;
using sim::Time;

TEST(Wire, MakeWireCompressesEligibleBuffers) {
  sim::Engine engine;
  World world(engine, net::longhorn(1, 1), core::CompressionConfig::mpc_opt());
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, payload.data(), n * 4);
    const WireMessage msg = R.make_wire(dev, n * 4);
    EXPECT_TRUE(msg.header.compressed);
    EXPECT_LT(msg.payload->size(), n * 4);
    EXPECT_EQ(msg.original_bytes(), n * 4);

    // Decompressing locally restores the data bit-exactly (MPC lossless).
    std::vector<float> out(n);
    R.decompress_wire(msg, out.data(), n * 4);
    EXPECT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0);
    R.gpu_free(dev);
  });
}

TEST(Wire, MakeWirePassesThroughHostBuffers) {
  sim::Engine engine;
  World world(engine, net::longhorn(1, 1), core::CompressionConfig::mpc_opt());
  world.run([&](Rank& R) {
    std::vector<float> host((1u << 20) / 4, 1.5f);
    const WireMessage msg = R.make_wire(host.data(), host.size() * 4);
    EXPECT_FALSE(msg.header.compressed);
    EXPECT_EQ(msg.payload->size(), host.size() * 4);
  });
}

TEST(Wire, DecompressWireOfRawMessageIntoShortBufferThrows) {
  sim::Engine engine;
  World world(engine, net::longhorn(1, 1), core::CompressionConfig::off());
  EXPECT_THROW(world.run([&](Rank& R) {
    std::vector<float> in(1024, 1.5f);
    std::vector<float> out(16);
    const WireMessage msg = R.make_wire(in.data(), in.size() * 4);
    EXPECT_FALSE(msg.header.compressed);
    R.decompress_wire(msg, out.data(), out.size() * 4);  // too small
  }),
               std::runtime_error);
}

TEST(Wire, ForwardingSkipsRecompression) {
  // Rank 0 compresses once and sends; rank 1 receives in wire form and
  // forwards to rank 2 — rank 1's compression manager must never run a
  // compression kernel.
  sim::Engine engine;
  World world(engine, net::longhorn(3, 1), core::CompressionConfig::mpc_opt());
  const std::size_t n = (2u << 20) / 4;
  const auto payload = data::generate("msg_sweep3d", n);
  std::vector<float> final_out(n);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      const WireMessage msg = R.make_wire(dev, n * 4);
      auto rq = R.isend_wire(msg, 1, 5);
      R.wait(rq);
      EXPECT_EQ(R.compression().stats().messages_compressed, 1u);
      R.gpu_free(dev);
    } else if (R.rank() == 1) {
      WireMessage msg;
      auto rr = R.irecv_wire(&msg, 0, 5);
      R.wait(rr);
      EXPECT_TRUE(msg.header.compressed);
      auto fw = R.isend_wire(msg, 2, 5);
      R.wait(fw);
      EXPECT_EQ(R.compression().stats().messages_compressed, 0u);  // no recompress
    } else {
      WireMessage msg;
      auto rr = R.irecv_wire(&msg, 1, 5);
      R.wait(rr);
      R.decompress_wire(msg, final_out.data(), n * 4);
    }
  });
  EXPECT_EQ(std::memcmp(final_out.data(), payload.data(), n * 4), 0);
}

TEST(Wire, WireRecvMatchesNormalSend) {
  // A normal isend can be received in wire form (the header travels on the
  // RTS either way).
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::zfp_opt(16));
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::smooth_field(n, 1e-4, 3);
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      std::memcpy(dev, payload.data(), n * 4);
      R.send(dev, n * 4, 1, 9);
      R.gpu_free(dev);
    } else {
      WireMessage msg;
      auto rr = R.irecv_wire(&msg, 0, 9);
      R.wait(rr);
      EXPECT_TRUE(msg.header.compressed);
      EXPECT_EQ(msg.header.zfp_rate, 16);
      EXPECT_EQ(msg.payload->size(), n * 2);  // fixed rate 16 => half size
    }
  });
}

TEST(Wire, EagerMessageArrivesAsRawWire) {
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), core::CompressionConfig::off());
  world.run([&](Rank& R) {
    if (R.rank() == 0) {
      const int v = 1234;
      R.send(&v, 4, 1, 2);
    } else {
      WireMessage msg;
      auto rr = R.irecv_wire(&msg, 0, 2);
      R.wait(rr);
      EXPECT_FALSE(msg.header.compressed);
      int v = 0;
      R.decompress_wire(msg, &v, 4);
      EXPECT_EQ(v, 1234);
    }
  });
}

TEST(Wire, SelfSendRejected) {
  sim::Engine engine;
  World world(engine, net::longhorn(1, 1), core::CompressionConfig::off());
  EXPECT_THROW(world.run([&](Rank& R) {
    std::vector<float> v(1024, 1.0f);
    const WireMessage msg = R.make_wire(v.data(), v.size() * 4);
    (void)R.isend_wire(msg, 0, 1);
  }),
               std::invalid_argument);
}

TEST(Wire, IntraNodeGatingSkipsCompression) {
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.compress_intra_node = false;
  sim::Engine engine;
  World world(engine, net::longhorn(1, 2), cfg);  // same node, NVLink
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, payload.data(), n * 4);
    if (R.rank() == 0) {
      R.send(dev, n * 4, 1, 1);
      EXPECT_EQ(R.compression().stats().messages_compressed, 0u);
    } else {
      R.recv(dev, n * 4, 0, 1);
      EXPECT_EQ(std::memcmp(dev, payload.data(), n * 4), 0);
    }
    R.gpu_free(dev);
  });
}

TEST(Wire, IntraNodeGatingStillCompressesInterNode) {
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.compress_intra_node = false;
  sim::Engine engine;
  World world(engine, net::longhorn(2, 1), cfg);  // different nodes
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, payload.data(), n * 4);
    if (R.rank() == 0) {
      R.send(dev, n * 4, 1, 1);
      EXPECT_EQ(R.compression().stats().messages_compressed, 1u);
    } else {
      R.recv(dev, n * 4, 0, 1);
    }
    R.gpu_free(dev);
  });
}

TEST(Wire, IntraNodeGatingCoversHierarchicalAllreduceHops) {
  // The hierarchical allreduce's member->leader and leader->members hops
  // are intra-node: with the gate off they move raw, so the members never
  // compress; the leaders still compress their inter-node ring shards.
  auto cfg = core::CompressionConfig::mpc_opt();
  cfg.compress_intra_node = false;
  mpi::WorldOptions opts;
  opts.collectives[core::CollectiveOp::Allreduce] = core::CollectiveAlgorithm::Hierarchical;
  sim::Engine engine;
  World world(engine, net::longhorn(2, 2), cfg, opts);
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::generate("msg_sppm", n);
  std::vector<std::uint64_t> compressed(4);
  world.run([&](Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    std::memcpy(dev, payload.data(), n * 4);
    std::vector<float> out(n);
    R.allreduce(dev, out.data(), n, mpi::ReduceOp::Max);
    EXPECT_EQ(std::memcmp(out.data(), payload.data(), n * 4), 0);
    compressed[static_cast<std::size_t>(R.rank())] = R.compression().stats().messages_compressed;
    R.gpu_free(dev);
  });
  EXPECT_EQ(compressed[1], 0u);
  EXPECT_EQ(compressed[3], 0u);
  EXPECT_GT(compressed[0], 0u);
  EXPECT_GT(compressed[2], 0u);
}

TEST(Wire, CompressedBcastEqualsPlainBcast) {
  const std::size_t n = (1u << 20) / 4;
  const auto payload = data::generate("msg_lu", n);
  for (auto cfg : {core::CompressionConfig::off(), core::CompressionConfig::mpc_opt()}) {
    sim::Engine engine;
    World world(engine, net::frontera_liquid(5, 1), cfg);
    int failures = 0;
    world.run([&](Rank& R) {
      auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
      if (R.rank() == 2) std::memcpy(dev, payload.data(), n * 4);
      R.bcast(dev, n * 4, 2);
      if (std::memcmp(dev, payload.data(), n * 4) != 0) ++failures;
      R.gpu_free(dev);
    });
    EXPECT_EQ(failures, 0);
  }
}

TEST(Wire, CompressedAllgatherEqualsPlainAllgather) {
  const std::size_t bn = (512u << 10) / 4;  // 512KB blocks
  for (auto cfg : {core::CompressionConfig::off(), core::CompressionConfig::mpc_opt()}) {
    cfg.pool_buffers = 8;
    sim::Engine engine;
    World world(engine, net::frontera_liquid(4, 1), cfg);
    int failures = 0;
    world.run([&](Rank& R) {
      const auto mine_data = data::generate("msg_sweep3d", bn,
                                            static_cast<std::uint64_t>(R.rank()));
      auto* mine = static_cast<float*>(R.gpu_malloc(bn * 4));
      auto* all = static_cast<float*>(R.gpu_malloc(bn * 4 * 4));
      std::memcpy(mine, mine_data.data(), bn * 4);
      R.allgather(mine, bn * 4, all);
      for (int r = 0; r < 4; ++r) {
        const auto expect = data::generate("msg_sweep3d", bn, static_cast<std::uint64_t>(r));
        if (std::memcmp(all + static_cast<std::size_t>(r) * bn, expect.data(), bn * 4) != 0) {
          ++failures;
        }
      }
      R.gpu_free(mine);
      R.gpu_free(all);
    });
    EXPECT_EQ(failures, 0);
  }
}

}  // namespace
