// MPC codec tests: bit-exact losslessness on every kind of payload,
// dimensionality behaviour, chunking, corruption handling, tuning.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "compress/bit_transpose.hpp"
#include "compress/mpc.hpp"
#include "data/datasets.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"

namespace {

using gcmpi::comp::MpcCodec;

std::vector<float> roundtrip(const MpcCodec& codec, const std::vector<float>& in,
                             std::size_t* compressed_size = nullptr) {
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_LE(size, buf.size());
  if (compressed_size != nullptr) *compressed_size = size;
  std::vector<float> out(in.size(), -99.0f);
  const std::size_t n = codec.decompress({buf.data(), size}, out);
  EXPECT_EQ(n, in.size());
  return out;
}

void expect_bit_exact(const std::vector<float>& a, const std::vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * 4), 0);
}

TEST(Mpc, RejectsBadParameters) {
  EXPECT_THROW(MpcCodec(0), std::invalid_argument);
  EXPECT_THROW(MpcCodec(33), std::invalid_argument);
  EXPECT_THROW(MpcCodec(1, 0), std::invalid_argument);
  EXPECT_THROW(MpcCodec(1, 100), std::invalid_argument);  // not multiple of 32
  EXPECT_NO_THROW(MpcCodec(32, 32));
}

TEST(Mpc, EmptyInput) {
  MpcCodec codec(1);
  std::vector<float> in;
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(size, 20u);  // bare header
}

TEST(Mpc, LosslessOnSmoothData) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(10000, 1e-4, 5);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  EXPECT_LT(size, in.size() * 4);  // actually compresses
}

TEST(Mpc, LosslessOnRandomBits) {
  gcmpi::sim::Rng rng(17);
  std::vector<float> in(5000);
  for (auto& x : in) {
    const std::uint32_t bits = rng.next_u32();
    std::memcpy(&x, &bits, 4);  // arbitrary bit patterns incl. NaN/Inf/denormal
  }
  MpcCodec codec(1);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  // Incompressible data expands slightly (mask overhead <= ~3.5% + header).
  EXPECT_LE(size, codec.max_compressed_bytes(in.size()));
  EXPECT_GT(size, in.size() * 4);
}

TEST(Mpc, LosslessOnSpecialValues) {
  std::vector<float> in = {0.0f, -0.0f, INFINITY, -INFINITY, NAN, 1e-45f, -1e-45f, 3.4e38f};
  in.resize(64, NAN);
  MpcCodec codec(2);
  auto out = roundtrip(codec, in);
  expect_bit_exact(in, out);
}

TEST(Mpc, ConstantDataCompressesMassively) {
  std::vector<float> in(65536, 3.14159f);
  MpcCodec codec(1);
  std::size_t size = 0;
  auto out = roundtrip(codec, in, &size);
  expect_bit_exact(in, out);
  const double ratio = static_cast<double>(in.size() * 4) / static_cast<double>(size);
  EXPECT_GT(ratio, 20.0);  // the paper sees CR up to 31 on duplicated data
}

TEST(Mpc, NonMultipleOf32AndChunkTails) {
  MpcCodec codec(1, 64);
  for (std::size_t n : {1u, 31u, 32u, 33u, 63u, 65u, 127u, 1000u}) {
    const auto in = gcmpi::data::smooth_field(n, 1e-3, n);
    auto out = roundtrip(codec, in);
    expect_bit_exact(in, out);
  }
}

TEST(Mpc, DimensionalityMatchesInterleaving) {
  // Data interleaving 4 fields compresses best at dimensionality 4.
  const auto in = gcmpi::data::interleaved_fields(1 << 15, 4, 1e-5, 3);
  std::size_t size_d1 = 0, size_d4 = 0;
  (void)roundtrip(MpcCodec(1), in, &size_d1);
  auto out = roundtrip(MpcCodec(4), in, &size_d4);
  expect_bit_exact(in, out);
  EXPECT_LT(size_d4, size_d1);
}

TEST(Mpc, ChunkCountMatchesThreadBlocks) {
  MpcCodec codec(1, 1024);
  EXPECT_EQ(codec.chunk_count(1), 1u);
  EXPECT_EQ(codec.chunk_count(1024), 1u);
  EXPECT_EQ(codec.chunk_count(1025), 2u);
  EXPECT_EQ(codec.chunk_count(10 * 1024), 10u);
}

TEST(Mpc, EncodedValuesHeaderPeek) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(777, 1e-3, 9);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_EQ(MpcCodec::encoded_values({buf.data(), size}), 777u);
}

TEST(Mpc, CorruptInputsThrow) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(512, 1e-3, 1);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  std::vector<float> out(in.size());

  // Truncated payload.
  EXPECT_THROW((void)codec.decompress({buf.data(), size / 2}, out), std::exception);
  // Bad magic.
  std::vector<std::uint8_t> bad(buf.begin(), buf.begin() + static_cast<long>(size));
  bad[0] ^= 0xFF;
  EXPECT_THROW((void)codec.decompress(bad, out), std::invalid_argument);
  // Output too small.
  std::vector<float> tiny(in.size() - 1);
  EXPECT_THROW((void)codec.decompress({buf.data(), size}, tiny), std::invalid_argument);
}

// Rebuilds `stream` so that its last chunk is a forged mask followed by
// `kept` words, the size-table entry says so, and the stream ends exactly
// at the end of its own heap allocation: a read past the kept words is a
// read past the allocation. Returns the owner and its size.
std::pair<std::unique_ptr<std::uint8_t[]>, std::size_t> forge_last_chunk(
    const std::vector<std::uint8_t>& stream, std::size_t size, std::uint32_t mask,
    std::size_t kept) {
  std::uint32_t chunks = 0;
  std::memcpy(&chunks, stream.data() + 16, 4);
  const std::size_t entry = 20 + 4 * (chunks - 1);
  std::uint32_t last_words = 0;
  std::memcpy(&last_words, stream.data() + entry, 4);
  const std::size_t last_chunk = size - last_words * 4;
  const std::size_t forged_size = last_chunk + (1 + kept) * 4;
  std::unique_ptr<std::uint8_t[]> forged(new std::uint8_t[forged_size]);
  std::memcpy(forged.get(), stream.data(), last_chunk);
  const auto words = static_cast<std::uint32_t>(1 + kept);
  std::memcpy(forged.get() + entry, &words, 4);
  std::memcpy(forged.get() + last_chunk, &mask, 4);
  for (std::size_t i = 0; i < kept; ++i) {
    const std::uint32_t w = ~0u;
    std::memcpy(forged.get() + last_chunk + (1 + i) * 4, &w, 4);
  }
  return {std::move(forged), forged_size};
}

// Decoding reads the caller's span in place, so a tile mask that promises
// more kept words than its chunk holds must throw before the gather, on
// both paths. The promised words would lie past the end of the allocation,
// which the asan-ubsan build reports as a heap overflow.
TEST(Mpc, CorruptMaskNeverReadsPastInput) {
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(2 * 1024 + 5, 1e-3, 7);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  std::vector<float> out(in.size());
  for (const std::size_t kept : {0u, 1u, 15u, 16u, 31u}) {
    const std::uint32_t low = kept == 31 ? ~0u : (2u << kept) - 1;  // kept + 1 bits
    for (const std::uint32_t mask : {low, kept < 16 ? low << 16 : ~0u}) {
      const auto [forged, forged_size] = forge_last_chunk(buf, size, mask, kept);
      const std::span<const std::uint8_t> stream(forged.get(), forged_size);
      EXPECT_THROW((void)codec.decompress(stream, out), std::runtime_error)
          << "kept " << kept << " mask " << std::hex << mask;
      EXPECT_THROW((void)codec.decompress_portable(stream, out), std::runtime_error)
          << "kept " << kept << " mask " << std::hex << mask;
    }
  }
}

TEST(Mpc, ChunkCountMustMatchValueCount) {
  // An n = 0 header that claims two chunks, the second a real 1024-value
  // chunk: decoding it would write a whole chunk past `out`.
  MpcCodec codec(1);
  const auto in = gcmpi::data::smooth_field(1024, 1e-3, 3);
  std::vector<std::uint8_t> one(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, one);
  std::vector<std::uint8_t> forged(one.begin(), one.begin() + 20);
  const std::uint32_t zero = 0;
  const std::uint32_t two = 2;
  std::memcpy(forged.data() + 4, &zero, 4);
  std::memcpy(forged.data() + 16, &two, 4);
  forged.insert(forged.end(), 4, std::uint8_t{0});  // chunk 0: no words
  forged.insert(forged.end(), one.begin() + 20, one.begin() + static_cast<long>(size));
  std::vector<float> out(1);
  EXPECT_THROW((void)codec.decompress(forged, out), std::invalid_argument);
  EXPECT_THROW((void)codec.decompress_portable(forged, out), std::invalid_argument);
}

// The path compress()/decompress() select on this CPU (AVX-512F/BW/VL
// where present) against the portable path, in the style of the CRC32C
// cross-check: equal streams, and each path decodes the other's stream
// bit-exactly. Sizes straddle tile (32) and chunk (1024) edges; d covers
// the strided-prefix (d < 16), boundary (16) and plain-carry (d > 16)
// decode cases. On a CPU without AVX-512 both sides are the portable path.
TEST(Mpc, VectorPathMatchesScalar) {
  using gcmpi::testing::PayloadKind;
  const auto same_bits = [](const std::vector<float>& a, const std::vector<float>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * 4) == 0);
  };
  std::uint64_t seed = 0;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{31}, std::size_t{33},
                              std::size_t{1023}, std::size_t{1025}, std::size_t{4099},
                              (std::size_t{1} << 20) / 4 + 13}) {
    for (const PayloadKind kind : {PayloadKind::Constant, PayloadKind::SmoothField,
                                   PayloadKind::Plateaus, PayloadKind::SpecialValues,
                                   PayloadKind::HighEntropy}) {
      const auto in = gcmpi::testing::make_floats(kind, n, ++seed);
      for (const int dim : {1, 2, 3, 4, 8, 15, 16, 17, 31, 32}) {
        SCOPED_TRACE(::testing::Message() << gcmpi::testing::payload_kind_name(kind) << " n "
                                          << n << " d " << dim);
        const MpcCodec codec(dim);
        std::vector<std::uint8_t> fast(codec.max_compressed_bytes(n));
        std::vector<std::uint8_t> portable(fast.size());
        const std::size_t size = codec.compress(in, fast);
        ASSERT_EQ(codec.compress_portable(in, portable), size);
        ASSERT_EQ(std::memcmp(fast.data(), portable.data(), size), 0);

        std::vector<float> out(n, -99.0f);
        ASSERT_EQ(codec.decompress_portable({fast.data(), size}, out), n);
        ASSERT_TRUE(same_bits(out, in));
        std::fill(out.begin(), out.end(), -99.0f);
        ASSERT_EQ(codec.decompress({portable.data(), size}, out), n);
        ASSERT_TRUE(same_bits(out, in));
      }
    }
  }
}

TEST(Mpc, OutputBufferTooSmallThrows) {
  MpcCodec codec(1);
  std::vector<float> in(1024, 1.0f);
  std::vector<std::uint8_t> small(16);
  EXPECT_THROW((void)codec.compress(in, small), std::invalid_argument);
}

TEST(Mpc, PartitionedStreamsConcatenateLosslessly) {
  // The MPC-OPT framework compresses contiguous sub-ranges independently;
  // verify chunk-aligned splits restore the original exactly and cost
  // roughly the same compressed size as one stream.
  const auto in = gcmpi::data::smooth_field(1 << 16, 1e-4, 21);
  MpcCodec codec(1, 1024);
  std::size_t whole = 0;
  (void)roundtrip(codec, in, &whole);

  const std::size_t half = (in.size() / 2 / 1024) * 1024;
  std::vector<float> a(in.begin(), in.begin() + static_cast<long>(half));
  std::vector<float> b(in.begin() + static_cast<long>(half), in.end());
  std::size_t sa = 0, sb = 0;
  auto ra = roundtrip(codec, a, &sa);
  auto rb = roundtrip(codec, b, &sb);
  expect_bit_exact(a, ra);
  expect_bit_exact(b, rb);
  const double overhead = static_cast<double>(sa + sb) / static_cast<double>(whole);
  EXPECT_NEAR(overhead, 1.0, 0.01);  // "negligible impact on the ratio"
}

TEST(Mpc, BitTranspose32MatchesNaiveAndInverts) {
  gcmpi::sim::Rng rng(101);
  for (int trial = 0; trial < 64; ++trial) {
    std::uint32_t tile[32];
    for (auto& w : tile) w = rng.next_u32();

    // Reference transpose straight from the definition M'[r][c] = M[c][r].
    std::uint32_t naive[32] = {};
    for (int r = 0; r < 32; ++r) {
      for (int c = 0; c < 32; ++c) {
        naive[r] |= ((tile[c] >> r) & 1u) << c;
      }
    }

    std::uint32_t fast[32];
    std::memcpy(fast, tile, sizeof(tile));
    gcmpi::comp::bit_transpose32(fast);
    EXPECT_EQ(std::memcmp(fast, naive, sizeof(naive)), 0);

    // Involution: forward o forward == identity.
    gcmpi::comp::bit_transpose32(fast);
    EXPECT_EQ(std::memcmp(fast, tile, sizeof(tile)), 0);
  }
}

class MpcDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(MpcDimSweep, LosslessAtEveryDimensionality) {
  const int dim = GetParam();
  MpcCodec codec(dim);
  const auto in = gcmpi::data::interleaved_fields(8192, 3, 1e-4,
                                                  static_cast<std::uint64_t>(dim));
  auto out = roundtrip(codec, in);
  expect_bit_exact(in, out);
}

INSTANTIATE_TEST_SUITE_P(Dims, MpcDimSweep, ::testing::Values(1, 2, 3, 4, 8, 16, 32));

}  // namespace
