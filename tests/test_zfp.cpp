// ZFP fixed-rate codec tests: exact compressed sizes, error bounds,
// all-zero blocks, partial blocks, parameterized rate sweeps, and the
// dispatched path against the portable one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <vector>

#include "compress/zfp.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"

namespace {

using gcmpi::comp::ZfpCodec;
using gcmpi::comp::ZfpField;

std::vector<float> smooth(std::size_t n, std::uint64_t seed) {
  gcmpi::sim::Rng rng(seed);
  const double phase = rng.uniform(0.0, 6.0);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i) + phase) +
                              0.3 * std::cos(0.003 * static_cast<double>(i)));
  }
  return v;
}

std::vector<std::uint8_t> roundtrip(const ZfpCodec& codec, const ZfpField& f,
                                    const std::vector<float>& in, std::vector<float>& out) {
  std::vector<std::uint8_t> buf(codec.compressed_bytes(f));
  const std::size_t written = codec.compress(in, f, buf);
  EXPECT_EQ(written, buf.size());
  out.assign(f.values(), -1.0f);
  codec.decompress(buf, f, out);
  return buf;
}

TEST(Zfp, FixedRateSizeIsExact) {
  for (int rate : {4, 8, 16, 32}) {
    ZfpCodec codec(rate);
    const ZfpField f = ZfpField::d1(1024);
    // 256 blocks * rate*4 bits, word aligned.
    const std::size_t bits = 256u * static_cast<std::size_t>(rate) * 4;
    EXPECT_EQ(codec.compressed_bytes(f), ((bits + 63) / 64) * 8);
    EXPECT_DOUBLE_EQ(codec.ratio(), 32.0 / rate);
  }
}

TEST(Zfp, RejectsInvalidRates) {
  EXPECT_THROW(ZfpCodec(3), std::invalid_argument);
  EXPECT_THROW(ZfpCodec(33), std::invalid_argument);
  EXPECT_NO_THROW(ZfpCodec(4));
}

TEST(Zfp, RejectsBadFields) {
  ZfpCodec codec(16);
  EXPECT_THROW((void)codec.compressed_bytes(ZfpField::d1(0)), std::invalid_argument);
}

TEST(Zfp, AllZeroBlockDecodesToZero) {
  ZfpCodec codec(8);
  const ZfpField f = ZfpField::d1(64);
  std::vector<float> in(64, 0.0f), out;
  roundtrip(codec, f, in, out);
  for (float x : out) EXPECT_EQ(x, 0.0f);
}

TEST(Zfp, HighRateIsNearLossless) {
  ZfpCodec codec(32);
  const ZfpField f = ZfpField::d1(4096);
  const auto in = smooth(4096, 3);
  std::vector<float> out;
  roundtrip(codec, f, in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_NEAR(in[i], out[i], 2e-6f) << i;
  }
}

TEST(Zfp, ErrorWithinBoundAcrossRates) {
  const auto in = smooth(4096, 11);
  float max_abs = 0;
  for (float x : in) max_abs = std::max(max_abs, std::fabs(x));
  for (int rate : {4, 8, 16}) {
    ZfpCodec codec(rate);
    const ZfpField f = ZfpField::d1(in.size());
    std::vector<float> out;
    roundtrip(codec, f, in, out);
    const double bound = codec.error_bound(max_abs);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_LE(std::fabs(in[i] - out[i]), bound) << "rate " << rate << " i " << i;
    }
  }
}

TEST(Zfp, LowerRateGivesLargerError) {
  const auto in = smooth(4096, 5);
  double err[3] = {};
  const int rates[3] = {16, 8, 4};
  for (int k = 0; k < 3; ++k) {
    ZfpCodec codec(rates[k]);
    const ZfpField f = ZfpField::d1(in.size());
    std::vector<float> out;
    roundtrip(codec, f, in, out);
    for (std::size_t i = 0; i < in.size(); ++i) {
      err[k] = std::max(err[k], static_cast<double>(std::fabs(in[i] - out[i])));
    }
  }
  EXPECT_LT(err[0], err[1]);
  EXPECT_LT(err[1], err[2]);
}

TEST(Zfp, PartialTailBlock1D) {
  ZfpCodec codec(16);
  for (std::size_t n : {1u, 2u, 3u, 5u, 63u, 1001u}) {
    const ZfpField f = ZfpField::d1(n);
    const auto in = smooth(n, n);
    std::vector<float> out;
    roundtrip(codec, f, in, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(in[i], out[i], 1e-3f) << "n=" << n << " i=" << i;
    }
  }
}

TEST(Zfp, NonFiniteValuesAreSanitized) {
  ZfpCodec codec(16);
  const ZfpField f = ZfpField::d1(8);
  std::vector<float> in = {1.0f, INFINITY, -INFINITY, NAN, 0.5f, -0.5f, 2.0f, -2.0f};
  std::vector<float> out;
  roundtrip(codec, f, in, out);
  for (float x : out) EXPECT_TRUE(std::isfinite(x));
}

TEST(Zfp, NegativeAndTinyValues) {
  ZfpCodec codec(16);
  std::vector<float> in = {-1e-30f, 1e-30f, -1e30f, 1e30f, -0.0f, 0.0f, 1e-38f, -3.4e38f};
  const ZfpField f = ZfpField::d1(in.size());
  std::vector<float> out;
  roundtrip(codec, f, in, out);
  // The huge values dominate each block's exponent; just require no crash,
  // finite output, and sign preservation for the dominant values.
  EXPECT_LT(out[7], 0.0f);
  EXPECT_GT(out[3], 0.0f);
}

TEST(Zfp, BuffersTooSmallThrow) {
  ZfpCodec codec(16);
  const ZfpField f = ZfpField::d1(64);
  std::vector<float> in(64, 1.0f), out(63);
  std::vector<std::uint8_t> small(8);
  EXPECT_THROW((void)codec.compress(in, f, small), std::invalid_argument);
  std::vector<std::uint8_t> buf(codec.compressed_bytes(f));
  (void)codec.compress(in, f, buf);
  EXPECT_THROW(codec.decompress(buf, f, out), std::invalid_argument);
}

class ZfpRateSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZfpRateSweep, RandomDataRoundTripsWithinQuantizationError) {
  const int rate = GetParam();
  ZfpCodec codec(rate);
  gcmpi::sim::Rng rng(static_cast<std::uint64_t>(rate));
  std::vector<float> in(2048);
  for (auto& x : in) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const ZfpField f = ZfpField::d1(in.size());
  std::vector<float> out;
  std::vector<std::uint8_t> buf(codec.compressed_bytes(f));
  (void)codec.compress(in, f, buf);
  out.assign(in.size(), 0.0f);
  codec.decompress(buf, f, out);
  const double bound = codec.error_bound(1.0);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_LE(std::fabs(in[i] - out[i]), bound) << "rate " << rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, ZfpRateSweep, ::testing::Values(4, 6, 8, 12, 16, 24, 32));

}  // namespace

namespace {

using gcmpi::testing::PayloadKind;

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * 4) == 0;
}

/// Write the low `n` bits of v at bit offset `bit` (LSB first).
void put_bits(std::vector<std::uint8_t>& bytes, std::size_t bit, std::uint32_t v, int n) {
  for (int i = 0; i < n; ++i, ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    bytes[bit / 8] = ((v >> i) & 1u) != 0 ? (bytes[bit / 8] | mask) : (bytes[bit / 8] & ~mask);
  }
}

// The fixed-rate 1D path compress()/decompress() select on this CPU (the
// AVX-512 group kernel for rates 4..16 where present) against the portable
// path, as Mpc.VectorPathMatchesScalar does for MPC: equal streams, and
// equal floats from either decoder. Lengths straddle the block (4) and
// group (64 values) edges; the payloads cover every PayloadKind (SpecialValues
// carries +-inf, NaN, denormals, +-0 and FLT_MAX) plus all-zero blocks. Every
// buffer has its exact size, so a read past a stream shows in the asan job.
// On a CPU without AVX-512 both sides are the portable path.
TEST(Zfp, DispatchedPathMatchesPortable) {
  std::uint64_t seed = 0;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{63}, std::size_t{64}, std::size_t{65},
                              std::size_t{4099}, std::size_t{65539}}) {
    const ZfpField f = ZfpField::d1(n);
    std::vector<std::vector<float>> payloads;
    for (int k = 0; k < static_cast<int>(PayloadKind::kCount); ++k) {
      payloads.push_back(gcmpi::testing::make_floats(static_cast<PayloadKind>(k), n, ++seed));
    }
    payloads.emplace_back(n, 0.0f);
    for (int rate = 4; rate <= 32; ++rate) {
      const ZfpCodec codec(rate);
      for (std::size_t p = 0; p < payloads.size(); ++p) {
        SCOPED_TRACE(::testing::Message() << "n " << n << " rate " << rate << " payload " << p);
        std::vector<std::uint8_t> fast(codec.compressed_bytes(f));
        std::vector<std::uint8_t> portable(fast.size());
        ASSERT_EQ(codec.compress(payloads[p], f, fast), fast.size());
        ASSERT_EQ(codec.compress_portable(payloads[p], f, portable), fast.size());
        ASSERT_EQ(fast, portable);

        std::vector<float> a(n, -99.0f);
        std::vector<float> b(n, -77.0f);
        codec.decompress(fast, f, a);
        codec.decompress_portable(fast, f, b);
        ASSERT_TRUE(same_bits(a, b));
      }
    }
  }
}

// Seeded random streams of exact fixed-rate length decode to the same
// floats on both paths. Each block header is forced to a zero flag or to a
// 9-bit exponent field that cycles through the float range and past both
// ends of it (field 0..1 and 279..511 are no float's exponent). A third of
// the blocks then start with a run of 20..40 empty planes, so the budget
// outlasts the 32 planes and the decoders must stop at plane 0.
TEST(Zfp, DispatchedPathMatchesPortableOnRandomStreams) {
  constexpr std::uint32_t kFields[] = {0, 1, 2, 100, 150, 277, 278, 279, 300, 511};
  gcmpi::sim::Rng rng(104729);
  for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{4099}}) {
    const ZfpField f = ZfpField::d1(n);
    for (int rate = 4; rate <= 32; ++rate) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " rate " << rate);
      const ZfpCodec codec(rate);
      std::vector<std::uint8_t> stream(codec.compressed_bytes(f));
      for (auto& byte : stream) byte = static_cast<std::uint8_t>(rng.next_below(256));
      for (std::size_t i = 0; i < f.blocks(); ++i) {
        const std::size_t at = i * 4 * static_cast<std::size_t>(rate);
        const std::uint32_t pick = static_cast<std::uint32_t>(rng.next_below(12));
        const std::uint32_t header =
            pick >= std::size(kFields) ? 0u : 1u | kFields[pick] << 1;  // else a zero flag
        put_bits(stream, at, header, 10);
        const std::size_t budget = 4 * static_cast<std::size_t>(rate) - 10;
        const std::size_t zeros = 20 + rng.next_below(21);
        if (rng.next_below(3) == 0 && zeros < budget) {
          for (std::size_t b = 0; b < zeros; ++b) put_bits(stream, at + 10 + b, 0, 1);
          put_bits(stream, at + 10 + zeros, 1, 1);
        }
      }
      std::vector<float> a(n, -99.0f);
      std::vector<float> b(n, -77.0f);
      codec.decompress(stream, f, a);
      codec.decompress_portable(stream, f, b);
      ASSERT_TRUE(same_bits(a, b));
    }
  }
}

// A fixed-rate stream shorter than compressed_bytes() used to decode its
// missing blocks as zeros; it is now rejected on both paths.
TEST(Zfp, ShortFixedRateStreamIsRejected) {
  const ZfpField f = ZfpField::d1(4099);
  const ZfpCodec codec(8);
  const auto in = smooth(f.values(), 7);
  std::vector<std::uint8_t> buf(codec.compressed_bytes(f));
  ASSERT_EQ(codec.compress(in, f, buf), buf.size());
  std::vector<float> out(f.values());
  for (const std::size_t shortfall : {std::size_t{1}, std::size_t{8}}) {
    const std::span<const std::uint8_t> cut{buf.data(), buf.size() - shortfall};
    EXPECT_THROW(codec.decompress(cut, f, out), std::invalid_argument);
    EXPECT_THROW(codec.decompress_portable(cut, f, out), std::invalid_argument);
  }
  EXPECT_NO_THROW(codec.decompress(buf, f, out));
}

}  // namespace
