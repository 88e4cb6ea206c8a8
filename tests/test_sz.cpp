// SZ-style error-bounded lossy codec tests: the error bound is an
// invariant checked over datasets, bounds, and adversarial inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "compress/sz.hpp"
#include "data/datasets.hpp"
#include "sim/rng.hpp"

namespace {

using gcmpi::comp::SzCodec;

struct Result {
  std::vector<float> out;
  std::size_t bytes;
};

Result roundtrip(const SzCodec& codec, const std::vector<float>& in) {
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_LE(size, buf.size());
  Result r;
  r.bytes = size;
  r.out.assign(in.size(), 0.0f);
  EXPECT_EQ(codec.decompress({buf.data(), size}, r.out), in.size());
  return r;
}

void expect_bounded(const std::vector<float>& a, const std::vector<float>& b, double eb) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isfinite(a[i])) {
      ASSERT_LE(std::fabs(static_cast<double>(a[i]) - b[i]), eb) << "i=" << i;
    }
  }
}

TEST(Sz, RejectsBadParameters) {
  EXPECT_THROW(SzCodec(0.0), std::invalid_argument);
  EXPECT_THROW(SzCodec(-1.0), std::invalid_argument);
  EXPECT_THROW(SzCodec(1e-3, 2), std::invalid_argument);
  EXPECT_THROW(SzCodec(1e-3, 30), std::invalid_argument);
}

TEST(Sz, SmoothDataCompressesWellWithinBound) {
  const auto in = gcmpi::data::smooth_field(1 << 17, 1e-4, 7);
  const double eb = 1e-3;
  SzCodec codec(eb);
  const auto r = roundtrip(codec, in);
  expect_bounded(in, r.out, eb);
  const double ratio = static_cast<double>(in.size() * 4) / static_cast<double>(r.bytes);
  EXPECT_GT(ratio, 4.0);  // error-bounded lossy beats lossless on smooth data
}

TEST(Sz, TighterBoundCostsMoreBits) {
  const auto in = gcmpi::data::smooth_field(1 << 16, 1e-3, 9);
  std::size_t loose = roundtrip(SzCodec(1e-2), in).bytes;
  std::size_t tight = roundtrip(SzCodec(1e-5), in).bytes;
  EXPECT_LT(loose, tight);
}

TEST(Sz, RandomDataStaysBounded) {
  gcmpi::sim::Rng rng(5);
  std::vector<float> in(1 << 15);
  for (auto& x : in) x = static_cast<float>(rng.uniform(-100.0, 100.0));
  const double eb = 0.5;
  SzCodec codec(eb);
  const auto r = roundtrip(codec, in);
  expect_bounded(in, r.out, eb);
}

TEST(Sz, UnpredictableValuesGoVerbatim) {
  // Huge jumps exceed every quantization bin: the escape path must keep
  // them bit-exact.
  std::vector<float> in = {0.0f, 1e30f, -1e30f, 1.0f, 1e-30f, -1e25f, 3.5f, 0.0f};
  SzCodec codec(1e-6);
  const auto r = roundtrip(codec, in);
  expect_bounded(in, r.out, 1e-6);
  EXPECT_EQ(r.out[1], 1e30f);
  EXPECT_EQ(r.out[2], -1e30f);
}

TEST(Sz, NonFiniteValuesSurviveVerbatim) {
  std::vector<float> in = {1.0f, INFINITY, -INFINITY, NAN, 2.0f, 2.0f, 2.0f, 2.0f};
  SzCodec codec(1e-3);
  const auto r = roundtrip(codec, in);
  EXPECT_EQ(r.out[1], INFINITY);
  EXPECT_EQ(r.out[2], -INFINITY);
  EXPECT_TRUE(std::isnan(r.out[3]));
  expect_bounded(in, r.out, 1e-3);
}

TEST(Sz, EmptyAndTinyInputs) {
  SzCodec codec(1e-3);
  for (std::size_t n : {0u, 1u, 2u, 3u, 7u}) {
    const auto in = gcmpi::data::smooth_field(n, 1e-3, n + 1);
    const auto r = roundtrip(codec, in);
    expect_bounded(in, r.out, 1e-3);
  }
}

TEST(Sz, EncodedValuesPeek) {
  const auto in = gcmpi::data::smooth_field(333, 1e-3, 2);
  SzCodec codec(1e-4);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  EXPECT_EQ(SzCodec::encoded_values({buf.data(), size}), 333u);
}

TEST(Sz, MismatchedQuantBitsRejected) {
  const auto in = gcmpi::data::smooth_field(256, 1e-3, 3);
  SzCodec a(1e-3, 16), b(1e-3, 12);
  std::vector<std::uint8_t> buf(a.max_compressed_bytes(in.size()));
  const std::size_t size = a.compress(in, buf);
  std::vector<float> out(in.size());
  EXPECT_THROW((void)b.decompress({buf.data(), size}, out), std::invalid_argument);
}

TEST(Sz, CorruptMagicRejected) {
  const auto in = gcmpi::data::smooth_field(256, 1e-3, 4);
  SzCodec codec(1e-3);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  buf[0] ^= 0xFF;
  std::vector<float> out(in.size());
  EXPECT_THROW((void)codec.decompress({buf.data(), size}, out), std::invalid_argument);
}

// BitReader yields zeros past the end of its input, so a cut stream used to
// decode its missing codes as wrong floats. Every prefix of a stream that
// holds escapes (the verbatim path) now either throws or, when the cut
// removes only word padding, decodes to exactly the floats of the whole
// stream. Each prefix is its own exact-size buffer, so the asan job sees a
// read past it.
TEST(Sz, TruncatedStreamIsRejected) {
  auto in = gcmpi::data::smooth_field(300, 1e-3, 5);
  in[17] = 1e30f;
  in[150] = NAN;
  SzCodec codec(1e-3);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  buf.resize(codec.compress(in, buf));
  std::vector<float> full(in.size());
  ASSERT_EQ(codec.decompress(buf, full), in.size());

  std::size_t clean = 0;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(len));
    std::vector<float> out(in.size(), -99.0f);
    try {
      (void)codec.decompress(cut, out);
    } catch (const std::exception&) {
      continue;
    }
    ++clean;
    ASSERT_EQ(std::memcmp(out.data(), full.data(), full.size() * sizeof(float)), 0)
        << "prefix of " << len << " of " << buf.size() << " bytes decoded to other floats";
  }
  EXPECT_LT(clean, 8u);  // only the padding of the last word may go
}

class SzBoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(SzBoundSweep, BoundHoldsOnEveryDataset) {
  const double eb = GetParam();
  SzCodec codec(eb);
  for (const auto& info : gcmpi::data::table3_datasets()) {
    const auto in = gcmpi::data::generate(info.name, 1 << 14);
    const auto r = roundtrip(codec, in);
    ASSERT_EQ(r.out.size(), in.size()) << info.name;
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_LE(std::fabs(static_cast<double>(in[i]) - r.out[i]), eb)
          << info.name << " i=" << i << " eb=" << eb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, SzBoundSweep, ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4, 1e-5));

}  // namespace
