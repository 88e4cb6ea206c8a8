// Golden-stream corpus: pins the SHA-256 of the exact compressed bytes each
// codec emits on fixed seeded inputs. The word-parallel fast paths in
// src/compress/ are only allowed because of this file — any rewrite of the
// bit-level hot loops must keep the wire format bit-identical, and these
// hashes are how that invariant is enforced. If a test here fails, the
// change altered the compressed stream; that is a wire-format break, not a
// "just update the hash" situation, unless the PR explicitly versions the
// format.
//
// To regenerate after an *intentional* format change:
//   GCMPI_UPDATE_GOLDEN=1 ./test_golden_streams | grep '{"' (paste into kGolden
//   and, for the zfp decode digests, kZfpDecoded)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "support/payloads.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi;
namespace gt = gcmpi::testing;

struct GoldenEntry {
  const char* name;
  const char* sha256;
};

// Pinned digests of each codec's compressed output on the corpus below.
// Generated from the pre-optimization scalar implementations (PR 1 state);
// the word-parallel rewrites must reproduce them bit for bit.
constexpr GoldenEntry kGolden[] = {
    {"mpc/d1/smooth/65536", "83df06838045b369ed1c3b52a95b11913c7c3c49bd391189d1149a8065c656c8"},
    {"mpc/d4/interleaved/32768", "e79d851056e9c2aa55f3a1302b67f098c6c5cb47cb10ffc29d7e1ed56c26044e"},
    {"mpc/d1/special/4099", "ff94e458fbee7835a75298c105b5273dc5c348b6ee3e5e32609ed0c62f542aef"},
    {"mpc/d3/plateaus/4131", "50794dc39dd4fbeb931557d5c5b9ba443f8ae0c94f2403ac1ab87db66dfa7802"},
    {"mpc/d1/smooth/1048579",
     "65f12add5fcfa25bf6af6f514e3925c6ab0a5695f6b9b3ff10d1deb72c9a8688"},
    {"mpc/d3/interleaved/524323",
     "ba58ae07ff57d593f2e83fe6e549ea090ff4308cac91a15fa913258010a62958"},
    {"zfp/r4/d1/65536", "47a49718211adf30cf7e6c2c5124476905fd467f7ea253a8e1b18af23baf54d2"},
    {"zfp/r8/d1/4099", "51d39314f5d7139cac7a1da0a26f46bc8d3082f2dcc318e10afc9ff5ee016a96"},
    {"zfp/r16/d1/65536", "284761de7fc182d801d75f5c773fee544c893b6b582613d14ac04eced90d17db"},
    {"zfp/r4/d1/1048579",
     "f99e5c4ab2402fed724c1ad7b8b2a0578b81a1c673d47dd3305be0d935a0c479"},
    {"zfp/r8/d1/1048579",
     "1727844bdbeeaed141536da68981354ba90d4f8a37cf4cc15a468398a77035a7"},
    {"zfp/r16/d1/1048579",
     "286ad5e2e02c3cb58e9e2991206f19591e397d2d33f629c31a728329f859a8dd"},
};

// Pinned digests of the floats each zfp golden stream decodes to. The
// stream hashes above cannot catch a decoder that shifts bits consistently
// (every round-trip test compares against the same decoder); these can.
constexpr GoldenEntry kZfpDecoded[] = {
    {"zfp/r4/d1/65536", "bb5266f582468684820e3e05baa2ecdad2cea63b5c52bc3334cdcd32c6bbd99f"},
    {"zfp/r8/d1/4099", "252f04cc3001560065a0601f77bb79963b4123d3831fa55ae1b7db3cfb7ec254"},
    {"zfp/r16/d1/65536", "67cb840007ab33c51112986ef440e693fd9b8b657d2b023c294e392ab26671f7"},
    {"zfp/r4/d1/1048579",
     "0295259afc10e860f79052492bace5540905549d1fd3b6b64d4594fadea6f5ef"},
    {"zfp/r8/d1/1048579",
     "074c7b89cf92d062d7c3fde5c628d2469f5a855dd89ef349664ce414367a55f6"},
    {"zfp/r16/d1/1048579",
     "67527b986e80ca736fa99ef3bf7a24ae53f52a7bbba2f8b6c7c29dc0850b8a05"},
};

using MakeStream = std::function<std::vector<std::uint8_t>()>;

std::vector<std::uint8_t> mpc_stream(int dim, gt::PayloadKind kind, std::size_t n,
                                     std::uint64_t seed) {
  const auto in = gt::make_floats(kind, n, seed);
  comp::MpcCodec codec(dim);
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  out.resize(codec.compress(in, out));
  return out;
}

std::vector<std::uint8_t> zfp_stream(const comp::ZfpCodec& codec, const comp::ZfpField& field,
                                     gt::PayloadKind kind, std::uint64_t seed) {
  const auto in = gt::make_floats(kind, field.values(), seed);
  std::vector<std::uint8_t> out(codec.compressed_bytes(field));
  out.resize(codec.compress(in, field, out));
  return out;
}

struct ZfpCase {
  const char* name;
  comp::ZfpCodec codec;
  comp::ZfpField field;
  gt::PayloadKind kind;
  std::uint64_t seed;
};

std::vector<ZfpCase> zfp_cases() {
  using K = gt::PayloadKind;
  using comp::ZfpCodec;
  using comp::ZfpField;
  return {
      {"zfp/r4/d1/65536", ZfpCodec(4), ZfpField::d1(65536), K::SmoothField, 21},
      {"zfp/r8/d1/4099", ZfpCodec(8), ZfpField::d1(4099), K::VelocityPlane, 22},
      {"zfp/r16/d1/65536", ZfpCodec(16), ZfpField::d1(65536), K::SmoothField, 23},
      // 1 Mi + 3 values: many split pieces, then a partial 16-block group
      // ending in a partial block.
      {"zfp/r4/d1/1048579", ZfpCodec(4), ZfpField::d1(1048579), K::SmoothField, 24},
      {"zfp/r8/d1/1048579", ZfpCodec(8), ZfpField::d1(1048579), K::VelocityPlane, 25},
      {"zfp/r16/d1/1048579", ZfpCodec(16), ZfpField::d1(1048579), K::SmoothField, 26},
  };
}

std::vector<std::pair<std::string, MakeStream>> corpus() {
  using K = gt::PayloadKind;
  std::vector<std::pair<std::string, MakeStream>> c;
  c.emplace_back("mpc/d1/smooth/65536", [] { return mpc_stream(1, K::SmoothField, 65536, 11); });
  c.emplace_back("mpc/d4/interleaved/32768",
                 [] { return mpc_stream(4, K::Interleaved, 32768, 12); });
  c.emplace_back("mpc/d1/special/4099", [] { return mpc_stream(1, K::SpecialValues, 4099, 13); });
  c.emplace_back("mpc/d3/plateaus/4131", [] { return mpc_stream(3, K::Plateaus, 4131, 14); });
  // Streams of more than 128 chunks, each ending in a partial chunk: the
  // sizes at which the codec splits a message across cores.
  c.emplace_back("mpc/d1/smooth/1048579",
                 [] { return mpc_stream(1, K::SmoothField, 1048579, 17); });
  c.emplace_back("mpc/d3/interleaved/524323",
                 [] { return mpc_stream(3, K::Interleaved, 524323, 18); });
  for (const ZfpCase& z : zfp_cases()) {
    c.emplace_back(z.name, [z] { return zfp_stream(z.codec, z.field, z.kind, z.seed); });
  }
  return c;
}

TEST(GoldenStreams, CompressedBytesAreBitIdentical) {
  const bool update = std::getenv("GCMPI_UPDATE_GOLDEN") != nullptr;
  const auto cases = corpus();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, make] = cases[i];
    ASSERT_STREQ(name.c_str(), kGolden[i].name);
    const std::vector<std::uint8_t> bytes = make();
    ASSERT_FALSE(bytes.empty()) << name;
    const std::string got = gt::sha256_hex(bytes);
    if (update) {
      std::printf("    {\"%s\", \"%s\"},\n", name.c_str(), got.c_str());
      continue;
    }
    EXPECT_EQ(got, kGolden[i].sha256)
        << name << ": compressed stream changed (" << bytes.size()
        << " bytes). This is a wire-format break; see the header comment.";
  }
}

TEST(GoldenStreams, ZfpDecodedFloatsArePinned) {
  const bool update = std::getenv("GCMPI_UPDATE_GOLDEN") != nullptr;
  const auto cases = zfp_cases();
  ASSERT_EQ(cases.size(), std::size(kZfpDecoded));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ZfpCase& z = cases[i];
    ASSERT_STREQ(z.name, kZfpDecoded[i].name);
    const std::vector<std::uint8_t> bytes = zfp_stream(z.codec, z.field, z.kind, z.seed);
    std::vector<float> out(z.field.values());
    z.codec.decompress(bytes, z.field, out);
    const std::string got = gt::sha256_hex(
        {reinterpret_cast<const std::uint8_t*>(out.data()), out.size() * sizeof(float)});
    if (update) {
      std::printf("    {\"%s\", \"%s\"},\n", z.name, got.c_str());
      continue;
    }
    EXPECT_EQ(got, kZfpDecoded[i].sha256) << z.name << ": decoded floats changed.";
  }
}

// The corpus exercises every wire path the hashes pin: decode each stream
// once so a silently-corrupt golden stream cannot hide behind its own hash.
TEST(GoldenStreams, StreamsRoundTrip) {
  for (const auto& [name, make] : corpus()) {
    const std::vector<std::uint8_t> bytes = make();
    SCOPED_TRACE(name);
    if (name.rfind("mpc/", 0) == 0) {
      const std::size_t n = comp::MpcCodec::encoded_values(bytes);
      std::vector<float> out(n);
      int dim = 1;
      if (name.find("/d4/") != std::string::npos) dim = 4;
      if (name.find("/d3/") != std::string::npos) dim = 3;
      comp::MpcCodec codec(dim);
      EXPECT_EQ(codec.decompress(bytes, out), n);
    }
    // zfp decodes are pinned by ZfpDecodedFloatsArePinned.
  }
}

// The streams large enough to be split across cores must decode to their
// input on the dispatched and on the portable path: MPC bit for bit, ZFP
// to the same floats on both paths, within the codec's error bound.
TEST(GoldenStreams, LargeStreamsDecodeToTheirInput) {
  using K = gt::PayloadKind;
  struct Case {
    int dim;
    K kind;
    std::size_t n;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{1, K::SmoothField, 1048579, 17}, Case{3, K::Interleaved, 524323, 18}}) {
    SCOPED_TRACE(c.n);
    const auto in = gt::make_floats(c.kind, c.n, c.seed);
    const auto bytes = mpc_stream(c.dim, c.kind, c.n, c.seed);
    const comp::MpcCodec codec(c.dim);
    std::vector<float> out(c.n);
    ASSERT_EQ(codec.decompress(bytes, out), c.n);
    EXPECT_EQ(std::memcmp(out.data(), in.data(), c.n * sizeof(float)), 0);
    std::vector<float> portable(c.n);
    ASSERT_EQ(codec.decompress_portable(bytes, portable), c.n);
    EXPECT_EQ(std::memcmp(portable.data(), in.data(), c.n * sizeof(float)), 0);
  }
  for (const ZfpCase& z : zfp_cases()) {
    if (z.field.values() < (std::size_t{1} << 20)) continue;
    SCOPED_TRACE(z.name);
    const auto in = gt::make_floats(z.kind, z.field.values(), z.seed);
    const auto bytes = zfp_stream(z.codec, z.field, z.kind, z.seed);
    std::vector<std::uint8_t> portable_bytes(bytes.size());
    ASSERT_EQ(z.codec.compress_portable(in, z.field, portable_bytes), bytes.size());
    EXPECT_EQ(portable_bytes, bytes);
    std::vector<float> out(in.size());
    std::vector<float> portable(in.size());
    z.codec.decompress(bytes, z.field, out);
    z.codec.decompress_portable(bytes, z.field, portable);
    EXPECT_EQ(std::memcmp(out.data(), portable.data(), out.size() * sizeof(float)), 0);
    float max_abs = 0.0f;
    for (const float v : in) max_abs = std::max(max_abs, std::fabs(v));
    const double bound = z.codec.error_bound(max_abs);
    std::size_t over = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      over += std::fabs(static_cast<double>(out[i]) - in[i]) > bound ? 1 : 0;
    }
    EXPECT_EQ(over, 0u) << "values past the error bound " << bound;
  }
}

}  // namespace
