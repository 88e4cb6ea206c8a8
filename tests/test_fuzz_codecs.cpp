// Property-based fuzz of every codec: hundreds of seeded structured
// payloads per codec configuration, asserting bit-exact round trips for
// the lossless codecs and published error bounds for the lossy ones, with
// shrinking minimal-failure reporting (see tests/support/).
//
// Reproduce any failure with GCMPI_TEST_SEED=<seed printed in the report>.
#include <gtest/gtest.h>

#include <cstring>

#include "support/codecs.hpp"
#include "support/payloads.hpp"
#include "support/property.hpp"

namespace {

using namespace gcmpi::testing;

constexpr int kCasesPerCodec = 220;

// Stable per-codec seed derived from the root seed, so adding/removing a
// codec configuration does not reshuffle every other codec's cases.
std::uint64_t codec_seed(const std::string& name) {
  std::uint64_t h = test_seed();
  for (char c : name) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  return h;
}

class FloatCodecFuzz : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FloatCodecFuzz, RoundTripsAllPayloadKinds) {
  const auto checks = float_codec_checks();
  const auto& check = checks.at(GetParam());
  const auto gen = [](const PayloadCase& c) { return make_floats(c.kind, c.n, c.seed); };
  const auto report =
      check_property<float>(check.name, kCasesPerCodec, codec_seed(check.name),
                            check.max_values, check.finite_only, gen, check.prop);
  EXPECT_FALSE(report.has_value()) << *report;
}

std::string float_check_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return float_codec_checks().at(info.param).name;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, FloatCodecFuzz,
                         ::testing::Range<std::size_t>(0, float_codec_checks().size()),
                         float_check_name);

TEST(FuzzCodecs, EveryCheckSurvivesTheEmptyAndSingletonPayloads) {
  for (const auto& check : float_codec_checks()) {
    for (std::size_t n : {0u, 1u}) {
      const auto payload = make_floats(PayloadKind::SmoothField, n, 1);
      const auto err = check.prop(payload);
      EXPECT_FALSE(err.has_value()) << check.name << " n=" << n << ": " << *err;
    }
  }
}

TEST(FuzzCodecs, ShrinkerProducesMinimalCounterexample) {
  // Self-test of the harness on a synthetic property ("no payload contains
  // the value 7"): the shrinker must descend to the single offending value.
  Property<float> no_sevens = [](std::span<const float> v) -> std::optional<std::string> {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] == 7.0f) return "found 7 at [" + std::to_string(i) + "]";
    }
    return std::nullopt;
  };
  std::vector<float> payload(300, 1.0f);
  payload[123] = 7.0f;
  const auto shrunk = shrink_failing(payload, no_sevens);
  ASSERT_EQ(shrunk.size(), 1u);
  EXPECT_EQ(shrunk[0], 7.0f);
}

TEST(FuzzCodecs, GeneratorsAreDeterministicInTheCaseTriple) {
  for (int k = 0; k < static_cast<int>(PayloadKind::kCount); ++k) {
    const auto kind = static_cast<PayloadKind>(k);
    const auto a = make_floats(kind, 513, 99);
    const auto b = make_floats(kind, 513, 99);
    ASSERT_EQ(a.size(), b.size()) << payload_kind_name(kind);
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << payload_kind_name(kind);
  }
}

}  // namespace
