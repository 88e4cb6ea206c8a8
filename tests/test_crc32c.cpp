// CRC32C (Castagnoli) known-answer and property tests. The reference
// vectors are the iSCSI ones from RFC 3720 Appendix B.4 / the original
// Castagnoli paper, which pin both the polynomial (0x1EDC6F41 reflected)
// and the bit conventions (reflected in/out, init and final XOR ~0).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "util/crc32c.hpp"

namespace {

using gcmpi::util::crc32c;
using gcmpi::util::crc32c_portable;
using gcmpi::util::crc32c_reference;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  gcmpi::sim::Rng rng(seed);
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  return buf;
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(crc32c_reference(nullptr, 0), 0u);
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // 32 bytes of zeros.
  std::array<std::uint8_t, 32> zeros{};
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // 32 bytes of 0xFF.
  std::array<std::uint8_t, 32> ones{};
  ones.fill(0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // Bytes 0x00..0x1F ascending.
  std::array<std::uint8_t, 32> ascending{};
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  EXPECT_EQ(crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);

  // Bytes 0x1F..0x00 descending.
  std::array<std::uint8_t, 32> descending{};
  for (std::size_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<std::uint8_t>(0x1F - i);
  }
  EXPECT_EQ(crc32c(descending.data(), descending.size()), 0x113FDB5Cu);
}

TEST(Crc32c, ClassicStringVectors) {
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c(digits.data(), digits.size()), 0xE3069283u);
  const std::string a = "a";
  EXPECT_EQ(crc32c(a.data(), a.size()), 0xC1D04330u);
}

TEST(Crc32c, SliceBy8MatchesBitwiseReference) {
  gcmpi::sim::Rng rng(0xC5C5);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.next_below(4096);
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint32_t want = crc32c_reference(buf.data(), buf.size());
    EXPECT_EQ(crc32c_portable(buf.data(), buf.size()), want) << "length " << n;
    EXPECT_EQ(crc32c(buf.data(), buf.size()), want) << "length " << n;
  }
}

TEST(Crc32c, IncrementalChainingEqualsOneShot) {
  gcmpi::sim::Rng rng(0xABCD);
  std::vector<std::uint8_t> buf(10'000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  const std::uint32_t whole = crc32c(buf.data(), buf.size());

  // Split at every mix of aligned and unaligned boundaries.
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{64}, std::size_t{4097}, buf.size() - 3}) {
    std::uint32_t crc = crc32c(buf.data(), cut);
    crc = crc32c(buf.data() + cut, buf.size() - cut, crc);
    EXPECT_EQ(crc, whole) << "cut at " << cut;
  }

  // Byte-at-a-time chaining.
  std::uint32_t crc = 0;
  for (const std::uint8_t b : buf) crc = crc32c(&b, 1, crc);
  EXPECT_EQ(crc, whole);
}

TEST(Crc32c, MisalignedStartMatchesAligned) {
  // The head loop that aligns the 8-byte loop must make unaligned buffers
  // agree with aligned copies of the same bytes.
  std::vector<std::uint8_t> storage(256 + 8);
  gcmpi::sim::Rng rng(99);
  for (auto& b : storage) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::vector<std::uint8_t> copy(storage.begin() + static_cast<std::ptrdiff_t>(offset),
                                   storage.begin() + static_cast<std::ptrdiff_t>(offset) + 256);
    EXPECT_EQ(crc32c(storage.data() + offset, 256), crc32c(copy.data(), 256))
        << "offset " << offset;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> buf(512, 0x5A);
  const std::uint32_t clean = crc32c(buf.data(), buf.size());
  for (const std::size_t bit : {std::size_t{0}, std::size_t{1}, std::size_t{2048},
                                buf.size() * 8 - 1}) {
    auto flipped = buf;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32c(flipped.data(), flipped.size()), clean) << "bit " << bit;
  }
}

// The hardware path folds three 4 KiB lanes per 12 KiB round and finishes
// on a single lane, so lengths around 3·4096 cross the round boundary and
// the MiB sizes run many rounds with and without a tail.
TEST(Crc32c, LargeInputsAgreeAcrossPaths) {
  constexpr std::size_t kRound = 3 * 4096;
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  const auto storage = random_bytes(8 * kMiB + 8, 0x3C3C);
  for (const std::size_t n : {kRound - 1, kRound, kRound + 1, kMiB + 13, 8 * kMiB}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = storage.data() + offset;
      const auto chain = static_cast<std::uint32_t>(0x9E3779B9u * (offset + 1));
      const std::uint32_t want = crc32c_reference(p, n, chain);
      EXPECT_EQ(crc32c(p, n, chain), want) << "length " << n << " offset " << offset;
      EXPECT_EQ(crc32c_portable(p, n, chain), want) << "length " << n << " offset " << offset;
    }
  }
}

TEST(Crc32c, ChainingAcrossLaneRoundsEqualsOneShot) {
  const auto buf = random_bytes(40'000, 0x5EED);
  const std::uint32_t whole = crc32c_reference(buf.data(), buf.size());
  for (const std::size_t cut : {std::size_t{4096}, std::size_t{12288}, std::size_t{12289}}) {
    const std::uint32_t head = crc32c(buf.data(), cut);
    EXPECT_EQ(crc32c(buf.data() + cut, buf.size() - cut, head), whole) << "cut at " << cut;
    const std::uint32_t head_portable = crc32c_portable(buf.data(), cut);
    EXPECT_EQ(crc32c_portable(buf.data() + cut, buf.size() - cut, head_portable), whole)
        << "cut at " << cut;
  }
}

// From 512 KiB on, crc32c() checksums 128 KiB pieces on the parallel pool
// and combines them in order: lengths around the split, a partial last
// piece, every alignment and a chained-in crc must all equal the serial
// portable path.
TEST(Crc32c, SplitPathMatchesPortable) {
  constexpr std::size_t kKiB = 1024;
  constexpr std::size_t kMiB = kKiB * kKiB;
  const auto storage = random_bytes(8 * kMiB + 3 + 8, 0x5B117);
  for (const std::size_t n : {512 * kKiB - 1, 512 * kKiB, 512 * kKiB + 1, kMiB + 7,
                              8 * kMiB + 3}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::uint8_t* p = storage.data() + offset;
      const auto chain = static_cast<std::uint32_t>(0xA5A5F00Du + 977u * offset);
      EXPECT_EQ(crc32c(p, n, chain), crc32c_portable(p, n, chain))
          << "length " << n << " offset " << offset;
    }
  }
}

// Chaining two split calls: one cut inside a 128 KiB piece, one on a piece
// boundary.
TEST(Crc32c, SplitPathChainsAcrossCuts) {
  constexpr std::size_t kKiB = 1024;
  const auto buf = random_bytes(2 * kKiB * kKiB + 5, 0xC4A1);
  constexpr std::uint32_t kChain = 0x0BADF00Du;
  const std::uint32_t whole = crc32c_portable(buf.data(), buf.size(), kChain);
  for (const std::size_t cut : {700 * kKiB + 3, 512 * kKiB, 1024 * kKiB}) {
    const std::uint32_t head = crc32c(buf.data(), cut, kChain);
    EXPECT_EQ(head, crc32c_portable(buf.data(), cut, kChain)) << "cut at " << cut;
    EXPECT_EQ(crc32c(buf.data() + cut, buf.size() - cut, head), whole) << "cut at " << cut;
  }
}

// A pinned value over a buffer large enough to reach every path of
// crc32c(), at an unaligned offset and chained onto a nonzero crc.
TEST(Crc32c, LargeBufferKnownAnswer) {
  constexpr std::size_t kLen = (std::size_t{8} << 20) + 3;
  constexpr std::uint32_t kChain = 0x1234ABCDu;
  constexpr std::uint32_t kWant = 0x4D506F7Du;
  const auto storage = random_bytes(kLen + 5, 0x8A11);
  const std::uint8_t* p = storage.data() + 5;
  EXPECT_EQ(crc32c(p, kLen, kChain), kWant);
  EXPECT_EQ(crc32c_portable(p, kLen, kChain), kWant);
  EXPECT_EQ(crc32c_reference(p, kLen, kChain), kWant);
}

TEST(Crc32c, HardwareMatchesPortableOnRandomSpans) {
  constexpr std::size_t kMax = 64 * 1024;
  const auto storage = random_bytes(kMax + 8, 0xF00D);
  gcmpi::sim::Rng rng(0xC0FFEE);
  for (int round = 0; round < 50; ++round) {
    const std::size_t offset = rng.next_below(8);
    const std::size_t n = rng.next_below(kMax + 1);
    const auto chain = static_cast<std::uint32_t>(rng.next_below(std::uint64_t{1} << 32));
    const std::uint8_t* p = storage.data() + offset;
    EXPECT_EQ(crc32c(p, n, chain), crc32c_portable(p, n, chain))
        << "offset " << offset << " length " << n << " crc " << chain;
  }
}

}  // namespace
