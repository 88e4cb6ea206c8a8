// Bit-level stream tests: exact round-trips through every put/get path,
// word-boundary edge cases, reads past the end, and a randomized property
// sweep.
#include <gtest/gtest.h>

#include <vector>

#include "compress/bitstream.hpp"
#include "sim/rng.hpp"

namespace {

using gcmpi::comp::BitReader;
using gcmpi::comp::BitWriter;

TEST(BitStream, SingleBits) {
  BitWriter w;
  const int pattern[] = {1, 0, 1, 1, 0, 0, 1, 0, 1};
  for (int b : pattern) w.put_bits(static_cast<std::uint64_t>(b), 1);
  auto bytes = w.take();
  BitReader r(bytes);
  for (int b : pattern) EXPECT_EQ(r.get_bits(1), static_cast<std::uint64_t>(b));
  EXPECT_EQ(r.tell(), 9u);
}

TEST(BitStream, MultiBitValues) {
  BitWriter w;
  w.put_bits(0x2A, 6);
  w.put_bits(0xDEADBEEF, 32);
  w.put_bits(0x1, 1);
  auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(6), 0x2Au);
  EXPECT_EQ(r.get_bits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.get_bits(1), 1u);
}

TEST(BitStream, SixtyFourBitValues) {
  BitWriter w;
  w.put_bits(1, 1);  // offset so the 64-bit value straddles words
  w.put_bits(0x0123456789ABCDEFull, 64);
  w.put_bits(0xFFFFFFFFFFFFFFFFull, 64);
  auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(1), 1u);
  EXPECT_EQ(r.get_bits(64), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_bits(64), 0xFFFFFFFFFFFFFFFFull);
}

TEST(BitStream, WordBoundaryExactFill) {
  BitWriter w;
  w.put_bits(0xAAAAAAAAAAAAAAAAull, 64);  // exactly one word
  w.put_bits(0x5, 3);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 16u);
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(64), 0xAAAAAAAAAAAAAAAAull);
  EXPECT_EQ(r.get_bits(3), 0x5u);
}

TEST(BitStream, HighBitsAboveCountAreMasked) {
  BitWriter w;
  w.put_bits(0xFF, 3);  // only low 3 bits should land
  w.put_bits(0, 5);
  auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(8), 0x7u);
}

TEST(BitStream, ReadPastEndYieldsZeros) {
  BitWriter w;
  w.put_bits(0xFF, 8);
  auto bytes = w.take();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(64), 0xFFu);  // the byte, then the word's zero padding
  EXPECT_EQ(r.tell(), r.bit_size());
  EXPECT_EQ(r.peek_bits(16), 0u);
  EXPECT_EQ(r.get_bits(16), 0u);
  EXPECT_GT(r.tell(), r.bit_size());  // how a decoder spots a cut stream
}

TEST(BitStream, RandomizedRoundTrip) {
  gcmpi::sim::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, int>> writes;
    for (int i = 0; i < 200; ++i) {
      const int n = 1 + static_cast<int>(rng.next_below(64));
      const std::uint64_t v =
          n < 64 ? (rng.next_u64() & ((1ull << n) - 1)) : rng.next_u64();
      writes.emplace_back(v, n);
      w.put_bits(v, n);
    }
    auto bytes = w.take();
    BitReader r(bytes);
    for (const auto& [v, n] : writes) {
      ASSERT_EQ(r.get_bits(n), v) << "trial " << trial;
    }
  }
}

}  // namespace
