// util::parallel_for and the codec bodies that split across it: every
// index visited once, the lowest-index failure rethrown after every piece
// has finished, nested calls inline, the idle workers' spin and blocking
// paths, and MPC streams long enough to split that are malformed in their
// last chunk still throwing the types the serial decoder throws.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "compress/mpc.hpp"
#include "support/payloads.hpp"
#include "util/parallel.hpp"

namespace {

using gcmpi::util::parallel_for;
namespace comp = gcmpi::comp;
namespace gt = gcmpi::testing;

// Runs parallel_for over n items and returns how often each was visited;
// also checks that every piece starts on a grain boundary.
std::vector<int> visits(std::size_t n, std::size_t grain) {
  std::vector<std::atomic<int>> count(n);
  std::atomic<bool> aligned{true};
  const std::size_t piece = std::max<std::size_t>(grain, 1);
  parallel_for(n, grain, [&](std::size_t begin, std::size_t end) {
    if (begin % piece != 0 || end - begin > piece || end > n) aligned = false;
    for (std::size_t i = begin; i < end; ++i) ++count[i];
  });
  EXPECT_TRUE(aligned) << "n " << n << " grain " << grain;
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = count[i];
  return out;
}

TEST(ParallelFor, VisitsEachIndexExactlyOnce) {
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, grain - 1, grain, grain + 1,
                                37 * grain + 5}) {
      const std::vector<int> seen = visits(n, grain);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(seen[i], 1) << "index " << i << " of " << n << ", grain " << grain;
      }
    }
  }
}

TEST(ParallelFor, ZeroGrainCountsAsOne) {
  const std::vector<int> seen = visits(10, 0);
  for (const int v : seen) EXPECT_EQ(v, 1);
}

TEST(ParallelFor, RethrowsTheLowestIndexFailureAfterEveryPiece) {
  constexpr std::size_t kPieces = 64;
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> finished{0};
    try {
      parallel_for(kPieces, 1, [&](std::size_t i, std::size_t) {
        if (i == 5) {
          // The lowest failure is the slowest to throw.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw std::runtime_error("piece 5");
        }
        if (i == 17) throw std::logic_error("piece 17");
        if (i == 40) throw std::runtime_error("piece 40");
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ++finished;
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "piece 5");
      EXPECT_EQ(finished.load(), kPieces - 3);
    }
  }
}

TEST(ParallelFor, SinglePieceExceptionPropagates) {
  EXPECT_THROW(parallel_for(3, 8, [](std::size_t, std::size_t) { throw std::out_of_range("x"); }),
               std::out_of_range);
}

TEST(ParallelFor, NestedCallRunsInlineOnItsPiecesThread) {
  std::atomic<bool> inline_everywhere{true};
  const std::vector<int> seen = [&] {
    std::vector<std::atomic<int>> count(8 * 100);
    parallel_for(8, 1, [&](std::size_t outer, std::size_t) {
      const std::thread::id me = std::this_thread::get_id();
      parallel_for(100, 10, [&](std::size_t begin, std::size_t end) {
        if (std::this_thread::get_id() != me) inline_everywhere = false;
        for (std::size_t i = begin; i < end; ++i) ++count[outer * 100 + i];
      });
    });
    std::vector<int> out(count.size());
    for (std::size_t i = 0; i < count.size(); ++i) out[i] = count[i];
    return out;
  }();
  EXPECT_TRUE(inline_everywhere);
  for (const int v : seen) ASSERT_EQ(v, 1);
}

TEST(ParallelFor, BackToBackCallsTerminate) {
  std::vector<std::uint64_t> values(4096);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = i;
  for (int call = 0; call < 1000; ++call) {
    std::vector<std::uint64_t> partial(64, 0);
    parallel_for(values.size(), 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) partial[begin / 64] += values[i];
    });
    std::uint64_t sum = 0;
    for (const std::uint64_t p : partial) sum += p;
    ASSERT_EQ(sum, values.size() * (values.size() - 1) / 2) << "call " << call;
  }
}

// Idle workers poll for about 4 ms and then block: a call made after a
// longer sleep has to wake them.
TEST(ParallelFor, CallAfterTheSpinWindowWakesBlockedWorkers) {
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    const std::vector<int> seen = visits(1000, 10);
    for (const int v : seen) ASSERT_EQ(v, 1);
  }
}

// Two threads calling at once: one holds the pool, the other runs inline.
TEST(ParallelFor, ConcurrentCallersEachGetTheirOwnResult) {
  auto caller = [](std::uint64_t salt, bool* ok) {
    for (int call = 0; call < 200; ++call) {
      std::vector<std::uint64_t> out(512);
      parallel_for(out.size(), 16, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) out[i] = i * salt;
      });
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] != i * salt) *ok = false;
      }
    }
  };
  bool ok_a = true;
  bool ok_b = true;
  std::thread a(caller, 3, &ok_a);
  std::thread b(caller, 7, &ok_b);
  a.join();
  b.join();
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
}

TEST(CopyBytes, MatchesMemcpyAtEverySplitSize) {
  using gcmpi::util::kCopyPieceBytes;
  using gcmpi::util::kCopySplitBytes;
  gcmpi::util::copy_bytes(nullptr, nullptr, 0);
  const std::size_t max = 3 * kCopySplitBytes + 5;
  std::vector<std::uint8_t> src(max + 8);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (const std::size_t n : {std::size_t{1}, kCopySplitBytes - 1, kCopySplitBytes,
                              kCopySplitBytes + kCopyPieceBytes / 2, max}) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{3}}) {
      std::vector<std::uint8_t> dst(n + 16, 0xEE);
      gcmpi::util::copy_bytes(dst.data() + 8, src.data() + offset, n);
      EXPECT_EQ(std::memcmp(dst.data() + 8, src.data() + offset, n), 0) << "length " << n;
      for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(dst[i], 0xEE) << "wrote before the destination, length " << n;
        ASSERT_EQ(dst[n + 8 + i], 0xEE) << "wrote past the destination, length " << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Malformed MPC streams of more than 128 chunks: the decoder splits them
// across cores, and must still throw what the serial decoder throws.
// ---------------------------------------------------------------------------

// 129 chunks of 1024 values; the last chunk holds 3 values, one tile.
constexpr std::size_t kValues = 128 * 1024 + 3;
constexpr std::size_t kHeaderWords = 5;

std::uint32_t word_at(const std::vector<std::uint8_t>& s, std::size_t byte) {
  std::uint32_t w = 0;
  std::memcpy(&w, s.data() + byte, 4);
  return w;
}

void set_word(std::vector<std::uint8_t>& s, std::size_t byte, std::uint32_t w) {
  std::memcpy(s.data() + byte, &w, 4);
}

// Byte offset of the last chunk's first word.
std::size_t last_chunk_at(const std::vector<std::uint8_t>& s) {
  const std::size_t chunks = word_at(s, 16);
  std::size_t at = (kHeaderWords + chunks) * 4;
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    at += word_at(s, (kHeaderWords + c) * 4) * 4;
  }
  return at;
}

// The three corruptions of the last chunk: the stream cut one word short,
// its size entry one word short (the chunk itself truncated), and its one
// tile mask with one bit flipped.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> broken_last_chunks(
    const std::vector<std::uint8_t>& good) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
  const std::size_t chunks = word_at(good, 16);
  const std::size_t entry = (kHeaderWords + chunks - 1) * 4;

  auto cut = good;
  cut.resize(cut.size() - 4);
  out.emplace_back("stream cut short", std::move(cut));

  auto short_entry = good;
  set_word(short_entry, entry, word_at(good, entry) - 1);
  short_entry.resize(short_entry.size() - 4);
  out.emplace_back("last chunk truncated", std::move(short_entry));

  auto bad_mask = good;
  const std::size_t mask_at = last_chunk_at(good);
  bad_mask[mask_at] ^= 0x01;
  out.emplace_back("bad tile mask", std::move(bad_mask));
  return out;
}

// The dynamic type of what `f` throws; void if it returns.
template <class F>
std::type_index thrown_type(F f) {
  try {
    f();
  } catch (const std::exception& e) {
    return typeid(e);
  }
  return typeid(void);
}

TEST(ParallelMpc, MalformedLastChunkThrowsTheSerialTypes) {
  const auto in = gt::make_floats(gt::PayloadKind::SmoothField, kValues, 71);
  const comp::MpcCodec codec(1);
  std::vector<std::uint8_t> good(codec.max_compressed_bytes(in.size()));
  good.resize(codec.compress(in, good));
  ASSERT_GE(codec.chunk_count(kValues), 128u);
  std::vector<float> out(kValues);
  ASSERT_EQ(codec.decompress(good, out), kValues);
  for (const auto& [what, stream] : broken_last_chunks(good)) {
    SCOPED_TRACE(what);
    EXPECT_EQ(thrown_type([&] { codec.decompress(stream, out); }), typeid(std::runtime_error));
    EXPECT_EQ(thrown_type([&] { codec.decompress_portable(stream, out); }),
              typeid(std::runtime_error));
  }
}

// Encoding a stream that splits, then one that does not, then the first
// again reuses the encoder's scratch: every stream must decode to its
// input and the repeat must give the same bytes.
TEST(ParallelMpc, SplitEncodesAreRepeatableAcrossSizes) {
  const comp::MpcCodec codec(2);
  auto encode = [&](const std::vector<float>& v) {
    std::vector<std::uint8_t> s(codec.max_compressed_bytes(v.size()));
    s.resize(codec.compress(v, s));
    return s;
  };
  const auto big = gt::make_floats(gt::PayloadKind::Interleaved, 300 * 1024 + 17, 73);
  const auto small = gt::make_floats(gt::PayloadKind::HighEntropy, 40 * 1024, 74);
  const auto first = encode(big);
  const auto other = encode(small);
  EXPECT_EQ(encode(big), first);
  for (const auto* v : {&big, &small}) {
    std::vector<float> out(v->size());
    ASSERT_EQ(codec.decompress(v == &big ? first : other, out), v->size());
    EXPECT_EQ(std::memcmp(out.data(), v->data(), v->size() * sizeof(float)), 0);
  }
}

}  // namespace
