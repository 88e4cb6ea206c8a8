// Bit-granular stream writer/reader used by SZ and its Huffman coder.
//
// Bits are packed LSB-first into little-endian 64-bit words, matching the
// convention of Lindstrom's zfp bitstream.
//
// Both ends are word-parallel: the writer packs into a 64-bit accumulator
// and emits whole words; the reader keeps a 64-bit refill buffer so
// `get_bits(n)` costs at most two word loads (never n per-bit probes).
// Reading past the end of the buffer yields zero bits, so a decoder may
// peek a fixed window ahead of its last code. A decoder that has consumed
// bits past the end (tell() > bit_size()) read a truncated stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace gcmpi::comp {

class BitWriter {
 public:
  /// Write the low `n` bits of `v` (LSB first), 0 <= n <= 64.
  void put_bits(std::uint64_t v, int n) {
    if (n == 0) return;
    if (n < 0 || n > 64) throw std::invalid_argument("BitWriter::put_bits: bad n");
    if (n < 64) v &= (std::uint64_t{1} << n) - 1;
    accum_ |= v << fill_;
    if (fill_ + n >= 64) {
      words_.push_back(accum_);
      const int rem = fill_ + n - 64;
      accum_ = (fill_ > 0) ? (v >> (64 - fill_)) : 0;
      fill_ = rem;
    } else {
      fill_ += n;
    }
  }

  /// Grow the word buffer up front so a stream of known maximum length
  /// never reallocates mid-encode.
  void reserve_bits(std::size_t bits) { words_.reserve((bits + 63) / 64); }

  /// Finish the stream and return the bytes (padded to a whole word).
  [[nodiscard]] std::vector<std::uint8_t> take() {
    if (fill_ > 0) words_.push_back(accum_);
    std::vector<std::uint8_t> out(words_.size() * 8);
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), words_.data(), out.size());
    } else {
      for (std::size_t i = 0; i < words_.size(); ++i) {
        for (int b = 0; b < 8; ++b) {
          out[i * 8 + static_cast<std::size_t>(b)] =
              static_cast<std::uint8_t>(words_[i] >> (8 * b));
        }
      }
    }
    words_.clear();
    accum_ = 0;
    fill_ = 0;
    return out;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t accum_ = 0;
  int fill_ = 0;  // bits used in accum_
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes), word_idx_(1), buf_(load_word(0)), avail_(64) {}

  /// Read `n` bits LSB-first, 0 <= n <= 64: at most two word loads.
  [[nodiscard]] std::uint64_t get_bits(int n) {
    if (n <= 0) return 0;
    std::uint64_t v;
    if (avail_ >= n) {
      v = (n < 64) ? (buf_ & mask(n)) : buf_;
      buf_ = (n < 64) ? (buf_ >> n) : 0;
      avail_ -= n;
    } else {
      v = buf_;
      const int got = avail_;  // 0..63, < n
      buf_ = load_word(word_idx_++);
      const int need = n - got;  // 1..64
      v |= ((need < 64) ? (buf_ & mask(need)) : buf_) << got;
      buf_ = (need < 64) ? (buf_ >> need) : 0;
      avail_ = 64 - need;
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  /// Next `n` bits (LSB-first, 0 <= n < 64) without consuming them; like
  /// get_bits, positions past the end read as zeros.
  [[nodiscard]] std::uint64_t peek_bits(int n) const {
    if (n <= 0) return 0;
    std::uint64_t v = buf_;
    if (avail_ < n) v |= load_word(word_idx_) << avail_;  // avail_ < n <= 63
    return v & mask(n);
  }

  /// Consume `n` bits previously examined with peek_bits.
  void skip(int n) { (void)get_bits(n); }

  [[nodiscard]] std::size_t tell() const { return pos_; }
  [[nodiscard]] std::size_t bit_size() const { return bytes_.size() * 8; }

 private:
  [[nodiscard]] static constexpr std::uint64_t mask(int n) {  // n in [0, 63]
    return (std::uint64_t{1} << n) - 1;
  }

  /// Little-endian 64-bit word `w` of the buffer; partial tail words and
  /// words past the end are zero-filled.
  [[nodiscard]] std::uint64_t load_word(std::size_t w) const {
    const std::size_t byte = w * 8;
    if (byte >= bytes_.size()) return 0;
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, bytes_.data() + byte, std::min<std::size_t>(8, bytes_.size() - byte));
    } else {
      const std::size_t len = std::min<std::size_t>(8, bytes_.size() - byte);
      for (std::size_t b = 0; b < len; ++b) {
        v |= static_cast<std::uint64_t>(bytes_[byte + b]) << (8 * b);
      }
    }
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;       // logical bit position
  std::size_t word_idx_ = 0;  // next word to load into buf_
  std::uint64_t buf_ = 0;     // unread bits at pos_, LSB first
  int avail_ = 0;             // valid bits in buf_
};

}  // namespace gcmpi::comp
