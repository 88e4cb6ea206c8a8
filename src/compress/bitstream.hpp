// Bit-granular stream writer/reader used by the generic ZFP block coder
// (2D/3D and the variable-rate modes), SZ and the Huffman coder.
//
// Bits are packed LSB-first into little-endian 64-bit words, matching the
// convention of Lindstrom's zfp bitstream. The reader supports absolute
// seeks so fixed-rate blocks (each exactly `maxbits` long) can be skipped
// to independently of how many bits the previous block consumed.
//
// Both ends are word-parallel: the writer packs into a 64-bit accumulator
// and emits whole words; the reader keeps a 64-bit refill buffer so
// `get_bits(n)` costs at most two word loads (never n per-bit probes).
// Reading past the end of the buffer yields zero bits, so a decoder may
// peek a fixed window ahead of the final block.
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
  void put_bit(std::uint32_t bit) {
    accum_ |= static_cast<std::uint64_t>(bit & 1u) << fill_;
    if (++fill_ == 64) flush_word();
  }

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

  /// Pad with zero bits until the stream is exactly `bits` long. Whole
  /// zero words are appended directly instead of being shifted through the
  /// accumulator bit by bit.
  void pad_to(std::size_t bits) {
    if (bits < bit_size()) throw std::invalid_argument("BitWriter::pad_to: shrinking");
    std::size_t todo = bits - bit_size();
    if (fill_ > 0) {
      const int align = static_cast<int>(
          std::min<std::size_t>(static_cast<std::size_t>(64 - fill_), todo));
      todo -= static_cast<std::size_t>(align);
      fill_ += align;
      if (fill_ == 64) flush_word();
    }
    if (todo == 0) return;
    words_.resize(words_.size() + todo / 64, 0);  // accum_ is zero here
    fill_ = static_cast<int>(todo % 64);
  }

  /// Grow the word buffer up front so a stream of known maximum length
  /// never reallocates mid-encode.
  void reserve_bits(std::size_t bits) { words_.reserve((bits + 63) / 64); }

  [[nodiscard]] std::size_t bit_size() const {
    return words_.size() * 64 + static_cast<std::size_t>(fill_);
  }

  /// Finish the stream and return the bytes (padded to a whole word).
  [[nodiscard]] std::vector<std::uint8_t> take() {
    if (fill_ > 0) flush_word();
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
  void flush_word() {
    words_.push_back(accum_);
    accum_ = 0;
    fill_ = 0;
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t accum_ = 0;
  int fill_ = 0;  // bits used in accum_
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) { seek(0); }

  [[nodiscard]] std::uint32_t get_bit() {
    if (avail_ == 0) {
      buf_ = load_word(word_idx_++);
      avail_ = 64;
    }
    const auto bit = static_cast<std::uint32_t>(buf_ & 1u);
    buf_ >>= 1;
    --avail_;
    ++pos_;
    return bit;
  }

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

  /// Absolute reposition; refills the accumulator from the target word.
  void seek(std::size_t bit_pos) {
    pos_ = bit_pos;
    word_idx_ = bit_pos / 64;
    const int used = static_cast<int>(bit_pos % 64);
    buf_ = load_word(word_idx_++) >> used;
    avail_ = 64 - used;
  }

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
