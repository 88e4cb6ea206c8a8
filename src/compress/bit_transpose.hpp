// In-place bit-matrix transpose for MPC's tile stage.
//
// Convention: row r of the matrix is word a[r], and bit c (LSB-first) of
// that word is column c, i.e. M[r][c] = (a[r] >> c) & 1. The transpose
// satisfies M'[r][c] = M[c][r] — exactly the "out[b] collects bit b of
// in[0..N)" layout MPC's zero-elimination stage expects.
//
// The implementation is the Hacker's Delight recursive block swap
// (Sec. 7-3), mirrored for LSB-first bit order: at level J (N/2, ..., 2, 1)
// the rows with bit J clear trade their J-bit column blocks selected by the
// level mask with the rows J further on, using a mask/shift/xor exchange.
// Each level is its own fixed-stride loop with a constant shift and mask,
// which the compiler unrolls to straight-line code: log2(N) levels of N/2
// exchanges replace the naive N*N double loop (the 32x32 tile runs them on
// 64-bit words, 48 exchanges instead of 5 x 16). The transpose is an
// involution: applying it twice is the identity, which is what lets MPC
// decompression reuse the forward transpose.
#pragma once

#include <cstdint>
#include <cstring>

namespace gcmpi::comp {

namespace detail {

/// One block-swap level over 16 words: for every word k with bit S of k
/// clear, words k and k + S exchange the bits selected by M (in k + S) and
/// M << J (in k).
template <int S, int J, std::uint64_t M>
inline void swap_blocks(std::uint64_t* a) {
#pragma GCC unroll 16
  for (int row = 0; row < 16; row += 2 * S) {
#pragma GCC unroll 16
    for (int k = row; k < row + S; ++k) {
      const std::uint64_t t = ((a[k] >> J) ^ a[k + S]) & M;
      a[k] ^= t << J;
      a[k + S] ^= t;
    }
  }
}

}  // namespace detail

/// Transpose a 32x32 bit matrix in place.
///
/// Rows 2p and 2p + 1 share one 64-bit word (row 2p in the low half), so
/// levels 16 to 2 exchange two row pairs per word operation — the masks
/// keep zeros in the top J bits of each half, so nothing crosses halves —
/// and level 1, which pairs the two rows of a word, is a delta swap by 31
/// inside each word: 64 exchanges of the 32-bit form become 48.
inline void bit_transpose32(std::uint32_t a[32]) {
  using W = std::uint64_t;
  W w[16];
  std::memcpy(w, a, sizeof w);
  detail::swap_blocks<8, 16, 0x0000FFFF0000FFFFull>(w);
  detail::swap_blocks<4, 8, 0x00FF00FF00FF00FFull>(w);
  detail::swap_blocks<2, 4, 0x0F0F0F0F0F0F0F0Full>(w);
  detail::swap_blocks<1, 2, 0x3333333333333333ull>(w);
#pragma GCC unroll 16
  for (W& x : w) {
    const W t = ((x >> 31) ^ x) & 0x00000000AAAAAAAAull;
    x ^= t ^ (t << 31);
  }
  std::memcpy(a, w, sizeof w);
}

}  // namespace gcmpi::comp
