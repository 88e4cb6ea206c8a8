#include "compress/mpc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "compress/bit_transpose.hpp"
#include "util/parallel.hpp"

namespace gcmpi::comp {

namespace {

constexpr std::uint32_t kMagic = 0x4d504331u;  // "MPC1"

// Header layout (little-endian u32 words):
//   [0] magic  [1] n_values  [2] dimensionality  [3] chunk_values
//   [4] n_chunks  [5 .. 5+n_chunks) compressed words per chunk
// then the chunk payloads back to back, in u32 words. In a chunk, each tile
// of 32 values is one mask word followed by the tile's nonzero transposed
// words in bit order.
constexpr std::size_t kFixedHeaderWords = 5;
constexpr std::size_t kTile = 32;  // values per tile == bits per word

[[nodiscard]] std::uint32_t load(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

/// Map a signed residual so that small magnitudes have small unsigned
/// values (zig-zag). This plays the role of MPC's residual conditioning:
/// it makes the high bit planes of near-predictable data all zero so the
/// transpose + zero-elimination stages can delete them.
[[nodiscard]] std::uint32_t zigzag(std::uint32_t r) {
  return (r << 1) ^ static_cast<std::uint32_t>(static_cast<std::int32_t>(r) >> 31);
}

[[nodiscard]] std::uint32_t unzigzag(std::uint32_t z) { return (z >> 1) ^ (~(z & 1u) + 1u); }

// A chunk routine reads and writes the caller's buffers in place, through
// byte pointers with no alignment assumed. Encoding returns the words it
// wrote; decoding reads at most `in_words` words and throws on a chunk
// that is truncated, has trailing words, or has a mask that promises more
// kept words than remain.
using EncodeChunk = std::size_t (*)(const std::uint8_t* in, std::size_t n, std::size_t d,
                                    std::uint8_t* out);
using DecodeChunk = void (*)(const std::uint8_t* in, std::size_t in_words, std::size_t n,
                             std::size_t d, std::uint8_t* out);

// ---------------------------------------------------------------------------
// Portable path: one tile of 32 values at a time.
// ---------------------------------------------------------------------------

/// Stages 1+2 for the tile at `base`: dimension-stride residual, zig-zag.
/// Values before the chunk predict as 0; tail padding encodes as 0.
void load_residuals(const std::uint8_t* in, std::size_t base, std::size_t n, std::size_t d,
                    std::uint32_t* tile) {
  if (base >= d && base + kTile <= n) {
    // Interior tile: no clamping, no padding, so the loop vectorizes.
    std::uint32_t cur[kTile];
    std::uint32_t prev[kTile];
    std::memcpy(cur, in + base * 4, sizeof cur);
    std::memcpy(prev, in + (base - d) * 4, sizeof prev);
    for (std::size_t j = 0; j < kTile; ++j) tile[j] = zigzag(cur[j] - prev[j]);
    return;
  }
  for (std::size_t j = 0; j < kTile; ++j) {
    const std::size_t i = base + j;
    if (i >= n) {
      tile[j] = 0;
      continue;
    }
    const std::uint32_t prev = i >= d ? load(in + (i - d) * 4) : 0;
    tile[j] = zigzag(load(in + i * 4) - prev);
  }
}

std::size_t encode_chunk_portable(const std::uint8_t* in, std::size_t n, std::size_t d,
                                  std::uint8_t* out) {
  std::size_t words = 0;
  std::uint32_t tile[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    load_residuals(in, base, n, d, tile);
    // All-zero tile (constant or slowly-varying data hits this constantly):
    // the transpose of zero is zero, so the tile is just an empty mask.
    std::uint32_t any = 0;
    for (const std::uint32_t r : tile) any |= r;
    if (any == 0) {
      store(out + 4 * words++, 0);
      continue;
    }
    // Stage 3: bit transpose. Stage 4: zero elimination behind a presence
    // mask; the store loop walks only the mask's set bits.
    bit_transpose32(tile);
    std::uint32_t mask = 0;
    for (std::size_t b = 0; b < kTile; ++b) mask |= static_cast<std::uint32_t>(tile[b] != 0) << b;
    store(out + 4 * words++, mask);
    for (std::uint32_t m = mask; m != 0; m &= m - 1) {
      store(out + 4 * words++, tile[std::countr_zero(m)]);
    }
  }
  return words;
}

void decode_chunk_portable(const std::uint8_t* in, std::size_t in_words, std::size_t n,
                           std::size_t d, std::uint8_t* out) {
  std::size_t pos = 0;
  std::uint32_t last = 0;  // the d = 1 predictor, carried in a register
  std::uint32_t tile[kTile];
  for (std::size_t base = 0; base < n; base += kTile) {
    if (pos >= in_words) throw std::runtime_error("MPC: truncated chunk");
    const std::uint32_t mask = load(in + 4 * pos++);
    const std::size_t count = std::min(kTile, n - base);
    if (mask == 0 && d == 1) {
      // Empty tile: every residual is zero, so each value is its predictor.
      for (std::size_t j = 0; j < count; ++j) store(out + 4 * (base + j), last);
      continue;
    }
    std::fill_n(tile, kTile, 0u);
    if (mask != 0) {
      if (static_cast<std::size_t>(std::popcount(mask)) > in_words - pos) {
        throw std::runtime_error("MPC: tile mask overruns chunk");
      }
      for (std::uint32_t m = mask; m != 0; m &= m - 1) {
        tile[std::countr_zero(m)] = load(in + 4 * pos++);
      }
      bit_transpose32(tile);  // involution: same transpose inverts
    }
    if (d == 1) {
      for (std::size_t j = 0; j < count; ++j) {
        last += unzigzag(tile[j]);
        store(out + 4 * (base + j), last);
      }
    } else {
      for (std::size_t j = 0; j < count; ++j) {
        const std::size_t i = base + j;
        const std::uint32_t prev = i >= d ? load(out + 4 * (i - d)) : 0;
        store(out + 4 * i, unzigzag(tile[j]) + prev);
      }
    }
  }
  if (pos != in_words) throw std::runtime_error("MPC: trailing chunk bytes");
}

// ---------------------------------------------------------------------------
// AVX-512F/BW/VL path (float codec): a 32-value tile is two 16-lane vectors.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

#define GCMPI_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))

// GCC 12 reports -Wmaybe-uninitialized from inside avx512fintrin.h for the
// unmasked shift/shuffle/permute intrinsics (their pass-through operand is
// _mm512_undefined_epi32()); the zero-masking forms with all lanes set
// compile to the same instructions without it.
constexpr __mmask16 kAllLanes = 0xFFFF;

template <unsigned J>
GCMPI_AVX512 inline __m512i shr(__m512i v) {
  return _mm512_maskz_srli_epi32(kAllLanes, v, J);
}

template <unsigned J>
GCMPI_AVX512 inline __m512i shl(__m512i v) {
  return _mm512_maskz_slli_epi32(kAllLanes, v, J);
}

/// Bitwise `sel ? a : b`.
GCMPI_AVX512 inline __m512i select_bits(__m512i sel, __m512i a, __m512i b) {
  return _mm512_ternarylogic_epi32(sel, a, b, 0xCA);
}

/// Level J (8, 4, 2, 1) of bit_transpose32 inside one vector of 16 rows:
/// lane k with bit J of k clear trades bits with lane k + J. With w the
/// vector with those lanes exchanged, low lanes take w << J under M << J
/// and high lanes take w >> J under M.
template <unsigned J, std::uint32_t M>
GCMPI_AVX512 inline __m512i swap_level(__m512i v) {
  constexpr __mmask16 kLow = J == 8 ? 0x00FF : J == 4 ? 0x0F0F : J == 2 ? 0x3333 : 0x5555;
  __m512i w;
  if constexpr (J == 8) {
    w = _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E);
  } else if constexpr (J == 4) {
    w = _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1);
  } else if constexpr (J == 2) {
    w = _mm512_maskz_shuffle_epi32(kAllLanes, v, _MM_PERM_BADC);
  } else {
    w = _mm512_maskz_shuffle_epi32(kAllLanes, v, _MM_PERM_CDAB);
  }
  const __m512i shifted = _mm512_mask_slli_epi32(shr<J>(w), kLow, w, J);
  const __m512i sel = _mm512_mask_blend_epi32(kLow, _mm512_set1_epi32(static_cast<int>(M)),
                                              _mm512_set1_epi32(static_cast<int>(M << J)));
  return select_bits(sel, shifted, v);
}

/// bit_transpose32 of the tile whose rows 0..15 are `lo` and 16..31 `hi`.
GCMPI_AVX512 inline void transpose_tile(__m512i& lo, __m512i& hi) {
  const __m512i low_half = _mm512_set1_epi32(0x0000FFFF);
  const __m512i row_lo = select_bits(low_half, lo, shl<16>(hi));
  hi = select_bits(low_half, shr<16>(lo), hi);
  lo = swap_level<8, 0x00FF00FFu>(row_lo);
  hi = swap_level<8, 0x00FF00FFu>(hi);
  lo = swap_level<4, 0x0F0F0F0Fu>(lo);
  hi = swap_level<4, 0x0F0F0F0Fu>(hi);
  lo = swap_level<2, 0x33333333u>(lo);
  hi = swap_level<2, 0x33333333u>(hi);
  lo = swap_level<1, 0x55555555u>(lo);
  hi = swap_level<1, 0x55555555u>(hi);
}

GCMPI_AVX512 inline __m512i lane_index() {
  return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

/// The lanes of the vector starting at value `first` that hold one of the
/// chunk's `n` values.
GCMPI_AVX512 inline __mmask16 valid_lanes(std::size_t first, std::size_t n) {
  if (first >= n) return 0;
  return n - first >= 16 ? kAllLanes : static_cast<__mmask16>((1u << (n - first)) - 1);
}

/// Zig-zagged residuals of the 16 values `x` (lanes outside `valid` are
/// tail padding and encode as zero); shifts `x` into the history.
/// Lane j predicts from value j - d of this vector: index 16 + j - d of
/// [back1 | x] when d <= 16, index 32 + j - d of [back2 | back1] above.
GCMPI_AVX512 inline __m512i residuals(__m512i x, __mmask16 valid, bool near, __m512i pred_idx,
                                      __m512i& back2, __m512i& back1) {
  const __m512i pred = near ? _mm512_permutex2var_epi32(back1, pred_idx, x)
                            : _mm512_permutex2var_epi32(back2, pred_idx, back1);
  back2 = back1;
  back1 = x;
  const __m512i r = _mm512_maskz_sub_epi32(valid, x, pred);
  return _mm512_xor_si512(shl<1>(r), _mm512_maskz_srai_epi32(kAllLanes, r, 31));
}

/// Zero elimination of one 16-word vector: stores its nonzero words.
GCMPI_AVX512 inline std::size_t store_kept(std::uint8_t* out, std::size_t words, __m512i v,
                                           __mmask16 keep) {
  const int kept = std::popcount(static_cast<unsigned>(keep));
  _mm512_mask_storeu_epi32(out + 4 * words, static_cast<__mmask16>((1u << kept) - 1),
                           _mm512_maskz_compress_epi32(keep, v));
  return words + static_cast<std::size_t>(kept);
}

GCMPI_AVX512 std::size_t encode_chunk_avx512(const std::uint8_t* in, std::size_t n, std::size_t d,
                                             std::uint8_t* out) {
  const bool near = d <= 16;
  const __m512i pred_idx =
      _mm512_add_epi32(lane_index(), _mm512_set1_epi32(static_cast<int>((near ? 16 : 32) - d)));
  // The history starts at zero: values before the chunk predict as 0.
  __m512i back2 = _mm512_setzero_si512();
  __m512i back1 = _mm512_setzero_si512();
  std::size_t words = 0;
  for (std::size_t base = 0; base < n; base += 32) {
    const __mmask16 valid_lo = valid_lanes(base, n);
    const __mmask16 valid_hi = valid_lanes(base + 16, n);
    const __m512i x_lo = _mm512_maskz_loadu_epi32(valid_lo, in + 4 * base);
    const __m512i x_hi = valid_hi == 0 ? _mm512_setzero_si512()
                                       : _mm512_maskz_loadu_epi32(valid_hi, in + 4 * base + 64);
    __m512i lo = residuals(x_lo, valid_lo, near, pred_idx, back2, back1);
    __m512i hi = residuals(x_hi, valid_hi, near, pred_idx, back2, back1);
    const __m512i any = _mm512_or_si512(lo, hi);
    if (_mm512_test_epi32_mask(any, any) == 0) {
      store(out + 4 * words++, 0);
      continue;
    }
    transpose_tile(lo, hi);
    const __mmask16 keep_lo = _mm512_test_epi32_mask(lo, lo);
    const __mmask16 keep_hi = _mm512_test_epi32_mask(hi, hi);
    store(out + 4 * words++, keep_lo | static_cast<std::uint32_t>(keep_hi) << 16);
    words = store_kept(out, words, lo, keep_lo);
    words = store_kept(out, words, hi, keep_hi);
  }
  return words;
}

GCMPI_AVX512 void decode_chunk_avx512(const std::uint8_t* in, std::size_t in_words, std::size_t n,
                                      std::size_t d, std::uint8_t* out) {
  // Value i is its residual plus value i - d. Inside a vector, a prefix
  // sum strided by d (shifts d, 2d, 4d, 8d below 16) adds the residuals of
  // lanes j, j - d, j - 2d, ...; the carry adds the decoded value that
  // precedes the vector: lane 16 - d + (j mod d) of the previous vector
  // for d < 16, or value i - d itself for d >= 16. Both are index
  // 32 - d + (d < 16 ? j mod d : j) of [back2 | back1].
  alignas(64) std::int32_t carry[16];
  for (std::size_t j = 0, r = 0; j < 16; ++j, r = r + 1 == d ? 0 : r + 1) {
    carry[j] = static_cast<std::int32_t>(32 - d + (d < 16 ? r : j));
  }
  const __m512i carry_idx = _mm512_load_si512(carry);
  __m512i step_idx[4];
  __mmask16 step_lanes[4];
  int steps = 0;
  for (std::size_t s = d; s < 16; s *= 2, ++steps) {
    step_idx[steps] = _mm512_sub_epi32(lane_index(), _mm512_set1_epi32(static_cast<int>(s)));
    step_lanes[steps] = static_cast<__mmask16>(kAllLanes << s);
  }
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i zero = _mm512_setzero_si512();
  __m512i back2 = zero;
  __m512i back1 = zero;
  std::size_t pos = 0;
  for (std::size_t base = 0; base < n; base += 32) {
    if (pos >= in_words) throw std::runtime_error("MPC: truncated chunk");
    const std::uint32_t mask = load(in + 4 * pos++);
    __m512i r[2] = {zero, zero};
    if (mask != 0) {
      const auto kept = static_cast<std::size_t>(std::popcount(mask));
      if (kept > in_words - pos) throw std::runtime_error("MPC: tile mask overruns chunk");
      const auto mask_lo = static_cast<__mmask16>(mask);
      const auto mask_hi = static_cast<__mmask16>(mask >> 16);
      r[0] = _mm512_maskz_expandloadu_epi32(mask_lo, in + 4 * pos);
      r[1] = _mm512_maskz_expandloadu_epi32(
          mask_hi, in + 4 * (pos + static_cast<std::size_t>(std::popcount(mask & 0xFFFFu))));
      pos += kept;
      transpose_tile(r[0], r[1]);
      for (__m512i& v : r) {
        // Un-zig-zag: (z >> 1) ^ -(z & 1).
        v = _mm512_xor_si512(shr<1>(v), _mm512_sub_epi32(zero, _mm512_and_si512(v, one)));
        for (int s = 0; s < steps; ++s) {
          v = _mm512_add_epi32(v, _mm512_maskz_permutexvar_epi32(step_lanes[s], step_idx[s], v));
        }
      }
    }
    // An empty tile decodes to the carries alone: for d = 1 a broadcast of
    // the last value.
    for (int h = 0; h < 2; ++h) {
      const __m512i x = _mm512_add_epi32(r[h], _mm512_permutex2var_epi32(back2, carry_idx, back1));
      back2 = back1;
      back1 = x;
      const __mmask16 valid = valid_lanes(base + 16 * static_cast<std::size_t>(h), n);
      if (valid != 0) _mm512_mask_storeu_epi32(out + 4 * base + 64 * h, valid, x);
    }
  }
  if (pos != in_words) throw std::runtime_error("MPC: trailing chunk bytes");
}

#undef GCMPI_AVX512

#endif  // __x86_64__

// ---------------------------------------------------------------------------
// Stream layer: header, size table and the chunk loop, shared by both paths.
// ---------------------------------------------------------------------------

// From kSplitChunks chunks on, a stream's chunks are encoded and decoded on
// the parallel pool in ranges of kRangeChunks; a shorter stream is one range.
constexpr std::size_t kSplitChunks = 128;
constexpr std::size_t kRangeChunks = 32;

std::size_t range_chunks(std::size_t chunks) {
  return chunks < kSplitChunks ? std::max<std::size_t>(chunks, 1) : kRangeChunks;
}

// Per-thread scratch of `count` T, grown to the largest request so far and
// kept across calls; only the elements a caller writes are touched. The
// encoder puts the ranges after the first in uint8_t scratch before they
// are copied into place, a folding decoder each chunk in float scratch.
template <class T>
T* thread_scratch(std::size_t count) {
  thread_local std::unique_ptr<T[]> buf;
  thread_local std::size_t capacity = 0;
  if (count > capacity) {
    buf.reset();
    buf = std::make_unique_for_overwrite<T[]>(count);
    capacity = count;
  }
  return buf.get();
}

std::size_t encode_stream(const MpcCodec& codec, EncodeChunk encode, std::span<const float> values,
                          std::span<std::uint8_t> stream) {
  if (stream.size() < codec.max_compressed_bytes(values.size())) {
    throw std::invalid_argument("MpcCodec::compress: output buffer too small");
  }
  const auto* in = reinterpret_cast<const std::uint8_t*>(values.data());
  const std::size_t n = values.size();
  const std::size_t chunk = codec.chunk_values();
  const std::size_t chunks = codec.chunk_count(n);
  std::uint8_t* const out = stream.data();
  store(out + 0, kMagic);
  store(out + 4, static_cast<std::uint32_t>(n));
  store(out + 8, static_cast<std::uint32_t>(codec.dimensionality()));
  store(out + 12, static_cast<std::uint32_t>(chunk));
  store(out + 16, static_cast<std::uint32_t>(chunks));
  std::uint8_t* size_table = out + kFixedHeaderWords * 4;
  std::uint8_t* payload = size_table + chunks * 4;

  // Range 0 is encoded straight into `out`, every later range into its own
  // scratch slot sized for its worst case; the slots are then copied into
  // place behind range 0, in order.
  const std::size_t per_range = range_chunks(chunks);
  const std::size_t ranges = (chunks + per_range - 1) / per_range;
  const std::size_t slot = per_range * ((chunk + kTile - 1) / kTile) * (kTile + 1) * 4;
  std::uint8_t* scratch =
      ranges > 1 ? thread_scratch<std::uint8_t>((ranges - 1) * slot) : nullptr;
  const auto slot_of = [&](std::size_t r) { return r == 0 ? payload : scratch + (r - 1) * slot; };
  std::vector<std::size_t> range_bytes(ranges);
  util::parallel_for(chunks, per_range, [&](std::size_t first, std::size_t last) {
    std::uint8_t* const dst = slot_of(first / per_range);
    std::uint8_t* p = dst;
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t begin = c * chunk;
      const std::size_t words =
          encode(in + begin * 4, std::min(chunk, n - begin),
                 static_cast<std::size_t>(codec.dimensionality()), p);
      store(size_table + c * 4, static_cast<std::uint32_t>(words));
      p += words * 4;
    }
    range_bytes[first / per_range] = static_cast<std::size_t>(p - dst);
  });
  std::vector<std::uint8_t*> at(ranges + 1, payload);
  for (std::size_t r = 0; r < ranges; ++r) at[r + 1] = at[r] + range_bytes[r];
  util::parallel_for(ranges, 1, [&](std::size_t first, std::size_t last) {
    for (std::size_t r = std::max<std::size_t>(first, 1); r < last; ++r) {
      std::memcpy(at[r], slot_of(r), range_bytes[r]);
    }
  });
  return static_cast<std::size_t>(at[ranges] - out);
}

std::size_t decode_stream(DecodeChunk decode, std::span<const std::uint8_t> in,
                          std::span<float> values, std::optional<ReduceOp> fold) {
  if (in.size() < kFixedHeaderWords * 4) throw std::invalid_argument("MpcCodec: truncated input");
  const std::uint8_t* base = in.data();
  if (load(base) != kMagic) throw std::invalid_argument("MpcCodec: bad magic");
  const std::size_t n = load(base + 4);
  const std::size_t dim = load(base + 8);
  const std::size_t chunk = load(base + 12);
  const std::size_t chunks = load(base + 16);
  if (dim < 1 || dim > kTile || chunk == 0 || chunk % kTile != 0) {
    throw std::invalid_argument("MpcCodec: corrupt header");
  }
  // Also for n == 0: a chunk count the values do not need would decode
  // chunks past the end of `out`.
  if (chunks != (n + chunk - 1) / chunk) {
    throw std::invalid_argument("MpcCodec: inconsistent chunk count");
  }
  if (values.size() < n) throw std::invalid_argument("MpcCodec::decompress: output too small");
  const std::size_t table_bytes = (kFixedHeaderWords + chunks) * 4;
  if (in.size() < table_bytes) throw std::invalid_argument("MpcCodec: truncated size table");

  // The whole size table is checked against the payload, and each range's
  // first word found, before any chunk decodes.
  const std::uint8_t* size_table = base + kFixedHeaderWords * 4;
  const std::uint8_t* payload = base + table_bytes;
  auto* out = reinterpret_cast<std::uint8_t*>(values.data());
  const std::size_t per_range = range_chunks(chunks);
  std::vector<std::size_t> range_word((chunks + per_range - 1) / per_range);
  std::size_t words_left = (in.size() - table_bytes) / 4;
  for (std::size_t c = 0, word = 0; c < chunks; ++c) {
    if (c % per_range == 0) range_word[c / per_range] = word;
    const std::size_t words = load(size_table + c * 4);
    if (words > words_left) throw std::runtime_error("MpcCodec: truncated payload");
    words_left -= words;
    word += words;
  }
  util::parallel_for(chunks, per_range, [&](std::size_t first, std::size_t last) {
    const std::uint8_t* p = payload + range_word[first / per_range] * 4;
    float* decoded = fold ? thread_scratch<float>(std::min(chunk, n)) : nullptr;
    for (std::size_t c = first; c < last; ++c) {
      const std::size_t words = load(size_table + c * 4);
      const std::size_t begin = c * chunk;
      const std::size_t count = std::min(chunk, n - begin);
      if (fold) {
        decode(p, words, count, dim, reinterpret_cast<std::uint8_t*>(decoded));
        reduce_inplace(values.data() + begin, decoded, count, *fold);
      } else {
        decode(p, words, count, dim, out + begin * 4);
      }
      p += words * 4;
    }
  });
  return n;
}

// ---------------------------------------------------------------------------
// Path selection: once, at the first call.
// ---------------------------------------------------------------------------

struct ChunkPath {
  EncodeChunk encode;
  DecodeChunk decode;
};

constexpr ChunkPath kPortable{encode_chunk_portable, decode_chunk_portable};

ChunkPath select_path() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return {encode_chunk_avx512, decode_chunk_avx512};
  }
#endif
  return kPortable;
}

const ChunkPath& dispatched() {
  static const ChunkPath path = select_path();
  return path;
}

}  // namespace

MpcCodec::MpcCodec(int dimensionality, std::size_t chunk_values)
    : dim_(dimensionality), chunk_(chunk_values) {
  if (dim_ < 1 || dim_ > 32) throw std::invalid_argument("MpcCodec: dimensionality must be 1..32");
  if (chunk_ == 0 || chunk_ % 32 != 0) {
    throw std::invalid_argument("MpcCodec: chunk_values must be a positive multiple of 32");
  }
}

std::size_t MpcCodec::max_compressed_bytes(std::size_t n_values) const {
  const std::size_t chunks = n_values == 0 ? 0 : chunk_count(n_values);
  // Each 32-value tile costs at most 1 mask word + 32 payload words, and a
  // partial tail tile in every chunk still pays the full 33 words.
  const std::size_t tiles = (n_values + 31) / 32 + chunks;
  return (kFixedHeaderWords + chunks + 33 * tiles) * 4;
}

std::size_t MpcCodec::compress(std::span<const float> in, std::span<std::uint8_t> out) const {
  return encode_stream(*this, dispatched().encode, in, out);
}

std::size_t MpcCodec::compress_portable(std::span<const float> in,
                                        std::span<std::uint8_t> out) const {
  return encode_stream(*this, kPortable.encode, in, out);
}

std::size_t MpcCodec::encoded_values(std::span<const std::uint8_t> in) {
  if (in.size() < kFixedHeaderWords * 4 || load(in.data()) != kMagic) {
    throw std::invalid_argument("MpcCodec: bad header");
  }
  return load(in.data() + 4);
}

std::size_t MpcCodec::decompress(std::span<const std::uint8_t> in, std::span<float> out,
                                 std::optional<ReduceOp> fold) const {
  return decode_stream(dispatched().decode, in, out, fold);
}

std::size_t MpcCodec::decompress_portable(std::span<const std::uint8_t> in, std::span<float> out,
                                          std::optional<ReduceOp> fold) const {
  return decode_stream(kPortable.decode, in, out, fold);
}

}  // namespace gcmpi::comp
