#include "compress/zfp.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/parallel.hpp"

#if defined(__x86_64__)
// GCC 12 reports -Wmaybe-uninitialized inside the AVX-512 intrinsic headers:
// their unmasked forms pass an undefined vector through as the merge source.
// The report is about the header's own code, so it is silenced there only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace gcmpi::comp {

namespace {

constexpr int kIntPrec = 32;      // bit planes per coefficient
constexpr int kEmaxBias = 150;    // covers float exponents incl. denormals
constexpr int kEmaxBits = 9;

// The lifting transforms rely on two's-complement wrap-around: truncated
// bit planes can push reconstructed coefficients past INT32 range, and the
// inverse transform must wrap exactly like the forward one so the lossless
// path stays bit-exact. Route +/-/<< through uint32 to keep that defined.
[[nodiscard]] std::int32_t wadd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] std::int32_t wsub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}
[[nodiscard]] std::int32_t wshl1(std::int32_t a) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) << 1);
}

/// zfp forward lifting transform over the 4 values of a block.
void fwd_lift(std::int32_t* p) {
  std::int32_t x = p[0], y = p[1], z = p[2], w = p[3];
  x = wadd(x, w); x >>= 1; w = wsub(w, x);
  z = wadd(z, y); z >>= 1; y = wsub(y, z);
  x = wadd(x, z); x >>= 1; z = wsub(z, x);
  w = wadd(w, y); w >>= 1; y = wsub(y, w);
  w = wadd(w, y >> 1); y = wsub(y, w >> 1);
  p[0] = x; p[1] = y; p[2] = z; p[3] = w;
}

/// Exact inverse of fwd_lift.
void inv_lift(std::int32_t* p) {
  std::int32_t x = p[0], y = p[1], z = p[2], w = p[3];
  y = wadd(y, w >> 1); w = wsub(w, y >> 1);
  y = wadd(y, w); w = wshl1(w); w = wsub(w, y);
  z = wadd(z, x); x = wshl1(x); x = wsub(x, z);
  y = wadd(y, z); z = wshl1(z); z = wsub(z, y);
  w = wadd(w, x); x = wshl1(x); x = wsub(x, w);
  p[0] = x; p[1] = y; p[2] = z; p[3] = w;
}

// Block floating point, on the float bits. A block's exponent is frexp's
// exponent of its largest finite magnitude (fmax = m * 2^emax, 0.5 <= m < 1),
// and each value is quantized to (int32)(f * 2^(30 - emax)): two guard bits,
// so |q| < 2^30. Both are integer operations on the bits; the truncating
// shift of the mantissa equals the double-precision multiply and cast.
constexpr std::uint32_t kAbsMask = 0x7FFFFFFFu;
constexpr std::uint32_t kInfBits = 0x7F800000u;
constexpr std::uint32_t kMantMask = 0x007FFFFFu;
constexpr int kQuantShift = kIntPrec - 2;

/// |f| as bits, or 0 when f is an infinity or a NaN.
[[nodiscard]] inline std::uint32_t finite_abs(std::uint32_t bits) {
  const std::uint32_t a = bits & kAbsMask;
  return a < kInfBits ? a : 0;
}

/// frexp's exponent of the positive finite float whose bits are `a`.
[[nodiscard]] inline int exponent_of(std::uint32_t a) {
  const int e = static_cast<int>(a >> 23);
  return e != 0 ? e - 126 : -117 - std::countl_zero(a);  // denormal: 2^-149 * a
}

/// (int32)(f * 2^(30 - emax)) for the float with bits `bits`, where emax is
/// at least f's exponent; 0 for infinities and NaNs. |f| = m * 2^(e - 150)
/// with e the biased exponent (1 for denormals), so q = m shifted by
/// e - 120 - emax, truncated toward zero like the cast.
[[nodiscard]] inline std::int32_t quantize(std::uint32_t bits, int emax) {
  const std::uint32_t a = bits & kAbsMask;
  if (a >= kInfBits) return 0;
  const std::uint32_t e = a >> 23;
  const std::uint32_t m = (a & kMantMask) | (e != 0 ? kMantMask + 1 : 0u);
  const int s = static_cast<int>(std::max(e, 1u)) - 120 - emax;
  const std::uint32_t q = s >= 0 ? m << s : (s > -32 ? m >> -s : 0u);
  return static_cast<std::int32_t>((bits >> 31) != 0 ? 0u - q : q);
}

/// 2^(emax - 30) as a double, built from its bits; every 9-bit header
/// exponent gives a normal double.
[[nodiscard]] inline double dequantize_scale(int emax) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(emax - kQuantShift + 1023) << 52);
}

/// The inverse of quantize: one exact double product, one rounding to float.
[[nodiscard]] inline float dequantize(std::int32_t q, double scale) {
  return static_cast<float>(static_cast<double>(q) * scale);
}

[[nodiscard]] std::uint32_t int_to_negabinary(std::int32_t x) {
  const std::uint32_t mask = 0xAAAAAAAAu;
  return (static_cast<std::uint32_t>(x) + mask) ^ mask;
}

[[nodiscard]] std::int32_t negabinary_to_int(std::uint32_t x) {
  const std::uint32_t mask = 0xAAAAAAAAu;
  return static_cast<std::int32_t>((x ^ mask) - mask);
}

// ---------------------------------------------------------------------------
// The fixed-rate 1D coder. Block i is the 4*rate bits at bit offset
// 4*rate*i, so every block is coded on its own, straight into `out` and
// straight out of `in`.
// ---------------------------------------------------------------------------

constexpr int kHeaderBits = 1 + kEmaxBits;

// The plane coder. With n values already significant, a plane of a 4-value
// block codes as its n low bits verbatim, then group tests and unary runs
// over the rest. Rows n = 3 and n = 4 code alike (the fourth bit is the
// group bit or a verbatim bit, 4 bits either way), so both tables keep n
// clamped at 3.

/// Encoder entry for plane bits `x` with `n` values significant, untruncated:
/// code | length << 8 | new n << 16. A fixed-rate block is a prefix of its
/// untruncated plane codes, so the encoder concatenates planes and cuts once.
constexpr std::uint32_t encode_plane(std::uint32_t n, std::uint32_t x) {
  std::uint32_t code = x & ((1u << n) - 1u);
  std::uint32_t len = n;
  x >>= n;
  while (n < 4) {
    const std::uint32_t group = x != 0 ? 1u : 0u;
    code |= group << len++;
    if (group == 0) break;
    for (; n < 3; x >>= 1, ++n) {  // zeros up to the next significant value
      code |= (x & 1u) << len++;
      if ((x & 1u) != 0) break;
    }
    x >>= 1;
    ++n;
  }
  return code | len << 8 | std::min(n, 3u) << 16;
}

// The decoder reads up to kWindow bits per lookup: every whole plane they
// hold, or, once fewer bits than that are left in the block, every plane
// to the end of its budget.
constexpr std::uint32_t kWindow = 8;

/// Decoder entry for the `width` next bits `w` (width < kWindow: the rest
/// of the block) with `n` values significant: four 8-bit columns, value i's
/// bits of the decoded planes with the first plane highest, then bits used
/// << 32, planes << 36 and new n << 41. A plane that runs out of budget is
/// clipped with its significance bit implied.
constexpr std::uint64_t decode_planes(std::uint32_t n, std::uint32_t width, std::uint32_t w) {
  std::uint64_t columns = 0;
  std::uint32_t used = 0;
  std::uint32_t planes = 0;
  while (used < width) {
    std::uint32_t budget = width - used;
    std::uint32_t at = used;
    std::uint32_t m = n;
    const std::uint32_t verbatim = std::min(m, budget);
    std::uint32_t x = (w >> at) & ((1u << verbatim) - 1u);
    at += verbatim;
    budget -= verbatim;
    bool cut = verbatim < m;  // the budget ended before the plane did
    while (!cut && m < 4) {
      if (budget == 0) {
        cut = true;
        break;
      }
      --budget;
      if (((w >> at++) & 1u) == 0) break;  // group test: rest of the plane is 0
      while (m < 3) {
        if (budget == 0) {
          cut = true;
          break;
        }
        --budget;
        if (((w >> at++) & 1u) != 0) break;
        ++m;
      }
      x += 1u << m++;
    }
    if (cut && width == kWindow) break;  // the plane goes on past the window
    columns <<= 1;
    for (std::uint32_t i = 0; i < 4; ++i) {
      columns |= static_cast<std::uint64_t>((x >> i) & 1u) << (8 * i);
    }
    ++planes;
    used = at;
    n = std::min(m, 3u);
  }
  return columns | static_cast<std::uint64_t>(used) << 32 |
         static_cast<std::uint64_t>(planes) << 36 | static_cast<std::uint64_t>(n) << 41;
}

// Index n * 16 + plane bits.
constexpr auto kEncodePlane = [] {
  std::array<std::uint32_t, 64> t{};
  for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = encode_plane(i >> 4, i & 15u);
  return t;
}();

// Index n << 9 | 1 << width | next `width` bits, width = min(bits left,
// kWindow): the leading 1 tells the widths apart.
constexpr auto kDecodePlanes = [] {
  std::array<std::uint64_t, 4u << (kWindow + 1)> t{};
  for (std::uint32_t i = 0; i < t.size(); ++i) {
    const std::uint32_t low = i & ((2u << kWindow) - 1u);
    if (low == 0) continue;
    const auto width = static_cast<std::uint32_t>(std::bit_width(low)) - 1u;
    t[i] = decode_planes(i >> (kWindow + 1), width, low & ((1u << width) - 1u));
  }
  return t;
}();

constexpr std::uint32_t kDecodeN = 3u << (kWindow + 1);  // entry >> 32: the new-n field

/// The low `n` bits of v, 0 <= n <= 64.
[[nodiscard]] inline std::uint64_t low_bits(std::uint64_t v, int n) {
  return n >= 64 ? v : v & ((std::uint64_t{1} << n) - 1u);
}

[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// The word at byte `at` of in[0, size); bytes past the end read as zero.
[[nodiscard]] inline std::uint64_t word_at(const std::uint8_t* in, std::size_t size,
                                           std::size_t at) {
  if (at + 8 <= size) return load_le64(in + at);
  std::uint8_t tail[8] = {};
  if (at < size) std::memcpy(tail, in + at, size - at);
  return load_le64(tail);
}

/// One block's code, LSB first; `hi` is used only when 4 * rate > 64.
struct BlockCode {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Four 32-bit values as two words of four 16-bit lanes: lane i of `hi`
/// holds bits 31..16 of value i, lane i of `lo` bits 15..0. A bit plane is
/// then one shift, one mask and one multiply away (the encoder's nibbles).
struct Planes {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

constexpr std::uint64_t kLaneBit0 = 0x0001000100010001ull;
constexpr std::uint64_t kLanesToNibble = 0x0001000200040008ull;  // lane bits -> bits 48..51

[[nodiscard]] inline std::uint32_t plane_bits(const Planes& p, int k) {
  const std::uint64_t w = (k >= 16 ? p.hi : p.lo) >> (k & 15);
  return static_cast<std::uint32_t>(((w & kLaneBit0) * kLanesToNibble) >> 48);
}

/// Encode one 4-value block into its 4 * rate bits. `Wide` is rate > 16.
template <bool Wide>
[[nodiscard]] BlockCode encode_fixed_block(const float* f, int rate) {
  std::uint32_t bits[4];
  std::memcpy(bits, f, sizeof bits);
  const std::uint32_t max_abs = std::max(std::max(finite_abs(bits[0]), finite_abs(bits[1])),
                                         std::max(finite_abs(bits[2]), finite_abs(bits[3])));
  if (max_abs == 0) return {};  // all-zero block: a 0 flag and padding
  const int emax = exponent_of(max_abs);
  std::int32_t q[4];
  for (int i = 0; i < 4; ++i) q[i] = quantize(bits[i], emax);
  fwd_lift(q);
  Planes p;
  std::uint32_t any = 0;
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t u = int_to_negabinary(q[i]);
    any |= u;
    p.hi |= static_cast<std::uint64_t>(u >> 16) << (16 * i);
    p.lo |= static_cast<std::uint64_t>(u & 0xFFFFu) << (16 * i);
  }

  BlockCode c{1u | static_cast<std::uint64_t>(emax + kEmaxBias) << 1, 0};
  const int total = 4 * rate;
  // Each leading empty plane codes as one 0 group bit.
  int len = kHeaderBits + std::countl_zero(any);
  std::uint32_t n = 0;
  for (int k = 31 - std::countl_zero(any); k >= 0 && len < total; --k) {
    const std::uint32_t e = kEncodePlane[n << 4 | plane_bits(p, k)];
    const std::uint64_t code = e & 0xFFu;
    if (len < 64) c.lo |= code << len;
    if constexpr (Wide) {
      if (len > 56) c.hi |= len < 64 ? code >> (64 - len) : code << (len - 64);
    }
    len += static_cast<int>((e >> 8) & 15u);
    n = e >> 16;
  }
  if constexpr (Wide) {
    c.hi = low_bits(c.hi, total - 64);
  } else {
    c.lo = low_bits(c.lo, total);
  }
  return c;
}

/// Bits 0, 2, 4, ... of x, packed.
[[nodiscard]] inline std::uint32_t even_bits(std::uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0F0F0F0F0F0F0F0Full;
  x = (x | (x >> 4)) & 0x00FF00FF00FF00FFull;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFull;
  return static_cast<std::uint32_t>(x | (x >> 16));
}

[[nodiscard]] inline std::uint32_t reverse_bits(std::uint32_t x) {
  x = __builtin_bswap32(x);
  x = ((x & 0x0F0F0F0Fu) << 4) | ((x >> 4) & 0x0F0F0F0Fu);
  x = ((x & 0x33333333u) << 2) | ((x >> 2) & 0x33333333u);
  return ((x & 0x55555555u) << 1) | ((x >> 1) & 0x55555555u);
}

/// Decode one block's code into 4 floats.
template <bool Wide>
void decode_fixed_block(BlockCode c, int rate, float* out) {
  if ((c.lo & 1u) == 0) {
    std::fill_n(out, 4, 0.0f);
    return;
  }
  const int emax = static_cast<int>((c.lo >> 1) & ((1u << kEmaxBits) - 1u)) - kEmaxBias;
  // Drop the header, then the leading empty planes (one 0 bit each while
  // no value is significant) in one shift.
  const auto shift_right = [&c](int s) {  // 0 < s < 64
    c.lo = (c.lo >> s) | (Wide ? c.hi << (64 - s) : 0);
    if constexpr (Wide) c.hi >>= s;
  };
  shift_right(kHeaderBits);
  int left = 4 * rate - kHeaderBits;
  const int zeros = (Wide && c.lo == 0) ? 64 + std::countr_zero(c.hi) : std::countr_zero(c.lo);
  const int skip = std::min({zeros, left, kIntPrec});
  if (skip > 0) shift_right(skip);
  left -= skip;

  std::uint32_t u[4] = {};
  std::uint32_t n = 0;  // the new-n field of the last entry
  for (int k = kIntPrec - 1 - skip; left > 0 && k >= 0;) {
    if (n == 1u << (kWindow + 1)) {
      // One value significant, as in smooth data: each quiet plane is that
      // value's bit and a 0 group bit, so a run of them is one countr_zero.
      const int q =
          std::min({std::countr_zero(c.lo & 0xAAAAAAAAAAAAAAAAull) >> 1, left >> 1, k + 1});
      if (q > 0) {
        u[0] |= (reverse_bits(even_bits(c.lo)) >> (32 - q)) << (k + 1 - q);
        shift_right(2 * q);  // q <= k + 1 <= 31: a plane was decoded to get here
        left -= 2 * q;
        k -= q;
        continue;
      }
    }
    const auto width = static_cast<std::uint32_t>(std::min(left, static_cast<int>(kWindow)));
    const std::uint64_t e = kDecodePlanes[n | 1u << width | (c.lo & ((1u << width) - 1u))];
    const auto meta = static_cast<std::uint32_t>(e >> 32);
    const int planes = static_cast<int>((meta >> 4) & 15u);
    const int kept = std::min(planes, k + 1);  // planes below 0 are not in the block
    for (int i = 0; i < 4; ++i) {
      const auto column = static_cast<std::uint32_t>((e >> (8 * i)) & 0xFFu);
      u[i] |= (column >> (planes - kept)) << (k + 1 - kept);
    }
    const int used = static_cast<int>(meta & 15u);  // 1..kWindow
    shift_right(used);
    left -= used;
    k -= kept;
    n = meta & kDecodeN;
  }

  std::int32_t q[4];
  for (int i = 0; i < 4; ++i) q[i] = negabinary_to_int(u[i]);
  inv_lift(q);
  const double scale = dequantize_scale(emax);
  for (int i = 0; i < 4; ++i) out[i] = dequantize(q[i], scale);
}

/// LSB-first bit sink over whole little-endian words of `out`.
class WordSink {
 public:
  explicit WordSink(std::uint8_t* out) : out_(out) {}

  /// Append the low `n` bits of v (no bits above them), 0 < n <= 64.
  void put(std::uint64_t v, int n) {
    acc_ |= v << fill_;
    if (fill_ + n < 64) {
      fill_ += n;
      return;
    }
    store_le64(out_, acc_);
    out_ += 8;
    acc_ = fill_ > 0 ? v >> (64 - fill_) : 0;
    fill_ += n - 64;
  }

  template <bool Wide>
  void put_block(const BlockCode& c, int rate) {
    if constexpr (Wide) {
      put(c.lo, 64);
      put(c.hi, 4 * rate - 64);
    } else {
      put(c.lo, 4 * rate);
    }
  }

  /// Store the last partial word, zero-padded.
  void finish() {
    if (fill_ > 0) store_le64(out_, acc_);
  }

 private:
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Block `i`'s code in the stream in[0, size).
template <bool Wide>
[[nodiscard]] BlockCode load_block(const std::uint8_t* in, std::size_t size, std::size_t i,
                                   int rate) {
  const std::size_t bit = i * 4 * static_cast<std::size_t>(rate);
  const std::size_t at = bit / 8;
  const int sh = static_cast<int>(bit % 8);  // 0 or 4
  const std::uint64_t w0 = word_at(in, size, at);
  if constexpr (!Wide) {
    return {w0 >> sh, 0};  // 4 * rate <= 64 - sh
  } else {
    const std::uint64_t w1 = word_at(in, size, at + 8);
    if (sh == 0) return {w0, w1};
    const std::uint64_t w2 = word_at(in, size, at + 16);
    return {(w0 >> sh) | (w1 << (64 - sh)), (w1 >> sh) | (w2 << (64 - sh))};
  }
}

// A group of 16 blocks (64 values) codes to 8 * rate bytes, a whole number
// of 64-bit words at every rate: the vector kernel's unit, and the unit the
// pool splits a stream on.
constexpr std::size_t kGroupBlocks = 16;
constexpr std::size_t kGroupValues = 4 * kGroupBlocks;

[[nodiscard]] constexpr std::size_t group_bytes(int rate) {
  return kGroupBlocks * 4 * static_cast<std::size_t>(rate) / 8;
}

// Whole streams: n values to or from the fixed-rate stream at `out`/`in`.
using EncodeStream = void (*)(const float* in, std::size_t n, int rate, std::uint8_t* out);
using DecodeStream = void (*)(const std::uint8_t* in, std::size_t size, std::size_t n, int rate,
                              float* out);

/// Encode n values into out; a partial last block repeats its last value.
template <bool Wide>
void encode_values(const float* in, std::size_t n, int rate, std::uint8_t* out) {
  WordSink sink(out);
  for (std::size_t i = 0; i + 4 <= n; i += 4) {
    sink.put_block<Wide>(encode_fixed_block<Wide>(in + i, rate), rate);
  }
  if (n % 4 != 0) {
    const std::size_t first = n - n % 4;
    float last[4];
    for (std::size_t x = 0; x < 4; ++x) last[x] = in[std::min(first + x, n - 1)];
    sink.put_block<Wide>(encode_fixed_block<Wide>(last, rate), rate);
  }
  sink.finish();
}

template <bool Wide>
void decode_values(const std::uint8_t* in, std::size_t size, std::size_t n, int rate,
                   float* out) {
  const std::size_t blocks = (n + 3) / 4;
  for (std::size_t i = 0; i < blocks; ++i) {
    const BlockCode c = load_block<Wide>(in, size, i, rate);
    if (4 * i + 4 <= n) {
      decode_fixed_block<Wide>(c, rate, out + 4 * i);
    } else {
      float last[4];
      decode_fixed_block<Wide>(c, rate, last);
      std::copy_n(last, n - 4 * i, out + 4 * i);
    }
  }
}

void encode_portable(const float* in, std::size_t n, int rate, std::uint8_t* out) {
  (rate > 16 ? encode_values<true> : encode_values<false>)(in, n, rate, out);
}

void decode_portable(const std::uint8_t* in, std::size_t size, std::size_t n, int rate,
                     float* out) {
  (rate > 16 ? decode_values<true> : decode_values<false>)(in, size, n, rate, out);
}

// ---------------------------------------------------------------------------
// AVX-512F/BW/VL/CD path, rates 4..16 (a block fits 64 bits). Groups of 16
// blocks (64 values, 8 * rate bytes, a whole number of words) run a vector
// kernel: lane j codes block j of the group, in one 32-bit lane (`lo`) or
// two (`lo`, `hi`) above rate 8. Every lane starts at its own top plane, so
// the plane loop runs as long as the group's longest block. The values
// after the last full group, and every other rate, run the portable code.
// ---------------------------------------------------------------------------

#if defined(__x86_64__)

#define GCMPI_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl,avx512cd")))

GCMPI_AVX512 inline __m512i splat(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<int>(v));
}

/// `a | (b & c)`.
GCMPI_AVX512 inline __m512i or_and(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0xF8);
}

/// Lanes shifted right by `s` (signed: a negative s shifts left); |s| <= 32.
GCMPI_AVX512 inline __m512i shift_right(__m512i v, __m512i s) {
  return _mm512_or_si512(_mm512_srlv_epi32(v, s),
                         _mm512_sllv_epi32(v, _mm512_sub_epi32(_mm512_setzero_si512(), s)));
}

/// Trailing zeros per lane (32 for a zero lane): the bits below the lowest
/// set bit are ~x & (x - 1).
GCMPI_AVX512 inline __m512i trailing_zeros(__m512i x) {
  const __m512i below = _mm512_andnot_si512(x, _mm512_sub_epi32(x, splat(1)));
  return _mm512_sub_epi32(splat(32), _mm512_lzcnt_epi32(below));
}

/// 16 blocks from memory as one vector per value position (lane j holds
/// value i of block j in v[i]).
GCMPI_AVX512 inline void load_blocks(const float* in, __m512i v[4]) {
  const __m512i a = _mm512_loadu_si512(in);
  const __m512i b = _mm512_loadu_si512(in + 16);
  const __m512i c = _mm512_loadu_si512(in + 32);
  const __m512i d = _mm512_loadu_si512(in + 48);
  // (v0, v1) and (v2, v3) pairs of blocks 0..7 and 8..15.
  const __m512i even64 = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd64 = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  const __m512i p01 = _mm512_permutex2var_epi64(a, even64, b);
  const __m512i p23 = _mm512_permutex2var_epi64(a, odd64, b);
  const __m512i q01 = _mm512_permutex2var_epi64(c, even64, d);
  const __m512i q23 = _mm512_permutex2var_epi64(c, odd64, d);
  const __m512i even =
      _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, splat(1));
  v[0] = _mm512_permutex2var_epi32(p01, even, q01);
  v[1] = _mm512_permutex2var_epi32(p01, odd, q01);
  v[2] = _mm512_permutex2var_epi32(p23, even, q23);
  v[3] = _mm512_permutex2var_epi32(p23, odd, q23);
}

/// Inverse of load_blocks.
GCMPI_AVX512 inline void store_blocks(float* out, const __m512i v[4]) {
  const __m512i first =
      _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
  const __m512i second = _mm512_add_epi32(first, splat(8));
  const __m512i p01 = _mm512_permutex2var_epi32(v[0], first, v[1]);
  const __m512i q01 = _mm512_permutex2var_epi32(v[0], second, v[1]);
  const __m512i p23 = _mm512_permutex2var_epi32(v[2], first, v[3]);
  const __m512i q23 = _mm512_permutex2var_epi32(v[2], second, v[3]);
  const __m512i first64 = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
  const __m512i second64 = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
  _mm512_storeu_si512(out, _mm512_permutex2var_epi64(p01, first64, p23));
  _mm512_storeu_si512(out + 16, _mm512_permutex2var_epi64(p01, second64, p23));
  _mm512_storeu_si512(out + 32, _mm512_permutex2var_epi64(q01, first64, q23));
  _mm512_storeu_si512(out + 48, _mm512_permutex2var_epi64(q01, second64, q23));
}

template <bool Wide>
GCMPI_AVX512 void encode_lanes(const float* in, int rate, __m512i& lo, __m512i& hi) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = splat(1);
  __m512i v[4];
  load_blocks(in, v);

  __m512i abs[4];
  __mmask16 finite[4];
  __m512i max_abs = zero;
  for (int i = 0; i < 4; ++i) {
    abs[i] = _mm512_and_si512(v[i], splat(kAbsMask));
    finite[i] = _mm512_cmplt_epu32_mask(abs[i], splat(kInfBits));
    max_abs = _mm512_mask_max_epu32(max_abs, finite[i], max_abs, abs[i]);
  }
  const __mmask16 nonzero = _mm512_test_epi32_mask(max_abs, max_abs);
  const __m512i max_exp = _mm512_srli_epi32(max_abs, 23);
  const __m512i emax =
      _mm512_mask_sub_epi32(_mm512_sub_epi32(splat(-117), _mm512_lzcnt_epi32(max_abs)),
                            _mm512_test_epi32_mask(max_exp, max_exp), max_exp, splat(126));

  __m512i q[4];
  for (int i = 0; i < 4; ++i) {
    const __m512i e = _mm512_srli_epi32(abs[i], 23);
    const __m512i m = _mm512_mask_or_epi32(_mm512_and_si512(abs[i], splat(kMantMask)),
                                           _mm512_test_epi32_mask(e, e),
                                           _mm512_and_si512(abs[i], splat(kMantMask)),
                                           splat(kMantMask + 1));
    const __m512i s =
        _mm512_sub_epi32(_mm512_sub_epi32(_mm512_max_epu32(e, one), splat(120)), emax);
    const __m512i mag =
        _mm512_maskz_mov_epi32(finite[i], shift_right(m, _mm512_sub_epi32(zero, s)));
    q[i] = _mm512_mask_sub_epi32(mag, _mm512_cmplt_epi32_mask(v[i], zero), zero, mag);
  }

  // fwd_lift on whole vectors; then negabinary.
  __m512i x = q[0], y = q[1], z = q[2], w = q[3];
  x = _mm512_add_epi32(x, w); x = _mm512_srai_epi32(x, 1); w = _mm512_sub_epi32(w, x);
  z = _mm512_add_epi32(z, y); z = _mm512_srai_epi32(z, 1); y = _mm512_sub_epi32(y, z);
  x = _mm512_add_epi32(x, z); x = _mm512_srai_epi32(x, 1); z = _mm512_sub_epi32(z, x);
  w = _mm512_add_epi32(w, y); w = _mm512_srai_epi32(w, 1); y = _mm512_sub_epi32(y, w);
  w = _mm512_add_epi32(w, _mm512_srai_epi32(y, 1));
  y = _mm512_sub_epi32(y, _mm512_srai_epi32(w, 1));
  const __m512i nb = splat(0xAAAAAAAAu);
  __m512i u[4] = {x, y, z, w};
  for (auto& ui : u) ui = _mm512_xor_si512(_mm512_add_epi32(ui, nb), nb);

  // Header, then one 0 bit per leading empty plane. Each lane's top plane
  // is shifted to bit 31, so plane t of every lane is bit 31 - t.
  const __m512i biased_emax = _mm512_add_epi32(emax, splat(kEmaxBias));
  lo = _mm512_maskz_mov_epi32(nonzero, _mm512_or_si512(_mm512_slli_epi32(biased_emax, 1), one));
  hi = zero;
  const __m512i lz = _mm512_lzcnt_epi32(
      _mm512_or_si512(_mm512_or_si512(u[0], u[1]), _mm512_or_si512(u[2], u[3])));
  for (auto& ui : u) ui = _mm512_sllv_epi32(ui, lz);
  __m512i len = _mm512_add_epi32(lz, splat(kHeaderBits));
  __m512i planes = _mm512_sub_epi32(splat(32), lz);
  const __m512i total = splat(static_cast<std::uint32_t>(4 * rate));
  const __m512i t0 = _mm512_loadu_si512(kEncodePlane.data());
  const __m512i t1 = _mm512_loadu_si512(kEncodePlane.data() + 16);
  const __m512i t2 = _mm512_loadu_si512(kEncodePlane.data() + 32);
  const __m512i t3 = _mm512_loadu_si512(kEncodePlane.data() + 48);
  __m512i n16 = zero;  // n * 16

  // Lanes past their budget or their last plane need no mask: a finished
  // block's planes are zero (code 0), and bits past 4 * rate are cut below.
  while ((_mm512_cmplt_epi32_mask(len, total) & _mm512_cmpgt_epi32_mask(planes, zero)) != 0) {
    __m512i nibble = or_and(_mm512_srli_epi32(u[0], 31), _mm512_srli_epi32(u[1], 30), splat(2));
    nibble = or_and(nibble, _mm512_srli_epi32(u[2], 29), splat(4));
    nibble = or_and(nibble, _mm512_srli_epi32(u[3], 28), splat(8));
    const __m512i idx = _mm512_or_si512(n16, nibble);
    const __m512i e = _mm512_mask_blend_epi32(_mm512_test_epi32_mask(idx, splat(32)),
                                              _mm512_permutex2var_epi32(t0, idx, t1),
                                              _mm512_permutex2var_epi32(t2, idx, t3));
    const __m512i code = _mm512_and_si512(e, splat(0xFF));
    lo = _mm512_or_si512(lo, _mm512_sllv_epi32(code, len));
    if constexpr (Wide) {
      hi = _mm512_or_si512(hi, shift_right(code, _mm512_sub_epi32(splat(32), len)));
    }
    len = _mm512_add_epi32(len, _mm512_and_si512(_mm512_srli_epi32(e, 8), splat(15)));
    n16 = _mm512_and_si512(_mm512_srli_epi32(e, 12), splat(0x30));
    planes = _mm512_sub_epi32(planes, one);
    for (auto& ui : u) ui = _mm512_slli_epi32(ui, 1);
  }
  if constexpr (Wide) {
    if (rate < 16) hi = _mm512_and_si512(hi, splat((1u << (4 * rate - 32)) - 1u));
  } else {
    if (rate < 8) lo = _mm512_and_si512(lo, splat((1u << (4 * rate)) - 1u));
  }
}

/// dequantize_scale of 8 exponents.
GCMPI_AVX512 inline __m512d dequantize_scales(__m256i emax) {
  const __m512i biased =
      _mm512_add_epi64(_mm512_cvtepi32_epi64(emax), _mm512_set1_epi64(1023 - kQuantShift));
  return _mm512_castsi512_pd(_mm512_slli_epi64(biased, 52));
}

template <bool Wide>
GCMPI_AVX512 void decode_lanes(__m512i lo, __m512i hi, int rate, float* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = splat(1);
  const __mmask16 nonzero = _mm512_test_epi32_mask(lo, one);
  const __m512i emax = _mm512_sub_epi32(
      _mm512_and_si512(_mm512_srli_epi32(lo, 1), splat((1u << kEmaxBits) - 1u)), splat(kEmaxBias));
  // Drop the header, then the leading empty planes. A zero-flag block
  // gets no budget, so it decodes to zeros.
  lo = _mm512_srli_epi32(lo, kHeaderBits);
  if constexpr (Wide) {
    lo = _mm512_or_si512(lo, _mm512_slli_epi32(hi, 32 - kHeaderBits));
    hi = _mm512_srli_epi32(hi, kHeaderBits);
  }
  __m512i left =
      _mm512_maskz_mov_epi32(nonzero, splat(static_cast<std::uint32_t>(4 * rate - kHeaderBits)));
  __m512i zeros = trailing_zeros(lo);
  if constexpr (Wide) {
    zeros = _mm512_mask_add_epi32(zeros, _mm512_cmpeq_epi32_mask(zeros, splat(32)), zeros,
                                  trailing_zeros(hi));
  }
  const __m512i skip = _mm512_min_epi32(_mm512_min_epi32(zeros, left), splat(kIntPrec));
  lo = _mm512_srlv_epi32(lo, skip);
  if constexpr (Wide) {
    lo = _mm512_or_si512(lo, _mm512_sllv_epi32(hi, _mm512_sub_epi32(splat(32), skip)));
    hi = _mm512_srlv_epi32(hi, skip);
  }
  left = _mm512_sub_epi32(left, skip);
  __m512i planes = _mm512_sub_epi32(splat(kIntPrec), skip);

  // The decoded planes shift into the bottom of v; a lane that stopped
  // gathers a zero entry (no planes, no bits used), and the final shift by
  // the planes left puts every plane in place.
  __m512i v[4] = {zero, zero, zero, zero};
  __m512i n = zero;  // the new-n field of the last entry
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
  const __m512i odd = _mm512_add_epi32(even, one);
  for (;;) {
    const __mmask16 active =
        _mm512_cmpgt_epi32_mask(left, zero) & _mm512_cmpgt_epi32_mask(planes, zero);
    if (active == 0) break;
    const __m512i width_bit = _mm512_sllv_epi32(one, _mm512_min_epi32(left, splat(kWindow)));
    const __m512i idx = _mm512_ternarylogic_epi32(
        n, width_bit, _mm512_and_si512(lo, _mm512_sub_epi32(width_bit, one)), 0xFE);
    const __m512i e_lo = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(active), _mm512_castsi512_si256(idx),
        kDecodePlanes.data(), 8);
    const __m512i e_hi = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), static_cast<__mmask8>(active >> 8),
        _mm512_extracti64x4_epi64(idx, 1), kDecodePlanes.data(), 8);
    const __m512i columns = _mm512_permutex2var_epi32(e_lo, even, e_hi);
    const __m512i meta = _mm512_permutex2var_epi32(e_lo, odd, e_hi);
    const __m512i decoded = _mm512_and_si512(_mm512_srli_epi32(meta, 4), splat(15));
    const __m512i kept = _mm512_min_epi32(decoded, planes);  // planes below 0 are not in the block
    const __m512i dropped = _mm512_sub_epi32(decoded, kept);
    for (int i = 0; i < 4; ++i) {
      const __m512i column =
          _mm512_and_si512(_mm512_srlv_epi32(columns, splat(8 * i)), splat(0xFF));
      v[i] = _mm512_or_si512(_mm512_sllv_epi32(v[i], kept), _mm512_srlv_epi32(column, dropped));
    }
    const __m512i used = _mm512_and_si512(meta, splat(15));
    lo = _mm512_srlv_epi32(lo, used);
    if constexpr (Wide) {
      lo = _mm512_or_si512(lo, _mm512_sllv_epi32(hi, _mm512_sub_epi32(splat(32), used)));
      hi = _mm512_srlv_epi32(hi, used);
    }
    left = _mm512_sub_epi32(left, used);
    planes = _mm512_sub_epi32(planes, kept);
    n = _mm512_and_si512(meta, splat(kDecodeN));
  }

  // Negabinary to int, inv_lift on whole vectors.
  const __m512i nb = splat(0xAAAAAAAAu);
  for (auto& vi : v) vi = _mm512_sub_epi32(_mm512_xor_si512(_mm512_sllv_epi32(vi, planes), nb), nb);
  __m512i x = v[0], y = v[1], z = v[2], w = v[3];
  y = _mm512_add_epi32(y, _mm512_srai_epi32(w, 1));
  w = _mm512_sub_epi32(w, _mm512_srai_epi32(y, 1));
  y = _mm512_add_epi32(y, w); w = _mm512_slli_epi32(w, 1); w = _mm512_sub_epi32(w, y);
  z = _mm512_add_epi32(z, x); x = _mm512_slli_epi32(x, 1); x = _mm512_sub_epi32(x, z);
  y = _mm512_add_epi32(y, z); z = _mm512_slli_epi32(z, 1); z = _mm512_sub_epi32(z, y);
  w = _mm512_add_epi32(w, x); x = _mm512_slli_epi32(x, 1); x = _mm512_sub_epi32(x, w);

  // dequantize: one exact double product per value, rounded once to float.
  const __m512d scale_lo = dequantize_scales(_mm512_castsi512_si256(emax));
  const __m512d scale_hi = dequantize_scales(_mm512_extracti64x4_epi64(emax, 1));
  __m512i f[4] = {x, y, z, w};
  for (auto& fi : f) {
    const __m256 a = _mm512_cvtpd_ps(
        _mm512_mul_pd(_mm512_cvtepi32_pd(_mm512_castsi512_si256(fi)), scale_lo));
    const __m256 b = _mm512_cvtpd_ps(
        _mm512_mul_pd(_mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(fi, 1)), scale_hi));
    fi = _mm512_inserti64x4(_mm512_castsi256_si512(_mm256_castps_si256(a)),
                            _mm256_castps_si256(b), 1);
  }
  store_blocks(out, f);
}

GCMPI_AVX512 void encode_group_avx512(const float* in, int rate, std::uint8_t* out) {
  __m512i lo;
  __m512i hi;
  if (rate > 8) {
    encode_lanes<true>(in, rate, lo, hi);
  } else {
    encode_lanes<false>(in, rate, lo, hi);
  }
  switch (rate) {
    case 4:
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), _mm512_cvtepi32_epi16(lo));
      return;
    case 8:
      _mm512_storeu_si512(out, lo);
      return;
    case 16: {
      const __m512i first =
          _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
      _mm512_storeu_si512(out, _mm512_permutex2var_epi32(lo, first, hi));
      const __m512i second = _mm512_add_epi32(first, splat(8));
      _mm512_storeu_si512(out + 64, _mm512_permutex2var_epi32(lo, second, hi));
      return;
    }
    default: {
      std::uint32_t l[16];
      std::uint32_t h[16];
      _mm512_storeu_si512(l, lo);
      _mm512_storeu_si512(h, hi);
      WordSink sink(out);
      for (int j = 0; j < 16; ++j) {
        sink.put(l[j] | static_cast<std::uint64_t>(h[j]) << 32, 4 * rate);
      }
      sink.finish();
    }
  }
}

GCMPI_AVX512 void decode_group_avx512(const std::uint8_t* in, int rate, float* out) {
  __m512i lo;
  __m512i hi = _mm512_setzero_si512();
  switch (rate) {
    case 4:
      lo = _mm512_cvtepu16_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(in)));
      break;
    case 8:
      lo = _mm512_loadu_si512(in);
      break;
    case 16: {
      const __m512i a = _mm512_loadu_si512(in);
      const __m512i b = _mm512_loadu_si512(in + 64);
      const __m512i even =
          _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
      lo = _mm512_permutex2var_epi32(a, even, b);
      hi = _mm512_permutex2var_epi32(a, _mm512_add_epi32(even, splat(1)), b);
      break;
    }
    default: {
      std::uint32_t l[16];
      std::uint32_t h[16];
      for (std::size_t j = 0; j < 16; ++j) {
        const std::uint64_t c = load_block<false>(in, group_bytes(rate), j, rate).lo;
        l[j] = static_cast<std::uint32_t>(c);
        h[j] = static_cast<std::uint32_t>(c >> 32);
      }
      lo = _mm512_loadu_si512(l);
      hi = _mm512_loadu_si512(h);
    }
  }
  if (rate > 8) {
    decode_lanes<true>(lo, hi, rate, out);
  } else {
    decode_lanes<false>(lo, hi, rate, out);
  }
}

void encode_avx512(const float* in, std::size_t n, int rate, std::uint8_t* out) {
  const std::size_t groups = rate <= 16 ? n / kGroupValues : 0;
  for (std::size_t g = 0; g < groups; ++g) {
    encode_group_avx512(in + g * kGroupValues, rate, out + g * group_bytes(rate));
  }
  const std::size_t done = groups * kGroupValues;
  encode_portable(in + done, n - done, rate, out + groups * group_bytes(rate));
}

void decode_avx512(const std::uint8_t* in, std::size_t size, std::size_t n, int rate,
                   float* out) {
  const std::size_t groups = rate <= 16 ? n / kGroupValues : 0;
  for (std::size_t g = 0; g < groups; ++g) {
    decode_group_avx512(in + g * group_bytes(rate), rate, out + g * kGroupValues);
  }
  const std::size_t done = groups * kGroupValues;
  const std::size_t at = groups * group_bytes(rate);
  decode_portable(in + at, size - at, n - done, rate, out + done);
}

#endif  // __x86_64__

// ---------------------------------------------------------------------------
// Path selection (once, at the first call) and the entry points.
// ---------------------------------------------------------------------------

struct FixedRatePath {
  EncodeStream encode;
  DecodeStream decode;
};

constexpr FixedRatePath kPortable{encode_portable, decode_portable};

FixedRatePath select_path() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512cd")) {
    return {encode_avx512, decode_avx512};
  }
#endif
  return kPortable;
}

const FixedRatePath& dispatched() {
  static const FixedRatePath path = select_path();
  return path;
}

// From kSplitGroups groups on, a stream is encoded and decoded on the
// parallel pool in pieces of kPieceGroups groups; every piece starts on a
// group, so at a whole word of the stream, and the last one takes the
// ragged tail. A folding decode runs each piece kFoldValues at a time
// through a buffer on the stack and folds that into the accumulator.
constexpr std::size_t kSplitGroups = 1024;
constexpr std::size_t kPieceGroups = 256;
constexpr std::size_t kFoldValues = 16 * kGroupValues;

[[nodiscard]] std::size_t piece_values(std::size_t n) {
  return n / kGroupValues < kSplitGroups ? n : kPieceGroups * kGroupValues;
}

/// Bytes of the stream before value `first`, a multiple of kGroupValues.
[[nodiscard]] std::size_t stream_offset(std::size_t first, int rate) {
  return first / kGroupValues * group_bytes(rate);
}

std::size_t compress_with(const ZfpCodec& codec, EncodeStream encode,
                          std::span<const float> in, const ZfpField& field,
                          std::span<std::uint8_t> out) {
  if (in.size() < field.values()) throw std::invalid_argument("ZfpCodec::compress: input too small");
  const std::size_t need = codec.compressed_bytes(field);
  if (out.size() < need) throw std::invalid_argument("ZfpCodec::compress: output too small");
  const int rate = codec.rate();
  util::parallel_for(field.nx, piece_values(field.nx), [&](std::size_t first, std::size_t last) {
    encode(in.data() + first, last - first, rate, out.data() + stream_offset(first, rate));
  });
  return need;
}

void decompress_with(const ZfpCodec& codec, DecodeStream decode,
                     std::span<const std::uint8_t> in, const ZfpField& field,
                     std::span<float> out, std::optional<ReduceOp> fold) {
  if (out.size() < field.values()) throw std::invalid_argument("ZfpCodec::decompress: output too small");
  // A short stream would otherwise decode its missing blocks as zeros.
  if (in.size() < codec.compressed_bytes(field)) {
    throw std::invalid_argument("ZfpCodec::decompress: input shorter than the fixed-rate stream");
  }
  const int rate = codec.rate();
  const auto decode_at = [&](std::size_t first, std::size_t count, float* dst) {
    const std::size_t at = stream_offset(first, rate);
    decode(in.data() + at, in.size() - at, count, rate, dst);
  };
  util::parallel_for(field.nx, piece_values(field.nx), [&](std::size_t first, std::size_t last) {
    if (!fold) {
      decode_at(first, last - first, out.data() + first);
      return;
    }
    float decoded[kFoldValues];
    for (std::size_t i = first; i < last; i += kFoldValues) {
      const std::size_t count = std::min(kFoldValues, last - i);
      decode_at(i, count, decoded);
      reduce_inplace(out.data() + i, decoded, count, *fold);
    }
  });
}

}  // namespace

ZfpCodec::ZfpCodec(int rate) : rate_(rate) {
  // Rate 4 is the paper's most aggressive setting; below that a block's
  // bit budget cannot even hold the exponent header.
  if (rate < 4 || rate > 32) throw std::invalid_argument("ZfpCodec: rate must be 4..32");
}

std::size_t ZfpCodec::compressed_bytes(const ZfpField& field) const {
  if (field.nx == 0) throw std::invalid_argument("ZfpField: zero extent");
  const std::size_t total_bits = field.blocks() * 4 * static_cast<std::size_t>(rate_);
  return ((total_bits + 63) / 64) * 8;  // word-aligned stream
}

std::size_t ZfpCodec::compress(std::span<const float> in, const ZfpField& field,
                               std::span<std::uint8_t> out) const {
  return compress_with(*this, dispatched().encode, in, field, out);
}

std::size_t ZfpCodec::compress_portable(std::span<const float> in, const ZfpField& field,
                                        std::span<std::uint8_t> out) const {
  return compress_with(*this, kPortable.encode, in, field, out);
}

void ZfpCodec::decompress(std::span<const std::uint8_t> in, const ZfpField& field,
                          std::span<float> out, std::optional<ReduceOp> fold) const {
  decompress_with(*this, dispatched().decode, in, field, out, fold);
}

void ZfpCodec::decompress_portable(std::span<const std::uint8_t> in, const ZfpField& field,
                                   std::span<float> out, std::optional<ReduceOp> fold) const {
  decompress_with(*this, kPortable.decode, in, field, out, fold);
}

double ZfpCodec::error_bound(double max_abs) const {
  if (max_abs <= 0.0) return 0.0;
  // Truncating to the rate budget leaves ~2^(emax - planes + 5) of error
  // (30-bit quantization aligned at the block exponent, plus the gain of
  // the lifting transform). `planes` is the bit planes the budget can
  // actually code: the per-block header (zero marker + biased emax) is paid
  // out of the same fixed-rate budget, and with 4 values per block it costs
  // up to three whole planes — at low rates that dominates the error.
  int emax = 0;
  (void)std::frexp(max_abs, &emax);
  const int header_planes = (kHeaderBits + 3) / 4;
  const int planes = rate_ > header_planes ? rate_ - header_planes : 0;
  return std::ldexp(1.0, emax - planes + 5);
}

}  // namespace gcmpi::comp
