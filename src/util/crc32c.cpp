#include "util/crc32c.hpp"

#include <array>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "util/parallel.hpp"

namespace gcmpi::util {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  std::uint32_t t[8][256];
};

Tables build_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tb.t[0][i];
    for (int s = 1; s < 8; ++s) {
      c = tb.t[0][c & 0xFFu] ^ (c >> 8);
      tb.t[s][i] = c;
    }
  }
  return tb;
}

const Tables& tables() {
  static const Tables tb = build_tables();
  return tb;
}

// a * b mod P in the reflected representation, where bit 31 is x^0.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// x^(8·bytes) mod P: multiplying a raw CRC state by it is the same as
// running the state over `bytes` zero bytes.
constexpr std::uint32_t zeros_shift(std::size_t bytes) {
  std::uint32_t p = 1u << 31;       // x^0
  std::uint32_t square = 1u << 23;  // x^8, then x^16, x^32, ...
  for (; bytes != 0; bytes >>= 1) {
    if (bytes & 1u) p = multmodp(square, p);
    square = multmodp(square, square);
  }
  return p;
}

// crc32c() splits a buffer of kSplitBytes or more into kPieceBytes pieces,
// checksums them on the parallel pool and combines the piece CRCs in order.
constexpr std::size_t kSplitBytes = std::size_t{512} << 10;
constexpr std::size_t kPieceBytes = std::size_t{128} << 10;
constexpr std::uint32_t kPieceShift = zeros_shift(kPieceBytes);

#if defined(__x86_64__)

// Bytes per lane per round of the three-lane loop.
constexpr std::size_t kLane = 4096;
constexpr std::uint32_t kLaneShift = zeros_shift(kLane);

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Three independent crc32 chains hide the instruction's three-cycle
// latency; each 3·kLane round folds lane 0 into lane 1 and lane 1 into
// lane 2 by multiplying with kLaneShift.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(const void* data, std::size_t bytes,
                                                             std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = ~crc;
  while (bytes != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
    --bytes;
  }
  while (bytes >= 3 * kLane) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      c = _mm_crc32_u64(c, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kLane + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kLane + i));
    }
    const std::uint32_t c01 = multmodp(kLaneShift, static_cast<std::uint32_t>(c)) ^
                              static_cast<std::uint32_t>(c1);
    c = multmodp(kLaneShift, c01) ^ c2;
    p += 3 * kLane;
    bytes -= 3 * kLane;
  }
  for (; bytes >= 8; p += 8, bytes -= 8) c = _mm_crc32_u64(c, load64(p));
  while (bytes-- != 0) c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  return ~static_cast<std::uint32_t>(c);
}

#endif

using Crc32cFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

Crc32cFn select_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_portable;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t bytes, std::uint32_t crc) {
  static const Crc32cFn impl = select_crc32c();
  if (bytes < kSplitBytes) return impl(data, bytes, crc);
  // The CRC of A then B, chained onto crc, is crc(A, crc) · x^(8|B|) xor
  // crc(B, 0): piece 0 takes the incoming crc, the others start fresh.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::vector<std::uint32_t> piece_crc((bytes + kPieceBytes - 1) / kPieceBytes);
  parallel_for(bytes, kPieceBytes, [&](std::size_t begin, std::size_t end) {
    piece_crc[begin / kPieceBytes] = impl(p + begin, end - begin, begin == 0 ? crc : 0);
  });
  crc = piece_crc[0];
  for (std::size_t i = 1; i + 1 < piece_crc.size(); ++i) {
    crc = multmodp(kPieceShift, crc) ^ piece_crc[i];
  }
  const std::size_t last = bytes - (piece_crc.size() - 1) * kPieceBytes;
  return multmodp(zeros_shift(last), crc) ^ piece_crc.back();
}

std::uint32_t crc32c_portable(const void* data, std::size_t bytes, std::uint32_t crc) {
  const auto& tb = tables();
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~crc;
  // Head: align the slice-by-8 loop to an 8-byte stride.
  while (bytes != 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
    --bytes;
  }
  while (bytes >= 8) {
    const std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                  static_cast<std::uint32_t>(p[1]) << 8 |
                                  static_cast<std::uint32_t>(p[2]) << 16 |
                                  static_cast<std::uint32_t>(p[3]) << 24);
    const std::uint32_t hi = static_cast<std::uint32_t>(p[4]) |
                             static_cast<std::uint32_t>(p[5]) << 8 |
                             static_cast<std::uint32_t>(p[6]) << 16 |
                             static_cast<std::uint32_t>(p[7]) << 24;
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^ tb.t[5][(lo >> 16) & 0xFFu] ^
        tb.t[4][lo >> 24] ^ tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  while (bytes-- != 0) c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return ~c;
}

std::uint32_t crc32c_reference(const void* data, std::size_t bytes, std::uint32_t crc) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = ~crc;
  for (std::size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
  }
  return ~c;
}

}  // namespace gcmpi::util
