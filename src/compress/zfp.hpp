// From-scratch reimplementation of ZFP fixed-rate compression for 1D
// float32 arrays (P. Lindstrom, "Fixed-Rate Compressed Floating-Point
// Arrays", TVCG 2014). Fixed rate is the only mode: it is the one the
// paper's CUDA ZFP backend supports, and the one ZFP-OPT relies on.
//
// Each block of 4 values is encoded independently in exactly `4 * rate` bits:
//   1. block-floating-point: align all values to the block's max exponent,
//      quantizing to 32-bit integers with 2 guard bits;
//   2. integer lifting transform (the zfp non-orthogonal decorrelator);
//   3. negabinary mapping;
//   4. embedded bit-plane coding with group testing, truncated at the bit
//      budget and zero-padded to it (fixed rate => fixed compression ratio
//      32/rate, exactly as exploited by the paper's ZFP-OPT scheme).
//
// This is a behaviour-faithful codec (same transform, same coding scheme,
// same rate semantics), not a bit-compatible clone of libzfp: the container
// layout differs.
//
// Host paths. Block i is the 4*rate bits at bit offset 4*rate*i, encoded
// straight into `out` and decoded straight from `in`, with one table lookup
// per bit plane. On x86-64 CPUs with AVX-512F/BW/VL/CD, rates 4..16 run
// full groups of 16 blocks through a 16-lane vector kernel (one block per
// lane); everything else runs the portable scalar code. The path is chosen
// once, at the first call, and both give the same bytes.
// compress_portable() and decompress_portable() always run the scalar code
// so tests can compare the two on any host.
//
// A group of 16 blocks codes to a whole number of 64-bit words, so a
// stream of 1024 groups or more is encoded and decoded on
// util::parallel_for's pool in pieces of 256 groups, each into its own
// words of `out` (or from its own words of `in`); the last piece takes the
// partial group at the end. The bytes are those of the serial loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "compress/reduce.hpp"

namespace gcmpi::comp {

/// Array geometry for a ZFP (de)compression call: `nx` float32 values,
/// matching the paper's single-precision datasets.
struct ZfpField {
  std::size_t nx = 0;

  [[nodiscard]] std::size_t values() const { return nx; }
  [[nodiscard]] std::size_t blocks() const { return (nx + 3) / 4; }
  static ZfpField d1(std::size_t nx) { return {nx}; }
};

class ZfpCodec {
 public:
  /// `rate` = compressed bits per value, 4..32. Rate 16 halves the data
  /// (the paper's default); rates 8 and 4 give ratios 4 and 8.
  explicit ZfpCodec(int rate);

  [[nodiscard]] int rate() const { return rate_; }
  [[nodiscard]] double ratio() const { return 32.0 / rate_; }

  /// Exact compressed size: blocks() * 4 * rate bits, rounded up to a whole
  /// 64-bit word (computable a priori, which is why ZFP-OPT needs no size
  /// readback from the GPU).
  [[nodiscard]] std::size_t compressed_bytes(const ZfpField& field) const;

  /// Compress `in` (field.values() floats) into `out`; returns bytes
  /// written (== compressed_bytes(field)). `out` must hold that many.
  std::size_t compress(std::span<const float> in, const ZfpField& field,
                       std::span<std::uint8_t> out) const;

  /// Decompress into `out` (field.values() floats). `in` must hold
  /// compressed_bytes(field) bytes; a shorter stream throws
  /// std::invalid_argument before any value is written. With a `fold`,
  /// `out` is an accumulator: out[i] = op(out[i], decoded[i]), the
  /// reduce_inplace convention, applied by each piece to its own values.
  void decompress(std::span<const std::uint8_t> in, const ZfpField& field,
                  std::span<float> out, std::optional<ReduceOp> fold = std::nullopt) const;

  /// compress()/decompress() on the portable scalar path: what they run on
  /// CPUs without AVX-512. Same bytes and same checks on every host.
  std::size_t compress_portable(std::span<const float> in, const ZfpField& field,
                                std::span<std::uint8_t> out) const;
  void decompress_portable(std::span<const std::uint8_t> in, const ZfpField& field,
                           std::span<float> out,
                           std::optional<ReduceOp> fold = std::nullopt) const;

  /// Upper bound on the pointwise absolute error for data whose magnitude
  /// is at most `max_abs` (fixed-rate truncation bound).
  [[nodiscard]] double error_bound(double max_abs) const;

 private:
  int rate_ = 16;
};

}  // namespace gcmpi::comp
