// From-scratch reimplementation of ZFP fixed-rate compression for 32-bit
// floating-point arrays in 1, 2, or 3 dimensions (P. Lindstrom, "Fixed-Rate
// Compressed Floating-Point Arrays", TVCG 2014).
//
// Each 4^d block is encoded independently in exactly `rate * 4^d` bits:
//   1. block-floating-point: align all values to the block's max exponent,
//      quantizing to 32-bit integers with 2 guard bits;
//   2. integer lifting transform (the zfp non-orthogonal decorrelator)
//      applied along each dimension;
//   3. total-sequency reordering of coefficients, negabinary mapping;
//   4. embedded bit-plane coding with group testing, truncated at the bit
//      budget and zero-padded to it (fixed rate => fixed compression ratio
//      32/rate, exactly as exploited by the paper's ZFP-OPT scheme).
//
// This is a behaviour-faithful codec (same transform, same coding scheme,
// same rate semantics), not a bit-compatible clone of libzfp: the
// coefficient permutation tie-break and the container layout differ.
//
// Host paths. Fixed-rate 1D (the mode CompressionManager runs) has its own
// block layer: block i is the 4*rate bits at bit offset 4*rate*i, encoded
// straight into `out` and decoded straight from `in`, with one table
// lookup per bit plane. On x86-64 CPUs with AVX-512F/BW/VL/CD, rates 4..16
// run full groups of 16 blocks through a 16-lane vector kernel (one block
// per lane); everything else runs the portable scalar code. The path is
// chosen once, at the first call, and both give the same bytes.
// compress_portable() and decompress_portable() always run the scalar code
// so tests can compare the two on any host. The 2D/3D and variable-rate
// modes share one generic block coder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace gcmpi::comp {

/// Array geometry for a ZFP (de)compression call; float32 values only,
/// matching the paper's single-precision datasets.
struct ZfpField {
  int dims = 1;  // 1, 2, or 3
  std::size_t nx = 0;
  std::size_t ny = 1;
  std::size_t nz = 1;

  [[nodiscard]] std::size_t values() const { return nx * ny * nz; }
  [[nodiscard]] std::size_t blocks() const;
  static ZfpField d1(std::size_t nx) { return {1, nx, 1, 1}; }
  static ZfpField d2(std::size_t nx, std::size_t ny) { return {2, nx, ny, 1}; }
  static ZfpField d3(std::size_t nx, std::size_t ny, std::size_t nz) {
    return {3, nx, ny, nz};
  }
};

/// Compression modes, mirroring libzfp's:
///   FixedRate:      exactly `rate` bits per value; the paper's mode (the
///                   only one its CUDA backend supports) — size predictable.
///   FixedPrecision: keep `precision` most-significant bit planes per
///                   block; variable size, relative-error control.
///   FixedAccuracy:  keep every bit plane above `tolerance`; variable
///                   size, absolute-error control.
enum class ZfpMode : std::uint8_t { FixedRate, FixedPrecision, FixedAccuracy };

class ZfpCodec {
 public:
  /// `rate` = compressed bits per value, 4..32. Rate 16 halves the data
  /// (the paper's default); rates 8 and 4 give ratios 4 and 8.
  explicit ZfpCodec(int rate);

  /// Fixed-precision constructor: `precision` in 1..32 bit planes.
  [[nodiscard]] static ZfpCodec fixed_precision(int precision);
  /// Fixed-accuracy constructor: absolute error tolerance > 0.
  [[nodiscard]] static ZfpCodec fixed_accuracy(double tolerance);

  [[nodiscard]] ZfpMode mode() const { return mode_; }
  [[nodiscard]] int rate() const { return rate_; }
  [[nodiscard]] int precision() const { return precision_; }
  [[nodiscard]] double tolerance() const { return tolerance_; }
  [[nodiscard]] double ratio() const { return 32.0 / rate_; }

  /// Exact compressed size for FixedRate (computable a priori, which is
  /// why ZFP-OPT needs no size readback from the GPU); an upper bound for
  /// the variable-size modes.
  [[nodiscard]] std::size_t compressed_bytes(const ZfpField& field) const;

  /// Compress `in` (field.values() floats) into `out`; returns bytes
  /// written (== compressed_bytes(field) in FixedRate mode). `out` must
  /// hold compressed_bytes(field).
  std::size_t compress(std::span<const float> in, const ZfpField& field,
                       std::span<std::uint8_t> out) const;

  /// Decompress into `out` (field.values() floats). In FixedRate mode `in`
  /// must hold compressed_bytes(field) bytes; a shorter stream throws
  /// std::invalid_argument.
  void decompress(std::span<const std::uint8_t> in, const ZfpField& field,
                  std::span<float> out) const;

  /// compress()/decompress() on the portable scalar path: what they run on
  /// CPUs without AVX-512. Same bytes and same checks on every host.
  std::size_t compress_portable(std::span<const float> in, const ZfpField& field,
                                std::span<std::uint8_t> out) const;
  void decompress_portable(std::span<const std::uint8_t> in, const ZfpField& field,
                           std::span<float> out) const;

  /// Upper bound on the pointwise absolute error for data whose magnitude
  /// is at most `max_abs` (fixed-rate truncation bound).
  [[nodiscard]] double error_bound(double max_abs) const;

 private:
  ZfpCodec(ZfpMode mode, int rate, int precision, double tolerance)
      : mode_(mode), rate_(rate), precision_(precision), tolerance_(tolerance) {}

  ZfpMode mode_ = ZfpMode::FixedRate;
  int rate_ = 16;
  int precision_ = 32;
  double tolerance_ = 0.0;
};

}  // namespace gcmpi::comp
