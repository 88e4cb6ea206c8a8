// From-scratch reimplementation of MPC, the Massively Parallel Compression
// algorithm for single-precision scientific data (Yang, Mukka, Hesaaraki,
// Burtscher, IEEE Cluster 2015).
//
// Structure mirrors the GPU algorithm:
//   * the array is cut into fixed-size chunks, one per "thread block";
//   * within a chunk, each value is predicted by the value `dim` positions
//     earlier (the dimensionality-based last-value predictor that makes MPC
//     effective on interleaved multi-field data);
//   * the 32-bit residuals are mapped to put the information into the low
//     bits, bit-transposed in 32x32 tiles so that equal high bits across
//     neighbouring values form all-zero words, and zero words are elided
//     behind a 32-bit presence mask (zero elimination);
//   * chunks compress to different sizes, so a per-chunk size table is
//     emitted — the serial analog of the `d_off` offset array the CUDA
//     kernels synchronize through (Sec. III of the paper).
//
// The codec is bit-exact lossless for arbitrary payloads (NaNs, infinities,
// denormals included) because all arithmetic is modular on the raw bits.
//
// Host paths. The float codec has two implementations of the per-chunk
// work that produce the same bytes: a portable scalar path (unrolled
// transpose, set-bit gather, a register-carried predictor for d = 1) and,
// on x86-64 CPUs with AVX-512F/BW/VL, a vector path (vector predictor and
// zig-zag, in-register transpose, vpcompressd/vpexpandd zero elimination
// and a 16-lane strided prefix sum for the decode recurrence). The path is
// chosen once, at the first call; compress_portable()/decompress_portable()
// always run the scalar path so tests can compare the two on any host.
//
// Both paths read the caller's `in` and write the caller's `out` in place.
// A stream of 128 chunks or more is split across util::parallel_for's
// pool in ranges of 32 chunks, as the GPU kernel runs its thread blocks at
// once. Decoding checks the whole size table and finds every range's
// first word before any chunk decodes, then decodes the ranges into their
// disjoint slices of `out`. Encoding writes range 0 straight into `out`
// and every later range into a per-thread scratch buffer, kept across
// calls and grown to the largest stream's worst case, then copies them
// into place behind range 0 in order; the bytes are those of the serial
// loop. A shorter stream is one range, run inline with no scratch.
// compress() writes only the returned prefix of `out`, and decompress()
// only out[0, n) and never reads outside `in`: every size-table entry is
// checked against the bytes left, and every tile mask against the words
// left in its chunk, before the words are gathered; a violation throws
// (the lowest failing range's exception, after every range has run).
// A folding decode (decompress with a ReduceOp) decodes each chunk into a
// per-thread buffer and folds it into `out` at once; a chunk that fails
// its checks throws before it folds, but chunks of other ranges may
// already have folded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "compress/reduce.hpp"

namespace gcmpi::comp {

class MpcCodec {
 public:
  /// `dimensionality`: stride of the value predictor (1..32; the MPC paper
  /// tunes it per dataset). `chunk_values`: values per thread-block chunk;
  /// must be a positive multiple of 32.
  explicit MpcCodec(int dimensionality = 1, std::size_t chunk_values = 1024);

  [[nodiscard]] int dimensionality() const { return dim_; }
  [[nodiscard]] std::size_t chunk_values() const { return chunk_; }

  /// Number of thread-block chunks (== GPU thread blocks == d_off entries).
  [[nodiscard]] std::size_t chunk_count(std::size_t n_values) const {
    return (n_values + chunk_ - 1) / chunk_;
  }

  /// Worst-case compressed size (incompressible data expands by ~3.5%).
  [[nodiscard]] std::size_t max_compressed_bytes(std::size_t n_values) const;

  /// Compress `in` into `out`; returns bytes written.
  std::size_t compress(std::span<const float> in, std::span<std::uint8_t> out) const;

  /// Decompress; returns number of values restored (out.size() must hold
  /// them). With a `fold`, `out` is an accumulator: out[i] = op(out[i],
  /// decoded[i]), the reduce_inplace convention.
  std::size_t decompress(std::span<const std::uint8_t> in, std::span<float> out,
                         std::optional<ReduceOp> fold = std::nullopt) const;

  /// compress()/decompress() on the portable scalar path: what they run on
  /// CPUs without AVX-512. Same bytes and same checks on every host.
  std::size_t compress_portable(std::span<const float> in, std::span<std::uint8_t> out) const;
  std::size_t decompress_portable(std::span<const std::uint8_t> in, std::span<float> out,
                                  std::optional<ReduceOp> fold = std::nullopt) const;

  /// Number of float values encoded in a compressed buffer (header peek).
  [[nodiscard]] static std::size_t encoded_values(std::span<const std::uint8_t> in);

 private:
  int dim_;
  std::size_t chunk_;
};

}  // namespace gcmpi::comp
