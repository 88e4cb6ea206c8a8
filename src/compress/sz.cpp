#include "compress/sz.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "compress/bitstream.hpp"
#include "compress/huffman.hpp"

namespace gcmpi::comp {

namespace {

constexpr std::uint32_t kMagic = 0x535a4331u;  // "SZC1"

/// Best-of-three curve-fitting prediction from reconstructed history.
[[nodiscard]] double predict(const float* r, std::size_t i) {
  if (i == 0) return 0.0;
  const double p1 = r[i - 1];
  if (i == 1) return p1;
  const double p2 = 2.0 * r[i - 1] - r[i - 2];
  if (i == 2) return p2;
  const double p3 = 3.0 * r[i - 1] - 3.0 * r[i - 2] + r[i - 3];
  // SZ picks the model that fit the previous point best; evaluate each
  // model's error at i-1 using the points before it.
  const double prev = r[i - 1];
  const double e1 = std::fabs(prev - r[i - 2]);
  const double e2 = i >= 3 ? std::fabs(prev - (2.0 * r[i - 2] - r[i - 3])) : e1;
  const double e3 = i >= 4 ? std::fabs(prev - (3.0 * r[i - 2] - 3.0 * r[i - 3] + r[i - 4])) : e2;
  if (e1 <= e2 && e1 <= e3) return p1;
  if (e2 <= e3) return p2;
  return p3;
}

}  // namespace

SzCodec::SzCodec(double error_bound, int quant_bits)
    : error_bound_(error_bound), quant_bits_(quant_bits) {
  if (!(error_bound > 0.0)) throw std::invalid_argument("SzCodec: error_bound must be > 0");
  if (quant_bits < 4 || quant_bits > 24) {
    throw std::invalid_argument("SzCodec: quant_bits must be 4..24");
  }
}

std::size_t SzCodec::max_compressed_bytes(std::size_t n_values) const {
  // Worst case: every code distinct (Huffman table ~38 bits/entry) plus a
  // ~log2(n)-bit code and a 32-bit verbatim payload per value.
  return 96 + n_values * 14;
}

std::size_t SzCodec::compress(std::span<const float> in, std::span<std::uint8_t> out) const {
  const std::size_t n = in.size();
  if (out.size() < max_compressed_bytes(n)) {
    throw std::invalid_argument("SzCodec::compress: output too small");
  }
  const std::uint32_t bins = 1u << quant_bits_;
  const std::uint32_t mid = bins / 2;
  const std::uint32_t escape = bins;  // one symbol beyond the bin range
  const double inv_step = 1.0 / (2.0 * error_bound_);

  // Pass 1: quantize against the reconstructed stream.
  std::vector<float> recon(n);
  std::vector<std::uint32_t> codes(n);
  std::vector<float> verbatim;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = predict(recon.data(), i);
    const double diff = static_cast<double>(in[i]) - pred;
    const double scaled = diff * inv_step;
    bool predictable = std::isfinite(in[i]) && std::fabs(scaled) < mid - 1;
    if (predictable) {
      const auto q = static_cast<std::int32_t>(std::llround(scaled));
      // The decompressor stores float32, so the bound must hold for the
      // float-rounded reconstruction, not the double intermediate.
      const auto rec = static_cast<float>(pred + 2.0 * error_bound_ * q);
      if (std::fabs(static_cast<double>(rec) - in[i]) <= error_bound_) {
        codes[i] = static_cast<std::uint32_t>(q + static_cast<std::int32_t>(mid));
        recon[i] = rec;
        continue;
      }
    }
    codes[i] = escape;  // unpredictable: stored verbatim, error = 0
    verbatim.push_back(in[i]);
    recon[i] = in[i];
  }

  // Pass 2: entropy-code the quantization codes.
  BitWriter w;
  w.reserve_bits(max_compressed_bytes(n) * 8);
  w.put_bits(kMagic, 32);
  w.put_bits(n, 64);
  w.put_bits(static_cast<std::uint64_t>(quant_bits_), 8);
  double eb = error_bound_;
  std::uint64_t eb_bits = 0;
  std::memcpy(&eb_bits, &eb, 8);
  w.put_bits(eb_bits, 64);

  HuffmanEncoder huff(codes);
  huff.write_table(w);
  std::size_t verb_at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    huff.encode(w, codes[i]);
    if (codes[i] == escape) {
      std::uint32_t bitsv = 0;
      std::memcpy(&bitsv, &verbatim[verb_at++], 4);
      w.put_bits(bitsv, 32);
    }
  }
  const std::vector<std::uint8_t> bytes = w.take();
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return bytes.size();
}

std::size_t SzCodec::encoded_values(std::span<const std::uint8_t> in) {
  BitReader r(in);
  if (r.get_bits(32) != kMagic) throw std::invalid_argument("SzCodec: bad magic");
  return static_cast<std::size_t>(r.get_bits(64));
}

std::size_t SzCodec::decompress(std::span<const std::uint8_t> in, std::span<float> out) const {
  BitReader r(in);
  if (r.get_bits(32) != kMagic) throw std::invalid_argument("SzCodec: bad magic");
  const auto n = static_cast<std::size_t>(r.get_bits(64));
  const auto qb = static_cast<int>(r.get_bits(8));
  const std::uint64_t eb_bits = r.get_bits(64);
  double eb = 0;
  std::memcpy(&eb, &eb_bits, 8);
  if (qb != quant_bits_) throw std::invalid_argument("SzCodec: quant_bits mismatch");
  if (out.size() < n) throw std::invalid_argument("SzCodec::decompress: output too small");

  const std::uint32_t bins = 1u << qb;
  const std::uint32_t mid = bins / 2;
  const std::uint32_t escape = bins;

  HuffmanDecoder huff(r);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t code = huff.decode(r);
    if (code == escape) {
      const auto bitsv = static_cast<std::uint32_t>(r.get_bits(32));
      float v = 0;
      std::memcpy(&v, &bitsv, 4);
      out[i] = v;
    } else if (code <= 2 * mid) {
      const double pred = predict(out.data(), i);
      const auto q = static_cast<std::int32_t>(code) - static_cast<std::int32_t>(mid);
      out[i] = static_cast<float>(pred + 2.0 * eb * q);
    } else {
      throw std::runtime_error("SzCodec: corrupt quantization code");
    }
  }
  // The reader yields zeros past the end, so a cut stream would otherwise
  // decode its missing codes as wrong floats without an error.
  if (r.tell() > r.bit_size()) throw std::invalid_argument("SzCodec: truncated stream");
  return n;
}

}  // namespace gcmpi::comp
