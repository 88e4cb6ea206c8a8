#include "support/codecs.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "compress/mpc.hpp"
#include "compress/zfp.hpp"

namespace gcmpi::testing {

namespace {

using comp::ZfpCodec;
using comp::ZfpField;

std::string hex_bits(float v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(8) << std::setfill('0') << std::bit_cast<std::uint32_t>(v);
  return os.str();
}

std::optional<std::string> first_bit_divergence(std::span<const float> in,
                                                std::span<const float> out) {
  if (in.size() != out.size()) {
    return "restored " + std::to_string(out.size()) + " of " +
           std::to_string(in.size()) + " values";
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (std::memcmp(&in[i], &out[i], sizeof(float)) != 0) {
      return "first divergence at [" + std::to_string(i) + "]: wrote " +
             hex_bits(in[i]) + " read " + hex_bits(out[i]);
    }
  }
  return std::nullopt;
}

std::optional<std::string> bound_divergence(std::span<const float> in,
                                            std::span<const float> out, double bound) {
  if (in.size() != out.size()) {
    return "restored " + std::to_string(out.size()) + " of " +
           std::to_string(in.size()) + " values";
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double err = std::fabs(static_cast<double>(in[i]) - static_cast<double>(out[i]));
    if (!(err <= bound) || !std::isfinite(out[i])) {
      std::ostringstream os;
      os << "error bound violated at [" << i << "]: in " << in[i] << " out " << out[i]
         << " |err| " << err << " bound " << bound;
      return os.str();
    }
  }
  return std::nullopt;
}

Property<float> mpc_prop(int dim, std::size_t chunk) {
  return [dim, chunk](std::span<const float> in) -> std::optional<std::string> {
    const comp::MpcCodec codec(dim, chunk);
    std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
    const std::size_t size = codec.compress(in, buf);
    if (size > buf.size()) return "compress overran max_compressed_bytes";
    if (comp::MpcCodec::encoded_values({buf.data(), size}) != in.size()) {
      return "encoded_values header peek mismatch";
    }
    std::vector<float> out(in.size(), -99.0f);
    const std::size_t n = codec.decompress({buf.data(), size}, out);
    if (n != in.size()) return "decompress returned wrong count";
    return first_bit_divergence(in, std::span<const float>(out));
  };
}

Property<float> zfp_rate_prop(int rate) {
  return [rate](std::span<const float> in) -> std::optional<std::string> {
    if (in.empty()) return std::nullopt;  // zero-extent fields are rejected by design
    const ZfpCodec codec(rate);
    const ZfpField f = ZfpField::d1(in.size());
    std::vector<std::uint8_t> buf(codec.compressed_bytes(f));
    const std::size_t written = codec.compress(in, f, buf);
    if (written != buf.size()) return "fixed-rate size not exact";
    std::vector<float> out(in.size(), -1.0f);
    codec.decompress(buf, f, out);
    double max_abs = 0.0;
    for (float x : in) {
      if (std::isfinite(x)) max_abs = std::max(max_abs, std::fabs(static_cast<double>(x)));
    }
    return bound_divergence(in, std::span<const float>(out), codec.error_bound(max_abs));
  };
}

}  // namespace

std::vector<FloatCodecCheck> float_codec_checks() {
  std::vector<FloatCodecCheck> checks;
  for (const auto& [dim, chunk] : {std::pair<int, std::size_t>{1, 1024},
                                   {2, 1024},
                                   {4, 32},
                                   {8, 256},
                                   {32, 64}}) {
    checks.push_back({"mpc_dim" + std::to_string(dim) + "_chunk" + std::to_string(chunk),
                      false, 1u << 16, mpc_prop(dim, chunk)});
  }
  for (int rate : {4, 8, 16, 32}) {
    checks.push_back({"zfp_rate" + std::to_string(rate), true, 1u << 15, zfp_rate_prop(rate)});
  }
  return checks;
}

}  // namespace gcmpi::testing
