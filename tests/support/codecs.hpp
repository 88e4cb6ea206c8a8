// Uniform round-trip properties for the two codecs in src/compress, shaped
// for the property harness: each entry is a named Property that compresses
// a float32 payload, decompresses it, and validates either bit-exactness
// (MPC) or the codec's published error bound (ZFP fixed rate). The fuzz
// suite iterates these against all payload kinds; the failure message
// pinpoints the first diverging value.
#pragma once

#include <string>
#include <vector>

#include "support/property.hpp"

namespace gcmpi::testing {

struct FloatCodecCheck {
  std::string name;
  bool finite_only = false;   // lossy codecs sanitize NaN/Inf; bound checks
                              // only make sense on finite payloads
  std::size_t max_values = 1u << 16;
  Property<float> prop;
};

/// All float32 codec round-trip properties: MPC at several dimensionalities
/// and chunk sizes, and fixed-rate ZFP at every paper rate.
[[nodiscard]] std::vector<FloatCodecCheck> float_codec_checks();

}  // namespace gcmpi::testing
