// Seeded structured payload generators for the property/fuzz harness.
//
// Every generator is a pure function of (kind, n, seed) so a failing case
// is fully reproducible from the three numbers printed in the failure
// report. The kinds cover the regimes the paper's codecs must survive:
// smooth physical fields (the happy path), AWP-like velocity ghost planes,
// IEEE-754 edge values (NaN payload bits, infinities, denormals, signed
// zeros), long zero runs, and adversarial high-entropy noise that must not
// corrupt even when it expands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace gcmpi::testing {

enum class PayloadKind : int {
  Constant = 0,      // one repeated value (maximum compressibility)
  SmoothField,       // multi-frequency smooth signal + tiny noise
  VelocityPlane,     // AWP-like 2D velocity ghost plane, row-major
  SpecialValues,     // NaN variants, +-Inf, +-0, denormals, extremes
  ZeroRuns,          // smooth data interrupted by long all-zero runs
  HighEntropy,       // adversarial random bit patterns (incompressible)
  Plateaus,          // piecewise-constant runs from a small alphabet
  Interleaved,       // multi-field record interleaving (MPC's dim > 1 case)
  QuantizedNoise,    // small alphabet in random order (low lossless CR)
  DenormalDrift,     // values drifting through the denormal range
  kCount
};

[[nodiscard]] const char* payload_kind_name(PayloadKind kind);

/// True when every generated value is finite (safe for lossy error-bound
/// checks); SpecialValues and HighEntropy can produce NaN/Inf bits.
[[nodiscard]] bool payload_kind_finite(PayloadKind kind);

[[nodiscard]] std::vector<float> make_floats(PayloadKind kind, std::size_t n,
                                             std::uint64_t seed);

/// One drawn fuzz case: everything needed to regenerate the payload.
struct PayloadCase {
  PayloadKind kind = PayloadKind::Constant;
  std::size_t n = 0;
  std::uint64_t seed = 0;
};

/// Draw a case with size in [0, max_values]; sizes are biased toward
/// small-but-interesting lengths (0, 1, 31..33, chunk edges) plus a
/// uniform tail so chunk/tile boundaries are hit often.
[[nodiscard]] PayloadCase draw_case(sim::Rng& rng, std::size_t max_values,
                                    bool finite_only = false);

[[nodiscard]] std::string describe(const PayloadCase& c);

/// Root seed for the whole harness: $GCMPI_TEST_SEED if set (decimal or
/// 0x-hex), else a fixed default so CI runs are reproducible.
[[nodiscard]] std::uint64_t test_seed();

}  // namespace gcmpi::testing
