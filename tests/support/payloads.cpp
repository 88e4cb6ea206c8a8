#include "support/payloads.hpp"

#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace gcmpi::testing {

namespace {

float from_bits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

std::vector<float> constant(std::size_t n, sim::Rng& rng) {
  const float v = static_cast<float>(rng.uniform(-1e4, 1e4));
  return std::vector<float>(n, v);
}

std::vector<float> smooth(std::size_t n, sim::Rng& rng) {
  const double f1 = rng.uniform(0.001, 0.05);
  const double f2 = rng.uniform(0.0001, 0.01);
  const double amp = rng.uniform(0.1, 1e3);
  const double noise = rng.uniform(0.0, 1e-4);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    v[i] = static_cast<float>(amp * (std::sin(f1 * x) + 0.3 * std::cos(f2 * x)) +
                              amp * noise * rng.normal());
  }
  return v;
}

// A ghost-zone plane of an AWP-style 3D staggered-grid velocity field:
// spatially correlated in two axes, a few propagating wavelets, tiny
// material noise. Flattened row-major like the solver's halo packing.
std::vector<float> velocity_plane(std::size_t n, sim::Rng& rng) {
  std::size_t nx = 1;
  while ((nx + 1) * (nx + 1) <= n) ++nx;
  const std::size_t ny = nx == 0 ? 0 : (n + nx - 1) / nx;
  const int wavelets = 2 + static_cast<int>(rng.next_below(4));
  std::vector<double> cx(static_cast<std::size_t>(wavelets)), cy(cx.size()),
      sigma(cx.size()), amp(cx.size()), k(cx.size());
  for (std::size_t w = 0; w < cx.size(); ++w) {
    cx[w] = rng.uniform(0.0, static_cast<double>(nx));
    cy[w] = rng.uniform(0.0, static_cast<double>(ny));
    sigma[w] = rng.uniform(2.0, 12.0);
    amp[w] = rng.uniform(0.01, 5.0);
    k[w] = rng.uniform(0.1, 0.9);
  }
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % nx);
    const double y = static_cast<double>(i / nx);
    double val = 0.0;
    for (std::size_t w = 0; w < cx.size(); ++w) {
      const double dx = x - cx[w], dy = y - cy[w];
      const double r2 = (dx * dx + dy * dy) / (2.0 * sigma[w] * sigma[w]);
      val += amp[w] * std::exp(-r2) * std::cos(k[w] * (dx + dy));
    }
    v[i] = static_cast<float>(val * (1.0 + 1e-6 * rng.normal()));
  }
  return v;
}

std::vector<float> special_values(std::size_t n, sim::Rng& rng) {
  static const float kEdge[] = {
      0.0f, -0.0f,
      std::numeric_limits<float>::infinity(), -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      from_bits(0x7f800001u),  // signaling-NaN bit pattern
      from_bits(0xffc12345u),  // negative NaN with payload bits
      std::numeric_limits<float>::denorm_min(), -std::numeric_limits<float>::denorm_min(),
      from_bits(0x007fffffu),  // largest denormal
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(), 1.0f, -1.0f,
  };
  std::vector<float> v(n);
  for (auto& x : v) {
    if (rng.next_double() < 0.7) {
      x = kEdge[rng.next_below(sizeof(kEdge) / sizeof(kEdge[0]))];
    } else {
      x = static_cast<float>(rng.normal());
    }
  }
  return v;
}

std::vector<float> zero_runs(std::size_t n, sim::Rng& rng) {
  auto v = smooth(n, rng);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t live = rng.next_below(200) + 1;
    const std::size_t dead = rng.next_below(400) + 1;
    i += live;
    for (std::size_t j = i; j < n && j < i + dead; ++j) v[j] = 0.0f;
    i += dead;
  }
  return v;
}

std::vector<float> high_entropy(std::size_t n, sim::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = from_bits(rng.next_u32());
  return v;
}

std::vector<float> plateaus(std::size_t n, sim::Rng& rng) {
  const int levels = 2 + static_cast<int>(rng.next_below(14));
  std::vector<float> alphabet(static_cast<std::size_t>(levels));
  for (auto& a : alphabet) a = static_cast<float>(rng.uniform(-100.0, 100.0));
  std::vector<float> v(n);
  std::size_t i = 0;
  while (i < n) {
    const float level = alphabet[rng.next_below(alphabet.size())];
    const std::size_t run = rng.next_below(64) + 1;
    for (std::size_t j = i; j < n && j < i + run; ++j) v[j] = level;
    i += run;
  }
  return v;
}

std::vector<float> interleaved(std::size_t n, sim::Rng& rng) {
  const int fields = 2 + static_cast<int>(rng.next_below(7));
  std::vector<double> freq(static_cast<std::size_t>(fields)), amp(freq.size());
  for (std::size_t f = 0; f < freq.size(); ++f) {
    freq[f] = rng.uniform(0.001, 0.1);
    amp[f] = rng.uniform(0.5, 50.0);
  }
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = i % freq.size();
    v[i] = static_cast<float>(amp[f] * std::sin(freq[f] * static_cast<double>(i / freq.size())));
  }
  return v;
}

std::vector<float> quantized_noise(std::size_t n, sim::Rng& rng) {
  const int unique = 4 + static_cast<int>(rng.next_below(60));
  std::vector<float> alphabet(static_cast<std::size_t>(unique));
  for (auto& a : alphabet) a = static_cast<float>(rng.normal() * 10.0);
  std::vector<float> v(n);
  for (auto& x : v) x = alphabet[rng.next_below(alphabet.size())];
  return v;
}

std::vector<float> denormal_drift(std::size_t n, sim::Rng& rng) {
  std::vector<float> v(n);
  std::uint32_t bits = static_cast<std::uint32_t>(rng.next_below(0x007fffffu));
  for (auto& x : v) {
    bits = (bits + static_cast<std::uint32_t>(rng.next_below(7))) & 0x007fffffu;
    x = from_bits(bits | (rng.next_double() < 0.5 ? 0x80000000u : 0u));
  }
  return v;
}

}  // namespace

const char* payload_kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::Constant: return "constant";
    case PayloadKind::SmoothField: return "smooth_field";
    case PayloadKind::VelocityPlane: return "velocity_plane";
    case PayloadKind::SpecialValues: return "special_values";
    case PayloadKind::ZeroRuns: return "zero_runs";
    case PayloadKind::HighEntropy: return "high_entropy";
    case PayloadKind::Plateaus: return "plateaus";
    case PayloadKind::Interleaved: return "interleaved";
    case PayloadKind::QuantizedNoise: return "quantized_noise";
    case PayloadKind::DenormalDrift: return "denormal_drift";
    case PayloadKind::kCount: break;
  }
  return "?";
}

bool payload_kind_finite(PayloadKind kind) {
  return kind != PayloadKind::SpecialValues && kind != PayloadKind::HighEntropy;
}

std::vector<float> make_floats(PayloadKind kind, std::size_t n, std::uint64_t seed) {
  // Decorrelate the per-case stream from the kind so equal seeds across
  // kinds do not yield related sequences.
  sim::Rng rng(seed * 0x100000001b3ULL + static_cast<std::uint64_t>(kind));
  switch (kind) {
    case PayloadKind::Constant: return constant(n, rng);
    case PayloadKind::SmoothField: return smooth(n, rng);
    case PayloadKind::VelocityPlane: return velocity_plane(n, rng);
    case PayloadKind::SpecialValues: return special_values(n, rng);
    case PayloadKind::ZeroRuns: return zero_runs(n, rng);
    case PayloadKind::HighEntropy: return high_entropy(n, rng);
    case PayloadKind::Plateaus: return plateaus(n, rng);
    case PayloadKind::Interleaved: return interleaved(n, rng);
    case PayloadKind::QuantizedNoise: return quantized_noise(n, rng);
    case PayloadKind::DenormalDrift: return denormal_drift(n, rng);
    case PayloadKind::kCount: break;
  }
  return {};
}

PayloadCase draw_case(sim::Rng& rng, std::size_t max_values, bool finite_only) {
  PayloadCase c;
  do {
    c.kind = static_cast<PayloadKind>(rng.next_below(static_cast<std::uint64_t>(PayloadKind::kCount)));
  } while (finite_only && !payload_kind_finite(c.kind));
  // Bias toward boundary lengths: empty, singletons, 32/64-tile edges, and
  // MPC chunk edges; otherwise log-uniform up to max_values.
  static const std::size_t kEdges[] = {0, 1, 2, 3, 4, 5, 31, 32, 33, 63, 64, 65,
                                       127, 128, 129, 1023, 1024, 1025, 4095, 4096, 4097};
  if (rng.next_double() < 0.35) {
    c.n = kEdges[rng.next_below(sizeof(kEdges) / sizeof(kEdges[0]))];
    if (c.n > max_values) c.n = max_values;
  } else {
    const double lo = 1.0, hi = std::log2(static_cast<double>(max_values < 2 ? 2 : max_values));
    c.n = static_cast<std::size_t>(std::pow(2.0, rng.uniform(lo, hi)));
    if (c.n > max_values) c.n = max_values;
  }
  c.seed = rng.next_u64();
  return c;
}

std::string describe(const PayloadCase& c) {
  return std::string(payload_kind_name(c.kind)) + " n=" + std::to_string(c.n) +
         " seed=" + std::to_string(c.seed);
}

std::uint64_t test_seed() {
  if (const char* env = std::getenv("GCMPI_TEST_SEED"); env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return 0xC0DECULL;
}

}  // namespace gcmpi::testing
