#include "apps/awp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <stdexcept>

namespace gcmpi::apps::awp {

namespace {

bool overlaps(std::span<const float> a, std::span<const float> b) {
  const std::less<const float*> before;
  return before(a.data(), b.data() + b.size()) && before(b.data(), a.data() + a.size());
}

/// Smallest |i - c| over i in [0, n).
std::ptrdiff_t nearest(std::ptrdiff_t c, std::size_t n) {
  return std::abs(c - std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(n) - 1));
}

/// Largest |i - c| over i in [0, n).
std::ptrdiff_t farthest(std::ptrdiff_t c, std::size_t n) {
  return std::max(std::abs(c), std::abs(static_cast<std::ptrdiff_t>(n) - 1 - c));
}

// Row kernels: one (j, k) row of interior cells, every pointer at the row's
// first cell (or at its neighbour in the direction the name gives). The
// constructor rejects overlapping fields, which is what makes `__restrict`
// hold and lets the compiler vectorise; each element's expression is the
// per-cell one, so the bits do not depend on whether it does.

void velocity_row(std::size_t n, float coef, const float* __restrict p,
                  const float* __restrict p_jp, const float* __restrict p_kp,
                  float* __restrict vx, float* __restrict vy, float* __restrict vz) {
  for (std::size_t i = 0; i < n; ++i) {
    vx[i] += coef * (p[i + 1] - p[i]);
    vy[i] += coef * (p_jp[i] - p[i]);
    vz[i] += coef * (p_kp[i] - p[i]);
  }
}

void pressure_row(std::size_t n, float coef, const float* __restrict vx,
                  const float* __restrict vx_im, const float* __restrict vy,
                  const float* __restrict vy_jm, const float* __restrict vz,
                  const float* __restrict vz_km, float* __restrict p) {
  for (std::size_t i = 0; i < n; ++i) {
    const float div = (vx[i] - vx_im[i]) + (vy[i] - vy_jm[i]) + (vz[i] - vz_km[i]);
    p[i] += coef * div;
  }
}

}  // namespace

std::vector<float> pulse_terms(std::uint64_t min_r2, std::uint64_t max_r2, double amplitude,
                               double sigma) {
  const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
  // Past this exponent |amplitude * exp(-x)| < 2^-150 / e, which rounds to
  // a float zero with amplitude's sign. The factor e covers the rounding of
  // exp and of this bound by a wide margin. Degenerate inputs need no case
  // of their own: a zero amplitude (bound -inf) stops at the first finite
  // exponent, a non-finite one (bound NaN or +inf) never stops, and a NaN
  // exponent (sigma NaN, or r2 = 0 with sigma 0) is always computed.
  const double cutoff = std::log(std::fabs(amplitude)) + 150.0 * std::numbers::ln2 + 1.0;
  // The per-cell expression, so that a NaN exponent keeps its sign bit.
  const auto exponent = [inv2s2](std::uint64_t r2) { return -static_cast<double>(r2) * inv2s2; };
  std::uint64_t end = min_r2;
  while (end <= max_r2 && !(exponent(end) < -cutoff)) ++end;  // the exponent only falls
  // Sized before it is filled: growing it call after call fragments the
  // heap (+0.6 MiB peak RSS on awp-halo).
  std::vector<float> terms(end - min_r2);
  for (std::uint64_t r2 = min_r2; r2 < end; ++r2) {
    terms[r2 - min_r2] = static_cast<float>(amplitude * std::exp(exponent(r2)));
  }
  return terms;
}

Solver::Solver(Grid grid, PhysicsParams params, std::span<float> p, std::span<float> vx,
               std::span<float> vy, std::span<float> vz)
    : grid_(grid), params_(params), p_(p), vx_(vx), vy_(vy), vz_(vz) {
  if (grid_.nx == 0 || grid_.ny == 0 || grid_.nz == 0) {
    throw std::invalid_argument("Solver: empty grid");
  }
  const std::size_t need = grid_.storage();
  if (p.size() < need || vx.size() < need || vy.size() < need || vz.size() < need) {
    throw std::invalid_argument("Solver: field storage too small");
  }
  const std::span<const float> used[kFields] = {p.first(need), vx.first(need), vy.first(need),
                                                vz.first(need)};
  for (int a = 0; a < kFields; ++a) {
    for (int b = a + 1; b < kFields; ++b) {
      if (overlaps(used[a], used[b])) throw std::invalid_argument("Solver: fields overlap");
    }
  }
  const double cfl = params_.c * params_.dt / params_.dx * std::sqrt(3.0);
  if (cfl >= 1.0) throw std::invalid_argument("Solver: CFL condition violated");
}

std::span<float> Solver::field(Field f) {
  switch (f) {
    case Field::P: return p_;
    case Field::Vx: return vx_;
    case Field::Vy: return vy_;
    case Field::Vz: return vz_;
  }
  throw std::logic_error("bad field");
}

std::span<const float> Solver::field(Field f) const {
  return const_cast<Solver*>(this)->field(f);
}

void Solver::inject_pulse(std::ptrdiff_t ci, std::ptrdiff_t cj, std::ptrdiff_t ck,
                          double amplitude, double sigma) {
  // The term depends on the cell only through its integer r2: compute it
  // once per r2 that can matter, and past the table add the signed zero
  // that amplitude * exp(-r2 / (2 sigma^2)) rounds to there. Every cell is
  // still added to: -0.0f + +0.0f is +0.0f.
  const auto r2_bound = [&](auto axis) {
    const std::ptrdiff_t i = axis(ci, grid_.nx), j = axis(cj, grid_.ny), k = axis(ck, grid_.nz);
    return static_cast<std::uint64_t>(i * i + j * j + k * k);
  };
  const std::uint64_t min_r2 = r2_bound(nearest);
  const std::vector<float> terms = pulse_terms(min_r2, r2_bound(farthest), amplitude, sigma);
  const float zero = static_cast<float>(amplitude * 0.0);
  for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
      const std::ptrdiff_t r2_jk = (j - cj) * (j - cj) + (k - ck) * (k - ck);
      float* row = p_.data() + grid_.at(0, j, k);
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(grid_.nx); ++i) {
        const auto r2 = static_cast<std::uint64_t>((i - ci) * (i - ci) + r2_jk);
        row[i] += r2 - min_r2 < terms.size() ? terms[r2 - min_r2] : zero;
      }
    }
  }
}

void Solver::step_velocity() {
  const float coef = static_cast<float>(-params_.dt / (params_.rho * params_.dx));
  const std::size_t sx = grid_.sx(), plane = sx * grid_.sy();
  for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
      const std::size_t c = grid_.at(0, j, k);
      const float* p = p_.data() + c;
      velocity_row(grid_.nx, coef, p, p + sx, p + plane, vx_.data() + c, vy_.data() + c,
                   vz_.data() + c);
    }
  }
}

void Solver::step_pressure() {
  const float coef = static_cast<float>(-params_.bulk_modulus() * params_.dt / params_.dx);
  const std::size_t sx = grid_.sx(), plane = sx * grid_.sy();
  for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
      const std::size_t c = grid_.at(0, j, k);
      const float *vx = vx_.data() + c, *vy = vy_.data() + c, *vz = vz_.data() + c;
      pressure_row(grid_.nx, coef, vx, vx - 1, vy, vy - sx, vz, vz - plane, p_.data() + c);
    }
  }
}

void Solver::apply_rigid_boundary(bool lo_x, bool hi_x, bool lo_y, bool hi_y) {
  const auto nx = static_cast<std::ptrdiff_t>(grid_.nx);
  const auto ny = static_cast<std::ptrdiff_t>(grid_.ny);
  const auto nz = static_cast<std::ptrdiff_t>(grid_.nz);
  // Mirror pressure into the ghost shell (zero normal gradient) and zero
  // the normal velocity at the wall: a rigid, energy-conserving boundary.
  for (std::ptrdiff_t k = -1; k <= nz; ++k) {
    for (std::ptrdiff_t j = -1; j <= ny; ++j) {
      if (lo_x) {
        p_[grid_.at(-1, j, k)] = p_[grid_.at(0, j, k)];
        vx_[grid_.at(-1, j, k)] = 0.0f;
      }
      if (hi_x) {
        p_[grid_.at(nx, j, k)] = p_[grid_.at(nx - 1, j, k)];
        vx_[grid_.at(nx, j, k)] = 0.0f;
      }
    }
  }
  for (std::ptrdiff_t k = -1; k <= nz; ++k) {
    for (std::ptrdiff_t i = -1; i <= nx; ++i) {
      if (lo_y) {
        p_[grid_.at(i, -1, k)] = p_[grid_.at(i, 0, k)];
        vy_[grid_.at(i, -1, k)] = 0.0f;
      }
      if (hi_y) {
        p_[grid_.at(i, ny, k)] = p_[grid_.at(i, ny - 1, k)];
        vy_[grid_.at(i, ny, k)] = 0.0f;
      }
    }
  }
  // Z boundaries are always physical (the paper decomposes in X/Y only).
  for (std::ptrdiff_t j = -1; j <= ny; ++j) {
    for (std::ptrdiff_t i = -1; i <= nx; ++i) {
      p_[grid_.at(i, j, -1)] = p_[grid_.at(i, j, 0)];
      vz_[grid_.at(i, j, -1)] = 0.0f;
      p_[grid_.at(i, j, nz)] = p_[grid_.at(i, j, nz - 1)];
      vz_[grid_.at(i, j, nz)] = 0.0f;
    }
  }
}

double Solver::energy() const {
  const double k_bulk = params_.bulk_modulus();
  double e = 0.0;
  const auto nx = static_cast<std::ptrdiff_t>(grid_.nx);
  const auto ny = static_cast<std::ptrdiff_t>(grid_.ny);
  const auto nz = static_cast<std::ptrdiff_t>(grid_.nz);
  for (std::ptrdiff_t k = 0; k < nz; ++k) {
    for (std::ptrdiff_t j = 0; j < ny; ++j) {
      for (std::ptrdiff_t i = 0; i < nx; ++i) {
        const std::size_t c = grid_.at(i, j, k);
        const double pv = p_[c];
        const double v2 = static_cast<double>(vx_[c]) * vx_[c] +
                          static_cast<double>(vy_[c]) * vy_[c] +
                          static_cast<double>(vz_[c]) * vz_[c];
        e += 0.5 * (pv * pv / k_bulk + params_.rho * v2);
      }
    }
  }
  return e;
}

void Solver::pack_x(bool high, std::span<float> out) const {
  if (out.size() < x_face_values()) throw std::invalid_argument("pack_x: buffer too small");
  const std::ptrdiff_t i = high ? static_cast<std::ptrdiff_t>(grid_.nx) - 1 : 0;
  std::size_t w = 0;
  const std::span<const float> fields[kFields] = {p_, vx_, vy_, vz_};
  for (const auto& f : fields) {
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
        out[w++] = f[grid_.at(i, j, k)];
      }
    }
  }
}

void Solver::unpack_x(bool high, std::span<const float> in) {
  if (in.size() < x_face_values()) throw std::invalid_argument("unpack_x: buffer too small");
  const std::ptrdiff_t i = high ? static_cast<std::ptrdiff_t>(grid_.nx) : -1;
  std::size_t w = 0;
  const std::span<float> fields[kFields] = {p_, vx_, vy_, vz_};
  for (const auto& f : fields) {
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
        f[grid_.at(i, j, k)] = in[w++];
      }
    }
  }
}

void Solver::pack_y(bool high, std::span<float> out) const {
  if (out.size() < y_face_values()) throw std::invalid_argument("pack_y: buffer too small");
  const std::ptrdiff_t j = high ? static_cast<std::ptrdiff_t>(grid_.ny) - 1 : 0;
  std::size_t w = 0;
  const std::span<const float> fields[kFields] = {p_, vx_, vy_, vz_};
  for (const auto& f : fields) {
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(grid_.nx); ++i) {
        out[w++] = f[grid_.at(i, j, k)];
      }
    }
  }
}

void Solver::unpack_y(bool high, std::span<const float> in) {
  if (in.size() < y_face_values()) throw std::invalid_argument("unpack_y: buffer too small");
  const std::ptrdiff_t j = high ? static_cast<std::ptrdiff_t>(grid_.ny) : -1;
  std::size_t w = 0;
  const std::span<float> fields[kFields] = {p_, vx_, vy_, vz_};
  for (const auto& f : fields) {
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(grid_.nx); ++i) {
        f[grid_.at(i, j, k)] = in[w++];
      }
    }
  }
}

}  // namespace gcmpi::apps::awp
