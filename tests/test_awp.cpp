// AWP proxy tests: physics sanity of the wave solver, bitwise equality of
// its kernels with per-cell reference loops, a pinned digest of its fields,
// and exact equivalence between the serial solver and the distributed
// (halo-exchange) run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "apps/awp/distributed.hpp"
#include "apps/awp/solver.hpp"
#include "mpi/world.hpp"
#include "sim/rng.hpp"
#include "support/sha256.hpp"

namespace {

using namespace gcmpi;
using namespace gcmpi::apps::awp;

struct Fields {
  Grid g;
  std::vector<float> p, vx, vy, vz;
  explicit Fields(Grid grid)
      : g(grid), p(g.storage(), 0.0f), vx(g.storage(), 0.0f), vy(g.storage(), 0.0f),
        vz(g.storage(), 0.0f) {}
  Solver solver(PhysicsParams params = {}) { return {g, params, p, vx, vy, vz}; }
  [[nodiscard]] bool bitwise_equal(const Fields& o) const {
    const auto same = [](const std::vector<float>& a, const std::vector<float>& b) {
      return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * 4) == 0;
    };
    return same(p, o.p) && same(vx, o.vx) && same(vy, o.vy) && same(vz, o.vz);
  }
};

/// Every value of every field, ghost shell included: uniform in [-1, 1),
/// with one draw in 16 a signed zero (so `-0.0f + +0.0f` shows).
void fill_random(Fields& f, sim::Rng& rng) {
  for (auto* v : {&f.p, &f.vx, &f.vy, &f.vz}) {
    for (float& x : *v) {
      const std::uint64_t r = rng.next_u64();
      x = (r & 15) == 0 ? ((r & 16) != 0 ? -0.0f : 0.0f)
                        : static_cast<float>(static_cast<double>(r >> 11) * 0x1.0p-52 - 1.0);
    }
  }
}

/// The solver's kernels as per-cell index loops, kept verbatim as the
/// reference the solver must match bit for bit.
struct ReferenceKernels {
  Grid grid_;
  PhysicsParams params_;
  std::span<float> p_, vx_, vy_, vz_;

  ReferenceKernels(Fields& f, PhysicsParams params)
      : grid_(f.g), params_(params), p_(f.p), vx_(f.vx), vy_(f.vy), vz_(f.vz) {}

  void inject_pulse(std::ptrdiff_t ci, std::ptrdiff_t cj, std::ptrdiff_t ck,
                    double amplitude, double sigma) {
    const double inv2s2 = 1.0 / (2.0 * sigma * sigma);
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(grid_.nz); ++k) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(grid_.ny); ++j) {
        for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(grid_.nx); ++i) {
          const double r2 = static_cast<double>((i - ci) * (i - ci) + (j - cj) * (j - cj) +
                                                (k - ck) * (k - ck));
          p_[grid_.at(i, j, k)] += static_cast<float>(amplitude * std::exp(-r2 * inv2s2));
        }
      }
    }
  }

  void step_velocity() {
    const float coef = static_cast<float>(-params_.dt / (params_.rho * params_.dx));
    const auto nx = static_cast<std::ptrdiff_t>(grid_.nx);
    const auto ny = static_cast<std::ptrdiff_t>(grid_.ny);
    const auto nz = static_cast<std::ptrdiff_t>(grid_.nz);
    for (std::ptrdiff_t k = 0; k < nz; ++k) {
      for (std::ptrdiff_t j = 0; j < ny; ++j) {
        for (std::ptrdiff_t i = 0; i < nx; ++i) {
          const std::size_t c = grid_.at(i, j, k);
          vx_[c] += coef * (p_[grid_.at(i + 1, j, k)] - p_[c]);
          vy_[c] += coef * (p_[grid_.at(i, j + 1, k)] - p_[c]);
          vz_[c] += coef * (p_[grid_.at(i, j, k + 1)] - p_[c]);
        }
      }
    }
  }

  void step_pressure() {
    const float coef = static_cast<float>(-params_.bulk_modulus() * params_.dt / params_.dx);
    const auto nx = static_cast<std::ptrdiff_t>(grid_.nx);
    const auto ny = static_cast<std::ptrdiff_t>(grid_.ny);
    const auto nz = static_cast<std::ptrdiff_t>(grid_.nz);
    for (std::ptrdiff_t k = 0; k < nz; ++k) {
      for (std::ptrdiff_t j = 0; j < ny; ++j) {
        for (std::ptrdiff_t i = 0; i < nx; ++i) {
          const std::size_t c = grid_.at(i, j, k);
          const float div = (vx_[c] - vx_[grid_.at(i - 1, j, k)]) +
                            (vy_[c] - vy_[grid_.at(i, j - 1, k)]) +
                            (vz_[c] - vz_[grid_.at(i, j, k - 1)]);
          p_[c] += coef * div;
        }
      }
    }
  }
};

TEST(AwpSolver, RejectsBadSetups) {
  Fields f({8, 8, 8});
  PhysicsParams bad;
  bad.dt = 1.0;  // violates CFL
  EXPECT_THROW(f.solver(bad), std::invalid_argument);
  std::vector<float> tiny(8);
  EXPECT_THROW(Solver({8, 8, 8}, {}, tiny, tiny, tiny, tiny), std::invalid_argument);
}

TEST(AwpSolver, RejectsOverlappingFields) {
  const Grid g{4, 3, 2};
  const std::size_t n = g.storage();
  std::vector<float> buf(4 * n, 0.0f);
  const std::span<float> all(buf);
  // The row kernels take the fields as `__restrict` pointers.
  EXPECT_NO_THROW(Solver(g, {}, all.subspan(0, n), all.subspan(n, n), all.subspan(2 * n, n),
                         all.subspan(3 * n, n)));
  // Spans may reach past the grid's storage into the next field.
  EXPECT_NO_THROW(Solver(g, {}, all, all.subspan(n), all.subspan(2 * n), all.subspan(3 * n)));
  EXPECT_THROW(Solver(g, {}, all.subspan(0, n), all.subspan(n - 1, n), all.subspan(2 * n, n),
                      all.subspan(3 * n, n)),
               std::invalid_argument);
  EXPECT_THROW(Solver(g, {}, all.subspan(3 * n, n), all.subspan(n, n), all.subspan(2 * n, n),
                      all.subspan(3 * n, n)),
               std::invalid_argument);
  EXPECT_THROW(Solver(g, {}, all.subspan(0, n), all.subspan(0, n), all.subspan(0, n),
                      all.subspan(0, n)),
               std::invalid_argument);
}

TEST(AwpSolver, InjectPulseMatchesPerCellReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double amplitudes[] = {1.3, -0.7, 1e-30, 1e30, 1e-300, 0.0, -0.0, kInf, kNaN};
  // 1e-200 squares to zero: the same infinite 1/(2 sigma^2) as sigma 0.
  const double sigmas[] = {0.25, 0.7, 2.5, 9.0, 64.0, 0.0, 1e-200, kInf, kNaN};
  const Grid grids[] = {{9, 7, 11}, {1, 4, 3}};
  sim::Rng rng(0x9a1u);
  int cases = 0, mismatches = 0;
  for (const Grid& g : grids) {
    const auto nx = static_cast<std::ptrdiff_t>(g.nx);
    const auto ny = static_cast<std::ptrdiff_t>(g.ny);
    const auto nz = static_cast<std::ptrdiff_t>(g.nz);
    // Inside, on the box's corners and faces, and far outside it.
    const std::ptrdiff_t centres[][3] = {{nx / 2, ny / 2, nz / 2}, {0, 0, 0},
                                         {nx - 1, ny - 1, nz - 1}, {-1, ny / 2, nz},
                                         {-300, 2, 1}, {nx / 2, 500, -20}};
    for (const auto& c : centres) {
      for (const double a : amplitudes) {
        for (const double sigma : sigmas) {
          Fields got(g);
          fill_random(got, rng);
          Fields want = got;
          got.solver().inject_pulse(c[0], c[1], c[2], a, sigma);
          ReferenceKernels(want, {}).inject_pulse(c[0], c[1], c[2], a, sigma);
          ++cases;
          if (!got.bitwise_equal(want)) {
            ++mismatches;
            ADD_FAILURE() << "grid " << g.nx << "x" << g.ny << "x" << g.nz << " centre (" << c[0]
                          << "," << c[1] << "," << c[2] << ") amplitude " << a << " sigma "
                          << sigma;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 6 * 9 * 9);
  EXPECT_EQ(mismatches, 0);
}

TEST(AwpSolver, PulseTableStopsAtTheBoxOrTheCutoff) {
  // The pulse's r2 range on the 9x7x11 box centred at (4, 3, 5) above is
  // [0, 50]. sigma 64 puts the cut-off far past it: the table stops at the box.
  EXPECT_EQ(pulse_terms(0, 50, 1.0, 64.0).size(), 51u);
  EXPECT_EQ(pulse_terms(40, 50, 1.0, 64.0).size(), 11u);
  // sigma 0.25: the cut-off is ln(1) + 150 ln 2 + 1 ~ 105 exponent units,
  // r2 > 105 / 8 ~ 13.1, so the table holds r2 0..13 and the terms after it
  // are +0.0f.
  EXPECT_EQ(pulse_terms(0, 50, 1.0, 0.25).size(), 14u);
  for (std::uint64_t r2 = 14; r2 <= 50; ++r2) {
    const float term = static_cast<float>(1.0 * std::exp(-static_cast<double>(r2) * 8.0));
    EXPECT_TRUE(term == 0.0f && !std::signbit(term)) << r2;
  }
  // A box entirely past the cut-off needs no term at all.
  EXPECT_TRUE(pulse_terms(1000, 2000, 1.0, 0.25).empty());
}

TEST(AwpSolver, StencilsMatchPerCellReference) {
  PhysicsParams other;
  other.dt = 0.2;
  other.dx = 1.1;
  other.c = 0.9;
  other.rho = 1.7;
  sim::Rng rng(0x57e9u);
  // Row lengths around the vector widths, so the remainder loops run.
  for (const std::size_t nx : {1u, 2u, 3u, 5u, 17u}) {
    for (const Grid& g : {Grid{nx, 3, 4}, Grid{nx, 1, 2}}) {
      for (const PhysicsParams& params : {PhysicsParams{}, other}) {
        Fields got(g);
        fill_random(got, rng);
        Fields want = got;
        Solver s = got.solver(params);
        ReferenceKernels ref(want, params);
        for (int step = 0; step < 3; ++step) {
          s.step_velocity();
          ref.step_velocity();
          s.step_pressure();
          ref.step_pressure();
        }
        EXPECT_TRUE(got.bitwise_equal(want))
            << "grid " << g.nx << "x" << g.ny << "x" << g.nz << " dt " << params.dt;
      }
    }
  }
}

/// The fields after pulses and a few full halo/boundary/step cycles on the
/// six awp-halo grids, short rows and a pulse centred outside the box, as one
/// SHA-256 over every value, ghosts included. Held without re-recording: a
/// kernel rewrite must leave every bit of it in place.
TEST(AwpSolver, FieldsMatchPinnedDigest) {
  const Grid shapes[] = {{8, 32, 512}, {4, 64, 256}, {16, 16, 128}, {8, 30, 256}, {8, 34, 256},
                         {4, 32, 128}, {1, 6, 5},    {3, 4, 7},     {17, 3, 4}};
  sim::Rng rng(0xa3b0u);
  std::string bytes;
  for (const Grid& g : shapes) {
    Fields f(g);
    fill_random(f, rng);
    Solver s = f.solver();
    const auto nx = static_cast<std::ptrdiff_t>(g.nx);
    const auto ny = static_cast<std::ptrdiff_t>(g.ny);
    const auto nz = static_cast<std::ptrdiff_t>(g.nz);
    s.inject_pulse(nx / 2, ny / 2, nz / 2, 1.3, 2.7);
    s.inject_pulse(-4, ny + 3, nz / 3, -0.8, 3.5);
    std::vector<float> xf(s.x_face_values()), yf(s.y_face_values());
    // Each face lands in the opposite ghost plane, as with periodic neighbours.
    const auto exchange = [&](bool odd) {
      s.pack_x(true, xf);
      s.unpack_x(false, xf);
      s.pack_x(false, xf);
      s.unpack_x(true, xf);
      s.pack_y(true, yf);
      s.unpack_y(false, yf);
      s.pack_y(false, yf);
      s.unpack_y(true, yf);
      s.apply_rigid_boundary(odd, !odd, !odd, odd);
    };
    for (int cycle = 0; cycle < 3; ++cycle) {
      exchange(cycle % 2 == 1);
      s.step_velocity();
      exchange(cycle % 2 == 0);
      s.step_pressure();
    }
    for (const auto* v : {&f.p, &f.vx, &f.vy, &f.vz}) {
      bytes.append(reinterpret_cast<const char*>(v->data()), v->size() * sizeof(float));
    }
  }
  EXPECT_EQ(gcmpi::testing::sha256_hex(
                {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()}),
            "04ad4410900664c3c62ca3090ef116fc1f17ca8c0761cc74b6b456cef9766f01");
}

TEST(AwpSolver, QuiescentFieldStaysQuiescent) {
  Fields f({8, 8, 8});
  auto s = f.solver();
  for (int i = 0; i < 10; ++i) {
    s.apply_rigid_boundary(true, true, true, true);
    s.step_velocity();
    s.step_pressure();
  }
  for (float x : f.p) EXPECT_EQ(x, 0.0f);
  for (float x : f.vx) EXPECT_EQ(x, 0.0f);
}

TEST(AwpSolver, PulsePropagatesOutward) {
  Fields f({24, 24, 24});
  auto s = f.solver();
  s.inject_pulse(12, 12, 12, 1.0, 2.0);
  const float p_center_before = f.p[f.g.at(12, 12, 12)];
  const float p_far_before = std::fabs(f.p[f.g.at(2, 2, 2)]);
  for (int i = 0; i < 30; ++i) {
    s.apply_rigid_boundary(true, true, true, true);
    s.step_velocity();
    s.apply_rigid_boundary(true, true, true, true);
    s.step_pressure();
  }
  const float p_center_after = f.p[f.g.at(12, 12, 12)];
  float p_far_after = 0;
  for (std::ptrdiff_t k = 0; k < 24; ++k) p_far_after = std::max(p_far_after, std::fabs(f.p[f.g.at(2, 2, k)]));
  EXPECT_LT(std::fabs(p_center_after), p_center_before);  // pulse left the center
  EXPECT_GT(p_far_after, p_far_before);                   // ... and reached far cells
}

TEST(AwpSolver, EnergyStaysBounded) {
  Fields f({16, 16, 16});
  auto s = f.solver();
  s.inject_pulse(8, 8, 8, 1.0, 2.5);
  const double e0 = s.energy();
  ASSERT_GT(e0, 0.0);
  for (int i = 0; i < 100; ++i) {
    s.apply_rigid_boundary(true, true, true, true);
    s.step_velocity();
    s.apply_rigid_boundary(true, true, true, true);
    s.step_pressure();
  }
  const double e1 = s.energy();
  EXPECT_TRUE(std::isfinite(e1));
  EXPECT_GT(e1, 0.3 * e0);  // no blow-up, no collapse
  EXPECT_LT(e1, 1.7 * e0);
}

TEST(AwpSolver, PackUnpackRoundTrip) {
  Fields a({6, 8, 10}), b({6, 8, 10});
  auto sa = a.solver();
  auto sb = b.solver();
  sa.inject_pulse(3, 4, 5, 1.0, 1.5);
  std::vector<float> buf(sa.x_face_values());
  sa.pack_x(true, buf);
  sb.unpack_x(false, buf);
  // b's low-x ghost plane now equals a's high-x interior plane.
  for (std::ptrdiff_t k = 0; k < 10; ++k) {
    for (std::ptrdiff_t j = 0; j < 8; ++j) {
      EXPECT_EQ(b.p[b.g.at(-1, j, k)], a.p[a.g.at(5, j, k)]);
    }
  }
  std::vector<float> ybuf(sa.y_face_values());
  sa.pack_y(false, ybuf);
  sb.unpack_y(true, ybuf);
  for (std::ptrdiff_t k = 0; k < 10; ++k) {
    for (std::ptrdiff_t i = 0; i < 6; ++i) {
      EXPECT_EQ(b.p[b.g.at(i, 8, k)], a.p[a.g.at(i, 0, k)]);
    }
  }
}

/// The load-bearing test: a 2x2 distributed run must produce bit-identical
/// fields to a serial run of the same global problem.
TEST(AwpDistributed, MatchesSerialBitwise) {
  const Grid local{8, 8, 12};
  const int px = 2, py = 2;
  const Grid global{local.nx * px, local.ny * py, local.nz};
  const int steps = 6;

  // Serial reference.
  Fields ref(global);
  auto rs = ref.solver();
  rs.inject_pulse(static_cast<std::ptrdiff_t>(global.nx / 2),
                  static_cast<std::ptrdiff_t>(global.ny / 2),
                  static_cast<std::ptrdiff_t>(global.nz / 2), 1.0, 3.0);
  for (int s = 0; s < steps; ++s) {
    rs.apply_rigid_boundary(true, true, true, true);
    rs.step_velocity();
    rs.apply_rigid_boundary(true, true, true, true);
    rs.step_pressure();
  }

  // Distributed run, collecting each rank's interior pressure.
  sim::Engine engine;
  mpi::World world(engine, net::longhorn(4, 1), core::CompressionConfig::off());
  std::vector<std::vector<float>> interior(4);
  world.run([&](mpi::Rank& R) {
    // Replicates run_awp's exact stepping order using the public pieces so
    // the final per-rank fields can be captured for comparison.
    const int cx = R.rank() % px, cy = R.rank() / px;
    Fields f(local);
    auto s = f.solver();
    s.inject_pulse(static_cast<std::ptrdiff_t>(global.nx / 2) - cx * static_cast<std::ptrdiff_t>(local.nx),
                   static_cast<std::ptrdiff_t>(global.ny / 2) - cy * static_cast<std::ptrdiff_t>(local.ny),
                   static_cast<std::ptrdiff_t>(local.nz / 2), 1.0, 3.0);

    const std::size_t xv = s.x_face_values(), yv = s.y_face_values();
    std::vector<float> sxm(xv), sxp(xv), rxm(xv), rxp(xv), sym(yv), syp(yv), rym(yv), ryp(yv);
    const int xm = cx > 0 ? R.rank() - 1 : -1;
    const int xp = cx < px - 1 ? R.rank() + 1 : -1;
    const int ym = cy > 0 ? R.rank() - px : -1;
    const int yp = cy < py - 1 ? R.rank() + px : -1;

    auto exchange = [&] {
      std::vector<mpi::Request> reqs;
      if (xm >= 0) reqs.push_back(R.irecv(rxm.data(), xv * 4, xm, 2));
      if (xp >= 0) reqs.push_back(R.irecv(rxp.data(), xv * 4, xp, 1));
      if (ym >= 0) reqs.push_back(R.irecv(rym.data(), yv * 4, ym, 4));
      if (yp >= 0) reqs.push_back(R.irecv(ryp.data(), yv * 4, yp, 3));
      if (xm >= 0) { s.pack_x(false, sxm); reqs.push_back(R.isend(sxm.data(), xv * 4, xm, 1)); }
      if (xp >= 0) { s.pack_x(true, sxp); reqs.push_back(R.isend(sxp.data(), xv * 4, xp, 2)); }
      if (ym >= 0) { s.pack_y(false, sym); reqs.push_back(R.isend(sym.data(), yv * 4, ym, 3)); }
      if (yp >= 0) { s.pack_y(true, syp); reqs.push_back(R.isend(syp.data(), yv * 4, yp, 4)); }
      R.waitall(reqs);
      if (xm >= 0) s.unpack_x(false, rxm);
      if (xp >= 0) s.unpack_x(true, rxp);
      if (ym >= 0) s.unpack_y(false, rym);
      if (yp >= 0) s.unpack_y(true, ryp);
    };

    for (int st = 0; st < steps; ++st) {
      exchange();
      s.apply_rigid_boundary(cx == 0, cx == px - 1, cy == 0, cy == py - 1);
      s.step_velocity();
      exchange();
      s.apply_rigid_boundary(cx == 0, cx == px - 1, cy == 0, cy == py - 1);
      s.step_pressure();
    }

    // Extract interior pressure.
    auto& out = interior[static_cast<std::size_t>(R.rank())];
    out.resize(local.cells());
    std::size_t w = 0;
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(local.nz); ++k) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(local.ny); ++j) {
        for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(local.nx); ++i) {
          out[w++] = f.p[f.g.at(i, j, k)];
        }
      }
    }
  });

  // Compare each rank's interior against the serial reference, bitwise.
  int mismatches = 0;
  for (int r = 0; r < 4; ++r) {
    const int cx = r % px, cy = r / px;
    std::size_t w = 0;
    for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(local.nz); ++k) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(local.ny); ++j) {
        for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(local.nx); ++i) {
          const float expect =
              ref.p[global.at(i + cx * static_cast<std::ptrdiff_t>(local.nx),
                              j + cy * static_cast<std::ptrdiff_t>(local.ny), k)];
          if (std::memcmp(&expect, &interior[static_cast<std::size_t>(r)][w], 4) != 0) {
            ++mismatches;
          }
          ++w;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(AwpDistributed, RunAwpReportsSaneMetrics) {
  sim::Engine engine;
  mpi::World world(engine, net::longhorn(4, 2), core::CompressionConfig::off());
  AwpReport report;
  world.run([&](mpi::Rank& R) {
    AwpConfig cfg;
    cfg.local = {12, 12, 16};
    cfg.px = 4;
    cfg.py = 2;
    cfg.steps = 4;
    auto rep = apps::awp::run_awp(R, cfg);
    if (R.rank() == 0) report = rep;
  });
  EXPECT_EQ(report.ranks, 8);
  EXPECT_GT(report.total_time, sim::Time::zero());
  EXPECT_GT(report.gpu_tflops, 0.0);
  EXPECT_GT(report.final_energy, 0.0f);
  EXPECT_GT(report.compute_time, sim::Time::zero());
  EXPECT_GT(report.comm_time, sim::Time::zero());
}

TEST(AwpDistributed, CompressionPreservesPhysicsExactly) {
  // MPC is lossless, so the distributed run with compression must equal the
  // one without, bit for bit (energy is a sufficient proxy here).
  auto run_one = [&](core::CompressionConfig cfg) {
    sim::Engine engine;
    mpi::World world(engine, net::longhorn(4, 1), cfg);
    float energy = 0;
    world.run([&](mpi::Rank& R) {
      AwpConfig c;
      c.local = {10, 10, 64};
      c.px = 2;
      c.py = 2;
      c.steps = 5;
      auto rep = apps::awp::run_awp(R, c);
      if (R.rank() == 0) energy = static_cast<float>(rep.final_energy);
    });
    return energy;
  };
  core::CompressionConfig mpc = core::CompressionConfig::mpc_opt();
  mpc.threshold_bytes = 4096;  // halo faces here are small
  const float e_base = run_one(core::CompressionConfig::off());
  const float e_mpc = run_one(mpc);
  EXPECT_EQ(e_base, e_mpc);
}

}  // namespace

namespace {

TEST(AwpDistributed, ZfpLossRatesMatchPaperAccuracyClaim) {
  // Sec. VII-A: lower ZFP rates give more speedup but "would generate
  // incorrect output as it exceeds the lowest precision AWP-ODC can
  // tolerate". Rate 16 must track the exact result closely; rate 4 must
  // visibly distort the physics (while staying finite).
  auto energy_with = [&](core::CompressionConfig cfg) {
    sim::Engine engine;
    cfg.threshold_bytes = 4096;
    mpi::World world(engine, net::longhorn(4, 1), cfg);
    double energy = 0;
    world.run([&](mpi::Rank& R) {
      AwpConfig c;
      // Faces must exceed the eager threshold so the halo actually takes
      // the compressed rendezvous path: 20*96*4 fields*4B = ~30KB.
      c.local = {12, 20, 96};
      c.px = 2;
      c.py = 2;
      c.steps = 8;
      auto rep = apps::awp::run_awp(R, c);
      if (R.rank() == 0) energy = rep.final_energy;
    });
    return energy;
  };
  const double exact = energy_with(core::CompressionConfig::off());
  const double r16 = energy_with(core::CompressionConfig::zfp_opt(16));
  const double r4 = energy_with(core::CompressionConfig::zfp_opt(4));
  ASSERT_GT(exact, 0.0);
  const double err16 = std::fabs(r16 - exact) / exact;
  const double err4 = std::fabs(r4 - exact) / exact;
  EXPECT_LT(err16, 0.02);      // rate 16: physically faithful
  EXPECT_GT(err4, 2 * err16);  // rate 4: clearly degraded accuracy
  EXPECT_TRUE(std::isfinite(r4));
}

}  // namespace
