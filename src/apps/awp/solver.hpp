// AWP-ODC proxy: a real 3D acoustic velocity-stress finite-difference wave
// solver (staggered grid, leapfrog in time).
//
// The paper's application study runs AWP-ODC-OS (anelastic wave
// propagation) on GPUs with CUDA-aware MPI halo exchange. We reproduce the
// communication/computation structure with an acoustic (4-field) kernel:
// the wavefields are real floating-point data evolving by a real PDE, so
// the halo messages have exactly the smooth, highly-MPC-compressible
// character the paper reports (CR 3 to 31); GPU compute time is charged
// from a flops model (see DistributedAwp).
//
// Fields on the staggered grid (local box nx*ny*nz + 1-cell ghost shell):
//   p           pressure at cell centers
//   vx, vy, vz  particle velocities at face centers
// Update (leapfrog):
//   v += -(dt/rho) * grad(p);   p += -(K*dt) * div(v)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gcmpi::apps::awp {

struct Grid {
  std::size_t nx = 0, ny = 0, nz = 0;  // interior cells
  [[nodiscard]] std::size_t cells() const { return nx * ny * nz; }
  // Storage includes a 1-cell ghost shell on every side.
  [[nodiscard]] std::size_t sx() const { return nx + 2; }
  [[nodiscard]] std::size_t sy() const { return ny + 2; }
  [[nodiscard]] std::size_t sz() const { return nz + 2; }
  [[nodiscard]] std::size_t storage() const { return sx() * sy() * sz(); }
  /// Linear index of (i,j,k), each in [-1, n+1) interior coordinates.
  [[nodiscard]] std::size_t at(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) const {
    return (static_cast<std::size_t>(k + 1) * sy() + static_cast<std::size_t>(j + 1)) * sx() +
           static_cast<std::size_t>(i + 1);
  }
};

struct PhysicsParams {
  double dt = 0.3;       // CFL-stable for c = dx = 1
  double dx = 1.0;
  double c = 1.0;        // wave speed
  double rho = 1.0;      // density
  [[nodiscard]] double bulk_modulus() const { return c * c * rho; }
};

/// Which of the four fields; used by the halo packing helpers.
enum class Field : std::uint8_t { P = 0, Vx = 1, Vy = 2, Vz = 3 };
inline constexpr int kFields = 4;

/// The Gaussian pulse's term for each squared distance r2 = min_r2,
/// min_r2 + 1, ...: static_cast<float>(amplitude * std::exp(-r2 / (2 sigma^2))),
/// computed exactly so. The table stops after `max_r2`, or earlier where the
/// term provably rounds to static_cast<float>(amplitude * 0.0) for that and
/// every larger r2.
[[nodiscard]] std::vector<float> pulse_terms(std::uint64_t min_r2, std::uint64_t max_r2,
                                             double amplitude, double sigma);

/// Single-domain solver operating on caller-provided field storage (the
/// distributed driver allocates the fields in simulated GPU memory). The
/// four fields' storage must not overlap.
class Solver {
 public:
  Solver(Grid grid, PhysicsParams params, std::span<float> p, std::span<float> vx,
         std::span<float> vy, std::span<float> vz);

  [[nodiscard]] const Grid& grid() const { return grid_; }

  /// Gaussian pressure pulse centered at interior cell (ci,cj,ck).
  void inject_pulse(std::ptrdiff_t ci, std::ptrdiff_t cj, std::ptrdiff_t ck,
                    double amplitude, double sigma);

  /// One leapfrog step, interior only; ghost cells must be current.
  void step_velocity();
  void step_pressure();

  /// Zero-velocity (rigid) boundary on the physical edges of the global
  /// domain; the distributed driver applies this only on non-shared faces.
  void apply_rigid_boundary(bool lo_x, bool hi_x, bool lo_y, bool hi_y);

  /// Total discrete energy (kinetic + potential), for conservation tests.
  [[nodiscard]] double energy() const;

  [[nodiscard]] std::span<float> field(Field f);
  [[nodiscard]] std::span<const float> field(Field f) const;

  // --- halo packing: X faces are (ny*nz) planes, Y faces (nx*nz) planes.
  // All four fields are packed into one buffer per direction, which is what
  // the paper's CUDA-aware halo exchange sends as a single large message.
  [[nodiscard]] std::size_t x_face_values() const { return grid_.ny * grid_.nz * kFields; }
  [[nodiscard]] std::size_t y_face_values() const { return grid_.nx * grid_.nz * kFields; }
  /// Pack interior plane i = 0 (low) or i = nx-1 (high) of every field.
  void pack_x(bool high, std::span<float> out) const;
  /// Unpack into ghost plane i = -1 (low) or i = nx (high).
  void unpack_x(bool high, std::span<const float> in);
  void pack_y(bool high, std::span<float> out) const;
  void unpack_y(bool high, std::span<const float> in);

  /// Flops per cell per full step of the modeled (anelastic, 4th order)
  /// production kernel — used for the GPU-time charge, not the CPU work.
  static constexpr double kModelFlopsPerCell = 307.0;

 private:
  Grid grid_;
  PhysicsParams params_;
  std::span<float> p_, vx_, vy_, vz_;
};

}  // namespace gcmpi::apps::awp
