#include "apps/awp/distributed.hpp"

#include "apps/awp/elastic.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace gcmpi::apps::awp {

using mpi::Rank;
using sim::Time;

namespace {

constexpr int kTagXm = 101, kTagXp = 102, kTagYm = 103, kTagYp = 104;

struct Neighbors {
  int xm = -1, xp = -1, ym = -1, yp = -1;
};

Neighbors neighbors_of(int rank, int px, int py) {
  const int cx = rank % px;
  const int cy = rank / px;
  Neighbors n;
  if (cx > 0) n.xm = rank - 1;
  if (cx < px - 1) n.xp = rank + 1;
  if (cy > 0) n.ym = rank - px;
  if (cy < py - 1) n.yp = rank + px;
  return n;
}

/// Exchange ghost planes of every field with the (up to) four neighbours,
/// device-buffer to device-buffer, non-blocking + waitall to avoid
/// ordering deadlocks — the AWP-ODC-OS pattern. Works for both the
/// 4-field acoustic and the 9-field elastic solver.
template <typename SolverT>
void halo_exchange(Rank& R, SolverT& solver, const Neighbors& nb, float* sxm, float* sxp,
                   float* sym, float* syp, float* rxm, float* rxp, float* rym, float* ryp) {
  const std::size_t xv = solver.x_face_values();
  const std::size_t yv = solver.y_face_values();
  std::vector<mpi::Request> reqs;
  if (nb.xm >= 0) reqs.push_back(R.irecv(rxm, xv * 4, nb.xm, kTagXp));
  if (nb.xp >= 0) reqs.push_back(R.irecv(rxp, xv * 4, nb.xp, kTagXm));
  if (nb.ym >= 0) reqs.push_back(R.irecv(rym, yv * 4, nb.ym, kTagYp));
  if (nb.yp >= 0) reqs.push_back(R.irecv(ryp, yv * 4, nb.yp, kTagYm));

  if (nb.xm >= 0) {
    solver.pack_x(false, {sxm, xv});
    reqs.push_back(R.isend(sxm, xv * 4, nb.xm, kTagXm));
  }
  if (nb.xp >= 0) {
    solver.pack_x(true, {sxp, xv});
    reqs.push_back(R.isend(sxp, xv * 4, nb.xp, kTagXp));
  }
  if (nb.ym >= 0) {
    solver.pack_y(false, {sym, yv});
    reqs.push_back(R.isend(sym, yv * 4, nb.ym, kTagYm));
  }
  if (nb.yp >= 0) {
    solver.pack_y(true, {syp, yv});
    reqs.push_back(R.isend(syp, yv * 4, nb.yp, kTagYp));
  }
  R.waitall(reqs);
  if (nb.xm >= 0) solver.unpack_x(false, {rxm, xv});
  if (nb.xp >= 0) solver.unpack_x(true, {rxp, xv});
  if (nb.ym >= 0) solver.unpack_y(false, {rym, yv});
  if (nb.yp >= 0) solver.unpack_y(true, {ryp, yv});
}

/// Device memory for `n` floats, zeroed: fresh allocations are indeterminate.
float* zeroed_floats(Rank& R, std::size_t n) {
  auto* q = static_cast<float*>(R.gpu_malloc(n * 4));
  std::memset(q, 0, n * 4);
  return q;
}

/// The half step that follows the velocity update.
void step_second_half(Solver& solver) { solver.step_pressure(); }
void step_second_half(ElasticSolver& solver) { solver.step_stress(); }

/// The distributed driver both solvers share. `make_solver` allocates the
/// solver's fields in device memory, so halo sends are device buffers; it
/// records them in `fields` (freed first at the end) and builds the solver
/// over them.
template <typename MakeSolver>
AwpReport drive(Rank& R, const AwpConfig& config, const std::string& who,
                MakeSolver make_solver) {
  const int P = R.size();
  if (config.px * config.py != P) {
    throw std::invalid_argument(who + ": px*py must equal world size");
  }
  const Grid& g = config.local;
  const int cx = R.rank() % config.px;
  const int cy = R.rank() / config.px;
  const Neighbors nb = neighbors_of(R.rank(), config.px, config.py);

  std::vector<float*> fields;
  auto solver = make_solver(fields);

  // Single moment source at the global center (Sec. VII-A).
  const auto gcx = static_cast<std::ptrdiff_t>(config.px * g.nx / 2);
  const auto gcy = static_cast<std::ptrdiff_t>(config.py * g.ny / 2);
  solver.inject_pulse(gcx - static_cast<std::ptrdiff_t>(cx * g.nx),
                      gcy - static_cast<std::ptrdiff_t>(cy * g.ny),
                      static_cast<std::ptrdiff_t>(g.nz / 2), config.pulse_amplitude,
                      config.pulse_sigma);

  const std::size_t xv = solver.x_face_values();
  const std::size_t yv = solver.y_face_values();
  auto dev_floats = [&R](std::size_t n) { return static_cast<float*>(R.gpu_malloc(n * 4)); };
  float *sxm = dev_floats(xv), *sxp = dev_floats(xv), *rxm = dev_floats(xv), *rxp = dev_floats(xv);
  float *sym = dev_floats(yv), *syp = dev_floats(yv), *rym = dev_floats(yv), *ryp = dev_floats(yv);

  // GPU compute-time charge per half step (velocity or second-half update).
  const double peak = R.gpu().spec().peak_fp32_tflops * 1e12;
  const Time half_step = Time::seconds(static_cast<double>(g.cells()) *
                                       config.model_flops_per_cell / 2.0 /
                                       (peak * config.gpu_efficiency));

  AwpReport report;
  report.ranks = P;
  report.steps = config.steps;
  report.halo_message_bytes = static_cast<double>(std::max(xv, yv) * 4);

  R.barrier();
  const Time t0 = R.now();
  Time compute_acc = Time::zero();
  Time comm_acc = Time::zero();

  for (int s = 0; s < config.steps; ++s) {
    Time c0 = R.now();
    halo_exchange(R, solver, nb, sxm, sxp, sym, syp, rxm, rxp, rym, ryp);
    comm_acc += R.now() - c0;
    solver.apply_rigid_boundary(cx == 0, cx == config.px - 1, cy == 0, cy == config.py - 1);
    solver.step_velocity();
    R.compute(half_step);
    compute_acc += half_step;

    c0 = R.now();
    halo_exchange(R, solver, nb, sxm, sxp, sym, syp, rxm, rxp, rym, ryp);
    comm_acc += R.now() - c0;
    solver.apply_rigid_boundary(cx == 0, cx == config.px - 1, cy == 0, cy == config.py - 1);
    step_second_half(solver);
    R.compute(half_step);
    compute_acc += half_step;
  }
  R.barrier();
  report.total_time = R.now() - t0;
  report.compute_time = compute_acc;
  report.comm_time = comm_acc;
  report.time_per_step_ms = report.total_time.to_ms() / config.steps;
  const double total_flops = static_cast<double>(g.cells()) * config.model_flops_per_cell *
                             config.steps * P;
  report.gpu_tflops = total_flops / report.total_time.to_seconds() / 1e12;
  report.mpc_ratio = R.compression().stats().achieved_ratio();

  // Global energy for validation (sum of local energies).
  float local_e = static_cast<float>(solver.energy());
  float global_e = 0.0f;
  R.allreduce(&local_e, &global_e, 1, mpi::ReduceOp::Sum);
  report.final_energy = global_e;

  for (float* q : fields) R.gpu_free(q);
  for (float* q : {sxm, sxp, rxm, rxp, sym, syp, rym, ryp}) R.gpu_free(q);
  return report;
}

}  // namespace

AwpReport run_awp(Rank& R, const AwpConfig& config) {
  return drive(R, config, "run_awp", [&](std::vector<float*>& fields) {
    const std::size_t store = config.local.storage();
    for (int f = 0; f < kFields; ++f) fields.push_back(zeroed_floats(R, store));
    return Solver(config.local, config.physics, {fields[0], store}, {fields[1], store},
                  {fields[2], store}, {fields[3], store});
  });
}

AwpReport run_elastic(Rank& R, const AwpConfig& config) {
  return drive(R, config, "run_elastic", [&](std::vector<float*>& fields) {
    const std::size_t store = ElasticSolver::storage_floats(config.local);
    fields.push_back(zeroed_floats(R, store));
    ElasticParams phys;
    phys.dt = config.physics.dt * 0.5;  // elastic CFL is tighter (vp > c)
    phys.dx = config.physics.dx;
    return ElasticSolver(config.local, phys, {fields[0], store});
  });
}

}  // namespace gcmpi::apps::awp
