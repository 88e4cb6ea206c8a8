// Distributed AWP proxy: 2D (X,Y) domain decomposition with CUDA-aware
// halo exchange through MiniMPI, the communication pattern of AWP-ODC-OS
// ("passing device buffers directly to MPI_Isend without an explicit
// copy", Sec. VII-A). Reports the paper's metrics: averaged run time per
// time step and GPU computing flops.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/awp/solver.hpp"
#include "mpi/world.hpp"

namespace gcmpi::apps::awp {

struct AwpConfig {
  Grid local;             // interior cells per rank (weak scaling unit)
  int px = 1, py = 1;     // process grid; px*py must equal world size
  int steps = 8;
  PhysicsParams physics{};
  double pulse_amplitude = 1.0;
  double pulse_sigma = 3.0;

  /// GPU-time charge per cell per step. Default calibrated so that the
  /// baseline compute/communication split matches Fig. 2(b) (compute is
  /// roughly 55-75% of a step at the paper's scales).
  static constexpr double model_flops_per_cell = Solver::kModelFlopsPerCell;
  static constexpr double gpu_efficiency = 0.018;  // fraction of peak FP32 sustained
};

struct AwpReport {
  int ranks = 0;
  int steps = 0;
  sim::Time total_time;
  sim::Time compute_time;        // max over ranks
  sim::Time comm_time;           // max over ranks
  double time_per_step_ms = 0.0;
  double gpu_tflops = 0.0;       // aggregate "GPU computing flops"
  double halo_message_bytes = 0; // largest halo message
  double mpc_ratio = 0.0;        // achieved compression ratio (rank 0)
  double final_energy = 0.0;     // for validation
};

/// Run the distributed simulation on the calling rank; collective — every
/// rank of the world must call it with the same config. The returned
/// report is complete on rank 0 (reduced), partial elsewhere.
AwpReport run_awp(mpi::Rank& R, const AwpConfig& config);

}  // namespace gcmpi::apps::awp
