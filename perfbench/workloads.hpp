// The benchmark's workloads. Each drives the library's public API from one
// process: 4 MPI ranks in one mpi::World (one OS thread per rank, one
// running at a time), every rank a closed loop that waits for its own
// calls. Inputs are generated from the seed when the workload is made,
// before any timing starts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// What the modelled system did in one repetition. A pure function of the
/// seed: every repetition of one seed, traced or not, must reproduce it.
struct VirtualResult {
  std::vector<double> op_us;                          // modelled latency per operation
  std::map<std::string, std::vector<double>> call_us; // per Rank call, every rank
  std::map<std::string, double> counts;               // per-layer model counters
  double makespan_ms = 0.0;                           // modelled job time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // StatusError or failed verification
};

/// Wall-clock cost of one repetition.
struct WallResult {
  double setup_s = 0.0;  // building every World
  double run_s = 0.0;    // inside World::run, benchmark-side staging/checks excluded
  Usage setup_usage;     // getrusage deltas over the two phases
  Usage run_usage;
  std::map<std::string, double> call_wall_ms;  // rank 0's time in each Rank call
  double adapt_choose_ms = 0.0;
  double adapt_observe_ms = 0.0;
};

struct Repetition {
  VirtualResult virt;
  WallResult wall;
};

/// Wall-clock throughput of the workload's own data through the public
/// codec API, and of the solver kernels on the workload's grids.
struct Replay {
  double mpc_compress_mbps = 0.0;
  double mpc_decompress_mbps = 0.0;
  double zfp8_compress_mbps = 0.0;
  double zfp8_decompress_mbps = 0.0;
  double solver_s = 0.0;
  bool ok = true;  // lossless round trips were exact
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the World(s), run the whole job once, check every output and
  /// collect the counters. `tracer` decides whether spans are recorded.
  virtual Repetition run(Tracer& tracer) = 0;
  /// Replay the workload's payloads (and solver steps) outside the
  /// simulator, recording spans on `tracer`.
  virtual Replay replay(Tracer& tracer) = 0;
};

/// Generate the inputs of workload `name` from `seed`; throws on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

}  // namespace perfbench
