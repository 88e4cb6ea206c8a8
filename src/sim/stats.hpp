// Lightweight time-attribution accumulators used to regenerate the paper's
// latency-breakdown figures (Fig. 6, 8, 10): every phase of a communication
// with compression charges its virtual-time cost to a named category.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace gcmpi::sim {

/// Categories mirroring the stacked bars in the paper's breakdown figures.
enum class Phase : std::uint8_t {
  MemoryAllocation,    // cudaMalloc / cudaFree on the critical path
  DataCopies,          // cudaMemcpy / GDRCopy of sizes & compressed data
  CompressionKernel,   // GPU compression kernel execution
  DecompressionKernel, // GPU decompression kernel execution
  CombinePartitions,   // ordered D2D merges of partitioned output (MPC-OPT)
  StreamFieldCreation, // zfp_stream / zfp_field construction (CPU)
  DeviceQuery,         // get_max_grid_dims / cudaGetDeviceProperties
  Communication,       // wire time (RTS/CTS + payload)
  Other,               // protocol processing, launch/sync overheads
};

[[nodiscard]] const char* phase_name(Phase p);

/// Accumulates time per phase. Copyable value type; merge with +=.
class Breakdown {
 public:
  void add(Phase p, Time t) { totals_[static_cast<std::size_t>(p)] += t; }
  [[nodiscard]] Time get(Phase p) const { return totals_[static_cast<std::size_t>(p)]; }
  [[nodiscard]] Time total() const {
    Time sum = Time::zero();
    for (Time t : totals_) sum += t;
    return sum;
  }
  Breakdown& operator+=(const Breakdown& o) {
    for (std::size_t i = 0; i < kPhases; ++i) totals_[i] += o.totals_[i];
    return *this;
  }
  void clear() { totals_.fill(Time::zero()); }

  /// All phases with nonzero time, in enum order.
  [[nodiscard]] std::vector<std::pair<Phase, Time>> nonzero() const;

  static constexpr std::size_t kPhases = 9;

 private:
  std::array<Time, kPhases> totals_{};
};

}  // namespace gcmpi::sim
