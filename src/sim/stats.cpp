#include "sim/stats.hpp"

namespace gcmpi::sim {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::MemoryAllocation: return "Memory Allocation";
    case Phase::DataCopies: return "Data Copies (compressed)";
    case Phase::CompressionKernel: return "Compression Kernel";
    case Phase::DecompressionKernel: return "Decompression Kernel";
    case Phase::CombinePartitions: return "Combine data partitions";
    case Phase::StreamFieldCreation: return "zfp_stream/field creation";
    case Phase::DeviceQuery: return "get_max_grid_dims";
    case Phase::Communication: return "Comm & Other (wire)";
    case Phase::Other: return "Other (protocol)";
  }
  return "?";
}

std::vector<std::pair<Phase, Time>> Breakdown::nonzero() const {
  std::vector<std::pair<Phase, Time>> out;
  for (std::size_t i = 0; i < kPhases; ++i) {
    if (totals_[i] > Time::zero()) out.emplace_back(static_cast<Phase>(i), totals_[i]);
  }
  return out;
}

}  // namespace gcmpi::sim
