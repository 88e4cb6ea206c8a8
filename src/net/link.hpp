// Interconnect link model (LogGP-flavoured): a transfer of S bytes costs
//   latency + overhead + S / bandwidth
// and serializes on the sender-side and receiver-side port resources, so
// concurrent transfers through one NIC or NVLink queue behind each other.
// This is what makes the model saturate exactly like the paper's Fig. 2(a).
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace gcmpi::net {

using sim::Time;

struct LinkSpec {
  std::string name;
  double bandwidth_gbs = 12.5;     // one-way payload bandwidth
  Time latency = Time::us(1.5);    // propagation + switch
  Time per_message_overhead = Time::us(0.8);

  /// Pure serialization (port occupancy) time for `bytes`.
  [[nodiscard]] Time wire_time(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, bandwidth_gbs);
  }
};

// --- presets used by the paper's four clusters ---

[[nodiscard]] inline LinkSpec ib_edr() {
  return {"InfiniBand EDR", 12.5, Time::us(1.5), Time::us(0.8)};
}
[[nodiscard]] inline LinkSpec ib_fdr() {
  return {"InfiniBand FDR", 6.8, Time::us(1.7), Time::us(0.9)};
}
[[nodiscard]] inline LinkSpec nvlink3() {  // 3-lane NVLink2 (Sierra/Longhorn class)
  return {"NVLink 3-lane", 75.0, Time::us(1.0), Time::us(0.4)};
}
[[nodiscard]] inline LinkSpec pcie3_x16() {
  return {"PCIe Gen3 x16", 10.5, Time::us(1.3), Time::us(0.6)};
}

}  // namespace gcmpi::net
