// FaultPlan: the declarative description of everything that is allowed to
// go wrong in a simulated run — per-packet wire faults (drop, payload bit
// corruption, latency spikes) and per-operation codec faults (compression
// kernel failure, truncated output, decompression kernel failure).
//
// A plan is pure data; the seeded FaultInjector turns it into a
// deterministic fault schedule. No plan installed == a perfect fabric,
// and every protocol path is bit-identical to a build without the fault
// subsystem at all (see the reliability section of DESIGN.md).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace gcmpi::fault {

struct FaultPlan {
  std::uint64_t seed = 1;

  // --- per data packet (rendezvous payload transfers) ---
  double drop_probability = 0.0;
  double corrupt_probability = 0.0;  // one flipped payload bit per hit

  // --- per packet, any kind (data, eager, RTS/CTS/NACK control) ---
  double latency_spike_probability = 0.0;
  sim::Time latency_spike = sim::Time::us(50);

  // --- per codec operation ---
  double compress_fail_probability = 0.0;      // kernel launch/exec failure
  double compress_truncate_probability = 0.0;  // kernel reports short output
  double decompress_fail_probability = 0.0;    // receiver-side kernel failure

  /// Lossy-wire preset: `drop` / `corrupt` per data packet.
  [[nodiscard]] static FaultPlan lossy(std::uint64_t seed, double drop, double corrupt) {
    FaultPlan p;
    p.seed = seed;
    p.drop_probability = drop;
    p.corrupt_probability = corrupt;
    return p;
  }

  /// Flaky-codec preset: compression kernels fail with probability `fail`.
  [[nodiscard]] static FaultPlan flaky_codec(std::uint64_t seed, double fail) {
    FaultPlan p;
    p.seed = seed;
    p.compress_fail_probability = fail;
    return p;
  }
};

}  // namespace gcmpi::fault
