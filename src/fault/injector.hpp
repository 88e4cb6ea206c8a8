// FaultInjector: turns a FaultPlan into a deterministic fault schedule.
//
// Every decision is drawn from an independent counter-based stream keyed by
// (decision kind, src, dst): the verdict for the Nth data packet from rank
// A to rank B is a pure function of (seed, kind, A, B, N). Interleaving
// traffic on other links therefore cannot perturb a link's fault schedule,
// which is what makes "same seed => same fault schedule" hold at the level
// of individual transfers, not just whole runs.
//
// The simulator consults the injector at well-defined points:
//   * net::Fabric::transfer_data  -> on_data_packet (drop/corrupt/spike)
//   * net::Fabric::transfer       -> timing_fault   (spike only)
//   * core::CompressionManager    -> on_compress / on_decompress
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fault/plan.hpp"
#include "sim/time.hpp"

namespace gcmpi::fault {

/// Verdict for one data packet.
struct PacketFault {
  bool drop = false;
  bool corrupt = false;
  std::uint64_t corrupt_bits = 0;  // raw entropy; caller mods by payload bits
  sim::Time extra_latency = sim::Time::zero();
};

/// Verdict for one sender-side compression operation.
struct CodecFault {
  bool fail = false;      // kernel failure: no compressed output at all
  bool truncate = false;  // kernel reported a short/invalid output
  [[nodiscard]] bool any() const { return fail || truncate; }
};

/// Injection counters, for tests and the chaos bench. The inter_node_*
/// counters split out the packets whose src and dst sit on different nodes
/// (as reported by the Fabric), so topology-aware collectives can assert
/// their IB transit budget — e.g. hierarchical bcast must show exactly
/// nodes-1 inter-node data packets plus the inter-node retransmits.
struct FaultStats {
  std::uint64_t data_packets = 0;
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t inter_node_data_packets = 0;
  std::uint64_t inter_node_drops = 0;
  std::uint64_t inter_node_corruptions = 0;
  std::uint64_t latency_spikes = 0;
  std::uint64_t compress_faults = 0;
  std::uint64_t decompress_faults = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Per-data-packet verdict (rendezvous payload push src -> dst).
  /// `inter_node` feeds the inter_node_* stats split; it does NOT change
  /// the verdict draw, so fault schedules are unchanged.
  PacketFault on_data_packet(int src, int dst, bool inter_node = false);

  /// Extra propagation latency for any non-data packet src -> dst.
  sim::Time timing_fault(int src, int dst);

  /// Sender-side codec verdict for one compression of `bytes`.
  CodecFault on_compress(int rank);

  /// Receiver-side verdict: true when the decompression kernel fails.
  bool on_decompress(int rank);

 private:
  enum class Stream : std::uint8_t {
    Drop = 1,
    Corrupt,
    CorruptBits,
    DataLatency,
    ControlLatency,
    CompressFail,
    CompressTruncate,
    DecompressFail,
  };

  /// Next raw 64-bit draw on the (stream, a, b) decision stream.
  std::uint64_t draw_u64(Stream s, int a, int b);
  /// Next uniform [0,1) draw on the (stream, a, b) decision stream.
  double draw(Stream s, int a, int b);

  FaultPlan plan_;
  FaultStats stats_;
  std::unordered_map<std::uint64_t, std::uint64_t> counters_;
};

}  // namespace gcmpi::fault
