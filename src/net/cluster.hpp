// Cluster topology: `nodes` x `gpus_per_node` GPUs, an intra-node link
// between GPUs of the same node, an inter-node link between nodes, plus
// the Fabric that tracks port occupancy for deterministic contention.
//
// One MPI rank maps to one GPU (block distribution: rank r lives on node
// r / gpus_per_node), matching the paper's "N nodes, P ppn" runs.
#pragma once

#include <cstdint>
#include <ranges>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "gpu/cost_model.hpp"
#include "net/link.hpp"
#include "sim/time.hpp"

namespace gcmpi::net {

using sim::Time;

struct ClusterSpec {
  std::string name;
  int nodes = 2;
  int gpus_per_node = 1;
  gpu::GpuSpec gpu;
  LinkSpec intra;  // GPU <-> GPU within a node (NVLink or PCIe)
  LinkSpec inter;  // node <-> node (InfiniBand)

  [[nodiscard]] int ranks() const { return nodes * gpus_per_node; }
  [[nodiscard]] int node_of(int rank) const { return rank / gpus_per_node; }
  [[nodiscard]] bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  /// Lowest rank on `rank`'s node: the node's representative in the
  /// hierarchical collectives' inter-node leader ring.
  [[nodiscard]] int node_leader(int rank) const { return node_of(rank) * gpus_per_node; }
  /// The ranks on `node` in rank order, leader first: gpus_per_node
  /// consecutive ranks under the block distribution.
  [[nodiscard]] auto node_ranks(int node) const {
    return std::views::iota(node * gpus_per_node, (node + 1) * gpus_per_node);
  }
};

/// TACC Longhorn: V100, NVLink intra-node, IB EDR inter-node.
[[nodiscard]] ClusterSpec longhorn(int nodes, int gpus_per_node);
/// TACC Frontera "Liquid" subsystem: Quadro RTX 5000, PCIe, IB FDR.
[[nodiscard]] ClusterSpec frontera_liquid(int nodes, int gpus_per_node);
/// LLNL Lassen: V100, NVLink, IB EDR (dual-rail modeled as single EDR).
[[nodiscard]] ClusterSpec lassen(int nodes, int gpus_per_node);
/// OSU RI2: V100 on PCIe host bridge, IB EDR.
[[nodiscard]] ClusterSpec ri2(int nodes, int gpus_per_node);

/// Port-occupancy tracker. For every transfer it serializes on the source
/// egress port and destination ingress port of the traversed link and
/// returns the arrival time of the last byte.
class Fabric {
 public:
  explicit Fabric(const ClusterSpec& spec);

  /// Move `bytes` from `src_rank` to `dst_rank` starting no earlier than
  /// `earliest`. Returns arrival time of the full message. Subject to the
  /// installed fault injector's latency spikes but never dropped or
  /// corrupted — the eager/control plane is modeled as link-level
  /// reliable, like small-MTU IB packets.
  [[nodiscard]] Time transfer(Time earliest, int src_rank, int dst_rank,
                              std::uint64_t bytes);

  /// Small control message (RTS/CTS/NACK): pays latency + overhead and a
  /// negligible serialization term, but still ordered through the ports so
  /// protocol messages cannot overtake each other.
  [[nodiscard]] Time control(Time earliest, int src_rank, int dst_rank,
                             std::uint64_t bytes = 64);

  /// Outcome of a data-plane transfer under fault injection. `at` is the
  /// would-be arrival time; when `dropped` the packet still occupied the
  /// ports (it was transmitted, then lost) but must not be delivered.
  struct Delivery {
    Time at;
    bool dropped = false;
    bool corrupted = false;
    std::uint64_t corrupt_bits = 0;  // entropy for picking the flipped bit
    // Port-occupancy span of this packet (serialization + per-message
    // overhead, after any degraded-link stretch). Chunked pipelined sends
    // sum these to report wire-stage busy time: back-to-back chunks queue
    // on the same tx/rx ports, so consecutive spans tile the link.
    Time start;
    Time wire;
  };

  /// Like transfer(), but for rendezvous payload packets: consults the
  /// fault injector for drop/corruption verdicts in addition to the timing
  /// faults. Identical to transfer() when no injector is installed.
  [[nodiscard]] Delivery transfer_data(Time earliest, int src_rank, int dst_rank,
                                       std::uint64_t bytes);

  /// Nominal unloaded time for `bytes` over the route (no port queueing,
  /// no faults): the receiver-side basis for retransmission timeouts.
  [[nodiscard]] Time estimate(int src_rank, int dst_rank, std::uint64_t bytes) const;

  /// Install (or clear, with nullptr) the deterministic fault injector.
  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  [[nodiscard]] const ClusterSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t bytes_moved() const { return bytes_moved_; }
  /// Count of control-plane packets (RTS/CTS/NACK/credit grants) that hit
  /// the wire. Warm persistent channels are asserted against this: an
  /// iteration on fully warmed channels must not move the counter.
  [[nodiscard]] std::uint64_t control_packets() const { return control_packets_; }

 private:
  struct Port {
    Time busy_until = Time::zero();
  };
  [[nodiscard]] const LinkSpec& route(int src, int dst) const {
    return spec_.same_node(src, dst) ? spec_.intra : spec_.inter;
  }
  Port& tx_port(int src, int dst);
  Port& rx_port(int src, int dst);
  /// Shared port/serialization core: occupies the ports and returns the
  /// arrival time (before any latency spike).
  /// `start_out`/`wire_out` report the occupancy window when non-null.
  Time occupy_and_arrive(Time earliest, int src_rank, int dst_rank, std::uint64_t bytes,
                         Time* start_out = nullptr, Time* wire_out = nullptr);

  ClusterSpec spec_;
  // Inter-node: one egress + one ingress port per node (the IB HCA).
  std::vector<Port> node_tx_, node_rx_;
  // Intra-node: one port per GPU endpoint (NVLink/PCIe lane).
  std::vector<Port> gpu_tx_, gpu_rx_;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t control_packets_ = 0;
  fault::FaultInjector* fault_ = nullptr;  // non-owning; nullptr = perfect fabric
};

}  // namespace gcmpi::net
