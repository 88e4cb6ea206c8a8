#include "net/cluster.hpp"

#include "gpu/device.hpp"

namespace gcmpi::net {

ClusterSpec longhorn(int nodes, int gpus_per_node) {
  ClusterSpec c;
  c.name = "Longhorn (V100, NVLink, IB-EDR)";
  c.nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.gpu = gpu::v100_spec();
  c.intra = nvlink3();
  c.inter = ib_edr();
  return c;
}

ClusterSpec frontera_liquid(int nodes, int gpus_per_node) {
  ClusterSpec c;
  c.name = "Frontera Liquid (RTX5000, PCIe, IB-FDR)";
  c.nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.gpu = gpu::rtx5000_spec();
  c.intra = pcie3_x16();
  c.inter = ib_fdr();
  return c;
}

ClusterSpec lassen(int nodes, int gpus_per_node) {
  ClusterSpec c;
  c.name = "Lassen (V100, NVLink, IB-EDR)";
  c.nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.gpu = gpu::v100_spec();
  c.intra = nvlink3();
  c.inter = ib_edr();
  return c;
}

ClusterSpec ri2(int nodes, int gpus_per_node) {
  ClusterSpec c;
  c.name = "RI2 (V100, PCIe host bridge, IB-EDR)";
  c.nodes = nodes;
  c.gpus_per_node = gpus_per_node;
  c.gpu = gpu::v100_spec();
  c.intra = pcie3_x16();
  c.inter = ib_edr();
  return c;
}

Fabric::Fabric(const ClusterSpec& spec) : spec_(spec) {
  if (spec_.nodes < 1 || spec_.gpus_per_node < 1) {
    throw std::invalid_argument("Fabric: bad cluster dimensions");
  }
  node_tx_.resize(static_cast<std::size_t>(spec_.nodes));
  node_rx_.resize(static_cast<std::size_t>(spec_.nodes));
  gpu_tx_.resize(static_cast<std::size_t>(spec_.ranks()));
  gpu_rx_.resize(static_cast<std::size_t>(spec_.ranks()));
}

Fabric::Port& Fabric::tx_port(int src, int dst) {
  return spec_.same_node(src, dst) ? gpu_tx_[static_cast<std::size_t>(src)]
                                   : node_tx_[static_cast<std::size_t>(spec_.node_of(src))];
}

Fabric::Port& Fabric::rx_port(int src, int dst) {
  return spec_.same_node(src, dst) ? gpu_rx_[static_cast<std::size_t>(dst)]
                                   : node_rx_[static_cast<std::size_t>(spec_.node_of(dst))];
}

Time Fabric::occupy_and_arrive(Time earliest, int src_rank, int dst_rank,
                               std::uint64_t bytes, Time* start_out, Time* wire_out) {
  const LinkSpec& link = route(src_rank, dst_rank);
  Port& tx = tx_port(src_rank, dst_rank);
  Port& rx = rx_port(src_rank, dst_rank);
  Time start = earliest;
  if (tx.busy_until > start) start = tx.busy_until;
  if (rx.busy_until > start) start = rx.busy_until;
  const Time wire = link.wire_time(bytes) + link.per_message_overhead;
  tx.busy_until = start + wire;
  rx.busy_until = start + wire;
  bytes_moved_ += bytes;
  if (start_out != nullptr) *start_out = start;
  if (wire_out != nullptr) *wire_out = wire;
  return start + wire + link.latency;
}

Time Fabric::transfer(Time earliest, int src_rank, int dst_rank, std::uint64_t bytes) {
  if (src_rank == dst_rank) return earliest;  // self-send: no wire
  Time at = occupy_and_arrive(earliest, src_rank, dst_rank, bytes);
  if (fault_ != nullptr) at += fault_->timing_fault(src_rank, dst_rank);
  return at;
}

Time Fabric::control(Time earliest, int src_rank, int dst_rank, std::uint64_t bytes) {
  if (src_rank != dst_rank) ++control_packets_;
  return transfer(earliest, src_rank, dst_rank, bytes);
}

Fabric::Delivery Fabric::transfer_data(Time earliest, int src_rank, int dst_rank,
                                       std::uint64_t bytes) {
  Delivery d;
  if (src_rank == dst_rank) {
    d.at = earliest;
    d.start = earliest;
    return d;
  }
  d.at = occupy_and_arrive(earliest, src_rank, dst_rank, bytes, &d.start, &d.wire);
  if (fault_ != nullptr) {
    const auto f =
        fault_->on_data_packet(src_rank, dst_rank, !spec_.same_node(src_rank, dst_rank));
    d.dropped = f.drop;
    d.corrupted = f.corrupt;
    d.corrupt_bits = f.corrupt_bits;
    d.at += f.extra_latency;
  }
  return d;
}

Time Fabric::estimate(int src_rank, int dst_rank, std::uint64_t bytes) const {
  if (src_rank == dst_rank) return Time::zero();
  const LinkSpec& link = route(src_rank, dst_rank);
  return link.wire_time(bytes) + link.per_message_overhead + link.latency;
}

}  // namespace gcmpi::net
