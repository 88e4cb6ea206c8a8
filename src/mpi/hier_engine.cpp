// Hierarchical moving collectives: topology-aware bcast / allgather /
// gather / scatter staged at one representative per node.
//
// Flat schedules send one (possibly compressed) message per remote RANK
// across the inter-node fabric, so a node with G GPUs pushes or pulls G
// copies of the same traffic through its shared IB NIC. The hierarchical
// schedules here move exactly ONE wire transit per remote NODE:
//
//   bcast      root compresses once; the wire form hops core::binomial_tree
//              over node representatives (IB), then fans out intra-node
//              over NVLink; each node decodes once, off the inter-node
//              critical path.
//   allgather  members stage blocks at their node leader; the leader ring
//              (ring_allgather_members) circulates node SLABS in wire form
//              (nodes-1 IB transits per leader); the assembled vector fans
//              back out intra-node.
//   gather     members stage blocks at the leader; each leader ships one
//              assembled slab to the root (nodes-1 IB transits total).
//   scatter    the root batch-compresses one slab per remote node in a
//              single kernel launch (isend_batched); leaders fan the
//              blocks out intra-node.
//
// The leaders' two intra-node steps have one home each: collect_node_blocks
// (allgather and gather staging) and hand_back (the allgather and
// allreduce fan-out). Every body accounts its stages on one
// Rank::Collective.
//
// Intra-node hops honor the compress_intra_node gate: when it is off the
// staging traffic moves raw over NVLink (make_intra_wire), exactly like
// the point-to-point path. Every inter-node hop is a WireMessage on the
// rendezvous reliability layer, so per-hop CRC/NACK/retransmit recovery
// applies unchanged — a corrupted slab re-pushes only itself.
//
// Selection: Rank::select_collective with the op's row (DESIGN.md §9,
// "Collective selection"). A Hierarchical answer on a one-level topology,
// forced or adaptive, runs the flat path, bit-identically.
#include <cstring>
#include <ranges>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

namespace {

/// The ranks of `rank`'s node after its leader, in rank order.
auto node_members(const net::ClusterSpec& cl, int rank) {
  return cl.node_ranks(cl.node_of(rank)) | std::views::drop(1);
}

}  // namespace

WireMessage Rank::make_intra_wire(const void* buf, std::uint64_t bytes) {
  // Every intra-node route shares one gate, so this rank's own answers.
  if (world_.compresses(rank_, rank_)) return make_wire(buf, bytes);
  return world_.make_raw_wire(buf, bytes);
}

void Rank::hand_back(const void* buf, std::uint64_t bytes, int tag, Collective& c) {
  const auto members = node_members(world_.cluster(), rank_);
  if (members.empty()) return;
  const sim::Time t0 = ctx_.now();
  WireMessage w = make_intra_wire(buf, bytes);
  c.compress_busy += ctx_.now() - t0;
  const sim::Time t1 = ctx_.now();
  std::vector<Request> sends;
  for (int m : members) sends.push_back(isend_wire(w, m, tag));
  waitall(sends);
  c.hops += static_cast<std::uint32_t>(sends.size());
  c.transfer_busy += ctx_.now() - t1;
}

void Rank::collect_node_blocks(std::uint8_t* slab, const void* sendbuf,
                               std::uint64_t block_bytes, int tag, Collective& c) {
  std::memcpy(slab, sendbuf, block_bytes);
  compute(gpu().costs().d2d_copy(block_bytes));
  const sim::Time t0 = ctx_.now();
  std::vector<Request> reqs;
  for (int m : node_members(world_.cluster(), rank_)) {
    reqs.push_back(irecv(slab + static_cast<std::uint64_t>(m - rank_) * block_bytes,
                         block_bytes, m, tag));
  }
  waitall(reqs);
  c.transfer_busy += ctx_.now() - t0;
}

void Rank::bcast_hierarchical(void* buf, std::uint64_t bytes, int root, int tag) {
  Collective c(*this, "bcast", core::CollectiveAlgorithm::Hierarchical);
  const auto& cl = world_.cluster();
  const int nodes = cl.nodes;
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  // One representative per node carries the inter-node traffic: the root
  // itself on the root's node (it already holds the data), the node leader
  // elsewhere.
  const auto rep_of = [&](int node) {
    return node == root_node ? root : node * cl.gpus_per_node;
  };
  const int rep = rep_of(my_node);

  if (rank_ != rep) {
    // Member: one intra-node hop from the representative, then decode.
    WireMessage in;
    Request rr = irecv_wire(&in, rep, tag);
    const sim::Time t0 = ctx_.now();
    (void)wait(rr);
    c.transfer_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    decompress_wire(in, buf, bytes);
    c.reduce_busy += ctx_.now() - t1;
    c.finish(bytes);
    return;
  }

  // Representative: binomial tree over nodes in virtual node order.
  const core::BinomialTree tree =
      core::binomial_tree((my_node - root_node + nodes) % nodes, nodes);
  const auto rep_of_vnode = [&](int vnode) { return rep_of((vnode + root_node) % nodes); };
  WireMessage msg;
  if (tree.parent >= 0) {
    Request rr = irecv_wire(&msg, rep_of_vnode(tree.parent), tag);
    const sim::Time t0 = ctx_.now();
    (void)wait(rr);
    c.transfer_busy += ctx_.now() - t0;
  } else {
    const sim::Time t0 = ctx_.now();
    msg = make_wire(buf, bytes);
    c.compress_busy += ctx_.now() - t0;
  }

  // Forward the SAME wire form down the tree — no recompression anywhere.
  // Virtual node 0 is the root's node, so every child here is remote.
  const sim::Time t2 = ctx_.now();
  std::vector<Request> sends;
  for (int child : tree.children) {
    sends.push_back(isend_wire(msg, rep_of_vnode(child), tag));
    ++c.hops;
  }

  // Intra-node fan-out: forward the wire form when the intra gate compresses
  // NVLink traffic (members decode in parallel); otherwise decode once here
  // and fan the raw bytes out. Either way the decode is off the inter-node
  // critical path — the tree forwards above were already posted.
  const bool forward = world_.compresses(rank_, rank_);
  const auto decode_own = [&] {
    if (rank_ == root) return;
    const sim::Time t3 = ctx_.now();
    decompress_wire(msg, buf, bytes);
    c.reduce_busy += ctx_.now() - t3;
  };
  if (!forward) decode_own();
  const WireMessage fan = forward ? msg : world_.make_raw_wire(buf, bytes);
  for (int m : cl.node_ranks(my_node)) {
    if (m == rep) continue;
    sends.push_back(isend_wire(fan, m, tag));
    ++c.hops;
  }
  if (forward) decode_own();
  waitall(sends);
  c.transfer_busy += ctx_.now() - t2;
  c.finish(bytes);
}

void Rank::allgather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                                  void* recvbuf, int tag) {
  Collective c(*this, "allgather", core::CollectiveAlgorithm::Hierarchical);
  const auto& cl = world_.cluster();
  const int gpn = cl.gpus_per_node;
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  const std::uint64_t total = static_cast<std::uint64_t>(size()) * block_bytes;

  if (rank_ != leader) {
    // Member: stage the block at the leader, receive the assembled vector.
    const sim::Time t0 = ctx_.now();
    send(sendbuf, block_bytes, leader, tag);
    ++c.hops;
    WireMessage in;
    Request rr = irecv_wire(&in, leader, tag);
    (void)wait(rr);
    c.transfer_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    decompress_wire(in, out, total);
    c.reduce_busy += ctx_.now() - t1;
    c.finish(total);
    return;
  }

  // The leader assembles in device memory so the slab compressions are
  // eligible regardless of where the caller's recvbuf lives (the allreduce
  // engine's device-accumulator idiom).
  auto* full = static_cast<std::uint8_t*>(gpu_malloc(total));

  // Leader phase 1: collect the node's blocks contiguously (the node's
  // ranks are consecutive, so they land in place in the assembled vector).
  collect_node_blocks(full + static_cast<std::uint64_t>(leader) * block_bytes, sendbuf,
                      block_bytes, tag, c);

  // Leader phase 2: the ring allgather over node leaders, circulating node
  // SLABS in wire form — each leader compresses its own slab exactly once
  // and forwards the others; the final drain, which precedes the fan-out,
  // counts as decode time here.
  const auto slabs = block_slices(full, static_cast<std::uint64_t>(gpn) * block_bytes, cl.nodes);
  c.reduce_busy += ring_allgather_members(strided_ranks(cl.nodes, gpn), my_node, slabs,
                                          slabs[static_cast<std::size_t>(my_node)].data(),
                                          tag, c);

  // Leader phase 3: intra-node bcast of the assembled vector (compressed
  // once when the intra gate is on, raw otherwise).
  hand_back(full, total, tag, c);
  std::memcpy(out, full, total);
  compute(gpu().costs().d2d_copy(total));
  gpu_free(full);
  c.finish(total);
}

void Rank::gather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                               void* recvbuf, int root, int tag) {
  Collective c(*this, "gather", core::CollectiveAlgorithm::Hierarchical);
  const auto& cl = world_.cluster();
  const int P = size();
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);
  const std::uint64_t slab_bytes = static_cast<std::uint64_t>(cl.gpus_per_node) * block_bytes;

  if (rank_ == root) {
    auto* out = static_cast<std::uint8_t*>(recvbuf);
    std::memcpy(out + static_cast<std::uint64_t>(root) * block_bytes, sendbuf, block_bytes);
    // Post everything up front (no head-of-line blocking): per-rank blocks
    // from the root's own node, ONE slab per remote node — the slabs are
    // contiguous runs of `out` because each node's ranks are consecutive.
    std::vector<Request> reqs;
    for (int m : cl.node_ranks(root_node)) {
      if (m == root) continue;
      reqs.push_back(irecv(out + static_cast<std::uint64_t>(m) * block_bytes, block_bytes,
                           m, tag));
    }
    for (int node = 0; node < cl.nodes; ++node) {
      if (node == root_node) continue;
      const int first = cl.node_ranks(node).front();
      reqs.push_back(irecv(out + static_cast<std::uint64_t>(first) * block_bytes, slab_bytes,
                           first, tag));
    }
    const sim::Time t0 = ctx_.now();
    waitall(reqs);
    c.transfer_busy += ctx_.now() - t0;
    c.finish(static_cast<std::uint64_t>(P) * block_bytes);
    return;
  }

  if (my_node == root_node) {
    // The root's node needs no staging: its blocks never cross IB.
    send(sendbuf, block_bytes, root, tag);
    return;
  }

  if (rank_ != leader) {
    // Remote member: stage the block at the node leader over NVLink.
    send(sendbuf, block_bytes, leader, tag);
    return;
  }

  // Remote leader: assemble the node slab in device memory in rank order,
  // ship it to the root as ONE message — the single IB transit this node
  // pays; rendezvous compression (and its CRC/NACK recovery) applies to
  // the whole slab.
  auto* slab = static_cast<std::uint8_t*>(gpu_malloc(slab_bytes));
  collect_node_blocks(slab, sendbuf, block_bytes, tag, c);
  const sim::Time t1 = ctx_.now();
  send(slab, slab_bytes, root, tag);
  ++c.hops;
  c.transfer_busy += ctx_.now() - t1;
  gpu_free(slab);
  c.finish(static_cast<std::uint64_t>(P) * block_bytes);
}

void Rank::scatter_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                                void* recvbuf, int root, int tag) {
  Collective c(*this, "scatter", core::CollectiveAlgorithm::Hierarchical);
  const auto& cl = world_.cluster();
  const int P = size();
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);
  const std::uint64_t slab_bytes = static_cast<std::uint64_t>(cl.gpus_per_node) * block_bytes;

  if (rank_ == root) {
    const auto* in = static_cast<const std::uint8_t*>(sendbuf);
    std::memcpy(recvbuf, in + static_cast<std::uint64_t>(root) * block_bytes, block_bytes);
    // One batched multi-destination send: a slab per remote node (batch-
    // compressed in one kernel launch) plus the root's own node's per-rank
    // blocks (intra-node, so they take the ordinary path inside
    // isend_batched's eligibility split).
    std::vector<WireBlock> blocks;
    for (int node = 0; node < cl.nodes; ++node) {
      if (node == root_node) continue;
      const int first = cl.node_ranks(node).front();
      blocks.push_back({in + static_cast<std::uint64_t>(first) * block_bytes, slab_bytes, first,
                        tag});
    }
    for (int m : cl.node_ranks(root_node)) {
      if (m == root) continue;
      blocks.push_back({in + static_cast<std::uint64_t>(m) * block_bytes, block_bytes, m,
                        tag});
    }
    const sim::Time t0 = ctx_.now();
    auto reqs = isend_batched(blocks);
    c.hops += static_cast<std::uint32_t>(blocks.size());
    waitall(reqs);
    c.transfer_busy += ctx_.now() - t0;
    c.finish(static_cast<std::uint64_t>(P) * block_bytes);
    return;
  }

  if (my_node == root_node) {
    (void)recv(recvbuf, block_bytes, root, tag);
    return;
  }

  if (rank_ != leader) {
    (void)recv(recvbuf, block_bytes, leader, tag);
    return;
  }

  // Remote leader: receive the node slab (decoded by the rendezvous layer)
  // into device memory, keep block 0, fan the rest out over NVLink.
  auto* slab = static_cast<std::uint8_t*>(gpu_malloc(slab_bytes));
  const sim::Time t0 = ctx_.now();
  (void)recv(slab, slab_bytes, root, tag);
  c.transfer_busy += ctx_.now() - t0;
  std::memcpy(recvbuf, slab, block_bytes);
  compute(gpu().costs().d2d_copy(block_bytes));
  const sim::Time t1 = ctx_.now();
  std::vector<Request> sends;
  for (int m : node_members(cl, rank_)) {
    sends.push_back(isend(slab + static_cast<std::uint64_t>(m - leader) * block_bytes,
                          block_bytes, m, tag));
    ++c.hops;
  }
  waitall(sends);
  c.transfer_busy += ctx_.now() - t1;
  gpu_free(slab);
  c.finish(static_cast<std::uint64_t>(P) * block_bytes);
}

}  // namespace gcmpi::mpi
