// Hierarchical moving collectives: topology-aware bcast / allgather /
// gather / scatter staged at one representative per node.
//
// Flat schedules send one (possibly compressed) message per remote RANK
// across the inter-node fabric, so a node with G GPUs pushes or pulls G
// copies of the same traffic through its shared IB NIC. The hierarchical
// schedules here move exactly ONE wire transit per remote NODE:
//
//   bcast      root compresses once; the wire form hops a binomial tree
//              over node representatives (IB), then fans out intra-node
//              over NVLink; each node decodes once, off the inter-node
//              critical path.
//   allgather  members stage blocks at their node leader; the leader ring
//              circulates node SLABS in wire form (nodes-1 IB transits per
//              leader); the assembled vector fans back out intra-node.
//   gather     members stage blocks at the leader; each leader ships one
//              assembled slab to the root (nodes-1 IB transits total).
//   scatter    the root batch-compresses one slab per remote node in a
//              single kernel launch (isend_batched); leaders fan the
//              blocks out intra-node.
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
#include <algorithm>
#include <cstring>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

WireMessage Rank::make_intra_wire(const void* buf, std::uint64_t bytes) {
  if (world_.compression_.compress_intra_node) return make_wire(buf, bytes);
  return world_.make_raw_wire(buf, bytes);
}

void Rank::bcast_hierarchical(void* buf, std::uint64_t bytes, int root, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const auto& cl = world_.cluster();
  const int P = size();
  const int nodes = cl.nodes;
  const int gpn = cl.gpus_per_node;
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  // One representative per node carries the inter-node traffic: the root
  // itself on the root's node (it already holds the data), the node leader
  // elsewhere.
  const int rep = my_node == root_node ? root : cl.node_leader(rank_);

  if (rank_ != rep) {
    // Member: one intra-node hop from the representative, then decode.
    WireMessage in;
    Request rr = irecv_wire(&in, rep, tag);
    const sim::Time t0 = ctx_.now();
    (void)wait(rr);
    st.transfer_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    decompress_wire(in, buf, bytes);
    st.reduce_busy += ctx_.now() - t1;
    record_collective("bcast", core::CollectiveAlgorithm::Hierarchical, bytes, started, st);
    return;
  }

  // Representative: binomial tree over nodes in virtual node order.
  const int vnode = (my_node - root_node + nodes) % nodes;
  WireMessage msg;
  int mask = 1;
  if (vnode != 0) {
    while (mask < nodes) {
      if (vnode & mask) {
        const int src_node = ((vnode - mask) + root_node) % nodes;
        const int src = src_node == root_node ? root : src_node * gpn;
        WireMessage in;
        Request rr = irecv_wire(&in, src, tag);
        const sim::Time t0 = ctx_.now();
        (void)wait(rr);
        st.transfer_busy += ctx_.now() - t0;
        msg = std::move(in);
        break;
      }
      mask <<= 1;
    }
  } else {
    const sim::Time t0 = ctx_.now();
    msg = make_wire(buf, bytes);
    st.compress_busy += ctx_.now() - t0;
    while (mask < nodes) mask <<= 1;
  }

  // Forward the SAME wire form down the tree — no recompression anywhere.
  // Virtual node 0 is the root's node, so every child here is remote.
  mask >>= 1;
  const sim::Time t2 = ctx_.now();
  std::vector<Request> sends;
  while (mask > 0) {
    if (vnode + mask < nodes) {
      const int dst_node = ((vnode + mask) + root_node) % nodes;
      sends.push_back(isend_wire(msg, dst_node * gpn, tag));
      ++st.hops;
    }
    mask >>= 1;
  }

  // Intra-node fan-out: forward the wire form when the intra gate compresses
  // NVLink traffic (members decode in parallel); otherwise decode once here
  // and fan the raw bytes out. Either way the decode is off the inter-node
  // critical path — the tree forwards above were already posted.
  const int node_begin = cl.node_leader(rank_);
  const int node_end = std::min(node_begin + gpn, P);
  if (world_.compression_.compress_intra_node) {
    for (int m = node_begin; m < node_end; ++m) {
      if (m == rep) continue;
      sends.push_back(isend_wire(msg, m, tag));
      ++st.hops;
    }
    if (rank_ != root) {
      const sim::Time t3 = ctx_.now();
      decompress_wire(msg, buf, bytes);
      st.reduce_busy += ctx_.now() - t3;
    }
  } else {
    if (rank_ != root) {
      const sim::Time t3 = ctx_.now();
      decompress_wire(msg, buf, bytes);
      st.reduce_busy += ctx_.now() - t3;
    }
    const WireMessage raw = world_.make_raw_wire(buf, bytes);
    for (int m = node_begin; m < node_end; ++m) {
      if (m == rep) continue;
      sends.push_back(isend_wire(raw, m, tag));
      ++st.hops;
    }
  }
  waitall(sends);
  st.transfer_busy += ctx_.now() - t2;
  record_collective("bcast", core::CollectiveAlgorithm::Hierarchical, bytes, started, st);
}

void Rank::allgather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                                  void* recvbuf, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const auto& cl = world_.cluster();
  const int P = size();
  const int nodes = cl.nodes;
  const int gpn = cl.gpus_per_node;
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  const std::uint64_t total = static_cast<std::uint64_t>(P) * block_bytes;
  const auto node_begin = [&](int node) { return node * gpn; };
  const auto node_count = [&](int node) {
    return std::min((node + 1) * gpn, P) - node * gpn;
  };

  if (rank_ != leader) {
    // Member: stage the block at the leader, receive the assembled vector.
    const sim::Time t0 = ctx_.now();
    send(sendbuf, block_bytes, leader, tag);
    ++st.hops;
    WireMessage in;
    Request rr = irecv_wire(&in, leader, tag);
    (void)wait(rr);
    st.transfer_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    decompress_wire(in, out, total);
    st.reduce_busy += ctx_.now() - t1;
    record_collective("allgather", core::CollectiveAlgorithm::Hierarchical, total, started,
                      st);
    return;
  }

  // The leader assembles in device memory so the slab compressions are
  // eligible regardless of where the caller's recvbuf lives (the allreduce
  // engine's device-accumulator idiom).
  auto* full = static_cast<std::uint8_t*>(gpu_malloc(total));

  // Leader phase 1: collect the node's blocks contiguously (the node's
  // ranks are consecutive, so they land in place in the assembled vector).
  std::memcpy(full + static_cast<std::uint64_t>(rank_) * block_bytes, sendbuf, block_bytes);
  compute(gpu().costs().d2d_copy(block_bytes));
  {
    const sim::Time t0 = ctx_.now();
    std::vector<Request> reqs;
    for (int m = leader + 1; m < std::min(leader + gpn, P); ++m) {
      reqs.push_back(irecv(full + static_cast<std::uint64_t>(m) * block_bytes, block_bytes,
                           m, tag));
    }
    waitall(reqs);
    st.transfer_busy += ctx_.now() - t0;
  }

  // Leader phase 2: ring over node leaders, circulating node SLABS in wire
  // form — each leader compresses its own slab exactly once and forwards
  // the others; decodes are enqueued without a stream sync so they overlap
  // the remaining ring steps.
  auto& mgr = compression();
  const int right = ((my_node + 1) % nodes) * gpn;
  const int left = ((my_node - 1 + nodes) % nodes) * gpn;
  std::vector<WireMessage> wires(static_cast<std::size_t>(nodes));
  {
    const sim::Time t0 = ctx_.now();
    wires[static_cast<std::size_t>(my_node)] =
        make_wire(full + static_cast<std::uint64_t>(node_begin(my_node)) * block_bytes,
                  static_cast<std::uint64_t>(node_count(my_node)) * block_bytes);
    st.compress_busy += ctx_.now() - t0;
  }
  std::vector<core::Staging> stagings;
  for (int step = 0; step < nodes - 1; ++step) {
    const int send_n = (my_node - step + nodes) % nodes;
    const int recv_n = (my_node - step - 1 + nodes) % nodes;
    const sim::Time t0 = ctx_.now();
    WireMessage in;
    Request rr = irecv_wire(&in, left, tag);
    Request sr = isend_wire(wires[static_cast<std::size_t>(send_n)], right, tag);
    (void)wait(rr);
    (void)wait(sr);
    ++st.hops;
    st.transfer_busy += ctx_.now() - t0;

    const sim::Time t1 = ctx_.now();
    sim::Timeline tl(ctx_.now());
    auto* dst = full + static_cast<std::uint64_t>(node_begin(recv_n)) * block_bytes;
    const std::uint64_t slab = static_cast<std::uint64_t>(node_count(recv_n)) * block_bytes;
    if (in.header.compressed) {
      auto staging = mgr.prepare_receive(tl, in.header);
      std::memcpy(staging.data, in.payload->data(), in.payload->size());
      core::CompressionManager::retry_decode([&] {
        mgr.decompress_received(tl, in.header, staging, dst, slab, /*synchronize=*/false);
      });
      stagings.push_back(staging);
    } else {
      std::memcpy(dst, in.payload->data(), in.payload->size());
    }
    ctx_.advance_to(tl.now());
    st.reduce_busy += ctx_.now() - t1;
    wires[static_cast<std::size_t>(recv_n)] = std::move(in);
  }
  {
    // Drain the overlapped decodes before fanning the assembled buffer out.
    const sim::Time t0 = ctx_.now();
    sim::Timeline end(ctx_.now());
    gpu().device_synchronize(end, &mgr.receiver_breakdown());
    for (auto& s : stagings) mgr.release(end, s);
    ctx_.advance_to(end.now());
    st.reduce_busy += ctx_.now() - t0;
  }

  // Leader phase 3: intra-node bcast of the assembled vector (compressed
  // once when the intra gate is on, raw otherwise).
  if (gpn > 1) {
    const sim::Time t0 = ctx_.now();
    WireMessage w = make_intra_wire(full, total);
    st.compress_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    std::vector<Request> sends;
    for (int m = leader + 1; m < std::min(leader + gpn, P); ++m) {
      sends.push_back(isend_wire(w, m, tag));
      ++st.hops;
    }
    waitall(sends);
    st.transfer_busy += ctx_.now() - t1;
  }
  std::memcpy(out, full, total);
  compute(gpu().costs().d2d_copy(total));
  gpu_free(full);
  record_collective("allgather", core::CollectiveAlgorithm::Hierarchical, total, started,
                    st);
}

void Rank::gather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                               void* recvbuf, int root, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const auto& cl = world_.cluster();
  const int P = size();
  const int gpn = cl.gpus_per_node;
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);

  if (rank_ == root) {
    auto* out = static_cast<std::uint8_t*>(recvbuf);
    std::memcpy(out + static_cast<std::uint64_t>(root) * block_bytes, sendbuf, block_bytes);
    // Post everything up front (no head-of-line blocking): per-rank blocks
    // from the root's own node, ONE slab per remote node — the slabs are
    // contiguous runs of `out` because each node's ranks are consecutive.
    std::vector<Request> reqs;
    for (int m = cl.node_leader(root); m < std::min(cl.node_leader(root) + gpn, P); ++m) {
      if (m == root) continue;
      reqs.push_back(irecv(out + static_cast<std::uint64_t>(m) * block_bytes, block_bytes,
                           m, tag));
    }
    for (int node = 0; node < cl.nodes; ++node) {
      if (node == root_node) continue;
      const int first = node * gpn;
      const std::uint64_t slab =
          static_cast<std::uint64_t>(std::min((node + 1) * gpn, P) - first) * block_bytes;
      reqs.push_back(
          irecv(out + static_cast<std::uint64_t>(first) * block_bytes, slab, first, tag));
    }
    const sim::Time t0 = ctx_.now();
    waitall(reqs);
    st.transfer_busy += ctx_.now() - t0;
    record_collective("gather", core::CollectiveAlgorithm::Hierarchical,
                      static_cast<std::uint64_t>(P) * block_bytes, started, st);
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
  const int count = std::min(leader + gpn, P) - leader;
  const std::uint64_t slab_bytes = static_cast<std::uint64_t>(count) * block_bytes;
  auto* slab = static_cast<std::uint8_t*>(gpu_malloc(slab_bytes));
  std::memcpy(slab, sendbuf, block_bytes);
  compute(gpu().costs().d2d_copy(block_bytes));
  {
    const sim::Time t0 = ctx_.now();
    std::vector<Request> reqs;
    for (int m = leader + 1; m < leader + count; ++m) {
      reqs.push_back(irecv(slab + static_cast<std::uint64_t>(m - leader) * block_bytes,
                           block_bytes, m, tag));
    }
    waitall(reqs);
    st.transfer_busy += ctx_.now() - t0;
  }
  const sim::Time t1 = ctx_.now();
  send(slab, slab_bytes, root, tag);
  ++st.hops;
  st.transfer_busy += ctx_.now() - t1;
  gpu_free(slab);
  record_collective("gather", core::CollectiveAlgorithm::Hierarchical,
                    static_cast<std::uint64_t>(P) * block_bytes, started, st);
}

void Rank::scatter_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                                void* recvbuf, int root, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const auto& cl = world_.cluster();
  const int P = size();
  const int gpn = cl.gpus_per_node;
  const int root_node = cl.node_of(root);
  const int my_node = cl.node_of(rank_);
  const int leader = cl.node_leader(rank_);

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
      const int first = node * gpn;
      const std::uint64_t slab =
          static_cast<std::uint64_t>(std::min((node + 1) * gpn, P) - first) * block_bytes;
      blocks.push_back({in + static_cast<std::uint64_t>(first) * block_bytes, slab, first,
                        tag});
    }
    for (int m = cl.node_leader(root); m < std::min(cl.node_leader(root) + gpn, P); ++m) {
      if (m == root) continue;
      blocks.push_back({in + static_cast<std::uint64_t>(m) * block_bytes, block_bytes, m,
                        tag});
    }
    const sim::Time t0 = ctx_.now();
    auto reqs = isend_batched(blocks);
    st.hops += static_cast<std::uint32_t>(blocks.size());
    waitall(reqs);
    st.transfer_busy += ctx_.now() - t0;
    record_collective("scatter", core::CollectiveAlgorithm::Hierarchical,
                      static_cast<std::uint64_t>(P) * block_bytes, started, st);
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
  const int count = std::min(leader + gpn, P) - leader;
  const std::uint64_t slab_bytes = static_cast<std::uint64_t>(count) * block_bytes;
  auto* slab = static_cast<std::uint8_t*>(gpu_malloc(slab_bytes));
  const sim::Time t0 = ctx_.now();
  (void)recv(slab, slab_bytes, root, tag);
  st.transfer_busy += ctx_.now() - t0;
  std::memcpy(recvbuf, slab, block_bytes);
  compute(gpu().costs().d2d_copy(block_bytes));
  {
    const sim::Time t1 = ctx_.now();
    std::vector<Request> sends;
    for (int m = leader + 1; m < leader + count; ++m) {
      sends.push_back(isend(slab + static_cast<std::uint64_t>(m - leader) * block_bytes,
                            block_bytes, m, tag));
      ++st.hops;
    }
    waitall(sends);
    st.transfer_busy += ctx_.now() - t1;
  }
  gpu_free(slab);
  record_collective("scatter", core::CollectiveAlgorithm::Hierarchical,
                    static_cast<std::uint64_t>(P) * block_bytes, started, st);
}

}  // namespace gcmpi::mpi
