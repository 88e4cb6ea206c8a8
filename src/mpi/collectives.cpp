// Collective operations built on the point-to-point layer, so every hop of
// every collective inherits on-the-fly compression exactly as the paper's
// modified OSU collective benchmarks do (Sec. VI-B).
//
// Algorithms follow the classic MPICH choices: binomial broadcast/reduce,
// ring allgather (bandwidth-optimal for large messages), Rabenseifner-style
// non-power-of-two folding + recursive doubling for allreduce, pairwise
// exchange for alltoall, dissemination barrier.
#include <cstring>
#include <ranges>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

namespace {

// The canonical accumulator-first fold shared with the collective engine
// and the host oracle (see compress/reduce.hpp).
void apply_op(float* acc, const float* in, std::size_t n, ReduceOp op) {
  comp::reduce_inplace(acc, in, n, op);
}

}  // namespace

int Rank::next_coll_tag() { return kCollTagBase + (coll_seq_++ & 0xFFFF); }

void Rank::barrier() {
  const int tag = next_coll_tag();
  const int P = size();
  char token = 0;
  for (int mask = 1; mask < P; mask <<= 1) {
    const int dst = (rank_ + mask) % P;
    const int src = (rank_ - mask + P) % P;
    sendrecv(&token, 1, dst, tag, &token, 1, src, tag);
  }
}

void Rank::bcast(void* buf, std::uint64_t bytes, int root) {
  const int tag = next_coll_tag();
  const int P = size();
  if (P == 1) return;
  const core::BinomialTree tree = core::binomial_tree((rank_ - root + P) % P, P);
  const auto real = [&](int vrank) { return (vrank + root) % P; };
  const WorldOptions& opt = world_.options();
  const bool eager = bytes <= opt.eager_threshold;

  // Topology-aware staging: one inter-node wire transit per node instead of
  // one per rank (see hier_engine.cpp).
  if (!eager && select_collective(core::CollectiveOp::Bcast, bytes) ==
                    core::CollectiveAlgorithm::Hierarchical) {
    bcast_hierarchical(buf, bytes, root, tag);
    return;
  }

  // Plain point-to-point hops: small messages over the eager path, and
  // pipeline-sized ones so every edge overlaps compression, transfer, and
  // decompression chunk by chunk. The wire-forwarding scheme below can't
  // chunk — it ships one opaque stream — and for pipeline-sized messages
  // the per-hop overlap wins over forwarding.
  std::vector<Request> sends;
  if (eager || (opt.pipeline.enabled && bytes >= opt.pipeline.min_bytes)) {
    if (tree.parent >= 0) (void)recv(buf, bytes, real(tree.parent), tag);
    for (int child : tree.children) sends.push_back(isend(buf, bytes, real(child), tag));
    waitall(sends);
    return;
  }

  // Compression-aware binomial broadcast: the root compresses ONCE; every
  // intermediate rank forwards the wire representation to its children
  // before decompressing its own copy, so neither recompression nor
  // decompression sits on the tree's critical path.
  WireMessage msg;
  if (tree.parent >= 0) {
    Request r = irecv_wire(&msg, real(tree.parent), tag);
    (void)wait(r);
  } else {
    msg = make_wire(buf, bytes);
  }
  for (int child : tree.children) sends.push_back(isend_wire(msg, real(child), tag));
  if (tree.parent >= 0) decompress_wire(msg, buf, bytes);  // overlaps the forwards
  waitall(sends);
}

void Rank::allgather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf) {
  const int tag = next_coll_tag();
  const int P = size();
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  std::memcpy(out + static_cast<std::uint64_t>(rank_) * block_bytes, sendbuf, block_bytes);
  if (P == 1) return;
  const WorldOptions& opt = world_.options();
  const bool eager = block_bytes <= opt.eager_threshold;

  // Small blocks: recursive doubling (log P rounds) when P is a power of
  // two — the latency-optimal MPICH choice — otherwise the classic ring.
  if (eager && (P & (P - 1)) == 0) {
    // After round r, each rank holds the 2^(r+1)-block group containing
    // its own block, aligned to the group boundary.
    for (int mask = 1; mask < P; mask <<= 1) {
      const int peer = rank_ ^ mask;
      const int my_group = (rank_ / mask) * mask;
      const int peer_group = (peer / mask) * mask;
      const std::uint64_t group_bytes = static_cast<std::uint64_t>(mask) * block_bytes;
      sendrecv(out + static_cast<std::uint64_t>(my_group) * block_bytes, group_bytes, peer,
               tag, out + static_cast<std::uint64_t>(peer_group) * block_bytes, group_bytes,
               peer, tag);
    }
    return;
  }

  // Topology-aware staging: leaders ring node slabs so each node pays
  // nodes-1 inter-node transits instead of P-1 (see hier_engine.cpp).
  if (!eager && select_collective(core::CollectiveOp::Allgather, block_bytes) ==
                    core::CollectiveAlgorithm::Hierarchical) {
    allgather_hierarchical(sendbuf, block_bytes, recvbuf, tag);
    return;
  }

  // The classic ring over plain point-to-point hops: small blocks, and
  // pipeline-sized ones so each ring step overlaps chunk compression,
  // transfer, and decompression (see bcast above for the rationale).
  if (eager || (opt.pipeline.enabled && block_bytes >= opt.pipeline.min_bytes)) {
    const int right = (rank_ + 1) % P;
    const int left = (rank_ - 1 + P) % P;
    for (int step = 0; step < P - 1; ++step) {
      const int send_idx = (rank_ - step + P) % P;
      const int recv_idx = (rank_ - step - 1 + P) % P;
      sendrecv(out + static_cast<std::uint64_t>(send_idx) * block_bytes, block_bytes, right,
               tag, out + static_cast<std::uint64_t>(recv_idx) * block_bytes, block_bytes,
               left, tag);
    }
    return;
  }

  // Compression-aware ring: each block is compressed once by its owner and
  // circulates in wire form; decodes overlap the remaining ring steps, with
  // one device synchronization at the end. The flat ring records no
  // collective, so its stage accounting is dropped.
  CollStats unrecorded;
  (void)ring_allgather_members(strided_ranks(P, 1), rank_, block_slices(out, block_bytes, P),
                               sendbuf, tag, unrecorded);
}

void Rank::reduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                  int root) {
  const int tag = next_coll_tag();
  const int P = size();
  const core::BinomialTree tree = core::binomial_tree((rank_ - root + P) % P, P);
  const auto real = [&](int vrank) { return (vrank + root) % P; };
  // Children fold nearest first (the reverse of bcast's post order).
  const auto children = tree.children | std::views::reverse;

  // Small vectors ride the eager path uncompressed; the host-side fold is
  // cheaper than staging a device accumulator for them.
  if (n * 4 <= world_.options().eager_threshold) {
    std::vector<float> accum(sendbuf, sendbuf + n);
    std::vector<float> tmp(n);
    for (int child : children) {
      (void)recv(tmp.data(), n * 4, real(child), tag);
      apply_op(accum.data(), tmp.data(), n, op);
    }
    if (tree.parent >= 0) send(accum.data(), n * 4, real(tree.parent), tag);
    if (rank_ == root) std::memcpy(recvbuf, accum.data(), n * 4);
    return;
  }

  // Rendezvous-sized vectors: same binomial schedule, but each hop moves a
  // wire form and arriving contributions fold into a device accumulator
  // with the manager's FUSED decompress+reduce kernels (enqueued without a
  // stream sync, so the decode of one child overlaps the wait for the
  // next). The fold order is identical to the host path, so results are
  // bit-identical.
  const sim::Time started = ctx_.now();
  CollStats st;
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  DecodeQueue queue(*this);
  for (int child : children) {
    WireMessage in;
    Request rr = irecv_wire(&in, real(child), tag);
    const sim::Time t0 = ctx_.now();
    (void)wait(rr);
    st.transfer_busy += ctx_.now() - t0;
    st.reduce_busy += queue.reduce(in, acc, n, op);
    ++st.reduces;
  }
  // The accumulator ships upward (or the root reads it): drain the pending
  // fused folds first, then compress it once for the single parent hop.
  if (queue.pending()) st.reduce_busy += queue.drain();
  if (tree.parent >= 0) {
    const sim::Time t0 = ctx_.now();
    WireMessage w = make_wire(acc, n * 4);
    st.compress_busy += ctx_.now() - t0;
    const sim::Time t1 = ctx_.now();
    Request sr = isend_wire(w, real(tree.parent), tag);
    (void)wait(sr);
    ++st.hops;
    st.transfer_busy += ctx_.now() - t1;
  }
  if (rank_ == root) {
    std::memcpy(recvbuf, acc, n * 4);
    compute(gpu().costs().d2d_copy(n * 4));
  }
  gpu_free(acc);
  record_collective("reduce", core::CollectiveAlgorithm::Linear, n * 4, started, st);
}

void Rank::allreduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op) {
  const int tag = next_coll_tag();
  const int P = size();
  if (P == 1) {
    if (n != 0) std::memcpy(recvbuf, sendbuf, n * 4);
    return;
  }
  switch (select_collective(core::CollectiveOp::Allreduce, n * 4)) {
    case core::CollectiveAlgorithm::Ring:
      allreduce_ring(sendbuf, recvbuf, n, op, tag);
      return;
    case core::CollectiveAlgorithm::Hierarchical:
      allreduce_hierarchical(sendbuf, recvbuf, n, op, tag);
      return;
    default:
      allreduce_linear(sendbuf, recvbuf, n, op, tag);
      return;
  }
}

void Rank::allreduce_linear(const float* sendbuf, float* recvbuf, std::size_t n,
                            ReduceOp op, int tag) {
  const int P = size();
  std::vector<float> accum(sendbuf, sendbuf + n);
  std::vector<float> tmp(n);

  // Fold non-power-of-two ranks into the largest power of two.
  int pof2 = 1;
  while (pof2 * 2 <= P) pof2 *= 2;
  const int rem = P - pof2;
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 != 0) {  // odd: ship data to the even partner and idle
      send(accum.data(), n * 4, rank_ - 1, tag);
      newrank = -1;
    } else {
      (void)recv(tmp.data(), n * 4, rank_ + 1, tag);
      apply_op(accum.data(), tmp.data(), n, op);
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int peer_new = newrank ^ mask;
      const int peer = peer_new < rem ? peer_new * 2 : peer_new + rem;
      sendrecv(accum.data(), n * 4, peer, tag, tmp.data(), n * 4, peer, tag);
      apply_op(accum.data(), tmp.data(), n, op);
    }
  }

  // Un-fold: even partners return the result to the odd ranks.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send(accum.data(), n * 4, rank_ + 1, tag);
    } else {
      (void)recv(accum.data(), n * 4, rank_ - 1, tag);
    }
  }
  if (n != 0) std::memcpy(recvbuf, accum.data(), n * 4);
}

void Rank::alltoall(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf) {
  const int tag = next_coll_tag();
  const int P = size();
  const auto* in = static_cast<const std::uint8_t*>(sendbuf);
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  if (block_bytes != 0) {
    std::memcpy(out + static_cast<std::uint64_t>(rank_) * block_bytes,
                in + static_cast<std::uint64_t>(rank_) * block_bytes, block_bytes);
  }
  if (P > 1 && block_bytes > 0 &&
      select_collective(core::CollectiveOp::Alltoall, block_bytes) ==
          core::CollectiveAlgorithm::BatchedPairwise) {
    // One batched compression launch for all P-1 outgoing blocks; see
    // alltoall_engine.cpp.
    alltoall_batched(in, block_bytes, out, tag);
    return;
  }
  for (int step = 1; step < P; ++step) {
    const int dst = (rank_ + step) % P;
    const int src = (rank_ - step + P) % P;
    sendrecv(in + static_cast<std::uint64_t>(dst) * block_bytes, block_bytes, dst, tag,
             out + static_cast<std::uint64_t>(src) * block_bytes, block_bytes, src, tag);
  }
}

void Rank::gather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root) {
  const int tag = next_coll_tag();
  const int P = size();
  if (P > 1 && block_bytes > 0 &&
      select_collective(core::CollectiveOp::Gather, block_bytes) ==
          core::CollectiveAlgorithm::Hierarchical) {
    // Leader-staged: remote nodes ship one assembled slab each instead of
    // gpus_per_node individual blocks (see hier_engine.cpp).
    gather_hierarchical(sendbuf, block_bytes, recvbuf, root, tag);
    return;
  }
  if (rank_ == root) {
    auto* out = static_cast<std::uint8_t*>(recvbuf);
    std::memcpy(out + static_cast<std::uint64_t>(root) * block_bytes, sendbuf, block_bytes);
    // Post every irecv up front so arrivals complete in whatever order the
    // senders finish — a blocking recv in rank order would serialize the
    // root on the slowest early sender (head-of-line blocking).
    std::vector<Request> reqs;
    reqs.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 0; r < P; ++r) {
      if (r == root) continue;
      reqs.push_back(irecv(out + static_cast<std::uint64_t>(r) * block_bytes, block_bytes,
                           r, tag));
    }
    waitall(reqs);
  } else {
    send(sendbuf, block_bytes, root, tag);
  }
}

void Rank::scatter(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root) {
  const int tag = next_coll_tag();
  const int P = size();
  if (P > 1 && block_bytes > 0 &&
      select_collective(core::CollectiveOp::Scatter, block_bytes) ==
          core::CollectiveAlgorithm::Hierarchical) {
    // Root batch-compresses one slab per remote node in a single launch;
    // leaders fan the blocks out intra-node (see hier_engine.cpp).
    scatter_hierarchical(sendbuf, block_bytes, recvbuf, root, tag);
    return;
  }
  if (rank_ == root) {
    const auto* in = static_cast<const std::uint8_t*>(sendbuf);
    std::memcpy(recvbuf, in + static_cast<std::uint64_t>(root) * block_bytes, block_bytes);
    // The root's P-1 outgoing blocks are a natural batch: compress them in
    // one launch and keep every send in flight at once.
    std::vector<WireBlock> blocks;
    blocks.reserve(static_cast<std::size_t>(P - 1));
    for (int r = 0; r < P; ++r) {
      if (r == root) continue;
      blocks.push_back({in + static_cast<std::uint64_t>(r) * block_bytes, block_bytes, r,
                        tag});
    }
    auto reqs = isend_batched(blocks);
    waitall(reqs);
  } else {
    (void)recv(recvbuf, block_bytes, root, tag);
  }
}

}  // namespace gcmpi::mpi
