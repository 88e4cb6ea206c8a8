// Collective operations built on the point-to-point layer, so every hop of
// every collective inherits on-the-fly compression exactly as the paper's
// modified OSU collective benchmarks do (Sec. VI-B).
//
// Algorithms follow the classic MPICH choices: binomial broadcast/reduce,
// ring allgather (bandwidth-optimal for large messages), Rabenseifner-style
// non-power-of-two folding + recursive doubling for allreduce, pairwise
// exchange for alltoall, dissemination barrier. Each op picks its path
// here: the eager, pipelined and linear bodies are direct point-to-point
// calls; every compressed body is a schedule (mpi/schedule.hpp) run by
// Rank::run_schedule. MPI allows a zero count with any buffer, NULL
// included, so each local copy a zero count reaches is guarded by it.
#include <cstring>
#include <ranges>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

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
  // one per rank.
  if (!eager && select_collective(core::CollectiveOp::Bcast, bytes) ==
                    core::CollectiveAlgorithm::Hierarchical) {
    run_schedule(sched::bcast_hierarchical, bytes, root, buf, buf, tag);
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

  // Compression-aware binomial broadcast: the root compresses ONCE and
  // every intermediate rank forwards the wire form.
  run_schedule(sched::bcast_tree, bytes, root, buf, buf, tag);
}

void Rank::allgather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf) {
  const int tag = next_coll_tag();
  const int P = size();
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  if (block_bytes != 0) {
    std::memcpy(out + static_cast<std::uint64_t>(rank_) * block_bytes, sendbuf, block_bytes);
  }
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
  // nodes-1 inter-node transits instead of P-1.
  if (!eager && select_collective(core::CollectiveOp::Allgather, block_bytes) ==
                    core::CollectiveAlgorithm::Hierarchical) {
    run_schedule(sched::allgather_hierarchical, block_bytes, 0, sendbuf, recvbuf, tag);
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
  // circulates in wire form.
  run_schedule(sched::allgather_ring, block_bytes, 0, sendbuf, recvbuf, tag);
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
      comp::reduce_inplace(accum.data(), tmp.data(), n, op);
    }
    if (tree.parent >= 0) send(accum.data(), n * 4, real(tree.parent), tag);
    if (rank_ == root && n != 0) std::memcpy(recvbuf, accum.data(), n * 4);
    return;
  }

  // Rendezvous-sized vectors: the same binomial schedule, folded into a
  // device accumulator with fused decode+reduce kernels. The fold order is
  // the host path's, so results are bit-identical.
  run_schedule(sched::reduce_tree, n * 4, root, sendbuf, recvbuf, tag, op);
}

void Rank::allreduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op) {
  const int tag = next_coll_tag();
  const int P = size();
  if (P == 1) {
    if (n != 0) std::memcpy(recvbuf, sendbuf, n * 4);
    return;
  }
  const core::CollectiveAlgorithm algorithm =
      select_collective(core::CollectiveOp::Allreduce, n * 4);
  if (algorithm == core::CollectiveAlgorithm::Linear) {
    allreduce_linear(sendbuf, recvbuf, n, op, tag);
    return;
  }
  run_schedule(algorithm == core::CollectiveAlgorithm::Hierarchical ? sched::allreduce_hierarchical
                                                                   : sched::allreduce_ring,
               n * 4, 0, sendbuf, recvbuf, tag, op);
}

void Rank::reduce_scatter(const float* sendbuf, float* recvbuf, std::size_t recvcount,
                          ReduceOp op) {
  const int tag = next_coll_tag();
  const int P = size();
  const std::size_t n = recvcount * static_cast<std::size_t>(P);
  if (P == 1) {
    if (recvcount != 0) std::memcpy(recvbuf, sendbuf, recvcount * 4);
    return;
  }
  if (select_collective(core::CollectiveOp::Allreduce, n * 4) ==
      core::CollectiveAlgorithm::Linear) {
    // Small/low-rank: binomial reduce to rank 0, then scatter the shards.
    std::vector<float> full(rank_ == 0 ? n : 0);
    reduce(sendbuf, full.data(), n, op, 0);
    scatter(full.data(), recvcount * 4, recvbuf, 0);
    return;
  }
  run_schedule(sched::reduce_scatter_ring, n * 4, 0, sendbuf, recvbuf, tag, op);
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
      comp::reduce_inplace(accum.data(), tmp.data(), n, op);
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
      comp::reduce_inplace(accum.data(), tmp.data(), n, op);
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
    // One batched compression launch for all P-1 outgoing blocks.
    run_schedule(sched::alltoall_batched, block_bytes, 0, in, out, tag);
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
    // gpus_per_node individual blocks.
    run_schedule(sched::gather_hierarchical, block_bytes, root, sendbuf, recvbuf, tag);
    return;
  }
  if (rank_ == root) {
    auto* out = static_cast<std::uint8_t*>(recvbuf);
    if (block_bytes != 0) {
      std::memcpy(out + static_cast<std::uint64_t>(root) * block_bytes, sendbuf, block_bytes);
    }
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
    // leaders fan the blocks out intra-node.
    run_schedule(sched::scatter_hierarchical, block_bytes, root, sendbuf, recvbuf, tag);
    return;
  }
  if (rank_ == root) {
    const auto* in = static_cast<const std::uint8_t*>(sendbuf);
    if (block_bytes != 0) {
      std::memcpy(recvbuf, in + static_cast<std::uint64_t>(root) * block_bytes, block_bytes);
    }
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
