// Collective operations built on the point-to-point layer, so every hop of
// every collective inherits on-the-fly compression exactly as the paper's
// modified OSU collective benchmarks do (Sec. VI-B).
//
// Algorithms follow the classic MPICH choices: binomial broadcast/reduce,
// ring allgather (bandwidth-optimal for large messages), Rabenseifner-style
// non-power-of-two folding + recursive doubling for allreduce, pairwise
// exchange for alltoall, dissemination barrier.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

namespace {

constexpr int kCollTagBase = 1 << 20;

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
  const int vrank = (rank_ - root + P) % P;

  // Small messages: plain binomial tree over the eager path.
  if (bytes <= world_.options().eager_threshold) {
    int mask = 1;
    while (mask < P) {
      if (vrank & mask) {
        const int src = ((vrank - mask) + root) % P;
        (void)recv(buf, bytes, src, tag);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < P) {
        const int dst = ((vrank + mask) + root) % P;
        send(buf, bytes, dst, tag);
      }
      mask >>= 1;
    }
    return;
  }

  // Topology-aware staging: one inter-node wire transit per node instead of
  // one per rank (see hier_engine.cpp).
  if (select_collective(core::CollectiveOp::Bcast, bytes) ==
      core::CollectiveAlgorithm::Hierarchical) {
    bcast_hierarchical(buf, bytes, root, tag);
    return;
  }

  // Chunked pipelined hops: when the pipeline covers this size, run the
  // binomial tree over plain point-to-point sends so every edge overlaps
  // compression, transfer, and decompression chunk by chunk. The wire-
  // forwarding scheme below can't chunk — it ships one opaque stream — and
  // for pipeline-sized messages the per-hop overlap wins over forwarding.
  const WorldOptions& opt = world_.options();
  if (opt.pipeline.enabled && opt.pipeline.collectives && bytes >= opt.pipeline.min_bytes) {
    int pmask = 1;
    if (vrank != 0) {
      while (pmask < P) {
        if (vrank & pmask) {
          const int src = ((vrank - pmask) + root) % P;
          (void)recv(buf, bytes, src, tag);
          break;
        }
        pmask <<= 1;
      }
    } else {
      while (pmask < P) pmask <<= 1;
    }
    pmask >>= 1;
    std::vector<Request> sends;
    while (pmask > 0) {
      if (vrank + pmask < P) {
        const int dst = ((vrank + pmask) + root) % P;
        sends.push_back(isend(buf, bytes, dst, tag));
      }
      pmask >>= 1;
    }
    waitall(sends);
    return;
  }

  // Compression-aware binomial broadcast: the root compresses ONCE; every
  // intermediate rank forwards the wire representation to its children
  // before decompressing its own copy, so neither recompression nor
  // decompression sits on the tree's critical path.
  WireMessage msg;
  int mask = 1;
  if (vrank != 0) {
    while (mask < P) {
      if (vrank & mask) {
        const int src = ((vrank - mask) + root) % P;
        Request r = irecv_wire(&msg, src, tag);
        (void)wait(r);
        break;
      }
      mask <<= 1;
    }
  } else {
    msg = make_wire(buf, bytes);
    while (mask < P) mask <<= 1;
  }
  mask >>= 1;
  std::vector<Request> sends;
  while (mask > 0) {
    if (vrank + mask < P) {
      const int dst = ((vrank + mask) + root) % P;
      sends.push_back(isend_wire(msg, dst, tag));
    }
    mask >>= 1;
  }
  if (vrank != 0) decompress_wire(msg, buf, bytes);  // overlaps the forwards
  waitall(sends);
}

void Rank::allgather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf) {
  const int tag = next_coll_tag();
  const int P = size();
  auto* out = static_cast<std::uint8_t*>(recvbuf);
  std::memcpy(out + static_cast<std::uint64_t>(rank_) * block_bytes, sendbuf, block_bytes);
  if (P == 1) return;

  const int right = (rank_ + 1) % P;
  const int left = (rank_ - 1 + P) % P;

  // Small blocks: recursive doubling (log P rounds) when P is a power of
  // two — the latency-optimal MPICH choice — otherwise the classic ring.
  if (block_bytes <= world_.options().eager_threshold) {
    if ((P & (P - 1)) == 0) {
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
    for (int step = 0; step < P - 1; ++step) {
      const int send_idx = (rank_ - step + P) % P;
      const int recv_idx = (rank_ - step - 1 + P) % P;
      sendrecv(out + static_cast<std::uint64_t>(send_idx) * block_bytes, block_bytes, right,
               tag, out + static_cast<std::uint64_t>(recv_idx) * block_bytes, block_bytes,
               left, tag);
    }
    return;
  }

  // Topology-aware staging: leaders ring node slabs so each node pays
  // nodes-1 inter-node transits instead of P-1 (see hier_engine.cpp).
  if (select_collective(core::CollectiveOp::Allgather, block_bytes) ==
      core::CollectiveAlgorithm::Hierarchical) {
    allgather_hierarchical(sendbuf, block_bytes, recvbuf, tag);
    return;
  }

  // Chunked pipelined ring: pipeline-sized blocks go through plain
  // point-to-point hops so each ring step overlaps chunk compression,
  // transfer, and decompression (see bcast above for the rationale).
  const WorldOptions& opt = world_.options();
  if (opt.pipeline.enabled && opt.pipeline.collectives &&
      block_bytes >= opt.pipeline.min_bytes) {
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
  // circulates in wire form; decompression kernels are enqueued as blocks
  // arrive (no stream sync) so they overlap the remaining ring steps, with
  // one device synchronization at the end.
  auto& mgr = compression();
  std::vector<WireMessage> wires(static_cast<std::size_t>(P));
  wires[static_cast<std::size_t>(rank_)] = make_wire(sendbuf, block_bytes);

  std::vector<core::Staging> stagings;
  sim::Timeline tl(ctx_.now());
  for (int step = 0; step < P - 1; ++step) {
    const int send_idx = (rank_ - step + P) % P;
    const int recv_idx = (rank_ - step - 1 + P) % P;
    WireMessage incoming;
    Request rr = irecv_wire(&incoming, left, tag);
    Request sr = isend_wire(wires[static_cast<std::size_t>(send_idx)], right, tag);
    (void)wait(rr);
    (void)wait(sr);

    // Enqueue this block's decompression without blocking the ring.
    tl.advance_to(ctx_.now());
    auto* dst = out + static_cast<std::uint64_t>(recv_idx) * block_bytes;
    if (incoming.header.compressed) {
      auto staging = mgr.prepare_receive(tl, incoming.header);
      std::memcpy(staging.data, incoming.payload->data(), incoming.payload->size());
      core::CompressionManager::retry_decode([&] {
        mgr.decompress_received(tl, incoming.header, staging, dst, block_bytes,
                                /*synchronize=*/false);
      });
      stagings.push_back(staging);
    } else {
      std::memcpy(dst, incoming.payload->data(), incoming.payload->size());
    }
    ctx_.advance_to(tl.now());
    wires[static_cast<std::size_t>(recv_idx)] = std::move(incoming);
  }
  // Drain the overlapped decompression kernels and return the pool buffers.
  sim::Timeline end(ctx_.now());
  gpu().device_synchronize(end, &mgr.receiver_breakdown());
  for (auto& s : stagings) mgr.release(end, s);
  ctx_.advance_to(end.now());
}

void Rank::reduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                  int root) {
  const int tag = next_coll_tag();
  const int P = size();
  const int vrank = (rank_ - root + P) % P;

  // Small vectors ride the eager path uncompressed; the host-side fold is
  // cheaper than staging a device accumulator for them.
  if (n * 4 <= world_.options().eager_threshold) {
    std::vector<float> accum(sendbuf, sendbuf + n);
    std::vector<float> tmp(n);
    for (int mask = 1; mask < P; mask <<= 1) {
      if ((vrank & mask) == 0) {
        const int peer_v = vrank | mask;
        if (peer_v < P) {
          const int peer = (peer_v + root) % P;
          (void)recv(tmp.data(), n * 4, peer, tag);
          apply_op(accum.data(), tmp.data(), n, op);
        }
      } else {
        const int peer = ((vrank & ~mask) + root) % P;
        send(accum.data(), n * 4, peer, tag);
        break;
      }
    }
    if (rank_ == root) std::memcpy(recvbuf, accum.data(), n * 4);
    return;
  }

  // Rendezvous-sized vectors: same binomial schedule, but each hop moves a
  // wire form and arriving contributions fold into a device accumulator
  // with the manager's FUSED decompress+reduce kernels (enqueued without a
  // stream sync, so the decode of one child overlaps the wait for the
  // next). The fold order is identical to the host path — children in
  // ascending mask order, accumulator-first — so results are bit-identical.
  const sim::Time started = ctx_.now();
  CollStats st;
  auto& mgr = compression();
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  std::vector<core::Staging> stagings;
  bool kernels_in_flight = false;
  auto drain = [&] {
    const sim::Time t0 = ctx_.now();
    sim::Timeline tl(ctx_.now());
    gpu().device_synchronize(tl, &mgr.receiver_breakdown());
    for (auto& s : stagings) mgr.release(tl, s);
    stagings.clear();
    ctx_.advance_to(tl.now());
    kernels_in_flight = false;
    st.reduce_busy += ctx_.now() - t0;
  };

  for (int mask = 1; mask < P; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const int peer_v = vrank | mask;
      if (peer_v < P) {
        const int peer = (peer_v + root) % P;
        WireMessage in;
        Request rr = irecv_wire(&in, peer, tag);
        const sim::Time t0 = ctx_.now();
        (void)wait(rr);
        st.transfer_busy += ctx_.now() - t0;
        const sim::Time t1 = ctx_.now();
        sim::Timeline tl(ctx_.now());
        if (in.header.compressed) {
          auto staging = mgr.prepare_receive(tl, in.header);
          std::memcpy(staging.data, in.payload->data(), in.payload->size());
          core::CompressionManager::retry_decode([&] {
            mgr.decompress_reduce(tl, in.header, staging, acc, n * 4, op,
                                  /*synchronize=*/false);
          });
          stagings.push_back(staging);
        } else {
          (void)mgr.reduce_device(tl, reinterpret_cast<const float*>(in.payload->data()),
                                  acc, n, op, /*synchronize=*/false);
        }
        ++st.reduces;
        kernels_in_flight = true;
        ctx_.advance_to(tl.now());
        st.reduce_busy += ctx_.now() - t1;
      }
    } else {
      // The accumulator ships upward: drain the pending fused folds first,
      // then compress it once for the single parent hop.
      if (kernels_in_flight) drain();
      const sim::Time t0 = ctx_.now();
      WireMessage w = make_wire(acc, n * 4);
      st.compress_busy += ctx_.now() - t0;
      const int peer = ((vrank & ~mask) + root) % P;
      const sim::Time t1 = ctx_.now();
      Request sr = isend_wire(w, peer, tag);
      (void)wait(sr);
      ++st.hops;
      st.transfer_busy += ctx_.now() - t1;
      break;
    }
  }
  if (kernels_in_flight) drain();
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
