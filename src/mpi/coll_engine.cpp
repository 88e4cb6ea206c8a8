// Collective algorithm engine: compression-aware ring reduce-scatter /
// allgather allreduce and the hierarchical intra-node + leader-ring
// variant (gZCCL/ZCCL-style, folded onto the paper's wire primitives).
//
// Every inter-rank hop moves a WireMessage, so it rides the rendezvous
// reliability layer: a dropped or corrupted hop re-pushes only that hop's
// payload (CRC verification happens before wire delivery). Each arriving
// shard is folded into the device accumulator with the manager's FUSED
// decompress+reduce kernels, enqueued without a stream sync so the decode
// of hop t overlaps the exchange of hop t+1; the accumulator is drained
// only right before its next recompression.
//
// Determinism: the fold order of every algorithm is the canonical order
// replayed by core::allreduce_oracle — ring rotation per shard, ascending
// rank order within a node — and the fused primitive always folds
// accumulator-first (acc = op(acc, incoming)), so results are bit-identical
// across runs and delivery timings.
#include <cstring>
#include <numeric>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

core::CollectiveAlgorithm Rank::select_collective(core::CollectiveOp op,
                                                   std::uint64_t bytes) const {
  const auto& cl = world_.cluster();
  const core::CollectiveTuning& tuning = world_.options().collectives;
  core::AdaptivePolicy* adaptive = world_.options().adaptive;
  // The adaptive control plane only refines Auto: a forced algorithm stays
  // forced. Every rank of one collective receives the same answer (the
  // controller keys a shared decision sequence by per-rank round index).
  if (adaptive == nullptr || tuning[op] != core::CollectiveAlgorithm::Auto) {
    return core::resolve_collective(op, tuning, bytes, cl.ranks(), cl.nodes,
                                    cl.gpus_per_node);
  }
  return core::admit_collective(
      op,
      core::choose_collective(*adaptive, op, ctx_.now(), rank_, bytes, cl.ranks(), cl.nodes,
                              cl.gpus_per_node),
      cl.nodes, cl.gpus_per_node);
}

void Rank::record_collective(const char* op, core::CollectiveAlgorithm algorithm,
                             std::uint64_t bytes, sim::Time started,
                             const CollStats& st) {
  core::Telemetry* t = world_.options().telemetry;
  if (t == nullptr) return;
  core::CollectiveRecord rec;
  rec.at = started;
  rec.rank = rank_;
  rec.op = op;
  rec.algorithm = core::collective_algorithm_name(algorithm);
  rec.bytes = bytes;
  rec.hops = st.hops;
  rec.reduces = st.reduces;
  rec.span = ctx_.now() - started;
  rec.compress_busy = st.compress_busy;
  rec.transfer_busy = st.transfer_busy;
  rec.reduce_busy = st.reduce_busy;
  t->record_collective(rec);
}

void Rank::ring_reduce_scatter_members(const std::vector<int>& members, int pos,
                                       float* acc, std::size_t n, ReduceOp op, int tag,
                                       CollStats& st) {
  const int N = static_cast<int>(members.size());
  if (N <= 1 || n == 0) return;
  auto& mgr = compression();
  const int right = members[static_cast<std::size_t>((pos + 1) % N)];
  const int left = members[static_cast<std::size_t>((pos - 1 + N) % N)];

  // Offset -1 schedule: at step t this member sends shard (pos-t-1) and
  // receives shard (pos-t-2), so after N-1 steps position s owns the fully
  // reduced shard s (MPI_Reduce_scatter_block placement for free).
  std::vector<core::Staging> stagings;
  bool kernels_in_flight = false;
  auto drain = [&] {
    sim::Timeline tl(ctx_.now());
    gpu().device_synchronize(tl, &mgr.receiver_breakdown());
    for (auto& s : stagings) mgr.release(tl, s);
    stagings.clear();
    ctx_.advance_to(tl.now());
    kernels_in_flight = false;
  };

  for (int step = 0; step < N - 1; ++step) {
    const int send_s = (pos - step - 1 + 2 * N) % N;
    const int recv_s = (pos - step - 2 + 2 * N) % N;
    const auto [slo, shi] = core::shard_range(n, N, send_s);
    const auto [rlo, rhi] = core::shard_range(n, N, recv_s);
    const std::size_t slen = shi - slo;
    const std::size_t rlen = rhi - rlo;

    // The shard going out now is the one the previous step's fused kernels
    // reduced: drain them before recompressing it.
    WireMessage out;
    if (slen > 0) {
      const sim::Time t0 = ctx_.now();
      if (kernels_in_flight) drain();
      out = make_wire(acc + slo, slen * 4);
      st.compress_busy += ctx_.now() - t0;
    }

    // Empty shards are skipped on both sides: the sender's shard at step t
    // is exactly its right neighbor's receive shard, so the skip agrees.
    const sim::Time t1 = ctx_.now();
    Request rr, sr;
    WireMessage in;
    if (rlen > 0) rr = irecv_wire(&in, left, tag);
    if (slen > 0) {
      sr = isend_wire(out, right, tag);
      ++st.hops;
    }
    if (rr) (void)wait(rr);
    if (sr) (void)wait(sr);
    st.transfer_busy += ctx_.now() - t1;

    if (rlen > 0) {
      const sim::Time t2 = ctx_.now();
      sim::Timeline tl(ctx_.now());
      if (in.header.compressed) {
        auto staging = mgr.prepare_receive(tl, in.header);
        std::memcpy(staging.data, in.payload->data(), in.payload->size());
        core::CompressionManager::retry_decode([&] {
          mgr.decompress_reduce(tl, in.header, staging, acc + rlo, rlen * 4, op,
                                /*synchronize=*/false);
        });
        stagings.push_back(staging);
      } else {
        (void)mgr.reduce_device(tl,
                                reinterpret_cast<const float*>(in.payload->data()),
                                acc + rlo, rlen, op, /*synchronize=*/false);
      }
      ++st.reduces;
      kernels_in_flight = true;
      ctx_.advance_to(tl.now());
      st.reduce_busy += ctx_.now() - t2;
    }
  }
  // Own shard's fused reduce finished the schedule; drain before callers
  // read or recompress the accumulator.
  if (kernels_in_flight) {
    const sim::Time t0 = ctx_.now();
    drain();
    st.reduce_busy += ctx_.now() - t0;
  }
}

void Rank::ring_allgather_members(const std::vector<int>& members, int pos, float* acc,
                                  std::size_t n, int tag, CollStats& st) {
  const int N = static_cast<int>(members.size());
  if (N <= 1 || n == 0) return;
  auto& mgr = compression();
  const int right = members[static_cast<std::size_t>((pos + 1) % N)];
  const int left = members[static_cast<std::size_t>((pos - 1 + N) % N)];

  // Each member compresses its reduced shard ONCE; the wire forms then
  // circulate, with decompression kernels enqueued as shards arrive so they
  // overlap the remaining ring steps (the allgather idiom).
  std::vector<WireMessage> wires(static_cast<std::size_t>(N));
  {
    const auto [lo, hi] = core::shard_range(n, N, pos);
    if (hi > lo) {
      const sim::Time t0 = ctx_.now();
      wires[static_cast<std::size_t>(pos)] = make_wire(acc + lo, (hi - lo) * 4);
      st.compress_busy += ctx_.now() - t0;
    }
  }

  std::vector<core::Staging> stagings;
  for (int step = 0; step < N - 1; ++step) {
    const int send_s = (pos - step + 2 * N) % N;
    const int recv_s = (pos - step - 1 + 2 * N) % N;
    const auto [slo, shi] = core::shard_range(n, N, send_s);
    const auto [rlo, rhi] = core::shard_range(n, N, recv_s);
    const std::size_t slen = shi - slo;
    const std::size_t rlen = rhi - rlo;

    const sim::Time t0 = ctx_.now();
    Request rr, sr;
    WireMessage in;
    if (rlen > 0) rr = irecv_wire(&in, left, tag);
    if (slen > 0) {
      sr = isend_wire(wires[static_cast<std::size_t>(send_s)], right, tag);
      ++st.hops;
    }
    if (rr) (void)wait(rr);
    if (sr) (void)wait(sr);
    st.transfer_busy += ctx_.now() - t0;

    if (rlen > 0) {
      const sim::Time t1 = ctx_.now();
      sim::Timeline tl(ctx_.now());
      if (in.header.compressed) {
        auto staging = mgr.prepare_receive(tl, in.header);
        std::memcpy(staging.data, in.payload->data(), in.payload->size());
        core::CompressionManager::retry_decode([&] {
          mgr.decompress_received(tl, in.header, staging, acc + rlo, rlen * 4,
                                  /*synchronize=*/false);
        });
        stagings.push_back(staging);
      } else {
        std::memcpy(acc + rlo, in.payload->data(), in.payload->size());
      }
      ctx_.advance_to(tl.now());
      st.reduce_busy += ctx_.now() - t1;
      wires[static_cast<std::size_t>(recv_s)] = std::move(in);
    }
  }
  // Drain the overlapped decompressions and return the pool buffers.
  sim::Timeline end(ctx_.now());
  gpu().device_synchronize(end, &mgr.receiver_breakdown());
  for (auto& s : stagings) mgr.release(end, s);
  ctx_.advance_to(end.now());
}

void Rank::allreduce_ring(const float* sendbuf, float* recvbuf, std::size_t n,
                          ReduceOp op, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const int P = size();

  // Device accumulator: the engine always reduces on-GPU, so compression
  // applies even when the caller passed host memory.
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  std::vector<int> members(static_cast<std::size_t>(P));
  std::iota(members.begin(), members.end(), 0);
  ring_reduce_scatter_members(members, rank_, acc, n, op, tag, st);
  ring_allgather_members(members, rank_, acc, n, tag, st);

  if (n != 0) std::memcpy(recvbuf, acc, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));
  gpu_free(acc);
  record_collective("allreduce", core::CollectiveAlgorithm::Ring, n * 4, started, st);
}

void Rank::allreduce_hierarchical(const float* sendbuf, float* recvbuf, std::size_t n,
                                  ReduceOp op, int tag) {
  const sim::Time started = ctx_.now();
  CollStats st;
  const auto& cl = world_.cluster();
  const int leader = cl.node_leader(rank_);
  const int node_end = std::min(leader + cl.gpus_per_node, size());

  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  if (rank_ != leader) {
    // Member: ship the contribution to the node leader, receive the final
    // vector back in wire form.
    sim::Time t0 = ctx_.now();
    WireMessage w = make_wire(acc, n * 4);
    st.compress_busy += ctx_.now() - t0;
    t0 = ctx_.now();
    Request sr = isend_wire(w, leader, tag);
    (void)wait(sr);
    ++st.hops;
    WireMessage in;
    Request rr = irecv_wire(&in, leader, tag);
    (void)wait(rr);
    st.transfer_busy += ctx_.now() - t0;
    t0 = ctx_.now();
    decompress_wire(in, acc, n * 4);
    st.reduce_busy += ctx_.now() - t0;
  } else {
    // Phase 1: fold the node's members into the leader accumulator in
    // ascending rank order (the canonical intra-node order), fused on-GPU.
    auto& mgr = compression();
    std::vector<core::Staging> stagings;
    for (int m = leader + 1; m < node_end; ++m) {
      sim::Time t0 = ctx_.now();
      WireMessage in;
      Request rr = irecv_wire(&in, m, tag);
      (void)wait(rr);
      st.transfer_busy += ctx_.now() - t0;
      t0 = ctx_.now();
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
        (void)mgr.reduce_device(tl,
                                reinterpret_cast<const float*>(in.payload->data()), acc,
                                n, op, /*synchronize=*/false);
      }
      ++st.reduces;
      ctx_.advance_to(tl.now());
      st.reduce_busy += ctx_.now() - t0;
    }
    if (!stagings.empty() || node_end - leader > 1) {
      // Drain the intra-node fused reduces before the leader ring
      // recompresses shards of the accumulator.
      sim::Timeline tl(ctx_.now());
      gpu().device_synchronize(tl, &mgr.receiver_breakdown());
      for (auto& s : stagings) mgr.release(tl, s);
      ctx_.advance_to(tl.now());
    }

    // Phase 2: ring allreduce of node partials across the leader ring.
    std::vector<int> leaders(static_cast<std::size_t>(cl.nodes));
    for (int node = 0; node < cl.nodes; ++node) {
      leaders[static_cast<std::size_t>(node)] = node * cl.gpus_per_node;
    }
    const int my_node = cl.node_of(rank_);
    ring_reduce_scatter_members(leaders, my_node, acc, n, op, tag, st);
    ring_allgather_members(leaders, my_node, acc, n, tag, st);

    // Phase 3: hand the result back to the node's members (compressed once,
    // wire-forwarded to each).
    if (node_end - leader > 1) {
      sim::Time t0 = ctx_.now();
      WireMessage w = make_wire(acc, n * 4);
      st.compress_busy += ctx_.now() - t0;
      t0 = ctx_.now();
      std::vector<Request> sends;
      for (int m = leader + 1; m < node_end; ++m) sends.push_back(isend_wire(w, m, tag));
      waitall(sends);
      st.hops += static_cast<std::uint32_t>(node_end - leader - 1);
      st.transfer_busy += ctx_.now() - t0;
    }
  }

  if (n != 0) std::memcpy(recvbuf, acc, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));
  gpu_free(acc);
  record_collective("allreduce", core::CollectiveAlgorithm::Hierarchical, n * 4, started,
                    st);
}

void Rank::reduce_scatter(const float* sendbuf, float* recvbuf, std::size_t recvcount,
                          ReduceOp op) {
  const int tag = next_coll_tag();
  const int P = size();
  const std::size_t n = recvcount * static_cast<std::size_t>(P);
  if (P == 1) {
    std::memcpy(recvbuf, sendbuf, recvcount * 4);
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
  // Ring reduce-scatter: with n = P*recvcount the balanced shards are
  // exactly the recvcount-sized blocks, so position r ends owning block r.
  const sim::Time started = ctx_.now();
  CollStats st;
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  if (n != 0) std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));
  std::vector<int> members(static_cast<std::size_t>(P));
  std::iota(members.begin(), members.end(), 0);
  ring_reduce_scatter_members(members, rank_, acc, n, op, tag, st);
  const auto [lo, hi] = core::shard_range(n, P, rank_);
  if (hi != lo) std::memcpy(recvbuf, acc + lo, (hi - lo) * 4);
  compute(gpu().costs().d2d_copy((hi - lo) * 4));
  gpu_free(acc);
  record_collective("reduce_scatter", core::CollectiveAlgorithm::Ring, n * 4, started,
                    st);
}

}  // namespace gcmpi::mpi
