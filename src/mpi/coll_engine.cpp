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
//
// The steps every compressed collective body shares live here too:
// Rank::DecodeQueue absorbs arrived wire messages into device slices (the
// staging, the unsynchronized decode or fused reduce, the drain), and
// ring_allgather_members is the one ring allgather, run by the flat
// allgather, the hierarchical leader ring and both allreduce rings.
#include <algorithm>
#include <cstring>
#include <ranges>
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

sim::Time Rank::DecodeQueue::decode(const WireMessage& in, void* dst, std::uint64_t bytes,
                                    int stream_hint) {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  if (in.header.compressed) {
    const core::Staging& staging = stage(tl, in);
    core::CompressionManager::retry_decode([&] {
      rank_.compression().decompress_received(tl, in.header, staging, dst, bytes,
                                              /*synchronize=*/false, stream_hint);
    });
  } else if (!in.payload->empty()) {
    std::memcpy(dst, in.payload->data(), in.payload->size());
  }
  pending_ = true;
  return settle(tl, started);
}

sim::Time Rank::DecodeQueue::reduce(const WireMessage& in, float* acc, std::size_t n,
                                    ReduceOp op) {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  auto& mgr = rank_.compression();
  if (in.header.compressed) {
    const core::Staging& staging = stage(tl, in);
    core::CompressionManager::retry_decode([&] {
      mgr.decompress_reduce(tl, in.header, staging, acc, n * 4, op, /*synchronize=*/false);
    });
  } else {
    (void)mgr.reduce_device(tl, reinterpret_cast<const float*>(in.payload->data()), acc, n,
                            op, /*synchronize=*/false);
  }
  pending_ = true;
  return settle(tl, started);
}

sim::Time Rank::DecodeQueue::drain() {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  auto& mgr = rank_.compression();
  rank_.gpu().device_synchronize(tl, &mgr.receiver_breakdown());
  for (auto& s : stagings_) mgr.release(tl, s);
  stagings_.clear();
  pending_ = false;
  return settle(tl, started);
}

const core::Staging& Rank::DecodeQueue::stage(sim::Timeline& tl, const WireMessage& in) {
  stagings_.push_back(rank_.compression().prepare_receive(tl, in.header));
  std::memcpy(stagings_.back().data, in.payload->data(), in.payload->size());
  return stagings_.back();
}

sim::Time Rank::DecodeQueue::settle(const sim::Timeline& tl, sim::Time started) {
  rank_.ctx_.advance_to(tl.now());
  return rank_.ctx_.now() - started;
}

std::vector<int> Rank::strided_ranks(int count, int stride) {
  std::vector<int> ranks(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) ranks[static_cast<std::size_t>(i)] = i * stride;
  return ranks;
}

std::vector<std::span<std::uint8_t>> Rank::block_slices(void* base, std::uint64_t bytes,
                                                        int count) {
  std::vector<std::span<std::uint8_t>> slices;
  for (int i = 0; i < count; ++i) {
    slices.emplace_back(static_cast<std::uint8_t*>(base) + static_cast<std::uint64_t>(i) * bytes,
                        bytes);
  }
  return slices;
}

namespace {

/// The byte slices of an n-float accumulator's N balanced shards.
std::vector<std::span<std::uint8_t>> shard_slices(float* acc, std::size_t n, int N) {
  std::vector<std::span<std::uint8_t>> slices;
  for (int s = 0; s < N; ++s) {
    const auto [lo, hi] = core::shard_range(n, N, s);
    slices.emplace_back(reinterpret_cast<std::uint8_t*>(acc + lo), (hi - lo) * 4);
  }
  return slices;
}

}  // namespace

void Rank::ring_reduce_scatter_members(const std::vector<int>& members, int pos,
                                       float* acc, std::size_t n, ReduceOp op, int tag,
                                       CollStats& st) {
  const int N = static_cast<int>(members.size());
  if (N <= 1 || n == 0) return;
  const int right = members[static_cast<std::size_t>((pos + 1) % N)];
  const int left = members[static_cast<std::size_t>((pos - 1 + N) % N)];

  // Offset -1 schedule: at step t this member sends shard (pos-t-1) and
  // receives shard (pos-t-2), so after N-1 steps position s owns the fully
  // reduced shard s (MPI_Reduce_scatter_block placement for free).
  DecodeQueue queue(*this);
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
      if (queue.pending()) (void)queue.drain();
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
      st.reduce_busy += queue.reduce(in, acc + rlo, rlen, op);
      ++st.reduces;
    }
  }
  // Own shard's fused reduce finished the schedule; drain before callers
  // read or recompress the accumulator.
  if (queue.pending()) st.reduce_busy += queue.drain();
}

sim::Time Rank::ring_allgather_members(const std::vector<int>& members, int pos,
                                       const std::vector<std::span<std::uint8_t>>& slices,
                                       const void* own, int tag, CollStats& st) {
  const int N = static_cast<int>(members.size());
  if (N <= 1 || std::all_of(slices.begin(), slices.end(), [](auto s) { return s.empty(); })) {
    return {};
  }
  const int right = members[static_cast<std::size_t>((pos + 1) % N)];
  const int left = members[static_cast<std::size_t>((pos - 1 + N) % N)];

  // Each member compresses its own slice ONCE; the wire forms then
  // circulate, and at step t this member forwards slice (pos-t) and
  // receives slice (pos-t-1).
  std::vector<WireMessage> wires(static_cast<std::size_t>(N));
  if (!slices[static_cast<std::size_t>(pos)].empty()) {
    const sim::Time t0 = ctx_.now();
    wires[static_cast<std::size_t>(pos)] =
        make_wire(own, slices[static_cast<std::size_t>(pos)].size());
    st.compress_busy += ctx_.now() - t0;
  }

  DecodeQueue queue(*this);
  for (int step = 0; step < N - 1; ++step) {
    const auto send_s = static_cast<std::size_t>((pos - step + N) % N);
    const auto recv_s = static_cast<std::size_t>((pos - step - 1 + N) % N);
    const std::span<std::uint8_t> into = slices[recv_s];

    const sim::Time t0 = ctx_.now();
    Request rr, sr;
    WireMessage in;
    if (!into.empty()) rr = irecv_wire(&in, left, tag);
    if (!slices[send_s].empty()) {
      sr = isend_wire(wires[send_s], right, tag);
      ++st.hops;
    }
    if (rr) (void)wait(rr);
    if (sr) (void)wait(sr);
    st.transfer_busy += ctx_.now() - t0;

    if (!into.empty()) {
      st.reduce_busy += queue.decode(in, into.data(), into.size());
      wires[recv_s] = std::move(in);
    }
  }
  return queue.drain();
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

  const std::vector<int> members = strided_ranks(P, 1);
  ring_reduce_scatter_members(members, rank_, acc, n, op, tag, st);
  const auto shards = shard_slices(acc, n, P);
  (void)ring_allgather_members(members, rank_, shards,
                               shards[static_cast<std::size_t>(rank_)].data(), tag, st);

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
  const int my_node = cl.node_of(rank_);
  const auto members = cl.node_ranks(my_node) | std::views::drop(1);

  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  if (rank_ != leader) {
    // Member: ship the contribution to the node leader, receive the final
    // vector back in wire form.
    sim::Time t0 = ctx_.now();
    WireMessage w = make_intra_wire(acc, n * 4);
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
    // ascending rank order (the canonical intra-node order), fused on-GPU,
    // and drain before the leader ring recompresses shards of it.
    DecodeQueue queue(*this);
    for (int m : members) {
      const sim::Time t0 = ctx_.now();
      WireMessage in;
      Request rr = irecv_wire(&in, m, tag);
      (void)wait(rr);
      st.transfer_busy += ctx_.now() - t0;
      st.reduce_busy += queue.reduce(in, acc, n, op);
      ++st.reduces;
    }
    if (queue.pending()) (void)queue.drain();

    // Phase 2: ring allreduce of node partials across the leader ring.
    const std::vector<int> leaders = strided_ranks(cl.nodes, cl.gpus_per_node);
    ring_reduce_scatter_members(leaders, my_node, acc, n, op, tag, st);
    const auto shards = shard_slices(acc, n, cl.nodes);
    (void)ring_allgather_members(leaders, my_node, shards,
                                 shards[static_cast<std::size_t>(my_node)].data(), tag, st);

    // Phase 3: hand the result back to the node's members (compressed once,
    // wire-forwarded to each).
    if (!members.empty()) {
      sim::Time t0 = ctx_.now();
      WireMessage w = make_intra_wire(acc, n * 4);
      st.compress_busy += ctx_.now() - t0;
      t0 = ctx_.now();
      std::vector<Request> sends;
      for (int m : members) sends.push_back(isend_wire(w, m, tag));
      waitall(sends);
      st.hops += static_cast<std::uint32_t>(sends.size());
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
  ring_reduce_scatter_members(strided_ranks(P, 1), rank_, acc, n, op, tag, st);
  const auto [lo, hi] = core::shard_range(n, P, rank_);
  if (hi != lo) std::memcpy(recvbuf, acc + lo, (hi - lo) * 4);
  compute(gpu().costs().d2d_copy((hi - lo) * 4));
  gpu_free(acc);
  record_collective("reduce_scatter", core::CollectiveAlgorithm::Ring, n * 4, started,
                    st);
}

}  // namespace gcmpi::mpi
