// Collective algorithm engine: compression-aware ring reduce-scatter /
// allgather allreduce and the hierarchical intra-node + leader-ring
// variant (gZCCL/ZCCL-style, folded onto the paper's wire primitives).
// Both are allreduce_grouped: the ring is its case of one-rank groups, the
// hierarchical one its case of one-node groups.
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
// Rank::Collective is one call's state (stage totals, decode stagings, the
// CollectiveRecord it appends) and absorbs arrived wire messages into
// device slices (the staging, the unsynchronized decode or fused reduce,
// the drain); ring_reduce_scatter_members and ring_allgather_members run
// on it, the latter as the one ring allgather of the flat allgather, the
// hierarchical leader ring and the allreduce ring.
#include <algorithm>
#include <cstring>
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

void Rank::Collective::finish(std::uint64_t bytes) {
  core::Telemetry* t = rank_.world_.options().telemetry;
  if (t == nullptr) return;
  t->record_collective({.at = started_,
                        .rank = rank_.rank_,
                        .op = op_,
                        .algorithm = core::collective_algorithm_name(algorithm_),
                        .bytes = bytes,
                        .hops = hops,
                        .reduces = reduces,
                        .span = rank_.ctx_.now() - started_,
                        .compress_busy = compress_busy,
                        .transfer_busy = transfer_busy,
                        .reduce_busy = reduce_busy});
}

void Rank::Collective::decode(const WireMessage& in, void* dst, std::uint64_t bytes,
                              int stream_hint) {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  const core::Staging staging = in.header.compressed ? stage(tl, in) : core::Staging{};
  core::CompressionManager::retry_decode([&] {
    rank_.world_.land(tl, rank_.rank_, in, staging, dst, bytes, /*synchronize=*/false,
                      stream_hint);
  });
  pending_ = true;
  reduce_busy += settle(tl, started);
}

void Rank::Collective::reduce(const WireMessage& in, float* acc, std::size_t n, ReduceOp op) {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  auto& mgr = rank_.compression();
  if (in.header.compressed) {
    const core::Staging& staging = stage(tl, in);
    std::memcpy(staging.data, in.payload->data(), in.payload->size());
    core::CompressionManager::retry_decode([&] {
      mgr.decompress_reduce(tl, in.header, staging, acc, n * 4, op, /*synchronize=*/false);
    });
  } else {
    (void)mgr.reduce_device(tl, reinterpret_cast<const float*>(in.payload->data()), acc, n,
                            op, /*synchronize=*/false);
  }
  pending_ = true;
  reduce_busy += settle(tl, started);
  ++reduces;
}

sim::Time Rank::Collective::drain() {
  const sim::Time started = rank_.ctx_.now();
  sim::Timeline tl(started);
  auto& mgr = rank_.compression();
  rank_.gpu().device_synchronize(tl, &mgr.receiver_breakdown());
  for (auto& s : stagings_) mgr.release(tl, s);
  stagings_.clear();
  pending_ = false;
  return settle(tl, started);
}

const core::Staging& Rank::Collective::stage(sim::Timeline& tl, const WireMessage& in) {
  return stagings_.emplace_back(rank_.compression().prepare_receive(tl, in.header));
}

sim::Time Rank::Collective::settle(const sim::Timeline& tl, sim::Time started) {
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
                                       Collective& c) {
  const int N = static_cast<int>(members.size());
  if (N <= 1 || n == 0) return;
  const int right = members[static_cast<std::size_t>((pos + 1) % N)];
  const int left = members[static_cast<std::size_t>((pos - 1 + N) % N)];

  // Offset -1 schedule: at step t this member sends shard (pos-t-1) and
  // receives shard (pos-t-2), so after N-1 steps position s owns the fully
  // reduced shard s (MPI_Reduce_scatter_block placement for free).
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
      if (c.pending()) (void)c.drain();
      out = make_wire(acc + slo, slen * 4);
      c.compress_busy += ctx_.now() - t0;
    }

    // Empty shards are skipped on both sides: the sender's shard at step t
    // is exactly its right neighbor's receive shard, so the skip agrees.
    const sim::Time t1 = ctx_.now();
    Request rr, sr;
    WireMessage in;
    if (rlen > 0) rr = irecv_wire(&in, left, tag);
    if (slen > 0) {
      sr = isend_wire(out, right, tag);
      ++c.hops;
    }
    if (rr) (void)wait(rr);
    if (sr) (void)wait(sr);
    c.transfer_busy += ctx_.now() - t1;

    if (rlen > 0) c.reduce(in, acc + rlo, rlen, op);
  }
  // Own shard's fused reduce finished the schedule; drain before callers
  // read or recompress the accumulator.
  if (c.pending()) c.reduce_busy += c.drain();
}

sim::Time Rank::ring_allgather_members(const std::vector<int>& members, int pos,
                                       const std::vector<std::span<std::uint8_t>>& slices,
                                       const void* own, int tag, Collective& c) {
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
    c.compress_busy += ctx_.now() - t0;
  }

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
      ++c.hops;
    }
    if (rr) (void)wait(rr);
    if (sr) (void)wait(sr);
    c.transfer_busy += ctx_.now() - t0;

    if (!into.empty()) {
      c.decode(in, into.data(), into.size());
      wires[recv_s] = std::move(in);
    }
  }
  return c.drain();
}

void Rank::allreduce_grouped(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                             int tag, core::CollectiveAlgorithm algorithm) {
  Collective c(*this, "allreduce", algorithm);
  const int group = algorithm == core::CollectiveAlgorithm::Hierarchical
                        ? world_.cluster().gpus_per_node
                        : 1;
  const int leader = rank_ - rank_ % group;

  // Device accumulator: the engine always reduces on-GPU, so compression
  // applies even when the caller passed host memory.
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  if (n != 0) std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));

  if (rank_ != leader) {
    // Member: ship the contribution to the group leader, receive the final
    // vector back in wire form.
    sim::Time t0 = ctx_.now();
    WireMessage w = make_intra_wire(acc, n * 4);
    c.compress_busy += ctx_.now() - t0;
    t0 = ctx_.now();
    Request sr = isend_wire(w, leader, tag);
    (void)wait(sr);
    ++c.hops;
    WireMessage in;
    Request rr = irecv_wire(&in, leader, tag);
    (void)wait(rr);
    c.transfer_busy += ctx_.now() - t0;
    t0 = ctx_.now();
    decompress_wire(in, acc, n * 4);
    c.reduce_busy += ctx_.now() - t0;
  } else {
    // Phase 1: fold the group's members into the leader accumulator in
    // ascending rank order (the canonical intra-node order), fused on-GPU,
    // and drain before the leader ring recompresses shards of it.
    for (int m = leader + 1; m < leader + group; ++m) {
      const sim::Time t0 = ctx_.now();
      WireMessage in;
      Request rr = irecv_wire(&in, m, tag);
      (void)wait(rr);
      c.transfer_busy += ctx_.now() - t0;
      c.reduce(in, acc, n, op);
    }
    if (c.pending()) (void)c.drain();

    // Phase 2: ring allreduce of the group partials across the leaders.
    const int groups = size() / group;
    const int pos = rank_ / group;
    const std::vector<int> leaders = strided_ranks(groups, group);
    ring_reduce_scatter_members(leaders, pos, acc, n, op, tag, c);
    const auto shards = shard_slices(acc, n, groups);
    (void)ring_allgather_members(leaders, pos, shards,
                                 shards[static_cast<std::size_t>(pos)].data(), tag, c);

    // Phase 3: hand the result back to the group's members. hand_back
    // serves the whole node, so a Ring group (one rank, whose node-mates
    // are leaders themselves) skips it.
    if (group > 1) hand_back(acc, n * 4, tag, c);
  }

  if (n != 0) std::memcpy(recvbuf, acc, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));
  gpu_free(acc);
  c.finish(n * 4);
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
  // Ring reduce-scatter: with n = P*recvcount the balanced shards are
  // exactly the recvcount-sized blocks, so position r ends owning block r.
  Collective c(*this, "reduce_scatter", core::CollectiveAlgorithm::Ring);
  auto* acc = static_cast<float*>(gpu_malloc(n * 4));
  if (n != 0) std::memcpy(acc, sendbuf, n * 4);
  compute(gpu().costs().d2d_copy(n * 4));
  ring_reduce_scatter_members(strided_ranks(P, 1), rank_, acc, n, op, tag, c);
  const auto [lo, hi] = core::shard_range(n, P, rank_);
  if (hi != lo) std::memcpy(recvbuf, acc + lo, (hi - lo) * 4);
  compute(gpu().costs().d2d_copy((hi - lo) * 4));
  gpu_free(acc);
  c.finish(n * 4);
}

}  // namespace gcmpi::mpi
