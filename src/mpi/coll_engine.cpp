// Collective selection and the one executor of the compressed collectives'
// schedules (mpi/schedule.hpp).
//
// Every hop of a schedule moves a WireMessage or a raw slice over the
// point-to-point layer, so it rides the rendezvous reliability layer: a
// dropped or corrupted hop re-pushes only that hop's payload, and an
// injected decode fault on a wire form is recovered by relaunching its
// kernels. Decodes at an unsynchronized placement (the fused
// decompress+reduce folds, the ring allgather's and the batched alltoall's
// decodes) overlap the remaining transfers until the next drain.
//
// Stage accounting is a property of the step kinds: the executor charges
// each step's own elapsed rank time to exactly one busy column (encode to
// compress, send/recv/wait to transfer, decode and drain to reduce, copy to
// none), so the columns and the uncharged allocations and copies add up to
// the record's span.
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

void Rank::run_schedule(sched::Builder build, std::uint64_t bytes, int root,
                        const void* sendbuf, void* recvbuf, int tag, ReduceOp op) {
  // Every intra-node route shares one gate, so this rank's own answers.
  const Schedule s = build(world_.cluster(), {.rank = rank_, .bytes = bytes, .root = root,
                                              .intra_compress = world_.compresses(rank_, rank_)});
  auto& mgr = compression();
  const sim::Time started = ctx_.now();
  void* scratch = s.scratch ? gpu_malloc(*s.scratch) : nullptr;
  void* const base[] = {const_cast<void*>(sendbuf), recvbuf, scratch};  // Buffer order
  const auto at = [&](const Slice& x) {
    return static_cast<std::uint8_t*>(base[static_cast<std::size_t>(x.buffer)]) + x.offset;
  };
  const auto blocks = [&](const Step& step) {
    std::vector<WireBlock> out;
    for (const Operand& o : step.ops) out.push_back({at(o.slice), o.slice.bytes, o.peer, tag});
    return out;
  };
  std::vector<WireMessage> wires(static_cast<std::size_t>(s.wires));
  const auto wire = [&](const Operand& o) -> WireMessage& {
    return wires[static_cast<std::size_t>(o.wire)];
  };
  // A slot is dropped after the last step that reads it, so a received or
  // encoded payload lives no longer than the message that used it.
  std::vector<std::size_t> last_read(wires.size(), s.steps.size());
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    if (s.steps[i].kind != Step::Kind::Send && s.steps[i].kind != Step::Kind::Decode) continue;
    for (const Operand& o : s.steps[i].ops) {
      if (o.wire >= 0) last_read[static_cast<std::size_t>(o.wire)] = i;
    }
  }
  std::vector<std::vector<Request>> posted(s.steps.size());
  std::vector<core::Staging> stagings;  // enqueued decodes' stagings, released by a drain
  std::uint32_t hops = 0, reduces = 0;
  // The one charging rule: each step's elapsed rank time goes to the busy
  // column of its kind (Step::Kind order), a copy to none.
  sim::Time compress_busy, transfer_busy, reduce_busy;
  sim::Time* const column[] = {&compress_busy, &transfer_busy, &transfer_busy, &transfer_busy,
                               &reduce_busy,   &reduce_busy,   nullptr};

  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    const Step& step = s.steps[i];
    const Operand& o = step.ops.empty() ? Operand{} : step.ops[0];
    const sim::Time t0 = ctx_.now();
    switch (step.kind) {
      case Step::Kind::Encode:
        if (step.at.slab) {  // the batch placement: one launch for every block
          std::vector<WireMessage> out = world_.do_make_wire_batch(ctx_, rank_, blocks(step));
          for (std::size_t k = 0; k < out.size(); ++k) wire(step.ops[k]) = std::move(out[k]);
        } else {
          wire(o) = step.raw ? world_.make_raw_wire(at(o.slice), o.slice.bytes)
                             : make_wire(at(o.slice), o.slice.bytes);
        }
        break;
      case Step::Kind::Send:
        if (step.ops.size() > 1) {  // raw slices to several peers: one batched send
          posted[i] = isend_batched(blocks(step));
        } else {
          posted[i].push_back(o.wire >= 0 ? isend_wire(wire(o), o.peer, tag)
                                          : isend(at(o.slice), o.slice.bytes, o.peer, tag));
        }
        hops += static_cast<std::uint32_t>(step.ops.size());
        break;
      case Step::Kind::Recv:
        posted[i].push_back(o.wire >= 0 ? irecv_wire(&wire(o), o.peer, tag)
                                        : irecv(at(o.slice), o.slice.bytes, o.peer, tag));
        break;
      case Step::Kind::Wait:
        for (int post : step.waits) waitall(posted[static_cast<std::size_t>(post)]);
        break;
      case Step::Kind::Decode: {
        sim::Timeline tl(t0);
        stagings.push_back(land_wire(tl, wire(o), at(o.slice), o.slice.bytes, step.at,
                                     step.fold ? std::optional(op) : std::nullopt));
        if (step.at.synchronize) {
          mgr.release(tl, stagings.back());
          stagings.pop_back();
        }
        ctx_.advance_to(tl.now());
        reduces += step.fold ? 1 : 0;
        break;
      }
      case Step::Kind::Drain: {
        sim::Timeline tl(t0);
        gpu().device_synchronize(tl, &mgr.receiver_breakdown());
        for (auto& staging : stagings) mgr.release(tl, staging);
        stagings.clear();
        ctx_.advance_to(tl.now());
        break;
      }
      case Step::Kind::Copy:
        if (o.slice.bytes != 0) std::memcpy(at(step.ops[1].slice), at(o.slice), o.slice.bytes);
        if (step.device) compute(gpu().costs().d2d_copy(o.slice.bytes));
        break;
    }
    if (sim::Time* busy = column[static_cast<std::size_t>(step.kind)]) *busy += ctx_.now() - t0;
    for (const Operand& x : step.ops) {
      if (x.wire >= 0 && last_read[static_cast<std::size_t>(x.wire)] == i) wire(x) = {};
    }
  }
  if (s.scratch) gpu_free(scratch);

  core::Telemetry* t = world_.options().telemetry;
  if (!s.record || t == nullptr) return;
  t->record_collective({.at = started,
                        .rank = rank_,
                        .op = s.op,
                        .algorithm = core::collective_algorithm_name(s.algorithm),
                        .bytes = *s.record,
                        .hops = hops,
                        .reduces = reduces,
                        .span = ctx_.now() - started,
                        .compress_busy = compress_busy,
                        .transfer_busy = transfer_busy,
                        .reduce_busy = reduce_busy});
}

}  // namespace gcmpi::mpi
