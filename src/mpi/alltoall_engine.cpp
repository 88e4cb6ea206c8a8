// Alltoall/shuffle engine: batched one-shot compression for the pairwise
// exchange (the hot path behind the paper's Dask/cuPy shuffle results).
//
// The naive alltoall compresses each of the P-1 per-destination blocks
// with its own kernel launch and sync, so launch overhead scales O(P) per
// rank. The batched engine compresses ALL outgoing blocks in one launch
// round (CompressionManager::compress_batch divides the SMs across the
// blocks and packs them into one wire slab), then serves every destination
// its slice over the scattered pairwise schedule — at step t, rank r sends
// to (r+t)%P and receives from (r-t)%P, so no port sees two slices at
// once. Receivers enqueue each arriving slice's decompression on the
// call's Rank::Collective (no stream sync, so it overlaps the remaining
// transfers) and synchronize once at the end.
//
// Every slice is a WireMessage moved with isend_wire/irecv_wire, so it
// rides the rendezvous reliability layer: a dropped or corrupted slice is
// CRC-detected and retransmits only itself, and injected decode faults are
// recovered by local kernel relaunch (Rank::Collective::decode).
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::mpi {

void Rank::alltoall_batched(const std::uint8_t* sendbuf, std::uint64_t block_bytes,
                            std::uint8_t* recvbuf, int tag) {
  const int P = size();
  Collective c(*this, "alltoall", core::CollectiveAlgorithm::BatchedPairwise);

  // One batched compression launch for the P-1 outgoing blocks, built in
  // the scattered send order so wires[step-1] is step's destination.
  std::vector<WireBlock> blocks;
  blocks.reserve(static_cast<std::size_t>(P - 1));
  for (int step = 1; step < P; ++step) {
    const int dst = (rank_ + step) % P;
    blocks.push_back({sendbuf + static_cast<std::uint64_t>(dst) * block_bytes, block_bytes,
                      dst, tag});
  }
  const sim::Time c0 = ctx_.now();
  std::vector<WireMessage> wires = make_wire_batch(blocks);
  c.compress_busy += ctx_.now() - c0;

  // Every slice already exists in the wire slab, so post the whole schedule
  // at once: the P-1 rendezvous handshakes and wire transfers pipeline on
  // the fabric instead of paying one round-trip per pairwise step.
  std::vector<WireMessage> inbox(static_cast<std::size_t>(P - 1));
  std::vector<Request> rreqs;
  std::vector<Request> sreqs;
  rreqs.reserve(inbox.size());
  sreqs.reserve(inbox.size());
  for (int step = 1; step < P; ++step) {
    const int src = (rank_ - step + P) % P;
    rreqs.push_back(irecv_wire(&inbox[static_cast<std::size_t>(step - 1)], src, tag));
  }
  for (int step = 1; step < P; ++step) {
    const int dst = (rank_ + step) % P;
    sreqs.push_back(isend_wire(wires[static_cast<std::size_t>(step - 1)], dst, tag));
  }

  // Each arrived slice's decode is enqueued on a stream rotated per slice:
  // the P-1 decompressions are independent, so they run concurrently
  // instead of queueing on one stream, overlap the remaining transfers,
  // and are drained once, below.
  for (int step = 1; step < P; ++step) {
    const int src = (rank_ - step + P) % P;

    const sim::Time t0 = ctx_.now();
    (void)wait(rreqs[static_cast<std::size_t>(step - 1)]);
    c.transfer_busy += ctx_.now() - t0;
    ++c.hops;

    c.decode(inbox[static_cast<std::size_t>(step - 1)],
             recvbuf + static_cast<std::uint64_t>(src) * block_bytes, block_bytes,
             /*stream_hint=*/step - 1);
  }
  const sim::Time w0 = ctx_.now();
  waitall(sreqs);
  c.transfer_busy += ctx_.now() - w0;
  c.reduce_busy += c.drain();
  c.finish(static_cast<std::uint64_t>(P) * block_bytes);
}

std::vector<Request> Rank::isend_batched(const std::vector<WireBlock>& blocks) {
  // Batch-compress only the blocks the normal isend path would compress,
  // and only when there are at least two of them to amortize the launch
  // over; everything else (small, host-resident, intra-node-exempt blocks)
  // takes the ordinary eager/rendezvous path.
  std::vector<std::size_t> batched;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto& b = blocks[i];
    if (b.peer != rank_ && world_.batch_compress_eligible(rank_, b.peer, b.buf, b.bytes)) {
      batched.push_back(i);
    }
  }

  std::vector<Request> reqs(blocks.size());
  std::vector<bool> is_batched(blocks.size(), false);
  if (batched.size() >= 2) {
    std::vector<WireBlock> sub;
    sub.reserve(batched.size());
    for (std::size_t idx : batched) sub.push_back(blocks[idx]);
    const std::vector<WireMessage> wires = make_wire_batch(sub);
    for (std::size_t k = 0; k < batched.size(); ++k) {
      const auto& b = blocks[batched[k]];
      reqs[batched[k]] = isend_wire(wires[k], b.peer, b.tag);
      is_batched[batched[k]] = true;
    }
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!is_batched[i]) reqs[i] = isend(blocks[i].buf, blocks[i].bytes, blocks[i].peer,
                                        blocks[i].tag);
  }
  return reqs;
}

}  // namespace gcmpi::mpi
