// The builders of the compressed collectives (see schedule.hpp). Each one
// writes this rank's steps in the order its algorithm posts them, after
// MPICH's and gZCCL's choices:
//
//   bcast_tree        binomial tree; the root compresses ONCE and every
//                     intermediate rank forwards the wire form to its
//                     children before decoding its own copy.
//   allgather_ring    each block is compressed once by its owner and
//                     circulates in wire form; decodes overlap the ring.
//   reduce_tree       binomial reduce; contributions fold into a device
//                     accumulator with fused decode+reduce kernels, which
//                     ships upward compressed once.
//   reduce_scatter_ring / allreduce_ring / allreduce_hierarchical
//                     members fold into their group leader (one node for
//                     Hierarchical, the rank itself for Ring); the leaders
//                     run the ring reduce-scatter, then the ring allgather
//                     of the reduced shards, and hand the result back.
//   bcast_hierarchical / allgather_hierarchical / gather_hierarchical /
//   scatter_hierarchical
//                     one wire transit crosses IB per node: staged at one
//                     representative per node, fanned out over NVLink.
//   alltoall_batched  one batched compression launch for the P-1 outgoing
//                     blocks, the whole scattered pairwise schedule posted
//                     at once, one decode per arriving slice on its own
//                     stream, drained once.
//
// Determinism: every fold follows the canonical order that
// core::allreduce_oracle replays (ring rotation per shard, ascending rank
// order within a node), accumulator first.
#include "mpi/schedule.hpp"

#include <algorithm>
#include <ranges>
#include <utility>

namespace gcmpi::mpi {

namespace {

using core::CollectiveAlgorithm;

const Placement kEnqueued = Placement::message(0, false);  // finished by the next drain
const Placement kSynced = Placement::message();             // finished before the next step

Slice send_at(std::uint64_t at, std::uint64_t n) { return {Buffer::Send, at, n}; }
Slice recv_at(std::uint64_t at, std::uint64_t n) { return {Buffer::Recv, at, n}; }
Slice scratch_at(std::uint64_t at, std::uint64_t n) { return {Buffer::Scratch, at, n}; }

/// `units` items of `unit` bytes at the start of `buffer`, in `count`
/// balanced slices: the equal blocks of an allgather, the shards of a ring
/// reduce-scatter.
std::vector<Slice> split(Buffer buffer, std::uint64_t units, std::uint64_t unit, int count) {
  std::vector<Slice> out;
  for (int i = 0; i < count; ++i) {
    const auto [lo, hi] = core::shard_range(units, count, i);
    out.push_back({buffer, lo * unit, (hi - lo) * unit});
  }
  return out;
}

/// The ranks of `rank`'s node after its leader, in rank order.
auto node_members(const net::ClusterSpec& topology, int rank) {
  return topology.node_ranks(topology.node_of(rank)) | std::views::drop(1);
}

/// One pass round the ring of ranks 0, stride, 2*stride, ... (all ranks,
/// or the node leaders), this member at position `pos` and position i
/// owning `slices[i]`: N-1 steps for N = slices.size().
/// With `fold` it is the reduce-scatter: at step t this member encodes and
/// sends slice pos-t-1 and folds the arriving slice pos-t-2 into its own
/// copy, so position i ends owning the fully reduced slice i. The outgoing
/// slice is the one the previous step folded, so the folds drain before it
/// is encoded. Without `fold` it is the allgather: this member encodes
/// `own` once as slice pos, forwards slice pos-t (a wire form, never
/// recompressed) and decodes the arriving slice pos-t-1, drained once.
/// Empty slices move nothing on either side: the sender's slice at each
/// step is its right neighbour's receive slice.
void ring_pass(Schedule& s, int stride, int pos, const std::vector<Slice>& slices, bool fold,
               Slice own = {}) {
  const int N = static_cast<int>(slices.size());
  if (N <= 1 || std::ranges::all_of(slices, [](Slice x) { return x.bytes == 0; })) return;
  const auto at = [N](int i) { return static_cast<std::size_t>((i % N + N) % N); };
  const int left = static_cast<int>(at(pos - 1)) * stride;
  const int right = static_cast<int>(at(pos + 1)) * stride;
  const int first = s.wires;  // slice i travels in wire slot first + i
  s.wires += N;
  if (!fold && own.bytes > 0) s.encode(own, first + pos);
  const int lag = fold ? 1 : 0;
  bool pending = false;
  for (int step = 0; step < N - 1; ++step) {
    const std::size_t out = at(pos - step - lag), in = at(pos - step - lag - 1);
    const int w_out = first + static_cast<int>(out), w_in = first + static_cast<int>(in);
    if (fold && slices[out].bytes > 0) {
      if (std::exchange(pending, false)) s.drain();
      s.encode(slices[out], w_out);
    }
    std::vector<int> posts;
    if (slices[in].bytes > 0) posts.push_back(s.recv(w_in, left));
    if (slices[out].bytes > 0) posts.push_back(s.send(w_out, right));
    s.wait(posts);
    if (slices[in].bytes > 0) {
      s.decode(w_in, slices[in], fold, kEnqueued);
      pending = true;
    }
  }
  if (pending || !fold) s.drain();
}

/// Receive the wire form `w` from the tree parent (the tree's root encodes
/// `buf` into it instead) and forward it to every child: no recompression
/// anywhere. Returns the sends.
std::vector<int> forward_tree(Schedule& s, const core::BinomialTree& tree, int w, Slice buf) {
  if (tree.parent >= 0) {
    s.wait({s.recv(w, tree.parent)});
  } else {
    s.encode(buf, w);
  }
  std::vector<int> sends;
  for (int child : tree.children) sends.push_back(s.send(w, child));
  return sends;
}

/// Leader step: encode `bytes` of the scratch once and send it to every
/// other rank of this node.
void hand_to_members(Schedule& s, const net::ClusterSpec& topology, const Shape& sh,
                     std::uint64_t bytes) {
  if (node_members(topology, sh.rank).empty()) return;
  const int w = s.wire();
  s.encode(scratch_at(0, bytes), w, !sh.intra_compress);
  std::vector<int> sends;
  for (int m : node_members(topology, sh.rank)) sends.push_back(s.send(w, m));
  s.wait(sends);
}

/// Leader step: copy this rank's block into the scratch slab at `slab`, then
/// receive every other rank of this node into the block at its offset.
void collect_members(Schedule& s, const net::ClusterSpec& topology, const Shape& sh,
                     std::uint64_t slab) {
  s.copy(send_at(0, sh.bytes), scratch_at(slab, sh.bytes));
  std::vector<int> recvs;
  for (int m : node_members(topology, sh.rank)) {
    recvs.push_back(s.recv(scratch_at(slab + (m - sh.rank) * sh.bytes, sh.bytes), m));
  }
  s.wait(recvs);
}

Schedule allreduce_grouped(const net::ClusterSpec& topology, const Shape& sh,
                           CollectiveAlgorithm algorithm) {
  const int group = algorithm == CollectiveAlgorithm::Hierarchical ? topology.gpus_per_node : 1;
  const int leader = sh.rank - sh.rank % group;
  // The device accumulator: the engine always reduces on-GPU, so
  // compression applies even when the caller passed host memory.
  const Slice acc = scratch_at(0, sh.bytes);
  Schedule s{.op = "allreduce", .algorithm = algorithm, .record = sh.bytes, .scratch = sh.bytes};
  s.copy(send_at(0, sh.bytes), acc);
  if (sh.rank != leader) {
    // Member: ship the contribution to the leader, get the result back.
    const int out = s.wire(), in = s.wire();
    s.encode(acc, out, !sh.intra_compress);
    s.wait({s.send(out, leader)});
    s.wait({s.recv(in, leader)});
    s.decode(in, acc, false, kSynced);
  } else {
    // Fold the members in ascending rank order, run the ring allreduce of
    // the group partials across the leaders, and hand the result back (a
    // Ring group has no members).
    for (int m = leader + 1; m < leader + group; ++m) {
      const int in = s.wire();
      s.wait({s.recv(in, m)});
      s.decode(in, acc, true, kEnqueued);
    }
    if (group > 1) s.drain();
    const int pos = sh.rank / group;
    const std::vector<Slice> shards =
        split(Buffer::Scratch, sh.bytes / 4, 4, topology.ranks() / group);
    ring_pass(s, group, pos, shards, true);
    ring_pass(s, group, pos, shards, false, shards[static_cast<std::size_t>(pos)]);
    if (group > 1) hand_to_members(s, topology, sh, sh.bytes);
  }
  s.copy(acc, recv_at(0, sh.bytes));
  return s;
}

/// The binomial tree of `rank` over `count` ranks rooted at `root`, with
/// its parent and children mapped back by `real`.
core::BinomialTree tree_of(int rank, int root, int count, auto real) {
  core::BinomialTree tree = core::binomial_tree((rank - root + count) % count, count);
  if (tree.parent >= 0) tree.parent = real((tree.parent + root) % count);
  for (int& child : tree.children) child = real((child + root) % count);
  return tree;
}

}  // namespace

namespace sched {

Schedule bcast_tree(const net::ClusterSpec& topology, const Shape& sh) {
  // The flat wire bcast records nothing.
  Schedule s{.op = "bcast", .algorithm = CollectiveAlgorithm::Linear};
  const auto tree = tree_of(sh.rank, sh.root, topology.ranks(), [](int r) { return r; });
  const Slice buf = recv_at(0, sh.bytes);
  const int w = s.wire();
  const std::vector<int> sends = forward_tree(s, tree, w, buf);
  if (tree.parent >= 0) s.decode(w, buf, false, kSynced);  // overlaps the forwards
  s.wait(sends);
  return s;
}

Schedule allgather_ring(const net::ClusterSpec& topology, const Shape& sh) {
  // The caller placed its own block; the flat ring records nothing.
  Schedule s{.op = "allgather", .algorithm = CollectiveAlgorithm::Linear};
  const int P = topology.ranks();
  ring_pass(s, 1, sh.rank, split(Buffer::Recv, P, sh.bytes, P), false, send_at(0, sh.bytes));
  return s;
}

Schedule reduce_tree(const net::ClusterSpec& topology, const Shape& sh) {
  const Slice acc = scratch_at(0, sh.bytes);
  Schedule s{.op = "reduce", .algorithm = CollectiveAlgorithm::Linear, .record = sh.bytes,
             .scratch = sh.bytes};
  const auto tree = tree_of(sh.rank, sh.root, topology.ranks(), [](int r) { return r; });
  s.copy(send_at(0, sh.bytes), acc);
  // Children fold nearest first (the reverse of bcast's post order); the
  // decode of one child overlaps the wait for the next.
  for (int child : tree.children | std::views::reverse) {
    const int in = s.wire();
    s.wait({s.recv(in, child)});
    s.decode(in, acc, true, kEnqueued);
  }
  if (!tree.children.empty()) s.drain();
  if (tree.parent >= 0) {
    const int out = s.wire();
    s.encode(acc, out);
    s.wait({s.send(out, tree.parent)});
  }
  if (sh.rank == sh.root) s.copy(acc, recv_at(0, sh.bytes));
  return s;
}

Schedule reduce_scatter_ring(const net::ClusterSpec& topology, const Shape& sh) {
  // With n = P * recvcount the balanced shards are the recvcount blocks,
  // so position r ends owning block r.
  const int P = topology.ranks();
  Schedule s{.op = "reduce_scatter", .algorithm = CollectiveAlgorithm::Ring,
             .record = sh.bytes, .scratch = sh.bytes};
  s.copy(send_at(0, sh.bytes), scratch_at(0, sh.bytes));
  const std::vector<Slice> shards = split(Buffer::Scratch, sh.bytes / 4, 4, P);
  ring_pass(s, 1, sh.rank, shards, true);
  const Slice mine = shards[static_cast<std::size_t>(sh.rank)];
  s.copy(mine, recv_at(0, mine.bytes));
  return s;
}

Schedule alltoall_batched(const net::ClusterSpec& topology, const Shape& sh) {
  // The caller placed its own block. At step t rank r sends to r+t and
  // receives from r-t (the scattered order), so no port sees two slices at
  // once.
  const int P = topology.ranks();
  Schedule s{.op = "alltoall", .algorithm = CollectiveAlgorithm::BatchedPairwise,
             .record = P * sh.bytes};
  std::vector<Operand> out, in;
  for (int t = 1; t < P; ++t) {
    const int dst = (sh.rank + t) % P, src = (sh.rank - t + P) % P;
    out.push_back({send_at(dst * sh.bytes, sh.bytes), s.wire(), dst});
    in.push_back({recv_at(src * sh.bytes, sh.bytes), s.wire(), src});
  }
  s.add({.kind = Step::Kind::Encode, .ops = out, .at = Placement::batch()});  // one launch
  std::vector<int> recvs, sends;
  for (const Operand& o : in) recvs.push_back(s.recv(o.wire, o.peer));
  for (const Operand& o : out) sends.push_back(s.send(o.wire, o.peer));
  for (std::size_t k = 0; k < in.size(); ++k) {
    s.wait({recvs[k]});
    s.decode(in[k].wire, in[k].slice, false, Placement::message(static_cast<int>(k), false));
  }
  s.wait(sends);
  s.drain();
  return s;
}

Schedule allreduce_ring(const net::ClusterSpec& topology, const Shape& sh) {
  return allreduce_grouped(topology, sh, CollectiveAlgorithm::Ring);
}

Schedule allreduce_hierarchical(const net::ClusterSpec& topology, const Shape& sh) {
  return allreduce_grouped(topology, sh, CollectiveAlgorithm::Hierarchical);
}

Schedule bcast_hierarchical(const net::ClusterSpec& topology, const Shape& sh) {
  Schedule s{.op = "bcast", .algorithm = CollectiveAlgorithm::Hierarchical, .record = sh.bytes};
  const int root_node = topology.node_of(sh.root), my_node = topology.node_of(sh.rank);
  // The root carries its own node's traffic, the node leader every other's.
  const auto rep_of = [&](int n) { return n == root_node ? sh.root : n * topology.gpus_per_node; };
  const int rep = rep_of(my_node);
  const Slice buf = recv_at(0, sh.bytes);
  const int w = s.wire();
  if (sh.rank != rep) {
    s.wait({s.recv(w, rep)});
    s.decode(w, buf, false, kSynced);
    return s;
  }

  // The binomial tree over nodes forwards the SAME wire form; every child
  // is remote.
  std::vector<int> sends =
      forward_tree(s, tree_of(my_node, root_node, topology.nodes, rep_of), w, buf);

  // Intra-node fan-out: forward the wire form when intra-node hops
  // compress (members decode in parallel); otherwise decode here and fan
  // the raw bytes out. Either way the decode is off the inter-node
  // critical path: the tree forwards were already posted.
  const bool forward = sh.intra_compress, decode = sh.rank != sh.root;
  if (!forward && decode) s.decode(w, buf, false, kSynced);
  const int fan = forward ? w : s.wire();
  if (!forward) s.encode(buf, fan, true);
  for (int m : topology.node_ranks(my_node)) {
    if (m != rep) sends.push_back(s.send(fan, m));
  }
  if (forward && decode) s.decode(w, buf, false, kSynced);
  s.wait(sends);
  return s;
}

Schedule allgather_hierarchical(const net::ClusterSpec& topology, const Shape& sh) {
  const int gpn = topology.gpus_per_node, leader = topology.node_leader(sh.rank);
  const std::uint64_t total = topology.ranks() * sh.bytes;
  Schedule s{.op = "allgather", .algorithm = CollectiveAlgorithm::Hierarchical, .record = total};
  if (sh.rank != leader) {
    // Member: stage the block at the leader, receive the assembled vector.
    const int in = s.wire();
    s.wait({s.send(send_at(0, sh.bytes), leader)});
    s.wait({s.recv(in, leader)});
    s.decode(in, recv_at(0, total), false, kSynced);
    return s;
  }

  // The leader assembles in device scratch, so the slab compressions are
  // eligible wherever the caller's buffers live. The node's ranks are
  // consecutive, so their blocks land in place; the leader ring then
  // circulates node SLABS, each compressed once by its own leader.
  s.scratch = total;
  collect_members(s, topology, sh, leader * sh.bytes);
  const int node = topology.node_of(sh.rank);
  const auto slabs = split(Buffer::Scratch, topology.nodes, gpn * sh.bytes, topology.nodes);
  ring_pass(s, gpn, node, slabs, false, slabs[static_cast<std::size_t>(node)]);
  hand_to_members(s, topology, sh, total);
  s.copy(scratch_at(0, total), recv_at(0, total));
  return s;
}

Schedule gather_hierarchical(const net::ClusterSpec& topology, const Shape& sh) {
  const int root_node = topology.node_of(sh.root), leader = topology.node_leader(sh.rank);
  const std::uint64_t slab = topology.gpus_per_node * sh.bytes;
  const auto block = [&](int r) { return recv_at(r * sh.bytes, sh.bytes); };
  Schedule s{.op = "gather", .algorithm = CollectiveAlgorithm::Hierarchical,
             .record = topology.ranks() * sh.bytes};
  if (sh.rank == sh.root) {
    // Post everything up front (no head-of-line blocking): a block per rank
    // of the root's node, ONE slab per remote node (a contiguous run).
    s.copy(send_at(0, sh.bytes), block(sh.root), false);
    std::vector<int> recvs;
    for (int m : topology.node_ranks(root_node)) {
      if (m != sh.root) recvs.push_back(s.recv(block(m), m));
    }
    for (int node = 0; node < topology.nodes; ++node) {
      const int first = node * topology.gpus_per_node;
      if (node != root_node) recvs.push_back(s.recv(recv_at(first * sh.bytes, slab), first));
    }
    s.wait(recvs);
  } else if (topology.node_of(sh.rank) == root_node || sh.rank != leader) {
    // The root's node sends straight to the root; a remote member stages
    // its block at its leader over NVLink. Neither records.
    s.record.reset();
    s.wait({s.send(send_at(0, sh.bytes), topology.same_node(sh.rank, sh.root) ? sh.root : leader)});
  } else {
    // Remote leader: assemble the node slab and ship it as ONE message, the
    // single IB transit this node pays.
    s.scratch = slab;
    collect_members(s, topology, sh, 0);
    s.wait({s.send(scratch_at(0, slab), sh.root)});
  }
  return s;
}

Schedule scatter_hierarchical(const net::ClusterSpec& topology, const Shape& sh) {
  const int root_node = topology.node_of(sh.root), leader = topology.node_leader(sh.rank);
  const std::uint64_t slab = topology.gpus_per_node * sh.bytes;
  const auto block = [&](int r) { return send_at(r * sh.bytes, sh.bytes); };
  Schedule s{.op = "scatter", .algorithm = CollectiveAlgorithm::Hierarchical,
             .record = topology.ranks() * sh.bytes};
  if (sh.rank == sh.root) {
    // One batched send: a slab per remote node (compressed in one launch)
    // and a block per rank of the root's own node.
    s.copy(block(sh.root), recv_at(0, sh.bytes), false);
    std::vector<Operand> blocks;
    for (int node = 0; node < topology.nodes; ++node) {
      const int first = node * topology.gpus_per_node;
      if (node != root_node) blocks.push_back({send_at(first * sh.bytes, slab), -1, first});
    }
    for (int m : topology.node_ranks(root_node)) {
      if (m != sh.root) blocks.push_back({block(m), -1, m});
    }
    s.wait({s.add({.kind = Step::Kind::Send, .ops = blocks})});  // one batched send
  } else if (topology.node_of(sh.rank) == root_node || sh.rank != leader) {
    // Straight from the root, or from this member's leader. Neither records.
    s.record.reset();
    s.wait({s.recv(recv_at(0, sh.bytes),
                   topology.same_node(sh.rank, sh.root) ? sh.root : leader)});
  } else {
    // Remote leader: receive the node slab, keep block 0, fan the rest out.
    s.scratch = slab;
    s.wait({s.recv(scratch_at(0, slab), sh.root)});
    s.copy(scratch_at(0, sh.bytes), recv_at(0, sh.bytes));
    std::vector<int> sends;
    for (int m : node_members(topology, sh.rank)) {
      sends.push_back(s.send(scratch_at((m - leader) * sh.bytes, sh.bytes), m));
    }
    s.wait(sends);
  }
  return s;
}

}  // namespace sched
}  // namespace gcmpi::mpi
