// Collectives as schedules: one rank's part of a compressed collective is an
// ordered list of steps on wire slots and buffer slices, written by a pure
// builder and run by one executor (Rank::run_schedule).
//
// A builder is a function of the topology, this rank, the byte count, the
// root and the intra-node compression gate, and of nothing else: it takes
// no World or Rank, so every rank's schedule can be built and checked on its
// own (tests/test_schedule.cpp). Each step only reads slots and slices that
// earlier steps wrote, so the list is the dependency DAG in post order, and
// the executor posts it in exactly that order.
//
// Step kinds, and the busy column the executor charges each one's elapsed
// time to:
//   encode  one slice into a wire slot (compressed, or raw when the
//           intra-node gate is off), or several at the batch placement as
//           one launch                                       -> compress_busy
//   send    a wire slot, or a raw slice through the p2p path (several raw
//           slices: one batched multi-destination send); each message is
//           one hop                                          -> transfer_busy
//   recv    into a wire slot, or a raw slice                 -> transfer_busy
//   wait    for earlier sends and receives, in order         -> transfer_busy
//   decode  a wire slot into a slice at a Placement, folded into it when
//           `fold` is set (one reduce); an unsynchronized decode keeps its
//           staging until the next drain                     -> reduce_busy
//   drain   synchronize the device, release the stagings     -> reduce_busy
//   copy    slice to slice, optionally charged as a device copy  -> none
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/collective.hpp"
#include "core/manager.hpp"
#include "net/cluster.hpp"

namespace gcmpi::mpi {

using Placement = core::CompressionManager::Placement;

/// The caller's send and receive buffers, and the schedule's device scratch.
enum class Buffer : std::uint8_t { Send, Recv, Scratch };

struct Slice {
  Buffer buffer = Buffer::Recv;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// A message operand: a wire slot, or (`wire` < 0) the raw `slice`, and the
/// peer it goes to or comes from. An encode reads `slice` into `wire`.
struct Operand {
  Slice slice;
  int wire = -1;
  int peer = -1;
};

struct Step {
  enum class Kind : std::uint8_t { Encode, Send, Recv, Wait, Decode, Drain, Copy };
  Kind kind = Kind::Drain;
  std::vector<Operand> ops{};  // Encode, Send: one, or a batch; Recv, Decode: one;
                               // Copy: the source, then the destination
  std::vector<int> waits{};    // Wait: the Send and Recv steps it completes, in order
  bool raw = false;            // Encode: a raw wire (the intra-node gate is off)
  bool fold = false;           // Decode: reduce into the slice instead of overwriting it
  bool device = true;          // Copy: charge a device-to-device copy
  Placement at{};              // Encode (message or batch), Decode
};

/// One rank's part of one compressed collective.
struct Schedule {
  using Kind = Step::Kind;

  const char* op = "";                    // the CollectiveRecord this rank appends,
  core::CollectiveAlgorithm algorithm{};  // when `record` holds its byte count
  std::optional<std::uint64_t> record{};
  std::optional<std::uint64_t> scratch{};  // device scratch, allocated first and freed last
  std::vector<Step> steps{};
  int wires = 0;  // wire slots the steps name

  int wire() { return wires++; }
  /// Appends `step`; returns its index, which a wait names.
  int add(Step step) {
    steps.push_back(std::move(step));
    return static_cast<int>(steps.size()) - 1;
  }
  void encode(Slice from, int wire, bool raw = false) {
    add({.kind = Kind::Encode, .ops = {{from, wire}}, .raw = raw});
  }
  int send(int wire, int peer) { return add({.kind = Kind::Send, .ops = {{{}, wire, peer}}}); }
  int send(Slice from, int peer) { return add({.kind = Kind::Send, .ops = {{from, -1, peer}}}); }
  int recv(int wire, int peer) { return add({.kind = Kind::Recv, .ops = {{{}, wire, peer}}}); }
  int recv(Slice into, int peer) { return add({.kind = Kind::Recv, .ops = {{into, -1, peer}}}); }
  void wait(std::vector<int> posts) {
    if (!posts.empty()) add({.kind = Kind::Wait, .waits = std::move(posts)});
  }
  void decode(int wire, Slice into, bool fold, Placement at) {
    add({.kind = Kind::Decode, .ops = {{into, wire}}, .fold = fold, .at = at});
  }
  void drain() { add({.kind = Kind::Drain}); }
  void copy(Slice from, Slice to, bool device = true) {
    add({.kind = Kind::Copy, .ops = {{from}, {to}}, .device = device});
  }
};

/// What a builder reads besides the topology.
struct Shape {
  int rank = 0;
  std::uint64_t bytes = 0;  // the whole message (bcast, reduce, allreduce,
                            // reduce_scatter) or the per-rank block
  int root = 0;
  bool intra_compress = false;  // intra-node hops compress (CompressionConfig gate)
};

namespace sched {

using Builder = Schedule (*)(const net::ClusterSpec& topology, const Shape& s);

// Flat schedules over all ranks.
Schedule bcast_tree(const net::ClusterSpec& topology, const Shape& s);
Schedule allgather_ring(const net::ClusterSpec& topology, const Shape& s);
Schedule reduce_tree(const net::ClusterSpec& topology, const Shape& s);
Schedule reduce_scatter_ring(const net::ClusterSpec& topology, const Shape& s);
Schedule alltoall_batched(const net::ClusterSpec& topology, const Shape& s);
// Allreduce over groups of consecutive ranks: one rank (Ring) or one node
// (Hierarchical).
Schedule allreduce_ring(const net::ClusterSpec& topology, const Shape& s);
Schedule allreduce_hierarchical(const net::ClusterSpec& topology, const Shape& s);
// Two-level schedules staged at one representative per node.
Schedule bcast_hierarchical(const net::ClusterSpec& topology, const Shape& s);
Schedule allgather_hierarchical(const net::ClusterSpec& topology, const Shape& s);
Schedule gather_hierarchical(const net::ClusterSpec& topology, const Shape& s);
Schedule scatter_hierarchical(const net::ClusterSpec& topology, const Shape& s);

}  // namespace sched
}  // namespace gcmpi::mpi
