// The collective schedule builders (mpi/schedule.hpp), checked without a
// World. For every builder on 1x4, 4x1, 2x2, 3x2, 2x4 and 4x4, every root
// and both intra-node gates, all ranks' schedules run to completion on a
// matcher that pairs the k-th send of each (src, dst) pair with the k-th
// receive of that pair, the way MPI's non-overtaking rule does, and
// completes a send only when its receive is posted (so a schedule that
// needs eager buffering to progress deadlocks here). The matcher also
// checks that each step reads only wire slots that earlier steps wrote and
// that every message fits where it lands; the per-rank send counts are the
// hops the CollectiveRecords carry.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/collective.hpp"
#include "mpi/schedule.hpp"
#include "net/cluster.hpp"

namespace {

using namespace gcmpi;
using mpi::Schedule;
using mpi::Shape;
using mpi::Step;
using Kind = Step::Kind;

using Build = Schedule (*)(const net::ClusterSpec&, const Shape&);

struct Builder {
  const char* name;
  Build build;
};

const Builder kBuilders[] = {
    {"bcast_tree", mpi::sched::bcast_tree},
    {"allgather_ring", mpi::sched::allgather_ring},
    {"reduce_tree", mpi::sched::reduce_tree},
    {"reduce_scatter_ring", mpi::sched::reduce_scatter_ring},
    {"alltoall_batched", mpi::sched::alltoall_batched},
    {"allreduce_ring", mpi::sched::allreduce_ring},
    {"allreduce_hierarchical", mpi::sched::allreduce_hierarchical},
    {"bcast_hierarchical", mpi::sched::bcast_hierarchical},
    {"allgather_hierarchical", mpi::sched::allgather_hierarchical},
    {"gather_hierarchical", mpi::sched::gather_hierarchical},
    {"scatter_hierarchical", mpi::sched::scatter_hierarchical},
};

const std::pair<int, int> kTopologies[] = {{1, 4}, {4, 1}, {2, 2}, {3, 2}, {2, 4}, {4, 4}};

/// Bytes with a non-empty shard per rank, and a count so small that most
/// of the ring's shards are empty.
const std::uint64_t kSizes[] = {(64u << 10) + 12, 7 * 4};

/// One message between two ranks: its byte count and whether it completed.
struct Message {
  std::uint64_t bytes = 0;
  bool matched = false;
};

/// Every rank's schedule of one call, run to completion by the matcher.
struct Outcome {
  std::vector<Schedule> schedules;
  std::vector<int> sends;  // messages sent per rank
  int inter_node_sends = 0;
  std::vector<int> inter_node_sends_of;
  std::string failure;  // empty: every rank finished
};

Outcome play(const net::ClusterSpec& topology, Build build, std::uint64_t bytes, int root,
             bool intra_compress) {
  const int P = topology.ranks();
  Outcome out;
  out.sends.assign(static_cast<std::size_t>(P), 0);
  out.inter_node_sends_of.assign(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    out.schedules.push_back(build(topology, {.rank = r, .bytes = bytes, .root = root,
                                             .intra_compress = intra_compress}));
  }

  struct Post {
    std::vector<std::shared_ptr<Message>> messages;
    std::vector<int> wires;  // a receive's wire slot, written when waited
  };
  struct RankState {
    std::size_t pc = 0;
    std::vector<Post> posts;
    std::vector<std::optional<std::uint64_t>> wires;  // written slots and their bytes
  };
  std::vector<RankState> ranks(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const Schedule& s = out.schedules[static_cast<std::size_t>(r)];
    ranks[static_cast<std::size_t>(r)].posts.resize(s.steps.size());
    ranks[static_cast<std::size_t>(r)].wires.resize(static_cast<std::size_t>(s.wires));
  }
  // Per (src, dst): sends and receives not yet matched, in post order. A
  // receive notes what it expects (nullopt for a wire slot: any size).
  struct Recv {
    std::shared_ptr<Message> message;
    std::optional<std::uint64_t> capacity;
  };
  std::map<std::pair<int, int>, std::deque<std::shared_ptr<Message>>> sent;
  std::map<std::pair<int, int>, std::deque<Recv>> expected;
  const auto match = [&](std::pair<int, int> pair) {
    auto& s = sent[pair];
    auto& e = expected[pair];
    while (!s.empty() && !e.empty()) {
      if (e.front().capacity && *e.front().capacity != s.front()->bytes) {
        out.failure = "message of " + std::to_string(s.front()->bytes) + " bytes from " +
                      std::to_string(pair.first) + " lands in " +
                      std::to_string(*e.front().capacity) + " at " + std::to_string(pair.second);
      }
      e.front().message->bytes = s.front()->bytes;
      s.front()->matched = e.front().message->matched = true;
      s.pop_front();
      e.pop_front();
    }
  };
  const auto fail = [&](int r, std::size_t pc, const std::string& why) {
    if (out.failure.empty()) {
      out.failure = "rank " + std::to_string(r) + " step " + std::to_string(pc) + ": " + why;
    }
  };

  for (bool progress = true; progress && out.failure.empty();) {
    progress = false;
    for (int r = 0; r < P; ++r) {
      RankState& st = ranks[static_cast<std::size_t>(r)];
      const Schedule& s = out.schedules[static_cast<std::size_t>(r)];
      while (st.pc < s.steps.size() && out.failure.empty()) {
        const Step& step = s.steps[st.pc];
        Post& post = st.posts[st.pc];
        const auto slot = [&](int w) -> std::optional<std::uint64_t>& {
          return st.wires[static_cast<std::size_t>(w)];
        };
        if (step.kind == Kind::Wait) {
          bool done = true;
          for (int p : step.waits) {
            for (const auto& m : st.posts[static_cast<std::size_t>(p)].messages) {
              done = done && m->matched;
            }
          }
          if (!done) break;  // blocked until a peer posts
          for (int p : step.waits) {
            const Post& waited = st.posts[static_cast<std::size_t>(p)];
            for (std::size_t k = 0; k < waited.wires.size(); ++k) {
              slot(waited.wires[k]) = waited.messages[k]->bytes;
            }
          }
        } else if (step.kind == Kind::Encode) {
          for (const auto& o : step.ops) slot(o.wire) = o.slice.bytes;
        } else if (step.kind == Kind::Send) {
          for (const auto& o : step.ops) {
            if (o.wire >= 0 && !slot(o.wire)) fail(r, st.pc, "sends an unwritten wire slot");
            auto m = std::make_shared<Message>();
            m->bytes = o.wire >= 0 ? slot(o.wire).value_or(0) : o.slice.bytes;
            post.messages.push_back(m);
            sent[{r, o.peer}].push_back(m);
            ++out.sends[static_cast<std::size_t>(r)];
            if (!topology.same_node(r, o.peer)) {
              ++out.inter_node_sends;
              ++out.inter_node_sends_of[static_cast<std::size_t>(r)];
            }
            match({r, o.peer});
          }
        } else if (step.kind == Kind::Recv) {
          const auto& o = step.ops[0];
          auto m = std::make_shared<Message>();
          post.messages.push_back(m);
          if (o.wire >= 0) post.wires.push_back(o.wire);
          expected[{o.peer, r}].push_back(
              {m, o.wire >= 0 ? std::nullopt : std::optional(o.slice.bytes)});
          match({o.peer, r});
        } else if (step.kind == Kind::Decode) {
          const auto& o = step.ops[0];
          if (!slot(o.wire)) {
            fail(r, st.pc, "decodes an unwritten wire slot");
          } else if (*slot(o.wire) != o.slice.bytes) {
            fail(r, st.pc, "decodes " + std::to_string(*slot(o.wire)) + " bytes into " +
                               std::to_string(o.slice.bytes));
          }
        }
        ++st.pc;
        progress = true;
      }
    }
  }
  for (int r = 0; r < P && out.failure.empty(); ++r) {
    const RankState& st = ranks[static_cast<std::size_t>(r)];
    if (st.pc < out.schedules[static_cast<std::size_t>(r)].steps.size()) {
      fail(r, st.pc, "deadlocked");
    }
  }
  for (const auto& [pair, queue] : sent) {
    if (!queue.empty() && out.failure.empty()) {
      out.failure = "unmatched send " + std::to_string(pair.first) + "->" +
                    std::to_string(pair.second);
    }
  }
  for (const auto& [pair, queue] : expected) {
    if (!queue.empty() && out.failure.empty()) {
      out.failure = "unmatched receive " + std::to_string(pair.first) + "->" +
                    std::to_string(pair.second);
    }
  }
  return out;
}

/// The hops the CollectiveRecord of `rank` carries, or nullopt when the
/// rank records nothing. Sizes with a non-empty shard per rank only.
std::optional<int> record_hops(const std::string& name, const net::ClusterSpec& t, int rank,
                               int root) {
  const int P = t.ranks();
  const int gpn = t.gpus_per_node;
  const bool leader = rank == t.node_leader(rank);
  const bool remote = !t.same_node(rank, root);
  if (name == "bcast_tree" || name == "allgather_ring") return std::nullopt;
  if (name == "reduce_tree") return rank == root ? 0 : 1;
  if (name == "reduce_scatter_ring" || name == "alltoall_batched") return P - 1;
  if (name == "allreduce_ring") return 2 * (P - 1);
  if (name == "allreduce_hierarchical") return leader ? 2 * (t.nodes - 1) + gpn - 1 : 1;
  if (name == "allgather_hierarchical") return leader ? t.nodes - 1 + gpn - 1 : 1;
  if (name == "bcast_hierarchical") {
    const int node = t.node_of(rank);
    const int rep = node == t.node_of(root) ? root : t.node_leader(rank);
    if (rank != rep) return 0;
    const int vnode = (node - t.node_of(root) + t.nodes) % t.nodes;
    return static_cast<int>(core::binomial_tree(vnode, t.nodes).children.size()) + gpn - 1;
  }
  if (name == "gather_hierarchical") {
    if (rank == root) return 0;
    return remote && leader ? std::optional(1) : std::nullopt;
  }
  if (name == "scatter_hierarchical") {
    if (rank == root) return t.nodes - 1 + gpn - 1;
    return remote && leader ? std::optional(gpn - 1) : std::nullopt;
  }
  ADD_FAILURE() << "no hop rule for " << name;
  return std::nullopt;
}

TEST(Schedule, EveryBuilderRunsToCompletionOnEveryTopologyAndRoot) {
  for (const auto& [nodes, gpn] : kTopologies) {
    const net::ClusterSpec topology = net::longhorn(nodes, gpn);
    for (const Builder& b : kBuilders) {
      for (int root = 0; root < topology.ranks(); ++root) {
        for (const std::uint64_t bytes : kSizes) {
          for (const bool gate : {false, true}) {
            const Outcome r = play(topology, b.build, bytes, root, gate);
            EXPECT_EQ(r.failure, "") << b.name << " " << nodes << "x" << gpn << " root "
                                     << root << " bytes " << bytes << " gate " << gate;
          }
        }
      }
    }
  }
}

TEST(Schedule, SendCountsAreTheRecordedHops) {
  for (const auto& [nodes, gpn] : kTopologies) {
    const net::ClusterSpec topology = net::longhorn(nodes, gpn);
    for (const Builder& b : kBuilders) {
      for (int root = 0; root < topology.ranks(); ++root) {
        const Outcome r = play(topology, b.build, kSizes[0], root, false);
        for (int rank = 0; rank < topology.ranks(); ++rank) {
          const Schedule& s = r.schedules[static_cast<std::size_t>(rank)];
          const std::optional<int> hops = record_hops(b.name, topology, rank, root);
          ASSERT_EQ(s.record.has_value(), hops.has_value())
              << b.name << " " << nodes << "x" << gpn << " root " << root << " rank " << rank;
          if (hops) {
            EXPECT_EQ(r.sends[static_cast<std::size_t>(rank)], *hops)
                << b.name << " " << nodes << "x" << gpn << " root " << root << " rank "
                << rank;
          }
        }
      }
    }
  }
}

TEST(Schedule, HierarchicalSchedulesCrossNodesOncePerNode) {
  for (const auto& [nodes, gpn] : kTopologies) {
    const net::ClusterSpec topology = net::longhorn(nodes, gpn);
    for (int root = 0; root < topology.ranks(); ++root) {
      for (const bool gate : {false, true}) {
        for (const Build build :
             {mpi::sched::bcast_hierarchical, mpi::sched::gather_hierarchical}) {
          EXPECT_EQ(play(topology, build, kSizes[0], root, gate).inter_node_sends, nodes - 1)
              << nodes << "x" << gpn << " root " << root;
        }
      }
    }
    // Each leader of the allgather's leader ring crosses nodes - 1 times.
    const Outcome ring = play(topology, mpi::sched::allgather_hierarchical, kSizes[0], 0, false);
    for (int node = 0; node < nodes; ++node) {
      EXPECT_EQ(ring.inter_node_sends_of[static_cast<std::size_t>(node * gpn)], nodes - 1)
          << nodes << "x" << gpn << " leader " << node * gpn;
    }
  }
}

}  // namespace
