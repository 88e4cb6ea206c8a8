// Compression plan cache (persistent-channel support, see mpi/channel.hpp
// and DESIGN.md §13), and the one staging type every CompressionManager
// entry point hands out.
//
// Iterative workloads send the same (shape, codec) message every timestep,
// yet each call re-derives the whole launch plan: a staging acquisition, a
// zfp_stream/zfp_field construction + grid-dim query (ZFP), a d_off memset
// enqueue and one kernel enqueue per partition (MPC). A PlanEntry caches
// everything that is a pure function of the shape:
//
//   * staging slots — BufferPool leases (or naive allocations) held across
//     iterations instead of acquired/released per message;
//   * the host-side codec setup — stream/field objects and the cached
//     attribute read are reused, not recreated;
//   * the launch sequence — captured into a CUDA graph on first use (one
//     timed cudaGraphInstantiate), then replayed with a single
//     cudaGraphLaunch per message regardless of node count.
//
// The cache is strictly opt-in (CompressionManager::enable_plan_cache);
// when disabled every path charges exactly what it always did, so pinned
// world-dump SHAs are unaffected.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "gpu/buffer_pool.hpp"
#include "sim/stats.hpp"

namespace gcmpi::core {

struct PlanEntry;

/// One staging device buffer and who owns it: a BufferPool lease (OPT), a
/// timed cudaMalloc (naive), or a slot held by a cached plan. Handed out by
/// the CompressionManager's launch/prepare calls and returned with
/// CompressionManager::release, whichever call acquired it. A copy refers
/// to the same buffer; release exactly one of them.
struct Staging {
  void* data = nullptr;          // the device buffer; null when nothing is held
  gpu::BufferPool::Lease lease;  // valid when pooled; else `data` is a cudaMalloc
  sim::Breakdown* bd = nullptr;  // side (sender/receiver) its naive cudaFree is charged to
  PlanEntry* plan = nullptr;     // set when the buffer is a held plan slot
  int plan_slot = -1;

  [[nodiscard]] bool valid() const { return data != nullptr; }
  /// The plan's launch sequence is captured: the next use replays it.
  [[nodiscard]] bool planned() const;
};

/// Encode launches key their plan by (kernel count << 16 | MPC blocks per
/// kernel or ZFP rate); see CompressionManager::launch.
enum class PlanKind : std::uint8_t {
  SendP2P,   // message launch: staging + launch round
  Recv,      // prepare_receive staging + the decode round of a received message
             // (param: partitions / zfp rate)
  Batch,     // batch launch: slab + offset table + one launch round
  ChunkSend, // pipeline chunk launch: per-chunk staging + single-kernel launch
  ChunkRecv, // pipeline chunk decode: launch graph only, no staging of its own
             // (param: blocks, for ZFP blocks << 16 | rate)
  PipeRecv,  // prepare_pipeline_receive slice slab (staging only; param: slices)
};

struct PlanKey {
  PlanKind kind = PlanKind::SendP2P;
  Algorithm algorithm = Algorithm::None;
  std::uint64_t bytes = 0;  // message/chunk/batch shape
  int param = 0;            // zfp rate, partition count, block count, slices
  auto operator<=>(const PlanKey&) const = default;
};

/// One held staging buffer. `in_use` guards concurrent same-shape
/// operations (e.g. pipeline chunks in flight); the slot vector grows on
/// demand and then serves every later iteration with zero acquisitions.
struct PlanSlot {
  Staging buffer;
  bool in_use = false;
};

struct PlanEntry {
  PlanKey key;
  std::size_t capacity = 0;  // staging bytes each slot holds
  /// Launch sequence captured + instantiated (first use paid for it);
  /// subsequent uses replay it with one graph_launch and skip the
  /// host-side codec setup.
  bool graph_ready = false;
  std::vector<PlanSlot> slots;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

inline bool Staging::planned() const { return plan != nullptr && plan->graph_ready; }

struct PlanCacheStats {
  std::uint64_t hits = 0;                 // staging served from a held slot
  std::uint64_t misses = 0;               // slot had to be acquired
  std::uint64_t graphs_instantiated = 0;  // one-time captures paid
};

}  // namespace gcmpi::core
