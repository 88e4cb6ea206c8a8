// CompressionManager: the per-rank engine implementing Algorithms 1-3 of
// the paper. The MPI layer calls into it on both sides:
//
//   sender:   compress_for_send()  -> one wire (header + bytes) per message
//             compress_batch()     -> one slab for N blocks (alltoall engine)
//             compress_chunk()     -> asynchronous launch of one pipeline
//             finish_chunk()          chunk, completed at kernel_done
//   receiver: prepare_receive() / prepare_pipeline_receive() -> staging
//             decompress_received() / decompress_reduce() / decompress_chunk()
//   both:     release()            -> return any staging handed out above
//
// The front-ends differ only in their caller contract. Every compression
// runs through one private encode step and every decompression through one
// private decode step, each given a list of kernel partitions (a message's
// partitions, a batch's eligible blocks, or one chunk) and a launch shape
// (blocks per kernel, first stream, sync or not, plan replay, breakdown).
// The steps own the codec setup (ZFP stream/field + grid dims, MPC d_off
// scratch), the plain/graph launch choice, the size readback, the
// decompress fault prologue and the raw fallback.
//
// Staging lifetime: each compress/prepare call that needs device staging
// returns it as a Staging value (a pool lease, a naive cudaMalloc, or a
// slot held by a cached plan) and the caller hands it back with release()
// once the bytes left the node or were decoded.
//
// Every CUDA-call cost is charged to the provided Timeline and attributed
// to a Breakdown phase, which is how the Fig. 6/8/10 breakdown benchmarks
// are produced.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "compress/kernel_cost.hpp"
#include "compress/mpc.hpp"
#include "compress/reduce.hpp"
#include "compress/zfp.hpp"
#include "core/adapt.hpp"
#include "core/config.hpp"
#include "core/header.hpp"
#include "core/plan_cache.hpp"
#include "core/telemetry.hpp"
#include "gpu/buffer_pool.hpp"
#include "gpu/device.hpp"
#include "sim/stats.hpp"
#include "sim/timeline.hpp"

#include <stdexcept>

namespace gcmpi::fault {
class FaultInjector;
struct CodecFault;
}

namespace gcmpi::core {

using sim::Breakdown;
using sim::Time;
using sim::Timeline;

/// Thrown by the decompress calls when the (injected) decompression kernel
/// fails. The rendezvous protocol turns this into a NACK that asks the
/// sender for a raw resend; collectives retry the kernel locally (see
/// CompressionManager::retry_decode).
struct CodecFaultError : std::runtime_error {
  CodecFaultError() : std::runtime_error("injected decompression kernel fault") {}
};

/// Counters for the experiment reports.
struct CompressionStats {
  std::uint64_t messages_considered = 0;
  std::uint64_t messages_compressed = 0;
  std::uint64_t messages_fallback_raw = 0;  // compression did not pay off
  std::uint64_t codec_faults = 0;           // injected kernel faults survived
  std::uint64_t original_bytes = 0;
  std::uint64_t wire_bytes = 0;

  // Chunked pipelined rendezvous (byte totals land in the fields above).
  std::uint64_t pipelined_messages = 0;
  std::uint64_t pipeline_chunks_compressed = 0;
  std::uint64_t pipeline_chunks_raw = 0;  // per-chunk raw fallbacks

  [[nodiscard]] double achieved_ratio() const {
    return wire_bytes == 0 ? 1.0
                           : static_cast<double>(original_bytes) /
                                 static_cast<double>(wire_bytes);
  }
};

class CompressionManager {
 public:
  CompressionManager(gpu::Gpu& gpu, CompressionConfig config);

  [[nodiscard]] const CompressionConfig& config() const { return config_; }
  [[nodiscard]] gpu::Gpu& gpu() { return gpu_; }

  /// Does this message qualify for on-the-fly compression? (device-resident
  /// float payload of at least threshold size, Sec. III-A step 1).
  [[nodiscard]] bool should_compress(const void* buf, std::uint64_t bytes) const;

  /// One message on the wire: compressed bytes in a staging buffer, or a
  /// raw view of the caller's buffer (header.compressed == false).
  struct WireBlock {
    const void* data = nullptr;
    std::uint64_t bytes = 0;
    CompressionHeader header;
  };

  struct WireData : WireBlock {
    Staging staging;  // holds `data` when compressed; empty for a raw view
  };

  /// Sender side (Algorithms 1 and 3). Returns the wire view; if
  /// compression did not pay off, header.compressed is false and `data`
  /// aliases `buf`. Release `staging` once the payload left the node.
  WireData compress_for_send(Timeline& tl, const void* buf, std::uint64_t bytes);

  // --- batched one-shot compression (alltoall/shuffle engine) ---
  //
  // compress_batch packs N independent outgoing blocks into ONE wire slab:
  // the launch/sync overhead of the N compression kernels is paid once —
  // the SMs are divided across the blocks (MPC-OPT's partitioned launch
  // applied across destinations instead of within one message), all kernels
  // are enqueued round-robin over the streams, and a single sync round plus
  // a single d_off memset/readback pass covers the whole batch. Each block
  // keeps its own CompressionHeader (and its own incompressible-raw
  // fallback), so every slab slice is a self-contained wire message.
  // Exactly ONE telemetry event is recorded per batch.

  struct BatchInput {
    const void* buf = nullptr;
    std::uint64_t bytes = 0;
  };

  struct BatchWire {
    std::vector<WireBlock> blocks;  // aligned with the compress_batch input
    Staging staging;                // the shared slab every compressed block lives in
  };

  /// Compress every eligible block of the batch in one batched launch;
  /// ineligible or incompressible blocks come back as raw views of the
  /// caller's buffers. Blocks must stay alive until the slab is released.
  BatchWire compress_batch(Timeline& tl, const std::vector<BatchInput>& blocks);

  /// Receiver side, on RTS match (Algorithm 2, steps before CTS): staging
  /// for the compressed payload (empty when the header is raw).
  Staging prepare_receive(Timeline& tl, const CompressionHeader& header);

  /// Receiver side, after the compressed payload arrived (steps 6-7).
  /// With `synchronize == false` the decompression kernels are only
  /// enqueued on the GPU streams (the compression-aware collectives overlap
  /// them with subsequent transfers); the caller must device_synchronize()
  /// before touching `user_buf`'s results or releasing the staging.
  /// `stream_hint` rotates the decode kernels' stream assignment so that
  /// independent messages (e.g. the slices of a batched alltoall) do not
  /// serialize behind each other on stream 0.
  /// Throws CodecFaultError when an injected decompression fault fires.
  void decompress_received(Timeline& tl, const CompressionHeader& header,
                           const Staging& staging, void* user_buf,
                           std::uint64_t user_bytes, bool synchronize = true,
                           int stream_hint = 0);

  /// Fused decompress+reduce (the collective engine's hop primitive):
  /// decode the staged payload and fold it into the device accumulator,
  /// acc[i] = op(acc[i], decoded[i]), in one kernel pass. Costs the normal
  /// decompression kernels plus the extra accumulator read+write traffic.
  /// The injected-fault check fires BEFORE any output is produced, so the
  /// accumulator is untouched on a CodecFaultError and a relaunch is safe.
  void decompress_reduce(Timeline& tl, const CompressionHeader& header,
                         const Staging& staging, float* acc,
                         std::uint64_t acc_bytes, comp::ReduceOp op,
                         bool synchronize = true);

  /// Local kernel-relaunch recovery around one decompress_received or
  /// decompress_reduce call, used where no protocol-level resend exists
  /// (wire-form collectives): an injected transient decompression fault is
  /// retried (a fresh launch, a fresh fault draw) up to `max_retries`
  /// times before the error propagates.
  template <class Decode>
  static void retry_decode(Decode&& decode, int max_retries = 8) {
    for (int attempt = 0;; ++attempt) {
      try {
        decode();
        return;
      } catch (const CodecFaultError&) {
        if (attempt >= max_retries) throw;
      }
    }
  }

  /// Plain on-device elementwise reduce of an uncompressed incoming payload
  /// into the accumulator (raw collective hops). Returns the kernel's
  /// device completion time.
  Time reduce_device(Timeline& tl, const float* in, float* acc, std::size_t n,
                     comp::ReduceOp op, bool synchronize = true);

  /// Return any staging this manager handed out (send wire, batch slab,
  /// receive or pipeline staging): a held plan slot goes back to its plan,
  /// a lease to the pool, a naive buffer to a timed cudaFree. Leaves
  /// `staging` empty; releasing an empty staging is a no-op.
  void release(Timeline& tl, Staging& staging);

  // --- chunked pipelined rendezvous (see mpi/pipeline.hpp) ---
  //
  // A pipelined message is compressed one chunk at a time: each chunk is a
  // single-partition kernel on stream (chunk_index % num_streams) with a
  // caller-chosen block count, so up to a window of chunk kernels share
  // the GPU concurrently — MPC-OPT's partitioned launch lifted to the
  // protocol level. compress_chunk charges only host-side enqueue costs to
  // `tl` and reports the kernel's completion time; the protocol schedules
  // finish_chunk at (or after) that time to pay the size readback and make
  // the raw-fallback decision before the chunk goes on the wire.

  struct ChunkWire {
    WireData wire;     // staging ownership + per-chunk header sub-record
    Time kernel_done;  // device completion of this chunk's kernels
    Time kernel_time;  // pure device occupancy (overlap telemetry)
    bool pending_truncate = false;  // injected truncate fault, applied at finish
    bool finished = false;          // raw chunks skip the finish work
    bool replayed = false;          // launched from a captured plan (no d_off to free)
  };

  /// Launch compression of one pipeline chunk (`buf`, `bytes` must be the
  /// chunk's slice of the user buffer). Ineligible chunks (tiny tail,
  /// injected launch fault) come back as finished raw views.
  ChunkWire compress_chunk(Timeline& tl, const void* buf, std::uint64_t bytes,
                           int chunk_index, int blocks);

  /// Host-side completion of a launched chunk at/after kernel_done: size
  /// readback, incompressible/truncate fallback to raw, stats + telemetry.
  void finish_chunk(Timeline& tl, ChunkWire& chunk, const void* buf,
                    std::uint64_t bytes);

  /// Receiver staging for a whole pipelined transfer: ONE pooled buffer
  /// (or naive cudaMalloc) sub-allocated into `slices` per-chunk slices,
  /// so a deep pipeline costs one acquisition, not one per chunk.
  Staging prepare_pipeline_receive(Timeline& tl, std::uint64_t chunk_capacity, int slices);

  /// Launch decompression of one arrived chunk from its staging slice into
  /// `out`; returns the kernel completion time (the receive completes at
  /// the max over chunks). Throws CodecFaultError on an injected fault.
  Time decompress_chunk(Timeline& tl, const CompressionHeader& header, const void* staged,
                        void* out, std::uint64_t out_capacity, int chunk_index, int blocks,
                        Time* kernel_time = nullptr);

  /// Stats hook: one pipelined message enters the pipeline (its bytes are
  /// accounted chunk by chunk as they are finished).
  void note_pipelined_message() {
    ++stats_.messages_considered;
    ++stats_.pipelined_messages;
  }

  /// Attach an INAM-style monitor; every (de)compression is recorded.
  void attach_telemetry(Telemetry* telemetry, int rank) {
    telemetry_ = telemetry;
    rank_id_ = rank;
  }

  /// Attach the deterministic fault injector; compression/decompression
  /// operations then consult it for kernel faults (chaos testing).
  void attach_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Attach the closed-loop codec selection policy; compress_for_send /
  /// compress_batch / compress_chunk then consult it for every statically
  /// qualified message. Null (the default) keeps the static config.
  void attach_adaptive(AdaptivePolicy* policy) { adapt_ = policy; }

  /// Persistent-channel plan cache (see core/plan_cache.hpp): repeated
  /// same-shape operations reuse held staging leases, skip the per-call
  /// codec setup, and replay a captured launch graph. Off (the default)
  /// leaves every charge byte-identical to the uncached paths.
  void enable_plan_cache(bool on) { plan_cache_enabled_ = on; }
  [[nodiscard]] const PlanCacheStats& plan_stats() const { return plan_stats_; }
  /// Every staging buffer acquisition (pool or naive), including plan-slot
  /// growth. Warm iterations on cached plans must not move this counter.
  [[nodiscard]] std::uint64_t staging_acquisitions() const { return staging_acquisitions_; }

  [[nodiscard]] const CompressionStats& stats() const { return stats_; }
  [[nodiscard]] Breakdown& sender_breakdown() { return sender_bd_; }
  [[nodiscard]] Breakdown& receiver_breakdown() { return receiver_bd_; }
  void reset_stats() {
    stats_ = {};
    sender_bd_.clear();
    receiver_bd_.clear();
  }

 private:
  /// One kernel's input values: a partition of a message, a batch block
  /// or a pipeline chunk.
  struct Part {
    const float* values = nullptr;
    std::size_t n = 0;
  };

  /// How one encode/decode round is launched.
  struct Launch {
    int blocks = 0;           // thread blocks per MPC kernel (cost model)
    int first_stream = 0;     // kernel i runs on stream (first_stream + i) % streams
    bool synchronize = true;  // wait for the kernels (encode: and read the sizes back)
    PlanEntry* plan = nullptr;  // replay its captured graph; capture it on first use
    Breakdown* bd = nullptr;    // sender or receiver attribution
  };

  /// The last kernel a round enqueued.
  struct LastKernel {
    Time done;  // device completion
    Time cost;  // device occupancy
  };

  struct Encoded {
    std::vector<std::uint32_t> sizes;  // compressed bytes per part, packed in order
    LastKernel last;
  };

  struct Fold {
    float* acc = nullptr;
    comp::ReduceOp op = comp::ReduceOp::Sum;
  };

  /// The one encode path: per-call codec setup, one compression kernel per
  /// part with the compressed streams packed into `out`, and (when
  /// synchronizing) the sync, partition combine, size readback and d_off
  /// release. `one_message`: the parts are partitions of one message —
  /// combined in order, one size word read back each — rather than the
  /// independent slices of a batch (one size-table readback).
  Encoded encode(Timeline& tl, const std::vector<Part>& parts, const Staging& out,
                 std::size_t capacity, const Launch& launch, bool one_message);
  /// Size readback + d_off release that completes an encode round
  /// (deferred to finish_chunk for asynchronous chunk launches).
  void finish_encode(Timeline& tl, Algorithm algo, const std::vector<std::uint32_t>& sizes,
                     bool one_message, bool replayed, Breakdown* bd);

  /// The one decode path: fault prologue, codec setup, one decompression
  /// kernel per stream partition, sync, d_off release, the optional fused
  /// reduce into `fold`, and telemetry.
  LastKernel decode(Timeline& tl, const CompressionHeader& header, const void* staged,
                    float* out, const Launch& launch, const char* scope,
                    const Fold* fold = nullptr);

  /// Per-call host setup and teardown of a launch round (skipped when a
  /// cached plan replays): MPC's d_off scratch, ZFP's stream/field objects.
  void setup_codec(Timeline& tl, Algorithm algo, std::size_t d_off_bytes, bool replay,
                   Breakdown* bd);
  void teardown_codec(Timeline& tl, Algorithm algo, bool replay, Breakdown* bd);
  /// Enqueue one node of a launch round: a plain launch, or under replay
  /// the round's single graph launch (first node) and free graph nodes.
  Time enqueue(Timeline& tl, int stream, Time cost, bool replay, bool first, Breakdown* bd,
               sim::Phase phase);
  /// Worst-case staging bytes for `n` values: the ZFP fixed-rate stream,
  /// or the MPC bound plus 16 bytes of slack per partition.
  [[nodiscard]] std::size_t staging_bytes(Algorithm algo, std::size_t n, int partitions) const;
  /// Blocks per kernel of a message split into `partitions` (serial path).
  [[nodiscard]] int partition_blocks(int partitions) const;

  /// Injected compression-kernel fault draw. A hard launch failure is
  /// charged its wasted enqueue here; the caller degrades to raw.
  fault::CodecFault draw_compress_fault(Timeline& tl);
  /// Point `w` at the caller's buffer (every raw send and fallback) and
  /// account its bytes.
  void send_raw(WireBlock& w, const void* buf, std::uint64_t bytes);
  /// Stamp the running codec's parameters into a header.
  void stamp(CompressionHeader& header, Algorithm algo) const;
  void record(const TelemetryEvent& ev) {
    if (telemetry_ != nullptr) telemetry_->record(ev);
  }

  /// Acquire staging for `capacity` bytes: a slot of `plan` (hit: no
  /// acquisition; miss: the plan grows by one), or without a plan a pooled
  /// (OPT) or cudaMalloc'ed (naive) buffer.
  Staging acquire(Timeline& tl, PlanEntry* plan, std::size_t capacity, Breakdown* bd);
  /// Find-or-create the cache entry for a shape; nullptr when disabled.
  PlanEntry* plan_entry(PlanKind kind, Algorithm algo, std::uint64_t bytes, int param);
  /// First-use epilogue: pay the one-time graph capture/instantiate and
  /// mark the plan replayable.
  void plan_mark_ready(Timeline& tl, PlanEntry* plan, Breakdown* bd);

  gpu::Gpu& gpu_;
  CompressionConfig config_;
  comp::KernelCostModel cost_model_;
  std::optional<gpu::BufferPool> pool_;  // compressed-data buffers
  CompressionStats stats_;
  Breakdown sender_bd_;
  Breakdown receiver_bd_;
  /// Apply the adaptive policy's choice for `scope` to config_ for the
  /// duration of one compression call; restores on destruction. No-op when
  /// no policy is attached.
  class AdaptiveGuard {
   public:
    AdaptiveGuard(CompressionManager& mgr, Timeline& tl, const char* scope,
                  std::uint64_t bytes, bool eligible);
    ~AdaptiveGuard();
    AdaptiveGuard(const AdaptiveGuard&) = delete;
    AdaptiveGuard& operator=(const AdaptiveGuard&) = delete;

   private:
    CompressionManager& mgr_;
    Algorithm saved_algorithm_;
    int saved_zfp_rate_;
    bool active_ = false;
  };

  Telemetry* telemetry_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  AdaptivePolicy* adapt_ = nullptr;
  int rank_id_ = -1;

  bool plan_cache_enabled_ = false;
  std::map<PlanKey, PlanEntry> plans_;  // node stability: entries are pointed into
  PlanCacheStats plan_stats_;
  std::uint64_t staging_acquisitions_ = 0;
};

}  // namespace gcmpi::core
