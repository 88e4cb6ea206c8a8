// CompressionManager: the per-rank engine implementing Algorithms 1-3 of
// the paper. The MPI layer calls into it on both sides:
//
//   sender:   launch(messages, placement) -> finish(launch)
//   receiver: prepare_receive() / prepare_pipeline_receive() -> staging
//             decode(header, staged, out, fold, placement)
//   both:     release()            -> return any staging handed out above
//
// A serial send, an alltoall batch and a pipeline chunk are one encode at
// three placements (MPC-OPT already treats one message as a batch of
// chunk-aligned partitions on several streams, Fig. 7): a serial send is
// one message finished at once, a batch is one launch of P-1 messages, a
// chunk is one message finished at its kernel_done. Every difference
// between them (eligibility gate, kernel shape, streams, stats, telemetry,
// plan key) is a field of the Placement. The adaptive codec choice is a
// value consulted once per launch. A decode is the same for every
// receiver: a compressed header runs the decompression kernels, with an
// optional fold into the output (the collectives' fused reduce); a raw
// header with a fold is one reduce kernel.
//
// Staging lifetime: each launch/prepare call that needs device staging
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
#include <span>
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

  /// One outgoing message of a launch: the caller's buffer.
  struct Message {
    const void* buf = nullptr;
    std::uint64_t bytes = 0;
  };

  /// Where an encode launch or a decode runs, and how it is accounted.
  struct Placement {
    const char* scope = kScopeP2P;      // adaptive-policy scope and telemetry channel
    PlanKind plan = PlanKind::SendP2P;  // plan-cache kind of an encode launch
    int blocks = 0;           // thread blocks per MPC kernel; 0 divides the SMs among the kernels
    int stream = 0;           // kernel k runs on stream (stream + k) % num_streams
    bool synchronize = true;  // wait for the kernels; an encode that does not is finished later
    bool partition = false;   // MPC splits each message into chunk-aligned partitions (Fig. 7)
    /// The messages' streams share one slab with an offset table: the
    /// caller releases it, and only slices that stay compressed are stamped.
    bool slab = false;
    /// Index of a pipeline chunk within its message, or -1 for whole
    /// messages. A chunk's message already qualified, so only its
    /// alignment is checked; it counts into pipeline_chunks_* (its message
    /// counts once, at chunk 0); its Compress and Decompress events report
    /// device occupancy, since its kernels overlap the protocol.
    int chunk = -1;

    /// A serial send, or the decode of a received message.
    static Placement message(int stream = 0, bool synchronize = true) {
      return {.stream = stream, .synchronize = synchronize, .partition = true};
    }
    /// N independent messages in one launch (the alltoall engine): the SMs
    /// are divided across them, one sync round and one size-table readback
    /// cover them all, and exactly one telemetry event is recorded.
    static Placement batch() {
      return {.scope = kScopeBatch, .plan = PlanKind::Batch, .slab = true};
    }
    /// Chunk `index` of a pipelined message, `blocks` thread blocks per
    /// kernel (mpi/pipeline.hpp): its encode only enqueues, and the
    /// protocol finishes it at kernel_done.
    static Placement pipelined(int index, int blocks) {
      return {.scope = kScopeChunk, .plan = PlanKind::ChunkSend, .blocks = blocks,
              .stream = index, .synchronize = false, .chunk = index};
    }
  };

  /// One encode launch (Algorithms 1 and 3): a wire view per message,
  /// aligned with the launched messages, and the staging every compressed
  /// one lives in. The views are final once finish() ran; a raw view
  /// aliases the caller's buffer, which must stay alive until the staging
  /// is released.
  class Launch {
   public:
    std::vector<WireBlock> wires;
    Staging staging;
    Time kernel_done;  // device completion of the last kernel (launch end when none ran)
    Time kernel_time;  // its device occupancy

   private:
    friend class CompressionManager;
    struct Part {  // one kernel's input values
      const float* values = nullptr;
      std::size_t n = 0;
      std::size_t wire = 0;  // the message it belongs to
    };
    Placement at_;
    Algorithm algorithm_ = Algorithm::None;
    Time started_;
    std::vector<Part> parts_;
    std::vector<std::uint32_t> sizes_;  // compressed bytes per part
    std::size_t encoded_ = 0;           // messages that passed the gate
    bool truncate_ = false;  // injected truncate fault, applied at finish
    bool replayed_ = false;  // launched from a captured plan (no d_off to free)
    bool finished_ = false;
  };

  /// Compress `messages` at `at`: the eligibility gate, one adaptive
  /// consultation, one fault draw, one staging acquisition and one round
  /// of kernels for the whole launch. A synchronized placement pays the
  /// sync and the size readback here; otherwise only host enqueue costs
  /// are charged and `kernel_done` tells when to finish.
  Launch launch(Timeline& tl, std::span<const Message> messages, const Placement& at);

  /// Complete a launch: the deferred size readback (for a launch that did
  /// not synchronize), the raw fallback of every message whose stream is at
  /// least its byte count, or of all of them on an injected truncate fault,
  /// stats and the launch's one telemetry event. Finishing twice is a
  /// no-op.
  void finish(Timeline& tl, Launch& launch);

  /// Receiver side, on RTS match (Algorithm 2, steps before CTS): staging
  /// for the compressed payload (empty when the header is raw).
  Staging prepare_receive(Timeline& tl, const CompressionHeader& header);

  /// Receiver staging for a whole pipelined transfer: ONE pooled buffer
  /// (or naive cudaMalloc) sub-allocated into `slices` per-chunk slices,
  /// so a deep pipeline costs one acquisition, not one per chunk.
  Staging prepare_pipeline_receive(Timeline& tl, std::uint64_t chunk_capacity, int slices);

  /// The last kernel a decode enqueued.
  struct Kernel {
    Time done;  // device completion
    Time cost;  // device occupancy
  };

  /// Decode one arrived message from `staged` into `out`, `capacity` bytes
  /// (Algorithm 2, steps 6-7). A compressed header runs the decompression
  /// kernels; with a `fold`, out[i] = op(out[i], decoded[i]) in the same
  /// pass (the collective engine's fused hop primitive, charged the extra
  /// accumulator traffic). A raw header with a fold is one elementwise
  /// reduce kernel over `staged`; a raw header without one decodes nothing.
  /// With `at.synchronize == false` the kernels are only enqueued and the
  /// caller must device_synchronize() before reading `out` or releasing
  /// the staging. Throws CodecFaultError when an injected decompression
  /// fault fires, before any output is produced, so a relaunch is safe.
  Kernel decode(Timeline& tl, const CompressionHeader& header, const void* staged, void* out,
                std::uint64_t capacity, std::optional<comp::ReduceOp> fold,
                const Placement& at);

  /// Local kernel-relaunch recovery around one decode, used where no
  /// protocol-level resend exists (wire-form collectives): an injected
  /// transient decompression fault is retried (a fresh launch, a fresh
  /// fault draw) up to `max_retries` times before the error propagates.
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

  /// Return any staging this manager handed out (launch staging, receive
  /// or pipeline staging): a held plan slot goes back to its plan, a lease
  /// to the pool, a naive buffer to a timed cudaFree. Leaves `staging`
  /// empty; releasing an empty staging is a no-op.
  void release(Timeline& tl, Staging& staging);

  /// Attach an INAM-style monitor; every (de)compression is recorded.
  void attach_telemetry(Telemetry* telemetry, int rank) {
    telemetry_ = telemetry;
    rank_id_ = rank;
  }

  /// Attach the deterministic fault injector; compression/decompression
  /// operations then consult it for kernel faults (chaos testing).
  void attach_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Attach the closed-loop codec selection policy; every launch with an
  /// eligible message then consults it once. Null (the default) keeps the
  /// static config.
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
  /// The codec one launch runs: the static config, or the adaptive
  /// policy's choice for it. Algorithm::None sends the launch raw.
  struct Codec {
    Algorithm algorithm = Algorithm::None;
    int zfp_rate = 0;
  };
  Codec choose_codec(Timeline& tl, const char* scope, std::uint64_t eligible_bytes) const;
  /// The static gate of one message at `at` (the codec is chosen later).
  [[nodiscard]] bool eligible(const Message& m, const Placement& at) const;

  /// The one encode round: per-call codec setup, one compression kernel
  /// per part with the compressed streams packed into the launch's
  /// staging, and (when synchronizing) the sync, partition combine, size
  /// readback and d_off release.
  void encode(Timeline& tl, Launch& l, const Codec& codec, std::size_t capacity);
  /// Size readback + d_off release that completes an encode round.
  void finish_encode(Timeline& tl, const Launch& l, Breakdown* bd);

  /// Per-call host setup and teardown of a launch round (skipped when a
  /// cached plan replays): MPC's d_off scratch, ZFP's stream/field objects.
  void setup_codec(Timeline& tl, Algorithm algo, std::size_t d_off_bytes, bool replay,
                   Breakdown* bd);
  void teardown_codec(Timeline& tl, Algorithm algo, bool replay, Breakdown* bd);
  /// Enqueue one node of a launch round: a plain launch, or under replay
  /// the round's single graph launch (first node) and free graph nodes.
  Time enqueue(Timeline& tl, int stream, Time cost, bool replay, bool first, Breakdown* bd,
               sim::Phase phase);
  /// First stream of a round. ZFP kernels expose no block-count knob to
  /// divide the GPU fairly among concurrent chunks, so a chunk's ZFP
  /// kernels serialize on stream 0.
  [[nodiscard]] static int first_stream(Algorithm algo, const Placement& at) {
    return algo == Algorithm::ZFP && at.chunk >= 0 ? 0 : at.stream;
  }
  /// Worst-case staging bytes for `n` values: the ZFP fixed-rate stream,
  /// or the MPC bound plus 16 bytes of slack per partition.
  [[nodiscard]] std::size_t staging_bytes(const Codec& codec, std::size_t n,
                                          int partitions) const;
  /// Blocks per kernel of a message split into `partitions` (decode side).
  [[nodiscard]] int partition_blocks(int partitions) const;

  /// Point `w` at the caller's buffer (every raw send and fallback) and
  /// account its bytes.
  void send_raw(WireBlock& w, const void* buf);
  /// Stamp the running codec's parameters into a header.
  void stamp(CompressionHeader& header, const Codec& codec) const;
  /// Count `n` messages of a launch at `at` that went out compressed or raw.
  void count(const Placement& at, bool compressed, std::size_t n);
  void record(const TelemetryEvent& ev) {
    if (telemetry_ != nullptr) telemetry_->record(ev);
  }

  /// Acquire staging for `capacity` bytes: a slot of `plan` (hit: no
  /// acquisition; miss: the plan grows by one), or without a plan a pooled
  /// (OPT) or cudaMalloc'ed (naive) buffer.
  Staging acquire(Timeline& tl, PlanEntry* plan, std::size_t capacity, Breakdown* bd);
  /// Find-or-create the cache entry for a shape; nullptr when disabled.
  PlanEntry* plan_entry(PlanKind kind, Algorithm algo, std::uint64_t bytes, int param);
  /// The plan a received message's staging and decode graph share.
  PlanEntry* receive_plan(const CompressionHeader& header);
  /// First-use epilogue: pay the one-time graph capture/instantiate and
  /// mark the plan replayable.
  void plan_mark_ready(Timeline& tl, PlanEntry* plan, Breakdown* bd);

  gpu::Gpu& gpu_;
  const CompressionConfig config_;
  comp::KernelCostModel cost_model_;
  std::optional<gpu::BufferPool> pool_;  // compressed-data buffers
  CompressionStats stats_;
  Breakdown sender_bd_;
  Breakdown receiver_bd_;

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
