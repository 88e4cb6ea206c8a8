// MiniMPI: an MPI-like message-passing library running on the simulated
// GPU cluster, with the paper's on-the-fly compression framework integrated
// into its rendezvous protocol.
//
// Protocol (mirrors MVAPICH2's, Sec. III-A):
//   * eager:      messages <= eager_threshold are staged and delivered with
//                 their envelope in one hop; sends complete locally.
//   * rendezvous: the sender first (optionally) compresses the payload on
//                 its GPU, then sends an RTS carrying the compression
//                 header; the receiver, once a matching receive exists,
//                 prepares a temporary device buffer and answers with CTS;
//                 the sender then pushes the (compressed) payload; on
//                 arrival the receiver decompresses into the user buffer.
//                 A pipelined rendezvous (mpi/pipeline.hpp) announces its
//                 chunk geometry in the RTS and compresses chunk by chunk
//                 after the CTS; a serial one is the same transfer with a
//                 single segment.
//
// Matching: arrivals no posted receive wants (eager messages, RTSs, warm
// channel messages) wait in one queue in arrival order. A receive takes
// the first match and a probe reports that same message, so order alone
// gives MPI's non-overtaking rule.
//
// Each rank is an actor fiber; the receiver side of the protocol runs in
// engine events, modeling MVAPICH2-GDR's asynchronous progress engine.
// Collectives (bcast, allgather, allreduce, reduce, alltoall, gather,
// scatter, barrier) are built from these point-to-point primitives, so they
// inherit per-hop compression exactly as in the paper's OMB experiments.
//
// Wire reliability (active exactly when WorldOptions::fault is set):
//   * every payload carries a CRC32C — in the eager envelope for eager
//     messages, in the header that travels with each data segment;
//   * data segments can be dropped or bit-corrupted by the fault injector;
//     the receiver NACKs on CRC mismatch, a sender-side timeout covers
//     drops, and the segment is re-pushed with exponential backoff
//     (world.cpp's kRetransmitTimeout, doubled per attempt) up to
//     max_data_retries before both requests complete with
//     StatusError::RetryLimit (no hangs);
//   * a decompression kernel fault NACKs with decode_fail, and the sender
//     falls back to resending that segment raw from the user buffer.
// One segment cycle implements this for both transfer kinds: a rendezvous
// is cleared by RTS/CTS and has one segment (serial) or one per chunk
// (pipelined); a warm-channel message is one segment cleared by a credit.
// Control packets (RTS/CTS/NACK) and eager messages ride the modeled
// link-level-reliable control plane and are never dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include <map>

#include "core/adapt.hpp"
#include "core/collective.hpp"
#include "core/manager.hpp"
#include "fault/injector.hpp"
#include "gpu/device.hpp"
#include "mpi/channel.hpp"
#include "mpi/pipeline.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace gcmpi::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
/// Tags at/above this value are collective-internal: each collective call
/// mints a fresh one (Rank::next_coll_tag), so a persistent channel keyed
/// on it would never see a second message.
inline constexpr int kCollTagBase = 1 << 20;

/// Why a request finished unsuccessfully. Only the reliability layer
/// produces non-None values today.
enum class StatusError : std::uint8_t {
  None = 0,
  RetryLimit = 1,         // rendezvous payload never delivered within retry budget
  Truncated = 2,          // eager message larger than the posted receive buffer
  ChecksumMismatch = 3,   // eager payload failed its end-to-end CRC32C check
};

struct Status {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
  StatusError error = StatusError::None;

  [[nodiscard]] bool ok() const { return error == StatusError::None; }
};

struct RequestState {
  bool complete = false;
  Status status{};
  sim::ActorId waiter = sim::kNoActor;
};
using Request = std::shared_ptr<RequestState>;

/// A message in its on-the-wire (possibly compressed) representation.
/// Produced by Rank::make_wire / irecv_wire, consumed by isend_wire /
/// decompress_wire. Lets collectives compress once and forward the
/// compressed bytes through the tree/ring instead of paying a
/// decompress+recompress cycle per hop (the compression-aware collectives
/// design; see Sec. VI-B reproduction notes in DESIGN.md).
struct WireMessage {
  core::CompressionHeader header;
  std::shared_ptr<std::vector<std::uint8_t>> payload;
  [[nodiscard]] std::uint64_t original_bytes() const { return header.original_bytes; }
};

/// Reduction operators for reduce/allreduce on float data (the canonical
/// accumulator-first primitives from compress/reduce.hpp).
using ReduceOp = core::ReduceOp;

/// The settable protocol options. The modelled host overheads and
/// control-packet sizes are fixed constants in world.cpp.
struct WorldOptions {
  std::uint64_t eager_threshold = 16 * 1024;
  core::Telemetry* telemetry = nullptr;  // optional INAM-style monitor

  // --- wire reliability (see the protocol notes at the top of this file) ---
  /// Deterministic chaos source consulted by the fabric and the codecs.
  /// Installing one turns the reliability layer on.
  fault::FaultInjector* fault = nullptr;
  /// Give up after this many re-pushes of one rendezvous payload; both
  /// requests then complete with StatusError::RetryLimit.
  int max_data_retries = 8;

  /// Chunked pipelined rendezvous (see mpi/pipeline.hpp). Off by default:
  /// the serial protocol above is reproduced bit-for-bit.
  PipelineConfig pipeline;

  /// Forced collective algorithm per op, e.g.
  /// `collectives[core::CollectiveOp::Allreduce] = core::CollectiveAlgorithm::Ring`.
  /// Auto (the default) keeps small/low-rank jobs on the linear schedule
  /// (DESIGN.md §9, "Collective selection").
  core::CollectiveTuning collectives;

  /// Closed-loop codec/algorithm selection (src/adapt). When installed it
  /// is consulted by every rank's CompressionManager before each compress
  /// and by the collective engines' Auto algorithm resolution; telemetry
  /// feeds it back (bind it to `telemetry` above). Null = static tuning.
  core::AdaptivePolicy* adaptive = nullptr;

  /// Persistent channels (see mpi/channel.hpp): repeated same-shape
  /// exchanges skip the RTS/CTS handshake after a one-time warm-up (one
  /// grant of world.cpp's kChannelCredits) and reuse cached compression
  /// plans and their staging slots. Off by default: the cold protocol is
  /// reproduced bit-for-bit.
  struct PersistentOptions {
    bool enabled = false;
  };
  PersistentOptions persistent;
};

class World;

/// Per-rank facade handed to the application function: the MPI API.
class Rank {
 public:
  Rank(World& world, int rank, sim::ActorContext& ctx) : world_(world), rank_(rank), ctx_(ctx) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  [[nodiscard]] sim::Time now() const { return ctx_.now(); }
  [[nodiscard]] gpu::Gpu& gpu();
  [[nodiscard]] core::CompressionManager& compression();
  [[nodiscard]] sim::ActorContext& ctx() { return ctx_; }

  /// Elapse virtual compute time (e.g. a GPU kernel of the application).
  void compute(sim::Time t) { ctx_.advance(t); }

  // --- device memory helpers ---
  /// Timed cudaMalloc on this rank's GPU. Contents are indeterminate: write
  /// before reading (the asan-ubsan CI job poisons fresh allocations).
  [[nodiscard]] void* gpu_malloc(std::size_t bytes);
  void gpu_free(void* p);

  // --- point-to-point ---
  Request isend(const void* buf, std::uint64_t bytes, int dst, int tag);
  Request irecv(void* buf, std::uint64_t capacity, int src, int tag);

  // --- wire-level primitives (compression-aware collectives) ---
  /// Compress `buf` once into its wire representation (charges the full
  /// sender-side compression cost; raw pass-through if not eligible).
  [[nodiscard]] WireMessage make_wire(const void* buf, std::uint64_t bytes);
  /// Send an existing wire representation: no recompression, only protocol
  /// and transfer costs.
  Request isend_wire(const WireMessage& msg, int dst, int tag);
  /// Receive a message in wire form: completes at payload arrival, without
  /// decompressing. `out` must stay alive until the request completes.
  Request irecv_wire(WireMessage* out, int src, int tag);
  /// Decompress a wire message into `buf` (charges receiver-side costs).
  void decompress_wire(const WireMessage& msg, void* buf, std::uint64_t capacity);
  /// One outgoing block of a batched multi-destination send.
  struct WireBlock {
    const void* buf = nullptr;
    std::uint64_t bytes = 0;
    int peer = -1;
    int tag = 0;
  };
  /// Compress every eligible block of the batch in ONE batched kernel
  /// launch (CompressionManager::compress_batch): the launch+sync overhead
  /// is paid once for the whole batch instead of once per destination.
  /// Returns one wire message per block, aligned with the input.
  [[nodiscard]] std::vector<WireMessage> make_wire_batch(const std::vector<WireBlock>& blocks);
  /// Multi-destination send (shuffles, scatter roots): blocks that qualify
  /// for batched compression (>= 2 of them) go through make_wire_batch +
  /// isend_wire; the rest take the normal isend path. Returns one request
  /// per block, aligned with the input.
  [[nodiscard]] std::vector<Request> isend_batched(const std::vector<WireBlock>& blocks);
  void send(const void* buf, std::uint64_t bytes, int dst, int tag);
  Status recv(void* buf, std::uint64_t capacity, int src, int tag);
  /// Block until a matching message is available without receiving it
  /// (MPI_Probe); the status reports source, tag, and size.
  Status probe(int src, int tag);
  /// Non-blocking probe (MPI_Iprobe); true if a matching message waits.
  bool iprobe(int src, int tag, Status* status = nullptr);
  Status wait(Request& req);
  void waitall(std::vector<Request>& reqs);
  void sendrecv(const void* sendbuf, std::uint64_t send_bytes, int dst, int sendtag,
                void* recvbuf, std::uint64_t recv_capacity, int src, int recvtag);

  // --- collectives ---
  void barrier();
  void bcast(void* buf, std::uint64_t bytes, int root);
  /// Gather `block_bytes` from every rank into recvbuf (size*block_bytes).
  void allgather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf);
  void reduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op, int root);
  void allreduce(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op);
  /// MPI_Reduce_scatter_block: reduce a P*recvcount vector, leave shard r
  /// (recvcount floats) at rank r. Ring-capable (see coll_engine.cpp).
  void reduce_scatter(const float* sendbuf, float* recvbuf, std::size_t recvcount,
                      ReduceOp op);
  void alltoall(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf);
  void gather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);
  void scatter(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);

 private:
  int next_coll_tag();

  // --- collective algorithm engine (coll_engine.cpp) ---
  /// Per-hop stage accounting for one engine collective on this rank.
  struct CollStats {
    std::uint32_t hops = 0;
    std::uint32_t reduces = 0;
    sim::Time compress_busy;
    sim::Time transfer_busy;
    sim::Time reduce_busy;
  };
  /// The schedule `op` runs for `bytes` (see DESIGN.md §9, "Collective
  /// selection"): the static policy, or the adaptive controller under Auto,
  /// through one admission rule. reduce_scatter asks as Allreduce.
  [[nodiscard]] core::CollectiveAlgorithm select_collective(core::CollectiveOp op,
                                                            std::uint64_t bytes) const;
  void allreduce_linear(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                        int tag);
  void allreduce_ring(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                      int tag);
  void allreduce_hierarchical(const float* sendbuf, float* recvbuf, std::size_t n,
                              ReduceOp op, int tag);
  void record_collective(const char* op, core::CollectiveAlgorithm algorithm,
                         std::uint64_t bytes, sim::Time started, const CollStats& st);

  // --- steps shared by the compressed collective bodies (coll_engine.cpp) ---
  /// Absorbs arrived wire messages into device slices. A compressed payload
  /// is staged and its decode (or fused decode+reduce) enqueued without a
  /// stream sync, retried on injected decode faults; a raw one is copied
  /// (or reduced on-device). Every staging stays alive until drain(). Each
  /// call returns the virtual time it charged, for the caller's CollStats.
  class DecodeQueue {
   public:
    explicit DecodeQueue(Rank& rank) : rank_(rank) {}
    /// Decode `in` into `dst` (`bytes` of capacity) on stream `stream_hint`.
    sim::Time decode(const WireMessage& in, void* dst, std::uint64_t bytes,
                     int stream_hint = 0);
    /// Fold `in` into the n-float device accumulator: acc = op(acc, in).
    sim::Time reduce(const WireMessage& in, float* acc, std::size_t n, ReduceOp op);
    /// Synchronize the device (charged even when nothing is queued) and
    /// release every staging.
    sim::Time drain();
    /// Something was enqueued since the last drain.
    [[nodiscard]] bool pending() const { return pending_; }

   private:
    const core::Staging& stage(sim::Timeline& tl, const WireMessage& in);
    sim::Time settle(const sim::Timeline& tl, sim::Time started);

    Rank& rank_;
    std::vector<core::Staging> stagings_;
    bool pending_ = false;
  };
  /// Ring reduce-scatter over `members` (this rank at `members[pos]`): after
  /// N-1 steps the member at position s owns the fully reduced shard s of
  /// the device accumulator `acc` (n floats).
  void ring_reduce_scatter_members(const std::vector<int>& members, int pos, float* acc,
                                   std::size_t n, ReduceOp op, int tag, CollStats& st);
  /// Ring allgather over `members` (this rank at `members[pos]`): position
  /// s contributes `slices[s]`. This member compresses its slice once from
  /// `own`; every slice then circulates in wire form and is decoded as it
  /// arrives, overlapping the remaining steps. Empty slices move nothing.
  /// On return every slice holds its owner's bytes; the result is the time
  /// the final drain charged (zero when nothing moved).
  sim::Time ring_allgather_members(const std::vector<int>& members, int pos,
                                   const std::vector<std::span<std::uint8_t>>& slices,
                                   const void* own, int tag, CollStats& st);
  /// Ranks 0, stride, 2*stride, ... (`count` of them): all ranks as one
  /// ring, or the node leaders as the leader ring.
  [[nodiscard]] static std::vector<int> strided_ranks(int count, int stride);
  /// `count` consecutive `bytes`-sized slices of `base`.
  [[nodiscard]] static std::vector<std::span<std::uint8_t>> block_slices(
      void* base, std::uint64_t bytes, int count);

  // --- hierarchical moving collectives (hier_engine.cpp) ---
  // Two-level staging for bcast/allgather/gather/scatter: one wire transit
  // crosses IB per node (forwarded compressed form), intra-node traffic
  // rides NVLink, decode happens once per node off the inter-node critical
  // path. Chosen by select_collective. The node-level bcast tree is
  // core::binomial_tree over nodes; the leader ring is
  // ring_allgather_members over node slabs.
  void bcast_hierarchical(void* buf, std::uint64_t bytes, int root, int tag);
  void allgather_hierarchical(const void* sendbuf, std::uint64_t block_bytes,
                              void* recvbuf, int tag);
  void gather_hierarchical(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf,
                           int root, int tag);
  void scatter_hierarchical(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf,
                            int root, int tag);
  /// Wire form of an intra-node hop (member<->leader staging, fan-out) of a
  /// payload this rank holds raw: compressed when the compress_intra_node
  /// gate is on, raw otherwise. Every intra-node collective hop uses it.
  [[nodiscard]] WireMessage make_intra_wire(const void* buf, std::uint64_t bytes);

  // --- alltoall engine (alltoall_engine.cpp) ---
  /// Batched alltoall: ONE compression launch for the P-1 outgoing blocks,
  /// slab slices exchanged over the scattered pairwise schedule, decodes
  /// enqueued per arriving slice on a DecodeQueue drained once at the end.
  /// The caller already placed the rank's own block in `recvbuf`.
  void alltoall_batched(const std::uint8_t* sendbuf, std::uint64_t block_bytes,
                        std::uint8_t* recvbuf, int tag);

  World& world_;
  int rank_;
  sim::ActorContext& ctx_;
  int coll_seq_ = 0;
};

class World {
 public:
  World(sim::Engine& engine, net::ClusterSpec cluster,
        core::CompressionConfig compression = core::CompressionConfig::off(),
        WorldOptions options = {});
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Spawn one actor per rank running `main` and run the simulation.
  void run(std::function<void(Rank&)> main);

  [[nodiscard]] int size() const { return cluster_.ranks(); }
  [[nodiscard]] const net::ClusterSpec& cluster() const { return cluster_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] gpu::Gpu& gpu_of(int rank);
  [[nodiscard]] core::CompressionManager& compression_of(int rank);
  [[nodiscard]] const WorldOptions& options() const { return options_; }
  /// Persistent-channel table (inspection/tests); empty unless
  /// WorldOptions::persistent is enabled.
  [[nodiscard]] const std::map<ChannelKey, Channel>& channels() const { return channels_; }

 private:
  friend class Rank;

  struct Envelope {
    int src = -1;
    int dst = -1;
    int tag = 0;
    std::uint64_t bytes = 0;   // original message size
    std::uint32_t crc = 0;     // eager payload CRC32C (reliability layer)
  };

  using Payload = std::shared_ptr<std::vector<std::uint8_t>>;

  struct EagerMsg {
    Envelope env;
    Payload payload;
    bool crc_ok = true;  // end-to-end CRC verdict (reliability layer)
  };

  struct RtsMsg {
    Envelope env;
    core::CompressionHeader header;
    Payload payload;  // wire bytes, staged at send time
    Request send_req;
    const void* sender_buf = nullptr;  // user buffer, for raw-resend fallback
  };

  struct PostedRecv {
    void* buf = nullptr;
    std::uint64_t capacity = 0;
    int src = kAnySource;
    int tag = kAnyTag;
    Request req;
    WireMessage* wire_out = nullptr;  // set => deliver wire form, skip decompress
  };

  /// One reliably delivered unit of payload: the whole message of a serial
  /// rendezvous or warm send, or one chunk of a pipelined send. Every kind
  /// runs the same cycle on it (push_segment -> segment_intact ->
  /// nack_segment -> resend_segment, raw degrade, RetryLimit).
  struct Segment {
    core::CompressionHeader header;  // wire header; carries the payload CRC
    Payload payload;                 // staged wire bytes, re-pushed on NACK
    int attempts = 0;                // payload pushes so far
    bool done = false;               // delivered, or its transfer failed
    bool fell_back_raw = false;      // decode faults switched it to raw
    bool recovery_pending = false;   // a NACK/timeout is already in flight
    sim::Engine::CancelToken watchdog;
  };

  // Each transfer kind below exposes the same three accessors to the
  // segment cycle: segment(i), the per-segment header bytes riding with the
  // payload, and the codec its telemetry events report.

  /// One in-flight warm-channel message (persistent channels): the payload
  /// ships with a compact RepeatHeader instead of the RTS/CTS handshake.
  /// Recovery is scoped to the message and never tears the channel down.
  struct WarmTransfer {
    Channel* ch = nullptr;
    Envelope env;
    Segment seg;
    Request send_req;
    const void* sender_buf = nullptr;  // raw-degrade source (user p2p only)
    std::uint32_t seq = 0;
    bool failed = false;  // retry budget exhausted; its receive fails in order
    Payload delivered;    // arrived bytes, kept while parked

    /// The compact header this message carries, derived from its segment.
    [[nodiscard]] RepeatHeader repeat() const;
    Segment& segment(int) { return seg; }
    [[nodiscard]] std::uint64_t segment_header_bytes(int) const {
      return repeat().wire_bytes();
    }
    [[nodiscard]] core::Algorithm codec(int) const { return ch->tmpl.algorithm; }
  };
  using WarmPtr = std::shared_ptr<WarmTransfer>;

  /// One in-flight rendezvous, kept alive until verified delivery or retry
  /// exhaustion. Serial (chunks == 1): its one segment is the RTS header
  /// and the payload compressed before the RTS. Pipelined (chunks >= 2,
  /// announced by an RTS whose header carries pipeline_chunks):
  /// compression, wire transfer, and decompression of consecutive chunks
  /// overlap after the CTS; each chunk is its own segment, so a lost or
  /// corrupted chunk re-pushes only itself.
  struct RndvTransfer {
    Envelope env;
    Request send_req;
    PostedRecv recv;
    const void* sender_buf = nullptr;  // user buffer: chunk and raw-degrade source
    std::uint64_t chunk_bytes = 0;     // serial: the whole message
    int chunks = 0;
    int window = 0;  // max chunks concurrently in flight
    int blocks = 0;  // thread blocks per chunk kernel (SMs / window)
    core::Staging staging;  // receiver decode staging (pipelined: per-chunk slices)
    Payload assemble;  // pipelined wire-form receivers: chunks reassemble here

    // Progress-thread host cursors: per-chunk host work (launches, size
    // readbacks, CRC handling) serializes on the owning side's cursor even
    // when chunk events interleave in engine time.
    sim::Time start;        // CTS arrival at the sender
    sim::Time send_cursor;
    sim::Time recv_cursor;
    sim::Time recv_done;    // max over chunk decompression completions
    int next_chunk = 0;     // next chunk to launch compression for
    int arrived = 0;        // chunks verified + consumed at the receiver
    bool done = false;

    std::vector<Segment> segments;  // one per chunk (serial: one), own header and CRC

    // Overlap telemetry accumulators (PipelineRecord).
    std::uint64_t wire_total = 0;  // payload bytes pushed, retransmits included
    std::uint32_t retransmits = 0;
    sim::Time compress_busy;
    sim::Time transfer_busy;
    sim::Time decompress_busy;

    [[nodiscard]] bool pipelined() const { return chunks >= 2; }
    Segment& segment(int i) { return segments[static_cast<std::size_t>(i)]; }
    /// A serial header rode the RTS; a chunk carries its own sub-header.
    [[nodiscard]] std::uint64_t segment_header_bytes(int i) const {
      return pipelined() ? segments[static_cast<std::size_t>(i)].header.wire_bytes() : 0;
    }
    [[nodiscard]] core::Algorithm codec(int i) const {
      return segments[static_cast<std::size_t>(i)].header.algorithm;
    }
  };
  using RndvPtr = std::shared_ptr<RndvTransfer>;

  struct ProbeWaiter {
    int src = kAnySource;
    int tag = kAnyTag;
    sim::ActorId actor = sim::kNoActor;
  };

  /// An arrival no posted receive has matched yet.
  using Unexpected = std::variant<EagerMsg, RtsMsg, WarmPtr>;

  struct RankState {
    std::unique_ptr<gpu::Gpu> gpu;
    std::unique_ptr<core::CompressionManager> mgr;
    std::deque<PostedRecv> posted;
    std::deque<Unexpected> unexpected;  // arrival order
    std::vector<ProbeWaiter> probe_waiters;
  };

  [[nodiscard]] static bool matches(int src, int tag, const Envelope& e) {
    return (src == kAnySource || src == e.src) && (tag == kAnyTag || tag == e.tag);
  }
  [[nodiscard]] static bool matches(const PostedRecv& r, const Envelope& e) {
    return matches(r.src, r.tag, e);
  }
  /// Remove and return the oldest posted receive matching `env`, if any.
  static std::optional<PostedRecv> take_posted(RankState& state, const Envelope& env);
  [[nodiscard]] static const Envelope& envelope_of(const Unexpected& u);
  /// The oldest unexpected arrival matching (src, tag): what the next such
  /// receive takes and what a probe reports. A warm message matches only
  /// as its channel's next in order.
  static std::deque<Unexpected>::iterator find_unexpected(RankState& state, int src, int tag);

  // Protocol steps (see .cpp). Receiver-side handlers run in engine events.
  Request do_isend(sim::ActorContext& ctx, int src, const void* buf,
                   std::uint64_t bytes, int dst, int tag);
  Request do_irecv(sim::ActorContext& ctx, int dst, void* buf, std::uint64_t capacity,
                   int src, int tag, WireMessage* wire_out = nullptr);
  WireMessage do_make_wire(sim::ActorContext& ctx, int rank, const void* buf,
                           std::uint64_t bytes);
  std::vector<WireMessage> do_make_wire_batch(sim::ActorContext& ctx, int rank,
                                              const std::vector<Rank::WireBlock>& blocks);
  /// Does the src -> dst route compress at all? Intra-node routes are
  /// exempt unless CompressionConfig::compress_intra_node is set.
  [[nodiscard]] bool compresses(int src, int dst) const;
  /// Would the normal isend path compress this block? (eligibility gate for
  /// routing a block through the batched compress path or the pipeline)
  [[nodiscard]] bool batch_compress_eligible(int src, int dst, const void* buf,
                                             std::uint64_t bytes) const;
  /// Copy wire bytes into a staged payload, stamping the CRC when the
  /// reliability layer is on.
  WireMessage stage_wire(const core::CompressionHeader& header, const void* data,
                         std::uint64_t bytes) const;
  WireMessage make_raw_wire(const void* buf, std::uint64_t bytes) const;
  Request do_isend_wire(sim::ActorContext& ctx, int src, const WireMessage& msg, int dst,
                        int tag);
  /// Charge the host send overhead, send the RTS control packet (with its
  /// piggybacked header) and schedule its arrival at the receiver.
  void post_rts(sim::ActorContext& ctx, RtsMsg rts);
  void on_eager_arrival(EagerMsg msg);
  void on_rts_arrival(RtsMsg rts);
  /// Deliver an arrived message into `buf` on `rank`: a compressed payload
  /// is copied into `staging` and decoded from there (a CodecFaultError
  /// propagates to the caller, which owns recovery and the staging); a raw
  /// one is capacity-checked and copied.
  void land(sim::Timeline& tl, int rank, const WireMessage& msg, const core::Staging& staging,
            void* buf, std::uint64_t capacity, bool synchronize = true, int stream_hint = 0);
  /// Receiver side of a matched RTS: build the transfer (serial or
  /// pipelined), acquire its decode staging and send the CTS.
  void begin_rndv_receive(sim::Timeline& tl, RtsMsg rts, PostedRecv recv);

  // --- the segment cycle, shared by every transfer kind ---
  /// Push (or re-push) segment i: bit-flip delivery of a private copy on
  /// corruption, a backoff watchdog on a drop.
  template <class Tx>
  net::Fabric::Delivery push_segment(const std::shared_ptr<Tx>& tx, int i, sim::Time start);
  /// Receiver-side CRC check of an arrival; a mismatch is recorded and NACKed.
  template <class Tx>
  bool segment_intact(const std::shared_ptr<Tx>& tx, int i, const Payload& delivered,
                      sim::Time at);
  /// NACK segment i back to the sender, or fail its transfer once the
  /// retry budget is spent.
  template <class Tx>
  void nack_segment(const std::shared_ptr<Tx>& tx, int i, sim::Time at, bool decode_fail);
  /// Switch a segment to a raw copy of the live user bytes (graceful
  /// degradation after a decode fault). False if it already is raw.
  bool degrade_segment(Segment& seg, const void* src, std::uint64_t len);
  /// Complete the given requests with StatusError::RetryLimit and 0 bytes.
  void fail_requests(const Envelope& env, const Request& send_req, const Request& recv_req,
                     sim::Time at);

  // What each kind adds to the cycle: arrival handling, the sender's
  // reaction to a NACK, and the cleanup when the budget is spent.
  void on_segment_data(const RndvPtr& tx, int i, const Payload& delivered);
  void on_segment_data(const WarmPtr& tx, int i, const Payload& delivered);
  void resend_segment(const RndvPtr& tx, int i, bool decode_fail);
  void resend_segment(const WarmPtr& tx, int i, bool decode_fail);
  void fail_transfer(const RndvPtr& tx, sim::Time at);
  void fail_transfer(const WarmPtr& tx, sim::Time at);

  // Chunked pipelined rendezvous (see mpi/pipeline.hpp and DESIGN.md).
  /// Chunk size of a pipelined send of this message, or 0 when it takes
  /// the serial path (pipeline off, too small, not compressed on this
  /// route, or fewer than two chunks).
  [[nodiscard]] std::uint64_t pipelined_chunk_bytes(int src, int dst, const void* buf,
                                                    std::uint64_t bytes) const;
  Request pipeline_isend(sim::ActorContext& ctx, int src, const void* buf,
                         std::uint64_t bytes, int dst, int tag,
                         std::uint64_t chunk_bytes);
  /// CTS arrival at the sender: push a serial payload, or start the
  /// compression window of a pipelined one.
  void start_rndv_sender(const RndvPtr& tx);
  void launch_pipeline_chunk(const RndvPtr& tx);
  void pipeline_chunk_ready(const RndvPtr& tx, int chunk,
                            const std::shared_ptr<core::CompressionManager::ChunkWire>& ck);
  void finish_pipeline(const RndvPtr& tx);
  [[nodiscard]] std::uint64_t pipeline_chunk_len(const RndvPtr& tx, int chunk) const {
    const std::uint64_t off = static_cast<std::uint64_t>(chunk) * tx->chunk_bytes;
    return std::min(tx->chunk_bytes, tx->env.bytes - off);
  }

  // --- persistent channels (see mpi/channel.hpp) ---
  /// Find-or-create the channel for a key (assigns the id on creation).
  Channel* channel_for(const ChannelKey& key);
  /// Receiver-side warm-up after a successful cold delivery: cache the
  /// header template and send the one-time credit grant. Warm consumes take
  /// their decode staging from the plan cache, like every other receive.
  void maybe_warm_channel(const Envelope& env, const core::CompressionHeader& header,
                          sim::Time at);
  /// Handshake-free warm send: consume a credit (or stall), ship the
  /// payload with a RepeatHeader. `header` is the freshly compressed wire
  /// header; `payload` the staged wire bytes.
  Request warm_isend(sim::ActorContext& ctx, Channel* ch, const Envelope& env,
                     const core::CompressionHeader& header, Payload payload,
                     const void* sender_buf);
  /// Receiver side of a verified (or failed) warm message: consume it now
  /// if it is the channel's next in order and a receive is posted, else
  /// park it until one is.
  void match_or_park_warm(const WarmPtr& tx, sim::Timeline& tl);
  /// Deliver a verified, in-order warm message to a matching posted
  /// receive; consumes a credit refill slot and drains the stall queue. A
  /// failed message completes the receive with RetryLimit instead.
  void consume_warm(const WarmPtr& tx, PostedRecv recv, sim::Timeline& tl);
  /// After a consume bumped next_consume_seq, a parked out-of-order
  /// successor in the unexpected queue may have become the head: match it
  /// to a posted receive, or else wake a blocked probe that matches it (no
  /// arrival will announce it).
  void drain_warm_heads(int dst);
  /// Sender-side credit refill (piggybacked on the zero-cost completion
  /// notification): un-stall the oldest parked send if any.
  void refill_credit(Channel* ch, sim::Time at);

  void complete(const Request& req, Status status);
  void complete_at(const Request& req, Status status, sim::Time at);
  /// Deliver an eager message to a matched receive (buffer or wire form).
  Status deliver_eager(const PostedRecv& recv, const EagerMsg& msg);
  bool do_iprobe(int rank, int src, int tag, Status* status);
  Status do_probe(sim::ActorContext& ctx, int rank, int src, int tag);
  void wake_probers(RankState& state, const Envelope& env);

  sim::Engine& engine_;
  net::ClusterSpec cluster_;
  core::CompressionConfig compression_;
  WorldOptions options_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<RankState> ranks_;
  bool reliability_ = false;  // fault injector installed

  // Persistent channels: table ordered by key for deterministic telemetry
  // flush; entries are pointed into, so node stability matters.
  std::map<ChannelKey, Channel> channels_;
  std::uint32_t next_channel_id_ = 0;
  /// Per-send stall queue for credit-exhausted channels (sender side).
  std::map<std::uint32_t, std::deque<WarmPtr>> stalled_;
};

}  // namespace gcmpi::mpi
