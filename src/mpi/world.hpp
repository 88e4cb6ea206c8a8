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
//                 single segment. On a warm persistent channel
//                 (mpi/channel.hpp) the same transfer is pushed: a channel
//                 credit stands in for the CTS and a RepeatHeader for the
//                 RTS header.
//
// Matching: arrivals no posted receive wants (eager messages, RTSs, pushed
// messages) wait in one queue in arrival order. Every send is stamped with
// a per-(src, dst) sequence number at the send call, and a message may take
// a receive only when no earlier message from the same sender that the
// same receive would match is still unmatched: MPI's non-overtaking rule,
// also for a pushed message that is stalled on credits or retransmitting,
// or an RTS that a latency spike delayed.
// A receive takes the first such message.
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
// One segment cycle implements this for every rendezvous: one segment
// (serial or pushed) or one per chunk (pipelined).
// Control packets (RTS/CTS/NACK) and eager messages ride the modeled
// link-level-reliable control plane and are never dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/adapt.hpp"
#include "core/collective.hpp"
#include "core/manager.hpp"
#include "fault/injector.hpp"
#include "gpu/device.hpp"
#include "mpi/channel.hpp"
#include "mpi/pipeline.hpp"
#include "mpi/schedule.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "util/pages.hpp"

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
  std::shared_ptr<util::Bytes> payload;
  [[nodiscard]] std::uint64_t original_bytes() const { return header.original_bytes; }
};

/// Deterministic host work of the protocol that the virtual clock does not
/// charge: fresh payload buffers and their bytes per copy site, and bytes
/// checksummed per CRC site. Raw rendezvous bytes are borrowed from the
/// sender's buffer, so they appear at no copy site.
struct HostCounters {
  struct Copies { std::uint64_t buffers = 0, bytes = 0; };
  Copies eager;               // buffered-send copy of an eager message
  Copies compressed_segment;  // compressed bytes out of the sender's staging
  Copies corrupt_copy;        // private copy a corrupted delivery flips a bit in
  Copies wire_out;            // borrowed bytes delivered to a wire-form receive
  Copies assemble;            // pipelined message reassembled for a wire-form receive
  Copies minted_wire;         // make_wire, do_make_wire_batch and raw intra-node wires
  std::uint64_t crc_eager_stamp = 0;
  std::uint64_t crc_eager_verify = 0;
  std::uint64_t crc_segment_stamp = 0;   // once per segment payload (re-push: none)
  std::uint64_t crc_segment_verify = 0;  // every arrival
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
  /// Multi-destination send (shuffles, scatter roots): blocks that qualify
  /// for batched compression (>= 2 of them) are compressed in one launch
  /// (World::do_make_wire_batch) and sent with isend_wire; the rest take the
  /// normal isend path. Returns one request per block, aligned with the
  /// input.
  [[nodiscard]] std::vector<Request> isend_batched(const std::vector<WireBlock>& blocks);
  void send(const void* buf, std::uint64_t bytes, int dst, int tag);
  Status recv(void* buf, std::uint64_t capacity, int src, int tag);
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
  /// (recvcount floats) at rank r. Ring-capable (see mpi/schedule.hpp).
  void reduce_scatter(const float* sendbuf, float* recvbuf, std::size_t recvcount,
                      ReduceOp op);
  void alltoall(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf);
  void gather(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);
  void scatter(const void* sendbuf, std::uint64_t block_bytes, void* recvbuf, int root);

 private:
  int next_coll_tag();

  // --- collective selection and the schedule executor (coll_engine.cpp) ---
  /// The schedule `op` runs for `bytes` (see DESIGN.md §9, "Collective
  /// selection"): the static policy, or the adaptive controller under Auto,
  /// through one admission rule. reduce_scatter asks as Allreduce.
  [[nodiscard]] core::CollectiveAlgorithm select_collective(core::CollectiveOp op,
                                                            std::uint64_t bytes) const;
  /// Stage `msg` and land it into `buf` (`capacity` bytes) at `at`, folded
  /// by `fold` when set, retrying injected decode faults. Returns the
  /// staging, for the caller to release once the decode has finished:
  /// decompress_wire at once, a collective's unsynchronized decodes at the
  /// next drain.
  core::Staging land_wire(sim::Timeline& tl, const WireMessage& msg, void* buf,
                          std::uint64_t capacity, const Placement& at = Placement::message(),
                          std::optional<ReduceOp> fold = std::nullopt);
  /// The one executor of the compressed collectives: builds this rank's
  /// Schedule of `build` for `bytes` at `root` (mpi/schedule.hpp), posts its
  /// steps in order, charges each step's elapsed time to the busy column of
  /// its kind, allocates the scratch first and frees it last, and appends
  /// the CollectiveRecord the schedule asks for (when telemetry is on).
  /// Folds reduce with `op`.
  void run_schedule(sched::Builder build, std::uint64_t bytes, int root, const void* sendbuf,
                    void* recvbuf, int tag, ReduceOp op = ReduceOp::Sum);
  void allreduce_linear(const float* sendbuf, float* recvbuf, std::size_t n, ReduceOp op,
                        int tag);

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
  [[nodiscard]] const HostCounters& host_counters() const { return host_; }

 private:
  friend class Rank;
  using Manager = core::CompressionManager;

  struct Envelope {
    int src = -1;
    int dst = -1;
    int tag = 0;
    std::uint64_t bytes = 0;   // original message size
    std::uint32_t crc = 0;     // eager payload CRC32C (reliability layer)
    std::uint32_t seq = 0;     // per-(src, dst) send order, stamped at the send call
  };

  /// Payload bytes of an eager message or a segment: a view plus its owner.
  /// A borrowed payload (no owner) points into the sender's user buffer,
  /// which MPI keeps live and unchanged until the send request completes;
  /// no send completes before delivery or failure, and every pending event
  /// checks that its segment is not done before it reads. Owned bytes are
  /// written in full when they are made, so they live in util::Bytes.
  struct Payload {
    std::span<const std::uint8_t> bytes;
    std::shared_ptr<util::Bytes> owner;
  };

  struct EagerMsg {
    Envelope env;
    Payload payload;
    bool crc_ok = true;  // end-to-end CRC verdict (reliability layer)
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
  /// or pushed rendezvous, or one chunk of a pipelined one. Each runs the
  /// same cycle (push_segment -> segment_intact -> nack_segment ->
  /// resend_segment, raw degrade, RetryLimit). Raw bytes (a raw send, a raw
  /// chunk, a raw degrade) are borrowed from the sender's buffer; compressed
  /// and forwarded bytes are owned.
  struct Segment {
    core::CompressionHeader header;  // wire header; carries the payload CRC
    Payload payload;                 // wire bytes, re-pushed on NACK
    int attempts = 0;                // payload pushes so far
    bool done = false;               // delivered, or its transfer failed
    bool fell_back_raw = false;      // decode faults switched it to raw
    bool recovery_pending = false;   // a NACK/timeout is already in flight
    sim::Engine::CancelToken watchdog;
  };

  /// One in-flight rendezvous, kept alive until verified delivery or retry
  /// exhaustion. It starts one of two ways:
  ///   * pulled: an RTS carries the header and the receiver's CTS clears
  ///     the sender. Serial (chunks == 1): its one segment is the RTS
  ///     header and the payload compressed before the RTS. Pipelined
  ///     (chunks >= 2, announced by an RTS whose header carries
  ///     pipeline_chunks): compression, wire transfer, and decompression of
  ///     consecutive chunks overlap after the CTS; each chunk is its own
  ///     segment, so a lost or corrupted chunk re-pushes only itself;
  ///   * pushed (`ch` set): a warm channel's credit stands in for the CTS
  ///     and a RepeatHeader for the RTS header. One segment, matched when
  ///     it first arrives intact; recovery never tears the channel down.
  /// A receive, once matched, stays bound to the transfer (`recv`). The
  /// send request completes only at delivery or failure, so `sender_buf`
  /// outlives every read of a borrowed segment payload.
  struct RndvTransfer {
    Envelope env;
    Request send_req;
    PostedRecv recv;                   // the bound receive (req set once matched)
    Channel* ch = nullptr;             // pushed: the warm channel whose credit cleared it
    const void* sender_buf = nullptr;  // user buffer: chunk, raw and raw-degrade source
    std::uint64_t chunk_bytes = 0;     // serial and pushed: the whole message
    int chunks = 0;
    int window = 0;  // max chunks concurrently in flight
    int blocks = 0;  // thread blocks per chunk kernel (SMs / window)
    core::Staging staging;  // receiver decode staging (pipelined: per-chunk slices)
    std::shared_ptr<util::Bytes> assemble;  // pipelined wire-form receivers
    Payload delivered;  // pushed: verified bytes waiting for a receive

    // Progress-thread host cursors: per-chunk host work (launches, size
    // readbacks, CRC handling) serializes on the owning side's cursor even
    // when chunk events interleave in engine time.
    sim::Time start;        // CTS arrival at the sender
    sim::Time send_cursor;
    sim::Time recv_cursor;
    sim::Time recv_done;    // max over chunk decompression completions
    int next_chunk = 0;     // next chunk to launch compression for
    int arrived = 0;        // chunks verified + consumed at the receiver
    bool done = false;      // pipelined delivery finished, or the transfer failed

    std::vector<Segment> segments;  // one per chunk (serial: one), own header and CRC

    // Overlap telemetry accumulators (PipelineRecord).
    std::uint64_t wire_total = 0;  // payload bytes pushed, retransmits included
    std::uint32_t retransmits = 0;
    sim::Time compress_busy;
    sim::Time transfer_busy;
    sim::Time decompress_busy;

    [[nodiscard]] bool pipelined() const { return chunks >= 2; }
    [[nodiscard]] bool pushed() const { return ch != nullptr; }
    Segment& segment(int i) { return segments[static_cast<std::size_t>(i)]; }
    /// The compact header a pushed message carries, derived from its segment.
    [[nodiscard]] RepeatHeader repeat() const;
    /// A serial header rode the RTS; a chunk carries its own sub-header and
    /// a pushed message its RepeatHeader.
    [[nodiscard]] std::uint64_t segment_header_bytes(int i) const {
      if (pushed()) return repeat().wire_bytes();
      return pipelined() ? segments[static_cast<std::size_t>(i)].header.wire_bytes() : 0;
    }
    /// The codec telemetry reports: a pushed message's is its channel's.
    [[nodiscard]] core::Algorithm codec(int i) const {
      return pushed() ? ch->tmpl.algorithm : segments[static_cast<std::size_t>(i)].header.algorithm;
    }
  };
  using RndvPtr = std::shared_ptr<RndvTransfer>;

  /// An arrival no posted receive has matched yet: an eager message, or a
  /// transfer whose RTS (pulled) or intact payload or failure (pushed) arrived.
  using Unexpected = std::variant<EagerMsg, RndvPtr>;

  struct RankState {
    std::unique_ptr<gpu::Gpu> gpu;
    std::unique_ptr<core::CompressionManager> mgr;
    std::deque<PostedRecv> posted;
    std::deque<Unexpected> unexpected;  // arrival order
    /// Sender side: the next sequence number per destination.
    std::map<int, std::uint32_t> next_seq;
    /// Receiver side: every message sent here that no receive has taken
    /// yet, in flight or waiting, as (src, seq) -> tag.
    std::map<std::pair<int, std::uint32_t>, int> unmatched;
  };

  [[nodiscard]] static bool matches(int src, int tag, const Envelope& e) {
    return (src == kAnySource || src == e.src) && (tag == kAnyTag || tag == e.tag);
  }
  /// The non-overtaking rule: is an earlier message from env.src that a
  /// receive for `tag` would also match still unmatched?
  [[nodiscard]] static bool overtakes(const RankState& state, const Envelope& env, int tag);
  /// Remove and return the oldest posted receive `env` may take, if any.
  static std::optional<PostedRecv> take_posted(RankState& state, const Envelope& env);
  [[nodiscard]] static const Envelope& envelope_of(const Unexpected& u);
  /// The oldest unexpected arrival a (src, tag) receive may take: what the
  /// next such receive takes.
  static std::deque<Unexpected>::iterator find_unexpected(RankState& state, int src, int tag);

  // Protocol steps (see .cpp). Receiver-side handlers run in engine events.
  /// The envelope of a new message: stamps its sequence number and counts
  /// it as unmatched at the destination.
  Envelope stamp(int src, int dst, int tag, std::uint64_t bytes);
  Request do_isend(sim::ActorContext& ctx, int src, const void* buf,
                   std::uint64_t bytes, int dst, int tag);
  Request do_irecv(sim::ActorContext& ctx, int dst, void* buf, std::uint64_t capacity,
                   int src, int tag, WireMessage* wire_out = nullptr);
  /// Compress one message on `rank` (a launch at the message placement,
  /// finished at once), charged to `ctx`. A minted result owns its bytes;
  /// a segment's borrows raw bytes from `buf`.
  std::pair<core::CompressionHeader, Payload> compress_send(sim::ActorContext& ctx, int rank,
                                                            const void* buf, std::uint64_t bytes,
                                                            bool minted);
  /// Compress every block of the batch whose route compresses in ONE kernel
  /// launch (a CompressionManager launch at the batch placement), so the
  /// launch+sync overhead is paid once for the whole batch instead of once
  /// per destination; the rest become raw wires. Returns one wire message
  /// per block, aligned with the input.
  std::vector<WireMessage> do_make_wire_batch(sim::ActorContext& ctx, int rank,
                                              const std::vector<Rank::WireBlock>& blocks);
  /// Does the src -> dst route compress at all? Intra-node routes are
  /// exempt unless CompressionConfig::compress_intra_node is set.
  [[nodiscard]] bool compresses(int src, int dst) const;
  /// Would the normal isend path compress this block? (eligibility gate for
  /// routing a block through the batched compress path or the pipeline)
  [[nodiscard]] bool batch_compress_eligible(int src, int dst, const void* buf,
                                             std::uint64_t bytes) const;
  /// A fresh owned copy of `bytes`, counted at `site`.
  Payload copy(HostCounters::Copies& site, std::span<const std::uint8_t> bytes);
  /// The payload of a sender-side wire view whose staging the caller
  /// releases next: raw bytes are borrowed (a minted wire copies them too),
  /// compressed ones copied.
  Payload take(const Manager::WireBlock& w, bool minted);
  /// CRC32C of `bytes`, counted at `site`.
  std::uint32_t checksum(std::uint64_t& site, std::span<const std::uint8_t> bytes);
  /// Give a segment its bytes, stamping their CRC when the reliability
  /// layer is on: the one place a segment CRC is computed.
  void fill_segment(Segment& seg, core::CompressionHeader header, Payload payload);
  WireMessage make_raw_wire(const void* buf, std::uint64_t bytes);
  Request do_isend_wire(sim::ActorContext& ctx, int src, const WireMessage& msg, int dst,
                        int tag);
  /// Start a serial rendezvous of one segment: pushed when `ch` is warm and
  /// its template expands the header, else pulled by an RTS.
  Request start_serial(sim::ActorContext& ctx, const Envelope& env, core::CompressionHeader header,
                       Payload payload, const void* sender_buf, Channel* ch);
  /// Charge the host send overhead, send the RTS control packet (carrying
  /// `header`) and schedule its arrival at the receiver.
  void post_rts(sim::ActorContext& ctx, const RndvPtr& tx, const core::CompressionHeader& header);
  void on_eager_arrival(EagerMsg msg);
  /// Match an arrival to the oldest posted receive it may take, or queue it.
  void arrive(Unexpected u, sim::Timeline& tl);
  /// Bind a matched arrival to its receive: an eager message is delivered,
  /// a pulled transfer answers with the CTS, a pushed one lands its bytes
  /// (or, if it failed first, fails the receive).
  void bind(Unexpected u, PostedRecv recv, sim::Timeline& tl);
  /// Matching a message from `src` may let later messages from `src` take
  /// posted receives.
  void rematch(int dst, int src);
  /// Deliver an arrived message into `buf` on `rank`: a compressed payload
  /// is decoded at `at` straight from the delivered bytes (a
  /// CodecFaultError propagates to the caller, which owns recovery and the
  /// staging it holds for the modelled decode); a raw one is
  /// capacity-checked and copied. With a `fold` the payload is reduced into
  /// `buf` instead (compressed: the fused decode; raw: one reduce kernel).
  void land(sim::Timeline& tl, int rank, const core::CompressionHeader& header,
            std::span<const std::uint8_t> payload, void* buf, std::uint64_t capacity,
            const Manager::Placement& at = Manager::Placement::message(),
            std::optional<ReduceOp> fold = std::nullopt);
  void land(sim::Timeline& tl, int rank, const WireMessage& msg, void* buf,
            std::uint64_t capacity, const Manager::Placement& at = Manager::Placement::message(),
            std::optional<ReduceOp> fold = std::nullopt) {
    land(tl, rank, msg.header, *msg.payload, buf, capacity, at, fold);
  }
  /// Receiver side of a matched RTS: acquire the decode staging (serial or
  /// pipelined) and send the CTS.
  void begin_rndv_receive(sim::Timeline& tl, const RndvPtr& tx);
  /// Deliver the verified payload of a serial or pushed transfer to its
  /// bound receive; a decode fault asks the sender for a raw re-push.
  void land_message(const RndvPtr& tx, const Payload& delivered, sim::Timeline& tl);

  // --- the segment cycle, shared by every transfer ---
  /// Push (or re-push) segment i: bit-flip delivery of a private copy on
  /// corruption, a backoff watchdog on a drop.
  net::Fabric::Delivery push_segment(const RndvPtr& tx, int i, sim::Time start);
  /// Receiver-side CRC check of an arrival; a mismatch is recorded and NACKed.
  bool segment_intact(const RndvPtr& tx, int i, const Payload& delivered, sim::Time at);
  /// NACK segment i back to the sender, or fail its transfer once the
  /// retry budget is spent.
  void nack_segment(const RndvPtr& tx, int i, sim::Time at, bool decode_fail);
  /// Re-point a segment at the live user bytes, raw (graceful degradation
  /// after a decode fault). False if it already is raw.
  bool degrade_segment(Segment& seg, const void* src, std::uint64_t len);
  /// Complete the given requests with StatusError::RetryLimit and 0 bytes.
  void fail_requests(const Envelope& env, const Request& send_req, const Request& recv_req,
                     sim::Time at);
  /// A verified arrival of segment i: match a pushed message, land a serial
  /// one, or decode a chunk into its slice of the user buffer.
  void on_segment_data(const RndvPtr& tx, int i, const Payload& delivered);
  /// The sender's reaction to a NACK: count it, degrade to raw on a decode
  /// fault, and re-push.
  void resend_segment(const RndvPtr& tx, int i, bool decode_fail);
  /// Retry budget spent: release the staging, demote a pushed message's
  /// channel, and fail both requests. A pushed message nobody matched yet
  /// still arrives as a failure, so its receive fails in its place.
  void fail_transfer(const RndvPtr& tx, sim::Time at);

  // Chunked pipelined rendezvous (see mpi/pipeline.hpp and DESIGN.md).
  /// Chunk size of a pipelined send of this message, or 0 when it takes
  /// the serial path (pipeline off, too small, not compressed on this
  /// route, or fewer than two chunks).
  [[nodiscard]] std::uint64_t pipelined_chunk_bytes(int src, int dst, const void* buf,
                                                    std::uint64_t bytes) const;
  Request pipeline_isend(sim::ActorContext& ctx, const Envelope& env, const void* buf,
                         std::uint64_t chunk_bytes);
  /// CTS arrival at the sender: push a serial payload, or start the
  /// compression window of a pipelined one.
  void start_rndv_sender(const RndvPtr& tx);
  void launch_pipeline_chunk(const RndvPtr& tx);
  void pipeline_chunk_ready(const RndvPtr& tx, int chunk,
                            const std::shared_ptr<Manager::Launch>& ck);
  void finish_pipeline(const RndvPtr& tx);
  [[nodiscard]] std::uint64_t pipeline_chunk_len(const RndvPtr& tx, int chunk) const {
    const std::uint64_t off = static_cast<std::uint64_t>(chunk) * tx->chunk_bytes;
    return std::min(tx->chunk_bytes, tx->env.bytes - off);
  }

  // --- persistent channels (see mpi/channel.hpp) ---
  /// Find-or-create the channel for a key (assigns the id on creation).
  Channel* channel_for(const ChannelKey& key);
  /// Receiver-side warm-up after a successful cold delivery: cache the
  /// header template and send the one-time credit grant. Pushed messages
  /// take their decode staging from the plan cache, like every other receive.
  void maybe_warm_channel(const Envelope& env, const core::CompressionHeader& header,
                          sim::Time at);
  /// The pushed start: count the channel's savings, then consume a credit
  /// and push the one segment, or stall until a consume refills one.
  void push_warm(sim::ActorContext& ctx, const RndvPtr& tx, Channel* ch);
  /// Sender-side credit refill (piggybacked on the zero-cost completion
  /// notification): un-stall the oldest parked send if any.
  void refill_credit(Channel* ch, sim::Time at);

  void complete(const Request& req, Status status);
  void complete_at(const Request& req, Status status, sim::Time at);
  /// Deliver an eager message to a matched receive (buffer or wire form).
  Status deliver_eager(const PostedRecv& recv, const EagerMsg& msg);

  sim::Engine& engine_;
  net::ClusterSpec cluster_;
  core::CompressionConfig compression_;
  WorldOptions options_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<RankState> ranks_;
  bool reliability_ = false;  // fault injector installed
  HostCounters host_;

  // Persistent channels: table ordered by key for deterministic telemetry
  // flush; entries are pointed into, so node stability matters.
  std::map<ChannelKey, Channel> channels_;
  std::uint32_t next_channel_id_ = 0;
  /// Per-channel queue of pushed sends waiting for a credit (sender side).
  std::map<std::uint32_t, std::deque<RndvPtr>> stalled_;
};

}  // namespace gcmpi::mpi
