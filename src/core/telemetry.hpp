// Telemetry: in-flight monitoring of the compression framework, modeled on
// the paper's future-work plan to drive dynamic compression decisions with
// a real-time monitor "like OSU INAM" (Sec. IX).
//
// Every compression/decompression/fallback on any rank is recorded with
// its virtual timestamp, sizes, and time spent, enabling:
//   * per-rank and global summaries (ratio achieved, time in kernels,
//     bytes saved on the wire);
//   * time-series export (CSV) for external analysis;
//   * the feedback signal a DynamicSelector-style policy consumes.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/config.hpp"
#include "sim/time.hpp"

namespace gcmpi::core {

enum class EventKind : std::uint8_t {
  Compress,            // sender-side compression performed
  Decompress,          // receiver-side decompression performed
  RawBypass,           // message did not qualify (threshold / host / disabled)
  FallbackRaw,         // compression ran but did not pay off; sent raw
  Retransmit,          // reliability layer re-pushed a rendezvous payload
  CorruptionDetected,  // receiver CRC32C mismatch on an arrived payload
  CodecFault,          // compression/decompression kernel fault (injected)
};

[[nodiscard]] const char* event_kind_name(EventKind k);

struct TelemetryEvent {
  sim::Time at;                 // virtual time of the operation's start
  int rank = -1;
  EventKind kind = EventKind::RawBypass;
  Algorithm algorithm = Algorithm::None;
  std::uint64_t original_bytes = 0;
  std::uint64_t wire_bytes = 0;
  sim::Time duration;           // virtual time spent in the operation
  /// Channel the operation belongs to (core/adapt.hpp scope names): the
  /// serial p2p path, a batched alltoall launch, or a pipeline chunk.
  /// Not part of the CSV export (the legacy column set is pinned by the
  /// determinism dumps); consumed by the adaptive control plane.
  const char* channel = "p2p";
};

/// One completed chunked pipelined rendezvous transfer: per-stage busy
/// time against the transfer's span, so fig10-style breakdowns can show
/// the overlap (busy sums may exceed the span — that IS the overlap; with
/// concurrent chunk kernels a stage's own busy time can too).
struct PipelineRecord {
  sim::Time at;  // pipeline start (CTS arrival at the sender)
  int src = -1;
  int dst = -1;
  Algorithm algorithm = Algorithm::None;
  std::uint64_t original_bytes = 0;
  std::uint64_t wire_bytes = 0;  // total pushed, retransmissions included
  std::uint32_t chunks = 0;
  std::uint32_t retransmits = 0;
  sim::Time span;             // start -> receive completion
  sim::Time compress_busy;    // sum of chunk compression kernel time
  sim::Time transfer_busy;    // sum of chunk wire-serialization time
  sim::Time decompress_busy;  // sum of chunk decompression kernel time
};

/// One completed collective on one rank, as run by the schedule executor
/// (mpi/schedule.hpp; the linear p2p composition predates this record and
/// stays silent so legacy dumps are unchanged). Each step's elapsed time is
/// charged to one busy column by its kind, so unlike a PipelineRecord's the
/// columns never overlap: they and the uncharged allocations and copies
/// add up to the span.
struct CollectiveRecord {
  sim::Time at;  // collective entry on this rank
  int rank = -1;
  const char* op = "allreduce";   // static name: "allreduce", "reduce_scatter"
  const char* algorithm = "ring"; // core::collective_algorithm_name
  std::uint64_t bytes = 0;        // per-rank payload bytes
  std::uint32_t hops = 0;         // wire messages this rank sent
  std::uint32_t reduces = 0;      // fused/raw reduce launches on this rank
  sim::Time span;                 // entry -> result available
  sim::Time compress_busy;        // encode steps
  sim::Time transfer_busy;        // send, recv and wait steps
  sim::Time reduce_busy;          // decode (folded or not) and drain steps
};

/// One persistent channel's lifetime totals (mpi/channel.hpp), flushed at
/// the end of World::run in deterministic (key-sorted) order. Quantifies
/// what the warm protocol amortized: handshake-free sends, control bytes
/// avoided, plan-cache reuse, and the fault recoveries absorbed without a
/// channel teardown.
struct ChannelRecord {
  sim::Time at;  // flush time (end of run)
  std::uint32_t id = 0;
  int src = -1;
  int dst = -1;
  int tag_class = 0;  // exact user tag, or -1 for engine wire channels
  std::uint64_t bytes = 0;
  std::uint32_t warmups = 0;
  std::uint64_t warm_sends = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t raw_degrades = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t header_bytes_saved = 0;
};

/// One adaptive-control-plane decision: which codec (or collective
/// schedule) the controller picked for one message/batch/chunk/collective
/// round, whether it was an exploratory probe of the runner-up, and
/// whether a quarantined candidate was excluded from the choice.
struct DecisionRecord {
  sim::Time at;
  int rank = -1;
  const char* scope = "p2p";   // channel (core/adapt.hpp scope names)
  std::uint64_t bytes = 0;
  const char* choice = "raw";  // "raw"|"mpc"|"zfp8"|... or a schedule name
  bool probe = false;          // counter-based exploration of the runner-up
  bool quarantined = false;    // some candidate was quarantined at decision time
  double predicted_us = 0.0;   // the chosen candidate's predicted latency
};

/// Live subscriber to the telemetry streams: every record() call is
/// forwarded as it happens, so a policy (adapt::AdaptiveController) can
/// close the loop without polling the stored vectors.
class TelemetryObserver {
 public:
  virtual ~TelemetryObserver() = default;
  virtual void on_event(const TelemetryEvent&) {}
  virtual void on_pipeline(const PipelineRecord&) {}
  virtual void on_collective(const CollectiveRecord&) {}
};

class Telemetry {
 public:
  void record(const TelemetryEvent& ev) {
    events_.push_back(ev);
    if (observer_ != nullptr) observer_->on_event(ev);
  }
  void record_pipeline(const PipelineRecord& rec) {
    pipelines_.push_back(rec);
    if (observer_ != nullptr) observer_->on_pipeline(rec);
  }
  void record_collective(const CollectiveRecord& rec) {
    collectives_.push_back(rec);
    if (observer_ != nullptr) observer_->on_collective(rec);
  }
  void record_decision(const DecisionRecord& rec) { decisions_.push_back(rec); }
  void record_channel(const ChannelRecord& rec) { channels_.push_back(rec); }

  /// Install (or clear, with nullptr) the live stream subscriber.
  void set_observer(TelemetryObserver* observer) { observer_ = observer; }

  [[nodiscard]] const std::vector<TelemetryEvent>& events() const { return events_; }
  [[nodiscard]] const std::vector<PipelineRecord>& pipelines() const { return pipelines_; }
  [[nodiscard]] const std::vector<CollectiveRecord>& collectives() const {
    return collectives_;
  }
  [[nodiscard]] const std::vector<DecisionRecord>& decisions() const { return decisions_; }
  [[nodiscard]] const std::vector<ChannelRecord>& channels() const { return channels_; }
  void clear() {
    events_.clear();
    pipelines_.clear();
    collectives_.clear();
    decisions_.clear();
    channels_.clear();
  }

  struct Summary {
    std::uint64_t compressions = 0;
    std::uint64_t decompressions = 0;
    std::uint64_t raw_bypasses = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t corruptions_detected = 0;
    std::uint64_t codec_faults = 0;
    std::uint64_t original_bytes = 0;  // over compressed sends
    std::uint64_t wire_bytes = 0;
    sim::Time compression_time;
    sim::Time decompression_time;

    // Chunked pipelined rendezvous (PipelineRecord stream). For per-rank
    // summaries a transfer counts toward both its src and its dst rank.
    std::uint64_t pipelined_transfers = 0;
    std::uint64_t pipeline_chunks = 0;
    std::uint64_t pipeline_retransmits = 0;
    sim::Time pipeline_span;             // sum of transfer spans
    sim::Time pipeline_compress_busy;    // per-stage busy totals (overlap
    sim::Time pipeline_transfer_busy;    // included: sums may exceed span)
    sim::Time pipeline_decompress_busy;

    // Engine-executed collectives (CollectiveRecord stream).
    std::uint64_t collectives = 0;
    std::uint64_t collective_hops = 0;
    std::uint64_t collective_reduces = 0;
    sim::Time collective_span;
    sim::Time collective_compress_busy;
    sim::Time collective_transfer_busy;
    sim::Time collective_reduce_busy;

    // Adaptive control plane (DecisionRecord stream).
    std::uint64_t decisions = 0;
    std::uint64_t probes = 0;

    // Persistent channels (ChannelRecord stream). For per-rank summaries a
    // channel counts toward both its src and its dst rank.
    std::uint64_t channels = 0;
    std::uint64_t channel_warmups = 0;
    std::uint64_t channel_warm_sends = 0;
    std::uint64_t channel_credit_stalls = 0;
    std::uint64_t channel_retransmits = 0;
    std::uint64_t channel_raw_degrades = 0;
    std::uint64_t channel_plan_hits = 0;
    std::uint64_t channel_plan_misses = 0;
    std::uint64_t channel_header_bytes_saved = 0;

    [[nodiscard]] double achieved_ratio() const {
      return wire_bytes == 0 ? 1.0
                             : static_cast<double>(original_bytes) /
                                   static_cast<double>(wire_bytes);
    }
    [[nodiscard]] std::uint64_t bytes_saved() const {
      return original_bytes >= wire_bytes ? original_bytes - wire_bytes : 0;
    }
  };

  /// Aggregate over all four record streams; `rank` = -1 for the whole job.
  [[nodiscard]] Summary summarize(int rank = -1) const;

  /// One CSV row per event: time_us,rank,kind,algorithm,original,wire,duration_us
  void write_csv(std::ostream& os) const;

  /// One CSV row per pipelined transfer with per-stage busy/occupancy.
  void write_pipeline_csv(std::ostream& os) const;

  /// One CSV row per engine-executed collective with per-stage busy times.
  void write_collective_csv(std::ostream& os) const;

  /// One CSV row per adaptive control-plane decision.
  void write_decision_csv(std::ostream& os) const;

  /// One CSV row per persistent channel's lifetime totals.
  void write_channel_csv(std::ostream& os) const;

  /// All streams as a Chrome/Perfetto trace (chrome://tracing "Trace Event
  /// Format" JSON): one process per rank; events, pipeline spans,
  /// collective spans, and decisions on separate tracks.
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::vector<TelemetryEvent> events_;
  std::vector<PipelineRecord> pipelines_;
  std::vector<CollectiveRecord> collectives_;
  std::vector<DecisionRecord> decisions_;
  std::vector<ChannelRecord> channels_;
  TelemetryObserver* observer_ = nullptr;
};

}  // namespace gcmpi::core
