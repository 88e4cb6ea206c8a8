// AdaptiveController: the closed loop between the telemetry streams and
// the codec / collective-algorithm decisions (the paper's Sec. IX "dynamic
// design" driven by a real-time monitor).
//
// The controller starts from DynamicSelector's static cost model as its
// prior and substitutes measured per-channel terms (History's EWMAs) as
// samples arrive. Three mechanisms keep the loop stable and deterministic:
//
//  * Hysteresis — the per-channel incumbent codec is only displaced when a
//    challenger's prediction beats it by kHysteresis (15%), so noisy EWMAs
//    cannot make decisions oscillate.
//  * Probing — a deterministic, counter-based draw (sim::Rng seeded from
//    (kProbeSeed, channel, round); never the wall clock) routes ~1 in
//    kProbePeriod (16) messages to the best non-incumbent candidate so a
//    displaced codec's statistics stay fresh. Probes never move the
//    incumbent.
//  * Quarantine — a codec family with kQuarantineAfter (3) consecutive
//    fallbacks/faults on a channel is excluded for kQuarantineBackoff (32)
//    decisions (graceful degradation to raw under a fault storm, riding
//    the fault-injection subsystem), then re-admitted so a drifting
//    workload can recover it.
// The k* tuning constants live in controller.cpp.
//
// Collective algorithm choices must agree across ranks: ranks issue their
// collectives in identical program order, so the controller keeps ONE
// shared decision sequence per collective op and a per-rank cursor into
// it — the first rank to reach round k computes decision k, the others
// replay it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "adapt/history.hpp"
#include "core/adapt.hpp"
#include "core/dynamic.hpp"
#include "core/telemetry.hpp"
#include "gpu/cost_model.hpp"

namespace gcmpi::adapt {

struct AdaptiveOptions {
  bool lossy_allowed = true;  // admit ZFP candidates (fixed-rate loss)
};

class AdaptiveController final : public core::AdaptivePolicy,
                                 public core::TelemetryObserver {
 public:
  AdaptiveController(const gpu::GpuSpec& gpu, double network_gbs,
                     AdaptiveOptions opts = {});

  /// Subscribe to `telemetry`'s streams (the feedback path) and use it as
  /// the DecisionRecord sink. Pass the same Telemetry the World uses.
  void bind(core::Telemetry& telemetry);

  // --- core::AdaptivePolicy ---
  core::CompressChoice choose_codec(sim::Time now, int rank, const char* scope,
                                    std::uint64_t bytes) override;
  core::CollectiveAlgorithm choose_allreduce(sim::Time now, int rank, std::uint64_t bytes,
                                             int ranks, int nodes,
                                             int gpus_per_node) override;
  core::CollectiveAlgorithm choose_alltoall(sim::Time now, int rank,
                                            std::uint64_t block_bytes, int ranks) override;
  core::CollectiveAlgorithm choose_bcast(sim::Time now, int rank, std::uint64_t bytes,
                                         int ranks, int nodes, int gpus_per_node) override;
  core::CollectiveAlgorithm choose_allgather(sim::Time now, int rank,
                                             std::uint64_t block_bytes, int ranks,
                                             int nodes, int gpus_per_node) override;
  core::CollectiveAlgorithm choose_gather(sim::Time now, int rank,
                                          std::uint64_t block_bytes, int ranks, int nodes,
                                          int gpus_per_node) override;
  core::CollectiveAlgorithm choose_scatter(sim::Time now, int rank,
                                           std::uint64_t block_bytes, int ranks, int nodes,
                                           int gpus_per_node) override;

  // --- core::TelemetryObserver (the feedback path) ---
  void on_event(const core::TelemetryEvent& ev) override { history_.observe(ev); }
  void on_pipeline(const core::PipelineRecord& rec) override { history_.observe(rec); }
  void on_collective(const core::CollectiveRecord& rec) override { history_.observe(rec); }

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] const AdaptiveOptions& options() const { return opts_; }

 private:
  struct Candidate {
    int id = 0;
    core::Algorithm algorithm = core::Algorithm::None;
    int zfp_rate = 0;
    double predicted_us = 0.0;
    bool quarantined = false;
  };

  struct Channel {
    std::uint64_t rounds = 0;
    int incumbent = -1;  // candidate id; -1 until the first decision
    // codec family (int Algorithm) -> round at which it re-enters
    std::map<int, std::uint64_t> quarantined_until;
  };

  /// One shared decision sequence + per-rank replay cursors (see header
  /// comment: all ranks of one collective must get the same answer).
  struct CollectiveSequence {
    std::vector<core::CollectiveAlgorithm> seq;
    std::map<int, std::size_t> cursor;  // rank -> next round index
  };

  Channel& channel(const char* scope, std::uint64_t bytes);
  void update_quarantine(Channel& ch, const char* scope, std::uint64_t bytes);
  [[nodiscard]] std::vector<Candidate> evaluate(const Channel& ch, const char* scope,
                                                std::uint64_t bytes) const;
  [[nodiscard]] double wire_us(double bytes) const;
  void record(sim::Time now, int rank, const char* scope, std::uint64_t bytes,
              const char* choice, bool probe, bool quarantined, double predicted_us);
  [[nodiscard]] core::CollectiveAlgorithm refine_collective(
      core::CollectiveOp op, core::CollectiveAlgorithm prior_choice, std::uint64_t bytes) const;
  /// The one collective decision body the six AdaptivePolicy overrides
  /// forward to: replay round k, or price it with the DynamicSelector prior,
  /// refine it from the measured history and log it.
  core::CollectiveAlgorithm choose_collective(core::CollectiveOp op, sim::Time now, int rank,
                                              std::uint64_t bytes, int ranks, int nodes,
                                              int gpus_per_node);

  double network_gbs_;
  AdaptiveOptions opts_;
  core::DynamicSelector prior_;
  History history_;
  core::Telemetry* telemetry_ = nullptr;
  std::map<std::pair<int, int>, Channel> channels_;  // (scope, bucket)
  std::array<CollectiveSequence, core::kCollectiveOps> sequences_;  // by CollectiveOp
};

}  // namespace gcmpi::adapt
