#include "adapt/controller.hpp"

#include <algorithm>
#include <iterator>

#include "sim/rng.hpp"

namespace gcmpi::adapt {

namespace {

constexpr std::uint64_t kProbeSeed = 0xAD4F7;  // probe-draw stream (no wall clock anywhere)
constexpr double kEwmaAlpha = 0.3;             // History smoothing
constexpr double kHysteresis = 0.15;           // challenger must beat incumbent by 15%
constexpr std::uint32_t kProbePeriod = 16;     // ~1 in N decisions probes the runner-up
constexpr std::uint32_t kMinSamples = 2;       // measured terms below this use the prior
constexpr std::uint32_t kQuarantineAfter = 3;  // consecutive fallbacks/faults
constexpr std::uint32_t kQuarantineBackoff = 32;  // decisions excluded before re-entry
constexpr double kPriorMpcRatio = 2.0;  // assumed CR until the first measurement
constexpr int kMinZfpRate = 8;          // the static prior's lowest admitted ZFP rate

}  // namespace

AdaptiveController::AdaptiveController(const gpu::GpuSpec& gpu, double network_gbs,
                                       AdaptiveOptions opts)
    : network_gbs_(network_gbs),
      opts_(opts),
      prior_(gpu, network_gbs, opts_.lossy_allowed, kMinZfpRate),
      history_(kEwmaAlpha) {}

void AdaptiveController::bind(core::Telemetry& telemetry) {
  telemetry_ = &telemetry;
  telemetry.set_observer(this);
}

double AdaptiveController::wire_us(double bytes) const {
  return bytes * 1e6 / (network_gbs_ * 1e9);
}

AdaptiveController::Channel& AdaptiveController::channel(const char* scope,
                                                         std::uint64_t bytes) {
  return channels_[{scope_id(scope), size_bucket(bytes)}];
}

void AdaptiveController::update_quarantine(Channel& ch, const char* scope,
                                           std::uint64_t bytes) {
  const std::uint64_t k = ch.rounds;
  // Re-admit families whose backoff elapsed (their streak was reset on
  // entry, so a still-broken codec re-quarantines after kQuarantineAfter
  // more bad events — periodic, bounded re-probing of a faulty kernel).
  for (auto it = ch.quarantined_until.begin(); it != ch.quarantined_until.end();) {
    it = it->second <= k ? ch.quarantined_until.erase(it) : std::next(it);
  }
  for (core::Algorithm family : {core::Algorithm::MPC, core::Algorithm::ZFP}) {
    const int f = static_cast<int>(family);
    if (ch.quarantined_until.count(f) != 0) continue;
    if (history_.bad_streak(scope, bytes, family) >= kQuarantineAfter) {
      ch.quarantined_until[f] = k + kQuarantineBackoff;
      history_.reset_streak(scope, bytes, family);
    }
  }
}

std::vector<AdaptiveController::Candidate> AdaptiveController::evaluate(
    const Channel& ch, const char* scope, std::uint64_t bytes) const {
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  // Per-term substitution: the exact channel's measured EWMA when sampled,
  // else the bucket's scope-agnostic aggregate (decodes land on the
  // receiver under a different scope), else the static prior.
  const auto pick_term = [&](double exact, std::uint64_t exact_n, double any,
                             std::uint64_t any_n, double prior) {
    if (exact_n >= kMinSamples) return exact;
    if (any_n >= kMinSamples) return any;
    return prior;
  };
  const auto quarantined = [&](core::Algorithm family) {
    return ch.quarantined_until.count(static_cast<int>(family)) != 0;
  };

  // The eq. 2 prior prices every candidate at the measured MPC ratio; each
  // codec's ratio and kernel terms then take their measured values.
  const int mpc = candidate_id(core::Algorithm::MPC, 0);
  const CodecStats& mpc_ex = history_.codec(scope, bytes, mpc);
  const CodecStats& mpc_any = history_.codec_any_scope(bytes, mpc);
  const double mpc_cr = std::max(1.0, pick_term(mpc_ex.ratio, mpc_ex.ratio_samples,
                                                mpc_any.ratio, mpc_any.ratio_samples,
                                                kPriorMpcRatio));

  std::vector<Candidate> out;
  for (const core::CandidateCost& prior : prior_.evaluate(bytes, mpc_cr)) {
    const int cand = candidate_id(prior.algorithm, prior.zfp_rate);
    if (prior.algorithm == core::Algorithm::None) {
      out.push_back({cand, prior.algorithm, 0, wire_us(static_cast<double>(bytes)), false});
      continue;
    }
    const CodecStats& ex = history_.codec(scope, bytes, cand);
    const CodecStats& any = history_.codec_any_scope(bytes, cand);
    const double cr = std::max(1.0, pick_term(ex.ratio, ex.ratio_samples, any.ratio,
                                              any.ratio_samples, prior.estimated_cr));
    const double comp =
        pick_term(ex.compress_us_per_mb * mb, ex.compress_samples,
                  any.compress_us_per_mb * mb, any.compress_samples, prior.compress.to_us());
    const double dec =
        pick_term(ex.decompress_us_per_mb * mb, ex.decompress_samples,
                  any.decompress_us_per_mb * mb, any.decompress_samples,
                  prior.decompress.to_us());
    out.push_back({cand, prior.algorithm, prior.zfp_rate,
                   comp + wire_us(static_cast<double>(bytes) / cr) + dec,
                   quarantined(prior.algorithm)});
  }

  // Best-first; ties broken by candidate id so the order (and with it the
  // whole decision sequence) is deterministic.
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.predicted_us != b.predicted_us) return a.predicted_us < b.predicted_us;
    return a.id < b.id;
  });
  return out;
}

void AdaptiveController::record(sim::Time now, int rank, const char* scope,
                                std::uint64_t bytes, const char* choice, bool probe,
                                bool quarantined, double predicted_us) {
  if (telemetry_ == nullptr) return;
  core::DecisionRecord d;
  d.at = now;
  d.rank = rank;
  d.scope = scope;
  d.bytes = bytes;
  d.choice = choice;
  d.probe = probe;
  d.quarantined = quarantined;
  d.predicted_us = predicted_us;
  telemetry_->record_decision(d);
}

core::CompressChoice AdaptiveController::choose_codec(sim::Time now, int rank,
                                                      const char* scope,
                                                      std::uint64_t bytes) {
  Channel& ch = channel(scope, bytes);
  update_quarantine(ch, scope, bytes);
  const std::uint64_t k = ch.rounds++;
  const std::vector<Candidate> cands = evaluate(ch, scope, bytes);
  const bool any_quarantined = !ch.quarantined_until.empty();

  // Raw is never quarantined, so an allowed best always exists.
  const Candidate* best = nullptr;
  for (const auto& c : cands) {
    if (!c.quarantined) {
      best = &c;
      break;
    }
  }
  const auto find_cand = [&](int id) -> const Candidate* {
    for (const auto& c : cands) {
      if (c.id == id) return &c;
    }
    return nullptr;
  };

  const Candidate* inc = ch.incumbent >= 0 ? find_cand(ch.incumbent) : nullptr;
  if (inc == nullptr || inc->quarantined) {
    ch.incumbent = best->id;  // first decision, or the incumbent fell ill
    inc = best;
  } else if (best->id != inc->id &&
             best->predicted_us < inc->predicted_us * (1.0 - kHysteresis)) {
    ch.incumbent = best->id;  // challenger cleared the hysteresis band
    inc = best;
  }

  const Candidate* pick = inc;
  bool probe = false;
  const Candidate* runner = nullptr;
  for (const auto& c : cands) {
    if (!c.quarantined && c.id != ch.incumbent) {
      runner = &c;
      break;
    }
  }
  if (runner != nullptr) {
    // Counter-based exploration: the draw depends only on (seed, channel,
    // round), so reruns replay the identical probe schedule.
    sim::Rng rng(kProbeSeed ^ (static_cast<std::uint64_t>(scope_id(scope)) << 48) ^
                 (static_cast<std::uint64_t>(size_bucket(bytes)) << 40) ^ k);
    if (rng.next_below(kProbePeriod) == 0) {
      pick = runner;
      probe = true;
    }
  }

  record(now, rank, scope, bytes, candidate_name(pick->id), probe, any_quarantined,
         pick->predicted_us);
  core::CompressChoice choice;
  choice.use_compression = pick->algorithm != core::Algorithm::None;
  choice.algorithm = pick->algorithm;
  choice.zfp_rate = pick->zfp_rate;
  return choice;
}

core::CollectiveAlgorithm AdaptiveController::refine_collective(
    core::CollectiveOp op, core::CollectiveAlgorithm prior_choice, std::uint64_t bytes) const {
  // The prior stays in charge until ITS schedule has been measured; from
  // then on, a measured alternative displaces it only past the hysteresis
  // band (same anti-oscillation rule as the codec loop).
  const core::CollectiveRow& row = core::collective_row(op);
  const CollectiveStats& inc = history_.collective(row.name, prior_choice, bytes);
  if (inc.samples < kMinSamples) return prior_choice;
  core::CollectiveAlgorithm best = prior_choice;
  double best_us = inc.span_us;
  for (core::CollectiveAlgorithm a : row.candidates) {
    if (a == prior_choice) continue;
    const CollectiveStats& m = history_.collective(row.name, a, bytes);
    if (m.samples >= kMinSamples && m.span_us < best_us * (1.0 - kHysteresis)) {
      best = a;
      best_us = m.span_us;
    }
  }
  return best;
}

core::CollectiveAlgorithm AdaptiveController::choose_collective(core::CollectiveOp op,
                                                                sim::Time now, int rank,
                                                                std::uint64_t bytes, int ranks,
                                                                int nodes, int gpus_per_node) {
  CollectiveSequence& s = sequences_[static_cast<std::size_t>(op)];
  const std::size_t k = s.cursor[rank]++;
  if (k < s.seq.size()) return s.seq[k];  // replay round k
  const double cr = history_.global_mpc_ratio(kPriorMpcRatio);
  const core::CollectiveAlgorithm alg = refine_collective(
      op, prior_.choose_collective(op, bytes, ranks, nodes, gpus_per_node, cr), bytes);
  s.seq.push_back(alg);
  const char* name = core::collective_row(op).name;
  record(now, rank, name, bytes, core::collective_algorithm_name(alg), false, false,
         history_.collective(name, alg, bytes).span_us);
  return alg;
}

core::CollectiveAlgorithm AdaptiveController::choose_allreduce(sim::Time now, int rank,
                                                               std::uint64_t bytes, int ranks,
                                                               int nodes, int gpus_per_node) {
  return choose_collective(core::CollectiveOp::Allreduce, now, rank, bytes, ranks, nodes,
                           gpus_per_node);
}

core::CollectiveAlgorithm AdaptiveController::choose_alltoall(sim::Time now, int rank,
                                                              std::uint64_t block_bytes,
                                                              int ranks) {
  // The alltoall price does not depend on the topology.
  return choose_collective(core::CollectiveOp::Alltoall, now, rank, block_bytes, ranks, 1, 1);
}

core::CollectiveAlgorithm AdaptiveController::choose_bcast(sim::Time now, int rank,
                                                           std::uint64_t bytes, int ranks,
                                                           int nodes, int gpus_per_node) {
  return choose_collective(core::CollectiveOp::Bcast, now, rank, bytes, ranks, nodes,
                           gpus_per_node);
}

core::CollectiveAlgorithm AdaptiveController::choose_allgather(sim::Time now, int rank,
                                                               std::uint64_t block_bytes,
                                                               int ranks, int nodes,
                                                               int gpus_per_node) {
  return choose_collective(core::CollectiveOp::Allgather, now, rank, block_bytes, ranks,
                           nodes, gpus_per_node);
}

core::CollectiveAlgorithm AdaptiveController::choose_gather(sim::Time now, int rank,
                                                            std::uint64_t block_bytes,
                                                            int ranks, int nodes,
                                                            int gpus_per_node) {
  return choose_collective(core::CollectiveOp::Gather, now, rank, block_bytes, ranks, nodes,
                           gpus_per_node);
}

core::CollectiveAlgorithm AdaptiveController::choose_scatter(sim::Time now, int rank,
                                                             std::uint64_t block_bytes,
                                                             int ranks, int nodes,
                                                             int gpus_per_node) {
  return choose_collective(core::CollectiveOp::Scatter, now, rank, block_bytes, ranks, nodes,
                           gpus_per_node);
}

}  // namespace gcmpi::adapt
