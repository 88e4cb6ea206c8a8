// Per-channel EWMA statistics for the adaptive compression control plane.
//
// A "channel" is (scope, size-bucket): the serial p2p path, a batched
// alltoall launch, a pipeline chunk, or a collective engine, crossed with
// the power-of-two bucket of the message size. History folds the three
// telemetry streams (TelemetryEvent / PipelineRecord / CollectiveRecord)
// into per-(channel, codec) exponentially weighted moving averages of the
// achieved compression ratio and the compress/decompress throughput, plus
// fallback / codec-fault counters — the measured terms the controller
// substitutes into DynamicSelector's a-priori cost model.
//
// Decompression events land on the receiver under their own scope (a
// batch-compressed slice decodes as a p2p message), so every lookup can
// also fall back to the scope-agnostic aggregate of the same bucket.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "core/collective.hpp"
#include "core/telemetry.hpp"

namespace gcmpi::adapt {

/// Codec candidate ids: raw = 0, MPC = 1, ZFP at rate r = 100 + r.
[[nodiscard]] int candidate_id(core::Algorithm algorithm, int zfp_rate);
/// Static display name: "raw", "mpc", "zfp8", "zfp16", ...
[[nodiscard]] const char* candidate_name(int candidate);
/// Power-of-two size bucket (floor(log2(bytes)), clamped to [0, 40]).
[[nodiscard]] int size_bucket(std::uint64_t bytes);
/// Interned scope index for the core/adapt.hpp scope names.
[[nodiscard]] int scope_id(const char* scope);

/// Measured behaviour of one codec on one channel.
struct CodecStats {
  double ratio = 1.0;  // achieved original/wire (EWMA)
  std::uint64_t ratio_samples = 0;
  double compress_us_per_mb = 0.0;  // kernel time per MiB of input (EWMA)
  std::uint64_t compress_samples = 0;
  double decompress_us_per_mb = 0.0;
  std::uint64_t decompress_samples = 0;
  std::uint64_t fallbacks = 0;  // compression ran but did not pay off
  std::uint64_t faults = 0;     // injected kernel faults
};

/// Measured span of one collective algorithm at one size bucket.
struct CollectiveStats {
  double span_us = 0.0;  // per-rank entry-to-result span (EWMA)
  std::uint64_t samples = 0;
};

class History {
 public:
  explicit History(double alpha = 0.3) : alpha_(alpha) {}

  void observe(const core::TelemetryEvent& ev);
  void observe(const core::PipelineRecord& rec);
  void observe(const core::CollectiveRecord& rec);

  /// Stats for (scope, bucket-of-bytes, candidate); a zero-sample default
  /// when the combination was never seen.
  [[nodiscard]] const CodecStats& codec(const char* scope, std::uint64_t bytes,
                                        int candidate) const;
  /// Scope-agnostic aggregate of the same bucket.
  [[nodiscard]] const CodecStats& codec_any_scope(std::uint64_t bytes, int candidate) const;

  /// Consecutive fallback/fault streak of a codec family on a channel
  /// (rate-agnostic for ZFP: an injected kernel fault does not tell us the
  /// rate, and it would fault at any). Reset by a successful compression
  /// of the same family, or explicitly when a quarantine is entered.
  [[nodiscard]] std::uint64_t bad_streak(const char* scope, std::uint64_t bytes,
                                         core::Algorithm family) const;
  void reset_streak(const char* scope, std::uint64_t bytes, core::Algorithm family);

  /// Measured per-rank span of `algorithm` for op ("allreduce"/"alltoall")
  /// at the bucket of `bytes`.
  [[nodiscard]] const CollectiveStats& collective(const char* op,
                                                 core::CollectiveAlgorithm algorithm,
                                                 std::uint64_t bytes) const;

  /// Job-wide measured MPC ratio (all scopes and sizes); `fallback` until
  /// the first compression lands.
  [[nodiscard]] double global_mpc_ratio(double fallback) const;

 private:
  using CodecKey = std::tuple<int, int, int>;        // scope, bucket, candidate
  using StreakKey = std::tuple<int, int, int>;       // scope, bucket, family
  using CollKey = std::tuple<int, int, int>;         // op, algorithm, bucket

  void fold_compression(int scope, const core::TelemetryEvent& ev, int candidate);
  CodecStats& cell(int scope, int bucket, int candidate);
  void ewma(double& value, std::uint64_t& samples, double sample);

  double alpha_;
  std::map<CodecKey, CodecStats> codec_;      // scope >= 0 exact, -1 any-scope
  std::map<StreakKey, std::uint64_t> streak_;
  std::map<CollKey, CollectiveStats> coll_;
  double global_mpc_ratio_ = 0.0;
  std::uint64_t global_mpc_samples_ = 0;
};

}  // namespace gcmpi::adapt
