// Measurement probes owned by the benchmark: wall clock, getrusage deltas,
// an in-memory span recorder written out as Chrome-trace JSON, and a
// forwarding wrapper that times the adaptive controller from outside.
//
// Spans are recorded only around calls into the library (World
// construction, World::run, Rank calls, the adaptive policy and observer,
// the codec and solver replays); nothing inside the library is touched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "core/adapt.hpp"
#include "core/telemetry.hpp"

namespace perfbench {

/// Seconds on the monotonic wall clock.
[[nodiscard]] double wall_s();

/// Process-wide resource usage (all threads), as getrusage(RUSAGE_SELF).
struct Usage {
  std::int64_t nvcsw = 0;   // voluntary context switches
  std::int64_t nivcsw = 0;  // involuntary context switches (preemptions)
  std::int64_t minflt = 0;  // minor page faults
  double sys_s = 0.0;       // kernel CPU time

  [[nodiscard]] static Usage now();
  [[nodiscard]] Usage operator-(const Usage& before) const;
  Usage& operator+=(const Usage& delta);
};

/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// One recorded interval. Wall times are microseconds since the tracer's
/// epoch; virtual times are the simulator's clock (negative when the span
/// has no virtual extent, e.g. World construction).
struct Span {
  std::string name;
  const char* category = "bench";
  int tid = 0;  // rank, or -1 for the main thread
  double wall_start_us = 0.0;
  double wall_end_us = 0.0;
  double virt_start_us = -1.0;
  double virt_end_us = -1.0;
  std::int64_t op_id = -1;  // shared by every rank's span of one operation
};

/// In-memory span sink. Disabled tracers record nothing, so untraced runs
/// pay only the branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_s_(wall_s()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] double now_us() const { return (wall_s() - epoch_s_) * 1e6; }
  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  /// Drop recorded spans (the trace keeps only the last traced repetition).
  void clear() { spans_.clear(); }

  /// Write every span as a Chrome "Trace Event Format" complete event.
  /// Returns false if the file cannot be written.
  bool write_chrome_trace(const std::string& path, const std::string& process) const;

 private:
  bool enabled_;
  double epoch_s_;
  std::vector<Span> spans_;
};

/// Forwarding AdaptivePolicy + TelemetryObserver around the real
/// controller. It changes no decision; with tracing on it times every
/// choose_* call and every observed telemetry record.
class TimedAdaptive final : public gcmpi::core::AdaptivePolicy,
                            public gcmpi::core::TelemetryObserver {
 public:
  TimedAdaptive(gcmpi::adapt::AdaptiveController& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  /// Bind the controller to `telemetry`, then interpose this wrapper as the
  /// telemetry observer so feedback reaches the controller through it.
  void bind(gcmpi::core::Telemetry& telemetry);

  gcmpi::core::CompressChoice choose_codec(gcmpi::sim::Time now, int rank, const char* scope,
                                           std::uint64_t bytes) override;
  gcmpi::core::CollectiveAlgorithm choose_allreduce(gcmpi::sim::Time now, int rank,
                                                    std::uint64_t bytes, int ranks, int nodes,
                                                    int gpus_per_node) override;
  gcmpi::core::CollectiveAlgorithm choose_alltoall(gcmpi::sim::Time now, int rank,
                                                   std::uint64_t block_bytes,
                                                   int ranks) override;
  gcmpi::core::CollectiveAlgorithm choose_bcast(gcmpi::sim::Time now, int rank,
                                                std::uint64_t bytes, int ranks, int nodes,
                                                int gpus_per_node) override;
  gcmpi::core::CollectiveAlgorithm choose_allgather(gcmpi::sim::Time now, int rank,
                                                    std::uint64_t block_bytes, int ranks,
                                                    int nodes, int gpus_per_node) override;
  gcmpi::core::CollectiveAlgorithm choose_gather(gcmpi::sim::Time now, int rank,
                                                 std::uint64_t block_bytes, int ranks,
                                                 int nodes, int gpus_per_node) override;
  gcmpi::core::CollectiveAlgorithm choose_scatter(gcmpi::sim::Time now, int rank,
                                                  std::uint64_t block_bytes, int ranks,
                                                  int nodes, int gpus_per_node) override;

  void on_event(const gcmpi::core::TelemetryEvent& ev) override;
  void on_pipeline(const gcmpi::core::PipelineRecord& rec) override;
  void on_collective(const gcmpi::core::CollectiveRecord& rec) override;

  [[nodiscard]] double choose_ms() const { return choose_s_ * 1e3; }
  [[nodiscard]] double observe_ms() const { return observe_s_ * 1e3; }

 private:
  /// Run `f`, adding its wall time to `total_s` and a span when tracing.
  template <typename F>
  auto timed(const char* name, double& total_s, F&& f);

  gcmpi::adapt::AdaptiveController& inner_;
  Tracer& tracer_;
  double choose_s_ = 0.0;
  double observe_s_ = 0.0;
};

}  // namespace perfbench
