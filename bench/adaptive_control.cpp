// adaptive_control — closed-loop codec selection vs every fixed codec on a
// drifting-compressibility workload.
//
// Rank 0 streams 4 MiB messages to rank 1 over Longhorn (IB-EDR
// inter-node) through three phases: highly compressible (msg_sppm-like),
// incompressible (quantized noise), then compressible again. A fixed codec
// is right for at most one regime; the AdaptiveController re-decides per
// message from live telemetry. The simulation is deterministic, so the
// JSON this writes (BENCH_adaptive.json) is an exact, reproducible
// artifact: CI re-runs the sweep and compares against the committed file
// with a tight threshold.
//
// Usage:
//   adaptive_control [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// Exit status is nonzero if (a) a row is missing from the baseline or
// regressed beyond the threshold, or (b) the acceptance bar fails: adaptive
// must beat the worst fixed codec by >= 10% and stay within 5% of the best.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "harness.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace {

using namespace gcmpi;

const bench::Schema kSchema{"gcmpi-bench-adaptive-v1",
                            {{"mbps", "original MB per simulated second, drifting 3-phase "
                                      "stream, Longhorn inter-node"}}};

constexpr std::size_t kMsgBytes = 4u << 20;
constexpr double kNetworkGbs = 12.5;  // matches the static selector's prior

/// Per-phase payloads: compressible, incompressible, compressible again.
std::vector<std::vector<float>> make_phases() {
  const std::size_t n = kMsgBytes / 4;
  return {data::generate("msg_sppm", n, 42),
          data::quantized_noise(n, 4096, 7),
          data::generate("msg_sppm", n, 43)};
}

/// Stream `iters_per_phase` messages of each phase through the fabric and
/// return the total simulated time.
sim::Time run_stream(const core::CompressionConfig& cfg,
                     adapt::AdaptiveController* controller, core::Telemetry* telemetry,
                     int iters_per_phase) {
  sim::Engine engine;
  mpi::WorldOptions opts;
  opts.telemetry = telemetry;
  opts.adaptive = controller;
  if (controller != nullptr && telemetry != nullptr) controller->bind(*telemetry);
  mpi::World world(engine, net::longhorn(2, 1), cfg, opts);

  const auto phases = make_phases();
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(kMsgBytes));
    int tag = 0;
    for (const auto& phase : phases) {
      if (R.rank() == 0) std::memcpy(dev, phase.data(), kMsgBytes);
      for (int i = 0; i < iters_per_phase; ++i, ++tag) {
        if (R.rank() == 0) {
          R.send(dev, kMsgBytes, 1, tag);
        } else {
          R.recv(dev, kMsgBytes, 0, tag);
        }
      }
    }
    R.gpu_free(dev);
  });
  return engine.now();
}

/// Runs one mode (fixed_raw | fixed_mpc | fixed_zfp16 | adaptive), prints
/// it and returns it as the row adaptive/<mode>.
bench::Row run_mode(const std::string& mode, const core::CompressionConfig& cfg,
                    bool adaptive, int iters_per_phase) {
  core::Telemetry telemetry;
  adapt::AdaptiveController controller(gpu::v100_spec(), kNetworkGbs);
  const sim::Time elapsed = run_stream(cfg, adaptive ? &controller : nullptr,
                                       &telemetry, iters_per_phase);
  const double total_bytes = 3.0 * iters_per_phase * static_cast<double>(kMsgBytes);
  const double elapsed_us = elapsed.to_seconds() * 1e6;
  const double mbps = total_bytes / elapsed.to_seconds() / 1e6;
  std::uint64_t decisions = 0, probes = 0;
  for (const auto& d : telemetry.decisions()) {
    ++decisions;
    if (d.probe) ++probes;
  }
  bench::Row row{"adaptive/" + mode};
  row.text("mode", mode)
      .fixed("elapsed_us", elapsed_us, 3)
      .fixed("mbps", mbps, 1)
      .count("decisions", decisions)
      .count("probes", probes);
  std::printf("%-28s %12.1f us %9.1f MB/s  decisions=%llu probes=%llu\n", row.name.c_str(),
              elapsed_us, mbps, static_cast<unsigned long long>(decisions),
              static_cast<unsigned long long>(probes));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      bench::parse_options(argc, argv, "adaptive_control", "BENCH_adaptive.json", 0.02);
  if (!opt) return 2;

  // The sweep is only 4 rows and runs in seconds, so --quick does not
  // shrink it: quick rows stay numerically identical to the committed
  // baseline (the CI gate compares them exactly, modulo --threshold).
  const int iters_per_phase = 24;
  std::printf("adaptive_control: drifting 3-phase stream, %d x 4 MiB per phase, "
              "Longhorn inter-node (IB-EDR)\n",
              iters_per_phase);

  std::vector<bench::Row> rows;
  rows.push_back(run_mode("fixed_raw", core::CompressionConfig::off(), false,
                          iters_per_phase));
  rows.push_back(run_mode("fixed_mpc", core::CompressionConfig::mpc_opt(), false,
                          iters_per_phase));
  rows.push_back(run_mode("fixed_zfp16", core::CompressionConfig::zfp_opt(16), false,
                          iters_per_phase));
  rows.push_back(run_mode("adaptive", core::CompressionConfig::mpc_opt(), true,
                          iters_per_phase));

  // The PR's acceptance bar on the drifting workload.
  double worst = rows[0].number("mbps"), best = worst;
  for (std::size_t i = 0; i < 3; ++i) {
    worst = std::min(worst, rows[i].number("mbps"));
    best = std::max(best, rows[i].number("mbps"));
  }
  const double adaptive_mbps = rows[3].number("mbps");
  int gate_failures =
      bench::gate(adaptive_mbps >= worst * 1.10,
                  "adaptive %.1f MB/s not >= 10%% over worst fixed %.1f MB/s", adaptive_mbps,
                  worst);
  gate_failures += bench::gate(adaptive_mbps >= best * 0.95,
                               "adaptive %.1f MB/s not within 5%% of best fixed %.1f MB/s",
                               adaptive_mbps, best);
  if (gate_failures == 0) {
    std::printf("gates OK: adaptive %.1f MB/s vs fixed [%.1f, %.1f] MB/s\n",
                adaptive_mbps, worst, best);
  }

  return bench::finish(*opt, kSchema, rows, gate_failures);
}
