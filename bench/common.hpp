// Shared harness utilities for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the simulated cluster(s), prints the same rows/series the paper reports,
// and (where the paper gives numbers) prints the paper's value next to the
// measured one. Simulations are deterministic, so a single measured
// iteration equals the paper's 1000-iteration average; ITERS exists only to
// exercise warm-cache effects (e.g. the ZFP attribute cache).
//
// The OMB-style measurement loops each have one home here: `ping_pong`
// (osu_latency), `osu_bw_gbs` (osu_bw) and `time_op` (the barrier-timed
// collective runner). They build simulated Worlds, so they stay out of
// harness.hpp, which tools/bench_runner includes without the MPI library.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/manager.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "harness.hpp"
#include "mpi/world.hpp"

namespace gcmpi::bench {

using core::CompressionConfig;
using sim::Time;

/// OMB-style message sizes 256KB..32MB (the paper's large-message range).
inline std::vector<std::size_t> omb_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t s = 256 << 10; s <= (32u << 20); s <<= 1) sizes.push_back(s);
  return sizes;
}

inline const char* size_label(std::size_t bytes) {
  static char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%zuM", bytes >> 20);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuK", bytes >> 10);
  }
  return buf;
}

struct PingPongResult {
  Time one_way = Time::zero();
  sim::Breakdown sender;    // rank-0 compression-side costs
  sim::Breakdown receiver;  // rank-1 decompression-side costs
  double ratio = 1.0;
};

/// osu_latency: one-way D-D latency of `payload` (device-resident) from
/// rank 0 to rank 1 of `cluster`. The simulation has one global clock and
/// is deterministic, so a single one-way send measures exactly what the
/// paper's 1000-iteration ping-pong average reports. A tiny warmup send
/// warms the ZFP attribute cache like OMB's warmup iterations do.
inline PingPongResult ping_pong(const net::ClusterSpec& cluster, CompressionConfig cfg,
                                std::span<const float> payload, bool warmup = true,
                                const mpi::WorldOptions& opts = {}) {
  const std::size_t bytes = payload.size() * 4;
  sim::Engine engine;
  mpi::World world(engine, cluster, cfg, opts);
  PingPongResult result;
  Time send_start = Time::zero();
  world.run([&](mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(bytes));
    std::memcpy(dev, payload.data(), bytes);
    if (warmup && R.rank() <= 1) {
      // Warm the attribute cache / pools with a minimal qualifying message.
      const std::uint64_t warm_bytes = std::min<std::uint64_t>(bytes, cfg.threshold_bytes);
      if (R.rank() == 0) {
        R.send(dev, warm_bytes, 1, 3);
      } else {
        R.recv(dev, warm_bytes, 0, 3);
      }
      R.compression().reset_stats();
    }
    R.barrier();
    if (R.rank() == 0) {
      send_start = R.now();
      R.send(dev, bytes, 1, 1);
      result.sender = R.compression().sender_breakdown();
      result.ratio = R.compression().stats().achieved_ratio();
    } else if (R.rank() == 1) {
      R.recv(dev, bytes, 0, 1);
      result.one_way = R.now() - send_start;
      result.receiver = R.compression().receiver_breakdown();
    }
    R.gpu_free(dev);
  });
  return result;
}

/// osu_bw: rank 0 posts `window` non-blocking sends of `payload` to rank 1
/// and waits for its one-byte ack. Rank 1 posts its `window` receives into
/// one device buffer, allocated before the barrier, as osu_bw reuses one
/// receive buffer. Returns window x payload bytes per virtual second of
/// rank 0, in GB/s.
inline double osu_bw_gbs(const net::ClusterSpec& cluster, CompressionConfig cfg,
                         std::span<const float> payload, int window) {
  const std::size_t bytes = payload.size() * 4;
  cfg.pool_buffer_bytes = bytes + (1u << 20);
  cfg.pool_buffers = static_cast<std::size_t>(window) + 2;
  sim::Engine engine;
  mpi::World world(engine, cluster, cfg);
  double gbs = 0.0;
  world.run([&](mpi::Rank& R) {
    void* dev = R.gpu_malloc(bytes);
    std::memcpy(dev, payload.data(), bytes);
    R.barrier();
    std::vector<mpi::Request> reqs;
    char ack = 0;
    if (R.rank() == 0) {
      const Time t0 = R.now();
      for (int i = 0; i < window; ++i) reqs.push_back(R.isend(dev, bytes, 1, i));
      R.waitall(reqs);
      R.recv(&ack, 1, 1, 999);
      gbs = static_cast<double>(bytes) * window / (R.now() - t0).to_seconds() / 1e9;
    } else {
      for (int i = 0; i < window; ++i) reqs.push_back(R.irecv(dev, bytes, 0, i));
      R.waitall(reqs);
      R.send(&ack, 1, 0, 999);
    }
  });
  return gbs;
}

/// The OSU collective runner: builds the World, lets `prepare(R)` allocate
/// and fill the rank's buffers and return the operation, then runs that
/// operation between two barriers. Returns rank 0's virtual time between
/// the barriers. The buffers are freed with the World.
template <class Prepare>
Time time_op(const net::ClusterSpec& cluster, const CompressionConfig& cfg,
             const mpi::WorldOptions& opts, Prepare prepare) {
  sim::Engine engine;
  mpi::World world(engine, cluster, cfg, opts);
  Time t = Time::zero();
  world.run([&](mpi::Rank& R) {
    auto op = prepare(R);
    R.barrier();
    const Time t0 = R.now();
    op();
    R.barrier();
    if (R.rank() == 0) t = R.now() - t0;
  });
  return t;
}

/// The leading fields of a collective sweep's row: the name
/// `op/algo/codec/size@NxG`, then bytes, latency_us and mbps, where mbps
/// counts `moved` bytes per simulated second.
inline Row collective_row(const char* op, const char* algo, const char* codec,
                          std::size_t bytes, int nodes, int gpn, Time latency, double moved) {
  Row r{std::string(op) + "/" + algo + "/" + codec + "/" + size_label(bytes) + "@" +
        std::to_string(nodes) + "x" + std::to_string(gpn)};
  r.count("bytes", bytes)
      .fixed("latency_us", latency.to_seconds() * 1e6, 3)
      .fixed("mbps", moved / 1e6 / latency.to_seconds(), 1);
  return r;
}

/// The share of a pipelined transfer's summed stage busy time (compress +
/// wire + decompress) that the chunk overlap hid, in percent.
inline double overlap_pct(const core::PipelineRecord& p) {
  const double busy = (p.compress_busy + p.transfer_busy + p.decompress_busy).to_seconds();
  return busy > 0.0 ? (1.0 - p.span.to_seconds() / busy) * 100.0 : 0.0;
}

/// OMB dummy buffer: the constant-ish fill osu_latency transmits, on which
/// MPC reaches the high compression ratios the paper notes (Fig. 10a).
inline std::vector<float> omb_dummy(std::size_t bytes) {
  return data::plateau_field(bytes / 4, 200, 256, 1234);
}

inline double pct_improvement(Time baseline, Time value) {
  return (1.0 - value.to_seconds() / baseline.to_seconds()) * 100.0;
}

inline void print_header(const std::string& title) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("=====================================================================\n");
}

}  // namespace gcmpi::bench
