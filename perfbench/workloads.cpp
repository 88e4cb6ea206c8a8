#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "adapt/controller.hpp"
#include "apps/awp/distributed.hpp"
#include "apps/awp/solver.hpp"
#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "core/collective.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace gcmpi;
using core::CollectiveAlgorithm;

constexpr int kRanks = 4;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kIbEdrGbs = 12.5;  // the adaptive controller's network model
/// Codec replays stop after this many bytes of payload.
constexpr std::size_t kReplayBytes = 64u << 20;

/// SplitMix64: the benchmark's own input stream, independent of the
/// library's generators so a library change cannot change the inputs.
class Seq {
 public:
  explicit Seq(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

// --- per-layer counters ------------------------------------------------------

/// Model counters every workload reports, zero where a layer is idle. Names
/// starting with '_' feed derived metrics and the fingerprint only.
const std::vector<const char*>& count_names() {
  static const std::vector<const char*> names = {
      "gpu.staging_acquisitions", "gpu.virt_alloc_us", "gpu.virt_copy_us",
      "compress.calls", "compress.decompress_calls", "compress.in_mib",
      "compress.wire_ratio", "compress.fallbacks", "compress.virt_kernel_us",
      "core.raw_bypasses", "core.plan_hits", "core.plan_misses",
      "net.bytes_moved_mib", "net.control_packets", "net.virt_comm_us",
      "mpi.coll.hops", "mpi.coll.reduces", "mpi.coll.compress_busy_us",
      "mpi.coll.transfer_busy_us", "mpi.coll.reduce_busy_us", "mpi.pipe.chunks",
      "mpi.warm.sends", "mpi.warm.credit_stalls", "mpi.retransmits", "mpi.raw_degrades",
      "mpi.delivery_ratio", "fault.data_packets", "fault.drops", "fault.corruptions",
      "fault.codec_faults", "adapt.decisions", "adapt.probes", "adapt.quarantined",
      "apps.awp.virt_compute_ms", "apps.awp.virt_comm_ms",
      "_compress_original_bytes", "_compress_wire_bytes", "_mpc_compress_bytes",
      "_mpc_decompress_bytes", "_zfp_compress_bytes", "_zfp_decompress_bytes"};
  return names;
}

void init_counts(std::map<std::string, double>& c) {
  for (const char* name : count_names()) c[name] = 0.0;
}

/// Add one finished World's counters (telemetry, managers, fabric, faults).
void harvest(mpi::World& world, const core::Telemetry& tel, const fault::FaultInjector* inj,
             std::map<std::string, double>& c) {
  const core::Telemetry::Summary s = tel.summarize();
  c["compress.calls"] += static_cast<double>(s.compressions);
  c["compress.decompress_calls"] += static_cast<double>(s.decompressions);
  c["compress.fallbacks"] += static_cast<double>(s.fallbacks);
  c["_compress_original_bytes"] += static_cast<double>(s.original_bytes);
  c["_compress_wire_bytes"] += static_cast<double>(s.wire_bytes);
  c["core.raw_bypasses"] += static_cast<double>(s.raw_bypasses);
  c["mpi.coll.hops"] += static_cast<double>(s.collective_hops);
  c["mpi.coll.reduces"] += static_cast<double>(s.collective_reduces);
  c["mpi.coll.compress_busy_us"] += s.collective_compress_busy.to_us();
  c["mpi.coll.transfer_busy_us"] += s.collective_transfer_busy.to_us();
  c["mpi.coll.reduce_busy_us"] += s.collective_reduce_busy.to_us();
  c["mpi.pipe.chunks"] += static_cast<double>(s.pipeline_chunks);
  c["mpi.warm.sends"] += static_cast<double>(s.channel_warm_sends);
  c["mpi.warm.credit_stalls"] += static_cast<double>(s.channel_credit_stalls);
  c["mpi.raw_degrades"] += static_cast<double>(s.channel_raw_degrades);
  c["mpi.retransmits"] += static_cast<double>(s.retransmits);
  // Wire-stage busy time as the records report it; serial transfers
  // record no wire span, so this covers the engines and the pipeline.
  c["net.virt_comm_us"] += (s.collective_transfer_busy + s.pipeline_transfer_busy).to_us();
  c["adapt.decisions"] += static_cast<double>(s.decisions);
  c["adapt.probes"] += static_cast<double>(s.probes);
  for (const auto& d : tel.decisions()) c["adapt.quarantined"] += d.quarantined ? 1.0 : 0.0;
  for (const auto& ev : tel.events()) {
    const bool zfp = ev.algorithm == core::Algorithm::ZFP;
    const auto bytes = static_cast<double>(ev.original_bytes);
    if (ev.kind == core::EventKind::Compress) {
      c[zfp ? "_zfp_compress_bytes" : "_mpc_compress_bytes"] += bytes;
    } else if (ev.kind == core::EventKind::Decompress) {
      c[zfp ? "_zfp_decompress_bytes" : "_mpc_decompress_bytes"] += bytes;
    }
  }
  for (int r = 0; r < world.size(); ++r) {
    core::CompressionManager& mgr = world.compression_of(r);
    sim::Breakdown bd = mgr.sender_breakdown();
    bd += mgr.receiver_breakdown();
    c["gpu.virt_alloc_us"] += bd.get(sim::Phase::MemoryAllocation).to_us();
    c["gpu.virt_copy_us"] += bd.get(sim::Phase::DataCopies).to_us();
    c["compress.virt_kernel_us"] += (bd.get(sim::Phase::CompressionKernel) +
                                     bd.get(sim::Phase::DecompressionKernel))
                                        .to_us();
    c["gpu.staging_acquisitions"] += static_cast<double>(mgr.staging_acquisitions());
    c["core.plan_hits"] += static_cast<double>(mgr.plan_stats().hits);
    c["core.plan_misses"] += static_cast<double>(mgr.plan_stats().misses);
  }
  c["net.bytes_moved_mib"] += static_cast<double>(world.fabric().bytes_moved()) / kMiB;
  c["net.control_packets"] += static_cast<double>(world.fabric().control_packets());
  if (inj != nullptr) {
    const fault::FaultStats& st = inj->stats();
    c["fault.data_packets"] += static_cast<double>(st.data_packets);
    c["fault.drops"] += static_cast<double>(st.drops);
    c["fault.corruptions"] += static_cast<double>(st.corruptions);
    c["fault.codec_faults"] += static_cast<double>(st.compress_faults + st.decompress_faults);
  }
}

/// Derived counters, once every World of the repetition was harvested.
void finish_counts(std::map<std::string, double>& c) {
  c["compress.in_mib"] = c["_compress_original_bytes"] / kMiB;
  c["compress.wire_ratio"] = c["_compress_wire_bytes"] > 0.0
                                 ? c["_compress_original_bytes"] / c["_compress_wire_bytes"]
                                 : 1.0;
  const double pushed = c["fault.data_packets"];
  c["mpi.delivery_ratio"] =
      pushed > 0.0 ? (pushed - c["fault.drops"] - c["fault.corruptions"]) / pushed : 1.0;
}

// --- spans and clocks around the library calls -------------------------------

/// Records every Rank call a rank body makes: its virtual [start, end]
/// always, its wall span only when tracing.
class Recorder {
 public:
  Recorder(Tracer& tracer, Repetition& rep) : tracer_(tracer), rep_(rep) {}

  /// Run one Rank call on `R`; returns its virtual interval in us.
  template <typename F>
  std::pair<double, double> call(mpi::Rank& R, const char* name, std::int64_t op_id, F&& f) {
    const bool traced = tracer_.enabled();
    const double v0 = R.now().to_us();
    const double w0 = traced ? tracer_.now_us() : 0.0;
    f();
    const double v1 = R.now().to_us();
    rep_.virt.call_us[name].push_back(v1 - v0);
    if (traced) {
      const double w1 = tracer_.now_us();
      tracer_.add({name, "mpi", R.rank(), w0, w1, v0, v1, op_id});
      if (R.rank() == 0) rep_.wall.call_wall_ms[name] += (w1 - w0) * 1e-3;
    }
    return {v0, v1};
  }

  /// Benchmark-side work inside World::run (staging inputs, checking
  /// outputs). Only one rank runs at a time, so its wall time is excluded
  /// from run_s exactly.
  template <typename F>
  void harness(F&& f) {
    const double t0 = wall_s();
    f();
    harness_s_ += wall_s() - t0;
  }

  /// Build one World (the set-up phase).
  template <typename Build>
  std::unique_ptr<mpi::World> setup(const char* name, Build&& build) {
    const Usage u0 = Usage::now();
    const double w0 = tracer_.now_us();
    const double t0 = wall_s();
    std::unique_ptr<mpi::World> world = build();
    rep_.wall.setup_s += wall_s() - t0;
    rep_.wall.setup_usage += Usage::now() - u0;
    tracer_.add({name, "setup", -1, w0, tracer_.now_us(), -1.0, -1.0, -1});
    return world;
  }

  /// World::run of `body` (the measured phase).
  void run(mpi::World& world, sim::Engine& engine, const char* name,
           std::function<void(mpi::Rank&)> body) {
    const double harness0 = harness_s_;
    const Usage u0 = Usage::now();
    const double w0 = tracer_.now_us();
    const double t0 = wall_s();
    world.run(std::move(body));
    rep_.wall.run_s += wall_s() - t0 - (harness_s_ - harness0);
    rep_.wall.run_usage += Usage::now() - u0;
    tracer_.add({name, "run", -1, w0, tracer_.now_us(), 0.0, engine.now().to_us(), -1});
  }

 private:
  Tracer& tracer_;
  Repetition& rep_;
  double harness_s_ = 0.0;
};

/// Time the public codecs on `payloads`: MPC as configured by mpc_opt()
/// and fixed-rate ZFP at rate 8.
Replay replay_codecs(const std::vector<std::span<const float>>& payloads, Tracer& tracer) {
  const core::CompressionConfig cfg = core::CompressionConfig::mpc_opt();
  const comp::MpcCodec mpc(cfg.mpc_dimensionality, cfg.mpc_chunk_values);
  const comp::ZfpCodec zfp(8);
  Replay out;
  double bytes = 0.0;
  double mpc_c = 0.0, mpc_d = 0.0, zfp_c = 0.0, zfp_d = 0.0;
  std::vector<std::uint8_t> buf;
  std::vector<float> back;
  const auto timed = [&tracer](const char* name, double& total, auto&& f) {
    const double w0 = tracer.now_us();
    const auto t0 = wall_s();
    f();
    total += wall_s() - t0;
    tracer.add({name, "replay", -1, w0, tracer.now_us(), -1.0, -1.0, -1});
  };
  for (std::span<const float> p : payloads) {
    back.resize(p.size());
    buf.resize(mpc.max_compressed_bytes(p.size()));
    std::size_t len = 0;
    timed("replay.mpc.compress", mpc_c, [&] { len = mpc.compress(p, buf); });
    timed("replay.mpc.decompress", mpc_d,
          [&] { (void)mpc.decompress({buf.data(), len}, back); });
    if (std::memcmp(back.data(), p.data(), p.size_bytes()) != 0) out.ok = false;

    const comp::ZfpField field = comp::ZfpField::d1(p.size());
    buf.resize(zfp.compressed_bytes(field));
    timed("replay.zfp8.compress", zfp_c, [&] { len = zfp.compress(p, field, buf); });
    timed("replay.zfp8.decompress", zfp_d,
          [&] { zfp.decompress({buf.data(), len}, field, back); });
    bytes += static_cast<double>(p.size_bytes());
  }
  const auto mbps = [bytes](double s) { return s > 0.0 ? bytes / s / 1e6 : 0.0; };
  out.mpc_compress_mbps = mbps(mpc_c);
  out.mpc_decompress_mbps = mbps(mpc_d);
  out.zfp8_compress_mbps = mbps(zfp_c);
  out.zfp8_decompress_mbps = mbps(zfp_d);
  return out;
}

// --- coll-mix ------------------------------------------------------------------

enum class CollKind { Allreduce, ReduceScatter, Bcast, Allgather, Gather, Scatter, Alltoall };

const char* coll_name(CollKind k) {
  switch (k) {
    case CollKind::Allreduce: return "allreduce";
    case CollKind::ReduceScatter: return "reduce_scatter";
    case CollKind::Bcast: return "bcast";
    case CollKind::Allgather: return "allgather";
    case CollKind::Gather: return "gather";
    case CollKind::Scatter: return "scatter";
    case CollKind::Alltoall: return "alltoall";
  }
  return "?";
}

/// Lossy encode/decode generations a value can pass through on its way to
/// a receiver under the hierarchical/batched schedules (the conformance
/// matrix's per-generation rule).
int zfp_generations(CollKind k) {
  switch (k) {
    case CollKind::Bcast:
    case CollKind::Alltoall: return 1;
    case CollKind::Gather:
    case CollKind::Scatter: return 2;
    case CollKind::Allgather: return 3;
    default: return 0;  // reductions run lossless only
  }
}
constexpr int kZfpMaxGenerations = 3;
constexpr std::size_t kZfpBlockFloats = 4;  // one 1D ZFP block

/// coll-mix runs three Worlds in turn, one per phase.
enum class Phase { Mpc, Adaptive, Zfp };

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Mpc: return "mpc";
    case Phase::Adaptive: return "mpc+adapt";
    case Phase::Zfp: return "zfp8";
  }
  return "?";
}

bool is_reduction(CollKind k) { return k == CollKind::Allreduce || k == CollKind::ReduceScatter; }

struct CollOp {
  CollKind kind = CollKind::Allreduce;
  std::uint64_t bytes = 0;  // per-rank buffer (vector, message, or P blocks)
  int root = 0;
  std::array<std::size_t, kRanks> offset{};  // each rank's slice of the mosaic, in floats
  /// Host oracles of a reduction, by the algorithm that ran it (filled on
  /// first use: the adaptive controller picks the algorithm).
  std::map<CollectiveAlgorithm, std::vector<float>> expected;
};

/// `len` floats of a moving collective's output, at `out`, that must hold
/// the mosaic's floats at `from`.
struct Piece {
  std::size_t out = 0;
  std::size_t from = 0;
  std::size_t len = 0;
};

/// The reduction algorithm that ran rank r's call entered at virtual time
/// `from_us`, as its CollectiveRecord names it; the linear schedules leave
/// no allreduce or reduce_scatter record. Auto for a name it does not know,
/// which fails the check.
CollectiveAlgorithm ran_algorithm(const core::Telemetry& tel, int r, double from_us) {
  for (const core::CollectiveRecord& rec : tel.collectives()) {
    if (rec.rank != r || rec.at.to_us() < from_us) continue;
    if (std::strcmp(rec.op, "allreduce") != 0 && std::strcmp(rec.op, "reduce_scatter") != 0) {
      continue;
    }
    for (CollectiveAlgorithm a : {CollectiveAlgorithm::Ring, CollectiveAlgorithm::Hierarchical}) {
      if (std::strcmp(rec.algorithm, core::collective_algorithm_name(a)) == 0) return a;
    }
    return CollectiveAlgorithm::Auto;
  }
  return CollectiveAlgorithm::Linear;
}

constexpr std::uint64_t kCollGranule = 16u << 10;  // keeps blocks and shards whole
constexpr std::uint64_t kCollMaxBytes = 16u << 20;
constexpr std::size_t kCollOffsetFloats = 256u << 10;
constexpr std::size_t kCollBaseFloats = kCollMaxBytes / 4 + kCollOffsetFloats;
constexpr std::size_t kCollSegmentFloats = 32u << 10;  // 128 KiB
constexpr std::size_t kCollSourceFloats = 1u << 20;

class CollMix final : public Workload {
 public:
  /// Payloads are slices of one mosaic of the eight Table-III datasets:
  /// 128 KiB segments, each run of eight holding every dataset once in a
  /// seeded order, so every message (1 MiB and up) carries all eight in
  /// equal parts and the seed moves no message's compressibility much. The
  /// datasets themselves are fixed corpora, as in the paper; the seed picks
  /// which parts of them form the mosaic.
  explicit CollMix(std::uint64_t seed) {
    Seq rng(seed ^ 0xC011C011ULL);
    std::vector<std::vector<float>> sources;
    for (const auto& info : data::table3_datasets()) {
      sources.push_back(data::generate(info.name, kCollSourceFloats));
    }
    base_.resize(kCollBaseFloats);
    std::vector<std::size_t> order(sources.size());
    for (std::size_t seg = 0; seg * kCollSegmentFloats < base_.size(); ++seg) {
      if (seg % order.size() == 0) {
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);
      }
      const std::vector<float>& src = sources[order[seg % order.size()]];
      const std::size_t from = rng.below((src.size() - kCollSegmentFloats) / 1024) * 1024;
      const std::size_t at = seg * kCollSegmentFloats;
      const std::size_t len = std::min(kCollSegmentFloats, base_.size() - at);
      std::copy_n(src.begin() + static_cast<std::ptrdiff_t>(from), len,
                  base_.begin() + static_cast<std::ptrdiff_t>(at));
    }
    // Fixed-rate ZFP codes every 4-value block on its own, and every message
    // starts on a block boundary of the mosaic, so the mosaic after g host
    // round trips holds the g-th lossy generation of every message.
    const comp::ZfpCodec zfp(8);
    const comp::ZfpField field = comp::ZfpField::d1(base_.size());
    std::vector<std::uint8_t> wire(zfp.compressed_bytes(field));
    const std::vector<float>* prev = &base_;
    for (std::vector<float>& gen : zfp_gen_) {
      gen.resize(base_.size());
      const std::size_t len = zfp.compress(*prev, field, wire);
      zfp.decompress({wire.data(), len}, field, gen);
      prev = &gen;
    }
    const std::vector<CollKind> all = {CollKind::Allreduce, CollKind::ReduceScatter,
                                       CollKind::Bcast,     CollKind::Allgather,
                                       CollKind::Gather,    CollKind::Scatter,
                                       CollKind::Alltoall};
    const std::vector<CollKind> moving = {CollKind::Bcast, CollKind::Allgather,
                                          CollKind::Gather, CollKind::Scatter,
                                          CollKind::Alltoall};
    mpc_ops_ = make_ops(rng, all, {1, 4, 13});
    adapt_ops_ = make_ops(rng, all, {1, 4});
    zfp_ops_ = make_ops(rng, moving, {2, 8});
    self_check();
  }

  Repetition run(Tracer& tracer) override {
    Repetition rep;
    Recorder rec(tracer, rep);
    init_counts(rep.virt.counts);
    run_phase(mpc_ops_, Phase::Mpc, tracer, rec, rep);
    run_phase(adapt_ops_, Phase::Adaptive, tracer, rec, rep);
    run_phase(zfp_ops_, Phase::Zfp, tracer, rec, rep);
    finish_counts(rep.virt.counts);
    return rep;
  }

  Replay replay(Tracer& tracer) override {
    std::vector<std::span<const float>> payloads;
    std::size_t total = 0;
    for (const auto* ops : {&mpc_ops_, &adapt_ops_, &zfp_ops_}) {
      for (const CollOp& op : *ops) {
        if (total >= kReplayBytes) break;
        payloads.push_back(slice(op.offset[0], op.bytes / 4));
        total += op.bytes;
      }
    }
    return replay_codecs(payloads, tracer);
  }

 private:
  static std::vector<CollOp> make_ops(Seq& rng, const std::vector<CollKind>& kinds,
                                      const std::vector<double>& ladder_mib) {
    std::vector<CollOp> ops;
    for (CollKind kind : kinds) {
      int rung = 0;
      for (double mib : ladder_mib) {
        CollOp op;
        op.kind = kind;
        // Roots walk the ranks (leaders and members of both nodes) by rung,
        // the same for every seed: where the root sits moves the latency of
        // every rank more than any seeded input does.
        op.root = (1 + rung++) % kRanks;
        const double raw = mib * (1.0 + 0.05 * rng.uniform()) * kMiB;
        op.bytes = std::min(kCollMaxBytes,
                            static_cast<std::uint64_t>(raw) / kCollGranule * kCollGranule);
        for (auto& off : op.offset) off = rng.below(kCollOffsetFloats / 1024) * 1024;
        ops.push_back(std::move(op));
      }
    }
    rng.shuffle(ops);
    return ops;
  }

  [[nodiscard]] std::span<const float> slice(std::size_t off, std::size_t n) const {
    return std::span<const float>(base_).subspan(off, n);
  }

  /// One World running `ops`. Auto resolves by the static floors in the
  /// MPC and ZFP phases. The adaptive phase runs under the adaptive
  /// controller (lossless candidates), so there every codec and collective
  /// algorithm comes from its choose_* calls and their cost-model prior. It
  /// is kept short: the controller's choices follow the seeded data, and
  /// they would move wall time between seeds more than any other input.
  void run_phase(std::vector<CollOp>& ops, Phase phase, Tracer& tracer, Recorder& rec,
                 Repetition& rep) {
    const bool zfp = phase == Phase::Zfp;
    sim::Engine engine;
    core::Telemetry telemetry;
    adapt::AdaptiveOptions ao;  // keeps the controller's own probe seed
    ao.lossy_allowed = false;
    adapt::AdaptiveController controller(gpu::v100_spec(), kIbEdrGbs, ao);
    TimedAdaptive timed(controller, tracer);
    mpi::WorldOptions opts;
    opts.telemetry = &telemetry;
    if (phase == Phase::Adaptive) {
      timed.bind(telemetry);
      opts.adaptive = &timed;
    }
    const auto cfg =
        zfp ? core::CompressionConfig::zfp_opt(8) : core::CompressionConfig::mpc_opt();
    const std::string name = phase_name(phase);
    auto world = rec.setup(("World(" + name + ")").c_str(), [&] {
      return std::make_unique<mpi::World>(engine, net::longhorn(2, 2), cfg, opts);
    });
    std::vector<char> bad(ops.size(), 0);
    const std::int64_t id_base = 1000 * static_cast<std::int64_t>(phase);
    rec.run(*world, engine, ("World::run(" + name + ")").c_str(), [&](mpi::Rank& R) {
      const int r = R.rank();
      auto* send = static_cast<float*>(R.gpu_malloc(kCollMaxBytes));
      auto* recv = static_cast<float*>(R.gpu_malloc(kCollMaxBytes));
      for (std::size_t i = 0; i < ops.size(); ++i) {
        CollOp& op = ops[i];
        const std::int64_t id = id_base + static_cast<std::int64_t>(i);
        rec.harness([&] { stage(op, r, send, recv); });
        // Align the ranks first (the OMB method), so an operation's latency
        // does not include waiting for ranks still busy with the previous one.
        rec.call(R, "barrier", id, [&] { R.barrier(); });
        const auto [v0, v1] =
            rec.call(R, coll_name(op.kind), id, [&] { invoke(R, op, send, recv); });
        rep.virt.op_us.push_back(v1 - v0);
        rec.harness([&, v0 = v0] {
          const CollectiveAlgorithm algo = is_reduction(op.kind)
                                               ? ran_algorithm(telemetry, r, v0)
                                               : CollectiveAlgorithm::Auto;
          const float* out = op.kind == CollKind::Bcast ? send : recv;
          if (!check(op, r, out, zfp, algo)) bad[i] = 1;
        });
      }
      R.gpu_free(recv);
      R.gpu_free(send);
    });
    rep.virt.makespan_ms += engine.now().to_ms();
    rep.virt.attempted += ops.size();
    rep.virt.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    rep.wall.adapt_choose_ms += timed.choose_ms();
    rep.wall.adapt_observe_ms += timed.observe_ms();
    harvest(*world, telemetry, nullptr, rep.virt.counts);
  }

  /// Fill rank r's send buffer with its input for `op`, and the part of its
  /// buffers the collective must write with NaN, so that an output left
  /// unwritten, or stale from the previous operation, fails the check.
  void stage(const CollOp& op, int r, float* send, float* recv) const {
    const std::size_t n = op.bytes / 4;
    const std::size_t blk = n / kRanks;
    const auto off = op.offset[static_cast<std::size_t>(r)];
    constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
    std::span<const float> in;
    switch (op.kind) {
      case CollKind::Bcast:
        if (r == op.root) in = slice(off, n);
        else std::fill_n(send, n, kNaN);
        break;
      case CollKind::Scatter:
        if (r == op.root) in = slice(off, n);
        std::fill_n(recv, blk, kNaN);
        break;
      case CollKind::ReduceScatter:
        in = slice(off, n);
        std::fill_n(recv, blk, kNaN);
        break;
      case CollKind::Allgather:
      case CollKind::Gather:
        in = slice(off, blk);
        std::fill_n(recv, n, kNaN);
        break;
      default:
        in = slice(off, n);
        std::fill_n(recv, n, kNaN);
        break;
    }
    if (!in.empty()) std::memcpy(send, in.data(), in.size_bytes());
  }

  static void invoke(mpi::Rank& R, const CollOp& op, float* send, float* recv) {
    const std::size_t n = op.bytes / 4;
    const std::uint64_t blk_bytes = op.bytes / kRanks;
    switch (op.kind) {
      case CollKind::Allreduce: R.allreduce(send, recv, n, core::ReduceOp::Sum); break;
      case CollKind::ReduceScatter:
        R.reduce_scatter(send, recv, n / kRanks, core::ReduceOp::Sum);
        break;
      case CollKind::Bcast: R.bcast(send, op.bytes, op.root); break;
      case CollKind::Allgather: R.allgather(send, blk_bytes, recv); break;
      case CollKind::Gather: R.gather(send, blk_bytes, recv, op.root); break;
      case CollKind::Scatter: R.scatter(send, blk_bytes, recv, op.root); break;
      case CollKind::Alltoall: R.alltoall(send, blk_bytes, recv); break;
    }
  }

  /// The host oracle of reduction `op` under `algo`, replayed on first use.
  const std::vector<float>& oracle(CollOp& op, CollectiveAlgorithm algo) const {
    const auto it = op.expected.find(algo);
    if (it != op.expected.end()) return it->second;
    const std::size_t n = op.bytes / 4;
    std::vector<std::vector<float>> contribs;
    for (int r = 0; r < kRanks; ++r) {
      const auto s = slice(op.offset[static_cast<std::size_t>(r)], n);
      contribs.emplace_back(s.begin(), s.end());
    }
    return op.expected
        .emplace(algo, core::allreduce_oracle(contribs, core::ReduceOp::Sum, algo, 2))
        .first->second;
  }

  /// Where rank r's output of moving collective `op` comes from in the mosaic.
  [[nodiscard]] static std::vector<Piece> pieces(const CollOp& op, int r) {
    const std::size_t n = op.bytes / 4;
    const std::size_t blk = n / kRanks;
    const auto& off = op.offset;
    const auto ur = static_cast<std::size_t>(r);
    const auto root = static_cast<std::size_t>(op.root);
    std::vector<Piece> out;
    switch (op.kind) {
      case CollKind::Bcast: out.push_back({0, off[root], n}); break;
      case CollKind::Scatter: out.push_back({0, off[root] + ur * blk, blk}); break;
      case CollKind::Gather:
        if (r != op.root) break;
        [[fallthrough]];
      case CollKind::Allgather:
        for (std::size_t s = 0; s < kRanks; ++s) out.push_back({s * blk, off[s], blk});
        break;
      case CollKind::Alltoall:
        for (std::size_t s = 0; s < kRanks; ++s) out.push_back({s * blk, off[s] + ur * blk, blk});
        break;
      default: break;  // reductions are checked against their oracles
    }
    return out;
  }

  /// Rank r's output `out` of `op`. A reduction must equal the host oracle
  /// of the algorithm `algo` that ran it, bit for bit. A moving collective
  /// must deliver its mosaic slices: bit for bit when lossless, and under
  /// ZFP every 4-value block must equal that block after 0 to
  /// zfp_generations() host round trips.
  [[nodiscard]] bool check(CollOp& op, int r, const float* out, bool zfp,
                           CollectiveAlgorithm algo) const {
    const std::size_t n = op.bytes / 4;
    const std::size_t blk = n / kRanks;
    if (is_reduction(op.kind) && algo == CollectiveAlgorithm::Auto) return false;
    if (op.kind == CollKind::Allreduce) {
      return std::memcmp(out, oracle(op, algo).data(), n * 4) == 0;
    }
    if (op.kind == CollKind::ReduceScatter) {
      const float* want = oracle(op, algo).data() + static_cast<std::size_t>(r) * blk;
      return std::memcmp(out, want, blk * 4) == 0;
    }
    const int gens = zfp ? zfp_generations(op.kind) : 0;
    for (const Piece& p : pieces(op, r)) {
      const float* got = out + p.out;
      if (gens == 0) {
        if (std::memcmp(got, &base_[p.from], p.len * 4) != 0) return false;
        continue;
      }
      for (std::size_t b = 0; b < p.len; b += kZfpBlockFloats) {
        constexpr std::size_t kBytes = kZfpBlockFloats * 4;
        bool hit = std::memcmp(got + b, &base_[p.from + b], kBytes) == 0;
        for (int g = 0; !hit && g < gens; ++g) {
          hit = std::memcmp(got + b, &zfp_gen_[static_cast<std::size_t>(g)][p.from + b],
                            kBytes) == 0;
        }
        if (!hit) return false;
      }
    }
    return true;
  }

  /// The checks must reject what a broken collective leaves behind: a block
  /// delivered to the wrong place, or an output never written. Tried on
  /// rank 1's alltoall outputs of both phases.
  void self_check() {
    for (const bool zfp : {false, true}) {
      for (CollOp& op : zfp ? zfp_ops_ : mpc_ops_) {
        if (op.kind != CollKind::Alltoall) continue;
        const std::vector<Piece> ps = pieces(op, 1);
        const std::vector<float>& src = zfp ? zfp_gen_[0] : base_;
        if (std::equal(&src[ps[0].from], &src[ps[0].from] + ps[0].len, &src[ps[1].from])) {
          continue;  // two ranks drew one offset: a swap would not show
        }
        std::vector<float> out(op.bytes / 4, std::numeric_limits<float>::quiet_NaN());
        const auto put = [&](const Piece& at, const Piece& from) {
          std::copy_n(&src[from.from], at.len, &out[at.out]);
        };
        for (const Piece& p : ps) put(p, p);
        const bool delivered = check(op, 1, out.data(), zfp, CollectiveAlgorithm::Auto);
        put(ps[0], ps[1]);
        const bool misrouted = check(op, 1, out.data(), zfp, CollectiveAlgorithm::Auto);
        std::fill(out.begin(), out.end(), std::numeric_limits<float>::quiet_NaN());
        const bool unwritten = check(op, 1, out.data(), zfp, CollectiveAlgorithm::Auto);
        if (!delivered || misrouted || unwritten) {
          throw std::logic_error(std::string("coll-mix self-check failed under ") +
                                 (zfp ? "ZFP" : "MPC") + ": correct output " +
                                 (delivered ? "accepted" : "rejected") + ", misrouted block " +
                                 (misrouted ? "accepted" : "rejected") + ", unwritten output " +
                                 (unwritten ? "accepted" : "rejected"));
        }
      }
    }
  }

  std::vector<float> base_;  // the dataset mosaic every payload is sliced from
  /// base_ after 1..kZfpMaxGenerations host ZfpCodec(8) round trips.
  std::array<std::vector<float>, kZfpMaxGenerations> zfp_gen_;
  std::vector<CollOp> mpc_ops_;
  std::vector<CollOp> adapt_ops_;
  std::vector<CollOp> zfp_ops_;
};

// --- awp-halo ------------------------------------------------------------------

constexpr int kAwpJobsPerGrid = 20;
constexpr int kAwpSteps = 2;

/// Local grids whose X/Y halo faces (4 fields x face cells x 4 bytes) land
/// on every protocol path around the 16 KiB eager limit and the 128 KiB
/// compression threshold: eager, raw rendezvous just below the threshold,
/// compressed just above it.
const std::vector<apps::awp::Grid>& awp_grids() {
  static const std::vector<apps::awp::Grid> grids = {
      {8, 32, 512},   // x 256 KiB compressed, y 64 KiB raw
      {4, 64, 256},   // x 256 KiB compressed, y 16 KiB eager
      {16, 16, 128},  // x 32 KiB raw, y 32 KiB raw
      {8, 30, 256},   // x 120 KiB raw (below threshold), y 32 KiB raw
      {8, 34, 256},   // x 136 KiB compressed (above threshold), y 32 KiB raw
      {4, 32, 128},   // x 64 KiB raw, y 8 KiB eager
  };
  return grids;
}

class AwpHalo final : public Workload {
 public:
  explicit AwpHalo(std::uint64_t seed) {
    Seq rng(seed ^ 0xA3B0A3B0ULL);
    for (std::size_t g = 0; g < awp_grids().size(); ++g) {
      for (int k = 0; k < kAwpJobsPerGrid; ++k) {
        apps::awp::AwpConfig c;
        c.local = awp_grids()[g];
        c.px = 2;
        c.py = 2;
        c.steps = kAwpSteps;
        jobs_.push_back(c);
      }
    }
    rng.shuffle(jobs_);
    for (auto& c : jobs_) {
      c.pulse_amplitude = 0.5 + rng.uniform();
      c.pulse_sigma = 2.0 + 2.0 * rng.uniform();
    }
    reference_ = reference_energies();
  }

  Repetition run(Tracer& tracer) override {
    Repetition rep;
    Recorder rec(tracer, rep);
    init_counts(rep.virt.counts);
    sim::Engine engine;
    core::Telemetry telemetry;
    mpi::WorldOptions opts;
    opts.telemetry = &telemetry;
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.threshold_bytes = 128u << 10;
    auto world = rec.setup("World(mpc)", [&] {
      return std::make_unique<mpi::World>(engine, net::frontera_liquid(2, 2), cfg, opts);
    });
    std::vector<char> bad(jobs_.size(), 0);
    auto& counts = rep.virt.counts;
    rec.run(*world, engine, "World::run(mpc)", [&](mpi::Rank& R) {
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        apps::awp::AwpReport report;
        rec.call(R, "run_awp", static_cast<std::int64_t>(j),
                 [&] { report = apps::awp::run_awp(R, jobs_[j]); });
        if (R.rank() != 0) continue;
        rep.virt.op_us.push_back(report.time_per_step_ms * 1e3);
        counts["apps.awp.virt_compute_ms"] += report.compute_time.to_ms();
        counts["apps.awp.virt_comm_ms"] += report.comm_time.to_ms();
        if (report.final_energy != reference_[j]) bad[j] = 1;
      }
    });
    rep.virt.makespan_ms = engine.now().to_ms();
    rep.virt.attempted = jobs_.size();
    rep.virt.failed = static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    harvest(*world, telemetry, nullptr, counts);
    finish_counts(counts);
    return rep;
  }

  /// Step the solver of every rank of every job outside the simulator, then
  /// push the resulting halo faces through the codecs.
  Replay replay(Tracer& tracer) override {
    double solver_s = 0.0;
    std::vector<std::vector<float>> faces;
    std::size_t face_bytes = 0;
    for (const auto& job : jobs_) {
      const apps::awp::Grid& g = job.local;
      for (int r = 0; r < kRanks; ++r) {
        std::vector<float> p(g.storage()), vx(g.storage()), vy(g.storage()), vz(g.storage());
        apps::awp::Solver solver(g, job.physics, p, vx, vy, vz);
        solver.inject_pulse(static_cast<std::ptrdiff_t>(g.nx / 2),
                            static_cast<std::ptrdiff_t>(g.ny / 2),
                            static_cast<std::ptrdiff_t>(g.nz / 2), job.pulse_amplitude,
                            job.pulse_sigma);
        const double w0 = tracer.now_us();
        const double t0 = wall_s();
        for (int s = 0; s < job.steps; ++s) {
          solver.step_velocity();
          solver.step_pressure();
        }
        solver_s += wall_s() - t0;
        tracer.add({"replay.solver", "replay", r, w0, tracer.now_us(), -1.0, -1.0, -1});
        if (r == 0 && face_bytes < kReplayBytes) {
          faces.emplace_back(solver.x_face_values());
          solver.pack_x(true, faces.back());
          faces.emplace_back(solver.y_face_values());
          solver.pack_y(true, faces.back());
          face_bytes += (solver.x_face_values() + solver.y_face_values()) * 4;
        }
      }
    }
    Replay out = replay_codecs({faces.begin(), faces.end()}, tracer);
    out.solver_s = solver_s;
    return out;
  }

 private:
  /// Final energies of the same jobs with compression off.
  [[nodiscard]] std::vector<double> reference_energies() const {
    sim::Engine engine;
    mpi::World world(engine, net::frontera_liquid(2, 2), core::CompressionConfig::off());
    std::vector<double> energy(jobs_.size(), 0.0);
    world.run([&](mpi::Rank& R) {
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const auto report = apps::awp::run_awp(R, jobs_[j]);
        if (R.rank() == 0) energy[j] = report.final_energy;
      }
    });
    return energy;
  }

  std::vector<apps::awp::AwpConfig> jobs_;
  std::vector<double> reference_;
};

// --- p2p-lossy -----------------------------------------------------------------

constexpr int kP2PShapes = 8;
constexpr int kP2PRounds = 96;
constexpr int kP2PWindow = kP2PShapes;  // every shape once per round; > the 4 credits
constexpr int kP2PPerPair = kP2PRounds * kP2PWindow;
constexpr std::uint64_t kP2PMaxBytes = 8u << 20;

/// Rounds [2/5, 7/10) of the stream carry incompressible payloads; the
/// rest are compressible, so the controller has to follow a drift.
bool incompressible_round(int round) {
  return 10 * round >= 4 * kP2PRounds && 10 * round < 7 * kP2PRounds;
}

class P2PLossy final : public Workload {
 public:
  explicit P2PLossy(std::uint64_t seed) {
    Seq rng(seed ^ 0x9292F00DULL);
    for (int k = 0; k < kP2PShapes; ++k) {
      const double nominal = static_cast<double>(64u << 10) * std::ldexp(1.0, k);
      const auto bytes = static_cast<std::uint64_t>(nominal * (0.95 + 0.05 * rng.uniform()));
      bytes_[static_cast<std::size_t>(k)] = std::min(kP2PMaxBytes, bytes / 4096 * 4096);
    }
    // Compressible payloads are seeded slices of the fixed msg_sppm corpus.
    const std::vector<float> sppm = data::generate("msg_sppm", 2 * kP2PMaxBytes / 4);
    for (int k = 0; k < kP2PShapes; ++k) {
      const std::size_t n = bytes_[static_cast<std::size_t>(k)] / 4;
      const std::size_t from = rng.below((sppm.size() - n) / 1024 + 1) * 1024;
      compressible_.emplace_back(sppm.begin() + static_cast<std::ptrdiff_t>(from),
                                 sppm.begin() + static_cast<std::ptrdiff_t>(from + n));
      std::vector<float> noise(n);
      for (float& x : noise) x = static_cast<float>(2000.0 * rng.uniform() - 1000.0);
      incompressible_.push_back(std::move(noise));
    }
    // Every round of a pair sends each shape once, rotated by one position
    // per round from a seeded start: across the stream each shape takes
    // every position in the window once, so queueing behind larger
    // messages is the same for every seed.
    for (auto& order : order_) {
      const auto start = static_cast<int>(rng.below(kP2PShapes));
      for (int round = 0; round < kP2PRounds; ++round) {
        for (int w = 0; w < kP2PWindow; ++w) order.push_back((start + round + w) % kP2PShapes);
      }
    }
    fault_seed_ = rng.next();
  }

  Repetition run(Tracer& tracer) override {
    Repetition rep;
    Recorder rec(tracer, rep);
    init_counts(rep.virt.counts);
    sim::Engine engine;
    core::Telemetry telemetry;
    fault::FaultInjector injector(fault::FaultPlan::lossy(fault_seed_, 0.01, 0.01));
    adapt::AdaptiveOptions ao;  // keeps the controller's own probe seed
    ao.lossy_allowed = false;
    adapt::AdaptiveController controller(gpu::v100_spec(), kIbEdrGbs, ao);
    TimedAdaptive timed(controller, tracer);
    timed.bind(telemetry);
    mpi::WorldOptions opts;
    opts.telemetry = &telemetry;
    opts.fault = &injector;
    opts.adaptive = &timed;
    opts.pipeline.enabled = true;  // chunk size: cost-model auto
    opts.persistent.enabled = true;
    // Held plan-cache slots pin one pool buffer each. The default pool (4 x
    // 40 MiB) doubles when they outnumber it, so whether a rank crosses 16
    // held slots would swing memory by 640 MiB between seeds; 32 x 2 MiB
    // never doubles here, and larger stagings get buffers of their own size.
    auto cfg = core::CompressionConfig::mpc_opt();
    cfg.pool_buffer_bytes = 2u << 20;
    cfg.pool_buffers = 32;
    auto world = rec.setup("World(mpc)", [&] {
      return std::make_unique<mpi::World>(engine, net::longhorn(2, 2), cfg, opts);
    });

    constexpr std::size_t kMessages = 2 * kP2PPerPair;
    std::vector<double> posted(kMessages, 0.0), done(kMessages, 0.0);
    std::vector<char> bad(kMessages, 0);
    rec.run(*world, engine, "World::run(mpc)", [&](mpi::Rank& R) {
      const int r = R.rank();
      const int pair = r % 2;  // pairs 0<->2 and 1<->3 cross the node boundary
      const int partner = (r + 2) % kRanks;
      const bool lower = r < 2;
      std::array<float*, kP2PWindow> send{};
      for (auto& s : send) s = static_cast<float*>(R.gpu_malloc(kP2PMaxBytes));
      auto* recv = static_cast<float*>(R.gpu_malloc(kP2PMaxBytes));
      for (int round = 0; round < kP2PRounds; ++round) {
        const bool sender = (round % 2 == 0) == lower;
        std::vector<mpi::Request> reqs;
        for (int w = 0; w < kP2PWindow; ++w) {
          const int idx = round * kP2PWindow + w;
          const int k = order_[static_cast<std::size_t>(pair)][static_cast<std::size_t>(idx)];
          const std::uint64_t bytes = bytes_[static_cast<std::size_t>(k)];
          const std::vector<float>& data = payload(round, k);
          const auto id = static_cast<std::size_t>(pair * kP2PPerPair + idx);
          const int tag = 200 + k;
          if (sender) {
            auto* buf = send[static_cast<std::size_t>(w)];
            rec.harness([&] { std::memcpy(buf, data.data(), bytes); });
            posted[id] = rec.call(R, "isend", static_cast<std::int64_t>(id), [&] {
                             reqs.push_back(R.isend(buf, bytes, partner, tag));
                           }).first;
          } else {
            mpi::Status st;
            done[id] = rec.call(R, "recv", static_cast<std::int64_t>(id), [&] {
                         st = R.recv(recv, bytes, partner, tag);
                       }).second;
            rec.harness([&] {
              if (!st.ok() || st.bytes != bytes || std::memcmp(recv, data.data(), bytes) != 0) {
                bad[id] = 1;
              }
            });
          }
        }
        if (!sender) continue;
        const auto first = static_cast<std::int64_t>(pair * kP2PPerPair + round * kP2PWindow);
        rec.call(R, "waitall", first, [&] { R.waitall(reqs); });
        for (int w = 0; w < kP2PWindow; ++w) {
          if (!reqs[static_cast<std::size_t>(w)]->status.ok()) {
            bad[static_cast<std::size_t>(first + w)] = 1;
          }
        }
      }
      R.gpu_free(recv);
      for (auto* s : send) R.gpu_free(s);
    });
    for (std::size_t id = 0; id < kMessages; ++id) rep.virt.op_us.push_back(done[id] - posted[id]);
    rep.virt.makespan_ms = engine.now().to_ms();
    rep.virt.attempted = kMessages;
    rep.virt.failed = static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
    rep.wall.adapt_choose_ms = timed.choose_ms();
    rep.wall.adapt_observe_ms = timed.observe_ms();
    harvest(*world, telemetry, &injector, rep.virt.counts);
    finish_counts(rep.virt.counts);
    return rep;
  }

  Replay replay(Tracer& tracer) override {
    std::vector<std::span<const float>> payloads;
    for (const auto* set : {&compressible_, &incompressible_}) {
      for (const auto& p : *set) payloads.emplace_back(p);
    }
    return replay_codecs(payloads, tracer);
  }

 private:
  [[nodiscard]] const std::vector<float>& payload(int round, int shape) const {
    const auto& set = incompressible_round(round) ? incompressible_ : compressible_;
    return set[static_cast<std::size_t>(shape)];
  }

  std::array<std::uint64_t, kP2PShapes> bytes_{};  // one (tag, size) shape each
  std::vector<std::vector<float>> compressible_;
  std::vector<std::vector<float>> incompressible_;
  std::array<std::vector<int>, 2> order_;  // shape sequence per pair
  std::uint64_t fault_seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "coll-mix") return std::make_unique<CollMix>(seed);
  if (name == "awp-halo") return std::make_unique<AwpHalo>(seed);
  if (name == "p2p-lossy") return std::make_unique<P2PLossy>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
