#include "support/world_dump.hpp"

#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "fault/injector.hpp"
#include "mpi/world.hpp"
#include "sim/rng.hpp"
#include "support/payloads.hpp"

namespace gcmpi::testing {

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

}  // namespace

std::string host_counters_line(const mpi::HostCounters& c) {
  std::ostringstream out;
  const auto site = [&](const char* name, const mpi::HostCounters::Copies& copies) {
    out << name << "=" << copies.buffers << "/" << copies.bytes << " ";
  };
  site("eager", c.eager);
  site("compressed", c.compressed_segment);
  site("corrupt", c.corrupt_copy);
  site("wire_out", c.wire_out);
  site("assemble", c.assemble);
  site("minted", c.minted_wire);
  out << "crc=" << c.crc_eager_stamp << "/" << c.crc_eager_verify << "/"
      << c.crc_segment_stamp << "/" << c.crc_segment_verify;
  return out.str();
}

std::string run_world_dump(const WorldScenario& s, mpi::HostCounters* host) {
  const int P = s.nodes * s.gpus_per_node;

  // Plan all p2p traffic up front, deterministically in the scenario seed.
  sim::Rng rng(s.seed);
  struct Send {
    int dst;
    int tag;
    PayloadCase payload;
  };
  std::vector<std::vector<Send>> plan(static_cast<std::size_t>(P));
  std::vector<int> expected(static_cast<std::size_t>(P), 0);
  for (int src = 0; src < P; ++src) {
    for (int m = 0; m < s.messages_per_rank; ++m) {
      Send snd;
      const int d = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(P - 1)));
      snd.dst = d >= src ? d + 1 : d;
      snd.tag = 1 + static_cast<int>(rng.next_below(4));
      snd.payload = draw_case(rng, s.max_message_values);
      if (snd.payload.n == 0) snd.payload.n = 1;  // probe-free drain needs bytes
      plan[static_cast<std::size_t>(src)].push_back(snd);
      ++expected[static_cast<std::size_t>(snd.dst)];
    }
  }

  sim::Engine engine;
  core::Telemetry telemetry;
  auto cfg = s.compression ? core::CompressionConfig::mpc_opt() : core::CompressionConfig::off();
  cfg.threshold_bytes = 8 * 1024;
  mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.pipeline.enabled = s.pipeline;
  opts.pipeline.min_bytes = s.pipeline_min_bytes;
  opts.pipeline.chunk_bytes = s.pipeline_chunk_bytes;
  using core::CollectiveOp;
  opts.collectives[CollectiveOp::Allreduce] =
      static_cast<core::CollectiveAlgorithm>(s.collective_algorithm);
  opts.collectives[CollectiveOp::Alltoall] =
      static_cast<core::CollectiveAlgorithm>(s.alltoall_algorithm);
  for (const CollectiveOp op : {CollectiveOp::Bcast, CollectiveOp::Allgather,
                                CollectiveOp::Gather, CollectiveOp::Scatter}) {
    opts.collectives[op] = static_cast<core::CollectiveAlgorithm>(s.hier_algorithm);
  }
  std::optional<fault::FaultInjector> injector;
  if (s.fault_seed != 0) {
    fault::FaultPlan plan;
    plan.seed = s.fault_seed;
    plan.drop_probability = s.fault_drop;
    plan.corrupt_probability = s.fault_corrupt;
    plan.decompress_fail_probability = s.fault_decompress;
    injector.emplace(plan);
    opts.fault = &*injector;
  }
  mpi::World world(engine, net::longhorn(s.nodes, s.gpus_per_node), cfg, opts);

  // Per-rank observation log: every receive completion and collective
  // result, stamped with virtual time. Indexed by rank so the dump order
  // is independent of actor scheduling.
  std::vector<std::vector<std::string>> observed(static_cast<std::size_t>(P));

  world.run([&](mpi::Rank& R) {
    const int me = R.rank();
    auto& log = observed[static_cast<std::size_t>(me)];
    std::vector<mpi::Request> sends;
    std::vector<std::vector<float>> live;
    std::vector<void*> device_bufs;
    for (const auto& snd : plan[static_cast<std::size_t>(me)]) {
      live.push_back(make_floats(snd.payload.kind, snd.payload.n, snd.payload.seed));
      const std::uint64_t bytes = live.back().size() * 4;
      const void* src = live.back().data();
      if (s.device_payloads) {
        void* d = R.gpu_malloc(bytes);
        std::memcpy(d, src, bytes);
        device_bufs.push_back(d);
        src = d;
      }
      sends.push_back(R.isend(src, bytes, snd.dst, snd.tag));
    }
    std::vector<float> rbuf(s.max_message_values + 16);
    for (int m = 0; m < expected[static_cast<std::size_t>(me)]; ++m) {
      const auto st = R.recv(rbuf.data(), rbuf.size() * 4, mpi::kAnySource, mpi::kAnyTag);
      std::ostringstream os;
      os << "recv rank=" << me << " t_ns=" << R.now().count_ns() << " src=" << st.source
         << " tag=" << st.tag << " bytes=" << st.bytes << " fnv="
         << fnv1a(rbuf.data(), st.bytes);
      log.push_back(os.str());
    }
    R.waitall(sends);
    for (void* d : device_bufs) R.gpu_free(d);

    for (int round = 0; round < s.collective_rounds; ++round) {
      float v = static_cast<float>(me * 13 + round);
      float sum = 0.0f;
      R.allreduce(&v, &sum, 1, mpi::ReduceOp::Sum);
      std::vector<float> block(256, static_cast<float>(me) + 0.5f);
      std::vector<float> all(block.size() * static_cast<std::size_t>(P));
      R.allgather(block.data(), block.size() * 4, all.data());
      std::vector<float> bc = data::generate("msg_sppm", 4096,
                                             static_cast<std::uint64_t>(round + 1));
      R.bcast(bc.data(), bc.size() * 4, round % P);
      std::ostringstream os;
      os << "coll rank=" << me << " round=" << round << " t_ns=" << R.now().count_ns()
         << " sum=" << sum << " fnv_all=" << fnv1a(all.data(), all.size() * 4)
         << " fnv_bcast=" << fnv1a(bc.data(), bc.size() * 4);
      if (s.engine_allreduce_values > 0) {
        // Engine-sized allreduce: device-resident contributions so the ring
        // hops compress; the result checksum pins bit-exact reproducibility.
        const std::size_t n = s.engine_allreduce_values;
        const auto mine = make_floats(PayloadKind::SmoothField, n,
                                      s.seed * 1000 + static_cast<std::uint64_t>(me));
        auto* dev = static_cast<float*>(R.gpu_malloc(n * 4 + 4));
        std::memcpy(dev, mine.data(), n * 4);
        std::vector<float> ar(n);
        R.allreduce(dev, ar.data(), n, mpi::ReduceOp::Sum);
        R.gpu_free(dev);
        os << " fnv_ar=" << fnv1a(ar.data(), n * 4);
      }
      if (s.alltoall_block_values > 0) {
        // Engine-sized alltoall: device-resident per-destination blocks so
        // the batched wire slab compresses; the receive-buffer checksum
        // pins the whole scattered exchange bit-exactly.
        const std::size_t bn = s.alltoall_block_values;
        auto* send = static_cast<float*>(
            R.gpu_malloc(bn * 4 * static_cast<std::size_t>(P)));
        for (int d = 0; d < P; ++d) {
          const auto blk = make_floats(
              PayloadKind::SmoothField, bn,
              s.seed * 2000 + static_cast<std::uint64_t>(me) * 131 +
                  static_cast<std::uint64_t>(d) + static_cast<std::uint64_t>(round));
          std::memcpy(send + static_cast<std::size_t>(d) * bn, blk.data(), bn * 4);
        }
        std::vector<float> a2a(bn * static_cast<std::size_t>(P));
        R.alltoall(send, bn * 4, a2a.data());
        R.gpu_free(send);
        os << " fnv_a2a=" << fnv1a(a2a.data(), a2a.size() * 4);
      }
      if (s.hier_block_values > 0) {
        // Hierarchical moving collectives: device-resident payloads so the
        // per-node staging slabs compress; each op's checksum pins its
        // one-wire-transit-per-node schedule bit-exactly.
        const std::size_t hn = s.hier_block_values;
        const int root = (round + 1) % P;
        auto* dev = static_cast<float*>(
            R.gpu_malloc(hn * 4 * static_cast<std::size_t>(P) + 4));
        const auto msg = make_floats(PayloadKind::SmoothField, hn,
                                     s.seed * 3000 + static_cast<std::uint64_t>(round));
        if (me == root) std::memcpy(dev, msg.data(), hn * 4);
        R.bcast(dev, hn * 4, root);
        os << " fnv_hb=" << fnv1a(dev, hn * 4);

        const auto mine = make_floats(PayloadKind::SmoothField, hn,
                                      s.seed * 4000 + static_cast<std::uint64_t>(me) * 17 +
                                          static_cast<std::uint64_t>(round));
        std::memcpy(dev, mine.data(), hn * 4);
        std::vector<float> vec(hn * static_cast<std::size_t>(P));
        R.allgather(dev, hn * 4, vec.data());
        os << " fnv_hag=" << fnv1a(vec.data(), vec.size() * 4);

        vec.assign(vec.size(), 0.0f);
        R.gather(dev, hn * 4, vec.data(), root);
        if (me == root) os << " fnv_hg=" << fnv1a(vec.data(), vec.size() * 4);

        if (me == root) {
          for (int d = 0; d < P; ++d) {
            const auto blk = make_floats(
                PayloadKind::SmoothField, hn,
                s.seed * 5000 + static_cast<std::uint64_t>(d) * 31 +
                    static_cast<std::uint64_t>(round));
            std::memcpy(dev + static_cast<std::size_t>(d) * hn, blk.data(), hn * 4);
          }
        }
        std::vector<float> piece(hn);
        R.scatter(dev, hn * 4, piece.data(), root);
        os << " fnv_hsc=" << fnv1a(piece.data(), hn * 4);
        R.gpu_free(dev);
      }
      if (s.flat_block_values > 0) {
        // Flat schedules above the eager threshold: the wire-forwarding (or
        // pipelined) binomial bcast, the compressed (or pipelined) ring
        // allgather and the rendezvous binomial reduce, plus one eager
        // reduce; each checksum pins its schedule bit-exactly.
        const std::size_t fn = s.flat_block_values;
        const int root = (round + 1) % P;
        auto* dev = static_cast<float*>(R.gpu_malloc(fn * 4));
        const auto msg = make_floats(PayloadKind::SmoothField, fn,
                                     s.seed * 6000 + static_cast<std::uint64_t>(round));
        if (me == root) std::memcpy(dev, msg.data(), fn * 4);
        R.bcast(dev, fn * 4, root);
        os << " fnv_fb=" << fnv1a(dev, fn * 4);

        const auto mine = make_floats(PayloadKind::SmoothField, fn,
                                      s.seed * 7000 + static_cast<std::uint64_t>(me) * 17 +
                                          static_cast<std::uint64_t>(round));
        std::memcpy(dev, mine.data(), fn * 4);
        std::vector<float> vec(fn * static_cast<std::size_t>(P));
        R.allgather(dev, fn * 4, vec.data());
        os << " fnv_fag=" << fnv1a(vec.data(), vec.size() * 4);

        std::vector<float> red(fn);
        R.reduce(dev, red.data(), fn, mpi::ReduceOp::Sum, root);
        if (me == root) os << " fnv_fr=" << fnv1a(red.data(), fn * 4);

        std::vector<float> small(1000, static_cast<float>(me) * 0.25f + 1.0f);
        std::vector<float> small_red(small.size());
        R.reduce(small.data(), small_red.data(), small.size(), mpi::ReduceOp::Max, root);
        if (me == root) os << " fnv_fre=" << fnv1a(small_red.data(), small_red.size() * 4);
        R.gpu_free(dev);
      }
      log.push_back(os.str());
      R.barrier();
    }
  });

  std::ostringstream dump;
  dump << "scenario seed=" << s.seed << " ranks=" << P
       << " msgs=" << s.messages_per_rank << " compression=" << s.compression << "\n";
  for (int r = 0; r < P; ++r) {
    for (const auto& line : observed[static_cast<std::size_t>(r)]) dump << line << "\n";
    const auto& stats = world.compression_of(r).stats();
    dump << "stats rank=" << r << " considered=" << stats.messages_considered
         << " compressed=" << stats.messages_compressed
         << " fallback=" << stats.messages_fallback_raw
         << " codec_faults=" << stats.codec_faults
         << " original=" << stats.original_bytes << " wire=" << stats.wire_bytes;
    if (stats.pipelined_messages > 0) {
      // Only printed when the rank actually pipelined, so serial-mode dumps
      // stay byte-identical to their pre-pipeline form.
      dump << " pipelined=" << stats.pipelined_messages
           << " pchunks=" << stats.pipeline_chunks_compressed
           << " praw=" << stats.pipeline_chunks_raw;
    }
    dump << "\n";
  }
  dump << "telemetry_events=" << telemetry.events().size() << "\n";
  telemetry.write_csv(dump);
  const auto summary = telemetry.summarize();
  dump << "telemetry_summary compressions=" << summary.compressions
       << " decompressions=" << summary.decompressions
       << " bypasses=" << summary.raw_bypasses << " fallbacks=" << summary.fallbacks
       << " retransmits=" << summary.retransmits
       << " corruptions=" << summary.corruptions_detected
       << " codec_faults=" << summary.codec_faults
       << " original=" << summary.original_bytes << " wire=" << summary.wire_bytes
       << " ct_ns=" << summary.compression_time.count_ns()
       << " dt_ns=" << summary.decompression_time.count_ns() << "\n";
  if (!telemetry.pipelines().empty()) {
    dump << "pipeline_transfers=" << telemetry.pipelines().size() << "\n";
    telemetry.write_pipeline_csv(dump);
  }
  if (!telemetry.collectives().empty()) {
    // Only present when the engine (ring/hierarchical) ran; legacy linear
    // scenarios keep their pre-engine dump bytes.
    dump << "collective_records=" << telemetry.collectives().size() << "\n";
    telemetry.write_collective_csv(dump);
  }
  if (injector.has_value()) {
    // Only emitted when something actually fired, so an idle plan's dump
    // stays byte-identical to a run with no injector at all.
    const auto& fs = injector->stats();
    if (fs.drops + fs.corruptions + fs.latency_spikes + fs.compress_faults +
            fs.decompress_faults >
        0) {
      // Literal zeros for the removed link-window counters keep the pinned bytes.
      dump << "fault_stats data_packets=" << fs.data_packets << " drops=" << fs.drops
           << " corruptions=" << fs.corruptions << " spikes=" << fs.latency_spikes
           << " stalls=0 degradations=0"
           << " compress_faults=" << fs.compress_faults
           << " decompress_faults=" << fs.decompress_faults << "\n";
    }
  }
  dump << "engine_final_ns=" << engine.now().count_ns() << "\n";
  if (host != nullptr) *host = world.host_counters();
  return dump.str();
}

std::string first_divergence(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    ++line;
    if (!ga && !gb) return "dumps are identical";
    if (ga != gb || la != lb) {
      std::ostringstream os;
      os << "first divergence at line " << line << ":\n  run1: "
         << (ga ? la : "<end of dump>") << "\n  run2: " << (gb ? lb : "<end of dump>");
      return os.str();
    }
  }
}

}  // namespace gcmpi::testing
