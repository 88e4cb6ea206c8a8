// Deterministic scenario runner for the determinism suite: run a seeded
// mixed workload (random point-to-point traffic + collectives) on a
// simulated cluster and serialize everything observable — per-rank receive
// timeline with virtual timestamps and payload checksums, compression
// stats, the full telemetry event log, and the final engine clock — into
// one canonical text dump. The simulator's contract is that two runs of
// the same scenario produce byte-identical dumps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gcmpi::mpi {
struct HostCounters;
}

namespace gcmpi::testing {

struct WorldScenario {
  int nodes = 4;
  int gpus_per_node = 2;            // ranks = nodes * gpus_per_node
  int messages_per_rank = 20;       // random p2p sends per rank
  std::size_t max_message_values = 16384;
  bool compression = true;          // MPC-OPT with a low threshold
  int collective_rounds = 2;        // allreduce+allgather+bcast interleaved
  std::uint64_t seed = 1;

  // Fault injection: a nonzero fault_seed installs a FaultInjector with
  // these rates. An installed-but-idle plan (all rates zero) must produce
  // a dump byte-identical to fault_seed == 0 (reliability transparency).
  std::uint64_t fault_seed = 0;
  double fault_drop = 0.0;
  double fault_corrupt = 0.0;
  double fault_decompress = 0.0;

  // Chunked pipelined rendezvous. device_payloads stages every p2p payload
  // in device memory (making it compression- and pipeline-eligible);
  // `pipeline` enables the chunked path. Both default off, and the stats /
  // telemetry sections only grow pipeline lines when transfers actually
  // pipelined, so legacy scenario dumps stay byte-identical.
  bool device_payloads = false;
  bool pipeline = false;
  std::uint64_t pipeline_min_bytes = 1ull << 20;
  std::uint64_t pipeline_chunk_bytes = 0;  // 0 = cost-model auto-tune

  // Collective algorithm engine. A nonzero engine_allreduce_values adds one
  // engine-sized allreduce (device-resident, that many floats) per
  // collective round, logged with its result checksum; collective_algorithm
  // pins WorldOptions::collectives[Allreduce] (0 = Auto). The dump only
  // grows collective-record lines when the engine actually ran, so legacy
  // scenario dumps stay byte-identical.
  std::size_t engine_allreduce_values = 0;
  int collective_algorithm = 0;  // core::CollectiveAlgorithm numeric value

  // Batched alltoall engine. A nonzero alltoall_block_values adds one
  // device-resident alltoall (that many floats per destination block) per
  // collective round, logged with its receive-buffer checksum;
  // alltoall_algorithm pins WorldOptions::collectives[Alltoall]
  // (0 = Auto). Inert by default, so legacy scenario dumps stay
  // byte-identical.
  std::size_t alltoall_block_values = 0;
  int alltoall_algorithm = 0;  // core::CollectiveAlgorithm numeric value

  // Hierarchical moving collectives. A nonzero hier_block_values adds one
  // device-resident bcast (that many floats, rotating root) plus an
  // allgather / gather / scatter (that many floats per block) per
  // collective round, each logged with its result checksum;
  // hier_algorithm pins all four per-op knobs (0 = Auto). Inert by
  // default, so legacy scenario dumps stay byte-identical.
  std::size_t hier_block_values = 0;
  int hier_algorithm = 0;  // core::CollectiveAlgorithm numeric value

  // Flat wire schedules. A nonzero flat_block_values adds, per collective
  // round, one device-resident bcast (that many floats, rotating root), one
  // allgather (that many floats per block) and one reduce (that many
  // floats, same root), plus a host-resident eager reduce, each logged with
  // its result checksum. Pair it with hier_algorithm = Linear to keep bcast
  // and allgather on the flat binomial tree and ring. Inert by default, so
  // legacy scenario dumps stay byte-identical.
  std::size_t flat_block_values = 0;
};

/// `host`, when given, receives the world's host work counters.
[[nodiscard]] std::string run_world_dump(const WorldScenario& s,
                                         mpi::HostCounters* host = nullptr);

/// One line of every host work counter, for pinning: per copy site
/// "site=buffers/bytes", then the bytes checksummed per CRC site.
[[nodiscard]] std::string host_counters_line(const mpi::HostCounters& c);

/// `dump` with the last three fields of every collective-CSV row blanked:
/// the busy columns (compress, transfer, reduce), which only the stage
/// accounting writes. A CSV is found by its "collective_records=N" line,
/// followed by the header row and N rows. Every other byte is kept.
[[nodiscard]] std::string mask_busy_columns(const std::string& dump);

/// Locate the first diverging line between two dumps and format a
/// human-readable diff snippet (line number, both lines, context).
[[nodiscard]] std::string first_divergence(const std::string& a, const std::string& b);

}  // namespace gcmpi::testing
