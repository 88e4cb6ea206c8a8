// Chunked pipelined rendezvous configuration: overlap compression, wire
// transfer, and decompression.
//
// A large rendezvous message is split into N pipeline chunks; chunk i+1 is
// compressed on the sender's streams while chunk i occupies the wire and
// chunk i-1 decompresses at the receiver, so the simulated critical path is
//   max(compress, transfer, decompress) + pipeline fill/drain
// instead of their sum. Chunk kernels reuse MPC-OPT's partitioned-launch
// idea one level up: each chunk is a single-partition kernel on stream
// (chunk % num_streams) with sm_count / kPipelineWindow thread blocks, so
// up to kPipelineWindow chunks genuinely share the GPU, exactly like the
// multi-stream partitions of one serial message do.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "gpu/cost_model.hpp"
#include "net/link.hpp"

namespace gcmpi::mpi {

struct PipelineConfig {
  /// Master switch; off reproduces the serial rendezvous bit-for-bit.
  bool enabled = false;
  /// Messages below this stay on the serial path (the pipeline's per-chunk
  /// launch/readback overhead is not worth paying under ~1 MB).
  std::uint64_t min_bytes = 1ull << 20;
  /// Pipeline chunk size; 0 selects the cost-model auto-tune below.
  std::uint64_t chunk_bytes = 0;
};

/// Chunks concurrently in flight (compressing / on the wire / arriving).
/// Also divides the SMs among concurrent chunk kernels.
inline constexpr int kPipelineWindow = 4;

/// Cost-model-driven chunk size: balances the per-chunk fixed overhead O
/// (kernel launches, memset, size readback, per-message wire overhead)
/// against the fill/drain cost of the slowest pipeline stage s (ns/byte),
/// minimizing  T(c) ~ s*B + 2*s*c + O*B/c  at  c* = sqrt(B*O / (2*s)).
/// Monotone non-decreasing in message_bytes; the result is clamped to
/// [256 KiB, message_bytes] and rounded down to a 64 KiB multiple so MPC
/// chunk (1024-value) boundaries are never split.
[[nodiscard]] std::uint64_t auto_chunk_bytes(std::uint64_t message_bytes,
                                             const core::CompressionConfig& cfg,
                                             const gpu::GpuSpec& gpu,
                                             const net::LinkSpec& link);

/// Thread blocks per chunk kernel: divide the SMs among the chunks that can
/// run concurrently (min(window, chunks)), never below 1.
[[nodiscard]] int pipeline_chunk_blocks(const gpu::GpuSpec& gpu, int window, int chunks);

}  // namespace gcmpi::mpi
