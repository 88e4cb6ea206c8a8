// Configuration of the on-the-fly message compression framework.
//
// "Naive" vs "-OPT" in the paper is a set of orthogonal optimizations; we
// expose each as a toggle so the ablation benchmarks can isolate them:
//   * use_buffer_pool:          pre-allocated GPU buffer pool vs per-message
//                               cudaMalloc/cudaFree            (Sec. IV-B 1+2)
//   * use_gdrcopy:              GDRCopy size readback vs cudaMemcpy (IV-B 3)
//   * multi_stream_partitions:  decomposed MPC kernels on CUDA streams vs
//                               one full-GPU kernel             (Sec. IV-B)
//   * cache_device_attributes:  cudaDeviceGetAttribute + static cache vs
//                               cudaGetDeviceProperties per call (Sec. V-B)
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcmpi::core {

enum class Algorithm : std::uint8_t { None = 0, MPC = 1, ZFP = 2 };

[[nodiscard]] const char* algorithm_name(Algorithm a);

struct PartitionRule {
  std::uint64_t max_bytes;  // rule applies to messages up to this size
  int partitions;
};

struct CompressionConfig {
  /// The codec; Algorithm::None turns compression off.
  Algorithm algorithm = Algorithm::None;

  /// Only device-resident messages of at least this size are compressed
  /// (the paper's "pre-defined threshold").
  std::uint64_t threshold_bytes = 256 * 1024;

  /// Also compress messages that stay inside a node. Fig. 9(c) shows
  /// compression cannot beat NVLink below 8MB, so applications on
  /// NVLink-equipped clusters disable this (a static form of the dynamic
  /// per-path selection the paper proposes as future work).
  bool compress_intra_node = true;

  // --- MPC control parameters (the "A" header fields of Fig. 4) ---
  int mpc_dimensionality = 1;
  static constexpr std::size_t mpc_chunk_values = 1024;

  // --- ZFP control parameters ---
  int zfp_rate = 16;  // compressed bits per value

  // --- optimization toggles (all false == the naive integration) ---
  bool use_buffer_pool = true;
  bool use_gdrcopy = true;
  bool multi_stream_partitions = true;
  bool cache_device_attributes = true;

  /// Message-size -> partition-count tuning table for MPC-OPT ("we
  /// fine-tune the number of partitions used for different message sizes");
  /// defaults from bench/ablation_partitions on the V100 model.
  std::vector<PartitionRule> partition_table = {
      {512ull << 10, 1}, {2ull << 20, 2}, {8ull << 20, 4}, {~0ull, 8}};

  // --- buffer pool sizing (allocated untimed at init, like MPI_Init) ---
  std::size_t pool_buffer_bytes = 40ull << 20;
  std::size_t pool_buffers = 4;

  [[nodiscard]] int partitions_for(std::uint64_t bytes) const {
    if (!multi_stream_partitions) return 1;
    for (const auto& r : partition_table) {
      if (bytes <= r.max_bytes) return r.partitions;
    }
    return 1;
  }

  /// The paper's proposed schemes as ready-made configurations.
  [[nodiscard]] static CompressionConfig off();
  [[nodiscard]] static CompressionConfig mpc_naive(int dimensionality = 1);
  [[nodiscard]] static CompressionConfig mpc_opt(int dimensionality = 1);
  [[nodiscard]] static CompressionConfig zfp_naive(int rate = 16);
  [[nodiscard]] static CompressionConfig zfp_opt(int rate = 16);
};

}  // namespace gcmpi::core
