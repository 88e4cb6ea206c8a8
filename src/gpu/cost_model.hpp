// Calibrated cost model for CUDA runtime operations.
//
// The paper's optimizations (MPC-OPT / ZFP-OPT) win precisely by removing
// specific per-call CUDA driver costs from the communication critical path.
// This model charges those costs in virtual time, calibrated to the values
// the paper measured:
//   * cudaMemcpy D2H of a 4-byte size word: ~20 us   (Sec. IV-A)
//   * GDRCopy of the same word:             1-5 us   (Sec. IV-B, we use 3)
//   * cudaGetDeviceProperties:              ~1840 us (Sec. V-A)
//   * cached cudaDeviceGetAttribute:        ~1 us    (Sec. V-B)
//   * cudaMalloc dominating small-message latency (83.4% at 256 KB, Fig. 6a)
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace gcmpi::gpu {

using sim::Time;

struct CostModel {
  // --- driver call costs ---
  Time cuda_malloc_base = Time::us(220);     // driver + page-table setup
  double cuda_malloc_per_mib_us = 13.0;      // grows with allocation size
  Time cuda_free = Time::us(90);
  Time cuda_memcpy_d2h_small = Time::us(20); // 4-byte size readback
  Time gdrcopy_small = Time::us(3);          // low-latency mapped read
  Time cuda_memset_launch = Time::us(4);     // async memset enqueue
  Time kernel_launch = Time::us(6);          // host-side enqueue cost
  Time stream_sync = Time::us(4);            // cudaStreamSynchronize overhead
  // CUDA-graph replay: a captured launch sequence (memset + kernels) is
  // re-submitted with one cudaGraphLaunch regardless of node count. The
  // capture + cudaGraphInstantiate cost is paid once, at plan warm-up.
  Time graph_launch = Time::us(2);
  Time graph_instantiate = Time::us(30);
  Time device_properties_query = Time::us(1840);  // cudaGetDeviceProperties
  Time device_attribute_query = Time::us(15);     // first cudaDeviceGetAttribute
  Time cached_attribute_read = Time::us(1);       // static value after caching

  // --- on-device copy engines (GB/s) ---
  double d2d_bandwidth_gbs = 790.0;   // device-to-device copy engine

  /// cudaMalloc(bytes): base driver cost plus a size-dependent term.
  [[nodiscard]] Time cuda_malloc(std::uint64_t bytes) const {
    const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
    return cuda_malloc_base + Time::us(cuda_malloc_per_mib_us * mib);
  }

  /// Bulk cudaMemcpyDeviceToDevice of `bytes` (async on a stream).
  [[nodiscard]] Time d2d_copy(std::uint64_t bytes) const {
    return sim::transfer_time(bytes, d2d_bandwidth_gbs);
  }
};

/// Static description of a GPU part; `compute_scale` rescales compression
/// kernel throughputs that were calibrated on a V100 (Table III).
struct GpuSpec {
  const char* name = "V100";
  int sm_count = 80;
  double peak_fp32_tflops = 14.0;
  double mem_bandwidth_gbs = 900.0;
  double compute_scale = 1.0;  // V100 == 1.0
  std::uint64_t memory_bytes = 16ULL << 30;
  CostModel costs{};
};

[[nodiscard]] GpuSpec v100_spec();
[[nodiscard]] GpuSpec rtx5000_spec();

}  // namespace gcmpi::gpu
