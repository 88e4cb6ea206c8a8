// Simulated GPU device: a real host-memory heap tagged as "device memory"
// plus virtual-time models for CUDA runtime calls and in-order streams.
//
// Bytes are real (kernels executed on the host transform real buffers, so
// compression ratios and accuracy are genuine); *time* is virtual, charged
// through CostModel / Stream. The pointer registry lets the MPI layer
// detect device buffers the way CUDA-aware MPIs use cuPointerGetAttribute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "sim/timeline.hpp"
#include "sim/stats.hpp"

namespace gcmpi::gpu {

using sim::Timeline;
using sim::Breakdown;
using sim::Phase;
using sim::Time;

class Gpu;

/// In-order execution queue, the analog of a cudaStream_t. Kernel launches
/// are asynchronous with respect to the host actor: the launch charges only
/// host-side enqueue cost; the work completes at `tail()` in virtual time.
class Stream {
 public:
  explicit Stream(Gpu& gpu) : gpu_(&gpu) {}

  /// Enqueue `gpu_duration` of device work. Charges host launch overhead to
  /// `tl` (attributed to `launch_phase` if a breakdown is given) and
  /// returns the completion time of the enqueued work.
  Time launch(Timeline& tl, Time gpu_duration, Breakdown* bd = nullptr,
              Phase launch_phase = Phase::Other);

  /// Enqueue `gpu_duration` of device work via a pre-instantiated CUDA
  /// graph: one cudaGraphLaunch replaces the whole captured sequence of
  /// memset/kernel enqueues, so the host-side cost is graph_launch no
  /// matter how many nodes the graph holds.
  Time launch_graph(Timeline& tl, Time gpu_duration, Breakdown* bd = nullptr,
                    Phase launch_phase = Phase::Other);

  /// Enqueue `gpu_duration` of device work that is a node of a graph whose
  /// cudaGraphLaunch was already charged (via launch_graph on the first
  /// node's stream): the node costs no additional host time.
  Time enqueue_graphed(Timeline& tl, Time gpu_duration);

  /// Block the host actor until all enqueued work completed
  /// (cudaStreamSynchronize).
  void synchronize(Timeline& tl, Breakdown* bd = nullptr,
                   Phase phase = Phase::Other);

  /// Completion time of the last enqueued operation.
  [[nodiscard]] Time tail() const { return tail_; }

 private:
  Gpu* gpu_;
  Time tail_ = Time::zero();
};

/// One simulated GPU. Owns a device heap (real memory), streams, and the
/// attribute cache that ZFP-OPT introduces.
class Gpu {
 public:
  explicit Gpu(GpuSpec spec, int num_streams = 8);
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  [[nodiscard]] const GpuSpec& spec() const { return spec_; }
  [[nodiscard]] const CostModel& costs() const { return spec_.costs; }

  // --- device memory (real bytes, modeled allocation time) ---
  //
  // Fresh device memory has indeterminate contents, as with cudaMalloc:
  // callers must write bytes before they read them. The asan-ubsan CI job
  // enforces this by filling every fresh allocation with 0xA5: the
  // sanitizer's malloc_fill_byte fills heap blocks, and util::allocate_pages
  // fills the mapped ones.

  /// cudaMalloc: real allocation + virtual-time driver cost. Contents are
  /// indeterminate. Callers write the block in full, so a block of 2 MiB or
  /// more is a 2 MiB-aligned huge-page mapping (util::allocate_pages).
  void* malloc_device(Timeline& tl, std::size_t bytes, Breakdown* bd = nullptr);
  /// cudaFree (charged off the critical path rarely matters; still modeled).
  void free_device(Timeline& tl, void* p, Breakdown* bd = nullptr);
  /// Allocation with *no* time charge — used at init time (MPI_Init pools).
  /// Contents are indeterminate. Heap-backed at any size, so pages past the
  /// prefix a pool buffer's users write are never faulted in.
  void* malloc_device_untimed(std::size_t bytes);
  void free_device_untimed(void* p);

  /// True if `p` points into this device's heap (any offset).
  [[nodiscard]] bool owns(const void* p) const;
  /// Bytes usable at `p` (p must be the start of an allocation).
  [[nodiscard]] std::size_t allocation_size(const void* p) const;
  [[nodiscard]] std::size_t bytes_in_use() const { return bytes_in_use_; }
  [[nodiscard]] std::size_t allocation_count() const { return allocations_.size(); }

  // --- copies ---

  /// Blocking cudaMemcpy D2H of a small control word (the MPC size fetch).
  void memcpy_d2h_small(Timeline& tl, void* dst, const void* src,
                        std::size_t bytes, Breakdown* bd = nullptr);
  /// GDRCopy read of a small control word (the MPC-OPT optimization).
  void gdrcopy_small(Timeline& tl, void* dst, const void* src,
                     std::size_t bytes, Breakdown* bd = nullptr);

  // --- device attribute queries (the ZFP-OPT fix, Sec. V) ---

  /// cudaGetDeviceProperties: full property struct, ~1.84 ms every call.
  int query_max_grid_dim_via_properties(Timeline& tl, Breakdown* bd = nullptr);
  /// cudaDeviceGetAttribute with static caching: first call ~15 us, then ~1 us.
  int query_max_grid_dim_cached(Timeline& tl, Breakdown* bd = nullptr);
  [[nodiscard]] bool attribute_cache_warm() const { return attr_cached_; }

  // --- streams ---
  [[nodiscard]] Stream& stream(int i) { return streams_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int num_streams() const { return static_cast<int>(streams_.size()); }
  /// Wait for *all* streams (cudaDeviceSynchronize).
  void device_synchronize(Timeline& tl, Breakdown* bd = nullptr);

 private:
  friend class Stream;
  /// Frees one allocation: page-allocated (`paged`) or plain heap.
  struct Release {
    std::size_t bytes = 0;
    bool paged = false;
    void operator()(std::byte* p) const noexcept;
  };
  using Block = std::unique_ptr<std::byte, Release>;

  void* allocate(std::size_t bytes, bool paged);

  GpuSpec spec_;
  std::vector<Stream> streams_;
  // Heap: start address -> owning storage, which knows its size. std::map
  // keeps ordering for the `owns` containment query.
  std::map<std::uintptr_t, Block> allocations_;
  std::size_t bytes_in_use_ = 0;
  bool attr_cached_ = false;
  int max_grid_dim_ = 2147483647;  // CUDA maxGridSize[0] on both parts
};

}  // namespace gcmpi::gpu
