#include "gpu/device.hpp"

#include <cstring>
#include <new>

#include "util/pages.hpp"

namespace gcmpi::gpu {

GpuSpec v100_spec() {
  GpuSpec s;
  s.name = "Tesla V100";
  s.sm_count = 80;
  s.peak_fp32_tflops = 14.0;
  s.mem_bandwidth_gbs = 900.0;
  s.compute_scale = 1.0;
  s.memory_bytes = 16ULL << 30;
  return s;
}

GpuSpec rtx5000_spec() {
  GpuSpec s;
  s.name = "Quadro RTX 5000";
  s.sm_count = 48;
  s.peak_fp32_tflops = 11.2;
  s.mem_bandwidth_gbs = 448.0;
  s.compute_scale = 0.55;  // Table-III throughputs rescaled from V100
  s.memory_bytes = 16ULL << 30;
  return s;
}

namespace {
void charge(Timeline& tl, Time t, Breakdown* bd, Phase phase) {
  tl.advance(t);
  if (bd != nullptr) bd->add(phase, t);
}
}  // namespace

Time Stream::launch(Timeline& tl, Time gpu_duration, Breakdown* bd, Phase launch_phase) {
  const Time launch_cost = gpu_->costs().kernel_launch;
  charge(tl, launch_cost, bd, launch_phase);
  const Time start = tail_ > tl.now() ? tail_ : tl.now();
  tail_ = start + gpu_duration;
  return tail_;
}

Time Stream::launch_graph(Timeline& tl, Time gpu_duration, Breakdown* bd, Phase launch_phase) {
  const Time launch_cost = gpu_->costs().graph_launch;
  charge(tl, launch_cost, bd, launch_phase);
  const Time start = tail_ > tl.now() ? tail_ : tl.now();
  tail_ = start + gpu_duration;
  return tail_;
}

Time Stream::enqueue_graphed(Timeline& tl, Time gpu_duration) {
  const Time start = tail_ > tl.now() ? tail_ : tl.now();
  tail_ = start + gpu_duration;
  return tail_;
}

void Stream::synchronize(Timeline& tl, Breakdown* bd, Phase phase) {
  const Time overhead = gpu_->costs().stream_sync;
  if (tail_ > tl.now()) {
    const Time waited = tail_ - tl.now();
    tl.advance_to(tail_);
    if (bd != nullptr) bd->add(phase, waited);
  }
  charge(tl, overhead, bd, phase);
}

Gpu::Gpu(GpuSpec spec, int num_streams) : spec_(spec) {
  streams_.reserve(static_cast<std::size_t>(num_streams));
  for (int i = 0; i < num_streams; ++i) streams_.emplace_back(*this);
}

void Gpu::Release::operator()(std::byte* p) const noexcept {
  if (paged) {
    util::free_pages(p, bytes);
  } else {
    ::operator delete(p);
  }
}

void* Gpu::allocate(std::size_t bytes, bool paged) {
  if (bytes == 0) bytes = 1;
  if (bytes_in_use_ + bytes > spec_.memory_bytes) {
    throw std::runtime_error("Gpu: out of device memory");
  }
  // Left uninitialised, like cudaMalloc: pages stay unmapped until written.
  Block block(static_cast<std::byte*>(paged ? util::allocate_pages(bytes) : ::operator new(bytes)),
              Release{bytes, paged});
  void* p = block.get();
  allocations_.emplace(reinterpret_cast<std::uintptr_t>(p), std::move(block));
  bytes_in_use_ += bytes;
  return p;
}

void* Gpu::malloc_device_untimed(std::size_t bytes) { return allocate(bytes, false); }

void Gpu::free_device_untimed(void* p) {
  auto it = allocations_.find(reinterpret_cast<std::uintptr_t>(p));
  if (it == allocations_.end()) throw std::invalid_argument("Gpu::free: unknown pointer");
  bytes_in_use_ -= it->second.get_deleter().bytes;
  allocations_.erase(it);
}

void* Gpu::malloc_device(Timeline& tl, std::size_t bytes, Breakdown* bd) {
  charge(tl, spec_.costs.cuda_malloc(bytes), bd, Phase::MemoryAllocation);
  return allocate(bytes, true);
}

void Gpu::free_device(Timeline& tl, void* p, Breakdown* bd) {
  charge(tl, spec_.costs.cuda_free, bd, Phase::MemoryAllocation);
  free_device_untimed(p);
}

bool Gpu::owns(const void* p) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto it = allocations_.upper_bound(addr);
  if (it == allocations_.begin()) return false;
  --it;
  return addr < it->first + it->second.get_deleter().bytes;
}

std::size_t Gpu::allocation_size(const void* p) const {
  auto it = allocations_.find(reinterpret_cast<std::uintptr_t>(p));
  if (it == allocations_.end()) throw std::invalid_argument("Gpu::allocation_size: not a base pointer");
  return it->second.get_deleter().bytes;
}

void Gpu::memcpy_d2h_small(Timeline& tl, void* dst, const void* src,
                           std::size_t bytes, Breakdown* bd) {
  charge(tl, spec_.costs.cuda_memcpy_d2h_small, bd, Phase::DataCopies);
  std::memcpy(dst, src, bytes);
}

void Gpu::gdrcopy_small(Timeline& tl, void* dst, const void* src,
                        std::size_t bytes, Breakdown* bd) {
  charge(tl, spec_.costs.gdrcopy_small, bd, Phase::DataCopies);
  std::memcpy(dst, src, bytes);
}

int Gpu::query_max_grid_dim_via_properties(Timeline& tl, Breakdown* bd) {
  charge(tl, spec_.costs.device_properties_query, bd, Phase::DeviceQuery);
  return max_grid_dim_;
}

int Gpu::query_max_grid_dim_cached(Timeline& tl, Breakdown* bd) {
  if (!attr_cached_) {
    charge(tl, spec_.costs.device_attribute_query, bd, Phase::DeviceQuery);
    attr_cached_ = true;
  } else {
    charge(tl, spec_.costs.cached_attribute_read, bd, Phase::DeviceQuery);
  }
  return max_grid_dim_;
}

void Gpu::device_synchronize(Timeline& tl, Breakdown* bd) {
  Time latest = tl.now();
  for (const auto& s : streams_) {
    if (s.tail() > latest) latest = s.tail();
  }
  if (latest > tl.now()) {
    const Time waited = latest - tl.now();
    tl.advance_to(latest);
    if (bd != nullptr) bd->add(Phase::Other, waited);
  }
  charge(tl, spec_.costs.stream_sync, bd, Phase::Other);
}

}  // namespace gcmpi::gpu
