// RAII wrapper over a device allocation. Untimed acquisition/release —
// timed allocation on a critical path goes through Gpu::malloc_device at
// the call site so the cost can be attributed to the right breakdown phase.
#pragma once

#include <cstddef>
#include <utility>

#include "gpu/device.hpp"

namespace gcmpi::gpu {

class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Gpu& gpu, std::size_t bytes)
      : gpu_(&gpu), ptr_(gpu.malloc_device_untimed(bytes)), bytes_(bytes) {}
  ~DeviceBuffer() { reset(); }

  DeviceBuffer(DeviceBuffer&& o) noexcept
      : gpu_(o.gpu_), ptr_(o.ptr_), bytes_(o.bytes_) {
    o.gpu_ = nullptr;
    o.ptr_ = nullptr;
    o.bytes_ = 0;
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      gpu_ = std::exchange(o.gpu_, nullptr);
      ptr_ = std::exchange(o.ptr_, nullptr);
      bytes_ = std::exchange(o.bytes_, 0);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void reset() {
    if (gpu_ != nullptr && ptr_ != nullptr) gpu_->free_device_untimed(ptr_);
    gpu_ = nullptr;
    ptr_ = nullptr;
    bytes_ = 0;
  }

  [[nodiscard]] void* data() const { return ptr_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }
  [[nodiscard]] bool empty() const { return ptr_ == nullptr; }

 private:
  Gpu* gpu_ = nullptr;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace gcmpi::gpu
