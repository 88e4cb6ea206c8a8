// Storage for large buffers that are written in full right after they are
// allocated: simulated cudaMalloc blocks and owned wire payloads. A request
// of at least kHugePageBytes gets its own anonymous mapping aligned to
// 2 MiB, and the whole 2 MiB pages of it are advised MADV_HUGEPAGE, so the
// kernel faults it in 2 MiB at a time rather than 4 KiB at a time (real
// cudaMalloc is 2 MiB-granular as well). A smaller request comes from the
// heap. Where transparent huge pages are off, the advice has no effect and
// the mapping faults in base pages.
//
// A buffer of which only a prefix may ever be written (a staging-pool
// reservation) does not belong here: a touched huge page makes all of its
// 2 MiB resident.
//
// Contents of a fresh block are indeterminate. In AddressSanitizer builds a
// fresh mapping is filled with 0xA5, as the sanitizer's malloc_fill_byte=165
// fills heap blocks, and the page-rounding slack past the requested size is
// poisoned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace gcmpi::util {

/// Smallest request that is mapped instead of taken from the heap, and the
/// alignment of a mapped block.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// `bytes` bytes of indeterminate contents; throws std::bad_alloc.
[[nodiscard]] void* allocate_pages(std::size_t bytes);
/// Frees a block of allocate_pages; `bytes` is the size it was asked for.
void free_pages(void* p, std::size_t bytes) noexcept;

/// Standard allocator over allocate_pages / free_pages. Its users write
/// every element right after sizing a container, so sizing one
/// default-initialises (`std::vector<T, PageAllocator<T>>(n)` leaves
/// trivial elements indeterminate, as make_unique_for_overwrite does).
template <class T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(allocate_pages(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { free_pages(p, n * sizeof(T)); }

  /// Default-initialises; construction with arguments takes the
  /// std::allocator_traits default.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) = default;
};

/// Owned payload bytes (wire messages, segment copies, reassembly buffers).
using Bytes = std::vector<std::uint8_t, PageAllocator<std::uint8_t>>;

}  // namespace gcmpi::util
