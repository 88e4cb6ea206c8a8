#include "util/pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace gcmpi::util {

namespace {

std::size_t round_up(std::size_t value, std::size_t to) { return (value + to - 1) / to * to; }

/// Length of the mapping behind a block of `bytes` bytes.
std::size_t mapped_length(std::size_t bytes) {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return round_up(bytes, page);
}

}  // namespace

void* allocate_pages(std::size_t bytes) {
  if (bytes < kHugePageBytes) return ::operator new(bytes);
  const std::size_t len = mapped_length(bytes);
  // Over-map by one huge page so that a 2 MiB-aligned start fits, then
  // return both ends to the kernel.
  const std::size_t span = len + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  auto* base = static_cast<std::byte*>(raw);
  const auto addr = reinterpret_cast<std::uintptr_t>(base);
  const std::size_t head = round_up(addr, kHugePageBytes) - addr;
  std::byte* p = base + head;
  if (head != 0) munmap(base, head);
  if (span - head > len) munmap(p + len, span - head - len);
  // Advise the whole huge pages only; a partial tail cannot hold one. The
  // advice may fail (no THP support); the block is still usable.
  (void)madvise(p, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
#if defined(__SANITIZE_ADDRESS__)
  std::memset(p, 0xA5, bytes);
  ASAN_POISON_MEMORY_REGION(p + bytes, len - bytes);
#endif
  return p;
}

void free_pages(void* p, std::size_t bytes) noexcept {
  if (bytes < kHugePageBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t len = mapped_length(bytes);
#if defined(__SANITIZE_ADDRESS__)
  // A later mapping may reuse these addresses.
  ASAN_UNPOISON_MEMORY_REGION(static_cast<std::byte*>(p) + bytes, len - bytes);
#endif
  munmap(p, len);
}

}  // namespace gcmpi::util
