// GPU model tests: heap registry, cost charging, stream overlap semantics,
// buffer pool behaviour, attribute caching.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "gpu/buffer.hpp"
#include "gpu/buffer_pool.hpp"
#include "gpu/device.hpp"
#include "sim/timeline.hpp"
#include "util/pages.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace {

using namespace gcmpi::gpu;
using gcmpi::sim::Breakdown;
using gcmpi::sim::Phase;
using gcmpi::sim::Time;
using gcmpi::sim::Timeline;
using gcmpi::util::kHugePageBytes;

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Resident bytes of this process (/proc/self/statm, read only).
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// The bracketed transparent huge page mode ("always", "madvise", "never"),
/// or "" where the kernel does not report one. Read only.
std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const auto open = line.find('[');
  const auto close = line.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

TEST(GpuSpecs, Presets) {
  EXPECT_EQ(v100_spec().sm_count, 80);
  EXPECT_DOUBLE_EQ(v100_spec().compute_scale, 1.0);
  EXPECT_LT(rtx5000_spec().compute_scale, 1.0);
}

TEST(GpuHeap, OwnershipAndContainment) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  void* a = gpu.malloc_device(tl, 1000);
  void* b = gpu.malloc_device(tl, 2000);
  EXPECT_TRUE(gpu.owns(a));
  EXPECT_TRUE(gpu.owns(static_cast<char*>(a) + 999));
  EXPECT_TRUE(gpu.owns(b));
  EXPECT_FALSE(gpu.owns(&gpu));
  EXPECT_EQ(gpu.allocation_size(a), 1000u);
  EXPECT_EQ(gpu.bytes_in_use(), 3000u);
  gpu.free_device(tl, a);
  EXPECT_FALSE(gpu.owns(a));
  EXPECT_EQ(gpu.bytes_in_use(), 2000u);
  gpu.free_device(tl, b);
  EXPECT_THROW(gpu.free_device_untimed(b), std::invalid_argument);
}

// malloc_device keeps the same heap accounting on both sides of the size at
// which blocks become huge-page mappings.
class GpuHeapSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpuHeapSizes, AccountingAndAlignment) {
  const std::size_t bytes = GetParam();
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  void* p = gpu.malloc_device(tl, bytes);
  const auto* c = static_cast<const char*>(p);
  EXPECT_TRUE(gpu.owns(p));
  EXPECT_TRUE(gpu.owns(c + bytes - 1));
  EXPECT_FALSE(gpu.owns(c + bytes));
  EXPECT_EQ(gpu.allocation_size(p), bytes);
  EXPECT_EQ(gpu.bytes_in_use(), bytes);
  EXPECT_EQ(gpu.allocation_count(), 1u);
  if (bytes >= kHugePageBytes) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes, 0u);
  }
  std::memset(p, 0x5A, bytes);  // the whole block is writable
  gpu.free_device(tl, p);
  EXPECT_FALSE(gpu.owns(p));
  EXPECT_EQ(gpu.bytes_in_use(), 0u);
  EXPECT_EQ(gpu.allocation_count(), 0u);
}

TEST_P(GpuHeapSizes, OutOfMemoryThrowsAtTheSameSize) {
  const std::size_t bytes = GetParam();
  GpuSpec spec = v100_spec();
  spec.memory_bytes = bytes - 1;
  Gpu tight(spec);
  Timeline tl(Time::zero());
  EXPECT_THROW((void)tight.malloc_device(tl, bytes), std::runtime_error);
  EXPECT_EQ(tight.allocation_count(), 0u);
  spec.memory_bytes = bytes;
  Gpu exact(spec);
  void* p = exact.malloc_device(tl, bytes);
  EXPECT_EQ(exact.bytes_in_use(), bytes);
  exact.free_device(tl, p);
}

INSTANTIATE_TEST_SUITE_P(AroundTheHugePageSize, GpuHeapSizes,
                         ::testing::Values(kHugePageBytes - 1, kHugePageBytes,
                                           kHugePageBytes + 1, std::size_t{16} << 20));

TEST(GpuHeap, FreshMappedBlockHoldsTheSanitizerFill) {
#if defined(__SANITIZE_ADDRESS__)
  // The sanitizer's malloc_fill_byte does not reach mmap, and a fresh
  // mapping reads as zeros: a read of unwritten device bytes must see the
  // same 0xA5 as on the heap, and the slack past the block must trap.
  constexpr std::size_t kBytes = std::size_t{4} << 20;
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  const auto* p = static_cast<const std::uint8_t*>(gpu.malloc_device(tl, kBytes));
  EXPECT_TRUE(std::all_of(p, p + kBytes, [](std::uint8_t b) { return b == 0xA5; }));
  const auto* q = static_cast<const std::uint8_t*>(gpu.malloc_device(tl, kBytes + 1));
  EXPECT_EQ(q[kBytes], 0xA5);
  EXPECT_TRUE(__asan_address_is_poisoned(q + kBytes + 1));
#else
  GTEST_SKIP() << "the 0xA5 fill of mapped blocks is an AddressSanitizer-build contract";
#endif
}

TEST(GpuHeap, LargeBlockFaultsInAsHugePages) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the sanitizer fill touches every page at allocation";
#elif defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer's shadow of the block faults in 4 KiB at a time";
#else
  const std::string mode = thp_mode();
  if (mode.empty() || mode == "never") {
    GTEST_SKIP() << "transparent huge pages are off (mode '" << mode << "')";
  }
  constexpr std::size_t kBytes = std::size_t{16} << 20;  // 4096 base pages
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  void* p = gpu.malloc_device(tl, kBytes);
  const long before = minor_faults();
  std::memset(p, 1, kBytes);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 64) << "writing 16 MiB of device memory took " << faults << " faults";
  gpu.free_device(tl, p);
#endif
}

TEST(GpuHeap, OutOfMemoryThrows) {
  GpuSpec spec = v100_spec();
  spec.memory_bytes = 1024;
  Gpu gpu(spec);
  EXPECT_THROW(gpu.malloc_device_untimed(2048), std::runtime_error);
}

TEST(GpuCosts, MallocChargesGrowWithSize) {
  Gpu gpu(v100_spec());
  Timeline t1(Time::zero()), t2(Time::zero());
  Breakdown bd;
  (void)gpu.malloc_device(t1, 1 << 20, &bd);
  (void)gpu.malloc_device(t2, 32 << 20);
  EXPECT_GT(t2.now(), t1.now());
  EXPECT_GT(t1.now(), Time::us(200));  // base driver cost
  EXPECT_EQ(bd.get(Phase::MemoryAllocation), t1.now());
}

TEST(GpuCosts, CopyCostsMatchCalibration) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  std::uint32_t dst = 0;
  const std::uint32_t src = 42;
  gpu.memcpy_d2h_small(tl, &dst, &src, 4);
  EXPECT_EQ(tl.now(), Time::us(20));  // the paper's ~20us cudaMemcpy
  EXPECT_EQ(dst, 42u);
  Timeline tg(Time::zero());
  std::uint32_t dst2 = 0;
  gpu.gdrcopy_small(tg, &dst2, &src, 4);
  EXPECT_EQ(tg.now(), Time::us(3));  // GDRCopy 1-5us
  EXPECT_EQ(dst2, 42u);
}

TEST(GpuStreams, LaunchIsAsyncAndSyncWaits) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  Stream& s = gpu.stream(0);
  const Time done = s.launch(tl, Time::us(100));
  // Host only paid the launch overhead; the kernel completes later.
  EXPECT_EQ(tl.now(), gpu.costs().kernel_launch);
  EXPECT_EQ(done, gpu.costs().kernel_launch + Time::us(100));
  s.synchronize(tl);
  EXPECT_EQ(tl.now(), done + gpu.costs().stream_sync);
}

TEST(GpuStreams, SameStreamSerializesDifferentStreamsOverlap) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  Stream& s0 = gpu.stream(0);
  const Time d0 = s0.launch(tl, Time::us(100));
  const Time d1 = s0.launch(tl, Time::us(100));
  EXPECT_EQ(d1 - d0, Time::us(100));  // serialized on one stream

  Timeline tl2(Time::zero());
  Gpu gpu2(v100_spec());
  const Time a = gpu2.stream(0).launch(tl2, Time::us(100));
  const Time b = gpu2.stream(1).launch(tl2, Time::us(100));
  // Overlapping streams: completion gap is only the launch stagger.
  EXPECT_EQ(b - a, gpu2.costs().kernel_launch);
}

TEST(GpuStreams, DeviceSynchronizeWaitsForAllStreams) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  gpu.stream(0).launch(tl, Time::us(50));
  const Time longest = gpu.stream(1).launch(tl, Time::us(500));
  gpu.device_synchronize(tl);
  EXPECT_EQ(tl.now(), longest + gpu.costs().stream_sync);
}

TEST(GpuAttributes, PropertiesQueryIsSlowCachedIsFast) {
  Gpu gpu(v100_spec());
  Timeline tl(Time::zero());
  (void)gpu.query_max_grid_dim_via_properties(tl);
  EXPECT_EQ(tl.now(), Time::us(1840));  // Sec. V-A measurement
  (void)gpu.query_max_grid_dim_via_properties(tl);
  EXPECT_EQ(tl.now(), Time::us(3680));  // charged every call

  Gpu gpu2(v100_spec());
  Timeline t2(Time::zero());
  EXPECT_FALSE(gpu2.attribute_cache_warm());
  (void)gpu2.query_max_grid_dim_cached(t2);
  EXPECT_TRUE(gpu2.attribute_cache_warm());
  const Time first = t2.now();
  (void)gpu2.query_max_grid_dim_cached(t2);
  EXPECT_EQ(t2.now() - first, Time::us(1));  // ~1us after caching (Sec. V-B)
}

TEST(DeviceBuffer, RaiiMoveSemantics) {
  Gpu gpu(v100_spec());
  DeviceBuffer a(gpu, 4096);
  EXPECT_EQ(gpu.bytes_in_use(), 4096u);
  EXPECT_EQ(a.size(), 4096u);
  DeviceBuffer b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.size(), 4096u);
  EXPECT_EQ(gpu.bytes_in_use(), 4096u);
  b.reset();
  EXPECT_EQ(gpu.bytes_in_use(), 0u);
}

TEST(BufferPool, PreallocatedAcquireIsFree) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1 << 20, 3);
  EXPECT_EQ(pool.free_buffers(), 3u);
  Timeline tl(Time::zero());
  auto lease = pool.acquire(tl, 1000);
  EXPECT_EQ(tl.now(), Time::zero());  // no cudaMalloc on the critical path
  EXPECT_TRUE(lease.valid());
  EXPECT_EQ(pool.free_buffers(), 2u);
  pool.release(lease);
  EXPECT_EQ(pool.free_buffers(), 3u);
}

TEST(BufferPool, ExhaustionGrowsWithTimedMalloc) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1 << 20, 1);
  Timeline tl(Time::zero());
  auto l1 = pool.acquire(tl, 100);
  EXPECT_EQ(tl.now(), Time::zero());
  auto l2 = pool.acquire(tl, 100);  // pool empty -> grow on demand
  EXPECT_GT(tl.now(), Time::zero());
  EXPECT_EQ(pool.grow_count(), 1u);
  pool.release(l1);
  pool.release(l2);
  EXPECT_EQ(pool.free_buffers(), 2u);
}

TEST(BufferPool, OversizedRequestGrows) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1024, 2);
  Timeline tl(Time::zero());
  auto lease = pool.acquire(tl, 1 << 20);
  EXPECT_GE(lease.size, std::size_t{1} << 20);
  EXPECT_EQ(pool.grow_count(), 1u);
  pool.release(lease);
}

TEST(BufferPool, OversizedBufferIsReusedAfterRelease) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1024, 1);
  Timeline tl(Time::zero());
  auto big = pool.acquire(tl, 1 << 20);  // dedicated oversized buffer
  EXPECT_EQ(pool.grow_count(), 1u);
  pool.release(big);
  // A second oversized request reuses the released buffer: no new malloc,
  // no time charged, and the lease reports the buffer's true capacity.
  const Time before = tl.now();
  auto again = pool.acquire(tl, 1 << 20);
  EXPECT_EQ(tl.now(), before);
  EXPECT_EQ(pool.grow_count(), 1u);
  EXPECT_EQ(again.data, big.data);
  EXPECT_GE(again.size, std::size_t{1} << 20);
  pool.release(again);
}

TEST(BufferPool, BestFitPrefersSmallestSufficientBuffer) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1024, 2);
  Timeline tl(Time::zero());
  auto big = pool.acquire(tl, 8192);
  pool.release(big);  // free list: two 1 KiB buffers + one 8 KiB buffer
  // A small request must take a 1 KiB buffer, keeping the 8 KiB one free
  // for the next oversized request.
  auto small = pool.acquire(tl, 512);
  EXPECT_EQ(small.size, 1024u);
  auto oversized = pool.acquire(tl, 4096);
  EXPECT_EQ(oversized.data, big.data);
  EXPECT_EQ(pool.grow_count(), 1u);  // only the original oversized malloc
  pool.release(small);
  pool.release(oversized);
}

TEST(BufferPool, ExhaustionGrowthIsGeometric) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1 << 16, 2);
  Timeline tl(Time::zero());
  auto l1 = pool.acquire(tl, 100);
  auto l2 = pool.acquire(tl, 100);
  EXPECT_EQ(tl.now(), Time::zero());
  // Third acquire drains the pool: it doubles (2 -> 4 buffers) with ONE
  // timed slab malloc, so the fourth acquire is free again.
  auto l3 = pool.acquire(tl, 100);
  const Time after_grow = tl.now();
  EXPECT_GT(after_grow, Time::zero());
  EXPECT_EQ(pool.grow_count(), 1u);
  EXPECT_EQ(pool.total_buffers(), 4u);
  auto l4 = pool.acquire(tl, 100);
  EXPECT_EQ(tl.now(), after_grow);
  EXPECT_EQ(pool.grow_count(), 1u);
  EXPECT_EQ(pool.acquire_count(), 4u);
  for (auto* l : {&l1, &l2, &l3, &l4}) pool.release(*l);
  EXPECT_EQ(pool.free_buffers(), 4u);
}

TEST(BufferPool, FreshPoolIsNotFaultedIn) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "ASan's malloc fill touches every page on purpose";
#else
  // cudaMalloc contract: fresh device memory is indeterminate, so the
  // simulator must not zero-fill MPI_Init's staging pool. A value-
  // initializing allocator would fault in every one of its 4 KiB pages.
  constexpr std::size_t kBufferBytes = std::size_t{40} << 20;
  constexpr std::size_t kCount = 4;
  constexpr long kPages = static_cast<long>(kBufferBytes * kCount / 4096);
  Gpu gpu(v100_spec());
  const long before = minor_faults();
  BufferPool pool(gpu, kBufferBytes, kCount);
  const long faults = minor_faults() - before;
  EXPECT_EQ(pool.total_buffers(), kCount);
  EXPECT_LT(faults, kPages / 100) << "pool construction faulted in " << faults
                                  << " of " << kPages << " pages";
#endif
}

TEST(BufferPool, ReservationsStayOnBasePages) {
#ifdef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "ASan's malloc fill touches every page on purpose";
#else
  if (thp_mode() == "always") {
    GTEST_SKIP() << "every large heap block may take huge pages in THP mode 'always'";
  }
  // A pool buffer is a reservation of which only the written prefix may
  // become resident; on huge pages a 64 KiB write would make 2 MiB resident.
  constexpr std::size_t kBufferBytes = std::size_t{40} << 20;
  constexpr std::size_t kWritten = std::size_t{64} << 10;
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, kBufferBytes, 1);
  Timeline tl(Time::zero());
  const std::size_t before = resident_bytes();
  auto lease = pool.acquire(tl, kWritten);
  std::memset(lease.data, 1, kWritten);
  const std::size_t after = resident_bytes();
  const std::size_t added = after > before ? after - before : 0;
  EXPECT_LT(added, std::size_t{1} << 20) << "64 KiB written made " << added << " bytes resident";
  pool.release(lease);
#endif
}

TEST(BufferPool, StaleLeaseRejected) {
  Gpu gpu(v100_spec());
  BufferPool pool(gpu, 1024, 1);
  BufferPool::Lease bogus{reinterpret_cast<void*>(0x1234), 1024, 0};
  EXPECT_THROW(pool.release(bogus), std::invalid_argument);
}

}  // namespace
