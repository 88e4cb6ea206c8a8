#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace gcmpi::util {

namespace {

// How long an idle worker polls for the next call before it blocks, and
// how many pauses a waiting thread spins between yields of its CPU.
constexpr std::chrono::microseconds kSpinWindow{4000};
constexpr unsigned kPausesPerYield = 8;

// One step of a polite busy wait: mostly pauses, every kPausesPerYield-th
// step a yield, so a waiting thread gives its core to any runnable one.
void relax(unsigned& step) {
  if (++step % kPausesPerYield == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// True while this thread runs a piece: a call made from a piece runs inline.
thread_local bool t_in_piece = false;

// One call's pieces. The caller and any workers that join run work(),
// which claims pieces until none is left.
class Job {
 public:
  Job(std::size_t n, std::size_t grain, detail::PieceFn fn, void* body)
      : n_(n), grain_(grain), pieces_((n + grain - 1) / grain), fn_(fn), body_(body) {}

  void work() {
    const bool outer = t_in_piece;
    t_in_piece = true;
    for (std::size_t i = 0; (i = next_.fetch_add(1, std::memory_order_relaxed)) < pieces_;) {
      const std::size_t begin = i * grain_;
      try {
        fn_(body_, begin, std::min(n_, begin + grain_));
      } catch (...) {
        const std::lock_guard lock(error_mutex_);
        if (i < error_piece_) {
          error_piece_ = i;
          error_ = std::current_exception();
        }
      }
      finished_.fetch_add(1, std::memory_order_release);
    }
    t_in_piece = outer;
  }

  /// Every piece has finished; its writes are visible to the caller.
  [[nodiscard]] bool done() const {
    return finished_.load(std::memory_order_acquire) == pieces_;
  }

  /// Rethrows the lowest-index failure; call after done().
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t n_;
  const std::size_t grain_;
  const std::size_t pieces_;
  const detail::PieceFn fn_;
  void* const body_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> finished_{0};
  std::mutex error_mutex_;
  std::size_t error_piece_ = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error_;
};

class Pool {
 public:
  explicit Pool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { serve(); });
  }

  ~Pool() {
    stop_.store(true);
    { const std::lock_guard lock(mutex_); }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Runs `job` on the caller and the workers and returns once it is done
  /// and no worker still holds it; false, without running anything, when
  /// there are no workers or another thread's job holds the pool.
  bool run(Job& job) {
    if (threads_.empty()) return false;
    const std::unique_lock submit(submit_, std::try_to_lock);
    if (!submit.owns_lock()) return false;
    current_.store(&job);
    epoch_.fetch_add(1);
    if (sleepers_.load() != 0) {
      { const std::lock_guard lock(mutex_); }
      cv_.notify_all();
    }
    job.work();
    // Every piece is claimed by now: wait only for the ones still running.
    for (unsigned step = 0; !job.done();) relax(step);
    // A worker that loaded `current_` before this store holds `active_`.
    current_.store(nullptr);
    for (unsigned step = 0; active_.load() != 0;) relax(step);
    return true;
  }

 private:
  void serve() {
    std::uint64_t seen = 0;
    for (;;) {
      seen = next_call(seen);
      if (stop_.load()) return;
      active_.fetch_add(1);
      if (Job* job = current_.load()) job->work();
      active_.fetch_sub(1);
    }
  }

  /// Waits for an epoch after `seen` (or for stop): polls for kSpinWindow,
  /// then blocks until a caller notifies.
  std::uint64_t next_call(std::uint64_t seen) {
    const auto called = [&] { return epoch_.load() != seen || stop_.load(); };
    const auto give_up = std::chrono::steady_clock::now() + kSpinWindow;
    for (unsigned step = 0; !called();) {
      relax(step);
      if (step % kPausesPerYield == 0 && std::chrono::steady_clock::now() >= give_up) {
        std::unique_lock lock(mutex_);
        ++sleepers_;
        cv_.wait(lock, called);
        --sleepers_;
      }
    }
    return epoch_.load();
  }

  std::mutex submit_;  // held by the one caller whose job is current
  std::atomic<Job*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{0};  // one more per published job
  std::atomic<std::size_t> active_{0};   // workers between loading current_ and leaving it
  std::atomic<bool> stop_{false};
  std::mutex mutex_;  // guards blocking: sleepers_ changes and cv_ waits
  std::condition_variable cv_;
  std::atomic<std::size_t> sleepers_{0};
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

std::size_t affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

Pool& pool() {
  static Pool p(affinity_cpus() - 1);
  return p;
}

}  // namespace

void detail::parallel_for(std::size_t n, std::size_t grain, PieceFn fn, void* body) {
  grain = std::max<std::size_t>(grain, 1);
  if (n <= grain) {
    if (n != 0) fn(body, 0, n);
    return;
  }
  Job job(n, grain, fn, body);
  if (t_in_piece || !pool().run(job)) job.work();
  job.rethrow();
}

void copy_bytes(void* dst, const void* src, std::size_t bytes) {
  auto* d = static_cast<std::uint8_t*>(dst);
  const auto* s = static_cast<const std::uint8_t*>(src);
  parallel_for(bytes, bytes < kCopySplitBytes ? bytes : kCopyPieceBytes,
               [d, s](std::size_t begin, std::size_t end) {
                 std::memcpy(d + begin, s + begin, end - begin);
               });
}

}  // namespace gcmpi::util
