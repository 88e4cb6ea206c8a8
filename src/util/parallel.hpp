// One process-wide fork-join pool for the large host kernel bodies: the
// wire CRC, the MPC chunk loops, the elementwise reductions and the
// delivery copies. Each of those bodies computes a pure function of its
// input into disjoint output, so splitting one across cores and joining
// before it returns changes no output byte, no event order and no virtual
// time; only wall time moves.
//
// parallel_for(n, grain, body) cuts [0, n) into pieces of `grain` items
// (the last one shorter) and runs body(begin, end) once per piece. The
// caller and the workers claim pieces from one atomic counter, so the
// caller never waits on a piece nobody has claimed, and the call returns
// only after every piece has finished. If pieces throw, the exception of
// the lowest-index failing piece is rethrown after all of them have run.
//
// The pool holds one worker per CPU of the process's affinity mask, minus
// one for the caller, and starts at the first call that splits. A call runs
// inline, on the same piece loop, when it has fewer than two pieces, when
// it is made from inside a piece, when another thread's call holds the
// pool, or when the process has a single CPU.
//
// An idle worker waits about 4 ms for the next call before it blocks:
// pieces here take tens of microseconds, and a worker that blocks and is
// woken costs more than the pieces it saves (DESIGN.md, section 15). While
// it waits it yields the CPU after every few pauses, so concurrent
// processes keep their cores.
#pragma once

#include <cstddef>
#include <type_traits>

namespace gcmpi::util {

namespace detail {
using PieceFn = void (*)(void* body, std::size_t begin, std::size_t end);
void parallel_for(std::size_t n, std::size_t grain, PieceFn fn, void* body);
}  // namespace detail

/// Runs body(begin, end) over [0, n) in pieces of `grain` items (0 counts
/// as 1) on the pool; returns when every piece has finished.
template <class Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  using B = std::remove_reference_t<Body>;
  detail::parallel_for(
      n, grain,
      [](void* b, std::size_t begin, std::size_t end) { (*static_cast<B*>(b))(begin, end); },
      const_cast<void*>(static_cast<const void*>(&body)));
}

/// memcpy of `bytes` bytes, split across the pool from kCopySplitBytes.
/// The ranges must not overlap; null pointers are allowed when `bytes` is 0.
void copy_bytes(void* dst, const void* src, std::size_t bytes);

/// Smallest copy that copy_bytes splits, and its piece size.
inline constexpr std::size_t kCopySplitBytes = std::size_t{512} << 10;
inline constexpr std::size_t kCopyPieceBytes = std::size_t{128} << 10;

}  // namespace gcmpi::util
