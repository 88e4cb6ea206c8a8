// Elementwise reduction primitives shared by the collective engine.
//
// The canonical convention, relied on by every determinism test: the
// accumulator is always the FIRST operand, so `reduce_inplace(acc, in)`
// computes acc[i] = op(acc[i], in[i]). With IEEE floats this makes the
// result depend only on the *fold order*, which each collective algorithm
// fixes canonically (see core/collective.hpp), never on delivery timing.
//
// The NaN convention follows std::max/std::min: if acc[i] is NaN the
// accumulator is kept, if in[i] is NaN the comparison is false and acc[i]
// is kept too. Sum propagates NaN as IEEE addition does. The host oracle
// in core::allreduce_oracle uses these exact primitives, so fused GPU
// reductions must match it bit-for-bit on lossless codecs.
//
// From 128 Ki values on, reduce_inplace runs in pieces of 32 Ki values on
// util::parallel_for's pool. Each element depends on its own index only,
// so the split changes no bit of the result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gcmpi::comp {

enum class ReduceOp : std::uint8_t { Sum, Max, Min };

[[nodiscard]] const char* reduce_op_name(ReduceOp op);

/// acc[i] = op(acc[i], in[i]) for i in [0, n).
void reduce_inplace(float* acc, const float* in, std::size_t n, ReduceOp op);

}  // namespace gcmpi::comp
