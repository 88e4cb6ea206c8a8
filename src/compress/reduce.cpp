#include "compress/reduce.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace gcmpi::comp {

const char* reduce_op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum: return "sum";
    case ReduceOp::Max: return "max";
    case ReduceOp::Min: return "min";
  }
  return "?";
}

namespace {

// From kSplitValues values on, a reduction runs on the parallel pool in
// pieces of kPieceValues; each element depends on its own index only.
constexpr std::size_t kSplitValues = std::size_t{128} << 10;
constexpr std::size_t kPieceValues = std::size_t{32} << 10;

void reduce_range(float* acc, const float* in, std::size_t begin, std::size_t end, ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
      for (std::size_t i = begin; i < end; ++i) acc[i] += in[i];
      break;
    case ReduceOp::Max:
      for (std::size_t i = begin; i < end; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::Min:
      for (std::size_t i = begin; i < end; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}

}  // namespace

void reduce_inplace(float* acc, const float* in, std::size_t n, ReduceOp op) {
  util::parallel_for(n, n < kSplitValues ? n : kPieceValues,
                     [=](std::size_t begin, std::size_t end) {
                       reduce_range(acc, in, begin, end, op);
                     });
}

}  // namespace gcmpi::comp
