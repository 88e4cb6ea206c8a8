#include "core/header.hpp"

#include <stdexcept>

namespace gcmpi::core {

namespace {
using wire::get;
using wire::put;
constexpr const char* kTruncated = "CompressionHeader: truncated";
}  // namespace

std::size_t CompressionHeader::wire_bytes() const {
  const std::size_t base = 1 + 1 + 8 + 8 + 4 + 2 + 4 + 2 + 2 + partition_bytes.size() * 4;
  return base + (pipeline_chunks >= 2 ? 4 + 8 : 0);
}

std::vector<std::uint8_t> CompressionHeader::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_bytes());
  put<std::uint8_t>(out, static_cast<std::uint8_t>(algorithm));
  put<std::uint8_t>(out, compressed ? 1 : 0);
  put<std::uint64_t>(out, original_bytes);
  put<std::uint64_t>(out, compressed_bytes);
  put<std::uint32_t>(out, payload_crc32c);
  put<std::uint16_t>(out, mpc_dimensionality);
  put<std::uint32_t>(out, mpc_chunk_values);
  put<std::uint16_t>(out, zfp_rate);
  put<std::uint16_t>(out, static_cast<std::uint16_t>(partition_bytes.size()));
  for (std::uint32_t b : partition_bytes) put<std::uint32_t>(out, b);
  if (pipeline_chunks >= 2) {
    put<std::uint32_t>(out, pipeline_chunks);
    put<std::uint64_t>(out, pipeline_chunk_bytes);
  }
  return out;
}

CompressionHeader CompressionHeader::deserialize(std::span<const std::uint8_t> in) {
  CompressionHeader h;
  std::size_t pos = 0;
  const auto alg = get<std::uint8_t>(in, pos, kTruncated);
  if (alg > 2) throw std::invalid_argument("CompressionHeader: bad algorithm");
  h.algorithm = static_cast<Algorithm>(alg);
  h.compressed = get<std::uint8_t>(in, pos, kTruncated) != 0;
  h.original_bytes = get<std::uint64_t>(in, pos, kTruncated);
  h.compressed_bytes = get<std::uint64_t>(in, pos, kTruncated);
  h.payload_crc32c = get<std::uint32_t>(in, pos, kTruncated);
  h.mpc_dimensionality = get<std::uint16_t>(in, pos, kTruncated);
  h.mpc_chunk_values = get<std::uint32_t>(in, pos, kTruncated);
  h.zfp_rate = get<std::uint16_t>(in, pos, kTruncated);
  const auto nparts = get<std::uint16_t>(in, pos, kTruncated);
  h.partition_bytes.reserve(nparts);
  for (std::uint16_t i = 0; i < nparts; ++i) {
    h.partition_bytes.push_back(get<std::uint32_t>(in, pos, kTruncated));
  }
  if (pos != in.size()) {
    // Pipeline announcement record, present only on pipelined RTS headers.
    h.pipeline_chunks = get<std::uint32_t>(in, pos, kTruncated);
    h.pipeline_chunk_bytes = get<std::uint64_t>(in, pos, kTruncated);
    if (h.pipeline_chunks < 2) {
      throw std::invalid_argument("CompressionHeader: bad pipeline record");
    }
  }
  if (pos != in.size()) throw std::invalid_argument("CompressionHeader: trailing bytes");
  return h;
}

}  // namespace gcmpi::core
