#include "mpi/channel.hpp"

#include <stdexcept>

namespace gcmpi::mpi {

namespace {
using core::wire::get;
using core::wire::put;
constexpr const char* kTruncated = "RepeatHeader: truncated";
}  // namespace

std::size_t RepeatHeader::wire_bytes() const {
  return 4 + 4 + 8 + 4 + 1 + 1 + partition_bytes.size() * 4;
}

std::vector<std::uint8_t> RepeatHeader::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(wire_bytes());
  put<std::uint32_t>(out, channel);
  put<std::uint32_t>(out, seq);
  put<std::uint64_t>(out, wire_len);
  put<std::uint32_t>(out, crc32c);
  put<std::uint8_t>(out, flags);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(partition_bytes.size()));
  for (std::uint32_t b : partition_bytes) put<std::uint32_t>(out, b);
  return out;
}

RepeatHeader RepeatHeader::deserialize(std::span<const std::uint8_t> in) {
  RepeatHeader r;
  std::size_t pos = 0;
  r.channel = get<std::uint32_t>(in, pos, kTruncated);
  r.seq = get<std::uint32_t>(in, pos, kTruncated);
  r.wire_len = get<std::uint64_t>(in, pos, kTruncated);
  r.crc32c = get<std::uint32_t>(in, pos, kTruncated);
  r.flags = get<std::uint8_t>(in, pos, kTruncated);
  const auto nparts = get<std::uint8_t>(in, pos, kTruncated);
  r.partition_bytes.reserve(nparts);
  for (std::uint8_t i = 0; i < nparts; ++i) {
    r.partition_bytes.push_back(get<std::uint32_t>(in, pos, kTruncated));
  }
  if (pos != in.size()) throw std::invalid_argument("RepeatHeader: trailing bytes");
  return r;
}

core::CompressionHeader RepeatHeader::expand(const core::CompressionHeader& tmpl) const {
  core::CompressionHeader h = tmpl;
  h.compressed = compressed();
  h.compressed_bytes = wire_len;
  h.payload_crc32c = crc32c;
  h.partition_bytes = partition_bytes;
  if (!h.compressed) {
    // Raw payloads (incompressible fallback or decode-fault degrade) are
    // described by a plain header, exactly as the cold protocol's raw wire.
    h.algorithm = core::Algorithm::None;
  }
  return h;
}

core::CompressionHeader make_channel_template(const core::CompressionHeader& first,
                                              std::uint64_t bytes) {
  core::CompressionHeader t;
  // Shape-invariant control parameters ("A" fields): survive in the
  // template. A channel warmed on a raw first message still records the
  // codec the route is configured for via the caller overriding algorithm.
  t.algorithm = first.algorithm;
  t.original_bytes = bytes;
  t.mpc_dimensionality = first.mpc_dimensionality;
  t.mpc_chunk_values = first.mpc_chunk_values;
  t.zfp_rate = first.zfp_rate;
  // Per-message results ("B" fields) travel in each RepeatHeader instead.
  t.compressed = false;
  t.compressed_bytes = 0;
  t.payload_crc32c = 0;
  return t;
}

}  // namespace gcmpi::mpi
