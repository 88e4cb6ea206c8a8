// Compression header piggybacked on the rendezvous RTS packet (Fig. 3/4).
//
// Carries the control parameters ("A": algorithm + its kernel
// configuration) and the results of compression ("B": compressed sizes,
// per-partition sizes for MPC-OPT's multi-stream scheme) so the receiver
// can launch the matching decompression kernels without an extra message
// exchange. The struct serializes to a compact wire format so its on-wire
// size is charged accurately on the RTS.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"

namespace gcmpi::core {

struct CompressionHeader {
  Algorithm algorithm = Algorithm::None;
  bool compressed = false;  // false => payload sent raw (e.g. fallback)
  std::uint64_t original_bytes = 0;
  std::uint64_t compressed_bytes = 0;

  // CRC32C over the wire payload exactly as transmitted (compressed bytes
  // when `compressed`, raw bytes otherwise). Computed only when the wire
  // reliability layer is active (see DESIGN.md); 0 otherwise. Verified by
  // the receiver before decompression so a flipped bit in a compressed
  // stream can never fan out into the user buffer.
  std::uint32_t payload_crc32c = 0;

  // MPC control parameters + per-partition compressed sizes (bytes).
  std::uint16_t mpc_dimensionality = 1;
  std::uint32_t mpc_chunk_values = 1024;
  std::vector<std::uint32_t> partition_bytes;

  // ZFP control parameters (1D fixed-rate as used in the paper).
  std::uint16_t zfp_rate = 16;

  // Chunked pipelined rendezvous announcement (RTS only). When >= 2 the
  // payload follows as `pipeline_chunks` separate data packets of up to
  // `pipeline_chunk_bytes` original bytes each, every one carrying its own
  // per-chunk header sub-record and CRC32C. Serialized as a trailing record
  // only when pipelining is announced, so serial headers stay byte-for-byte
  // identical to the pre-pipeline wire format.
  std::uint32_t pipeline_chunks = 0;
  std::uint64_t pipeline_chunk_bytes = 0;

  [[nodiscard]] int partitions() const {
    return partition_bytes.empty() ? 1 : static_cast<int>(partition_bytes.size());
  }

  /// Size of the serialized header as carried in the RTS packet.
  [[nodiscard]] std::size_t wire_bytes() const;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static CompressionHeader deserialize(std::span<const std::uint8_t> in);

  bool operator==(const CompressionHeader&) const = default;
};

/// Field serializer shared by the wire headers (this one and the warm
/// channel's RepeatHeader): fixed-width fields in host byte order.
namespace wire {

template <typename T>
void put(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

/// Read the field at `pos` and advance past it; a field that runs past the
/// end of `in` throws std::invalid_argument(`truncated`).
template <typename T>
T get(std::span<const std::uint8_t> in, std::size_t& pos, const char* truncated) {
  if (pos + sizeof(T) > in.size()) throw std::invalid_argument(truncated);
  T v;
  std::memcpy(&v, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace wire

}  // namespace gcmpi::core
