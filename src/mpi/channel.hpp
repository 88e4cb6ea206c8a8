// Persistent channels: plan-cached, handshake-free repeated exchanges.
//
// Iterative applications (halo exchanges, alltoall training steps) send the
// same (source, destination, tag, shape) message every timestep, yet the
// rendezvous protocol renegotiates each one from scratch: an RTS carrying
// the full compression header, a CTS granting the receiver staging it just
// acquired, and a full launch-plan derivation on both GPUs. A persistent
// channel amortizes all of it:
//
//   * warm-up — after the first successful cold delivery on an eligible
//     (src, dst, tag, shape) route, the receiver caches the
//     compression-header template and grants the sender N credits in ONE
//     control packet;
//   * warm sends — while credits last the sender skips the RTS/CTS round
//     trip entirely: the payload ships with a compact RepeatHeader (channel
//     id + sequence + wire length + CRC) from which the receiver rebuilds
//     the full header using the cached template. Credits refill as the
//     receiver consumes, piggybacked on the (zero-cost) completion
//     notification, so a steady-state iteration costs zero control-plane
//     round trips and zero staging acquisitions;
//   * plan reuse — compression/decompression on a warm channel runs through
//     the CompressionManager plan cache (core/plan_cache.hpp): each consume
//     takes its decode staging from the shape's plan slots and returns it,
//     like every other receive, so same-shape channels share one slot;
//     codec setup is skipped and the launch graph replayed;
//   * fault composition — a dropped or corrupted warm payload retransmits
//     on the channel (per-message watchdog/NACK, same budget as the serial
//     protocol) without tearing the channel down; a decompression fault
//     degrades THAT message to a raw resend while the channel stays warm.
//
// Channels are strictly opt-in (WorldOptions::persistent). Off, the wire
// format and every charge are byte-identical to the cold protocol, so the
// pinned world-dump SHAs are unaffected.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/header.hpp"

namespace gcmpi::mpi {

/// Channel identity. User point-to-point sends key on the exact tag; the
/// collective engines mint a fresh tag per invocation, so their wire sends
/// key on tag_class = kWireTagClass instead and the channel persists across
/// invocations (the real tag still travels in the message envelope for
/// MPI matching).
struct ChannelKey {
  int src = -1;
  int dst = -1;
  int tag_class = 0;  // exact tag, or kWireTagClass for engine wire sends
  std::uint64_t bytes = 0;
  auto operator<=>(const ChannelKey&) const = default;
};

inline constexpr int kWireTagClass = -1;

/// The compact per-message header of a warm send — the whole point of the
/// channel. The cold protocol ships an RTS + a full serialized
/// CompressionHeader and answers with a CTS; a warm message carries
/// only what changes between iterations: which channel, which sequence
/// number, how many wire bytes, their CRC, and (MPC) the per-partition
/// split. Everything else is reconstructed from the channel's cached
/// template.
struct RepeatHeader {
  std::uint32_t channel = 0;
  std::uint32_t seq = 0;
  std::uint64_t wire_len = 0;   // payload bytes on the wire
  std::uint32_t crc32c = 0;     // payload CRC (reliability layer; 0 if off)
  std::uint8_t flags = 0;
  std::vector<std::uint32_t> partition_bytes;  // MPC multi-stream split

  static constexpr std::uint8_t kCompressed = 0x1;  // payload is encoded
  static constexpr std::uint8_t kRawDegrade = 0x2;  // decode-fault fallback

  [[nodiscard]] bool compressed() const { return (flags & kCompressed) != 0; }

  /// Serialized size as charged on the wire.
  [[nodiscard]] std::size_t wire_bytes() const;
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static RepeatHeader deserialize(std::span<const std::uint8_t> in);

  /// Rebuild the full compression header the receiver needs from this
  /// repeat record plus the channel's cached template.
  [[nodiscard]] core::CompressionHeader expand(const core::CompressionHeader& tmpl) const;

  bool operator==(const RepeatHeader&) const = default;
};

/// Build the template cached at warm-up from the first delivered header:
/// the shape-invariant fields survive, the per-message ones are cleared.
[[nodiscard]] core::CompressionHeader make_channel_template(
    const core::CompressionHeader& first, std::uint64_t bytes);

/// One persistent channel. Lives in the World's channel table; the sender
/// side uses the credit/sequence fields, the receiver side the template and
/// consume cursor (both ends of a simulated channel share the object, as
/// the real implementation shares the channel state via the control plane).
struct Channel {
  std::uint32_t id = 0;
  ChannelKey key;

  // --- sender side ---
  bool warm = false;
  int credits = 0;
  std::uint32_t next_send_seq = 0;

  // --- receiver side ---
  std::uint32_t next_consume_seq = 0;
  core::CompressionHeader tmpl;  // cached at warm-up, expands RepeatHeaders

  // --- telemetry (flushed as one ChannelRecord at end of run) ---
  std::uint32_t warmups = 0;        // cold->warm transitions (grants sent)
  std::uint64_t warm_sends = 0;     // messages that skipped the handshake
  std::uint64_t credit_stalls = 0;  // sends parked waiting for a credit
  std::uint64_t retransmits = 0;    // warm payload re-pushes (NACK/timeout)
  std::uint64_t raw_degrades = 0;   // decode faults degraded to raw resend
  std::uint64_t plan_hits = 0;      // plan-cache hits charged on this channel
  std::uint64_t plan_misses = 0;
  std::uint64_t header_bytes_saved = 0;  // cold control bytes avoided
};

}  // namespace gcmpi::mpi
