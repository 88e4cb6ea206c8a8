#include "fault/injector.hpp"

namespace gcmpi::fault {

namespace {

/// SplitMix64 finalizer: the same bijective mixer the sim::Rng seeder uses.
constexpr std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t stream_key(std::uint8_t s, int a, int b) {
  return (static_cast<std::uint64_t>(s) << 56) ^
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a + 1)) << 28) ^
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(b + 1));
}

}  // namespace

std::uint64_t FaultInjector::draw_u64(Stream s, int a, int b) {
  const std::uint64_t key = stream_key(static_cast<std::uint8_t>(s), a, b);
  const std::uint64_t n = counters_[key]++;
  // Two mixer rounds decorrelate (seed ^ key) from the counter.
  return mix(mix(plan_.seed ^ key) ^ n);
}

double FaultInjector::draw(Stream s, int a, int b) {
  return static_cast<double>(draw_u64(s, a, b) >> 11) * 0x1.0p-53;
}

PacketFault FaultInjector::on_data_packet(int src, int dst, bool inter_node) {
  PacketFault f;
  ++stats_.data_packets;
  if (inter_node) ++stats_.inter_node_data_packets;
  if (plan_.drop_probability > 0.0 && draw(Stream::Drop, src, dst) < plan_.drop_probability) {
    f.drop = true;
    ++stats_.drops;
    if (inter_node) ++stats_.inter_node_drops;
    return f;  // a dropped packet cannot also be corrupted
  }
  if (plan_.corrupt_probability > 0.0 &&
      draw(Stream::Corrupt, src, dst) < plan_.corrupt_probability) {
    f.corrupt = true;
    f.corrupt_bits = draw_u64(Stream::CorruptBits, src, dst);
    ++stats_.corruptions;
    if (inter_node) ++stats_.inter_node_corruptions;
  }
  if (plan_.latency_spike_probability > 0.0 &&
      draw(Stream::DataLatency, src, dst) < plan_.latency_spike_probability) {
    f.extra_latency = plan_.latency_spike;
    ++stats_.latency_spikes;
  }
  return f;
}

sim::Time FaultInjector::timing_fault(int src, int dst) {
  if (plan_.latency_spike_probability > 0.0 &&
      draw(Stream::ControlLatency, src, dst) < plan_.latency_spike_probability) {
    ++stats_.latency_spikes;
    return plan_.latency_spike;
  }
  return sim::Time::zero();
}

CodecFault FaultInjector::on_compress(int rank) {
  CodecFault f;
  if (plan_.compress_fail_probability > 0.0 &&
      draw(Stream::CompressFail, rank, rank) < plan_.compress_fail_probability) {
    f.fail = true;
  } else if (plan_.compress_truncate_probability > 0.0 &&
             draw(Stream::CompressTruncate, rank, rank) <
                 plan_.compress_truncate_probability) {
    f.truncate = true;
  }
  if (f.any()) ++stats_.compress_faults;
  return f;
}

bool FaultInjector::on_decompress(int rank) {
  if (plan_.decompress_fail_probability > 0.0 &&
      draw(Stream::DecompressFail, rank, rank) < plan_.decompress_fail_probability) {
    ++stats_.decompress_faults;
    return true;
  }
  return false;
}

}  // namespace gcmpi::fault
