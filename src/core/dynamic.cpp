#include "core/dynamic.hpp"

#include <algorithm>

#include "compress/mpc.hpp"

namespace gcmpi::core {

DynamicSelector::DynamicSelector(gpu::GpuSpec gpu, double network_gbs, bool lossy_allowed,
                                 int min_zfp_rate, double intra_network_gbs)
    : gpu_(gpu),
      network_gbs_(network_gbs),
      lossy_allowed_(lossy_allowed),
      min_zfp_rate_(min_zfp_rate),
      intra_network_gbs_(intra_network_gbs) {}

double DynamicSelector::intra_bps() const {
  // Without a measured intra-node LinkSpec, keep the historical NVLink ~=
  // 4x IB approximation so existing decisions are unchanged.
  return (intra_network_gbs_ > 0.0 ? intra_network_gbs_ : network_gbs_ * 4.0) * 1e9;
}

double DynamicSelector::hop_kernel_secs(double bytes, double cr) const {
  const auto b = static_cast<std::uint64_t>(bytes);
  const int blocks = std::max(1, gpu_.sm_count / 4);
  const auto secs = [](Time t) { return static_cast<double>(t.count_ns()) * 1e-9; };
  return secs(model_.mpc_compress(b, static_cast<std::uint64_t>(bytes / cr), blocks, gpu_)) +
         secs(model_.mpc_decompress(static_cast<std::uint64_t>(bytes / cr), b, blocks, gpu_));
}

double DynamicSelector::estimate_mpc_ratio(std::span<const float> message,
                                           std::size_t sample_values) const {
  const std::size_t n = std::min(sample_values, message.size());
  if (n < 64) return 1.0;
  const comp::MpcCodec codec(1);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(n));
  const std::size_t size = codec.compress(message.subspan(0, n), buf);
  return static_cast<double>(n * 4) / static_cast<double>(size);
}

std::vector<CandidateCost> DynamicSelector::evaluate(std::uint64_t message_bytes,
                                                     double mpc_cr) const {
  const double wire_bps = network_gbs_ * 1e9;
  auto wire = [&](double bytes) { return Time::seconds(bytes / wire_bps); };
  std::vector<CandidateCost> out;

  // No compression: T = S/B (eq. 1, setup time common to all candidates).
  out.push_back({Algorithm::None, 0, 1.0, wire(static_cast<double>(message_bytes)),
                 Time::zero(), Time::zero()});

  // MPC: partitioned kernels on both sides + compressed wire (eq. 2).
  {
    const auto compressed =
        static_cast<std::uint64_t>(static_cast<double>(message_bytes) / std::max(1.0, mpc_cr));
    const int blocks = std::max(1, gpu_.sm_count / 4);
    const Time comp = model_.mpc_compress(message_bytes / 4, compressed / 4, blocks, gpu_);
    const Time dec = model_.mpc_decompress(compressed / 4, message_bytes / 4, blocks, gpu_);
    out.push_back({Algorithm::MPC, 0, mpc_cr, comp + wire(static_cast<double>(compressed)) + dec,
                   comp, dec});
  }

  // ZFP at the allowed fixed rates.
  if (lossy_allowed_) {
    for (int rate : {16, 8, 4}) {
      if (rate < min_zfp_rate_) continue;
      const double cr = 32.0 / rate;
      const Time comp = model_.zfp_compress(message_bytes, rate, gpu_);
      const Time dec = model_.zfp_decompress(message_bytes, rate, gpu_);
      out.push_back({Algorithm::ZFP, rate, cr,
                     comp + wire(static_cast<double>(message_bytes) / cr) + dec, comp, dec});
    }
  }

  std::sort(out.begin(), out.end(),
            [](const CandidateCost& a, const CandidateCost& b) { return a.predicted < b.predicted; });
  return out;
}

CandidateCost DynamicSelector::choose(std::span<const float> message) const {
  const double cr = estimate_mpc_ratio(message);
  return evaluate(message.size() * 4, cr).front();
}

void DynamicSelector::apply(const CandidateCost& decision, CompressionConfig& config) {
  switch (decision.algorithm) {
    case Algorithm::None:
      config.algorithm = Algorithm::None;
      break;
    case Algorithm::MPC:
      config.algorithm = Algorithm::MPC;
      break;
    case Algorithm::ZFP:
      config.algorithm = Algorithm::ZFP;
      config.zfp_rate = decision.zfp_rate;
      break;
  }
}

CollectiveAlgorithm DynamicSelector::choose_collective(CollectiveOp op, std::uint64_t bytes,
                                                       int ranks, int nodes, int gpus_per_node,
                                                       double mpc_cr) const {
  // Below the compression engagement floor (CompressionConfig's default
  // threshold) neither alltoall schedule launches kernels, so batching has
  // nothing to amortize; same when the sample says the blocks are
  // incompressible.
  constexpr std::uint64_t kCompressFloorBytes = 256ull << 10;
  const CollectiveRow& row = collective_row(op);
  if (ranks <= 2 || bytes == 0 ||
      (row.flat_on_one_level && !(nodes > 1 && gpus_per_node > 1)) ||
      (op == CollectiveOp::Alltoall && (bytes < kCompressFloorBytes || mpc_cr <= 1.0))) {
    return CollectiveAlgorithm::Linear;
  }
  const double wire_bps = network_gbs_ * 1e9;
  const double cr = std::max(1.0, mpc_cr);
  const double S = static_cast<double>(bytes);
  const double gpn = static_cast<double>(gpus_per_node);
  const auto secs = [](Time t) { return static_cast<double>(t.count_ns()) * 1e-9; };
  double flat = 0.0;    // price of Linear
  double staged = 0.0;  // price of the row's last candidate

  switch (op) {
    case CollectiveOp::Allreduce: {
      // Per hop: recompress the outgoing shard + fused decode of the incoming.
      const auto hop = [&](double b) {
        return hop_kernel_secs(b, cr) +
               secs(model_.fused_reduce_overhead(static_cast<std::uint64_t>(b), gpu_));
      };
      // Linear (Rabenseifner): ~log2(P)+1 serialized full-vector exchanges,
      // each compressed once per direction.
      double logp = 1.0;
      for (int p = 1; p < ranks; p <<= 1) logp += 1.0;
      const double linear = logp * (S / (cr * wire_bps) + hop(S));
      // Ring: 2(P-1) steps of S/P-sized shards; kernels per hop.
      const double shard = S / static_cast<double>(ranks);
      const double steps = 2.0 * static_cast<double>(ranks - 1);
      const double ring = steps * (shard / (cr * wire_bps) + hop(shard));
      // Hierarchical: intra-node fold (gpn-1 full-vector hops over the fast
      // intra-node link) + a leader ring + the intra-node result broadcast.
      double hier = 1e18;  // effectively +inf unless applicable
      if (nodes > 1 && gpus_per_node > 1) {
        const double intra = 2.0 * static_cast<double>(gpus_per_node - 1) * S /
                             (cr * intra_bps());
        const double nshard = S / static_cast<double>(nodes);
        const double nsteps = 2.0 * static_cast<double>(nodes - 1);
        hier = intra + nsteps * (nshard / (cr * wire_bps) + hop(nshard)) + hop(S) * gpn;
      }
      if (hier < linear && hier < ring) return CollectiveAlgorithm::Hierarchical;
      return ring < linear ? CollectiveAlgorithm::Ring : CollectiveAlgorithm::Linear;
    }
    case CollectiveOp::Alltoall: {
      const auto wire_b = static_cast<std::uint64_t>(S / cr);
      const int n_blocks = ranks - 1;
      // Naive pairwise: every step pays its own full-SM compress launch+sync,
      // the wire, and a full-SM decompress, all serialized across P-1 steps.
      const int full = std::max(1, gpu_.sm_count);
      const double per_step = secs(model_.mpc_compress(bytes, wire_b, full, gpu_)) +
                              S / (cr * wire_bps) +
                              secs(model_.mpc_decompress(wire_b, bytes, full, gpu_));
      flat = static_cast<double>(n_blocks) * per_step;
      // Batched: ONE launch round with sm/(P-1) thread blocks per destination
      // block (the kernels run concurrently, so the elapsed compression time
      // is one divided-SM kernel), then the same P-1 serialized transfers
      // with the decodes enqueued as slices arrive: only the last one shows.
      const int divided = std::max(1, gpu_.sm_count / n_blocks);
      staged = secs(model_.mpc_compress(bytes, wire_b, divided, gpu_)) +
               static_cast<double>(n_blocks) * (S / (cr * wire_bps)) +
               secs(model_.mpc_decompress(wire_b, bytes, full, gpu_));
      break;
    }
    case CollectiveOp::Bcast: {
      const auto log2ceil = [](int p) {
        double d = 0.0;
        for (int v = 1; v < p; v <<= 1) d += 1.0;
        return std::max(1.0, d);
      };
      // Flat binomial: the tree depth is log2(P) full-message transits, nearly
      // all crossing IB on a block rank layout, plus one compress and the leaf
      // decode. (Forwarded wire forms: no per-hop recompression.)
      const double kernels = hop_kernel_secs(S, cr);
      flat = log2ceil(ranks) * S / (cr * wire_bps) + kernels;
      // Hierarchical: log2(nodes) IB transits of the same wire form, then the
      // intra-node fan-out (gpn-1 copies over NVLink, decoded once per node
      // off the inter-node critical path).
      staged = log2ceil(nodes) * S / (cr * wire_bps) +
               static_cast<double>(gpus_per_node - 1) * S / (cr * intra_bps()) + kernels;
      break;
    }
    case CollectiveOp::Allgather:
    case CollectiveOp::Gather:
    case CollectiveOp::Scatter: {
      // Flat: P-1 blocks, each its own compress + decode launch; the
      // node-boundary hops (allgather's ring, the root's NIC) carry every
      // block across IB one at a time.
      flat = static_cast<double>(ranks - 1) * (S / (cr * wire_bps) + hop_kernel_secs(S, cr));
      // Hierarchical: the intra-node staging rides NVLink, then nodes-1
      // slabs (gpn blocks each) cross IB with one compress+decode per slab;
      // allgather then fans the assembled vector back out intra-node.
      const double slab = gpn * S;
      staged = (gpn - 1.0) * S / intra_bps() +
               static_cast<double>(nodes - 1) *
                   (slab / (cr * wire_bps) + hop_kernel_secs(slab, cr));
      if (op == CollectiveOp::Allgather) {
        staged += static_cast<double>(ranks) * S / (cr * intra_bps());
      }
      break;
    }
  }
  return staged < flat ? row.candidates.back() : CollectiveAlgorithm::Linear;
}

}  // namespace gcmpi::core
