#include "core/manager.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "fault/injector.hpp"
#include "util/pages.hpp"

namespace gcmpi::core {

using sim::Phase;

namespace {

constexpr Time kZfpStreamFieldCreation = Time::us(9);  // Sec. V-A

void charge(Timeline& tl, Time t, Breakdown* bd, Phase phase) {
  tl.advance(t);
  if (bd != nullptr) bd->add(phase, t);
}

}  // namespace

CompressionManager::CompressionManager(gpu::Gpu& gpu, CompressionConfig config)
    : gpu_(gpu), config_(std::move(config)) {
  if (config_.algorithm != Algorithm::None && config_.use_buffer_pool) {
    // Pre-allocated at init time (MPI_Init), hence untimed (Sec. IV-B 1).
    pool_.emplace(gpu_, config_.pool_buffer_bytes, config_.pool_buffers);
  }
}

bool CompressionManager::should_compress(const void* buf, std::uint64_t bytes) const {
  return config_.algorithm != Algorithm::None && bytes >= config_.threshold_bytes &&
         bytes % 4 == 0 && bytes >= 16 && gpu_.owns(buf);
}

CompressionManager::AdaptiveGuard::AdaptiveGuard(CompressionManager& mgr, Timeline& tl,
                                                 const char* scope, std::uint64_t bytes,
                                                 bool eligible)
    : mgr_(mgr),
      saved_algorithm_(mgr.config_.algorithm),
      saved_zfp_rate_(mgr.config_.zfp_rate) {
  if (mgr.adapt_ == nullptr || !eligible) return;
  const CompressChoice choice = mgr.adapt_->choose_codec(tl.now(), mgr.rank_id_, scope, bytes);
  active_ = true;
  if (!choice.use_compression) {
    // The policy degrades this message to the ordinary raw-bypass path.
    mgr.config_.algorithm = Algorithm::None;
    return;
  }
  mgr.config_.algorithm = choice.algorithm;
  if (choice.algorithm == Algorithm::ZFP && choice.zfp_rate > 0) {
    mgr.config_.zfp_rate = choice.zfp_rate;
  }
}

CompressionManager::AdaptiveGuard::~AdaptiveGuard() {
  if (!active_) return;
  mgr_.config_.algorithm = saved_algorithm_;
  mgr_.config_.zfp_rate = saved_zfp_rate_;
}

// ---------------------------------------------------------------------------
// Staging and the plan cache
// ---------------------------------------------------------------------------

Staging CompressionManager::acquire(Timeline& tl, PlanEntry* plan, std::size_t capacity,
                                    Breakdown* bd) {
  if (plan != nullptr) {
    if (plan->capacity < capacity) plan->capacity = capacity;
    auto slot = std::find_if(plan->slots.begin(), plan->slots.end(),
                             [](const PlanSlot& s) { return !s.in_use; });
    if (slot != plan->slots.end()) {
      ++plan->hits;
      ++plan_stats_.hits;
    } else {
      // No free slot: grow the plan by one (a real acquisition). Steady-state
      // iterations find every slot free and never reach here.
      plan->slots.push_back({acquire(tl, nullptr, plan->capacity, bd)});
      slot = plan->slots.end() - 1;
      ++plan->misses;
      ++plan_stats_.misses;
    }
    slot->in_use = true;
    Staging staging = slot->buffer;
    staging.plan = plan;
    staging.plan_slot = static_cast<int>(slot - plan->slots.begin());
    return staging;
  }
  ++staging_acquisitions_;
  Staging staging;
  staging.bd = bd;
  if (config_.use_buffer_pool) {
    staging.lease = pool_->acquire(tl, capacity, bd);
    staging.data = staging.lease.data;
  } else {
    staging.data = gpu_.malloc_device(tl, capacity, bd);
  }
  return staging;
}

void CompressionManager::release(Timeline& tl, Staging& staging) {
  if (staging.plan != nullptr) {
    // A held plan slot: hand it back to the plan, not the pool.
    staging.plan->slots[static_cast<std::size_t>(staging.plan_slot)].in_use = false;
  } else if (staging.lease.valid()) {
    pool_->release(staging.lease);
  } else if (staging.data != nullptr) {
    gpu_.free_device(tl, staging.data, staging.bd);
  }
  staging = {};
}

PlanEntry* CompressionManager::plan_entry(PlanKind kind, Algorithm algo, std::uint64_t bytes,
                                          int param) {
  if (!plan_cache_enabled_) return nullptr;
  const PlanKey key{kind, algo, bytes, param};
  auto [it, inserted] = plans_.try_emplace(key);
  if (inserted) it->second.key = key;
  return &it->second;
}

void CompressionManager::plan_mark_ready(Timeline& tl, PlanEntry* plan, Breakdown* bd) {
  if (plan == nullptr || plan->graph_ready) return;
  // One-time capture + cudaGraphInstantiate of the launch sequence that
  // just ran; every later message replays it with a single graph_launch.
  charge(tl, gpu_.costs().graph_instantiate, bd, Phase::Other);
  plan->graph_ready = true;
  ++plan_stats_.graphs_instantiated;
}

// ---------------------------------------------------------------------------
// The encode and decode steps
// ---------------------------------------------------------------------------

void CompressionManager::setup_codec(Timeline& tl, Algorithm algo, std::size_t d_off_bytes,
                                     bool replay, Breakdown* bd) {
  if (replay) return;  // a cached plan holds the objects and replays the memset
  if (algo == Algorithm::MPC) {
    // d_off scratch: cudaMalloc'ed per call in the naive scheme, pooled in
    // MPC-OPT; either way it is memset to -1 before the kernels run.
    if (!config_.use_buffer_pool) {
      charge(tl, gpu_.costs().cuda_malloc(d_off_bytes), bd, Phase::MemoryAllocation);
    }
    charge(tl, gpu_.costs().cuda_memset_launch, bd, Phase::MemoryAllocation);
    return;
  }
  // zfp_stream / zfp_field construction on the CPU (cheap, Sec. V-A), then
  // get_max_grid_dims: the dominant naive overhead vs the ZFP-OPT cache.
  charge(tl, kZfpStreamFieldCreation, bd, Phase::StreamFieldCreation);
  if (config_.cache_device_attributes) {
    (void)gpu_.query_max_grid_dim_cached(tl, bd);
  } else {
    (void)gpu_.query_max_grid_dim_via_properties(tl, bd);
  }
}

void CompressionManager::teardown_codec(Timeline& tl, Algorithm algo, bool replay,
                                        Breakdown* bd) {
  if (algo == Algorithm::MPC && !replay && !config_.use_buffer_pool) {
    charge(tl, gpu_.costs().cuda_free, bd, Phase::MemoryAllocation);  // d_off
  }
}

Time CompressionManager::enqueue(Timeline& tl, int stream, Time cost, bool replay, bool first,
                                 Breakdown* bd, Phase phase) {
  gpu::Stream& s = gpu_.stream(stream);
  if (!replay) return s.launch(tl, cost, bd, phase);
  return first ? s.launch_graph(tl, cost, bd, phase) : s.enqueue_graphed(tl, cost);
}

std::size_t CompressionManager::staging_bytes(Algorithm algo, std::size_t n,
                                              int partitions) const {
  if (algo != Algorithm::MPC) {
    return comp::ZfpCodec(config_.zfp_rate).compressed_bytes(comp::ZfpField::d1(n));
  }
  return comp::MpcCodec(config_.mpc_dimensionality, config_.mpc_chunk_values)
             .max_compressed_bytes(n) +
         16 * static_cast<std::size_t>(partitions);
}

int CompressionManager::partition_blocks(int partitions) const {
  return config_.multi_stream_partitions
             ? std::max(1, gpu_.spec().sm_count / std::max(1, partitions))
             : gpu_.spec().sm_count;  // original MPC always uses every SM
}

CompressionManager::Encoded CompressionManager::encode(Timeline& tl,
                                                       const std::vector<Part>& parts,
                                                       const Staging& out,
                                                       std::size_t capacity,
                                                       const Launch& launch,
                                                       bool one_message) {
  const Algorithm algo = config_.algorithm;
  const bool replay = launch.plan != nullptr && launch.plan->graph_ready;
  const comp::MpcCodec mpc(config_.mpc_dimensionality, config_.mpc_chunk_values);
  std::size_t d_off_bytes = 0;
  if (algo == Algorithm::MPC) {
    for (const Part& p : parts) d_off_bytes += mpc.chunk_count(p.n) * 4;
  }
  setup_codec(tl, algo, d_off_bytes, replay, launch.bd);

  // One kernel per part, round-robin over the streams. A replayed plan
  // submits the whole round as one captured graph: a single graph_launch
  // on the first stream, the remaining nodes cost no host time.
  auto* base = static_cast<std::uint8_t*>(out.data);
  Encoded enc;
  std::size_t off = 0;
  std::vector<int> streams;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Part& p = parts[i];
    const std::span<std::uint8_t> dst{base + off, capacity - off};
    std::size_t size = 0;
    if (algo == Algorithm::MPC) {
      size = mpc.compress({p.values, p.n}, dst);
      enc.last.cost = cost_model_.mpc_compress(p.n * 4, size, launch.blocks, gpu_.spec());
    } else {
      size = comp::ZfpCodec(config_.zfp_rate).compress({p.values, p.n},
                                                       comp::ZfpField::d1(p.n), dst);
      enc.last.cost = cost_model_.zfp_compress(p.n * 4, config_.zfp_rate, gpu_.spec());
    }
    streams.push_back((launch.first_stream + static_cast<int>(i)) % gpu_.num_streams());
    enc.last.done = enqueue(tl, streams.back(), enc.last.cost, replay, i == 0, launch.bd,
                            Phase::CompressionKernel);
    enc.sizes.push_back(static_cast<std::uint32_t>(size));
    off += size;
  }

  if (launch.synchronize) {
    for (int sid : streams) gpu_.stream(sid).synchronize(tl, launch.bd, Phase::CompressionKernel);
    if (one_message && parts.size() > 1) {
      // Combine the partitions into one contiguous buffer in fixed order
      // (Fig. 7). One D2D copy per partition on the copy stream (graph
      // nodes under a cached plan).
      for (std::uint32_t size : enc.sizes) {
        enqueue(tl, 0, gpu_.costs().d2d_copy(size), replay, false, launch.bd,
                Phase::CombinePartitions);
      }
      gpu_.stream(0).synchronize(tl, launch.bd, Phase::CombinePartitions);
    }
    finish_encode(tl, algo, enc.sizes, one_message, replay, launch.bd);
  }
  plan_mark_ready(tl, launch.plan, launch.bd);
  return enc;
}

void CompressionManager::finish_encode(Timeline& tl, Algorithm algo,
                                       const std::vector<std::uint32_t>& sizes,
                                       bool one_message, bool replayed, Breakdown* bd) {
  if (algo != Algorithm::MPC) return;  // fixed-rate ZFP sizes are known up front
  // Read back the compressed sizes (the 4-byte control words): cudaMemcpy
  // costs ~20us per call; GDRCopy reduces it to a few microseconds. A
  // batch's words live contiguously in its offset/length table, so ONE
  // readback covers all of them where a message pays one per partition.
  const std::size_t words = one_message ? 1 : sizes.size();
  std::uint32_t word = 0;
  std::vector<std::uint32_t> table(one_message ? 0 : sizes.size());
  std::uint32_t* host = one_message ? &word : table.data();
  for (std::size_t w = 0; w < sizes.size(); w += words) {
    if (config_.use_gdrcopy) {
      gpu_.gdrcopy_small(tl, host, &sizes[w], words * 4, bd);
    } else {
      gpu_.memcpy_d2h_small(tl, host, &sizes[w], words * 4, bd);
    }
  }
  teardown_codec(tl, algo, replayed, bd);
}

CompressionManager::LastKernel CompressionManager::decode(Timeline& tl,
                                                         const CompressionHeader& header,
                                                         const void* staged, float* out,
                                                         const Launch& launch,
                                                         const char* scope, const Fold* fold) {
  const Time started = tl.now();
  if (fault_ != nullptr && fault_->on_decompress(rank_id_)) {
    // Injected decompression-kernel fault: the launch errors out before
    // any output is produced (a fused reduce leaves the accumulator
    // untouched). Charge the wasted enqueue and report; the caller
    // recovers (protocol NACK -> raw resend, or a local relaunch).
    tl.advance(gpu_.costs().kernel_launch);
    ++stats_.codec_faults;
    record({started, rank_id_, EventKind::CodecFault, header.algorithm, header.original_bytes,
            header.compressed_bytes, tl.now() - started, scope});
    throw CodecFaultError{};
  }
  const Algorithm algo = header.algorithm;
  if (algo != Algorithm::MPC && algo != Algorithm::ZFP) {
    throw std::runtime_error("CompressionManager: compressed payload with no algorithm");
  }
  const bool replay = launch.plan != nullptr && launch.plan->graph_ready;
  const auto* in = static_cast<const std::uint8_t*>(staged);
  const std::size_t n = header.original_bytes / 4;
  // Fused decode-reduce scratch: the decoder overwrites all n values.
  std::vector<float, util::PageAllocator<float>> decoded(fold != nullptr ? n : 0);
  float* dst = fold != nullptr ? decoded.data() : out;

  LastKernel last;
  std::vector<int> streams;
  if (algo == Algorithm::MPC) {
    // d_off scratch on the receiver side as well (Algorithm 2).
    const comp::MpcCodec codec(header.mpc_dimensionality, header.mpc_chunk_values);
    setup_codec(tl, algo, codec.chunk_count(n) * 4, replay, launch.bd);
    std::size_t in_off = 0;
    std::size_t val_off = 0;
    for (int p = 0; p < header.partitions(); ++p) {
      const std::size_t psize = header.partition_bytes.empty()
                                    ? header.compressed_bytes
                                    : header.partition_bytes[static_cast<std::size_t>(p)];
      const std::span<const std::uint8_t> pin{in + in_off, psize};
      const std::size_t pvalues = comp::MpcCodec::encoded_values(pin);
      if (val_off + pvalues > n) throw std::runtime_error("MPC partition overflow");
      codec.decompress(pin, {dst + val_off, pvalues});
      last.cost = cost_model_.mpc_decompress(psize, pvalues * 4, launch.blocks, gpu_.spec());
      streams.push_back((launch.first_stream + p) % gpu_.num_streams());
      last.done = enqueue(tl, streams.back(), last.cost, replay, p == 0, launch.bd,
                          Phase::DecompressionKernel);
      in_off += psize;
      val_off += pvalues;
    }
    if (val_off != n) throw std::runtime_error("MPC partitions do not cover message");
  } else {
    setup_codec(tl, algo, 0, replay, launch.bd);
    const comp::ZfpCodec codec(header.zfp_rate);
    codec.decompress({in, header.compressed_bytes}, comp::ZfpField::d1(n), {dst, n});
    last.cost = cost_model_.zfp_decompress(n * 4, header.zfp_rate, gpu_.spec());
    streams.push_back(launch.first_stream % gpu_.num_streams());
    last.done = enqueue(tl, streams.back(), last.cost, replay, true, launch.bd,
                        Phase::DecompressionKernel);
  }
  if (launch.synchronize && fold == nullptr) {
    for (int sid : streams) {
      gpu_.stream(sid).synchronize(tl, launch.bd, Phase::DecompressionKernel);
    }
  }
  teardown_codec(tl, algo, replay, launch.bd);
  if (fold != nullptr) {
    // The fusion combines decoded values with the accumulator in registers
    // before the store: only the extra accumulator traffic is charged, on
    // the decode kernels' tail (a graph node under a cached plan).
    enqueue(tl, 0, cost_model_.fused_reduce_overhead(header.original_bytes, gpu_.spec()),
            replay, false, launch.bd, Phase::DecompressionKernel);
  }
  plan_mark_ready(tl, launch.plan, launch.bd);
  if (fold != nullptr) {
    comp::reduce_inplace(fold->acc, decoded.data(), n, fold->op);
    if (launch.synchronize) gpu_.device_synchronize(tl, launch.bd);
  }
  // Pipeline chunks report device occupancy (their kernels overlap the
  // protocol); the other paths report the host-side span.
  record({started, rank_id_, EventKind::Decompress, algo, header.original_bytes,
          header.compressed_bytes, scope == kScopeChunk ? last.cost : tl.now() - started, scope});
  return last;
}

fault::CodecFault CompressionManager::draw_compress_fault(Timeline& tl) {
  // Injected compression-kernel faults (chaos testing). A hard launch
  // failure is detected immediately and the message degrades to a raw
  // send; a truncated-output fault is only caught after the kernels ran,
  // via the size validation on readback — both are survivable by design.
  fault::CodecFault injected;
  if (fault_ != nullptr) injected = fault_->on_compress(rank_id_);
  if (injected.fail) {
    tl.advance(gpu_.costs().kernel_launch);  // the wasted enqueue
    ++stats_.codec_faults;
  }
  return injected;
}

void CompressionManager::send_raw(WireBlock& w, const void* buf, std::uint64_t bytes) {
  w.data = buf;
  w.bytes = bytes;
  w.header.compressed = false;
  w.header.compressed_bytes = bytes;
  w.header.partition_bytes.clear();
  stats_.original_bytes += bytes;
  stats_.wire_bytes += bytes;
}

void CompressionManager::stamp(CompressionHeader& header, Algorithm algo) const {
  header.algorithm = algo;
  if (algo == Algorithm::MPC) {
    header.mpc_dimensionality = static_cast<std::uint16_t>(config_.mpc_dimensionality);
    header.mpc_chunk_values = static_cast<std::uint32_t>(config_.mpc_chunk_values);
  } else {
    header.zfp_rate = static_cast<std::uint16_t>(config_.zfp_rate);
  }
}

// ---------------------------------------------------------------------------
// Serial: one wire per message
// ---------------------------------------------------------------------------

CompressionManager::WireData CompressionManager::compress_for_send(
    Timeline& tl, const void* buf, std::uint64_t bytes) {
  const Time started = tl.now();
  WireData wire;
  wire.header.original_bytes = bytes;
  ++stats_.messages_considered;

  // Consult the closed-loop policy for statically qualified messages; its
  // codec (or raw-degrade) choice overrides config_ for this call only.
  AdaptiveGuard adapt_guard(*this, tl, kScopeP2P, bytes, should_compress(buf, bytes));

  if (!should_compress(buf, bytes)) {
    send_raw(wire, buf, bytes);
    record({started, rank_id_, EventKind::RawBypass, Algorithm::None, bytes, bytes,
            Time::zero()});
    return wire;
  }
  const Algorithm algo = config_.algorithm;
  const auto fall_back = [&](EventKind kind) {
    send_raw(wire, buf, bytes);
    ++stats_.messages_fallback_raw;
    record({started, rank_id_, kind, algo, bytes, bytes, tl.now() - started});
    return wire;
  };
  const fault::CodecFault injected = draw_compress_fault(tl);
  if (injected.fail) return fall_back(EventKind::CodecFault);

  // MPC-OPT splits the message into chunk-aligned partitions (Fig. 7) so
  // chunk/thread-block boundaries never split; ZFP runs one kernel.
  const auto* values = static_cast<const float*>(buf);
  const std::size_t n = bytes / 4;
  std::vector<Part> parts;
  int param = config_.zfp_rate;
  if (algo == Algorithm::MPC) {
    param = config_.partitions_for(bytes);
    const std::size_t chunk = static_cast<std::size_t>(config_.mpc_chunk_values);
    const std::size_t count = std::min<std::size_t>(static_cast<std::size_t>(std::max(1, param)),
                                                    std::max<std::size_t>(1, n / chunk));
    const std::size_t per = ((n + count - 1) / count + chunk - 1) / chunk * chunk;
    for (std::size_t off = 0; off < n; off += per) {
      parts.push_back({values + off, std::min(per, n - off)});
    }
  } else {
    parts.push_back({values, n});
  }
  const std::size_t capacity = staging_bytes(algo, n, algo == Algorithm::MPC ? param : 1);
  Breakdown* bd = &sender_bd_;
  wire.staging = acquire(tl, plan_entry(PlanKind::SendP2P, algo, bytes, param), capacity, bd);
  const Encoded enc = encode(tl, parts, wire.staging, capacity,
                             {partition_blocks(static_cast<int>(parts.size())), 0, true,
                              wire.staging.plan, bd},
                             /*one_message=*/true);

  stamp(wire.header, algo);
  if (algo == Algorithm::MPC) wire.header.partition_bytes = enc.sizes;
  wire.header.compressed_bytes = std::accumulate(enc.sizes.begin(), enc.sizes.end(), 0ull);
  if (algo == Algorithm::MPC && wire.header.compressed_bytes >= bytes) {
    // Compression did not pay off: fall back to sending the raw buffer.
    // The kernel time was already spent (and charged) — this is the real
    // cost of a lossless compressor on incompressible data.
    release(tl, wire.staging);
    return fall_back(EventKind::FallbackRaw);
  }
  if (injected.truncate) {
    // The kernels ran but the device-reported output size disagrees with
    // the bytes actually written (truncated stream). Caught by the size
    // validation on readback; never put a short stream on the wire —
    // degrade to raw instead.
    release(tl, wire.staging);
    ++stats_.codec_faults;
    return fall_back(EventKind::CodecFault);
  }
  wire.data = wire.staging.data;
  wire.bytes = wire.header.compressed_bytes;
  wire.header.compressed = true;
  ++stats_.messages_compressed;
  stats_.original_bytes += bytes;
  stats_.wire_bytes += wire.bytes;
  record({started, rank_id_, EventKind::Compress, algo, bytes, wire.bytes, tl.now() - started});
  return wire;
}

Staging CompressionManager::prepare_receive(Timeline& tl, const CompressionHeader& header) {
  if (!header.compressed) return {};
  PlanEntry* plan = plan_entry(PlanKind::Recv, header.algorithm, header.original_bytes,
                               header.algorithm == Algorithm::ZFP
                                   ? static_cast<int>(header.zfp_rate)
                                   : header.partitions());
  // Plan slots are sized for the worst case (a raw-bounded wire can never
  // exceed original_bytes), so every later compressed size fits in place.
  const std::uint64_t capacity = plan != nullptr
                                     ? std::max(header.original_bytes, header.compressed_bytes)
                                     : header.compressed_bytes;
  return acquire(tl, plan, static_cast<std::size_t>(capacity), &receiver_bd_);
}

void CompressionManager::decompress_received(Timeline& tl, const CompressionHeader& header,
                                             const Staging& staging, void* user_buf,
                                             std::uint64_t user_bytes, bool synchronize,
                                             int stream_hint) {
  if (!header.compressed) return;
  if (header.original_bytes > user_bytes) {
    throw std::runtime_error("CompressionManager: user buffer too small");
  }
  decode(tl, header, staging.data, static_cast<float*>(user_buf),
         {partition_blocks(header.partitions()), stream_hint, synchronize, staging.plan,
          &receiver_bd_},
         kScopeP2P);
}

void CompressionManager::decompress_reduce(Timeline& tl, const CompressionHeader& header,
                                           const Staging& staging, float* acc,
                                           std::uint64_t acc_bytes, comp::ReduceOp op,
                                           bool synchronize) {
  if (!header.compressed) {
    throw std::runtime_error("CompressionManager: decompress_reduce needs a compressed payload");
  }
  if (header.original_bytes > acc_bytes) {
    throw std::runtime_error("CompressionManager: accumulator too small");
  }
  const Fold fold{acc, op};
  decode(tl, header, staging.data, nullptr,
         {partition_blocks(header.partitions()), 0, synchronize, staging.plan, &receiver_bd_},
         kScopeP2P, &fold);
}

Time CompressionManager::reduce_device(Timeline& tl, const float* in, float* acc,
                                       std::size_t n, comp::ReduceOp op, bool synchronize) {
  Breakdown* bd = &receiver_bd_;
  const Time done = gpu_.stream(0).launch(
      tl, cost_model_.reduce_kernel(n * 4, gpu_.spec()), bd, Phase::DecompressionKernel);
  comp::reduce_inplace(acc, in, n, op);
  if (synchronize) gpu_.stream(0).synchronize(tl, bd, Phase::DecompressionKernel);
  return done;
}

// ---------------------------------------------------------------------------
// Batch: one slab for N blocks
// ---------------------------------------------------------------------------

CompressionManager::BatchWire CompressionManager::compress_batch(
    Timeline& tl, const std::vector<BatchInput>& blocks) {
  const Time started = tl.now();
  BatchWire batch;
  batch.blocks.resize(blocks.size());

  // One policy consultation covers the whole batch (it is one launch and
  // one fault domain); the choice applies to every eligible block.
  std::uint64_t adapt_bytes = 0;
  if (adapt_ != nullptr) {
    for (const auto& in : blocks) {
      if (should_compress(in.buf, in.bytes)) adapt_bytes += in.bytes;
    }
  }
  AdaptiveGuard adapt_guard(*this, tl, kScopeBatch, adapt_bytes, adapt_bytes > 0);

  std::uint64_t original_total = 0;
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    batch.blocks[i].header.original_bytes = blocks[i].bytes;
    ++stats_.messages_considered;
    original_total += blocks[i].bytes;
    if (should_compress(blocks[i].buf, blocks[i].bytes)) eligible.push_back(i);
  }
  const Algorithm algo = config_.algorithm;
  // Every block not upgraded to a slab slice goes out as a raw view of the
  // caller's buffer; exactly one telemetry event covers the batch.
  const auto finish = [&](EventKind kind, Algorithm event_algo) {
    std::uint64_t wire_total = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      WireBlock& b = batch.blocks[i];
      if (b.header.compressed) {
        stats_.original_bytes += blocks[i].bytes;
        stats_.wire_bytes += b.bytes;
      } else {
        send_raw(b, blocks[i].buf, blocks[i].bytes);
      }
      wire_total += b.bytes;
    }
    record({started, rank_id_, kind, event_algo, original_total, wire_total,
            tl.now() - started, kScopeBatch});
    return std::move(batch);
  };
  if (eligible.empty()) return finish(EventKind::RawBypass, Algorithm::None);

  // One batched launch means one fault consultation covering every block:
  // a hard launch failure degrades the whole batch to raw sends.
  const fault::CodecFault injected = draw_compress_fault(tl);
  if (injected.fail) {
    stats_.messages_fallback_raw += eligible.size();
    return finish(EventKind::CodecFault, algo);
  }

  std::vector<Part> parts;
  std::size_t capacity = 0;
  std::uint64_t eligible_total = 0;
  for (std::size_t idx : eligible) {
    const std::size_t n = blocks[idx].bytes / 4;
    parts.push_back({static_cast<const float*>(blocks[idx].buf), n});
    eligible_total += blocks[idx].bytes;
    capacity += staging_bytes(algo, n, 1);
  }
  // The per-block capacity offsets (the batch's offset-table slab) are a
  // pure function of the shape, so a cached plan re-serves the same slab
  // slot with the table precomputed.
  const int n_batch = static_cast<int>(eligible.size());
  const int param = algo == Algorithm::MPC ? n_batch : (n_batch << 16) | config_.zfp_rate;
  Breakdown* bd = &sender_bd_;
  batch.staging = acquire(tl, plan_entry(PlanKind::Batch, algo, eligible_total, param),
                          capacity, bd);
  // Divide the SMs across the batch (MPC-OPT's partitioned launch applied
  // across destinations): every block's kernel runs concurrently on its
  // stream, and the launch+sync round, the d_off memset and the size
  // readback are paid once, where the naive scheme pays one per message.
  const Encoded enc =
      encode(tl, parts, batch.staging, capacity,
             {std::max(1, gpu_.spec().sm_count / n_batch), 0, true, batch.staging.plan, bd},
             /*one_message=*/false);

  // Finalize headers block by block; an injected truncate fault (caught by
  // the size validation on readback) degrades the whole batch to raw.
  std::size_t n_compressed = 0;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < eligible.size(); ++k) {
    WireBlock& b = batch.blocks[eligible[k]];
    const std::uint32_t size = enc.sizes[k];
    if (injected.truncate || size >= blocks[eligible[k]].bytes) {
      ++stats_.messages_fallback_raw;
    } else {
      b.data = static_cast<std::uint8_t*>(batch.staging.data) + offset;
      b.bytes = size;
      b.header.compressed = true;
      b.header.compressed_bytes = size;
      stamp(b.header, algo);
      if (algo == Algorithm::MPC) b.header.partition_bytes = {size};
      ++stats_.messages_compressed;
      ++n_compressed;
    }
    offset += size;
  }
  if (injected.truncate) {
    ++stats_.codec_faults;
    return finish(EventKind::CodecFault, algo);
  }
  return finish(n_compressed > 0 ? EventKind::Compress : EventKind::FallbackRaw, algo);
}

// ---------------------------------------------------------------------------
// Chunked pipelined rendezvous: asynchronous launch, then finish_chunk
// ---------------------------------------------------------------------------

CompressionManager::ChunkWire CompressionManager::compress_chunk(
    Timeline& tl, const void* buf, std::uint64_t bytes, int chunk_index, int blocks) {
  ChunkWire ck;
  ck.wire.header.original_bytes = bytes;
  const auto eligible = [&] {
    return config_.algorithm != Algorithm::None && bytes % 4 == 0 && bytes >= 16;
  };

  // Per-chunk policy consultation: each chunk carries its own header, so
  // the codec may change mid-message as the controller learns.
  AdaptiveGuard adapt_guard(*this, tl, kScopeChunk, bytes, eligible());

  fault::CodecFault injected;
  if (eligible()) injected = draw_compress_fault(tl);
  if (!eligible() || injected.fail) {
    if (injected.fail) {
      record({tl.now(), rank_id_, EventKind::CodecFault, config_.algorithm, bytes, bytes,
              Time::zero(), kScopeChunk});
    }
    send_raw(ck.wire, buf, bytes);
    ck.finished = true;
    ++stats_.pipeline_chunks_raw;
    ck.kernel_done = tl.now();
    return ck;
  }
  ck.pending_truncate = injected.truncate;

  const Algorithm algo = config_.algorithm;
  const std::size_t n = bytes / 4;
  const std::size_t capacity = staging_bytes(algo, n, 1);
  Breakdown* bd = &sender_bd_;
  ck.wire.staging = acquire(
      tl, plan_entry(PlanKind::ChunkSend, algo, bytes,
                     algo == Algorithm::MPC ? blocks : config_.zfp_rate),
      capacity, bd);
  ck.replayed = ck.wire.staging.planned();
  // ZFP kernels expose no block-count knob to divide the GPU fairly among
  // concurrent chunks, so ZFP chunk kernels serialize on stream 0.
  const Encoded enc = encode(tl, {{static_cast<const float*>(buf), n}}, ck.wire.staging,
                             capacity,
                             {blocks, algo == Algorithm::MPC ? chunk_index : 0, false,
                              ck.wire.staging.plan, bd},
                             /*one_message=*/true);
  ck.kernel_done = enc.last.done;
  ck.kernel_time = enc.last.cost;
  ck.wire.data = ck.wire.staging.data;
  ck.wire.bytes = enc.sizes[0];
  stamp(ck.wire.header, algo);
  ck.wire.header.compressed_bytes = ck.wire.bytes;
  ck.wire.header.compressed = true;
  return ck;
}

void CompressionManager::finish_chunk(Timeline& tl, ChunkWire& ck, const void* buf,
                                      std::uint64_t bytes) {
  if (ck.finished) return;
  Breakdown* bd = &sender_bd_;
  const Time started = tl.now();
  // The codec that actually ran (the adaptive policy may have overridden
  // config_ for this chunk's compress_chunk call, since restored).
  const Algorithm used = ck.wire.header.algorithm;
  finish_encode(tl, used, {static_cast<std::uint32_t>(ck.wire.bytes)}, true, ck.replayed, bd);
  // cudaStreamSynchronize on the chunk's stream; the protocol only calls
  // finish_chunk at/after kernel_done, so only the call cost remains.
  charge(tl, gpu_.costs().stream_sync, bd, Phase::CompressionKernel);
  ck.finished = true;

  if (ck.pending_truncate || ck.wire.bytes >= bytes) {
    // Truncated stream (injected) or incompressible chunk: never put a
    // short or inflated stream on the wire — degrade this chunk to raw.
    release(tl, ck.wire.staging);
    send_raw(ck.wire, buf, bytes);
    if (ck.pending_truncate) ++stats_.codec_faults;
    ++stats_.pipeline_chunks_raw;
    record({started, rank_id_,
            ck.pending_truncate ? EventKind::CodecFault : EventKind::FallbackRaw, used, bytes,
            bytes, tl.now() - started, kScopeChunk});
    return;
  }
  ++stats_.pipeline_chunks_compressed;
  stats_.original_bytes += bytes;
  stats_.wire_bytes += ck.wire.bytes;
  record({started, rank_id_, EventKind::Compress, used, bytes, ck.wire.bytes, ck.kernel_time,
          kScopeChunk});
}

Staging CompressionManager::prepare_pipeline_receive(Timeline& tl,
                                                     std::uint64_t chunk_capacity,
                                                     int slices) {
  const std::size_t slice_bytes =
      (static_cast<std::size_t>(chunk_capacity) + 255) & ~std::size_t{255};
  const int n_slices = std::max(1, slices);
  Staging staging =
      acquire(tl, plan_entry(PlanKind::PipeRecv, Algorithm::None, chunk_capacity, slices),
              slice_bytes * static_cast<std::size_t>(n_slices), &receiver_bd_);
  staging.slice_bytes = slice_bytes;
  staging.slices = n_slices;
  return staging;
}

Time CompressionManager::decompress_chunk(Timeline& tl, const CompressionHeader& header,
                                          const void* staged, void* out,
                                          std::uint64_t out_capacity, int chunk_index,
                                          int blocks, Time* kernel_time) {
  if (!header.compressed) return tl.now();  // raw chunks are plain memcpys
  if (header.original_bytes > out_capacity) {
    throw std::runtime_error("CompressionManager: pipeline chunk exceeds buffer");
  }
  PlanEntry* plan =
      plan_entry(PlanKind::ChunkRecv, header.algorithm, header.original_bytes, blocks);
  const LastKernel last =
      decode(tl, header, staged, static_cast<float*>(out),
             {blocks, header.algorithm == Algorithm::MPC ? chunk_index : 0, false, plan,
              &receiver_bd_},
             kScopeChunk);
  if (kernel_time != nullptr) *kernel_time = last.cost;
  return last.done;
}

}  // namespace gcmpi::core
