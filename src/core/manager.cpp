#include "core/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/injector.hpp"

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

bool CompressionManager::eligible(const Message& m, const Placement& at) const {
  if (at.chunk < 0) return should_compress(m.buf, m.bytes);
  return config_.algorithm != Algorithm::None && m.bytes % 4 == 0 && m.bytes >= 16;
}

CompressionManager::Codec CompressionManager::choose_codec(Timeline& tl, const char* scope,
                                                           std::uint64_t eligible_bytes) const {
  Codec codec{config_.algorithm, config_.zfp_rate};
  if (adapt_ == nullptr || eligible_bytes == 0) return codec;
  const CompressChoice choice = adapt_->choose_codec(tl.now(), rank_id_, scope, eligible_bytes);
  // Declining degrades the launch to the ordinary raw-bypass path.
  codec.algorithm = choice.use_compression ? choice.algorithm : Algorithm::None;
  if (choice.algorithm == Algorithm::ZFP && choice.zfp_rate > 0) codec.zfp_rate = choice.zfp_rate;
  return codec;
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

std::size_t CompressionManager::staging_bytes(const Codec& codec, std::size_t n,
                                              int partitions) const {
  if (codec.algorithm != Algorithm::MPC) {
    return comp::ZfpCodec(codec.zfp_rate).compressed_bytes(comp::ZfpField::d1(n));
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

void CompressionManager::send_raw(WireBlock& w, const void* buf) {
  w.data = buf;
  w.bytes = w.header.original_bytes;
  w.header.compressed = false;
  w.header.compressed_bytes = w.bytes;
  w.header.partition_bytes.clear();
  stats_.original_bytes += w.bytes;
  stats_.wire_bytes += w.bytes;
}

void CompressionManager::stamp(CompressionHeader& header, const Codec& codec) const {
  header.algorithm = codec.algorithm;
  if (codec.algorithm == Algorithm::MPC) {
    header.mpc_dimensionality = static_cast<std::uint16_t>(config_.mpc_dimensionality);
    header.mpc_chunk_values = static_cast<std::uint32_t>(config_.mpc_chunk_values);
  } else {
    header.zfp_rate = static_cast<std::uint16_t>(codec.zfp_rate);
  }
}

void CompressionManager::count(const Placement& at, bool compressed, std::size_t n) {
  if (at.chunk >= 0) {
    (compressed ? stats_.pipeline_chunks_compressed : stats_.pipeline_chunks_raw) += n;
  } else {
    (compressed ? stats_.messages_compressed : stats_.messages_fallback_raw) += n;
  }
}

// ---------------------------------------------------------------------------
// Encode: launch, then finish
// ---------------------------------------------------------------------------

CompressionManager::Launch CompressionManager::launch(Timeline& tl,
                                                      std::span<const Message> messages,
                                                      const Placement& at) {
  Launch l;
  l.at_ = at;
  l.started_ = tl.now();
  l.wires.resize(messages.size());
  if (at.chunk < 0) {
    stats_.messages_considered += messages.size();
  } else if (at.chunk == 0) {
    ++stats_.messages_considered;
    ++stats_.pipelined_messages;
  }
  std::uint64_t eligible_bytes = 0;
  std::size_t max_parts = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    l.wires[i].data = messages[i].buf;
    l.wires[i].header.original_bytes = messages[i].bytes;
    if (!eligible(messages[i], at)) continue;
    eligible_bytes += messages[i].bytes;
    ++l.encoded_;
    max_parts += at.partition ? static_cast<std::size_t>(config_.partitions_for(messages[i].bytes))
                              : 1;
  }
  // One policy consultation covers the whole launch (one kernel round and
  // one fault domain); its choice applies to every eligible message.
  const Codec codec = choose_codec(tl, at.scope, eligible_bytes);
  l.algorithm_ = codec.algorithm;
  // Ends a launch that runs no kernel: every message goes out raw.
  const auto end_raw = [&](EventKind kind) {
    for (WireBlock& w : l.wires) send_raw(w, w.data);
    l.finished_ = true;
    l.kernel_done = tl.now();
    // A raw chunk records no event of its own (its message's RTS announced it).
    if (kind == EventKind::RawBypass && at.chunk >= 0) return std::move(l);
    std::uint64_t total = 0;
    for (const WireBlock& w : l.wires) total += w.bytes;
    // A chunk's event reports device occupancy: none, known after the
    // wasted enqueue.
    const bool device_span = at.chunk >= 0;
    record({device_span ? tl.now() : l.started_, rank_id_, kind,
            kind == EventKind::RawBypass ? Algorithm::None : codec.algorithm, total, total,
            device_span ? Time::zero() : tl.now() - l.started_, at.scope});
    return std::move(l);
  };
  if (eligible_bytes == 0 || codec.algorithm == Algorithm::None) {
    // A chunk counts every raw outcome; a whole message that bypasses
    // compression is counted by messages_considered alone.
    if (at.chunk >= 0) count(at, false, messages.size());
    return end_raw(EventKind::RawBypass);
  }

  // MPC-OPT splits a partitioned message into chunk-aligned partitions
  // (Fig. 7) so chunk/thread-block boundaries never split; every other
  // message is one kernel.
  std::size_t capacity = 0;
  l.parts_.reserve(max_parts);
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (!eligible(messages[i], at)) continue;
    const auto* values = static_cast<const float*>(messages[i].buf);
    const std::size_t n = messages[i].bytes / 4;
    const int partitions = at.partition && codec.algorithm == Algorithm::MPC
                               ? config_.partitions_for(messages[i].bytes)
                               : 1;
    capacity += staging_bytes(codec, n, partitions);
    const std::size_t chunk = config_.mpc_chunk_values;
    const std::size_t pieces = std::min<std::size_t>(static_cast<std::size_t>(partitions),
                                                     std::max<std::size_t>(1, n / chunk));
    const std::size_t per = ((n + pieces - 1) / pieces + chunk - 1) / chunk * chunk;
    for (std::size_t off = 0; off < n; off += per) {
      l.parts_.push_back({values + off, std::min(per, n - off), i});
    }
  }

  // One fault consultation for the launch: a hard launch failure is
  // detected at once and degrades every message to raw; a truncated-output
  // fault is only caught by the size validation at finish.
  fault::CodecFault injected;
  if (fault_ != nullptr) injected = fault_->on_compress(rank_id_);
  if (injected.fail) {
    tl.advance(gpu_.costs().kernel_launch);  // the wasted enqueue
    ++stats_.codec_faults;
    count(at, false, l.encoded_);
    return end_raw(EventKind::CodecFault);
  }
  l.truncate_ = injected.truncate;

  // Plan key: the launch's kernel count, and per kernel MPC's block count
  // or ZFP's rate (for a message launch the kernel count is a function of
  // its bytes, as the partition count was).
  const int kernels = static_cast<int>(l.parts_.size());
  const int param = (kernels << 16) | (codec.algorithm == Algorithm::MPC ? at.blocks
                                                                          : codec.zfp_rate);
  l.staging = acquire(tl, plan_entry(at.plan, codec.algorithm, eligible_bytes, param), capacity,
                      &sender_bd_);
  l.replayed_ = l.staging.planned();
  encode(tl, l, codec, capacity);

  // Every eligible wire points at its slice of the staging and carries its
  // stream's header; finish() decides whether it stays compressed.
  std::size_t offset = 0;
  for (std::size_t k = 0; k < l.parts_.size(); ++k) {
    WireBlock& w = l.wires[l.parts_[k].wire];
    if (k == 0 || l.parts_[k - 1].wire != l.parts_[k].wire) {
      w.data = static_cast<std::uint8_t*>(l.staging.data) + offset;
      w.bytes = 0;
      w.header.compressed = true;
      stamp(w.header, codec);
      // A chunk's header carries no partition table (the RTS announced its
      // geometry); a whole message's lists its partitions.
      if (codec.algorithm == Algorithm::MPC && at.chunk < 0) {
        std::size_t last = k;
        while (last < l.parts_.size() && l.parts_[last].wire == l.parts_[k].wire) ++last;
        w.header.partition_bytes.assign(l.sizes_.begin() + static_cast<std::ptrdiff_t>(k),
                                        l.sizes_.begin() + static_cast<std::ptrdiff_t>(last));
      }
    }
    w.bytes += l.sizes_[k];
    w.header.compressed_bytes = w.bytes;
    offset += l.sizes_[k];
  }
  return l;
}

void CompressionManager::finish(Timeline& tl, Launch& l) {
  if (l.finished_) return;
  l.finished_ = true;
  const Placement& at = l.at_;
  Breakdown* bd = &sender_bd_;
  // The event spans the host work that decided the outcome: a synchronized
  // launch from its start, a deferred one from this finish.
  const Time started = at.synchronize ? l.started_ : tl.now();
  if (!at.synchronize) {
    finish_encode(tl, l, bd);
    // cudaStreamSynchronize on the chunk's stream; the protocol only
    // finishes at/after kernel_done, so only the call cost remains.
    charge(tl, gpu_.costs().stream_sync, bd, Phase::CompressionKernel);
  }

  // One raw-fallback rule for every codec and placement: a stream at least
  // as large as its message is not worth sending (the kernel time is spent
  // either way, the real cost of compressing incompressible data). An
  // injected truncate fault (the device-reported size disagrees with the
  // bytes written) degrades the whole launch: never put a short stream on
  // the wire.
  std::size_t kept = 0;
  std::size_t fell_back = 0;
  for (std::size_t k = 0; k < l.parts_.size(); ++k) {
    if (k > 0 && l.parts_[k - 1].wire == l.parts_[k].wire) continue;
    WireBlock& w = l.wires[l.parts_[k].wire];
    if (l.truncate_ || w.bytes >= w.header.original_bytes) {
      w.header.compressed = false;
      w.data = l.parts_[k].values;
      // A slab's raw slices go out with a bare raw header; a single
      // message's keeps the codec that ran.
      if (at.slab) {
        CompressionHeader bare;
        bare.original_bytes = w.header.original_bytes;
        w.header = std::move(bare);
      }
      ++fell_back;
    } else {
      ++kept;
    }
  }
  if (kept == 0 && !at.slab) release(tl, l.staging);
  if (l.truncate_) ++stats_.codec_faults;
  count(at, false, fell_back);
  count(at, true, kept);

  std::uint64_t original_total = 0;
  std::uint64_t wire_total = 0;
  for (WireBlock& w : l.wires) {
    if (w.header.compressed) {
      stats_.original_bytes += w.header.original_bytes;
      stats_.wire_bytes += w.bytes;
    } else {
      send_raw(w, w.data);
    }
    original_total += w.header.original_bytes;
    wire_total += w.bytes;
  }
  const EventKind kind = l.truncate_ ? EventKind::CodecFault
                         : kept > 0  ? EventKind::Compress
                                     : EventKind::FallbackRaw;
  const bool device_span = kind == EventKind::Compress && at.chunk >= 0;
  record({started, rank_id_, kind, l.algorithm_, original_total, wire_total,
          device_span ? l.kernel_time : tl.now() - started, at.scope});
}

void CompressionManager::encode(Timeline& tl, Launch& l, const Codec& codec,
                                std::size_t capacity) {
  const Placement& at = l.at_;
  Breakdown* bd = &sender_bd_;
  const Algorithm algo = codec.algorithm;
  PlanEntry* plan = l.staging.plan;
  const bool replay = l.replayed_;
  const comp::MpcCodec mpc(config_.mpc_dimensionality, config_.mpc_chunk_values);
  std::size_t d_off_bytes = 0;
  if (algo == Algorithm::MPC) {
    for (const auto& p : l.parts_) d_off_bytes += mpc.chunk_count(p.n) * 4;
  }
  setup_codec(tl, algo, d_off_bytes, replay, bd);

  // One kernel per part, round-robin over the streams, the SMs divided
  // among them unless the placement fixes the block count. A replayed
  // plan submits the whole round as one captured graph: a single
  // graph_launch on the first stream, the remaining nodes cost no host time.
  const int kernels = static_cast<int>(l.parts_.size());
  const int blocks = at.blocks > 0 ? at.blocks : std::max(1, gpu_.spec().sm_count / kernels);
  const int first = first_stream(algo, at);
  auto* base = static_cast<std::uint8_t*>(l.staging.data);
  std::size_t off = 0;
  l.sizes_.reserve(l.parts_.size());
  for (int i = 0; i < kernels; ++i) {
    const Launch::Part& p = l.parts_[static_cast<std::size_t>(i)];
    const std::span<std::uint8_t> dst{base + off, capacity - off};
    std::size_t size = 0;
    if (algo == Algorithm::MPC) {
      size = mpc.compress({p.values, p.n}, dst);
      l.kernel_time = cost_model_.mpc_compress(p.n * 4, size, blocks, gpu_.spec());
    } else {
      size = comp::ZfpCodec(codec.zfp_rate).compress({p.values, p.n}, comp::ZfpField::d1(p.n),
                                                      dst);
      l.kernel_time = cost_model_.zfp_compress(p.n * 4, codec.zfp_rate, gpu_.spec());
    }
    l.kernel_done = enqueue(tl, (first + i) % gpu_.num_streams(), l.kernel_time, replay, i == 0,
                            bd, Phase::CompressionKernel);
    l.sizes_.push_back(static_cast<std::uint32_t>(size));
    off += size;
  }

  if (at.synchronize) {
    for (int i = 0; i < kernels; ++i) {
      gpu_.stream((first + i) % gpu_.num_streams()).synchronize(tl, bd, Phase::CompressionKernel);
    }
    if (l.parts_.size() > l.encoded_) {
      // Combine a message's partitions into one contiguous buffer in fixed
      // order (Fig. 7). One D2D copy per partition on the copy stream
      // (graph nodes under a cached plan).
      for (std::uint32_t size : l.sizes_) {
        enqueue(tl, 0, gpu_.costs().d2d_copy(size), replay, false, bd, Phase::CombinePartitions);
      }
      gpu_.stream(0).synchronize(tl, bd, Phase::CombinePartitions);
    }
    finish_encode(tl, l, bd);
  }
  plan_mark_ready(tl, plan, bd);
}

void CompressionManager::finish_encode(Timeline& tl, const Launch& l, Breakdown* bd) {
  if (l.algorithm_ != Algorithm::MPC) return;  // fixed-rate ZFP sizes are known up front
  // Read back the compressed sizes (the 4-byte control words): cudaMemcpy
  // costs ~20us per call; GDRCopy reduces it to a few microseconds. A
  // launch's words live contiguously in its offset/length table, one per
  // message, so ONE readback covers a batch where a partitioned message
  // pays one per partition.
  const std::size_t words = l.encoded_;
  std::uint32_t word = 0;
  std::vector<std::uint32_t> table(words > 1 ? words : 0);
  std::uint32_t* host = words > 1 ? table.data() : &word;
  for (std::size_t w = 0; w < l.sizes_.size(); w += words) {
    if (config_.use_gdrcopy) {
      gpu_.gdrcopy_small(tl, host, &l.sizes_[w], words * 4, bd);
    } else {
      gpu_.memcpy_d2h_small(tl, host, &l.sizes_[w], words * 4, bd);
    }
  }
  teardown_codec(tl, l.algorithm_, l.replayed_, bd);
}

Staging CompressionManager::prepare_receive(Timeline& tl, const CompressionHeader& header) {
  if (!header.compressed) return {};
  PlanEntry* plan = receive_plan(header);
  // Plan slots are sized for the worst case (a raw-bounded wire can never
  // exceed original_bytes), so every later compressed size fits in place.
  const std::uint64_t capacity = plan != nullptr
                                     ? std::max(header.original_bytes, header.compressed_bytes)
                                     : header.compressed_bytes;
  return acquire(tl, plan, static_cast<std::size_t>(capacity), &receiver_bd_);
}

PlanEntry* CompressionManager::receive_plan(const CompressionHeader& header) {
  return plan_entry(PlanKind::Recv, header.algorithm, header.original_bytes,
                    header.algorithm == Algorithm::ZFP ? static_cast<int>(header.zfp_rate)
                                                       : header.partitions());
}

Staging CompressionManager::prepare_pipeline_receive(Timeline& tl,
                                                     std::uint64_t chunk_capacity,
                                                     int slices) {
  const std::size_t slice_bytes =
      (static_cast<std::size_t>(chunk_capacity) + 255) & ~std::size_t{255};
  return acquire(tl, plan_entry(PlanKind::PipeRecv, Algorithm::None, chunk_capacity, slices),
                 slice_bytes * static_cast<std::size_t>(std::max(1, slices)), &receiver_bd_);
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

CompressionManager::Kernel CompressionManager::decode(Timeline& tl,
                                                      const CompressionHeader& header,
                                                      const void* staged, void* out,
                                                      std::uint64_t capacity,
                                                      std::optional<comp::ReduceOp> fold,
                                                      const Placement& at) {
  if (!header.compressed && !fold) return {tl.now(), Time::zero()};
  if (header.original_bytes > capacity) {
    throw std::runtime_error("CompressionManager: output buffer too small");
  }
  Breakdown* bd = &receiver_bd_;
  const std::size_t n = header.original_bytes / 4;
  auto* dst = static_cast<float*>(out);
  if (!header.compressed) {
    // Plain on-device elementwise reduce of an uncompressed payload (raw
    // collective hops).
    gpu::Stream& s = gpu_.stream(at.stream);
    const Time cost = cost_model_.reduce_kernel(n * 4, gpu_.spec());
    const Time done = s.launch(tl, cost, bd, Phase::DecompressionKernel);
    comp::reduce_inplace(dst, static_cast<const float*>(staged), n, *fold);
    if (at.synchronize) s.synchronize(tl, bd, Phase::DecompressionKernel);
    return {done, cost};
  }

  const Time started = tl.now();
  if (fault_ != nullptr && fault_->on_decompress(rank_id_)) {
    // Injected decompression-kernel fault: the launch errors out before
    // any output is produced (a fused reduce leaves the accumulator
    // untouched). Charge the wasted enqueue and report; the caller
    // recovers (protocol NACK -> raw resend, or a local relaunch).
    tl.advance(gpu_.costs().kernel_launch);
    ++stats_.codec_faults;
    record({started, rank_id_, EventKind::CodecFault, header.algorithm, header.original_bytes,
            header.compressed_bytes, tl.now() - started, at.scope});
    throw CodecFaultError{};
  }
  const Algorithm algo = header.algorithm;
  if (algo != Algorithm::MPC && algo != Algorithm::ZFP) {
    throw std::runtime_error("CompressionManager: compressed payload with no algorithm");
  }
  // A chunk decodes into a pipeline slice with no staging plan of its own:
  // its launch graph is keyed by its block count, and a ZFP chunk's by its
  // rate as well.
  const int chunk_param =
      algo == Algorithm::ZFP ? at.blocks << 16 | static_cast<int>(header.zfp_rate) : at.blocks;
  PlanEntry* plan = at.chunk >= 0
                        ? plan_entry(PlanKind::ChunkRecv, algo, header.original_bytes, chunk_param)
                        : receive_plan(header);
  const bool replay = plan != nullptr && plan->graph_ready;
  const int blocks = at.blocks > 0 ? at.blocks : partition_blocks(header.partitions());
  const int first = first_stream(algo, at);
  const auto* in = static_cast<const std::uint8_t*>(staged);

  Kernel last;
  int kernels = 0;
  if (algo == Algorithm::MPC) {
    // d_off scratch on the receiver side as well (Algorithm 2).
    const comp::MpcCodec codec(header.mpc_dimensionality, header.mpc_chunk_values);
    setup_codec(tl, algo, codec.chunk_count(n) * 4, replay, bd);
    std::size_t in_off = 0;
    std::size_t val_off = 0;
    for (int p = 0; p < header.partitions(); ++p) {
      const std::size_t psize = header.partition_bytes.empty()
                                    ? header.compressed_bytes
                                    : header.partition_bytes[static_cast<std::size_t>(p)];
      const std::span<const std::uint8_t> pin{in + in_off, psize};
      const std::size_t pvalues = comp::MpcCodec::encoded_values(pin);
      if (val_off + pvalues > n) throw std::runtime_error("MPC partition overflow");
      codec.decompress(pin, {dst + val_off, pvalues}, fold);
      last.cost = cost_model_.mpc_decompress(psize, pvalues * 4, blocks, gpu_.spec());
      last.done = enqueue(tl, (first + p) % gpu_.num_streams(), last.cost, replay, p == 0, bd,
                          Phase::DecompressionKernel);
      ++kernels;
      in_off += psize;
      val_off += pvalues;
    }
    if (val_off != n) throw std::runtime_error("MPC partitions do not cover message");
  } else {
    setup_codec(tl, algo, 0, replay, bd);
    const comp::ZfpCodec codec(header.zfp_rate);
    codec.decompress({in, header.compressed_bytes}, comp::ZfpField::d1(n), {dst, n}, fold);
    last.cost = cost_model_.zfp_decompress(n * 4, header.zfp_rate, gpu_.spec());
    last.done = enqueue(tl, first % gpu_.num_streams(), last.cost, replay, true, bd,
                        Phase::DecompressionKernel);
    kernels = 1;
  }
  if (at.synchronize && !fold) {
    for (int i = 0; i < kernels; ++i) {
      gpu_.stream((first + i) % gpu_.num_streams()).synchronize(tl, bd, Phase::DecompressionKernel);
    }
  }
  teardown_codec(tl, algo, replay, bd);
  if (fold) {
    // The fusion combines decoded values with the accumulator in registers
    // before the store: only the extra accumulator traffic is charged, on
    // the decode kernels' tail (a graph node under a cached plan).
    enqueue(tl, 0, cost_model_.fused_reduce_overhead(header.original_bytes, gpu_.spec()), replay,
            false, bd, Phase::DecompressionKernel);
  }
  plan_mark_ready(tl, plan, bd);
  if (fold && at.synchronize) gpu_.device_synchronize(tl, bd);
  record({started, rank_id_, EventKind::Decompress, algo, header.original_bytes,
          header.compressed_bytes, at.chunk >= 0 ? last.cost : tl.now() - started, at.scope});
  return last;
}

}  // namespace gcmpi::core
