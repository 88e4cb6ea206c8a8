#include "mpi/world.hpp"

#include <cstring>
#include <stdexcept>

#include "util/crc32c.hpp"
#include "util/parallel.hpp"

namespace gcmpi::mpi {

using sim::Time;
using sim::Timeline;

namespace {

// The modelled MVAPICH2 protocol costs (Sec. III-A): host-side overheads
// per send/receive call and per progress-engine event, and the sizes of
// the message envelope and the control packets.
constexpr Time kHostSendOverhead = Time::us(0.4);
constexpr Time kHostRecvOverhead = Time::us(0.4);
constexpr Time kProgressOverhead = Time::us(0.5);
constexpr std::uint64_t kEnvelopeBytes = 48;  // wire header per message
constexpr std::uint64_t kRtsBytes = 64;       // RTS before the piggybacked header
constexpr std::uint64_t kCtsBytes = 32;
constexpr std::uint64_t kNackBytes = 32;      // control packet asking for a re-push
/// Sender-side drop-detection margin past the expected arrival, multiplied
/// by kRetransmitBackoff after every failed attempt.
constexpr Time kRetransmitTimeout = Time::us(200);
constexpr double kRetransmitBackoff = 2.0;
/// Persistent channels: credits in the one-time grant (warm messages the
/// sender may have in flight before consume notifications refill them),
/// and the size of that grant's control packet.
constexpr int kChannelCredits = 4;
constexpr std::uint64_t kGrantBytes = 32;

std::span<const std::uint8_t> view(const void* data, std::uint64_t bytes) {
  return {static_cast<const std::uint8_t*>(data), bytes};
}

/// Can this freshly compressed header ride the warm channel? The cached
/// template only expands RepeatHeaders whose control parameters it holds;
/// an adaptive codec/rate switch demotes the message to a cold send (which
/// keeps the channel's template authoritative).
bool warm_compatible(const Channel& ch, const core::CompressionHeader& h) {
  if (!h.compressed) return true;  // raw wires need no template fields
  if (h.algorithm != ch.tmpl.algorithm) return false;
  if (h.algorithm == core::Algorithm::ZFP && h.zfp_rate != ch.tmpl.zfp_rate) return false;
  if (h.algorithm == core::Algorithm::MPC &&
      (h.mpc_dimensionality != ch.tmpl.mpc_dimensionality ||
       h.mpc_chunk_values != ch.tmpl.mpc_chunk_values)) {
    return false;
  }
  return h.partition_bytes.size() <= 255;  // RepeatHeader's u8 count
}

/// Header of an uncompressed wire payload of `bytes` bytes.
core::CompressionHeader raw_header(std::uint64_t bytes, std::uint32_t crc) {
  core::CompressionHeader raw;
  raw.original_bytes = bytes;
  raw.compressed_bytes = bytes;
  raw.payload_crc32c = crc;
  return raw;
}

/// A compressed payload decodes from the delivered bytes themselves, so
/// they must be exactly the bytes its header describes.
void check_compressed_payload(const core::CompressionHeader& header,
                              std::span<const std::uint8_t> payload) {
  if (payload.size() != header.compressed_bytes) {
    throw std::runtime_error("MiniMPI: compressed payload size differs from its header");
  }
}

}  // namespace

World::World(sim::Engine& engine, net::ClusterSpec cluster,
             core::CompressionConfig compression, WorldOptions options)
    : engine_(engine),
      cluster_(std::move(cluster)),
      compression_(std::move(compression)),
      options_(options),
      fabric_(std::make_unique<net::Fabric>(cluster_)),
      reliability_(options.fault != nullptr) {
  fabric_->set_fault_injector(options_.fault);
  ranks_.resize(static_cast<std::size_t>(cluster_.ranks()));
  int rank_id = 0;
  for (auto& r : ranks_) {
    r.gpu = std::make_unique<gpu::Gpu>(cluster_.gpu);
    r.mgr = std::make_unique<core::CompressionManager>(*r.gpu, compression_);
    if (options_.telemetry != nullptr) {
      r.mgr->attach_telemetry(options_.telemetry, rank_id);
    }
    if (options_.fault != nullptr) {
      r.mgr->attach_fault_injector(options_.fault);
    }
    if (options_.adaptive != nullptr) {
      r.mgr->attach_adaptive(options_.adaptive);
    }
    if (options_.persistent.enabled) {
      // Warm channels reuse compression plans across iterations (held
      // staging slots, graph-replayed launches); see core/plan_cache.hpp.
      r.mgr->enable_plan_cache(true);
    }
    ++rank_id;
  }
}

World::~World() = default;

gpu::Gpu& World::gpu_of(int rank) { return *ranks_.at(static_cast<std::size_t>(rank)).gpu; }

core::CompressionManager& World::compression_of(int rank) {
  return *ranks_.at(static_cast<std::size_t>(rank)).mgr;
}

void World::run(std::function<void(Rank&)> main) {
  for (int r = 0; r < cluster_.ranks(); ++r) {
    engine_.spawn("rank" + std::to_string(r), [this, r, main](sim::ActorContext& ctx) {
      Rank rank(*this, r, ctx);
      main(rank);
    });
  }
  engine_.run();
  // Flush one ChannelRecord per persistent channel (map order: key-sorted,
  // deterministic) so the telemetry streams can report warm-channel reuse.
  if (options_.telemetry != nullptr) {
    for (const auto& [key, ch] : channels_) {
      options_.telemetry->record_channel(
          {engine_.now(), ch.id, key.src, key.dst, key.tag_class, key.bytes, ch.warmups,
           ch.warm_sends, ch.credit_stalls, ch.retransmits, ch.raw_degrades, ch.plan_hits,
           ch.plan_misses, ch.header_bytes_saved});
    }
  }
}

void World::complete(const Request& req, Status status) {
  complete_at(req, status, engine_.now());
}

void World::complete_at(const Request& req, Status status, Time at) {
  req->status = status;
  req->complete = true;
  if (req->waiter != sim::kNoActor) {
    const sim::ActorId waiter = req->waiter;
    req->waiter = sim::kNoActor;
    engine_.wake(waiter, at);
  }
}

// ---------------------------------------------------------------------------
// Point-to-point protocol
// ---------------------------------------------------------------------------

Request World::do_isend(sim::ActorContext& ctx, int src, const void* buf,
                        std::uint64_t bytes, int dst, int tag) {
  if (dst < 0 || dst >= cluster_.ranks()) throw std::invalid_argument("isend: bad destination");
  const Envelope env = stamp(src, dst, tag, bytes);

  // Self-sends and small messages use the eager path: the payload is staged
  // (buffered-send semantics) and the send completes locally.
  if (dst == src || bytes <= options_.eager_threshold) {
    auto req = std::make_shared<RequestState>();
    EagerMsg msg{env, copy(host_.eager, view(buf, bytes))};
    if (reliability_) msg.env.crc = checksum(host_.crc_eager_stamp, msg.payload.bytes);
    ctx.advance(kHostSendOverhead);
    const Time t_arr = fabric_->transfer(ctx.now(), src, dst, bytes + kEnvelopeBytes);
    engine_.schedule(t_arr, [this, msg = std::move(msg)]() mutable {
      on_eager_arrival(std::move(msg));
    });
    complete(req, Status{src, tag, bytes});
    return req;
  }

  // Chunked pipelined rendezvous: large compressible messages overlap
  // compression, wire transfer, and decompression chunk by chunk.
  if (const std::uint64_t cb = pipelined_chunk_bytes(src, dst, buf, bytes); cb != 0) {
    return pipeline_isend(ctx, env, buf, cb);
  }

  // Persistent channels: repeated sends on the same (src, dst, tag, shape)
  // route skip the handshake once the channel is warm. Eager and pipelined
  // messages never get here: the pipeline keeps its own overlap machinery,
  // and warming it would need per-chunk channel state. User point-to-point
  // only: collective-internal tags mint a fresh value per invocation and
  // would never re-warm (engines ride wire channels).
  Channel* ch = nullptr;
  if (options_.persistent.enabled && tag >= 0 && tag < kCollTagBase) {
    ch = channel_for(ChannelKey{src, dst, tag, bytes});
  }

  // Rendezvous: compress on the sender GPU (Algorithm 1 / 3), then RTS with
  // the piggybacked compression header. Intra-node paths may be exempted
  // from compression (see compresses). Raw bytes leave from `buf` itself.
  const core::PlanCacheStats plan0 =
      ch != nullptr ? ranks_[static_cast<std::size_t>(src)].mgr->plan_stats()
                    : core::PlanCacheStats{};
  auto [header, payload] =
      compresses(src, dst) ? compress_send(ctx, src, buf, bytes, /*minted=*/false)
                           : std::pair{raw_header(bytes, 0), Payload{view(buf, bytes), nullptr}};
  if (ch != nullptr) {
    const auto& plan1 = ranks_[static_cast<std::size_t>(src)].mgr->plan_stats();
    ch->plan_hits += plan1.hits - plan0.hits;
    ch->plan_misses += plan1.misses - plan0.misses;
  }
  return start_serial(ctx, env, std::move(header), std::move(payload), buf, ch);
}

World::Envelope World::stamp(int src, int dst, int tag, std::uint64_t bytes) {
  Envelope env{src, dst, tag, bytes};
  env.seq = ranks_[static_cast<std::size_t>(src)].next_seq[dst]++;
  ranks_[static_cast<std::size_t>(dst)].unmatched.emplace(std::pair{src, env.seq}, tag);
  return env;
}

Request World::start_serial(sim::ActorContext& ctx, const Envelope& env,
                            core::CompressionHeader header, Payload payload,
                            const void* sender_buf, Channel* ch) {
  auto tx = std::make_shared<RndvTransfer>();
  tx->env = env;
  tx->send_req = std::make_shared<RequestState>();
  tx->sender_buf = sender_buf;
  tx->chunk_bytes = env.bytes;
  tx->chunks = 1;
  Segment& seg = tx->segments.emplace_back();
  fill_segment(seg, std::move(header), std::move(payload));
  if (ch != nullptr && ch->warm && warm_compatible(*ch, seg.header)) {
    push_warm(ctx, tx, ch);
  } else {
    post_rts(ctx, tx, seg.header);
  }
  return tx->send_req;
}

void World::post_rts(sim::ActorContext& ctx, const RndvPtr& tx,
                     const core::CompressionHeader& header) {
  ctx.advance(kHostSendOverhead);
  const Time t_rts =
      fabric_->control(ctx.now(), tx->env.src, tx->env.dst, kRtsBytes + header.wire_bytes());
  engine_.schedule(t_rts, [this, tx]() {
    Timeline tl(engine_.now() + kProgressOverhead);
    arrive(tx, tl);
  });
}

World::Payload World::copy(HostCounters::Copies& site, std::span<const std::uint8_t> bytes) {
  ++site.buffers;
  site.bytes += bytes.size();
  auto owner = std::make_shared<util::Bytes>(bytes.size());
  util::copy_bytes(owner->data(), bytes.data(), bytes.size());
  return {*owner, owner};
}

World::Payload World::take(const Manager::WireBlock& w, bool minted) {
  if (!minted && !w.header.compressed) return {view(w.data, w.bytes), nullptr};
  return copy(minted ? host_.minted_wire : host_.compressed_segment,
              view(w.data, w.bytes));
}

/// Checksums are charged zero virtual time: real NICs fold the ICRC into
/// the DMA engine, so the paper's timing model is unchanged by turning the
/// reliability layer on.
std::uint32_t World::checksum(std::uint64_t& site, std::span<const std::uint8_t> bytes) {
  site += bytes.size();
  return bytes.empty() ? 0 : util::crc32c(bytes.data(), bytes.size());
}

void World::fill_segment(Segment& seg, core::CompressionHeader header, Payload payload) {
  seg.header = std::move(header);
  seg.payload = std::move(payload);
  if (reliability_) {
    seg.header.payload_crc32c = checksum(host_.crc_segment_stamp, seg.payload.bytes);
  }
}

WireMessage World::make_raw_wire(const void* buf, std::uint64_t bytes) {
  return {raw_header(bytes, 0), copy(host_.minted_wire, view(buf, bytes)).owner};
}

std::pair<core::CompressionHeader, World::Payload> World::compress_send(
    sim::ActorContext& ctx, int rank, const void* buf, std::uint64_t bytes, bool minted) {
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  Timeline tl(ctx.now());
  const Manager::Message msg{buf, bytes};
  Manager::Launch sent = state.mgr->launch(tl, {&msg, 1}, Manager::Placement::message());
  state.mgr->finish(tl, sent);
  Payload payload = take(sent.wires[0], minted);
  state.mgr->release(tl, sent.staging);
  ctx.advance_to(tl.now());
  return {std::move(sent.wires[0].header), std::move(payload)};
}

std::vector<WireMessage> World::do_make_wire_batch(sim::ActorContext& ctx, int rank,
                                                   const std::vector<Rank::WireBlock>& blocks) {
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  Timeline tl(ctx.now());
  std::vector<WireMessage> out(blocks.size());

  // Blocks to intra-node peers may be exempt from compression (mirroring
  // do_isend); they skip the batch and go raw.
  std::vector<Manager::Message> inputs;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto& b = blocks[i];
    if (compresses(rank, b.peer)) {
      inputs.push_back({b.buf, b.bytes});
      index.push_back(i);
    } else {
      out[i] = make_raw_wire(b.buf, b.bytes);
    }
  }

  if (!inputs.empty()) {
    Manager::Launch batch = state.mgr->launch(tl, inputs, Manager::Placement::batch());
    state.mgr->finish(tl, batch);
    for (std::size_t k = 0; k < index.size(); ++k) {
      const auto& b = batch.wires[k];
      out[index[k]] = WireMessage{b.header, take(b, /*minted=*/true).owner};
    }
    state.mgr->release(tl, batch.staging);
  }
  ctx.advance_to(tl.now());
  return out;
}

bool World::compresses(int src, int dst) const {
  return compression_.compress_intra_node || !cluster_.same_node(src, dst);
}

bool World::batch_compress_eligible(int src, int dst, const void* buf,
                                    std::uint64_t bytes) const {
  return compresses(src, dst) &&
         ranks_[static_cast<std::size_t>(src)].mgr->should_compress(buf, bytes);
}

Request World::do_isend_wire(sim::ActorContext& ctx, int src, const WireMessage& msg,
                             int dst, int tag) {
  if (dst < 0 || dst >= cluster_.ranks()) throw std::invalid_argument("isend_wire: bad destination");
  if (dst == src) throw std::invalid_argument("isend_wire: self-send unsupported");
  if (!msg.payload) throw std::invalid_argument("isend_wire: empty message");

  // Engine wire sends ride tag-wildcard channels: the collective tag
  // changes every invocation, but the (src, dst, shape) route repeats, so
  // iteration two onward skips the RTS/CTS round trip entirely.
  Channel* ch = options_.persistent.enabled
                    ? channel_for(ChannelKey{src, dst, kWireTagClass, msg.original_bytes()})
                    : nullptr;
  // Forwarding a pre-built wire representation: protocol costs only — the
  // whole point of the compression-aware collectives. No raw fallback for
  // forwards: there is no original user buffer to resend.
  return start_serial(ctx, stamp(src, dst, tag, msg.original_bytes()), msg.header,
                      Payload{*msg.payload, msg.payload}, nullptr, ch);
}

// Eager delivery failures complete the receive with a clean StatusError
// instead of throwing: at a gather root one bad contributor must not take
// down the whole job (head-of-line audit; see TESTING.md).
Status World::deliver_eager(const PostedRecv& recv, const EagerMsg& msg) {
  Status status{msg.env.src, msg.env.tag, msg.env.bytes};
  if (!msg.crc_ok) {
    status.error = StatusError::ChecksumMismatch;
  } else if (recv.wire_out != nullptr) {
    *recv.wire_out = WireMessage{raw_header(msg.env.bytes, msg.env.crc), msg.payload.owner};
  } else if (recv.capacity < msg.env.bytes) {
    status.error = StatusError::Truncated;
  } else if (!msg.payload.bytes.empty()) {
    // Zero-byte messages are legal (match + status only); memcpy with a
    // null src/dst is not, even for size 0.
    std::memcpy(recv.buf, msg.payload.bytes.data(), msg.payload.bytes.size());
  }
  if (!status.ok()) status.bytes = 0;
  return status;
}

bool World::overtakes(const RankState& state, const Envelope& env, int tag) {
  const auto earlier = state.unmatched.lower_bound({env.src, 0});
  const auto self = state.unmatched.lower_bound({env.src, env.seq});
  return std::any_of(earlier, self,
                     [&](const auto& u) { return tag == kAnyTag || u.second == tag; });
}

std::optional<World::PostedRecv> World::take_posted(RankState& state, const Envelope& env) {
  const auto it = std::find_if(state.posted.begin(), state.posted.end(), [&](const PostedRecv& r) {
    return matches(r.src, r.tag, env) && !overtakes(state, env, r.tag);
  });
  if (it == state.posted.end()) return std::nullopt;
  PostedRecv recv = std::move(*it);
  state.posted.erase(it);
  return recv;
}

void World::on_eager_arrival(EagerMsg msg) {
  // Eager messages ride the reliable control plane, so this checksum is an
  // end-to-end assertion rather than a recovery trigger: a mismatch is
  // surfaced as StatusError::ChecksumMismatch on the matching receive.
  msg.crc_ok = !reliability_ || msg.env.crc == checksum(host_.crc_eager_verify, msg.payload.bytes);
  Timeline tl(engine_.now());
  arrive(std::move(msg), tl);
}

void World::arrive(Unexpected u, Timeline& tl) {
  const Envelope env = envelope_of(u);
  auto& state = ranks_[static_cast<std::size_t>(env.dst)];
  if (auto recv = take_posted(state, env)) {
    bind(std::move(u), std::move(*recv), tl);
    rematch(env.dst, env.src);
    return;
  }
  state.unexpected.push_back(std::move(u));
}

void World::bind(Unexpected u, PostedRecv recv, Timeline& tl) {
  const Envelope& env = envelope_of(u);
  ranks_[static_cast<std::size_t>(env.dst)].unmatched.erase({env.src, env.seq});
  if (const auto* eager = std::get_if<EagerMsg>(&u)) {
    complete(recv.req, deliver_eager(recv, *eager));
    return;
  }
  const RndvPtr tx = std::get<RndvPtr>(std::move(u));
  tx->recv = std::move(recv);
  if (!tx->pushed()) {
    begin_rndv_receive(tl, tx);
  } else if (tx->done) {
    // It ran out of retries before anything matched it: the receive it was
    // due to fill fails in its place, so later messages pair correctly.
    fail_requests(tx->env, nullptr, tx->recv.req, tl.now());
  } else {
    land_message(tx, std::exchange(tx->delivered, {}), tl);
  }
}

void World::rematch(int dst, int src) {
  auto& state = ranks_[static_cast<std::size_t>(dst)];
  const auto first = state.unmatched.lower_bound({src, 0});
  // Every queued message is still unmatched: none from src, nothing to retry.
  if (first == state.unmatched.end() || first->first.first != src) return;
  for (auto it = state.unexpected.begin(); it != state.unexpected.end();) {
    const Envelope& env = envelope_of(*it);
    auto recv = env.src == src ? take_posted(state, env) : std::nullopt;
    if (!recv) {
      ++it;
      continue;
    }
    Unexpected u = std::move(*it);
    state.unexpected.erase(it);
    Timeline tl(engine_.now());
    bind(std::move(u), std::move(*recv), tl);
    it = state.unexpected.begin();  // the bind may unblock earlier entries too
  }
}

void World::land(Timeline& tl, int rank, const core::CompressionHeader& header,
                 std::span<const std::uint8_t> payload, void* buf, std::uint64_t capacity,
                 const Manager::Placement& at, std::optional<ReduceOp> fold) {
  if (header.compressed) {
    check_compressed_payload(header, payload);
  } else if (!fold) {
    if (capacity < payload.size()) {
      throw std::runtime_error("MiniMPI: receive buffer too small for the message");
    }
    util::copy_bytes(buf, payload.data(), payload.size());
    return;
  }
  ranks_[static_cast<std::size_t>(rank)].mgr->decode(tl, header, payload.data(), buf, capacity,
                                                     fold, at);
}

void World::begin_rndv_receive(Timeline& tl, const RndvPtr& tx) {
  if (tx->pipelined() && tx->recv.wire_out == nullptr && tx->recv.capacity < tx->env.bytes) {
    throw std::runtime_error("MiniMPI: rendezvous truncation (receive buffer too small)");
  }
  auto& state = ranks_[static_cast<std::size_t>(tx->env.dst)];
  if (tx->pipelined()) {
    // One staging acquisition for the whole transfer, sized as `window`
    // chunk slices (chunk i's is slice i % window). It is held for the
    // modelled decodes; the host decodes each chunk from its delivered bytes.
    tx->staging = state.mgr->prepare_pipeline_receive(tl, tx->chunk_bytes, tx->window);
    if (tx->recv.wire_out != nullptr) {
      // Wire-form receivers of a pipelined send get the reassembled message
      // as a raw wire view (the per-chunk streams are not forwardable).
      tx->assemble = std::make_shared<util::Bytes>(tx->env.bytes);
      ++host_.assemble.buffers;
      host_.assemble.bytes += tx->env.bytes;
    }
  } else if (tx->recv.wire_out == nullptr) {
    // Receiver prepares the temporary device buffer for the compressed
    // payload (Algorithm 2). Wire-form receives keep the payload
    // compressed, so no staging buffer is needed.
    tx->staging = state.mgr->prepare_receive(tl, tx->segments[0].header);
  }
  // Clear the sender to send.
  tx->recv_cursor = tl.now();
  const Time t_cts = fabric_->control(tl.now(), tx->env.dst, tx->env.src, kCtsBytes);
  engine_.schedule(t_cts, [this, tx]() { start_rndv_sender(tx); });
}

void World::land_message(const RndvPtr& tx, const Payload& delivered, Timeline& tl) {
  Segment& seg = tx->segment(0);
  auto& state = ranks_[static_cast<std::size_t>(tx->env.dst)];
  const core::CompressionHeader header =
      tx->pushed() ? tx->repeat().expand(tx->ch->tmpl) : seg.header;
  if (tx->recv.wire_out != nullptr) {
    // Deliver the wire representation as-is; the application decompresses
    // later (or forwards it on). That WireMessage outlives the send, so a
    // borrowed payload is copied here; an owned one is shared.
    auto owner = delivered.owner ? delivered.owner : copy(host_.wire_out, delivered.bytes).owner;
    *tx->recv.wire_out = WireMessage{header, std::move(owner)};
  } else {
    // A compressed payload lands in the receiver's temporary device buffer
    // and decompresses into the user buffer (Algorithm 2, steps 6-7). A
    // pulled message took that buffer at its CTS; a pushed one takes it from
    // the plan cache now, and a steady-state consume reuses the shape's slot.
    if (tx->pushed()) tx->staging = state.mgr->prepare_receive(tl, header);
    const bool planned = tx->staging.planned();
    try {
      land(tl, tx->env.dst, header, delivered.bytes, tx->recv.buf, tx->recv.capacity);
    } catch (const core::CodecFaultError&) {
      // The stream is intact (CRC passed) but the kernel failed; ask the
      // sender for the raw buffer instead of relaunching on the same data.
      // The receive stays bound to this transfer.
      if (tx->pushed()) state.mgr->release(tl, tx->staging);
      nack_segment(tx, 0, tl.now(), true);
      return;
    }
    // Also frees the staging a decode-fault fallback to raw left unused
    // (a no-op when none was taken).
    state.mgr->release(tl, tx->staging);
    if (tx->pushed() && header.compressed) {
      ++(planned ? tx->ch->plan_hits : tx->ch->plan_misses);
    }
  }
  seg.done = true;
  sim::Engine::cancel(seg.watchdog);
  complete(tx->send_req, Status{tx->env.dst, tx->env.tag, tx->env.bytes});
  complete_at(tx->recv.req, Status{tx->env.src, tx->env.tag, tx->env.bytes}, tl.now());
  if (tx->pushed()) {
    // Credit refill piggybacks on the (zero-cost) consume notification.
    refill_credit(tx->ch, tl.now());
  } else {
    // A successful cold exchange is the channel's warm-up exchange: the
    // receiver now grants credits so the next message can skip the handshake.
    maybe_warm_channel(tx->env, header, tl.now());
  }
}

// ---------------------------------------------------------------------------
// The segment cycle: one reliability loop for every transfer. Only segment
// payloads can be dropped or corrupted; NACKs ride the reliable control
// plane.
// ---------------------------------------------------------------------------

net::Fabric::Delivery World::push_segment(const RndvPtr& tx, int i, Time start) {
  Segment& seg = tx->segment(i);
  seg.recovery_pending = false;
  ++seg.attempts;
  const std::uint64_t wire_bytes =
      seg.payload.bytes.size() + kEnvelopeBytes + tx->segment_header_bytes(i);
  const net::Fabric::Delivery d =
      fabric_->transfer_data(start, tx->env.src, tx->env.dst, wire_bytes);

  if (!d.dropped) {
    Payload delivered = seg.payload;
    if (d.corrupted) {
      // Flip one bit of a private copy; the sender's payload must stay
      // intact for the retransmission the receiver will ask for.
      delivered = copy(host_.corrupt_copy, seg.payload.bytes);
      if (!delivered.bytes.empty()) {
        const std::uint64_t bit = d.corrupt_bits % (delivered.bytes.size() * 8);
        (*delivered.owner)[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    engine_.schedule(d.at, [this, tx, i, delivered]() { on_segment_data(tx, i, delivered); });
    return d;
  }

  // The fabric dropped the packet. The receiver cannot NACK what it never
  // saw, so a timeout covers this case: the margin starts one
  // kRetransmitTimeout past the would-be arrival and grows by
  // kRetransmitBackoff with every failed attempt.
  Time margin = kRetransmitTimeout;
  for (int a = 1; a < seg.attempts; ++a) {
    margin = Time::ns(static_cast<std::int64_t>(static_cast<double>(margin.count_ns()) *
                                                kRetransmitBackoff));
  }
  seg.watchdog = engine_.schedule_cancelable(
      d.at + margin, [this, tx, i]() { nack_segment(tx, i, engine_.now(), false); });
  return d;
}

bool World::segment_intact(const RndvPtr& tx, int i, const Payload& delivered, Time at) {
  const Segment& seg = tx->segment(i);
  if (!reliability_) return true;
  if (checksum(host_.crc_segment_verify, delivered.bytes) == seg.header.payload_crc32c) return true;
  // A flipped bit anywhere in the payload — detected before any of it can
  // reach a decompression kernel or the user buffer.
  if (options_.telemetry != nullptr) {
    options_.telemetry->record({at, tx->env.dst, core::EventKind::CorruptionDetected,
                                tx->codec(i), seg.header.original_bytes, delivered.bytes.size(),
                                Time::zero()});
  }
  nack_segment(tx, i, at, false);
  return false;
}

void World::nack_segment(const RndvPtr& tx, int i, Time at, bool decode_fail) {
  Segment& seg = tx->segment(i);
  if (seg.done || seg.recovery_pending) return;
  sim::Engine::cancel(seg.watchdog);
  if (seg.attempts > options_.max_data_retries) {
    fail_transfer(tx, at);
    return;
  }
  seg.recovery_pending = true;
  if (options_.telemetry != nullptr) {
    options_.telemetry->record({at, tx->env.dst, core::EventKind::Retransmit, tx->codec(i),
                                seg.header.original_bytes, seg.payload.bytes.size(),
                                Time::zero()});
  }
  // NACK rides the reliable control plane back to the sender. For drop
  // timeouts the "NACK" models the sender's own retransmission timer, but
  // charging the control round-trip keeps the two recovery paths uniform.
  const Time t_nack = fabric_->control(at, tx->env.dst, tx->env.src, kNackBytes);
  engine_.schedule(t_nack, [this, tx, i, decode_fail]() {
    if (!tx->segment(i).done) resend_segment(tx, i, decode_fail);
  });
}

bool World::degrade_segment(Segment& seg, const void* src, std::uint64_t len) {
  // Decompression keeps failing on an intact stream: resend the original
  // user bytes uncompressed, straight from the user buffer. The send request
  // is still pending, so MPI semantics keep that buffer alive and unchanged.
  if (src == nullptr || seg.fell_back_raw) return false;
  seg.fell_back_raw = true;
  fill_segment(seg, raw_header(len, 0), {view(src, len), nullptr});
  return true;
}

void World::fail_requests(const Envelope& env, const Request& send_req,
                          const Request& recv_req, Time at) {
  // Retry budget exhausted: a clean error status instead of hanging the
  // job on an undeliverable payload.
  Status status{env.dst, env.tag, 0, StatusError::RetryLimit};
  if (send_req) complete_at(send_req, status, at);
  status.source = env.src;
  if (recv_req) complete_at(recv_req, status, at);
}

void World::on_segment_data(const RndvPtr& tx, int i, const Payload& delivered) {
  Segment& seg = tx->segment(i);
  if (seg.done) return;  // failed transfer, or a stale duplicate
  auto& state = ranks_[static_cast<std::size_t>(tx->env.dst)];
  Timeline tl(std::max(engine_.now() + kProgressOverhead, tx->recv_cursor));
  if (!segment_intact(tx, i, delivered, tl.now())) return;

  if (!tx->pipelined()) {
    if (tx->recv.req) {
      land_message(tx, delivered, tl);
    } else {
      // A pushed message is matched when it first arrives intact.
      tx->delivered = delivered;
      arrive(tx, tl);
    }
    return;
  }

  const std::uint64_t off = static_cast<std::uint64_t>(i) * tx->chunk_bytes;
  const std::uint64_t len = pipeline_chunk_len(tx, i);
  auto* out = (tx->recv.wire_out != nullptr ? tx->assemble->data()
                                            : static_cast<std::uint8_t*>(tx->recv.buf)) +
              off;
  if (seg.header.compressed) {
    check_compressed_payload(seg.header, delivered.bytes);
    try {
      const Manager::Kernel k =
          state.mgr->decode(tl, seg.header, delivered.bytes.data(), out, len, std::nullopt,
                            Manager::Placement::pipelined(i, tx->blocks));
      tx->recv_done = std::max(tx->recv_done, k.done);
      tx->decompress_busy += k.cost;
    } catch (const core::CodecFaultError&) {
      // Intact stream (CRC passed), faulting kernel: ask the sender to
      // resend just this chunk raw.
      nack_segment(tx, i, tl.now(), true);
      return;
    }
  } else {
    util::copy_bytes(out, delivered.bytes.data(), delivered.bytes.size());
    tx->recv_done = std::max(tx->recv_done, tl.now());
  }
  seg.done = true;
  sim::Engine::cancel(seg.watchdog);
  tx->recv_cursor = tl.now();
  ++tx->arrived;
  if (tx->arrived == tx->chunks) {
    engine_.schedule(std::max(tx->recv_done, tl.now()), [this, tx]() { finish_pipeline(tx); });
  }
}

void World::resend_segment(const RndvPtr& tx, int i, bool decode_fail) {
  Segment& seg = tx->segment(i);
  ++tx->retransmits;
  if (tx->pushed()) ++tx->ch->retransmits;
  if (decode_fail) {
    // Only the faulting segment degrades to raw, from the still-live user
    // buffer. Forwarded wire messages have none, hence no raw fallback. A
    // pushed message degrades alone; its channel stays warm.
    const std::uint64_t off = static_cast<std::uint64_t>(i) * tx->chunk_bytes;
    if (degrade_segment(seg, static_cast<const std::uint8_t*>(tx->sender_buf) + off,
                        pipeline_chunk_len(tx, i)) &&
        tx->pushed()) {
      ++tx->ch->raw_degrades;
    }
  }
  // A serial re-push waits for the sender's progress engine, as its first
  // push after the CTS did; a pushed or chunk re-push does not (DESIGN.md §7).
  const bool serial = !tx->pipelined() && !tx->pushed();
  const Time at = engine_.now() + (serial ? kProgressOverhead : Time::zero());
  const net::Fabric::Delivery d = push_segment(tx, i, at);
  tx->wire_total += seg.payload.bytes.size();
  tx->transfer_busy += d.wire;
}

void World::fail_transfer(const RndvPtr& tx, Time at) {
  tx->done = true;
  for (auto& seg : tx->segments) {
    seg.done = true;
    sim::Engine::cancel(seg.watchdog);
  }
  if (tx->staging.valid()) {
    Timeline tl(at);
    ranks_[static_cast<std::size_t>(tx->env.dst)].mgr->release(tl, tx->staging);
  }
  fail_requests(tx->env, tx->send_req, nullptr, at);
  if (tx->pushed()) {
    // Demote the channel to cold (it re-warms on the next successful cold
    // exchange) and push its stalled sends: no credit will refill it.
    Channel* ch = tx->ch;
    ch->warm = false;
    ch->credits = 0;
    if (auto it = stalled_.find(ch->id); it != stalled_.end()) {
      std::deque<RndvPtr> pending = std::move(it->second);
      stalled_.erase(it);
      for (auto& p : pending) push_segment(p, 0, at);
    }
  }
  if (tx->recv.req) {
    fail_requests(tx->env, nullptr, tx->recv.req, at);
  } else {
    Timeline tl(at);
    arrive(tx, tl);
  }
}

// ---------------------------------------------------------------------------
// Persistent channels (see mpi/channel.hpp): the pushed start of a serial
// rendezvous, cleared by a credit instead of RTS/CTS.
// ---------------------------------------------------------------------------

Channel* World::channel_for(const ChannelKey& key) {
  auto [it, inserted] = channels_.try_emplace(key);
  if (inserted) {
    it->second.id = next_channel_id_++;
    it->second.key = key;
  }
  return &it->second;
}

void World::maybe_warm_channel(const Envelope& env, const core::CompressionHeader& header,
                               Time at) {
  if (!options_.persistent.enabled) return;
  // The sender registered the channel at its first send: user p2p sends
  // under their exact tag, engine wire sends under the wildcard class.
  auto it = channels_.find(ChannelKey{env.src, env.dst, env.tag, env.bytes});
  if (it == channels_.end()) {
    it = channels_.find(ChannelKey{env.src, env.dst, kWireTagClass, env.bytes});
  }
  if (it == channels_.end() || it->second.warm) return;
  Channel* ch = &it->second;

  // Header template: shape-invariant control parameters the RepeatHeader
  // expansion needs. A raw first delivery (fallback) still records the
  // route's configured codec so later compressed messages stay expandable.
  core::CompressionHeader basis = header;
  if (!header.compressed && compresses(env.src, env.dst) &&
      compression_.algorithm != core::Algorithm::None) {
    basis.algorithm = compression_.algorithm;
    basis.zfp_rate = static_cast<std::uint16_t>(compression_.zfp_rate);
    basis.mpc_dimensionality = static_cast<std::uint16_t>(compression_.mpc_dimensionality);
    basis.mpc_chunk_values = static_cast<std::uint32_t>(compression_.mpc_chunk_values);
  }
  ch->tmpl = make_channel_template(basis, env.bytes);

  // ONE control packet grants the full credit window; refills piggyback on
  // the (zero-cost) consume notifications from then on.
  ++ch->warmups;
  const Time t_grant = fabric_->control(at, env.dst, env.src, kGrantBytes);
  engine_.schedule(t_grant, [ch]() {
    ch->warm = true;
    ch->credits = kChannelCredits;
  });
}

void World::push_warm(sim::ActorContext& ctx, const RndvPtr& tx, Channel* ch) {
  tx->ch = ch;
  ++ch->warm_sends;
  const std::uint64_t cold_ctrl = kRtsBytes + tx->segments[0].header.wire_bytes() + kCtsBytes;
  const std::uint64_t warm_ctrl = tx->segment_header_bytes(0);
  ch->header_bytes_saved += cold_ctrl > warm_ctrl ? cold_ctrl - warm_ctrl : 0;

  ctx.advance(kHostSendOverhead);
  if (ch->credits <= 0) {
    // Credit window exhausted: the payload is staged and queued; the next
    // consume notification funds the push.
    ++ch->credit_stalls;
    stalled_[ch->id].push_back(tx);
    return;
  }
  --ch->credits;
  push_segment(tx, 0, ctx.now());
}

RepeatHeader World::RndvTransfer::repeat() const {
  const Segment& seg = segments[0];
  RepeatHeader rh;
  rh.channel = ch->id;
  rh.seq = env.seq;
  rh.wire_len = seg.payload.bytes.size();
  rh.crc32c = seg.header.payload_crc32c;
  rh.flags = seg.header.compressed ? RepeatHeader::kCompressed
             : seg.fell_back_raw   ? RepeatHeader::kRawDegrade
                                   : std::uint8_t{0};
  rh.partition_bytes = seg.header.partition_bytes;
  return rh;
}

void World::refill_credit(Channel* ch, Time at) {
  ++ch->credits;
  auto it = stalled_.find(ch->id);
  if (it == stalled_.end() || it->second.empty()) return;
  RndvPtr tx = it->second.front();
  it->second.pop_front();
  --ch->credits;
  push_segment(tx, 0, at);
}

// ---------------------------------------------------------------------------
// Rendezvous: one segment cleared by RTS/CTS (serial), or one segment per
// chunk, each with its own sub-header, CRC, watchdog, and retry budget
// (chunked pipelined, see mpi/pipeline.hpp).
// ---------------------------------------------------------------------------

std::uint64_t World::pipelined_chunk_bytes(int src, int dst, const void* buf,
                                           std::uint64_t bytes) const {
  const PipelineConfig& cfg = options_.pipeline;
  if (!cfg.enabled || bytes < cfg.min_bytes || !batch_compress_eligible(src, dst, buf, bytes)) {
    return 0;
  }
  const net::LinkSpec& link = cluster_.same_node(src, dst) ? cluster_.intra : cluster_.inter;
  const std::uint64_t chunk = cfg.chunk_bytes != 0
                                  ? std::min(std::max<std::uint64_t>(cfg.chunk_bytes, 1), bytes)
                                  : auto_chunk_bytes(bytes, compression_, cluster_.gpu, link);
  return (bytes + chunk - 1) / chunk >= 2 ? chunk : 0;
}

Request World::pipeline_isend(sim::ActorContext& ctx, const Envelope& env, const void* buf,
                              std::uint64_t chunk_bytes) {
  auto tx = std::make_shared<RndvTransfer>();
  tx->env = env;
  tx->send_req = std::make_shared<RequestState>();
  tx->sender_buf = buf;
  tx->chunk_bytes = chunk_bytes;
  tx->chunks = static_cast<int>((env.bytes + chunk_bytes - 1) / chunk_bytes);
  tx->window = std::min(tx->chunks, kPipelineWindow);
  tx->blocks = pipeline_chunk_blocks(cluster_.gpu, kPipelineWindow, tx->chunks);
  tx->segments.resize(static_cast<std::size_t>(tx->chunks));
  // The RTS announces the chunk geometry; compression has NOT run yet — it
  // is overlapped with the transfers once the CTS arrives. Per-chunk
  // headers (sizes, CRCs) travel with each chunk's envelope instead.
  core::CompressionHeader announce;
  announce.algorithm = compression_.algorithm;
  announce.original_bytes = env.bytes;
  announce.compressed_bytes = env.bytes;
  announce.pipeline_chunks = static_cast<std::uint32_t>(tx->chunks);
  announce.pipeline_chunk_bytes = chunk_bytes;
  post_rts(ctx, tx, announce);
  return tx->send_req;
}

void World::start_rndv_sender(const RndvPtr& tx) {
  if (tx->done) return;
  tx->start = engine_.now();
  tx->send_cursor = engine_.now() + kProgressOverhead;
  if (!tx->pipelined()) {
    // Serial: push the payload compressed before the RTS.
    push_segment(tx, 0, tx->send_cursor);
    return;
  }
  for (int i = 0; i < tx->window; ++i) launch_pipeline_chunk(tx);
}

void World::launch_pipeline_chunk(const RndvPtr& tx) {
  if (tx->done || tx->next_chunk >= tx->chunks) return;
  const int ci = tx->next_chunk++;
  const std::uint64_t off = static_cast<std::uint64_t>(ci) * tx->chunk_bytes;
  const std::uint64_t len = pipeline_chunk_len(tx, ci);
  auto& state = ranks_[static_cast<std::size_t>(tx->env.src)];
  Timeline tl(tx->send_cursor);
  const Manager::Message msg{static_cast<const std::uint8_t*>(tx->sender_buf) + off, len};
  auto ck = std::make_shared<Manager::Launch>(
      state.mgr->launch(tl, {&msg, 1}, Manager::Placement::pipelined(ci, tx->blocks)));
  tx->send_cursor = tl.now();
  tx->compress_busy += ck->kernel_time;
  // Host-side completion (size readback, fallback decision, push) runs
  // once the chunk's kernels drain AND the progress thread is free.
  const Time ready = std::max(ck->kernel_done, tx->send_cursor);
  engine_.schedule(ready, [this, tx, ci, ck]() { pipeline_chunk_ready(tx, ci, ck); });
}

void World::pipeline_chunk_ready(const RndvPtr& tx, int chunk,
                                 const std::shared_ptr<Manager::Launch>& ck) {
  auto& state = ranks_[static_cast<std::size_t>(tx->env.src)];
  if (tx->done) {
    // The transfer failed while this chunk was compressing: nothing will
    // push it, so hand its staging back.
    Timeline tl(engine_.now());
    state.mgr->release(tl, ck->staging);
    return;
  }
  Timeline tl(std::max(engine_.now(), tx->send_cursor));
  state.mgr->finish(tl, *ck);
  Segment& seg = tx->segment(chunk);
  fill_segment(seg, ck->wires[0].header, take(ck->wires[0], /*minted=*/false));
  state.mgr->release(tl, ck->staging);
  tx->send_cursor = tl.now();
  const net::Fabric::Delivery d = push_segment(tx, chunk, tx->send_cursor);
  tx->wire_total += seg.payload.bytes.size();
  tx->transfer_busy += d.wire;  // occupancy including retransmitted pushes
  // Keep the window full: one finished chunk funds the next launch.
  launch_pipeline_chunk(tx);
}

void World::finish_pipeline(const RndvPtr& tx) {
  if (tx->done) return;
  tx->done = true;
  auto& state = ranks_[static_cast<std::size_t>(tx->env.dst)];
  Timeline tl(engine_.now());
  // One final cudaStreamSynchronize before the user buffer is handed over.
  tl.advance(state.gpu->costs().stream_sync);
  state.mgr->release(tl, tx->staging);
  if (tx->recv.wire_out != nullptr) {
    // Every chunk was verified on arrival; a forward stamps its own CRC.
    *tx->recv.wire_out = WireMessage{raw_header(tx->env.bytes, 0), tx->assemble};
  }
  if (options_.telemetry != nullptr) {
    options_.telemetry->record_pipeline(
        {tx->start, tx->env.src, tx->env.dst, compression_.algorithm, tx->env.bytes,
         tx->wire_total, static_cast<std::uint32_t>(tx->chunks), tx->retransmits,
         tl.now() - tx->start, tx->compress_busy, tx->transfer_busy, tx->decompress_busy});
  }
  complete(tx->send_req, Status{tx->env.dst, tx->env.tag, tx->env.bytes});
  complete_at(tx->recv.req, Status{tx->env.src, tx->env.tag, tx->env.bytes}, tl.now());
}

const World::Envelope& World::envelope_of(const Unexpected& u) {
  if (const auto* tx = std::get_if<RndvPtr>(&u)) return (*tx)->env;
  return std::get<EagerMsg>(u).env;
}

std::deque<World::Unexpected>::iterator World::find_unexpected(RankState& state, int src,
                                                                int tag) {
  return std::find_if(state.unexpected.begin(), state.unexpected.end(), [&](const Unexpected& u) {
    const Envelope& env = envelope_of(u);
    return matches(src, tag, env) && !overtakes(state, env, tag);
  });
}

Request World::do_irecv(sim::ActorContext& ctx, int dst, void* buf, std::uint64_t capacity,
                        int src, int tag, WireMessage* wire_out) {
  auto req = std::make_shared<RequestState>();
  auto& state = ranks_[static_cast<std::size_t>(dst)];
  PostedRecv self{buf, capacity, src, tag, req, wire_out};

  // The oldest arrival this receive may take, so a later message can never
  // overtake an earlier one.
  const auto it = find_unexpected(state, src, tag);
  if (it == state.unexpected.end()) {
    // Nothing waiting: post the receive.
    state.posted.push_back(std::move(self));
    ctx.advance(kHostRecvOverhead);
    return req;
  }
  Unexpected u = std::move(*it);
  state.unexpected.erase(it);
  const int from = envelope_of(u).src;
  // Copying out an eager message costs the host receive overhead; a
  // rendezvous receive charges its own steps.
  Timeline tl(ctx.now() +
              (std::holds_alternative<EagerMsg>(u) ? kHostRecvOverhead : Time::zero()));
  bind(std::move(u), std::move(self), tl);
  ctx.advance_to(tl.now());
  rematch(dst, from);
  return req;
}

// ---------------------------------------------------------------------------
// Rank facade
// ---------------------------------------------------------------------------

int Rank::size() const { return world_.size(); }

gpu::Gpu& Rank::gpu() { return world_.gpu_of(rank_); }

core::CompressionManager& Rank::compression() { return world_.compression_of(rank_); }

void* Rank::gpu_malloc(std::size_t bytes) {
  Timeline tl(ctx_.now());
  void* p = gpu().malloc_device(tl, bytes);
  ctx_.advance_to(tl.now());
  return p;
}

void Rank::gpu_free(void* p) {
  Timeline tl(ctx_.now());
  gpu().free_device(tl, p);
  ctx_.advance_to(tl.now());
}

Request Rank::isend(const void* buf, std::uint64_t bytes, int dst, int tag) {
  return world_.do_isend(ctx_, rank_, buf, bytes, dst, tag);
}

Request Rank::irecv(void* buf, std::uint64_t capacity, int src, int tag) {
  return world_.do_irecv(ctx_, rank_, buf, capacity, src, tag);
}

WireMessage Rank::make_wire(const void* buf, std::uint64_t bytes) {
  auto [header, payload] = world_.compress_send(ctx_, rank_, buf, bytes, /*minted=*/true);
  return {std::move(header), std::move(payload.owner)};
}

std::vector<Request> Rank::isend_batched(const std::vector<WireBlock>& blocks) {
  // Batch-compress only the blocks the normal isend path would compress,
  // and only when there are at least two of them to amortize the launch
  // over; everything else (small, host-resident, intra-node-exempt blocks)
  // takes the ordinary eager/rendezvous path, posted after the batch.
  std::vector<std::size_t> batched;
  std::vector<WireBlock> sub;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const auto& b = blocks[i];
    if (b.peer != rank_ && world_.batch_compress_eligible(rank_, b.peer, b.buf, b.bytes)) {
      batched.push_back(i);
      sub.push_back(b);
    }
  }
  std::vector<Request> reqs(blocks.size());
  if (sub.size() >= 2) {
    const std::vector<WireMessage> wires = world_.do_make_wire_batch(ctx_, rank_, sub);
    for (std::size_t k = 0; k < sub.size(); ++k) {
      reqs[batched[k]] = isend_wire(wires[k], sub[k].peer, sub[k].tag);
    }
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!reqs[i]) reqs[i] = isend(blocks[i].buf, blocks[i].bytes, blocks[i].peer, blocks[i].tag);
  }
  return reqs;
}

Request Rank::isend_wire(const WireMessage& msg, int dst, int tag) {
  return world_.do_isend_wire(ctx_, rank_, msg, dst, tag);
}

Request Rank::irecv_wire(WireMessage* out, int src, int tag) {
  return world_.do_irecv(ctx_, rank_, nullptr, ~0ull, src, tag, out);
}

void Rank::decompress_wire(const WireMessage& msg, void* buf, std::uint64_t capacity) {
  sim::Timeline tl(ctx_.now());
  core::Staging staging = land_wire(tl, msg, buf, capacity);
  compression().release(tl, staging);
  ctx_.advance_to(tl.now());
}

core::Staging Rank::land_wire(sim::Timeline& tl, const WireMessage& msg, void* buf,
                              std::uint64_t capacity, const Placement& at,
                              std::optional<ReduceOp> fold) {
  if (!msg.payload) throw std::invalid_argument("decompress_wire: empty message");
  core::Staging staging = compression().prepare_receive(tl, msg.header);
  // Wire-form receives have no protocol-level resend path, so injected
  // decompression faults are recovered by relaunching the kernels.
  core::CompressionManager::retry_decode(
      [&] { world_.land(tl, rank_, msg, buf, capacity, at, fold); });
  return staging;
}

Status Rank::wait(Request& req) {
  if (!req) throw std::invalid_argument("wait: null request");
  while (!req->complete) {
    req->waiter = ctx_.id();
    ctx_.block();
  }
  req->waiter = sim::kNoActor;
  return req->status;
}

void Rank::waitall(std::vector<Request>& reqs) {
  for (auto& r : reqs) (void)wait(r);
}

void Rank::send(const void* buf, std::uint64_t bytes, int dst, int tag) {
  Request req = isend(buf, bytes, dst, tag);
  (void)wait(req);
}

Status Rank::recv(void* buf, std::uint64_t capacity, int src, int tag) {
  Request req = irecv(buf, capacity, src, tag);
  return wait(req);
}

void Rank::sendrecv(const void* sendbuf, std::uint64_t send_bytes, int dst, int sendtag,
                    void* recvbuf, std::uint64_t recv_capacity, int src, int recvtag) {
  Request rr = irecv(recvbuf, recv_capacity, src, recvtag);
  Request sr = isend(sendbuf, send_bytes, dst, sendtag);
  (void)wait(rr);
  (void)wait(sr);
}

}  // namespace gcmpi::mpi
