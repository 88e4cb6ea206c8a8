// Shrinking property tests for the fused decompress+reduce path that the
// collective engine rides (core::CompressionManager::decode with a fold, on
// a compressed or a raw header).
//
// Core property: for any payload `a` and accumulator `b`,
//     decode(compress(a), acc = b, fold)
// must equal the host-side
//     reduce_inplace(b, decode(compress(a)))
// BIT-exactly — the fused kernel is the same canonical accumulator-first
// fold, just run against freshly decoded values. For lossless MPC,
// decode(compress(a)) == a, so the reference collapses to reduce_inplace(b,
// a) including NaN/Inf payload bits; for fixed-rate ZFP the reference uses
// the actually-decoded (lossy) values, so equality stays exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compress/mpc.hpp"
#include "compress/reduce.hpp"
#include "compress/zfp.hpp"
#include "core/manager.hpp"
#include "fault/injector.hpp"
#include "sim/timeline.hpp"
#include "support/payloads.hpp"
#include "support/property.hpp"

namespace {

using namespace gcmpi::core;
using gcmpi::comp::reduce_inplace;
using gcmpi::comp::ReduceOp;
using gcmpi::gpu::Gpu;
using gcmpi::gpu::v100_spec;
using gcmpi::sim::Time;
using gcmpi::sim::Timeline;
using Placement = CompressionManager::Placement;
using gcmpi::testing::check_property;
using gcmpi::testing::make_floats;
using gcmpi::testing::PayloadCase;
using gcmpi::testing::PayloadKind;
using gcmpi::testing::Property;
using gcmpi::testing::test_seed;

const ReduceOp kOps[] = {ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min};

/// Deterministic accumulator derived from the payload length so shrinking
/// stays reproducible: a different smooth field, same size.
std::vector<float> accumulator_for(std::size_t n) {
  return make_floats(PayloadKind::SmoothField, n, 0xACCu + n);
}

std::optional<std::string> bit_mismatch(const std::vector<float>& expect,
                                        const float* got, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t eb = 0, gb = 0;
    std::memcpy(&eb, &expect[i], 4);
    std::memcpy(&gb, &got[i], 4);
    if (eb != gb) {
      std::ostringstream os;
      os << "index " << i << ": expected bits 0x" << std::hex << eb << " got 0x" << gb
         << std::dec << " (" << expect[i] << " vs " << got[i] << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

/// Run one fused-reduce round trip through the manager for every op and
/// compare against decode-then-host-reduce. nullopt == property holds.
std::optional<std::string> fused_matches_host(const CompressionConfig& cfg,
                                              std::span<const float> payload) {
  const std::size_t n = payload.size();
  Gpu gpu{v100_spec()};
  CompressionManager mgr(gpu, cfg);
  auto* dev = static_cast<float*>(gpu.malloc_device_untimed(n * 4 + 4));
  std::copy(payload.begin(), payload.end(), dev);
  Timeline tl(Time::zero());

  const CompressionManager::Message msg{dev, n * 4};
  auto sent = mgr.launch(tl, {&msg, 1}, Placement::message());
  mgr.finish(tl, sent);
  const auto& wire = sent.wires[0];
  std::vector<std::uint8_t> staged(static_cast<const std::uint8_t*>(wire.data),
                                   static_cast<const std::uint8_t*>(wire.data) + wire.bytes);
  const CompressionHeader header = wire.header;
  mgr.release(tl, sent.staging);

  // Reference: whatever the plain decompress path yields, folded on host.
  std::vector<float> decoded(n, -1.0f);
  if (header.compressed) {
    auto staging = mgr.prepare_receive(tl, header);
    std::memcpy(staging.data, staged.data(), staged.size());
    mgr.decode(tl, header, staging.data, decoded.data(), n * 4, std::nullopt,
               Placement::message());
    mgr.release(tl, staging);
  } else if (!staged.empty()) {
    std::memcpy(decoded.data(), staged.data(), staged.size());
  }

  for (ReduceOp op : kOps) {
    std::vector<float> expect = accumulator_for(n);
    reduce_inplace(expect.data(), decoded.data(), n, op);

    std::vector<float> acc = accumulator_for(n);
    auto staging = mgr.prepare_receive(tl, header);
    if (header.compressed) std::memcpy(staging.data, staged.data(), staged.size());
    mgr.decode(tl, header, header.compressed ? staging.data : staged.data(), acc.data(), n * 4,
               op, Placement::message());
    mgr.release(tl, staging);
    if (auto err = bit_mismatch(expect, acc.data(), n)) {
      return std::string("op=") + gcmpi::comp::reduce_op_name(op) + " " + *err +
             (header.compressed ? " (compressed path)" : " (raw path)");
    }
  }
  gpu.free_device_untimed(dev);
  return std::nullopt;
}

CompressionConfig forced(CompressionConfig cfg) {
  cfg.threshold_bytes = 64;  // compress even the tiny shrunken payloads
  return cfg;
}

TEST(FuzzReduce, FusedMpcMatchesHostReduceIncludingSpecials) {
  // finite_only=false: SpecialValues/HighEntropy payloads carry NaN payload
  // bits and infinities; MPC is lossless so the fold must still bit-match.
  const auto gen = [](const PayloadCase& c) { return make_floats(c.kind, c.n, c.seed); };
  const Property<float> prop = [](std::span<const float> v) {
    return fused_matches_host(forced(CompressionConfig::mpc_opt()), v);
  };
  auto report = check_property<float>("fused-reduce/mpc", 60, test_seed(), 1 << 14,
                                      /*finite_only=*/false, gen, prop);
  EXPECT_FALSE(report.has_value()) << *report;
}

TEST(FuzzReduce, FusedZfpMatchesDecodeThenReduce) {
  const auto gen = [](const PayloadCase& c) { return make_floats(c.kind, c.n, c.seed); };
  const Property<float> prop = [](std::span<const float> v) {
    return fused_matches_host(forced(CompressionConfig::zfp_opt(16)), v);
  };
  // finite_only=true: fixed-rate ZFP's contract only covers finite fields.
  auto report = check_property<float>("fused-reduce/zfp", 40, test_seed() + 1, 1 << 14,
                                      /*finite_only=*/true, gen, prop);
  EXPECT_FALSE(report.has_value()) << *report;
}

TEST(FuzzReduce, AllZeroPayloadReducesExactly) {
  for (std::size_t n : {std::size_t{1}, std::size_t{257}, std::size_t{4096}}) {
    const std::vector<float> zeros(n, 0.0f);
    auto err = fused_matches_host(forced(CompressionConfig::mpc_opt()),
                                  std::span<const float>(zeros));
    EXPECT_FALSE(err.has_value()) << "n=" << n << ": " << *err;
  }
}

TEST(FuzzReduce, RawFoldMatchesHostFold) {
  const auto gen = [](const PayloadCase& c) { return make_floats(c.kind, c.n, c.seed); };
  const Property<float> prop = [](std::span<const float> v) -> std::optional<std::string> {
    Gpu gpu{v100_spec()};
    CompressionManager mgr(gpu, CompressionConfig::off());
    Timeline tl(Time::zero());
    for (ReduceOp op : kOps) {
      std::vector<float> expect = accumulator_for(v.size());
      reduce_inplace(expect.data(), v.data(), v.size(), op);
      std::vector<float> acc = accumulator_for(v.size());
      CompressionHeader raw;
      raw.original_bytes = raw.compressed_bytes = v.size() * 4;
      mgr.decode(tl, raw, v.data(), acc.data(), v.size() * 4, op, Placement::message());
      if (auto err = bit_mismatch(expect, acc.data(), v.size())) {
        return std::string("op=") + gcmpi::comp::reduce_op_name(op) + " " + *err;
      }
    }
    return std::nullopt;
  };
  auto report = check_property<float>("reduce-device", 40, test_seed() + 2, 1 << 14,
                                      /*finite_only=*/false, gen, prop);
  EXPECT_FALSE(report.has_value()) << *report;
}

TEST(FuzzReduce, FusedFaultRetryLeavesAccumulatorIntact) {
  // A decompression fault must be raised BEFORE the accumulator is touched
  // so a kernel relaunch reduces exactly once (retry safety of the ring's
  // per-hop recovery). CompressionManager::retry_decode hides the fault; the
  // result must match the fault-free fold.
  const std::size_t n = 2048;
  const auto payload = make_floats(PayloadKind::SmoothField, n, 7);
  auto plan = gcmpi::fault::FaultPlan::lossy(42, 0.0, 0.0);
  plan.decompress_fail_probability = 0.5;
  gcmpi::fault::FaultInjector faults(plan);

  auto cfg = forced(CompressionConfig::mpc_opt());
  Gpu gpu{v100_spec()};
  CompressionManager mgr(gpu, cfg);
  mgr.attach_fault_injector(&faults);
  auto* dev = static_cast<float*>(gpu.malloc_device_untimed(n * 4));
  std::memcpy(dev, payload.data(), n * 4);
  Timeline tl(Time::zero());

  const CompressionManager::Message msg{dev, n * 4};
  auto sent = mgr.launch(tl, {&msg, 1}, Placement::message());
  mgr.finish(tl, sent);
  const auto& wire = sent.wires[0];
  ASSERT_TRUE(wire.header.compressed);
  std::vector<std::uint8_t> staged(static_cast<const std::uint8_t*>(wire.data),
                                   static_cast<const std::uint8_t*>(wire.data) + wire.bytes);
  const CompressionHeader header = wire.header;
  mgr.release(tl, sent.staging);

  std::vector<float> expect = accumulator_for(n);
  reduce_inplace(expect.data(), payload.data(), n, ReduceOp::Sum);

  int faulted_runs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> acc = accumulator_for(n);
    auto staging = mgr.prepare_receive(tl, header);
    std::memcpy(staging.data, staged.data(), staged.size());
    const auto before = mgr.stats().codec_faults;
    CompressionManager::retry_decode(
        [&] {
          mgr.decode(tl, header, staging.data, acc.data(), n * 4, ReduceOp::Sum,
                     Placement::message());
        });
    mgr.release(tl, staging);
    if (mgr.stats().codec_faults > before) ++faulted_runs;
    ASSERT_EQ(std::memcmp(expect.data(), acc.data(), n * 4), 0)
        << "trial " << trial << " (faults so far: " << mgr.stats().codec_faults << ")";
  }
  EXPECT_GT(faulted_runs, 0) << "fault plan never fired; the retry path went untested";
  gpu.free_device_untimed(dev);
}

// The codecs' own folds. decompress(stream, acc, op) must equal
// decompress(stream) followed by reduce_inplace(acc, decoded, op), bit for
// bit, on the dispatched and on the portable path: at the sizes where a
// stream is empty or one value, where the fold buffer and MPC's chunk end
// (1024 values), just past one split piece (32 MPC chunks, 256 ZFP
// groups) and just past the sizes from which a stream splits (128 MPC
// chunks, 1024 ZFP groups; DESIGN.md section 15). NaNs of both signs and
// payloads, signed zeros and infinities sit in the accumulators and in the
// inputs; fixed-rate ZFP codes the non-finite inputs as 0, which the
// reference sees too.
const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::bit_cast<float>(0x7FA00001u),
                           0.0f,
                           -0.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::denorm_min(),
                           1.0f,
                           -1.0f};

/// A smooth field with a special value every `stride` values, starting at
/// index 0 with kSpecials[shift].
std::vector<float> with_specials(std::size_t n, std::uint64_t seed, std::size_t stride,
                                 std::size_t shift) {
  std::vector<float> v = make_floats(PayloadKind::SmoothField, n, seed);
  for (std::size_t i = 0; i < n; i += stride) {
    v[i] = kSpecials[(i / stride + shift) % std::size(kSpecials)];
  }
  return v;
}

struct FoldPath {
  std::string name;
  std::function<std::vector<std::uint8_t>(std::span<const float>)> encode;
  std::function<void(std::span<const std::uint8_t>, std::span<float>, std::optional<ReduceOp>)>
      decode;
};

std::vector<FoldPath> fold_paths() {
  using gcmpi::comp::MpcCodec;
  using gcmpi::comp::ZfpCodec;
  using gcmpi::comp::ZfpField;
  std::vector<FoldPath> paths;
  for (const bool portable : {false, true}) {
    paths.push_back(
        {portable ? "mpc/portable" : "mpc",
         [](std::span<const float> in) {
           const MpcCodec codec(1);
           std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
           out.resize(codec.compress(in, out));
           return out;
         },
         [portable](std::span<const std::uint8_t> in, std::span<float> out,
                    std::optional<ReduceOp> fold) {
           const MpcCodec codec(1);
           portable ? codec.decompress_portable(in, out, fold) : codec.decompress(in, out, fold);
         }});
    for (const int rate : {8, 16}) {
      paths.push_back(
          {"zfp" + std::to_string(rate) + (portable ? "/portable" : ""),
           [rate](std::span<const float> in) {
             const ZfpCodec codec(rate);
             std::vector<std::uint8_t> out(codec.compressed_bytes(ZfpField::d1(in.size())));
             (void)codec.compress(in, ZfpField::d1(in.size()), out);
             return out;
           },
           [rate, portable](std::span<const std::uint8_t> in, std::span<float> out,
                            std::optional<ReduceOp> fold) {
             const ZfpCodec codec(rate);
             const ZfpField field = ZfpField::d1(out.size());
             portable ? codec.decompress_portable(in, field, out, fold)
                      : codec.decompress(in, field, out, fold);
           }});
    }
  }
  return paths;
}

TEST(FuzzReduce, CodecFoldMatchesDecodeThenReduce) {
  const std::uint64_t seed = test_seed();
  for (const FoldPath& path : fold_paths()) {
    const bool mpc = path.name.starts_with("mpc");
    const std::vector<std::size_t> sizes =
        mpc ? std::vector<std::size_t>{0, 1, 1023, 1024, 32769, 32771, 131073, 131075}
            : std::vector<std::size_t>{1, 1023, 1024, 16385, 16387, 65537, 65539};
    for (const std::size_t n : sizes) {
      const std::vector<float> in = with_specials(n, seed + n, 5, 0);
      const std::vector<std::uint8_t> stream = path.encode(in);
      std::vector<float> decoded(n);
      path.decode(stream, decoded, std::nullopt);
      for (const ReduceOp op : kOps) {
        SCOPED_TRACE(path.name + " n=" + std::to_string(n) + " op=" +
                     gcmpi::comp::reduce_op_name(op));
        std::vector<float> expect = with_specials(n, seed + 2 * n + 1, 3, 3);
        std::vector<float> acc = expect;
        reduce_inplace(expect.data(), decoded.data(), n, op);
        path.decode(stream, acc, op);
        if (auto err = bit_mismatch(expect, acc.data(), n)) FAIL() << *err;
      }
    }
  }
}

TEST(FuzzReduce, CodecFoldCoversEverySpecialPair) {
  // Every (accumulator, input) pair of special values, in one stream.
  constexpr std::size_t k = std::size(kSpecials);
  std::vector<float> in(k * k);
  std::vector<float> acc0(k * k);
  for (std::size_t i = 0; i < k * k; ++i) {
    in[i] = kSpecials[i % k];
    acc0[i] = kSpecials[i / k];
  }
  for (const FoldPath& path : fold_paths()) {
    const std::vector<std::uint8_t> stream = path.encode(in);
    std::vector<float> decoded(in.size());
    path.decode(stream, decoded, std::nullopt);
    for (const ReduceOp op : kOps) {
      SCOPED_TRACE(path.name + " op=" + gcmpi::comp::reduce_op_name(op));
      std::vector<float> expect = acc0;
      reduce_inplace(expect.data(), decoded.data(), in.size(), op);
      std::vector<float> acc = acc0;
      path.decode(stream, acc, op);
      if (auto err = bit_mismatch(expect, acc.data(), in.size())) FAIL() << *err;
    }
  }
}

}  // namespace
