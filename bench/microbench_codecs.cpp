// google-benchmark microbenchmarks of the REAL codec implementations (CPU
// wall-clock, this machine): MPC and ZFP (at several rates) on their
// dispatched and portable paths, plus the CRC32C wire checksum on its
// hardware and portable paths. These measure our from-scratch
// implementations honestly — the GPU throughputs used in the simulation
// come from the calibrated model, not from these numbers.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "data/datasets.hpp"
#include "sim/rng.hpp"
#include "util/crc32c.hpp"

namespace {

using namespace gcmpi;

const std::vector<float>& payload() {
  static const auto data = data::generate("msg_sweep3d", (4u << 20) / 4);
  return data;
}

// 4 MiB MPC payloads: msg_sweep3d (range 0, ratio ~1.5: dense tiles, so the
// transpose and zero elimination set the pace) and msg_sppm (range 1, ratio
// ~11: mostly empty tiles, so the d = 1 decode recurrence sets it).
const std::vector<float>& mpc_payload(std::int64_t which) {
  static const auto sppm = data::generate("msg_sppm", (4u << 20) / 4);
  return which == 0 ? payload() : sppm;
}

template <auto Compress>
void BM_MpcCompressImpl(benchmark::State& state) {
  const auto& in = mpc_payload(state.range(1));
  comp::MpcCodec codec(static_cast<int>(state.range(0)));
  std::vector<std::uint8_t> out(codec.max_compressed_bytes(in.size()));
  std::size_t size = 0;
  for (auto _ : state) {
    size = (codec.*Compress)(in, out);
    benchmark::DoNotOptimize(size);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * in.size() * 4));
  state.counters["ratio"] = static_cast<double>(in.size() * 4) / static_cast<double>(size);
}

template <auto Decompress>
void BM_MpcDecompressImpl(benchmark::State& state) {
  const auto& in = mpc_payload(state.range(0));
  comp::MpcCodec codec(1);
  std::vector<std::uint8_t> buf(codec.max_compressed_bytes(in.size()));
  const std::size_t size = codec.compress(in, buf);
  std::vector<float> out(in.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize((codec.*Decompress)({buf.data(), size}, out, std::nullopt));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * in.size() * 4));
}

// Args: {dimensionality, payload}. The plain names run the path compress()
// selects on this CPU (AVX-512 where available); *Portable the scalar path.
void BM_MpcCompress(benchmark::State& state) {
  BM_MpcCompressImpl<&comp::MpcCodec::compress>(state);
}
BENCHMARK(BM_MpcCompress)->Args({1, 0})->Args({4, 0})->Args({1, 1});

void BM_MpcCompressPortable(benchmark::State& state) {
  BM_MpcCompressImpl<&comp::MpcCodec::compress_portable>(state);
}
BENCHMARK(BM_MpcCompressPortable)->Args({1, 0})->Args({4, 0})->Args({1, 1});

// Arg: payload.
void BM_MpcDecompress(benchmark::State& state) {
  BM_MpcDecompressImpl<&comp::MpcCodec::decompress>(state);
}
BENCHMARK(BM_MpcDecompress)->Arg(0)->Arg(1);

void BM_MpcDecompressPortable(benchmark::State& state) {
  BM_MpcDecompressImpl<&comp::MpcCodec::decompress_portable>(state);
}
BENCHMARK(BM_MpcDecompressPortable)->Arg(0)->Arg(1);

template <auto Compress>
void BM_ZfpCompressImpl(benchmark::State& state) {
  const auto& in = payload();
  const comp::ZfpCodec codec(static_cast<int>(state.range(0)));
  const comp::ZfpField field = comp::ZfpField::d1(in.size());
  std::vector<std::uint8_t> out(codec.compressed_bytes(field));
  for (auto _ : state) {
    benchmark::DoNotOptimize((codec.*Compress)(in, field, out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * in.size() * 4));
}

template <auto Decompress>
void BM_ZfpDecompressImpl(benchmark::State& state) {
  const auto& in = payload();
  const comp::ZfpCodec codec(static_cast<int>(state.range(0)));
  const comp::ZfpField field = comp::ZfpField::d1(in.size());
  std::vector<std::uint8_t> buf(codec.compressed_bytes(field));
  (void)codec.compress(in, field, buf);
  std::vector<float> out(in.size());
  for (auto _ : state) {
    (codec.*Decompress)(buf, field, out, std::nullopt);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * in.size() * 4));
}

// Arg: rate (8 is the rate coll-mix runs). The plain names run the path
// compress()/decompress() select on this CPU (AVX-512 for rates 4..16
// where available); *Portable the scalar path.
void BM_ZfpCompress(benchmark::State& state) {
  BM_ZfpCompressImpl<&comp::ZfpCodec::compress>(state);
}
BENCHMARK(BM_ZfpCompress)->Arg(4)->Arg(8)->Arg(16);

void BM_ZfpCompressPortable(benchmark::State& state) {
  BM_ZfpCompressImpl<&comp::ZfpCodec::compress_portable>(state);
}
BENCHMARK(BM_ZfpCompressPortable)->Arg(4)->Arg(8)->Arg(16);

void BM_ZfpDecompress(benchmark::State& state) {
  BM_ZfpDecompressImpl<&comp::ZfpCodec::decompress>(state);
}
BENCHMARK(BM_ZfpDecompress)->Arg(4)->Arg(8)->Arg(16);

void BM_ZfpDecompressPortable(benchmark::State& state) {
  BM_ZfpDecompressImpl<&comp::ZfpCodec::decompress_portable>(state);
}
BENCHMARK(BM_ZfpDecompressPortable)->Arg(4)->Arg(8)->Arg(16);

template <std::uint32_t (*Crc)(const void*, std::size_t, std::uint32_t)>
void BM_Crc32cImpl(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(104729);
  std::vector<std::uint8_t> in(bytes);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc(in.data(), in.size(), 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}

void BM_Crc32c(benchmark::State& state) { BM_Crc32cImpl<util::crc32c>(state); }
BENCHMARK(BM_Crc32c)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

void BM_Crc32cPortable(benchmark::State& state) { BM_Crc32cImpl<util::crc32c_portable>(state); }
BENCHMARK(BM_Crc32cPortable)->Arg(64 << 10)->Arg(1 << 20)->Arg(8 << 20);

}  // namespace

BENCHMARK_MAIN();
