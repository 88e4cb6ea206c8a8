// gcmpi_compress: command-line file compressor exposing both codecs in the
// library — the offline counterpart of the on-the-fly framework, handy for
// inspecting how a dataset will behave before enabling compression in the
// MPI path.
//
//   gcmpi_compress c <codec> <input> <output> [param]
//   gcmpi_compress d <codec> <input> <output> [param]
//   gcmpi_compress crc <input> [...]
//   gcmpi_compress trace [output.json] [dataset]
//
// codecs (param):
//   mpc [dimensionality]      float32, lossless
//   zfp [rate]                float32, fixed-rate lossy
//
// `crc` prints the CRC32C (Castagnoli) of each file — the same checksum
// the reliability layer stamps on every wire payload, so a transferred
// file can be checked against the value recorded in telemetry or a dump.
//
// `trace` runs a canned adaptive workload (compressible then incompressible
// phases plus a couple of allreduces) and dumps every telemetry stream as a
// Chrome/Perfetto trace — open the JSON in chrome://tracing or ui.perfetto.dev
// to see codec, pipeline, collective, and adapt decision tracks per rank.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "core/telemetry.hpp"
#include "data/datasets.hpp"
#include "mpi/world.hpp"
#include "net/cluster.hpp"
#include "util/crc32c.hpp"

namespace {

using namespace gcmpi::comp;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::uint8_t* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot create " + path);
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(size));
}

std::vector<float> as_floats(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() % sizeof(float) != 0) {
    throw std::runtime_error("input size is not a multiple of the value size");
  }
  std::vector<float> v(bytes.size() / sizeof(float));
  std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: gcmpi_compress c|d mpc|zfp <in> <out> [param]\n"
               "       gcmpi_compress crc <in> [...]\n"
               "       gcmpi_compress trace [out.json] [dataset]\n");
  return 2;
}

/// `trace` subcommand: a deterministic two-rank adaptive run whose full
/// telemetry (events, pipeline, collectives, decisions) is exported as
/// Chrome trace JSON.
int run_trace(const std::string& out_path, const std::string& dataset) {
  namespace g = gcmpi;
  g::core::Telemetry telemetry;
  g::adapt::AdaptiveController controller(g::gpu::v100_spec(), 12.5);
  controller.bind(telemetry);
  g::mpi::WorldOptions opts;
  opts.telemetry = &telemetry;
  opts.adaptive = &controller;
  opts.pipeline.enabled = true;  // chunked rendezvous => pipeline track
  g::sim::Engine engine;
  g::mpi::World world(engine, g::net::longhorn(2, 2),
                      g::core::CompressionConfig::mpc_opt(), opts);
  const int last = world.cluster().ranks() - 1;  // rank 0's inter-node peer

  const std::size_t n = (4u << 20) / 4;
  const auto compressible = g::data::generate(dataset, n);
  const auto noisy = g::data::quantized_noise(n, 4096, 7);
  world.run([&](g::mpi::Rank& R) {
    auto* dev = static_cast<float*>(R.gpu_malloc(n * 4));
    int tag = 0;
    for (const auto* phase : {&compressible, &noisy}) {
      if (R.rank() == 0) std::memcpy(dev, phase->data(), n * 4);
      for (int i = 0; i < 6; ++i, ++tag) {
        if (R.rank() == 0) {
          R.send(dev, n * 4, last, tag);
        } else if (R.rank() == last) {
          R.recv(dev, n * 4, 0, tag);
        }
      }
    }
    std::vector<float> sum(n);
    for (int round = 0; round < 2; ++round) {
      R.allreduce(compressible.data(), sum.data(), n, g::mpi::ReduceOp::Sum);
    }
    R.gpu_free(dev);
  });

  std::ofstream f(out_path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot create " + out_path);
  telemetry.write_chrome_trace(f);
  const auto s = telemetry.summarize();
  std::printf("wrote %s: %zu events, %zu pipeline records, %zu collectives, "
              "%zu decisions (%llu probes) — open in chrome://tracing\n",
              out_path.c_str(), telemetry.events().size(), telemetry.pipelines().size(),
              telemetry.collectives().size(), telemetry.decisions().size(),
              static_cast<unsigned long long>(s.probes));
  return 0;
}

// The zfp container needs the value count for decompression; prepend a
// tiny header for the CLI format. `param` is the mpc dimensionality or the
// zfp rate.
struct CliHeader {
  std::uint32_t magic = 0x47434d43u;  // "GCMC"
  std::uint32_t param = 0;
  std::uint64_t values = 0;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "crc") {
    try {
      for (int i = 2; i < argc; ++i) {
        const auto bytes = read_file(argv[i]);
        std::printf("%08x  %s\n", gcmpi::util::crc32c(bytes.data(), bytes.size()), argv[i]);
      }
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc >= 2 && std::string(argv[1]) == "trace") {
    try {
      return run_trace(argc > 2 ? argv[2] : "trace.json",
                       argc > 3 ? argv[3] : "msg_sppm");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc < 5) return usage();
  const std::string op = argv[1];
  const std::string codec = argv[2];
  const std::string in_path = argv[3];
  const std::string out_path = argv[4];
  const double param = argc > 5 ? std::atof(argv[5]) : 0.0;
  const bool compressing = op == "c";
  if ((!compressing && op != "d") || (codec != "mpc" && codec != "zfp")) return usage();

  try {
    const auto input = read_file(in_path);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::uint8_t> out;

    if (compressing) {
      const auto values = as_floats(input);
      CliHeader hdr;
      hdr.values = values.size();
      std::vector<std::uint8_t> body;
      if (codec == "mpc") {
        MpcCodec c(param > 0 ? static_cast<int>(param) : 1);
        body.resize(c.max_compressed_bytes(values.size()));
        body.resize(c.compress(values, body));
        hdr.param = static_cast<std::uint32_t>(c.dimensionality());
      } else {
        ZfpCodec c(param > 0 ? static_cast<int>(param) : 16);
        const ZfpField f = ZfpField::d1(values.size());
        body.resize(c.compressed_bytes(f));
        body.resize(c.compress(values, f, body));
        hdr.param = static_cast<std::uint32_t>(c.rate());
      }
      out.resize(sizeof(CliHeader) + body.size());
      std::memcpy(out.data(), &hdr, sizeof(hdr));
      std::memcpy(out.data() + sizeof(hdr), body.data(), body.size());
    } else {
      if (input.size() < sizeof(CliHeader)) throw std::runtime_error("truncated container");
      CliHeader hdr;
      std::memcpy(&hdr, input.data(), sizeof(hdr));
      if (hdr.magic != 0x47434d43u) throw std::runtime_error("not a gcmpi_compress file");
      const std::span<const std::uint8_t> body{input.data() + sizeof(hdr),
                                               input.size() - sizeof(hdr)};
      // The output is sized from the header, so its value count is checked
      // against the stream before anything is allocated for it.
      const int codec_param = static_cast<int>(hdr.param);
      if (codec == "mpc") {
        if (MpcCodec::encoded_values(body) != hdr.values) {
          throw std::runtime_error("container header disagrees with its stream");
        }
      } else {
        // Fixed rate: 4 * rate bits per 4-value block, compared by division
        // since the claimed stream size can overflow (2^62 values at rate 32
        // is 2^64 bytes).
        const std::uint64_t blocks = hdr.values / 4 + (hdr.values % 4 != 0 ? 1 : 0);
        if (blocks > body.size() * 2 / static_cast<std::uint64_t>(ZfpCodec(codec_param).rate())) {
          throw std::runtime_error("input shorter than the fixed-rate stream");
        }
      }
      std::vector<float> values(hdr.values);
      if (codec == "mpc") {
        MpcCodec(codec_param).decompress(body, values);
      } else {
        ZfpCodec(codec_param).decompress(body, ZfpField::d1(hdr.values), values);
      }
      out.resize(values.size() * 4);
      std::memcpy(out.data(), values.data(), out.size());
    }

    const auto t1 = std::chrono::steady_clock::now();
    write_file(out_path, out.data(), out.size());
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double mb = static_cast<double>(compressing ? input.size() : out.size()) / 1e6;
    std::printf("%s %s: %zu -> %zu bytes (ratio %.3f) in %.1f ms (%.0f MB/s)\n",
                compressing ? "compressed" : "decompressed", codec.c_str(), input.size(),
                out.size(),
                compressing ? static_cast<double>(input.size()) / static_cast<double>(out.size())
                            : static_cast<double>(out.size()) / static_cast<double>(input.size()),
                secs * 1e3, mb / secs);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
