// bench_runner — the repo's wall-clock perf trajectory.
//
// Sweeps both codecs messages run (MPC, and ZFP at rates 4, 8 and 16) over
// the Table-III synthetic datasets at several message sizes, measures host
// wall-clock throughput (MB/s, input-referenced), and writes
// BENCH_codecs.json so each change leaves a machine-readable perf record
// behind. The calibrated simulated throughput (Gb/s) of the paper's GPU cost
// model is reported next to the measured number — the simulation column is
// what the paper's figures use; the wall-clock column is what this repo's
// experiments actually pay.
//
// Usage:
//   bench_runner [--quick] [--out FILE] [--baseline FILE] [--threshold FRAC]
//
// --quick      smaller sweep (one size, two datasets) for CI
// --out        where to write the JSON (default: BENCH_codecs.json in cwd)
// --baseline   compare against a previous BENCH_codecs.json; exit 1 if any
//              entry is missing from it or regressed by more than --threshold
// --threshold  allowed fractional regression vs. baseline (default 0.25)
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "compress/kernel_cost.hpp"
#include "compress/mpc.hpp"
#include "compress/zfp.hpp"
#include "data/datasets.hpp"
#include "gpu/cost_model.hpp"
#include "harness.hpp"

namespace {

using namespace gcmpi;
using bench::time_seconds;

const bench::Schema kSchema{
    "gcmpi-bench-codecs-v1",
    {{"mbps", "input MB/s wall-clock"}, {"sim_gbs", "calibrated V100 model Gb/s"}}};

std::string size_label(std::size_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20)) {
    std::snprintf(buf, sizeof(buf), "%zuMiB", bytes >> 20);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuKiB", bytes >> 10);
  }
  return buf;
}

double mbps_of(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / seconds / 1e6;
}

/// Simulated Gb/s of the paper's GPU kernel model for the same workload.
double sim_gbs_mpc(bool compress, std::size_t in_bytes, std::size_t out_bytes, int blocks) {
  const comp::KernelCostModel model;
  const gpu::GpuSpec gpu = gpu::v100_spec();
  const sim::Time t = compress ? model.mpc_compress(in_bytes, out_bytes, blocks, gpu)
                               : model.mpc_decompress(out_bytes, in_bytes, blocks, gpu);
  return static_cast<double>(in_bytes) * 8.0 / t.to_seconds() / 1e9;
}

double sim_gbs_zfp(bool compress, std::size_t in_bytes, int rate) {
  const comp::KernelCostModel model;
  const gpu::GpuSpec gpu = gpu::v100_spec();
  const sim::Time t = compress ? model.zfp_compress(in_bytes, rate, gpu)
                               : model.zfp_decompress(in_bytes, rate, gpu);
  return static_cast<double>(in_bytes) * 8.0 / t.to_seconds() / 1e9;
}

/// Prints and appends the rows <codec>.<op>/<dataset>/<size> for op =
/// compress, decompress and roundtrip. mbps is wall-clock and
/// input-referenced, ratio is in/out, sim_gbs the calibrated GPU-model
/// throughput.
void push_pair(std::vector<bench::Row>& out, const std::string& codec, const std::string& dataset,
               std::size_t bytes, double t_comp, double t_dec, double ratio, double sim_c,
               double sim_d) {
  const struct {
    const char* op;
    double seconds;
    double sim_gbs;
  } ops[] = {{"compress", t_comp, sim_c}, {"decompress", t_dec, sim_d},
             {"roundtrip", t_comp + t_dec, 0.0}};
  for (const auto& [op, seconds, sim_gbs] : ops) {
    const double mbps = mbps_of(bytes, seconds);
    bench::Row row{codec + "." + op + "/" + dataset + "/" + size_label(bytes)};
    row.text("codec", codec)
        .text("op", op)
        .text("dataset", dataset)
        .count("bytes", bytes)
        .fixed("mbps", mbps, 1)
        .fixed("ratio", ratio, 3)
        .fixed("sim_gbs", sim_gbs, 1);
    std::printf("%-52s %10.1f %8.3f %9.1f\n", row.name.c_str(), mbps, ratio, sim_gbs);
    out.push_back(std::move(row));
  }
}

void bench_all(bool quick, std::vector<bench::Row>& results) {
  const double min_s = quick ? 0.05 : 0.2;
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{4u << 20}
            : std::vector<std::size_t>{1u << 20, 4u << 20, 16u << 20};
  const std::vector<std::string> float_sets =
      quick ? std::vector<std::string>{"msg_sweep3d", "msg_sppm"}
            : std::vector<std::string>{"msg_sweep3d", "msg_sppm", "num_plasma"};

  for (const std::string& ds : float_sets) {
    for (std::size_t bytes : sizes) {
      const std::size_t n = bytes / 4;
      const std::vector<float> in = data::generate(ds, n);

      {  // MPC (float), dataset-tuned dimensionality as the benchmarks use
        int dim = 1;
        for (const auto& info : data::table3_datasets()) {
          if (ds == info.name) dim = info.mpc_dimensionality;
        }
        comp::MpcCodec codec(dim);
        std::vector<std::uint8_t> buf(codec.max_compressed_bytes(n));
        const std::size_t csize = codec.compress(in, buf);
        std::vector<float> back(n);
        const double t_c = time_seconds([&] { (void)codec.compress(in, buf); }, min_s);
        const double t_d = time_seconds(
            [&] { (void)codec.decompress({buf.data(), csize}, back); }, min_s);
        const int blocks = static_cast<int>(codec.chunk_count(n));
        push_pair(results, "mpc", ds, bytes, t_c, t_d,
                  static_cast<double>(bytes) / static_cast<double>(csize),
                  sim_gbs_mpc(true, bytes, csize, blocks),
                  sim_gbs_mpc(false, bytes, csize, blocks));
      }

      for (int rate : {4, 8, 16}) {  // ZFP fixed rate, 1D fields
        comp::ZfpCodec codec(rate);
        const comp::ZfpField field = comp::ZfpField::d1(n);
        std::vector<std::uint8_t> buf(codec.compressed_bytes(field));
        const std::size_t csize = codec.compress(in, field, buf);
        std::vector<float> back(n);
        const double t_c = time_seconds([&] { (void)codec.compress(in, field, buf); }, min_s);
        const double t_d =
            time_seconds([&] { codec.decompress(buf, field, back); }, min_s);
        char label[16];
        std::snprintf(label, sizeof(label), "zfp%d", rate);
        push_pair(results, label, ds, bytes, t_c, t_d,
                  static_cast<double>(bytes) / static_cast<double>(csize),
                  sim_gbs_zfp(true, bytes, rate), sim_gbs_zfp(false, bytes, rate));
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv, "bench_runner", "BENCH_codecs.json", 0.25);
  if (!opt) return 2;

  std::printf("%-52s %10s %8s %9s\n", "benchmark", "MB/s", "ratio", "sim Gb/s");
  std::vector<bench::Row> results;
  bench_all(opt->quick, results);
  return bench::finish(*opt, kSchema, results, 0);
}
