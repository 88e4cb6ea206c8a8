// Table I: comparison between compression techniques. The paper's table is
// qualitative; we print it, then back the key quantitative claim — CPU
// compressors are an order of magnitude too slow for 100 Gb/s fabrics
// while GPU schemes are not — with real wall-clock measurements of our FPC
// (CPU, serial) implementation vs the modeled GPU throughputs of MPC/ZFP.
#include <cmath>

#include "common.hpp"

#include "compress/fpc.hpp"
#include "compress/gfc.hpp"
#include "compress/kernel_cost.hpp"
#include "compress/mpc.hpp"
#include "compress/sz.hpp"
#include "compress/zfp.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

namespace {

double wall_gbps(std::uint64_t bytes, const std::function<void()>& fn) {
  return static_cast<double>(bytes) * 8 / time_seconds(fn, 0.05) / 1e9;
}

}  // namespace

int main() {
  print_header("Table I: compression technique feature matrix");
  std::printf("%-18s %9s %7s %5s %7s %9s %7s %9s\n", "design", "lossless", "lossy", "GPU",
              "float", "'on-the-fly'", "public", "MPI supp.");
  auto row = [](const char* name, const char* a, const char* b, const char* c, const char* d,
                const char* e, const char* f, const char* g) {
    std::printf("%-18s %9s %7s %5s %7s %9s %7s %9s\n", name, a, b, c, d, e, f, g);
  };
  row("FPC", "yes", "no", "no", "double", "no", "yes", "no");
  row("fpzip", "yes", "yes", "no", "both", "no", "yes", "no");
  row("ISOBAR", "yes", "no", "no", "both", "no", "yes", "no");
  row("SPDP", "yes", "no", "no", "both", "no", "yes", "no");
  row("GFC", "yes", "no", "yes", "double", "no", "yes", "no");
  row("MPC", "yes", "no", "yes", "both", "no", "yes", "no");
  row("SZ", "no", "yes", "yes", "both", "no", "yes", "no");
  row("ZFP", "no", "yes", "yes", "both", "no", "yes", "no");
  row("MPC-OPT (ours)", "yes", "no", "yes", "float", "YES", "yes", "YES");
  row("ZFP-OPT (ours)", "no", "yes", "yes", "float", "YES", "yes", "YES");

  // Quantitative backing: measured CPU throughput vs modeled GPU throughput.
  const std::size_t n = (8u << 20) / 8;
  std::vector<double> doubles(n);
  for (std::size_t i = 0; i < n; ++i) doubles[i] = std::sin(0.001 * static_cast<double>(i));
  comp::FpcCodec fpc;
  std::vector<std::uint8_t> out(fpc.max_compressed_bytes(n));
  const double fpc_gbps = wall_gbps(n * 8, [&] { (void)fpc.compress(doubles, out); });
  comp::GfcCodec gfc;
  std::vector<std::uint8_t> gout(gfc.max_compressed_bytes(n));
  const double gfc_gbps = wall_gbps(n * 8, [&] { (void)gfc.compress(doubles, gout); });
  const auto floats = data::generate("msg_sweep3d", n);
  comp::SzCodec sz(1e-3);
  std::vector<std::uint8_t> szout(sz.max_compressed_bytes(n));
  const double sz_gbps = wall_gbps(n * 4, [&] { (void)sz.compress(floats, szout); });

  const comp::KernelCostModel model;
  const auto gpu = gpu::v100_spec();
  const std::uint64_t bytes = 64ull << 20;
  const double mpc_gbps = static_cast<double>(bytes) * 8 /
                          model.mpc_compress(bytes, bytes / 2, 80, gpu).to_seconds() / 1e9;
  const double zfp_gbps =
      static_cast<double>(bytes) * 8 / model.zfp_compress(bytes, 16, gpu).to_seconds() / 1e9;

  std::printf("\nWhy CPU compression cannot feed a 100 Gb/s (EDR) link\n");
  std::printf("(serial CPU wall-clock of our implementations vs the V100 kernel model):\n");
  std::printf("  FPC  (CPU, this machine, measured): %8.2f Gb/s\n", fpc_gbps);
  std::printf("  GFC  (CPU serial of GPU algo):      %8.2f Gb/s\n", gfc_gbps);
  std::printf("  SZ   (CPU, eb 1e-3, measured):      %8.2f Gb/s\n", sz_gbps);
  std::printf("  MPC  (GPU V100 model, Table III):   %8.2f Gb/s\n", mpc_gbps);
  std::printf("  ZFP16(GPU V100 model, Table III):   %8.2f Gb/s\n", zfp_gbps);
  std::printf("  IB EDR wire rate:                     100.00 Gb/s\n");
  return 0;
}
