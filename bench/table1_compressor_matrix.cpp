// Table I: comparison between compression techniques. The paper's table is
// qualitative; we print it, then the modeled V100 throughputs of MPC and
// ZFP next to the 100 Gb/s EDR wire rate they must feed. The CPU rows of
// the table (FPC, GFC, SZ) are the paper's cited designs, not codecs of
// this library, so no CPU throughput is printed.
#include "common.hpp"

#include "compress/kernel_cost.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

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

  // Quantitative backing: modeled GPU throughput vs the wire rate.
  const comp::KernelCostModel model;
  const auto gpu = gpu::v100_spec();
  const std::uint64_t bytes = 64ull << 20;
  const double mpc_gbps = static_cast<double>(bytes) * 8 /
                          model.mpc_compress(bytes, bytes / 2, 80, gpu).to_seconds() / 1e9;
  const double zfp_gbps =
      static_cast<double>(bytes) * 8 / model.zfp_compress(bytes, 16, gpu).to_seconds() / 1e9;

  std::printf("\nGPU compression against a 100 Gb/s (EDR) link (V100 kernel model):\n");
  std::printf("  MPC  (GPU V100 model, Table III):   %8.2f Gb/s\n", mpc_gbps);
  std::printf("  ZFP16(GPU V100 model, Table III):   %8.2f Gb/s\n", zfp_gbps);
  std::printf("  IB EDR wire rate:                     100.00 Gb/s\n");
  return 0;
}
