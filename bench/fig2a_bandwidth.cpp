// Fig. 2(a): inter-node device-to-device bandwidth on Longhorn — the
// motivating observation that a well-optimized GPU-aware MPI saturates the
// IB EDR network (peak 12.5 GB/s) for large messages, so compression, not
// more tuning, is the only way to cut communication time.
//
// osu_bw-style: a window of non-blocking sends per size, bandwidth =
// window_bytes / time. No compression (this is the baseline motivation).
#include "common.hpp"

using namespace gcmpi;
using namespace gcmpi::bench;

int main() {
  print_header("Fig 2(a): Longhorn inter-node D-D bandwidth (baseline MPI, no compression)");
  std::printf("%10s %14s %14s\n", "size", "BW (GB/s)", "of peak 12.5");
  for (std::size_t bytes = 16 << 10; bytes <= (64u << 20); bytes <<= 2) {
    const int window = bytes >= (16u << 20) ? 4 : 16;
    const double bw = osu_bw_gbs(net::longhorn(2, 1), core::CompressionConfig::off(),
                                 std::vector<float>(bytes / 4, 0.0f), window);
    std::printf("%10s %14.2f %13.1f%%\n", size_label(bytes), bw, bw / 12.5 * 100.0);
  }
  std::printf("\nPaper: MVAPICH2-GDR and Spectrum MPI both saturate IB EDR for large\n"
              "messages; the bottleneck is the wire, motivating on-the-fly compression.\n");
  return 0;
}
