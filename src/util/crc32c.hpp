// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum used by iSCSI, ext4, and RDMA wire protocols, and by this
// library to verify every rendezvous payload end-to-end (see the fault &
// reliability section of DESIGN.md). On x86-64 CPUs with SSE4.2, crc32c()
// runs the crc32 instruction on three interleaved lanes over 4 KiB blocks
// and folds them with a GF(2) multiply; elsewhere it falls back to
// software slice-by-8 (crc32c_portable). The path is chosen once, at the
// first call, and both return identical values. From 512 KiB on, crc32c()
// checksums 128 KiB pieces on util::parallel_for's pool and combines them
// in order with the same multiply (crc(AB) = crc(A)·x^(8|B|) xor crc(B)
// from 0); crc32c_portable always runs serially and is the reference. On
// real NICs the ICRC is computed in hardware, so the simulator charges
// zero virtual time for it.
//
// Incremental use: pass the previous return value as `crc` to extend a
// running checksum over split buffers; the default 0 starts a fresh one.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gcmpi::util {

/// CRC32C of `bytes` bytes at `data`, chained onto `crc` (0 = fresh).
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t bytes,
                                   std::uint32_t crc = 0);

/// Software slice-by-8 path: what crc32c() runs on CPUs without SSE4.2.
/// Exposed so tests can compare it with the hardware path on any host.
[[nodiscard]] std::uint32_t crc32c_portable(const void* data, std::size_t bytes,
                                            std::uint32_t crc = 0);

/// Bit-at-a-time reference implementation (for cross-checking the sliced
/// tables in tests; do not use on hot paths).
[[nodiscard]] std::uint32_t crc32c_reference(const void* data, std::size_t bytes,
                                             std::uint32_t crc = 0);

}  // namespace gcmpi::util
