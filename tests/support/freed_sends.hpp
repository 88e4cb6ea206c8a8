// Sends whose buffer dies as soon as the send completes. A raw rendezvous
// payload leaves straight from the sender's buffer (no host copy), so these
// runs catch a send that completes before its bytes stop being read: the
// receiver sees the overwrite, or the ASan build reports the use after free.
// A send buffer of 2 MiB or more is its own mapping (util::allocate_pages),
// unmapped when freed, so a late read of one faults in any build.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mpi/world.hpp"

namespace gcmpi::testing {

struct FreedSends {
  std::vector<mpi::Status> sent;      // rank 0's send statuses, one per iteration
  std::vector<mpi::Status> received;  // rank 1's receive statuses
  int mismatches = 0;                 // ok receives whose bytes differ from the payload
  sim::Time ended;                    // when the later of the two ranks finished
};

/// `iters` messages of `payload` from rank 0 to rank 1 under one tag. Each
/// leaves a fresh gpu_malloc'd buffer that rank 0 overwrites with 0xFF and
/// frees right after the send's wait returns. Rank 1 posts every other
/// receive `late`, so a pushed message may arrive before its receive.
inline FreedSends send_from_freed_buffers(mpi::World& world, const std::vector<float>& payload,
                                          int iters, sim::Time late = sim::Time::ms(1)) {
  const std::uint64_t bytes = payload.size() * 4;
  FreedSends out;
  world.run([&](mpi::Rank& R) {
    for (int it = 0; it < iters; ++it) {
      if (R.rank() == 0) {
        void* dev = R.gpu_malloc(bytes);
        std::memcpy(dev, payload.data(), bytes);
        mpi::Request req = R.isend(dev, bytes, 1, 9);
        out.sent.push_back(R.wait(req));
        std::memset(dev, 0xFF, bytes);
        R.gpu_free(dev);
      } else if (R.rank() == 1) {
        if (it % 2 == 1) R.compute(late);
        std::vector<float> in(payload.size());
        out.received.push_back(R.recv(in.data(), bytes, 0, 9));
        if (out.received.back().ok() && std::memcmp(in.data(), payload.data(), bytes) != 0) {
          ++out.mismatches;
        }
      }
    }
    out.ended = std::max(out.ended, R.now());
  });
  return out;
}

/// Payload bytes the world copied into fresh host buffers, over every site.
inline std::uint64_t copied_bytes(const mpi::HostCounters& c) {
  return c.eager.bytes + c.compressed_segment.bytes + c.corrupt_copy.bytes + c.wire_out.bytes +
         c.assemble.bytes + c.minted_wire.bytes;
}

}  // namespace gcmpi::testing
