#pragma once

#include <cstdint>
#include <span>

#include "sim/comm.hpp"
#include "sim/comm_buffer.hpp"
#include "support/bitvector.hpp"

/// A frontier gathered from every rank of a communicator (used by bottom-up
/// sub-iterations whose sources live on other ranks: L2L pull gathers over
/// the world, L2H pull gathers over the mesh row, and the 1D pulls over the
/// world).  Read as bits (a bitmap per rank) or as words (MS-BFS's query
/// masks, one word per vertex).
namespace sunbfs::bfs {

class GatheredFrontier {
 public:
  /// Collective, allocation-free in steady state: every participant
  /// contributes its local words, gathered into `buf` (whose capacity
  /// survives across levels/roots).  Returns a view into it, valid until
  /// buf's next gather.
  static GatheredFrontier gather(sim::Comm& comm,
                                 std::span<const uint64_t> local,
                                 sim::GatherBuffer<uint64_t>& buf) {
    GatheredFrontier g;
    g.words_ = buf.gather(comm, local);
    g.word_off_ = buf.offsets().data();
    return g;
  }
  static GatheredFrontier gather(sim::Comm& comm, const BitVector& local,
                                 sim::GatherBuffer<uint64_t>& buf) {
    return gather(comm, {local.data(), local.word_count()}, buf);
  }

  /// Word `index` of participant `comm_index`'s block.  A block that fault
  /// recovery dropped arrives empty, shorter than its owner's; none of it is
  /// read (every word reads zero), and its level rolls back.
  uint64_t word(int comm_index, uint64_t index) const {
    const size_t w = word_off_[size_t(comm_index)] + index;
    return w < word_off_[size_t(comm_index) + 1] ? words_[w] : 0;
  }

  /// Bit `local_index` of participant `comm_index`'s bitmap.
  bool get(int comm_index, uint64_t local_index) const {
    return (word(comm_index, local_index >> 6) >> (local_index & 63)) & 1;
  }

 private:
  std::span<const uint64_t> words_;
  const size_t* word_off_ = nullptr;
};

}  // namespace sunbfs::bfs
