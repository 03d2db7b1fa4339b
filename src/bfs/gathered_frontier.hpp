#pragma once

#include <cstdint>
#include <span>

#include "sim/comm.hpp"
#include "sim/comm_buffer.hpp"
#include "support/bitvector.hpp"

/// A frontier bitmap gathered from every rank of a communicator (used by
/// bottom-up sub-iterations whose sources live on other ranks: L2L pull
/// gathers over the world, L2H pull gathers over the mesh row).
namespace sunbfs::bfs {

class GatheredFrontier {
 public:
  /// Collective, allocation-free in steady state: every participant
  /// contributes its local bitmap, gathered into `buf` (whose capacity
  /// survives across levels/roots).  Returns a view into it, valid until
  /// buf's next gather.
  static GatheredFrontier gather(sim::Comm& comm, const BitVector& local,
                                 sim::GatherBuffer<uint64_t>& buf) {
    GatheredFrontier g;
    std::span<const uint64_t> words(local.data(), local.word_count());
    g.words_ = buf.gather(comm, words);
    g.word_off_ = buf.offsets().data();
    return g;
  }

  /// Bit `local_index` of participant `comm_index`'s bitmap.  A block that
  /// fault recovery dropped arrives empty, shorter than its owner's bitmap;
  /// none of it is read (every bit reads clear), and its level rolls back.
  bool get(int comm_index, uint64_t local_index) const {
    const size_t word = word_off_[size_t(comm_index)] + (local_index >> 6);
    if (word >= word_off_[size_t(comm_index) + 1]) return false;
    return (words_[word] >> (local_index & 63)) & 1;
  }

 private:
  std::span<const uint64_t> words_;
  const size_t* word_off_ = nullptr;
};

}  // namespace sunbfs::bfs
