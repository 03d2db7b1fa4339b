#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "partition/space.hpp"
#include "sim/comm.hpp"
#include "sim/encoding.hpp"
#include "support/bitvector.hpp"
#include "support/check.hpp"

/// A frontier gathered from every participant of a communicator, read by
/// global vertex id: the bottom-up kernels' view of sources on other ranks
/// (bfs1d, MS-BFS, the 1.5D L2L pull and bfsasync's dense rounds over the
/// world; the 1.5D H2L and L2H pulls over the mesh row).  Each block lands
/// at its owner's vertex range, so a probe is a subtraction and a load.
namespace sunbfs::bfs {

/// How a participant's contributed words map to its owned vertices.
enum class FrontierLayout {
  Bits,   ///< one bit per owned vertex (a BitVector's words)
  Words,  ///< one word per owned vertex (MS-BFS's per-vertex query masks)
};

/// Read-only view of the last gather, valid until the gather's next call.
class FrontierView {
 public:
  /// Bit of vertex `v` (Bits layout).
  bool test(graph::Vertex v) const {
    const uint64_t i = uint64_t(v) - origin_;
    SUNBFS_ASSERT(i < count_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  /// Word of vertex `v` (Words layout).
  uint64_t word(graph::Vertex v) const {
    const uint64_t i = uint64_t(v) - origin_;
    SUNBFS_ASSERT(i < count_);
    return words_[i];
  }

 private:
  friend class FrontierGather;
  const uint64_t* words_ = nullptr;
  uint64_t origin_ = 0;  ///< first vertex of the gathered range
  uint64_t count_ = 0;   ///< vertices in the gathered range
};

/// The frontier gather of one rank's BfsWorkspace.  It owns the receive,
/// assembly and codec buffers; their capacities survive across levels and
/// roots (comm.staging_allocs stops moving after warmup; docs/PERF.md).
class FrontierGather {
 public:
  /// Collective over `comm`, whose participants must be consecutive global
  /// ranks of `space` (the world or a mesh row); each contributes the
  /// `layout` words of its owned vertices (bits past the last one zero, as
  /// a BitVector keeps them), word-codec encoded on the wire
  /// when `encoded` (sim/encoding.hpp).  Complete word-aligned blocks are
  /// read in place, others shift-merged.  A block that arrives short (fault
  /// recovery drops a corrupted one to empty) reads as all zero.
  FrontierView gather(sim::Comm& comm, const partition::VertexSpace& space,
                      std::span<const uint64_t> local, FrontierLayout layout,
                      bool encoded);
  FrontierView gather(sim::Comm& comm, const partition::VertexSpace& space,
                      const BitVector& local, bool encoded) {
    return gather(comm, space, {local.data(), local.word_count()},
                  FrontierLayout::Bits, encoded);
  }

  /// Total capacity growths since construction.
  uint64_t allocs() const { return allocs_; }

 private:
  /// Gather every participant's words into recv_, delimited by offsets_.
  void receive(sim::Comm& comm, std::span<const uint64_t> local,
               bool encoded);
  /// Grow `v` to capacity `n`, counting the growth.
  template <typename V>
  void reserve(V& v, size_t n) {
    if (v.capacity() < n) ++allocs_;
    v.reserve(n);
  }

  std::vector<uint64_t> recv_;    ///< received words, participant-major
  std::vector<size_t> offsets_;   ///< per-participant word delimiters
  std::vector<uint64_t> merged_;  ///< assembled view when recv_ is not one
  std::vector<uint8_t> enc_send_;
  std::vector<uint8_t> enc_recv_;
  std::vector<size_t> enc_offsets_;
  std::vector<sim::WordsHeader> headers_;
  uint64_t allocs_ = 0;
};

}  // namespace sunbfs::bfs
