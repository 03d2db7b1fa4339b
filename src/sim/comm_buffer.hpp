#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/comm.hpp"
#include "sim/encoding.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

/// Reusable alltoallv staging buffers.  (The pull kernels' frontier
/// allgather has its own buffers: bfs/gathered_frontier.hpp.)
///
/// The engines' hot loops stage one personalized message stream per
/// destination every level.  Rebuilding a vector-of-vectors for that each
/// call is where the constant factors hide (arXiv 2103.13577; Buluç &
/// Madduri), so these pools keep every buffer's capacity alive across levels
/// and roots: per-thread per-destination staging lanes feed a
/// count → exclusive-scan → parallel-fill pass into one flat send buffer,
/// which Comm::alltoallv_flat publishes without copying (a raw round with a
/// single writer publishes its lanes directly instead).  Each pool counts
/// every capacity growth it performs; after the warmup root the count must
/// stop moving — that is the `comm.staging_allocs` metric emitted by the
/// runner (see docs/PERF.md).
///
/// When wire encoding is on (ExchangeOptions::encoding, the default), the flat
/// payload makes one extra hop: each destination block is sorted, measured
/// and serialized under the cheapest codec (sim/encoding.hpp) into a pooled
/// byte buffer, the collective moves bytes, and receivers decode back into
/// the typed receive buffer.  Checksums, fault injection and Topology byte
/// charging all act on the encoded bytes because that is what gets
/// published.  Decoded blocks arrive key-sorted rather than in staging
/// order; every engine receive path is order-insensitive (fetch-max
/// parents, atomic bit claims — docs/PERF.md), which is what makes the
/// re-ordering safe.
namespace sunbfs::sim {

/// In-flight merge hook for staged exchange plans (sim/exchange.hpp): when
/// enabled for a message type, A2aStaging::exchange() sorts each
/// destination block (WireFormat<T>::less) and folds adjacent same()-group
/// messages into one before anything ships.  The primary template disables
/// merging; only Routed<T>, the envelope ExchangeChannel's row and column
/// stage pools carry, bridges to the payload's ExchangeMergePolicy — so
/// direct pools ship byte-identical traffic whether or not the payload is
/// mergeable.  same() groups must be contiguous under the wire order — i.e.
/// same(a, b) implies equal sort keys.
template <typename T>
struct ExchangeFold {
  static constexpr bool enabled = false;
};

/// Flat alltoallv staging pool: stage with push(), then exchange().
template <typename T>
class A2aStaging {
 public:
  /// Open a staging round with `nparts` destinations and `nthreads` writer
  /// lanes.  Lane capacities survive from previous rounds.
  void begin(size_t nparts, size_t nthreads) {
    SUNBFS_ASSERT(nparts > 0 && nthreads > 0);
    nparts_ = nparts;
    nthreads_ = nthreads;
    size_t lanes = nparts * nthreads;
    if (lanes > lanes_.size()) {
      ++allocs_;  // structural growth: first use, or a wider round shape
      lanes_.resize(lanes);
    }
    if (nthreads > lane_allocs_.size()) lane_allocs_.resize(nthreads, 0);
    for (size_t i = 0; i < lanes; ++i) lanes_[i].clear();
  }

  /// Pre-size every buffer for the worst-case round: up to `nparts`
  /// destinations, `nthreads` writer lanes of up to `lane_cap` messages
  /// each, a flat send payload of up to `send_cap` messages and a received
  /// concatenation of up to `recv_cap`.  Growth performed here is counted
  /// like any other, so prime before the measured rounds (the engines do it
  /// at construction, from partition-derived bounds) and it lands in the
  /// warmup figure; afterwards allocs() stops moving.
  void prime(size_t nparts, size_t nthreads, size_t lane_cap, size_t send_cap,
             size_t recv_cap) {
    size_t lanes = nparts * nthreads;
    if (lanes > lanes_.size()) {
      ++allocs_;
      lanes_.resize(lanes);
    }
    if (nthreads > lane_allocs_.size()) lane_allocs_.resize(nthreads, 0);
    for (auto& lane : lanes_)
      if (lane.capacity() < lane_cap) {
        ++allocs_;
        lane.reserve(lane_cap);
      }
    if (offsets_.capacity() < nparts + 1) {
      ++allocs_;
      offsets_.reserve(nparts + 1);
    }
    if (send_.capacity() < send_cap) {
      ++allocs_;
      send_.reserve(send_cap);
    }
    if (recv_.capacity() < recv_cap) {
      ++allocs_;
      recv_.reserve(recv_cap);
    }
    if (src_offsets_.capacity() < nparts + 1) {
      ++allocs_;
      src_offsets_.reserve(nparts + 1);
    }
    if constexpr (ExchangeFold<T>::enabled) reserve_n(fold_counts_, nparts);
    if (encoded_) {
      // Codec selection takes min(raw, ...) per block, so the encoded
      // payload is bounded by the raw payload plus one header per block —
      // reserving that here is what keeps the encoded path allocation-free
      // after warmup.
      reserve_bytes(enc_send_, send_cap * sizeof(T) + nparts * kBlockHeaderMax);
      reserve_bytes(enc_recv_, recv_cap * sizeof(T) + nparts * kBlockHeaderMax);
      reserve_n(plans_, nparts);
      reserve_n(headers_, nparts);
      reserve_n(enc_offsets_, nparts + 1);
      reserve_n(enc_src_offsets_, nparts + 1);
    }
  }

  /// Wire-encode subsequent exchanges (the default), or ship raw structs.
  /// Call before prime() so the encoded buffers are included in the warmup
  /// reservation.
  void set_encoded(bool encoded) { encoded_ = encoded; }

  /// Append one message for destination `dst` from writer lane `thread`.
  /// Lanes are single-writer: each thread only pushes to its own lane index.
  void push(size_t thread, size_t dst, const T& msg) {
    SUNBFS_ASSERT(thread < nthreads_ && dst < nparts_);
    auto& lane = lanes_[thread * nparts_ + dst];
    if (lane.size() == lane.capacity()) ++lane_allocs_[thread];
    lane.push_back(msg);
  }

  /// Merge the lanes into the flat send buffer (counts → exclusive scan →
  /// parallel fill over destinations) and run the all-to-all, folding
  /// `rider` (optional) across the participants alongside.  Returns the
  /// received concatenation, delimited per source by src_offsets().
  std::span<const T> exchange(Comm& comm, ThreadPool& pool, Rider rider = {}) {
    for (size_t t = 0; t < nthreads_; ++t) {
      allocs_ += lane_allocs_[t];
      lane_allocs_[t] = 0;
    }
    // With a single writer, lane d already is destination d's block: a raw,
    // unmerged round publishes the lanes in place instead of copying them
    // into the flat send buffer.  Same bytes, same order.
    if (nthreads_ == 1 && !encoded_ && !ExchangeFold<T>::enabled) {
      comm.alltoallv_blocks<T>(std::span(lanes_.data(), nparts_), recv_,
                               &src_offsets_, &allocs_, rider);
      return recv_;
    }
    if (offsets_.capacity() < nparts_ + 1) ++allocs_;
    offsets_.assign(nparts_ + 1, 0);
    for (size_t d = 0; d < nparts_; ++d)
      for (size_t t = 0; t < nthreads_; ++t)
        offsets_[d + 1] += lanes_[t * nparts_ + d].size();
    for (size_t d = 0; d < nparts_; ++d) offsets_[d + 1] += offsets_[d];
    size_t total = offsets_[nparts_];
    if (total > send_.capacity()) ++allocs_;
    send_.clear();
    send_.resize(total);
    pool.parallel_for(0, nparts_, [&](size_t lo, size_t hi) {
      for (size_t d = lo; d < hi; ++d) {
        T* out = send_.data() + offsets_[d];
        for (size_t t = 0; t < nthreads_; ++t) {
          const auto& lane = lanes_[t * nparts_ + d];
          out = std::copy(lane.begin(), lane.end(), out);
        }
      }
    });
    if constexpr (ExchangeFold<T>::enabled) {
      if (total > 0) fold_blocks(pool);
    }
    if (!encoded_) {
      comm.alltoallv_flat<T>(send_, offsets_, recv_, &src_offsets_, &allocs_,
                             rider);
      return recv_;
    }
    return exchange_encoded(comm, pool, rider);
  }

  /// Per-source delimiters into the last exchange()'s result (nparts+1).
  const std::vector<size_t>& src_offsets() const { return src_offsets_; }

  /// Total capacity growths this pool ever performed (lanes, send, recv).
  /// Stops moving once every round shape has been seen — zero new allocs in
  /// steady state.
  uint64_t allocs() const { return allocs_; }

 private:
  template <typename V>
  void reserve_n(V& v, size_t n) {
    if (v.capacity() < n) {
      ++allocs_;
      v.reserve(n);
    }
  }
  void reserve_bytes(std::vector<uint8_t>& v, size_t n) { reserve_n(v, n); }

  /// Merge pass: sort each destination block into wire order, fold adjacent
  /// same()-group messages (the policy reproduces the receiver's reduction),
  /// then compact the flat payload and its offsets in place.  Sorting here
  /// means the later encoded leg re-sorts already-ordered blocks — cheap —
  /// and the raw leg ships sorted blocks, which every receive path tolerates
  /// (they are order-insensitive by contract).
  void fold_blocks(ThreadPool& pool) {
    reserve_n(fold_counts_, nparts_);
    fold_counts_.assign(nparts_, 0);
    pool.parallel_for(0, nparts_, [&](size_t lo, size_t hi) {
      for (size_t d = lo; d < hi; ++d) {
        T* block = send_.data() + offsets_[d];
        const size_t n = offsets_[d + 1] - offsets_[d];
        std::sort(block, block + n, WireFormat<T>::less);
        size_t w = 0;
        for (size_t i = 0; i < n; ++i) {
          if (w > 0 && ExchangeFold<T>::same(block[w - 1], block[i]))
            ExchangeFold<T>::fold(block[w - 1], block[i]);
          else
            block[w++] = block[i];
        }
        fold_counts_[d] = w;
      }
    });
    size_t out = 0;
    for (size_t d = 0; d < nparts_; ++d) {
      const size_t from = offsets_[d];
      const size_t n = fold_counts_[d];
      if (from != out)
        std::move(send_.begin() + long(from), send_.begin() + long(from + n),
                  send_.begin() + long(out));
      offsets_[d] = out;
      out += n;
    }
    offsets_[nparts_] = out;
    send_.resize(out);
  }

  /// Encoded leg of exchange(): sort + plan each destination block, write
  /// the winning codec into the pooled byte buffer, move bytes, decode.
  std::span<const T> exchange_encoded(Comm& comm, ThreadPool& pool,
                                      const Rider& rider) {
    using WF = WireFormat<T>;
    reserve_n(plans_, nparts_);
    plans_.assign(nparts_, BlockPlan{});
    pool.parallel_for(0, nparts_, [&](size_t lo, size_t hi) {
      for (size_t d = lo; d < hi; ++d) {
        std::span<T> block(send_.data() + offsets_[d],
                           offsets_[d + 1] - offsets_[d]);
        const bool sorted = block.size() >= kEncodeMinMessages;
        if (sorted) std::sort(block.begin(), block.end(), WF::less);
        plans_[d] = plan_block<T>(block, sorted);
      }
    });
    reserve_n(enc_offsets_, nparts_ + 1);
    enc_offsets_.assign(nparts_ + 1, 0);
    for (size_t d = 0; d < nparts_; ++d)
      enc_offsets_[d + 1] = enc_offsets_[d] + plans_[d].bytes;
    const size_t enc_total = enc_offsets_[nparts_];
    if (enc_total > enc_send_.capacity()) ++allocs_;
    enc_send_.clear();
    enc_send_.resize(enc_total);
    pool.parallel_for(0, nparts_, [&](size_t lo, size_t hi) {
      for (size_t d = lo; d < hi; ++d) {
        std::span<const T> block(send_.data() + offsets_[d],
                                 offsets_[d + 1] - offsets_[d]);
        uint8_t* out = enc_send_.data() + enc_offsets_[d];
        uint8_t* done = write_block<T>(block, plans_[d].codec, out);
        SUNBFS_ASSERT(done == enc_send_.data() + enc_offsets_[d + 1]);
        (void)done;
      }
    });
    // Sender-side histogram: one note per codec actually used this round.
    EncodingEntry used[kWireCodecCount];
    for (size_t d = 0; d < nparts_; ++d) {
      const size_t n = offsets_[d + 1] - offsets_[d];
      if (n == 0) continue;
      auto& u = used[int(plans_[d].codec)];
      u.blocks += 1;
      u.messages += n;
      u.raw_bytes += n * sizeof(T);
      u.encoded_bytes += plans_[d].bytes;
    }
    for (int c = 0; c < kWireCodecCount; ++c)
      if (used[c].blocks > 0)
        comm.note_encoding(CollectiveType::Alltoallv, WireCodec(c),
                           used[c].blocks, used[c].messages, used[c].raw_bytes,
                           used[c].encoded_bytes);
    comm.alltoallv_flat<uint8_t>(enc_send_, enc_offsets_, enc_recv_,
                                 &enc_src_offsets_, &allocs_, rider);
    // Header peek → per-source message counts → typed decode.  A source
    // dropped by fault recovery arrives as a zero-byte block (count 0).
    reserve_n(headers_, nparts_);
    headers_.assign(nparts_, BlockHeader{});
    reserve_n(src_offsets_, nparts_ + 1);
    src_offsets_.assign(nparts_ + 1, 0);
    size_t total = 0;
    for (size_t s = 0; s < nparts_; ++s) {
      const size_t nb = enc_src_offsets_[s + 1] - enc_src_offsets_[s];
      SUNBFS_CHECK_MSG(
          read_block_header(enc_recv_.data() + enc_src_offsets_[s], nb,
                            &headers_[s]),
          "wire decode: malformed block header");
      src_offsets_[s] = total;
      total += headers_[s].count;
    }
    src_offsets_[nparts_] = total;
    if (total > recv_.capacity()) ++allocs_;
    recv_.clear();
    recv_.resize(total);
    pool.parallel_for(0, nparts_, [&](size_t lo, size_t hi) {
      for (size_t s = lo; s < hi; ++s) {
        if (headers_[s].count == 0) continue;
        const uint8_t* end = enc_recv_.data() + enc_src_offsets_[s + 1];
        SUNBFS_CHECK_MSG(
            decode_block<T>(headers_[s], end, recv_.data() + src_offsets_[s]),
            "wire decode: corrupt block body");
      }
    });
    return recv_;
  }

  size_t nparts_ = 0;
  size_t nthreads_ = 0;
  std::vector<std::vector<T>> lanes_;  // [thread * nparts + dst], grow-only
  std::vector<uint64_t> lane_allocs_;  // per-thread growth counts
  std::vector<uint64_t> offsets_;      // exclusive scan, nparts+1
  std::vector<T> send_;                // flat staged payload
  std::vector<T> recv_;                // reused receive buffer
  std::vector<size_t> src_offsets_;
  bool encoded_ = true;                // adaptive wire encoding
  std::vector<uint64_t> fold_counts_;  // post-merge block sizes
  std::vector<BlockPlan> plans_;         // per-destination codec decisions
  std::vector<BlockHeader> headers_;     // per-source parsed headers
  std::vector<uint8_t> enc_send_;        // encoded flat payload
  std::vector<uint8_t> enc_recv_;        // encoded received concatenation
  std::vector<uint64_t> enc_offsets_;    // encoded byte scan, nparts+1
  std::vector<size_t> enc_src_offsets_;  // received byte delimiters
  uint64_t allocs_ = 0;
};

}  // namespace sunbfs::sim
