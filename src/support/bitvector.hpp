#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/check.hpp"

/// Dense bit vectors.
///
/// BFS frontiers and visited sets are bit vectors over local vertex ranges
/// (the paper's "activation bit vectors").  Threaded kernels share one
/// BitVector through its atomic accessors, and fetch-max their parent
/// candidates with store_max.
namespace sunbfs {

/// Plain dense bit vector with word-level access for fast scans.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t nbits) { resize(nbits); }

  void resize(size_t nbits) {
    nbits_ = nbits;
    words_.assign(word_count(), 0);
  }

  size_t size() const { return nbits_; }
  size_t word_count() const { return (nbits_ + 63) / 64; }

  bool get(size_t i) const {
    SUNBFS_ASSERT(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void set(size_t i) {
    SUNBFS_ASSERT(i < nbits_);
    words_[i >> 6] |= uint64_t(1) << (i & 63);
  }

  void clear(size_t i) {
    SUNBFS_ASSERT(i < nbits_);
    words_[i >> 6] &= ~(uint64_t(1) << (i & 63));
  }

  /// Set bit i, returning whether it was previously clear.
  bool test_and_set(size_t i) {
    SUNBFS_ASSERT(i < nbits_);
    uint64_t mask = uint64_t(1) << (i & 63);
    uint64_t& w = words_[i >> 6];
    bool was_clear = (w & mask) == 0;
    w |= mask;
    return was_clear;
  }

  /// Concurrent-phase accessors: lock-free word operations via
  /// std::atomic_ref so threaded kernels can share one plain BitVector.
  /// Do not mix with the plain mutators on the same words within a
  /// concurrent phase.
  bool atomic_get(size_t i) const {
    SUNBFS_ASSERT(i < nbits_);
    std::atomic_ref<const uint64_t> w(words_[i >> 6]);
    return (w.load(std::memory_order_relaxed) >> (i & 63)) & 1;
  }

  /// Set bit i; true when this call changed it from 0 to 1.
  bool atomic_set(size_t i) {
    SUNBFS_ASSERT(i < nbits_);
    std::atomic_ref<uint64_t> w(words_[i >> 6]);
    const uint64_t mask = uint64_t(1) << (i & 63);
    return (w.fetch_or(mask, std::memory_order_relaxed) & mask) == 0;
  }

  /// Zero all bits without changing the size.
  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  size_t count() const;

  /// True if no bit is set.
  bool none() const;

  /// In-place union with another vector of the same size.
  void operator|=(const BitVector& other);

  /// In-place difference: clear every bit that is set in `other`.
  void and_not(const BitVector& other);

  /// Call fn(i) for every set bit, in increasing order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for_each_set_words(0, words_.size(), fn);
  }

  /// Call fn(i) for every set bit whose word index lies in [word_lo,
  /// word_hi), in increasing order.  Lets threaded kernels split a frontier
  /// scan into disjoint word ranges.
  template <typename Fn>
  void for_each_set_words(size_t word_lo, size_t word_hi, Fn&& fn) const {
    for (size_t w = word_lo; w < word_hi; ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        int b = __builtin_ctzll(bits);
        fn(w * 64 + size_t(b));
        bits &= bits - 1;
      }
    }
  }

  uint64_t word(size_t w) const { return words_[w]; }
  uint64_t* data() { return words_.data(); }
  const uint64_t* data() const { return words_.data(); }

  bool operator==(const BitVector& other) const {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }

 private:
  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

/// Lock-free fetch-max on a parent or candidate slot.  Every concurrent
/// writer records its value and the slot ends at the maximum, which does not
/// depend on scheduling: this is what makes every engine's output
/// independent of the thread count (all values written to one slot within a
/// phase share one id space, so the maximum is well-defined).
template <typename T>
void store_max(T& slot, std::type_identity_t<T> v) {
  std::atomic_ref<T> a(slot);
  T cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace sunbfs
