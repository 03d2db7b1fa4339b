#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "obs/trace.hpp"
#include "support/prefix.hpp"
#include "support/thread_pool.hpp"

/// In-place parallel radix sort, PARADIS-inspired (Cho et al., VLDB'15).
///
/// The paper's in-place global sort (§5) uses PARADIS as its node-local
/// sorting kernel so that graphs occupying nearly all of main memory can be
/// preprocessed.  We implement the same contract — in-place MSB radix sort
/// over a user key function, parallel across sub-buckets — using an
/// American-flag permutation per digit and ThreadPool recursion across the
/// resulting buckets.
namespace sunbfs::sort {

namespace detail {
inline constexpr size_t kRadixBits = 8;
inline constexpr size_t kRadixBuckets = size_t(1) << kRadixBits;
inline constexpr size_t kRadixCutoff = 64;  // below: comparison sort

template <typename T, typename KeyFn>
void radix_sort_level(std::span<T> data, KeyFn key_of, int shift,
                      sunbfs::ThreadPool& pool, bool parallel) {
  if (data.size() <= kRadixCutoff || shift < 0) {
    std::sort(data.begin(), data.end(), [&](const T& a, const T& b) {
      return key_of(a) < key_of(b);
    });
    return;
  }
  auto digit = [&](const T& v) -> size_t {
    return size_t(key_of(v) >> shift) & (kRadixBuckets - 1);
  };

  std::array<uint64_t, kRadixBuckets> counts{};
  for (const T& v : data) counts[digit(v)]++;

  std::array<uint64_t, kRadixBuckets> heads{}, tails{};
  uint64_t running = 0;
  for (size_t b = 0; b < kRadixBuckets; ++b) {
    heads[b] = running;
    running += counts[b];
    tails[b] = running;
  }

  // American-flag in-place permutation: repeatedly take the element at the
  // head of the first unfinished bucket and walk its displacement cycle.
  std::array<uint64_t, kRadixBuckets> cursor = heads;
  for (size_t b = 0; b < kRadixBuckets; ++b) {
    while (cursor[b] < tails[b]) {
      T v = data[cursor[b]];
      size_t d = digit(v);
      if (d == b) {
        cursor[b]++;
        continue;
      }
      // Displace until an element belonging to bucket b lands here.
      do {
        std::swap(v, data[cursor[d]++]);
        d = digit(v);
      } while (d != b);
      data[cursor[b]++] = v;
    }
  }

  // Recurse per bucket; parallel across buckets at the top level.
  int next_shift = shift - int(kRadixBits);
  if (parallel) {
    pool.run_chunks(kRadixBuckets, [&](size_t b) {
      auto sub = data.subspan(heads[b], tails[b] - heads[b]);
      radix_sort_level<T, KeyFn>(sub, key_of, next_shift, pool, false);
    });
  } else {
    for (size_t b = 0; b < kRadixBuckets; ++b) {
      auto sub = data.subspan(heads[b], tails[b] - heads[b]);
      radix_sort_level<T, KeyFn>(sub, key_of, next_shift, pool, false);
    }
  }
}
}  // namespace detail

/// Sort `data` in place by the 64-bit key `key_of(element)`, ascending.
/// Uses no auxiliary array proportional to the input (in-place), and runs
/// sub-buckets of the most significant digit in parallel on `pool` (the
/// calling rank's own; see bfs::BfsWorkspace).
template <typename T, typename KeyFn>
void paradis_sort(std::span<T> data, KeyFn key_of, sunbfs::ThreadPool& pool) {
  if (data.size() <= 1) return;
  obs::Span span("sort", "paradis_sort", int64_t(data.size()));
  // Find the highest bit actually used to skip empty leading digits.
  uint64_t max_key = 0;
  for (const T& v : data) max_key = std::max(max_key, uint64_t(key_of(v)));
  int bits = max_key == 0 ? 1 : 64 - __builtin_clzll(max_key);
  int shift =
      int((size_t(bits - 1) / detail::kRadixBits) * detail::kRadixBits);
  detail::radix_sort_level<T, KeyFn>(data, key_of, shift, pool, true);
}

}  // namespace sunbfs::sort
