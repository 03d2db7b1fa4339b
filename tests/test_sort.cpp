// Tests for the sorting substrate: OCS-RMA bucket sort, baselines and
// PARADIS in-place radix sort.  Heavy use of parameterized property tests:
// permutations preserved, bucket/order invariants hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "sort/bucket_baselines.hpp"
#include "sort/ocs_rma.hpp"
#include "sort/paradis.hpp"
#include "support/random.hpp"

namespace sunbfs::sort {
namespace {

std::vector<uint64_t> random_keys(size_t n, uint64_t seed,
                                  uint64_t bound = ~0ull) {
  Xoshiro256StarStar rng(seed);
  std::vector<uint64_t> v(n);
  for (auto& x : v) x = bound == ~0ull ? rng.next() : rng.next_below(bound);
  return v;
}

std::multiset<uint64_t> multiset_of(const std::vector<uint64_t>& v) {
  return {v.begin(), v.end()};
}

// ---------------------------------------------------------------- OCS-RMA

struct OcsCase {
  size_t n;
  uint32_t buckets;
  int n_cgs;
};

class OcsRmaTest : public ::testing::TestWithParam<OcsCase> {};

TEST_P(OcsRmaTest, BucketsArePermutationAndWellFormed) {
  const OcsCase c = GetParam();
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(c.n, 1000 + c.n);
  std::vector<uint64_t> output(c.n, 0);
  auto bucket_of = [nb = c.buckets](uint64_t v) { return uint32_t(v % nb); };
  OcsParams params;
  params.buffer_bytes = 256;  // small LDM in tiny geometry
  auto res = ocs_rma_bucket_sort<uint64_t>(chip, input, std::span(output),
                                           c.buckets, bucket_of, c.n_cgs,
                                           params);
  ASSERT_EQ(res.offsets.size(), size_t(c.buckets) + 1);
  EXPECT_EQ(res.offsets.front(), 0u);
  EXPECT_EQ(res.offsets.back(), c.n);
  // Every element within its bucket range.
  for (uint32_t b = 0; b < c.buckets; ++b)
    for (uint64_t i = res.offsets[b]; i < res.offsets[b + 1]; ++i)
      EXPECT_EQ(bucket_of(output[i]), b) << "at " << i;
  // Multiset preserved.
  EXPECT_EQ(multiset_of(input), multiset_of(output));
  EXPECT_GT(res.report.modeled_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OcsRmaTest,
    ::testing::Values(OcsCase{0, 4, 1}, OcsCase{1, 4, 1}, OcsCase{100, 1, 1},
                      OcsCase{1000, 16, 1}, OcsCase{1000, 16, 2},
                      OcsCase{5000, 13, 2}, OcsCase{257, 16, 1},
                      OcsCase{4096, 7, 2}));

TEST(OcsRma, SingleCgUsesNoAtomics) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(2000, 7);
  std::vector<uint64_t> out(input.size());
  OcsParams params;
  params.buffer_bytes = 256;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, input, std::span(out), 8,
      [](uint64_t v) { return uint32_t(v & 7); }, 1, params);
  // The paper's exclusiveness guarantee: zero atomic instructions on 1 CG.
  EXPECT_EQ(res.report.totals.atomic_ops, 0u);
}

TEST(OcsRma, MultiCgUsesAtomicsButFewerThanPerRecord) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(4000, 8);
  std::vector<uint64_t> out(input.size());
  OcsParams params;
  params.buffer_bytes = 256;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, input, std::span(out), 8,
      [](uint64_t v) { return uint32_t(v & 7); }, 2, params);
  EXPECT_GT(res.report.totals.atomic_ops, 0u);
  // Batched reservation: far fewer atomics than records.
  EXPECT_LT(res.report.totals.atomic_ops, input.size() / 4);
}

TEST(OcsRma, ModeledThroughputBeatsBaselines) {
  // The Figure 14 ordering must hold even at test sizes:
  // OCS (1 CG) >> MPE, and OCS >> atomic-append.
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(20000, 9);
  std::vector<uint64_t> out(input.size());
  auto bucket_of = [](uint64_t v) { return uint32_t(v & 15); };
  OcsParams params;
  params.buffer_bytes = 256;
  auto ocs = ocs_rma_bucket_sort<uint64_t>(chip, input, std::span(out), 16,
                                           bucket_of, 1, params);
  auto mpe = mpe_bucket_sort<uint64_t>(chip, input, std::span(out), 16,
                                       bucket_of);
  auto atomic = atomic_append_bucket_sort<uint64_t>(
      chip, input, std::span(out), 16, bucket_of, 1, params);
  uint64_t bytes = input.size() * sizeof(uint64_t);
  double t_ocs = ocs.report.modeled_bytes_per_s(bytes);
  double t_mpe = mpe.report.modeled_bytes_per_s(bytes);
  double t_atomic = atomic.report.modeled_bytes_per_s(bytes);
  EXPECT_GT(t_ocs, 20 * t_mpe);
  EXPECT_GT(t_ocs, 2 * t_atomic);
}

TEST(BucketBaselines, MpeAndAtomicMatchReference) {
  chip::Chip chip(chip::Geometry::tiny());
  auto input = random_keys(3000, 11);
  auto bucket_of = [](uint64_t v) { return uint32_t(v % 10); };
  std::vector<uint64_t> ref_out(input.size());
  auto ref_off = reference_bucket_sort<uint64_t>(input, std::span(ref_out), 10,
                                                 bucket_of);
  std::vector<uint64_t> mpe_out(input.size());
  auto mpe = mpe_bucket_sort<uint64_t>(chip, input, std::span(mpe_out), 10,
                                       bucket_of);
  EXPECT_EQ(mpe.offsets, ref_off);
  EXPECT_EQ(mpe_out, ref_out);  // MPE version is stable, like the reference
  std::vector<uint64_t> at_out(input.size());
  auto at = atomic_append_bucket_sort<uint64_t>(chip, input, std::span(at_out),
                                                10, bucket_of, 2);
  EXPECT_EQ(at.offsets, ref_off);
  EXPECT_EQ(multiset_of(at_out), multiset_of(ref_out));
  for (uint32_t b = 0; b < 10; ++b)
    for (uint64_t i = at.offsets[b]; i < at.offsets[b + 1]; ++i)
      EXPECT_EQ(bucket_of(at_out[i]), b);
}

// ---------------------------------------------------------------- PARADIS

class ParadisTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParadisTest, SortsRandomInput) {
  size_t n = GetParam();
  ThreadPool pool(3);
  auto v = random_keys(n, n + 1);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort(std::span(v), [](uint64_t x) { return x; }, pool);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParadisTest,
                         ::testing::Values(0, 1, 2, 63, 64, 65, 1000, 100000));

// Plain integer keys, sorted on a 4-wide pool of the test's own.
void paradis_sort_keys(std::vector<uint64_t>& v) {
  ThreadPool pool(4);
  paradis_sort(std::span(v), [](uint64_t x) { return x; }, pool);
}

TEST(Paradis, SmallKeyRange) {
  auto v = random_keys(50000, 3, 4);  // keys in [0,4)
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort_keys(v);
  EXPECT_EQ(v, expected);
}

TEST(Paradis, AlreadySortedAndReversed) {
  std::vector<uint64_t> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto sorted = v;
  paradis_sort_keys(v);
  EXPECT_EQ(v, sorted);
  std::reverse(v.begin(), v.end());
  paradis_sort_keys(v);
  EXPECT_EQ(v, sorted);
}

TEST(Paradis, AllEqualKeys) {
  std::vector<uint64_t> v(5000, 42);
  paradis_sort_keys(v);
  EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                          [](uint64_t x) { return x == 42; }));
}

TEST(Paradis, StructWithKeyFunction) {
  struct Edge {
    uint32_t src, dst;
  };
  Xoshiro256StarStar rng(5);
  std::vector<Edge> edges(10000);
  for (auto& e : edges) {
    e.src = uint32_t(rng.next_below(1000));
    e.dst = uint32_t(rng.next_below(1000));
  }
  ThreadPool pool(4);
  paradis_sort(
      std::span(edges),
      [](const Edge& e) { return (uint64_t(e.src) << 32) | e.dst; }, pool);
  for (size_t i = 1; i < edges.size(); ++i) {
    uint64_t a = (uint64_t(edges[i - 1].src) << 32) | edges[i - 1].dst;
    uint64_t b = (uint64_t(edges[i].src) << 32) | edges[i].dst;
    ASSERT_LE(a, b);
  }
}

TEST(Paradis, FullWidthKeys) {
  auto v = random_keys(20000, 17);
  for (size_t i = 0; i < v.size(); i += 3) v[i] |= (uint64_t(1) << 63);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  paradis_sort_keys(v);
  EXPECT_EQ(v, expected);
}

TEST(OcsRma, MoreBucketsThanRecords) {
  chip::Chip chip(chip::Geometry::tiny());
  std::vector<uint64_t> in = {3, 7, 11};
  std::vector<uint64_t> out(in.size());
  OcsParams params;
  params.buffer_bytes = 64;
  auto res = ocs_rma_bucket_sort<uint64_t>(
      chip, in, std::span(out), 16, [](uint64_t v) { return uint32_t(v); },
      1, params);
  EXPECT_EQ(res.offsets.back(), 3u);
  EXPECT_EQ(res.offsets[3], 0u);
  EXPECT_EQ(res.offsets[4] - res.offsets[3], 1u);   // bucket 3
  EXPECT_EQ(res.offsets[8] - res.offsets[7], 1u);   // bucket 7
  EXPECT_EQ(res.offsets[12] - res.offsets[11], 1u); // bucket 11
}

}  // namespace
}  // namespace sunbfs::sort
