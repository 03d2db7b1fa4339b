// Unit tests for the support module: bit vectors, RNG, prefix sums,
// histograms, thread pool, checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "support/bitvector.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/histogram.hpp"
#include "support/prefix.hpp"
#include "support/random.hpp"
#include "support/spin.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace sunbfs {
namespace {

TEST(Check, ThrowsCheckErrorWithLocation) {
  try {
    SUNBFS_CHECK_MSG(1 == 2, "math broke");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
  }
}

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(SUNBFS_CHECK(2 + 2 == 4));
}

TEST(BitVector, SetGetClear) {
  BitVector bv(200);
  EXPECT_EQ(bv.size(), 200u);
  EXPECT_FALSE(bv.get(63));
  bv.set(63);
  bv.set(64);
  bv.set(199);
  EXPECT_TRUE(bv.get(63));
  EXPECT_TRUE(bv.get(64));
  EXPECT_TRUE(bv.get(199));
  EXPECT_EQ(bv.count(), 3u);
  bv.clear(64);
  EXPECT_FALSE(bv.get(64));
  EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector, TestAndSetReportsTransition) {
  BitVector bv(10);
  EXPECT_TRUE(bv.test_and_set(3));
  EXPECT_FALSE(bv.test_and_set(3));
  EXPECT_TRUE(bv.get(3));
}

TEST(BitVector, ForEachSetVisitsInOrder) {
  BitVector bv(300);
  std::vector<size_t> expected = {0, 1, 63, 64, 65, 128, 299};
  for (size_t i : expected) bv.set(i);
  std::vector<size_t> seen;
  bv.for_each_set([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(BitVector, UnionAndDifference) {
  BitVector a(100), b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  BitVector u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  EXPECT_TRUE(u.get(1) && u.get(50) && u.get(99));
  u.and_not(b);
  EXPECT_EQ(u.count(), 1u);
  EXPECT_TRUE(u.get(1));
}

TEST(BitVector, NoneAndReset) {
  BitVector bv(77);
  EXPECT_TRUE(bv.none());
  bv.set(76);
  EXPECT_FALSE(bv.none());
  bv.reset();
  EXPECT_TRUE(bv.none());
  EXPECT_EQ(bv.size(), 77u);
}

TEST(BitVector, SizeMismatchUnionThrows) {
  BitVector a(10), b(20);
  EXPECT_THROW(a |= b, CheckError);
}

TEST(BitVector, ConcurrentAtomicSetsCountOnce) {
  BitVector bv(1 << 12);
  std::atomic<size_t> firsts{0};
  ThreadPool pool(4);
  pool.run_chunks(8, [&](size_t chunk) {
    // All chunks try to set the same bits; each bit reports "first" once.
    for (size_t i = chunk % 2; i < bv.size(); i += 2)
      if (bv.atomic_set(i)) firsts.fetch_add(1);
  });
  EXPECT_EQ(firsts.load(), bv.size());
  EXPECT_EQ(bv.count(), bv.size());
}

TEST(StoreMax, ConcurrentCandidatesLeaveTheMaximum) {
  std::vector<int64_t> slots(64, -1);
  ThreadPool pool(4);
  pool.run_chunks(8, [&](size_t chunk) {
    // Every chunk offers every slot a candidate; chunk 5 offers the largest.
    for (size_t i = 0; i < slots.size(); ++i)
      store_max(slots[i], int64_t(i * 8 + (chunk * 3) % 8));
  });
  for (size_t i = 0; i < slots.size(); ++i)
    EXPECT_EQ(slots[i], int64_t(i * 8 + 7));
}

TEST(Random, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(Random, XoshiroUniformBelow) {
  Xoshiro256StarStar rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.next_below(17);
    ASSERT_LT(v, 17u);
  }
}

TEST(Random, XoshiroDoubleInUnitInterval) {
  Xoshiro256StarStar rng(1234);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Prefix, ExclusiveInPlace) {
  std::vector<int> v = {3, 1, 4, 1, 5};
  int total = exclusive_prefix_sum(v);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(Prefix, OffsetsFromCounts) {
  std::vector<uint64_t> counts = {2, 0, 3};
  auto off = offsets_from_counts(counts);
  EXPECT_EQ(off, (std::vector<uint64_t>{0, 2, 2, 5}));
}

TEST(Prefix, UpperOffsetIndexFindsBlock) {
  std::vector<uint64_t> off = {0, 10, 10, 25, 40};
  EXPECT_EQ(upper_offset_index(off, uint64_t(0)), 0u);
  EXPECT_EQ(upper_offset_index(off, uint64_t(9)), 0u);
  EXPECT_EQ(upper_offset_index(off, uint64_t(10)), 2u);
  EXPECT_EQ(upper_offset_index(off, uint64_t(39)), 3u);
  EXPECT_EQ(upper_offset_index(off, uint64_t(40)), 4u);
}

TEST(Histogram, BucketsPowersOfTwo) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(1023);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);  // {0,1}
  EXPECT_EQ(h.bucket(1), 2u);  // [2,4)
  EXPECT_EQ(h.bucket(2), 1u);  // [4,8)
  EXPECT_EQ(h.bucket(9), 1u);  // [512,1024)
}

TEST(Histogram, SummarySpreadMetrics) {
  Summary s;
  s.add(90);
  s.add(100);
  s.add(110);
  EXPECT_DOUBLE_EQ(s.mean(), 100.0);
  EXPECT_NEAR(s.spread(), (110.0 - 90.0) / 110.0, 1e-12);
  EXPECT_NEAR(s.max_over_mean(), 0.10, 1e-12);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int sum = 0;
  pool.run_chunks(10, [&](size_t c) { sum += int(c); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.run_chunks(8,
                      [&](size_t c) {
                        if (c == 5) throw std::runtime_error("boom");
                      }),
      std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> n{0};
  pool.run_chunks(4, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, LowestChunkExceptionWinsDeterministically) {
  // Several chunks throw; the caller must always see the error from the
  // lowest chunk index, independent of which worker hit its chunk first.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::string got;
    try {
      pool.run_chunks(64, [&](size_t c) {
        if (c == 7 || c == 13 || c == 50)
          throw std::runtime_error("chunk " + std::to_string(c));
      });
      FAIL() << "run_chunks did not propagate";
    } catch (const std::runtime_error& e) {
      got = e.what();
    }
    EXPECT_EQ(got, "chunk 7");
  }
}

TEST(ThreadPool, ContendedRoundsCountExactly) {
  // Back-to-back rounds with all participants hammering shared counters:
  // the dispatch protocol must neither drop nor double-run a chunk.
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint64_t> hits{0};
    pool.run_chunks(17, [&](size_t c) {
      hits.fetch_add(1, std::memory_order_relaxed);
      total.fetch_add(c, std::memory_order_relaxed);
    });
    ASSERT_EQ(hits.load(), 17u);
  }
  EXPECT_EQ(total.load(), 200u * (16u * 17u / 2u));
}

TEST(ThreadPool, SecondOutsideCallerIsRejected) {
  // A pool has one outside caller at a time.  Caller A's chunk 0 holds its
  // batch open until caller B has tried to dispatch on the same pool: B must
  // get CheckError without running a chunk or disturbing A's batch, whose
  // chunks each run exactly once.
  ThreadPool pool(2);
  constexpr size_t kChunks = 9;
  std::vector<std::atomic<int>> ran(kChunks);
  std::latch entered(1), rejected(1);
  std::thread a([&] {
    pool.run_chunks(kChunks, [&](size_t c) {
      if (c == 0) {
        entered.count_down();
        rejected.wait();
      }
      ran[c].fetch_add(1);
    });
  });
  entered.wait();
  std::atomic<int> b_ran{0};
  EXPECT_THROW(pool.run_chunks(2, [&](size_t) { b_ran.fetch_add(1); }),
               CheckError);
  rejected.count_down();
  a.join();
  EXPECT_EQ(b_ran.load(), 0);
  for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(ran[c].load(), 1) << c;
  // Once A's batch returned, the next outside caller dispatches normally.
  pool.run_chunks(2, [&](size_t) { b_ran.fetch_add(1); });
  EXPECT_EQ(b_ran.load(), 2);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  // A chunk that calls back into its own pool must degrade to inline
  // execution instead of deadlocking on the dispatch protocol.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(300);
  pool.parallel_for(0, 3, [&](size_t lo, size_t hi) {
    for (size_t outer = lo; outer < hi; ++outer)
      pool.parallel_for(outer * 100, (outer + 1) * 100,
                        [&](size_t ilo, size_t ihi) {
                          for (size_t i = ilo; i < ihi; ++i)
                            hits[i].fetch_add(1);
                        });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Nested exceptions still surface with the lowest-chunk guarantee.
  EXPECT_THROW(pool.parallel_for(0, 2,
                                 [&](size_t lo, size_t) {
                                   pool.run_chunks(4, [&](size_t c) {
                                     if (lo == 0 && c == 1)
                                       throw std::runtime_error("inner");
                                   });
                                 }),
               std::runtime_error);
  // And the pool stays usable.
  std::atomic<int> n{0};
  pool.run_chunks(5, [&](size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 5);
}

TEST(ThreadPool, SingleChunkBatchRunsOnCaller) {
  // A one-chunk batch has nothing to share: it must not wake a worker.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.run_chunks(1, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  ran_on = {};
  pool.parallel_for(7, 8, [&](size_t, size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, BackToBackTwoChunkBatchesRunEachChunkOnce) {
  // The rank engines' common shape: many tiny two-chunk batches in a row,
  // where workers are often still finishing the previous batch's claim
  // loop when the next one is published.
  ThreadPool pool(2);
  uint64_t bad = 0;
  for (int batch = 0; batch < 200000; ++batch) {
    std::atomic<int> ran[2] = {0, 0};
    pool.run_chunks(2, [&](size_t c) {
      ran[c].fetch_add(1, std::memory_order_relaxed);
    });
    bad += uint64_t(ran[0].load() != 1) + uint64_t(ran[1].load() != 1);
  }
  EXPECT_EQ(bad, 0u);
}

TEST(ThreadPool, NoChunkRunsAfterItsBatchReturned) {
  // Each batch's functor checks that the generation living on the caller's
  // stack for this batch is still the live one; a worker running a chunk
  // of a batch whose run_chunks already returned would see it retired.
  ThreadPool pool(4);
  std::atomic<uint64_t> stale{0};
  for (uint64_t gen = 1; gen <= 20000; ++gen) {
    std::atomic<uint64_t> mine{gen};
    pool.run_chunks(1 + gen % 4, [&mine, &stale, gen](size_t) {
      if (mine.load(std::memory_order_relaxed) != gen)
        stale.fetch_add(1, std::memory_order_relaxed);
    });
    mine.store(0, std::memory_order_relaxed);
  }
  EXPECT_EQ(stale.load(), 0u);
}

TEST(Spin, RankThreadsTimesWidthAboveCpusNeverSpins) {
  EXPECT_TRUE(spin::spin_fits(1, 1, 1));
  EXPECT_TRUE(spin::spin_fits(1, 2, 4));
  EXPECT_TRUE(spin::spin_fits(2, 2, 4));
  EXPECT_TRUE(spin::spin_fits(4, 1, 4));
  EXPECT_FALSE(spin::spin_fits(4, 2, 4));   // 2x2 mesh, 2 threads per rank
  EXPECT_FALSE(spin::spin_fits(1, 4, 1));   // one CPU, a 4-wide pool
  EXPECT_FALSE(spin::spin_fits(16, 1, 4));  // more rank threads than CPUs
  EXPECT_GE(spin::affinity_cpus(), 1u);
}

TEST(Spin, RankThreadsScopeNestsAndRestores) {
  EXPECT_EQ(spin::rank_threads(), 1u);
  {
    spin::RankThreadsScope outer{4};
    EXPECT_EQ(spin::rank_threads(), 4u);
    {
      spin::RankThreadsScope inner{6};
      EXPECT_EQ(spin::rank_threads(), 6u);
    }
    EXPECT_EQ(spin::rank_threads(), 4u);
  }
  EXPECT_EQ(spin::rank_threads(), 1u);
}

TEST(ThreadPool, ResolveThreadsPerRank) {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  // Auto (<= 0): hardware concurrency split across ranks, floored at one.
  EXPECT_EQ(resolve_threads_per_rank(0, 1), hw);
  // Explicit requests pass through.
  EXPECT_EQ(resolve_threads_per_rank(2, 1), 2u);
#ifdef NDEBUG
  // These combinations can exceed the debug-build 2x oversubscription
  // assert on very small hosts; exercise them only where SUNBFS_ASSERT is
  // compiled out.
  EXPECT_EQ(resolve_threads_per_rank(0, 4), std::max<size_t>(1, hw / 4));
  EXPECT_EQ(resolve_threads_per_rank(-3, 2 * hw + 1), 1u);
  EXPECT_EQ(resolve_threads_per_rank(1, 4), 1u);
#endif
}

// ------------------------------------------------------------------ cli

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

CliFlags demo_cli() {
  CliFlags cli("demo", "a demo tool");
  cli.add("--scale", "N", "log2 vertex count");
  cli.add("--rate", "QPS", "arrival rate");
  cli.add("--name", "S", "a string");
  cli.add("--verbose", "", "boolean flag");
  return cli;
}

TEST(Cli, UsageListsEveryDeclaredFlag) {
  // The invariant the graph500_runner --help fix rests on: usage() is
  // generated from the same table parse() matches against, so every
  // accepted flag appears in the help text.
  CliFlags cli = demo_cli();
  std::string usage = cli.usage();
  for (const auto& f : cli.flags()) {
    EXPECT_NE(usage.find(f.name), std::string::npos)
        << f.name << " missing from usage";
    if (f.takes_value())
      EXPECT_NE(usage.find(f.name + " " + f.value_name), std::string::npos);
  }
  EXPECT_NE(usage.find("--help"), std::string::npos);  // auto-added
  EXPECT_NE(usage.find("a demo tool"), std::string::npos);
}

TEST(Cli, ParsesTypedValues) {
  CliFlags cli = demo_cli();
  std::vector<std::string> args{"demo",   "--scale", "14",  "--rate",
                                "2.5e3",  "--name",  "abc", "--verbose"};
  auto argv = argv_of(args);
  std::string error;
  ASSERT_TRUE(cli.parse(int(argv.size()), argv.data(), &error)) << error;
  EXPECT_EQ(cli.u64("--scale", 0), 14u);
  EXPECT_DOUBLE_EQ(cli.f64("--rate", 0), 2500);
  EXPECT_EQ(cli.str("--name"), "abc");
  EXPECT_TRUE(cli.has("--verbose"));
  EXPECT_FALSE(cli.help_requested());
  // Defaults for absent flags.
  EXPECT_EQ(cli.u64("--missing", 7), 7u);
}

TEST(Cli, RejectsUnknownFlagAndMissingValue) {
  {
    CliFlags cli = demo_cli();
    std::vector<std::string> args{"demo", "--bogus"};
    auto argv = argv_of(args);
    std::string error;
    EXPECT_FALSE(cli.parse(int(argv.size()), argv.data(), &error));
    EXPECT_NE(error.find("--bogus"), std::string::npos) << error;
  }
  {
    CliFlags cli = demo_cli();
    std::vector<std::string> args{"demo", "--scale"};
    auto argv = argv_of(args);
    std::string error;
    EXPECT_FALSE(cli.parse(int(argv.size()), argv.data(), &error));
    EXPECT_NE(error.find("--scale"), std::string::npos) << error;
  }
}

TEST(Cli, HelpRequestedDoesNotFailParse) {
  CliFlags cli = demo_cli();
  std::vector<std::string> args{"demo", "--help"};
  auto argv = argv_of(args);
  std::string error;
  ASSERT_TRUE(cli.parse(int(argv.size()), argv.data(), &error));
  EXPECT_TRUE(cli.help_requested());
}

TEST(Timer, AccumulatorSumsIntervals) {
  TimeAccumulator acc;
  acc.add(0.5);
  acc.add(0.25);
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.75);
  acc.reset();
  EXPECT_DOUBLE_EQ(acc.seconds(), 0.0);
  {
    ScopedTimer t(acc);
  }
  EXPECT_GE(acc.seconds(), 0.0);
}

}  // namespace
}  // namespace sunbfs
