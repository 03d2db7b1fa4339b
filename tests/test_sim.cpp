// Tests for the SPMD runtime: topology cost model, barriers and every
// collective, including sub-communicators, statistics and abort semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "bfs/messages.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/runtime.hpp"
#include "support/check.hpp"
#include "support/spin.hpp"
#include "support/thread_pool.hpp"

namespace sunbfs::sim {
namespace {

TEST(Topology, SupernodeMappingFollowsRows) {
  Topology topo(MeshShape{4, 3});
  EXPECT_EQ(topo.ranks_per_supernode(), 3);
  EXPECT_EQ(topo.supernode_count(), 4);
  EXPECT_TRUE(topo.same_supernode(0, 2));
  EXPECT_FALSE(topo.same_supernode(2, 3));
  EXPECT_EQ(topo.supernode_of(11), 3);
}

TEST(Topology, CustomSupernodeSize) {
  TopologyParams p;
  p.ranks_per_supernode = 2;
  Topology topo(MeshShape{2, 4}, p);
  EXPECT_EQ(topo.supernode_count(), 4);
  EXPECT_TRUE(topo.same_supernode(0, 1));
  EXPECT_FALSE(topo.same_supernode(1, 2));
}

TEST(Topology, InterSupernodeBytesCostMore) {
  Topology topo(MeshShape{4, 4});
  double intra = topo.transfer_time(4, 1 << 20, 0);
  double inter = topo.transfer_time(4, 0, 1 << 20);
  EXPECT_GT(inter, intra * 4);  // 8x oversubscription on the default params
}

TEST(Topology, LatencyGrowsWithParticipants) {
  Topology topo(MeshShape{16, 16});
  EXPECT_LT(topo.transfer_time(2, 0, 0), topo.transfer_time(256, 0, 0));
}

TEST(MeshShape, RowMajorNumbering) {
  MeshShape m{3, 5};
  EXPECT_EQ(m.ranks(), 15);
  EXPECT_EQ(m.row_of(7), 1);
  EXPECT_EQ(m.col_of(7), 2);
  EXPECT_EQ(m.rank_of(1, 2), 7);
}

TEST(Runtime, RunsEveryRankOnce) {
  std::vector<std::atomic<int>> counts(6);
  run_spmd(MeshShape{2, 3}, [&](RankContext& ctx) {
    counts[ctx.rank].fetch_add(1);
    EXPECT_EQ(ctx.world.size(), 6);
    EXPECT_EQ(ctx.row.size(), 3);
    EXPECT_EQ(ctx.col.size(), 2);
    EXPECT_EQ(ctx.row.rank(), ctx.col_index());
    EXPECT_EQ(ctx.col.rank(), ctx.row_index());
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(Runtime, SingleRankWorks) {
  int ran = 0;
  run_spmd(MeshShape{1, 1}, [&](RankContext& ctx) {
    ran = 1;
    EXPECT_EQ(ctx.world.allreduce_sum(5), 5);
  });
  EXPECT_EQ(ran, 1);
}

TEST(Runtime, ExceptionAbortsAllRanksAndRethrows) {
  EXPECT_THROW(run_spmd(MeshShape{2, 2},
                        [&](RankContext& ctx) {
                          if (ctx.rank == 2) throw std::runtime_error("rank2");
                          // Other ranks block in a barrier; must be released.
                          ctx.world.barrier();
                          ctx.world.barrier();
                        }),
               std::runtime_error);
}

TEST(Collectives, AllreduceSumAndMax) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    int sum = ctx.world.allreduce_sum(ctx.rank + 1);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4);
    int mx = ctx.world.allreduce_max(ctx.rank * 10);
    EXPECT_EQ(mx, 30);
    EXPECT_TRUE(ctx.world.allreduce_or(ctx.rank == 3));
    EXPECT_FALSE(ctx.world.allreduce_or(false));
  });
}

TEST(Collectives, AllgatherOrdersByRank) {
  run_spmd(MeshShape{1, 4}, [&](RankContext& ctx) {
    auto got = ctx.world.allgather(100 + ctx.rank);
    EXPECT_EQ(got, (std::vector<int>{100, 101, 102, 103}));
  });
}

TEST(Collectives, AllgathervVariableSizes) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<int> mine(size_t(ctx.rank), ctx.rank);  // rank r sends r copies
    std::vector<size_t> offsets;
    auto got = ctx.world.allgatherv(std::span<const int>(mine), &offsets);
    EXPECT_EQ(got.size(), 0u + 1 + 2 + 3);
    EXPECT_EQ(offsets, (std::vector<size_t>{0, 0, 1, 3, 6}));
    EXPECT_EQ(got, (std::vector<int>{1, 2, 2, 3, 3, 3}));
  });
}

TEST(Collectives, ReduceScatterBlockSums) {
  // Each rank contributes [rank, rank, rank, rank] over 2 blocks of size 2;
  // rank r receives block r summed over ranks.
  run_spmd(MeshShape{1, 2}, [&](RankContext& ctx) {
    std::vector<int> contrib = {ctx.rank, ctx.rank + 1, 10 * ctx.rank,
                                10 * ctx.rank + 1};
    auto mine = ctx.world.reduce_scatter_block(
        std::span<const int>(contrib), 2, [](int a, int b) { return a + b; });
    ASSERT_EQ(mine.size(), 2u);
    if (ctx.rank == 0) {
      EXPECT_EQ(mine[0], 0 + 1);
      EXPECT_EQ(mine[1], 1 + 2);
    } else {
      EXPECT_EQ(mine[0], 0 + 10);
      EXPECT_EQ(mine[1], 1 + 11);
    }
  });
}

TEST(Collectives, AllreduceInplaceUnionsWords) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<uint64_t> bits(8, 0);
    bits[size_t(ctx.rank) * 2] = uint64_t(1) << ctx.rank;
    ctx.world.allreduce_inplace(std::span<uint64_t>(bits),
                                [](uint64_t a, uint64_t b) { return a | b; });
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(bits[size_t(r) * 2], uint64_t(1) << r) << "rank " << r;
    EXPECT_EQ(bits[1], 0u);
  });
}

TEST(Collectives, AlltoallvRoutesMessages) {
  run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    int p = ctx.world.size();
    // Rank s sends (s*10+d) repeated (s+d) times to rank d.
    std::vector<std::vector<int>> to(p);
    for (int d = 0; d < p; ++d)
      to[d].assign(size_t(ctx.rank + d), ctx.rank * 10 + d);
    std::vector<size_t> src_off;
    auto got = ctx.world.alltoallv(to, &src_off);
    ASSERT_EQ(src_off.size(), size_t(p) + 1);
    for (int s = 0; s < p; ++s) {
      size_t n = src_off[s + 1] - src_off[s];
      EXPECT_EQ(n, size_t(s + ctx.rank));
      for (size_t i = src_off[s]; i < src_off[s + 1]; ++i)
        EXPECT_EQ(got[i], s * 10 + ctx.rank);
    }
  });
}

TEST(Collectives, AlltoallvEmptyMessagesOk) {
  run_spmd(MeshShape{1, 3}, [&](RankContext& ctx) {
    std::vector<std::vector<int>> to(3);
    auto got = ctx.world.alltoallv(to);
    EXPECT_TRUE(got.empty());
  });
}

TEST(Collectives, RowAndColumnCommsAreDisjoint) {
  run_spmd(MeshShape{2, 3}, [&](RankContext& ctx) {
    // Row sum: ranks in row r are {3r, 3r+1, 3r+2}.
    int row_sum = ctx.row.allreduce_sum(ctx.rank);
    int r = ctx.row_index();
    EXPECT_EQ(row_sum, 3 * r + 3 * r + 1 + 3 * r + 2);
    // Column gather: ranks in column c are {c, c+3}.
    auto col = ctx.col.allgather(ctx.rank);
    EXPECT_EQ(col, (std::vector<int>{ctx.col_index(), ctx.col_index() + 3}));
  });
}

TEST(Stats, BytesAndModeledTimeRecorded) {
  auto report = run_spmd(MeshShape{2, 2}, [&](RankContext& ctx) {
    std::vector<std::vector<int>> to(4);
    for (int d = 0; d < 4; ++d) to[d].assign(100, d);
    ctx.world.alltoallv(to);
  });
  const auto& e0 = report.per_rank[0].entry(CollectiveType::Alltoallv);
  EXPECT_EQ(e0.calls, 1u);
  // 3 remote destinations x 100 ints.
  EXPECT_EQ(e0.bytes_sent, 3u * 100 * sizeof(int));
  EXPECT_GT(e0.modeled_s, 0.0);
  // In a 2x2 mesh with rows as supernodes, half of remote traffic crosses.
  EXPECT_EQ(e0.bytes_inter_supernode, 2u * 100 * sizeof(int));
  // Modeled time identical on all ranks.
  for (const auto& s : report.per_rank)
    EXPECT_DOUBLE_EQ(s.entry(CollectiveType::Alltoallv).modeled_s,
                     e0.modeled_s);
  CommStats agg = report.aggregate();
  EXPECT_EQ(agg.entry(CollectiveType::Alltoallv).calls, 4u);
}

TEST(Stats, MergeAndReset) {
  CommStats a, b;
  a.record(CollectiveType::Allgather, 100, 40, 0.5, 0.6, 0.05, 0.3);
  b.record(CollectiveType::Allgather, 50, 0, 0.1, 0.2, 0.01, 0.1);
  a.merge(b);
  EXPECT_EQ(a.entry(CollectiveType::Allgather).bytes_sent, 150u);
  EXPECT_EQ(a.entry(CollectiveType::Allgather).calls, 2u);
  EXPECT_DOUBLE_EQ(a.total_modeled_s(), 0.6);
  a.reset();
  EXPECT_EQ(a.total_bytes_sent(), 0u);
}

TEST(Collectives, InplaceAllreduceSingleRankIsNoop) {
  sim::run_spmd(sim::MeshShape{1, 1}, [&](sim::RankContext& ctx) {
    std::vector<uint64_t> data = {1, 2, 3};
    ctx.world.allreduce_inplace(std::span<uint64_t>(data),
                                [](uint64_t a, uint64_t b) { return a | b; });
    EXPECT_EQ(data, (std::vector<uint64_t>{1, 2, 3}));
    // No bytes recorded for the no-op.
    EXPECT_EQ(ctx.stats.entry(CollectiveType::Allreduce).calls, 0u);
  });
}

TEST(Collectives, AllgathervAllEmpty) {
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    std::vector<int> nothing;
    std::vector<size_t> off;
    auto got = ctx.world.allgatherv(std::span<const int>(nothing), &off);
    EXPECT_TRUE(got.empty());
    EXPECT_EQ(off, (std::vector<size_t>{0, 0, 0, 0, 0}));
  });
}

TEST(Collectives, AllreduceMinOnSigned) {
  sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
    int64_t v = ctx.rank == 2 ? -5 : ctx.rank;
    int64_t mn = ctx.world.allreduce(
        v, [](int64_t a, int64_t b) { return std::min(a, b); });
    EXPECT_EQ(mn, -5);
  });
}

TEST(Barrier, ManyIterationsStayInSync) {
  // Stress sequencing: a counter that every rank increments between barriers
  // must be exactly nranks * i after barrier i.
  const int iters = 50;
  std::atomic<int> counter{0};
  run_spmd(MeshShape{1, 4}, [&](RankContext& ctx) {
    for (int i = 1; i <= iters; ++i) {
      counter.fetch_add(1);
      ctx.world.barrier();
      EXPECT_EQ(counter.load(), 4 * i);
      ctx.world.barrier();
    }
  });
}

TEST(Barrier, AbortWakesSpinningAndSleepingWaiters) {
  // The main thread aborts right after the waiter enters wait() (it is
  // still spinning when the group fits the CPUs) and after a sleep far past
  // spin::kSpinTime (it is asleep on the futex); either way the waiter
  // throws, and so does every later wait.
  for (auto delay : {std::chrono::milliseconds(0),
                     std::chrono::milliseconds(20)}) {
    Barrier barrier(2, 2);
    std::atomic<bool> entered{false};
    std::atomic<bool> threw{false};
    std::thread waiter([&] {
      entered.store(true);
      try {
        barrier.wait();
      } catch (const AbortError&) {
        threw.store(true);
      }
    });
    while (!entered.load()) std::this_thread::yield();
    std::this_thread::sleep_for(delay);
    barrier.abort();
    waiter.join();
    EXPECT_TRUE(threw.load()) << "delay " << delay.count() << " ms";
    EXPECT_THROW(barrier.wait(), AbortError);
  }
}

TEST(Barrier, ReadPhaseEndWaitsForEveryPeerThroughAbort) {
  // A rank leaving a collective's read phase while another group aborts
  // the run must not unwind (and free its published buffer) before every
  // peer has finished reading: wait_through_abort returns only once all
  // participants arrived, and the abort surfaces at the next wait.
  Barrier barrier(2, 2);
  std::atomic<bool> reader_done{false};
  std::atomic<bool> left_early{false};
  std::thread owner([&] {
    barrier.wait_through_abort();
    if (!reader_done.load()) left_early.store(true);
    EXPECT_THROW(barrier.wait(), AbortError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  barrier.abort();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // reading
  reader_done.store(true);
  barrier.wait_through_abort();
  owner.join();
  EXPECT_FALSE(left_early.load());
  EXPECT_THROW(barrier.wait(), AbortError);
}

TEST(Barrier, SingleParticipantNeverBlocks) {
  Barrier barrier(1, 1);
  for (int i = 0; i < 1000; ++i) barrier.wait();
  run_spmd(MeshShape{1, 1}, [&](RankContext& ctx) {
    for (int i = 0; i < 100; ++i) ctx.world.barrier();
    EXPECT_EQ(ctx.world.allgather(7), std::vector<int>{7});
  });
  barrier.abort();
  EXPECT_THROW(barrier.wait(), AbortError);
}

TEST(Spmd, RankBodiesCountEveryRankThreadForTheSpinRule) {
  // A pool built inside a rank body must weigh its width against all the
  // run's rank threads (spin::spin_fits), on the one-rank inline path too.
  for (MeshShape mesh : {MeshShape{1, 1}, MeshShape{2, 2}, MeshShape{2, 3}}) {
    std::atomic<int> wrong{0};
    run_spmd(mesh, [&](RankContext& ctx) {
      if (spin::rank_threads() != size_t(ctx.nranks())) wrong.fetch_add(1);
    });
    EXPECT_EQ(wrong.load(), 0) << mesh.rows << "x" << mesh.cols;
  }
  EXPECT_EQ(spin::rank_threads(), 1u);
}

TEST(Collectives, MixedStressChecksEveryResult) {
  // Thousands of back-to-back collectives of four kinds: a rank that
  // races ahead writes the other parity's inline slots while slow peers
  // still read theirs, so a stale or overwritten slot shows up as a wrong
  // sum, gather or message.  Values depend on the iteration, the rank and
  // the communicator, so no two consecutive calls publish the same bytes.
  struct Tagged {
    uint64_t iter;
    uint32_t rank;
    uint32_t check;
  };
  const int iters = 10000;
  for (MeshShape mesh : {MeshShape{2, 2}, MeshShape{2, 4}}) {
    std::atomic<int> failures{0};
    std::string first_failure;  // written once, read after the join
    auto fail = [&](const std::string& what) {
      if (failures.fetch_add(1) == 0) first_failure = what;
    };
    run_spmd(mesh, [&](RankContext& ctx) {
      const uint64_t p = uint64_t(ctx.nranks());
      std::vector<uint64_t> send, offsets(p + 1), out;
      std::vector<size_t> src_off;
      for (int i = 0; i < iters; ++i) {
        const uint64_t it = uint64_t(i);
        switch ((it * 2654435761u >> 7) % 5) {
          case 0: {
            uint64_t got = ctx.world.allreduce_sum(it * p + uint64_t(ctx.rank));
            if (got != it * p * p + p * (p - 1) / 2)
              fail("allreduce_sum at " + std::to_string(i));
            break;
          }
          case 1: {
            auto got = ctx.world.allgather(
                Tagged{it, uint32_t(ctx.rank), uint32_t(it ^ ctx.rank)});
            for (uint32_t r = 0; r < p; ++r)
              if (got[r].iter != it || got[r].rank != r ||
                  got[r].check != uint32_t(it ^ r))
                fail("allgather at " + std::to_string(i));
            break;
          }
          case 2: {
            // Source s sends (s + d + i) % 3 copies of s * 1000 + d + i to d.
            send.clear();
            for (uint64_t d = 0; d < p; ++d) {
              offsets[d] = send.size();
              send.insert(send.end(), (uint64_t(ctx.rank) + d + it) % 3,
                          uint64_t(ctx.rank) * 1000 + d + it);
            }
            offsets[p] = send.size();
            ctx.world.alltoallv_flat(std::span<const uint64_t>(send),
                                     std::span<const uint64_t>(offsets), out,
                                     &src_off);
            for (uint64_t s = 0; s < p; ++s) {
              uint64_t n = src_off[s + 1] - src_off[s];
              if (n != (s + uint64_t(ctx.rank) + it) % 3)
                fail("alltoallv size at " + std::to_string(i));
              for (size_t k = src_off[s]; k < src_off[s + 1]; ++k)
                if (out[k] != s * 1000 + uint64_t(ctx.rank) + it)
                  fail("alltoallv payload at " + std::to_string(i));
            }
            break;
          }
          case 3: {
            // The row communicator interleaves with the world one.
            uint64_t got = ctx.row.allreduce_max(it + uint64_t(ctx.rank));
            uint64_t want = it + uint64_t(ctx.row_index() * ctx.mesh.cols +
                                          ctx.mesh.cols - 1);
            if (got != want) fail("row allreduce_max at " + std::to_string(i));
            break;
          }
          default:
            ctx.world.barrier();
        }
      }
    });
    EXPECT_EQ(failures.load(), 0)
        << mesh.rows << "x" << mesh.cols << ": " << first_failure;
  }
}

// ------------------------------------------------------------------ riders

struct SumOr {
  uint64_t sum;
  uint64_t bits;
  bool operator==(const SumOr&) const = default;
};

struct FoldSumOr {
  SumOr operator()(const SumOr& a, const SumOr& b) const {
    return {a.sum + b.sum, a.bits | b.bits};
  }
};

// Rank r's rider in round i, and the fold every rank must get back.
SumOr rider_of(int rank, int round) {
  return {uint64_t(rank) * 1000 + uint64_t(round),
          uint64_t(1) << ((rank + round) % 64)};
}

SumOr folded(int nranks, int round) {
  SumOr f = rider_of(0, round);
  for (int r = 1; r < nranks; ++r) f = FoldSumOr{}(f, rider_of(r, round));
  return f;
}

TEST(Rider, FoldsOnEveryDataCollective) {
  // Sum and OR riders on alltoallv_flat and allgatherv_into, and a struct
  // rider on both A2aStaging legs (one raw writer lane publishes blocks in
  // place, two lanes go through the encoded flat buffer).  Every third
  // round has no payload at all: the rider still folds, and it never
  // counts as payload.
  for (MeshShape mesh : {MeshShape{2, 2}, MeshShape{2, 4}}) {
    SCOPED_TRACE(std::to_string(mesh.rows) + "x" + std::to_string(mesh.cols));
    run_spmd(mesh, [&](RankContext& ctx) {
      const int p = ctx.nranks();
      ThreadPool pool(2);
      A2aStaging<bfs::CompactMsg> raw, encoded;
      raw.set_encoded(false);
      std::vector<uint64_t> send, offsets(size_t(p) + 1), out;
      std::vector<size_t> src_off;
      std::vector<uint32_t> mine, gathered;
      for (int i = 0; i < 12; ++i) {
        const bool empty = i % 3 == 0;
        const SumOr want = folded(p, i);

        send.clear();
        for (int d = 0; d < p; ++d) {
          offsets[size_t(d)] = send.size();
          if (!empty) send.push_back(uint64_t(ctx.rank) * 100 + uint64_t(d));
        }
        offsets[size_t(p)] = send.size();
        const uint64_t bytes0 =
            ctx.stats.entry(CollectiveType::Alltoallv).bytes_sent;
        uint64_t sum = rider_of(ctx.rank, i).sum;
        ctx.world.alltoallv_flat(std::span<const uint64_t>(send),
                                 std::span<const uint64_t>(offsets), out,
                                 &src_off, nullptr, Rider(sum, std::plus<>{}));
        EXPECT_EQ(sum, want.sum);
        ASSERT_EQ(out.size(), empty ? 0u : size_t(p));
        for (size_t s = 0; s < out.size(); ++s)
          EXPECT_EQ(out[s], s * 100 + uint64_t(ctx.rank));
        if (empty) {
          EXPECT_EQ(ctx.stats.entry(CollectiveType::Alltoallv).bytes_sent,
                    bytes0);
        }

        mine.assign(empty ? 0 : size_t(ctx.rank) + 1, uint32_t(ctx.rank));
        uint64_t bits = rider_of(ctx.rank, i).bits;
        ctx.world.allgatherv_into(std::span<const uint32_t>(mine), gathered,
                                  nullptr, nullptr,
                                  Rider(bits, std::bit_or<>{}));
        EXPECT_EQ(bits, want.bits);
        EXPECT_EQ(gathered.size(), empty ? 0u : size_t(p * (p + 1) / 2));

        for (A2aStaging<bfs::CompactMsg>* st : {&raw, &encoded}) {
          const size_t lanes = st == &raw ? 1 : 2;
          st->begin(size_t(p), lanes);
          if (!empty)
            for (int d = 0; d < p; ++d)
              st->push(size_t(d) % lanes, size_t(d),
                       bfs::CompactMsg{uint32_t(d), uint32_t(ctx.rank)});
          SumOr v = rider_of(ctx.rank, i);
          auto got = st->exchange(ctx.world, pool, Rider(v, FoldSumOr{}));
          EXPECT_EQ(v, want);
          EXPECT_EQ(got.size(), empty ? 0u : size_t(p));
        }
      }
      // Rider bytes are accounted on their own, per contribution.
      EXPECT_EQ(ctx.stats.entry(CollectiveType::Alltoallv).rider_bytes,
                12 * (sizeof(uint64_t) + 2 * sizeof(SumOr)));
      EXPECT_EQ(ctx.stats.entry(CollectiveType::Allgather).rider_bytes,
                12 * sizeof(uint64_t));
    });
  }
}

// One alltoallv and one allgatherv with sum riders of 1 << rank, after an
// alltoallv without a rider (call 0 of its type).
void rider_rounds(RankContext& ctx, uint64_t* a2a_sum, uint64_t* ag_sum) {
  const size_t p = size_t(ctx.nranks());
  std::vector<uint64_t> send(p, uint64_t(ctx.rank)), offsets(p + 1), out;
  std::iota(offsets.begin(), offsets.end(), uint64_t(0));
  std::vector<size_t> src_off;
  ctx.world.alltoallv_flat(std::span<const uint64_t>(send),
                           std::span<const uint64_t>(offsets), out, &src_off);
  *a2a_sum = uint64_t(1) << ctx.rank;
  ctx.world.alltoallv_flat(std::span<const uint64_t>(send),
                           std::span<const uint64_t>(offsets), out, &src_off,
                           nullptr, Rider(*a2a_sum, std::plus<>{}));
  // The payload itself is untouched by a rider fault.
  for (size_t s = 0; s < p; ++s) EXPECT_EQ(out[s], s);
  std::vector<uint64_t> gathered;
  *ag_sum = uint64_t(1) << ctx.rank;
  ctx.world.allgatherv_into(std::span<const uint64_t>(send.data(), 1),
                            gathered, nullptr, nullptr,
                            Rider(*ag_sum, std::plus<>{}));
}

TEST(Rider, BitFlipUnderRecoverIsDroppedOnEveryRank) {
  // Aimed at call 0, which carries no rider: the alltoallv fault waits for
  // call 1, which does.
  FaultPlan plan;
  plan.add_bitflip(1, CollectiveType::Alltoallv, 0, kRiderPeer)
      .add_bitflip(2, CollectiveType::Allgather, 0, kRiderPeer);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  std::vector<uint64_t> a2a(4), ag(4);
  std::vector<int> pending(4);
  auto report = run_spmd(
      Topology(MeshShape{2, 2}),
      [&](RankContext& ctx) {
        rider_rounds(ctx, &a2a[size_t(ctx.rank)], &ag[size_t(ctx.rank)]);
        pending[size_t(ctx.rank)] = ctx.faults.take_pending();
      },
      opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(a2a, std::vector<uint64_t>(4, 0b1101));  // rank 1 dropped
  EXPECT_EQ(ag, std::vector<uint64_t>(4, 0b1011));   // rank 2 dropped
  EXPECT_EQ(pending, std::vector<int>(4, 1));
  const FaultStats f = report.fault_totals();
  EXPECT_EQ(f.injected_corruptions, 2u);
  EXPECT_EQ(f.detected, 8u);  // every rank checks every rider
}

TEST(Rider, BitFlipUnderAbortNamesBothRanks) {
  FaultPlan plan;
  plan.add_bitflip(1, CollectiveType::Alltoallv, 0, kRiderPeer);
  SpmdOptions opts;
  opts.faults = &plan;
  try {
    run_spmd(
        Topology(MeshShape{2, 2}),
        [&](RankContext& ctx) {
          uint64_t a2a = 0, ag = 0;
          rider_rounds(ctx, &a2a, &ag);
        },
        opts);
    FAIL() << "a corrupted rider went undetected";
  } catch (const FaultDetected& e) {
    EXPECT_EQ(e.collective, CollectiveType::Alltoallv);
    EXPECT_EQ(e.source_rank, 1);
    ASSERT_GE(e.detector_rank, 0);
    const std::string what = e.what();
    EXPECT_NE(what.find("from rank 1 "), std::string::npos) << what;
    EXPECT_NE(what.find("corrupt at rank " + std::to_string(e.detector_rank)),
              std::string::npos)
        << what;
  }
}

TEST(Rider, StagedAndDirectChannelRoundsFoldAlike) {
  // A 2dca round folds over the row, then the row partials over the
  // column; a direct round folds over the world in one alltoallv.  Both
  // must hand every rank the world fold, with and without payload.
  for (MeshShape mesh : {MeshShape{2, 2}, MeshShape{2, 4}, MeshShape{4, 4}}) {
    SCOPED_TRACE(std::to_string(mesh.rows) + "x" + std::to_string(mesh.cols));
    run_spmd(mesh, [&](RankContext& ctx) {
      const int p = ctx.nranks();
      ThreadPool pool(1);
      for (ExchangeBackend backend :
           {ExchangeBackend::Direct, ExchangeBackend::TwoDCA}) {
        ExchangeChannel<bfs::CompactMsg> ch;
        ch.configure(ctx, {.backend = backend, .encoding = true});
        for (int i = 0; i < 4; ++i) {
          const uint64_t calls0 =
              ctx.stats.entry(CollectiveType::Alltoallv).calls;
          ch.begin_world(1);
          // Distinct keys per source, so no in-flight merge folds them.
          if (i % 2 == 1)
            for (int d = 0; d < p; ++d)
              ch.push(0, size_t(d),
                      bfs::CompactMsg{uint32_t(ctx.rank), uint32_t(i)});
          SumOr v = rider_of(ctx.rank, i);
          auto got = ch.exchange(ctx.world, pool, Rider(v, FoldSumOr{}));
          EXPECT_EQ(v, folded(p, i)) << exchange_backend_name(backend);
          EXPECT_EQ(got.size(), i % 2 == 1 ? size_t(p) : 0u);
          EXPECT_EQ(ctx.stats.entry(CollectiveType::Alltoallv).calls - calls0,
                    backend == ExchangeBackend::TwoDCA ? 2u : 1u);
        }
      }
    });
  }
}

}  // namespace
}  // namespace sunbfs::sim
