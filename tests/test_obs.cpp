// Tests for the observability layer (src/obs): span tracing on the two
// clocks, Chrome trace export, the metrics registry and its JSON round
// trip, and the zero-allocation guarantee of the disabled tracer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bfs/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

// ---- global allocation counter (for the zero-overhead test) ---------------

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n);
  if (!p) throw std::bad_alloc();
  return p;
}
void* operator new[](size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Out of line, so GCC's -Wmismatched-new-delete does not pair the inlined
// free() with the operator new call it sees at the allocation site.
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, size_t) noexcept {
  std::free(p);
}

namespace {

// Fresh-tracer fixture: every test starts disabled and empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
  void TearDown() override {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

#if SUNBFS_OBS_TRACE_ENABLED

TEST_F(ObsTest, DisabledSpanAllocatesNothing) {
  ASSERT_FALSE(obs::Tracer::instance().enabled());
  // Not attached, not enabled: constructing spans and advancing the clock
  // must be free.  (The real guarantee is one thread-local pointer check.)
  uint64_t before = g_allocs.load();
  for (int i = 0; i < 10000; ++i) {
    obs::Span span("test", "noop", i);
    obs::Tracer::advance_modeled(1.0);
    obs::complete_span("test", "noop", i, 0.1, 0.2);
    obs::instant("test", "noop");
  }
  EXPECT_EQ(g_allocs.load(), before);
  EXPECT_EQ(obs::Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTest, SpanNestingAndOrdering) {
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  obs::TraceBuffer* buf = tracer.attach_thread(3);
  ASSERT_NE(buf, nullptr);
  EXPECT_EQ(buf->rank(), 3);

  {
    obs::Span outer("bfs", "level", 1);
    obs::Tracer::advance_modeled(1.0);
    {
      obs::Span inner("comm", "allreduce");
      obs::Tracer::advance_modeled(0.5);
    }
    obs::Tracer::advance_modeled(0.25);
  }
  tracer.detach_thread();

  ASSERT_EQ(buf->events().size(), 2u);
  // Spans complete inner-first (destructor order).
  const obs::TraceEvent& inner = buf->events()[0];
  const obs::TraceEvent& outer = buf->events()[1];
  EXPECT_STREQ(inner.name, "allreduce");
  EXPECT_STREQ(outer.name, "level");
  EXPECT_EQ(outer.arg, 1);
  // Modeled clock: outer spans [0, 1.75], inner spans [1.0, 1.5].
  EXPECT_DOUBLE_EQ(outer.modeled_begin_s, 0.0);
  EXPECT_DOUBLE_EQ(outer.modeled_dur_s, 1.75);
  EXPECT_DOUBLE_EQ(inner.modeled_begin_s, 1.0);
  EXPECT_DOUBLE_EQ(inner.modeled_dur_s, 0.5);
  // Nesting on the wall clock too: inner within outer.
  EXPECT_GE(inner.wall_begin_s, outer.wall_begin_s);
  EXPECT_LE(inner.wall_begin_s + inner.wall_dur_s,
            outer.wall_begin_s + outer.wall_dur_s + 1e-9);
}

TEST_F(ObsTest, CompleteSpanAdvanceSemantics) {
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  obs::TraceBuffer* buf = tracer.attach_thread(0);
  ASSERT_NE(buf, nullptr);

  // advance=false lays the span down without moving the clock (chip kernels
  // whose modeled time a caller attributes).
  obs::complete_span("chip", "kernel", 42, 0.001, 2.0);
  EXPECT_DOUBLE_EQ(buf->modeled_now(), 0.0);
  // advance=true moves it (collectives).
  obs::complete_span("comm", "alltoallv", 128, 0.001, 3.0, true);
  EXPECT_DOUBLE_EQ(buf->modeled_now(), 3.0);
  tracer.detach_thread();

  ASSERT_EQ(buf->events().size(), 2u);
  EXPECT_DOUBLE_EQ(buf->events()[0].modeled_dur_s, 2.0);
  EXPECT_DOUBLE_EQ(buf->events()[1].modeled_begin_s, 0.0);
  EXPECT_DOUBLE_EQ(buf->events()[1].modeled_dur_s, 3.0);
}

TEST_F(ObsTest, ReattachExtendsPerRankTimeline) {
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  obs::TraceBuffer* first = tracer.attach_thread(1);
  obs::Tracer::advance_modeled(5.0);
  tracer.detach_thread();
  obs::TraceBuffer* again = tracer.attach_thread(1);
  EXPECT_EQ(first, again);  // same rank -> same buffer, clock continues
  EXPECT_DOUBLE_EQ(again->modeled_now(), 5.0);
  tracer.detach_thread();
}

TEST_F(ObsTest, ChromeTraceJsonSchema) {
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  tracer.attach_thread(0);
  {
    obs::Span span("bfs", "level", 7);
    obs::Tracer::advance_modeled(0.5);
  }
  obs::instant("fault", "rollback_from", 3);
  tracer.detach_thread();

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  obs::Json doc = obs::Json::parse(os.str());  // throws on malformed JSON

  const obs::Json& events = doc.at("traceEvents");
  // Metadata (thread name) + one complete span + one instant.
  ASSERT_EQ(events.size(), 3u);
  bool saw_meta = false, saw_span = false, saw_instant = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::Json& e = events.at(i);
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_meta = true;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      EXPECT_EQ(e.at("args").at("name").as_string(), "rank 0");
    } else if (ph == "X") {
      saw_span = true;
      EXPECT_EQ(e.at("cat").as_string(), "bfs");
      EXPECT_EQ(e.at("name").as_string(), "level");
      EXPECT_EQ(e.at("tid").as_int(), 0);
      // ts/dur are modeled microseconds.
      EXPECT_DOUBLE_EQ(e.at("dur").as_double(), 0.5 * 1e6);
      EXPECT_EQ(e.at("args").at("arg").as_int(), 7);
      EXPECT_TRUE(e.at("args").has("wall_dur_s"));
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.at("cat").as_string(), "fault");
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST_F(ObsTest, SpmdRunProducesPerRankTimelines) {
  auto& tracer = obs::Tracer::instance();
  tracer.enable();
  sim::run_spmd(sim::MeshShape{2, 2}, [](sim::RankContext& ctx) {
    ctx.world.barrier();
    (void)ctx.world.allreduce_sum(uint64_t(ctx.rank));
  });
  // Each rank emitted at least: barrier span, allreduce span, rank_body.
  EXPECT_GE(tracer.event_count(), 12u);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  obs::Json doc = obs::Json::parse(os.str());
  bool tids[4] = {};
  const obs::Json& events = doc.at("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    int64_t tid = events.at(i).at("tid").as_int();
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, 4);
    tids[tid] = true;
  }
  EXPECT_TRUE(tids[0] && tids[1] && tids[2] && tids[3]);
}

#endif  // SUNBFS_OBS_TRACE_ENABLED

// ---- metrics registry ------------------------------------------------------

TEST(Metrics, CountersGaugesInfoBasics) {
  obs::Report r;
  EXPECT_TRUE(r.empty());
  r.add_counter("a.calls", 2);
  r.add_counter("a.calls", 3);
  r.gauge("a.seconds", 1.5);
  r.info("tool", "test");
  r.info("scale", int64_t(14));
  EXPECT_EQ(r.counter("a.calls"), 5u);
  EXPECT_DOUBLE_EQ(r.gauge("a.seconds"), 1.5);
  EXPECT_EQ(r.info("tool"), "test");
  EXPECT_EQ(r.info("scale"), "14");
  EXPECT_FALSE(r.has_counter("missing"));
  EXPECT_EQ(r.counter("missing"), 0u);
}

TEST(Metrics, MergeAcrossRanks) {
  // Per-rank reports aggregate like an allreduce: counters and histograms
  // sum, gauges last-write, info unions.
  obs::Report ranks[4];
  for (int r = 0; r < 4; ++r) {
    ranks[r].add_counter("comm.alltoallv.calls", 10);
    ranks[r].add_counter("comm.alltoallv.bytes_sent", uint64_t(r) * 100);
    ranks[r].gauge("comm.total_modeled_s", 0.25);
    ranks[r].histogram("bfs.frontier_active").add(uint64_t(1) << r);
  }
  obs::Report total;
  for (int r = 0; r < 4; ++r) total.merge(ranks[r]);
  EXPECT_EQ(total.counter("comm.alltoallv.calls"), 40u);
  EXPECT_EQ(total.counter("comm.alltoallv.bytes_sent"), 600u);
  EXPECT_DOUBLE_EQ(total.gauge("comm.total_modeled_s"), 0.25);
  EXPECT_EQ(total.histogram("bfs.frontier_active").total(), 4u);
}

TEST(Metrics, JsonRoundTrip) {
  obs::Report r;
  r.info("tool", "round_trip");
  r.add_counter("x.calls", 123456789);
  r.gauge("x.seconds", 0.0625);
  r.histogram("x.sizes").add(7);
  r.histogram("x.sizes").add(4096, 3);

  obs::Report back = obs::Report::from_json(r.to_json());
  EXPECT_EQ(back.info("tool"), "round_trip");
  EXPECT_EQ(back.counter("x.calls"), 123456789u);
  EXPECT_DOUBLE_EQ(back.gauge("x.seconds"), 0.0625);
  EXPECT_EQ(back.histogram("x.sizes").total(), 4u);
  // Byte-identical re-serialization: the round trip is lossless.
  EXPECT_EQ(back.to_json(), r.to_json());
}

TEST(Metrics, SchemaVersionRejected) {
  EXPECT_THROW(obs::Report::from_json("{\"schema\": \"other.metrics/1\"}"),
               std::runtime_error);
  EXPECT_THROW(obs::Report::from_json("{\"schema\": \"sunbfs.metrics/999\"}"),
               std::runtime_error);
}

TEST(Metrics, SpmdReportAggregation) {
  // CommStats/FaultStats fold into one Report whose totals equal the
  // aggregate the runtime computed rank-by-rank.
  auto spmd = sim::run_spmd(sim::MeshShape{2, 2}, [](sim::RankContext& ctx) {
    std::vector<std::vector<uint64_t>> to(size_t(ctx.nranks()));
    for (int r = 0; r < ctx.nranks(); ++r) to[size_t(r)] = {uint64_t(r), 7};
    (void)ctx.world.alltoallv(to);
    (void)ctx.world.allreduce_sum(uint64_t(1));
  });
  obs::Report rep;
  spmd.to_report(rep);
  auto agg = spmd.aggregate();
  EXPECT_EQ(rep.counter("spmd.ranks"), 4u);
  EXPECT_EQ(rep.counter("comm.total_bytes_sent"), agg.total_bytes_sent());
  EXPECT_EQ(rep.counter("comm.alltoallv.calls"),
            agg.entry(sim::CollectiveType::Alltoallv).calls);
  EXPECT_DOUBLE_EQ(rep.gauge("comm.total_modeled_s"), agg.total_modeled_s());
  EXPECT_GE(rep.gauge("comm.total_imbalance_s"), 0.0);
  // The imbalance split is a portion of wall time, never more than it.
  EXPECT_LE(rep.gauge("comm.total_imbalance_s"),
            rep.gauge("comm.total_wall_s") + 1e-12);
}

TEST(Metrics, CollectiveWaitIsPartOfWall) {
  // Every collective type splits its host wall into barrier wait and the
  // rest; the wait is never more than the wall, per rank and in the report.
  auto spmd = sim::run_spmd(sim::MeshShape{2, 2}, [](sim::RankContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      std::vector<std::vector<uint64_t>> to(size_t(ctx.nranks()), {7});
      (void)ctx.world.alltoallv(to);
      (void)ctx.world.allgather(uint64_t(ctx.rank));
      std::vector<uint64_t> mine(size_t(ctx.rank), 1);
      (void)ctx.world.allgatherv(std::span<const uint64_t>(mine));
      std::vector<uint64_t> blocks(size_t(ctx.nranks()), 1);
      (void)ctx.world.reduce_scatter_block(
          std::span<const uint64_t>(blocks), 1,
          [](uint64_t a, uint64_t b) { return a + b; });
      (void)ctx.world.allreduce_sum(uint64_t(1));
      std::vector<uint64_t> words(4, uint64_t(1) << ctx.rank);
      ctx.world.allreduce_inplace(std::span<uint64_t>(words),
                                  [](uint64_t a, uint64_t b) { return a | b; });
      ctx.world.barrier();
    }
  });
  obs::Report rep;
  spmd.to_report(rep);
  for (int t = 0; t < sim::kCollectiveTypeCount; ++t) {
    const std::string p = std::string("comm.") +
                          sim::collective_type_name(sim::CollectiveType(t)) +
                          ".";
    ASSERT_GT(rep.counter(p + "calls"), 0u) << p;
    EXPECT_GE(rep.gauge(p + "wait_s"), 0.0) << p;
    EXPECT_LE(rep.gauge(p + "wait_s"), rep.gauge(p + "wall_s") + 1e-12) << p;
    for (const auto& stats : spmd.per_rank) {
      const auto& e = stats.entry(sim::CollectiveType(t));
      EXPECT_LE(e.wait_s, e.wall_s + 1e-12) << p;
    }
  }
}

TEST(Metrics, RunnerReportMatchesStdout) {
  // The numbers --metrics-out serializes are the numbers the runner prints:
  // same RunnerResult fields, no separate computation.
  bfs::RunnerConfig cfg;
  cfg.graph.scale = 10;
  cfg.num_roots = 2;
  cfg.validate = true;
  sim::Topology topo(sim::MeshShape{2, 2});
  auto result = bfs::run_graph500(topo, cfg);
  ASSERT_TRUE(result.all_valid);

  obs::Report rep;
  result.to_report(rep);
  EXPECT_DOUBLE_EQ(rep.gauge("graph500.harmonic_gteps"),
                   result.harmonic_gteps);
  EXPECT_EQ(rep.counter("graph500.roots"), uint64_t(result.runs.size()));
  EXPECT_EQ(rep.counter("graph500.valid_roots"), uint64_t(result.runs.size()));
  EXPECT_EQ(rep.info("graph500.all_valid"), "true");
  EXPECT_EQ(rep.counter("graph500.num_eh"), result.num_eh);
  uint64_t edges = 0;
  for (const auto& r : result.runs) edges += r.traversed_edges;
  EXPECT_EQ(rep.counter("graph500.traversed_edges"), edges);
  EXPECT_GT(rep.counter("bfs.iterations"), 0u);
  EXPECT_GT(rep.histogram("bfs.frontier_active").total(), 0u);
  // And it survives the serialization boundary the tools consume through.
  obs::Report back = obs::Report::from_json(rep.to_json());
  EXPECT_DOUBLE_EQ(back.gauge("graph500.harmonic_gteps"),
                   result.harmonic_gteps);
}

// ---- JSON parser ----------------------------------------------------------

TEST(Json, ParsesAndDumps) {
  obs::Json doc = obs::Json::parse(
      "{\"a\": [1, 2.5, true, null, \"x\\u0041\"], \"b\": {\"c\": -3}}");
  EXPECT_EQ(doc.at("a").size(), 5u);
  EXPECT_DOUBLE_EQ(doc.at("a").at(size_t(1)).as_double(), 2.5);
  EXPECT_TRUE(doc.at("a").at(size_t(2)).as_bool());
  EXPECT_EQ(doc.at("a").at(size_t(4)).as_string(), "xA");
  EXPECT_EQ(doc.at("b").at("c").as_int(), -3);
  // dump -> parse is stable.
  obs::Json again = obs::Json::parse(doc.dump(2));
  EXPECT_EQ(again.at("b").at("c").as_int(), -3);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(obs::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{} trailing"), std::runtime_error);
}

}  // namespace
