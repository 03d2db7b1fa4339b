// Sync-vs-async crossover: the level-synchronous engines pay at least one
// collective round per BFS level, so their round count scales with graph
// diameter; the relaxed-frontier engine (bfs/bfsasync.hpp) drains each
// rank's worklist to a local fixpoint between exchanges, so its round count
// scales with the rank topology instead.  An async round costs two
// collective calls (its alltoallv or frontier gather, then one control fold
// that carries the next round's frontier depth and load and detects
// quiescence), after one seed fold.  This bench sweeps the diameter
// axis with the deterministic lattice generators (graph/lattice.hpp) — a
// path (diameter n-1), a tall grid, a torus — plus an R-MAT input at the
// headline regime (diameter ~ log n) and compares each engine's collective
// rounds, wire bytes and modeled time at a fixed mesh.
//
// Self-gates (CI runs the binary before the baseline diff):
//  * on the diameter >= 4096 lattices the async engine must finish with
//    >= 10x fewer collective calls than the level-synchronous 1D engine
//    AND lower modeled time (max-rank compute CPU + modeled network);
//  * on R-MAT, where level synchrony is cheap and relaxation only adds
//    speculation, async must stay within 1.25x of the best sync engine.
//
// The emitted BENCH_async.json carries only schedule-independent metrics
// (rounds, collective calls, alltoallv bytes, modeled network seconds —
// deterministic at the pinned scale/seed by the engine's bit-determinism
// guarantee), so CI diffs it tightly against
// reports/BENCH_async.baseline.json via tools/bench_compare.py.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bfs/engine.hpp"
#include "bfs/workspace.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "partition/classify.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

namespace {

// One engine's traversal of one input, measured on rank 0 as deltas of the
// per-rank CommStats taken around the engine run only (partition builds and
// the post-run roll-up excluded).
struct Meas {
  int rounds = 0;                ///< levels (sync) or exchange rounds (async)
  uint64_t collective_calls = 0; ///< every collective the traversal entered
  uint64_t a2a_bytes = 0;        ///< alltoallv payload bytes, rank 0
  double comm_modeled_s = 0;     ///< modeled network seconds (deterministic)
  double max_cpu_s = 0;          ///< slowest rank's compute CPU, min of repeats

  double modeled_total_s() const { return max_cpu_s + comm_modeled_s; }
};

uint64_t total_calls(const sim::CommStats& s) {
  uint64_t n = 0;
  for (int t = 0; t < sim::kCollectiveTypeCount; ++t)
    n += s.entry(sim::CollectiveType(t)).calls;
  return n;
}

using SliceFn = std::function<std::vector<graph::Edge>(int, int)>;

/// Repeats of each traversal; the gates read the minimum compute CPU.
constexpr int kCpuRepeats = 5;

// Build the requested engine over per-rank slices and run its traversal
// kCpuRepeats times.
Meas run_engine(sim::MeshShape mesh, uint64_t nv, graph::Vertex root,
                bfs::EngineKind kind, const SliceFn& slice_fn) {
  const partition::VertexSpace space{nv, mesh.ranks()};
  Meas meas;
  sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    auto slice = slice_fn(ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    // One workspace per rank: the partition build and every repeat run on
    // its two-thread pool.
    bfs::BfsWorkspace ws(2);
    bfs::EngineConfig ecfg;
    ecfg.kind = kind;
    ecfg.bfs15.workspace = &ws;
    ecfg.bfs1d.workspace = &ws;
    ecfg.async.workspace = &ws;
    auto engine = bfs::make_engine(ctx, space, slice, degrees, ecfg);

    // The traversal is deterministic, so every repeat moves the same
    // rounds, calls and bytes; the first one's are recorded.  Its compute
    // CPU is ~1 ms on R-MAT, where a single shot is host noise, so the
    // minimum over the repeats stands for it.
    double min_cpu = 0;
    for (int rep = 0; rep < kCpuRepeats; ++rep) {
      const uint64_t calls0 = total_calls(ctx.stats);
      const double modeled0 = ctx.stats.total_modeled_s();
      const uint64_t a2a0 =
          ctx.stats.entry(sim::CollectiveType::Alltoallv).bytes_sent;
      bfs::EngineRun r = engine->run(ctx, root);
      const uint64_t calls1 = total_calls(ctx.stats);
      const double modeled1 = ctx.stats.total_modeled_s();
      const uint64_t a2a1 =
          ctx.stats.entry(sim::CollectiveType::Alltoallv).bytes_sent;

      const double max_cpu = ctx.world.allreduce_max(r.cpu_s);
      min_cpu = rep == 0 ? max_cpu : std::min(min_cpu, max_cpu);
      if (ctx.rank == 0 && rep == 0) {
        meas.rounds = r.rounds;
        meas.collective_calls = calls1 - calls0;
        meas.a2a_bytes = a2a1 - a2a0;
        meas.comm_modeled_s = modeled1 - modeled0;
      }
    }
    if (ctx.rank == 0) meas.max_cpu_s = min_cpu;
  });
  return meas;
}

struct CrossoverRow {
  std::string input;
  uint64_t diameter = 0;
  std::string engine;
  Meas m;
};

/// Compact sunbfs.bench/1 summary (BENCH_async.json, or $SUNBFS_BENCH_OUT)
/// for the CI regression gate.  Only schedule-independent quantities go in:
/// rounds and collective calls are pinned by the engines' determinism, the
/// byte counts and modeled network seconds by the pinned scale/seed/mesh.
/// The measured CPU seconds stay out (they are host noise, reported via
/// --metrics-out only).
bool write_bench_json(const char* path, const std::vector<CrossoverRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sunbfs.bench/1\",\n");
  std::fprintf(f, "  \"bench\": \"async_crossover\",\n");
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const char* sep = i + 1 < rows.size() ? "," : "";
    const std::string tag = r.input + "_" + r.engine;
    std::fprintf(f, "    \"rounds_%s\": %d,\n", tag.c_str(), r.m.rounds);
    std::fprintf(f, "    \"collective_calls_%s\": %llu,\n", tag.c_str(),
                 (unsigned long long)r.m.collective_calls);
    std::fprintf(f, "    \"alltoallv_bytes_%s\": %llu,\n", tag.c_str(),
                 (unsigned long long)r.m.a2a_bytes);
    std::fprintf(f, "    \"comm_modeled_us_%s\": %.3f%s\n", tag.c_str(),
                 r.m.comm_modeled_s * 1e6, sep);
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_async_crossover");
  bench::header("Sync-vs-async crossover",
                "collective rounds vs graph diameter, per engine");
  bench::paper_line(
      "the production BFS is level-synchronous — fine at diameter ~ log n, "
      "but every level costs a full collective round; an asynchronous "
      "relaxed traversal decouples rounds from levels and wins exactly when "
      "diameter dwarfs the rank count (high-diameter road/mesh inputs)");

  const sim::MeshShape mesh{2, 4};
  const int rmat_scale = 14 + bench::scale_delta();

  struct InputCase {
    std::string name;
    uint64_t nv;
    uint64_t diameter;
    graph::Vertex root;
    bool high_diameter;  ///< gated lattice regime (diameter >= 4096)
    std::vector<bfs::EngineKind> engines;
    SliceFn slice;
  };

  auto lattice_case = [](const char* name, graph::LatticeConfig cfg,
                         bool high_diameter) {
    return InputCase{
        name, cfg.num_vertices(), cfg.diameter(), 0, high_diameter,
        {bfs::EngineKind::OneD, bfs::EngineKind::Async},
        [cfg](int rank, int nranks) {
          const uint64_t m = cfg.num_edges();
          return graph::generate_lattice_range(
              cfg, m * uint64_t(rank) / uint64_t(nranks),
              m * uint64_t(rank + 1) / uint64_t(nranks));
        }};
  };

  graph::Graph500Config rcfg;
  rcfg.scale = rmat_scale;
  rcfg.seed = 11;
  const graph::Vertex rmat_root = graph::generate_rmat_range(rcfg, 0, 1)[0].u;

  std::vector<InputCase> inputs;
  inputs.push_back(lattice_case("path8192", graph::LatticeConfig::path(8192),
                                true));
  inputs.push_back(lattice_case("grid2x4096",
                                graph::LatticeConfig::grid(2, 4096), true));
  inputs.push_back(lattice_case("torus64x64",
                                graph::LatticeConfig::torus(64, 64), false));
  inputs.push_back(InputCase{
      "rmat" + std::to_string(rmat_scale), rcfg.num_vertices(), 0, rmat_root,
      false,
      {bfs::EngineKind::OneD, bfs::EngineKind::OneFiveD,
       bfs::EngineKind::Async},
      [rcfg](int rank, int nranks) {
        const uint64_t m = rcfg.num_edges();
        return graph::generate_rmat_range(
            rcfg, m * uint64_t(rank) / uint64_t(nranks),
            m * uint64_t(rank + 1) / uint64_t(nranks));
      }});

  std::printf("%12s %9s %7s | %7s %10s %12s | %11s %11s %11s\n", "input",
              "diameter", "engine", "rounds", "coll calls", "a2a bytes",
              "comm model s", "max cpu s", "modeled s");

  auto& rep = bench::report();
  std::vector<CrossoverRow> rows;
  bool ok = true;
  for (const auto& in : inputs) {
    Meas by_kind[3];
    for (bfs::EngineKind kind : in.engines) {
      const Meas m = run_engine(mesh, in.nv, in.root, kind, in.slice);
      by_kind[int(kind)] = m;
      const char* ename = bfs::engine_kind_name(kind);
      std::printf("%12s %9llu %7s | %7d %10llu %12llu | %11.6f %11.6f "
                  "%11.6f\n",
                  in.name.c_str(), (unsigned long long)in.diameter, ename,
                  m.rounds, (unsigned long long)m.collective_calls,
                  (unsigned long long)m.a2a_bytes, m.comm_modeled_s,
                  m.max_cpu_s, m.modeled_total_s());

      const std::string key = "crossover." + in.name + "." + ename + ".";
      rep.add_counter(key + "rounds", uint64_t(m.rounds));
      rep.add_counter(key + "collective_calls", m.collective_calls);
      rep.add_counter(key + "alltoallv_bytes", m.a2a_bytes);
      rep.gauge(key + "comm_modeled_s", m.comm_modeled_s);
      rep.gauge(key + "max_cpu_s", m.max_cpu_s);
      rep.gauge(key + "modeled_total_s", m.modeled_total_s());
      rep.add_counter("crossover." + in.name + ".diameter", in.diameter);

      // The engine's tag in the sanitized JSON key namespace ("1.5d" would
      // put a dot inside the metric name).
      std::string tag = ename;
      std::replace(tag.begin(), tag.end(), '.', '_');
      rows.push_back(CrossoverRow{in.name, in.diameter, tag, m});
    }

    const Meas& sync1d = by_kind[int(bfs::EngineKind::OneD)];
    const Meas& async = by_kind[int(bfs::EngineKind::Async)];
    if (in.high_diameter) {
      if (async.collective_calls * 10 > sync1d.collective_calls) {
        std::printf("FAIL: %s: async used %llu collective calls, more than "
                    "1/10 of 1d's %llu\n",
                    in.name.c_str(),
                    (unsigned long long)async.collective_calls,
                    (unsigned long long)sync1d.collective_calls);
        ok = false;
      }
      if (async.modeled_total_s() >= sync1d.modeled_total_s()) {
        std::printf("FAIL: %s: async modeled %.6fs, not below 1d's %.6fs\n",
                    in.name.c_str(), async.modeled_total_s(),
                    sync1d.modeled_total_s());
        ok = false;
      }
    } else if (in.engines.size() == 3) {  // the R-MAT point
      const Meas& sync15 = by_kind[int(bfs::EngineKind::OneFiveD)];
      const double best_sync =
          std::min(sync1d.modeled_total_s(), sync15.modeled_total_s());
      const double tax = async.modeled_total_s() / best_sync;
      std::printf("%12s relaxation tax vs best sync engine: %.3fx\n",
                  in.name.c_str(), tax);
      rep.gauge("crossover." + in.name + ".async_tax_vs_best_sync", tax);
      if (tax > 1.25) {
        std::printf("FAIL: %s: async modeled %.6fs is %.3fx the best sync "
                    "engine's %.6fs (limit 1.25x)\n",
                    in.name.c_str(), async.modeled_total_s(), tax, best_sync);
        ok = false;
      }
    }
  }

  const char* out = std::getenv("SUNBFS_BENCH_OUT");
  const char* path = out ? out : "BENCH_async.json";
  if (write_bench_json(path, rows))
    std::printf("bench summary: wrote %s\n", path);
  else
    std::printf("bench summary: FAILED writing %s\n", path);

  bench::shape_line(
      "on the diameter >= 4096 lattices the async engine finishes in >= 10x "
      "fewer collective calls than the level-synchronous 1D engine and less "
      "modeled time; on R-MAT, where diameter ~ log n, level synchrony is "
      "already cheap and async pays a bounded (<= 1.25x) relaxation tax");
  const int rc = bench::finish();
  return ok ? rc : 1;
}
