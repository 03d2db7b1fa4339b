// §6.1 headline: the full Graph 500 benchmark pipeline, end to end.
//
// The paper: SCALE 44 (281T edges) on 103,912 nodes, 64 search keys, 1.55 s
// mean traversal, 180,792 GTEPS, results validated per Graph 500 spec 2.0.
// We run the identical pipeline — generate, partition, BFS from random
// keys, validate every run — at simulation scale, and report the same
// quantities.
//
// The pipeline is run once per threads-per-rank value in the sweep list
// (SUNBFS_TPR_SWEEP, default "1,2,4"), which is the measured basis of the
// "threads-per-rank scaling" exhibit in EXPERIMENTS.md and of the ≥1.5x
// intra-rank speedup acceptance check on multi-core hosts (docs/PERF.md;
// on a single hardware thread the sweep only shows oversubscription cost).
// Besides the usual --metrics-out report, the bench writes a compact
// sunbfs.bench/1 summary (BENCH_headline.json, or $SUNBFS_BENCH_OUT) that
// tools/bench_compare.py diffs across checkouts to catch regressions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bfs/runner.hpp"

using namespace sunbfs;

namespace {

struct SweepPoint {
  int threads_per_rank = 1;
  double wall_s = 0;     // host wall time summed over the BFS runs
  double modeled_s = 0;  // mean per-root modeled traversal time
  double gteps = 0;      // harmonic mean over the modeled clock
};

std::vector<int> sweep_list() {
  std::vector<int> tprs;
  const char* env = std::getenv("SUNBFS_TPR_SWEEP");
  std::string spec = env ? env : "1,2,4";
  for (size_t pos = 0; pos < spec.size();) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    int v = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (v > 0) tprs.push_back(v);
    pos = comma + 1;
  }
  if (tprs.empty()) tprs.push_back(1);
  return tprs;
}

uint64_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return uint64_t(ru.ru_maxrss) * 1024;  // Linux reports KiB
}

bool write_bench_json(const char* path, int scale, int ranks,
                      const SweepPoint& best,
                      const std::vector<SweepPoint>& sweep) {
  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sunbfs.bench/1\",\n");
  std::fprintf(f, "  \"bench\": \"headline_graph500\",\n");
  std::fprintf(f, "  \"scale\": %d,\n  \"ranks\": %d,\n", scale, ranks);
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"gteps\": %.6f,\n", best.gteps);
  std::fprintf(f, "    \"wall_s\": %.6f,\n", best.wall_s);
  std::fprintf(f, "    \"modeled_s\": %.9f,\n", best.modeled_s);
  std::fprintf(f, "    \"peak_rss_bytes\": %llu\n",
               (unsigned long long)peak_rss_bytes());
  std::fprintf(f, "  },\n  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i)
    std::fprintf(f,
                 "    {\"threads_per_rank\": %d, \"wall_s\": %.6f, "
                 "\"modeled_s\": %.9f, \"gteps\": %.6f}%s\n",
                 sweep[i].threads_per_rank, sweep[i].wall_s,
                 sweep[i].modeled_s, sweep[i].gteps,
                 i + 1 < sweep.size() ? "," : "");
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

// Encoding-ablation summary (BENCH_encoding.json): the deterministic
// search-phase wire bytes with the adaptive encoding on vs off.  Only
// exactly reproducible quantities go in — byte counts and the derived
// reduction percentages — so tools/bench_compare.py can gate on them with a
// tight tolerance (no wall clock, no RSS).
bool write_encoding_json(const char* path, int scale, int ranks,
                         uint64_t a2a_on, uint64_t ag_on, uint64_t a2a_off,
                         uint64_t ag_off) {
  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  const double a2a_red =
      a2a_off ? 100.0 * (1.0 - double(a2a_on) / double(a2a_off)) : 0.0;
  const double ag_red =
      ag_off ? 100.0 * (1.0 - double(ag_on) / double(ag_off)) : 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sunbfs.bench/1\",\n");
  std::fprintf(f, "  \"bench\": \"encoding_ablation\",\n");
  std::fprintf(f, "  \"scale\": %d,\n  \"ranks\": %d,\n", scale, ranks);
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"alltoallv_bytes\": %llu,\n",
               (unsigned long long)a2a_on);
  std::fprintf(f, "    \"allgather_bytes\": %llu,\n",
               (unsigned long long)ag_on);
  std::fprintf(f, "    \"alltoallv_bytes_raw\": %llu,\n",
               (unsigned long long)a2a_off);
  std::fprintf(f, "    \"allgather_bytes_raw\": %llu,\n",
               (unsigned long long)ag_off);
  std::fprintf(f, "    \"alltoallv_reduction_pct\": %.4f,\n", a2a_red);
  std::fprintf(f, "    \"allgather_reduction_pct\": %.4f\n", ag_red);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_headline_graph500");
  bench::header("Headline (§6.1)", "full Graph 500 BFS benchmark");
  bench::paper_line(
      "SCALE 44, 103,912 nodes, 40.5M cores: 180,792 GTEPS over 64 roots, "
      "validated (1.75x previous record, 8x graph size)");

  bfs::RunnerConfig cfg;
  cfg.graph.scale = 15 + bench::scale_delta();
  cfg.graph.seed = 2026;
  cfg.thresholds = {4096, 512};
  cfg.num_roots = bench::env_int("SUNBFS_ROOTS", 8);
  cfg.validate = true;
  sim::Topology topo(sim::MeshShape{4, 4});

  std::printf("SCALE %d (%llu vertices, %llu edges), %d ranks, %d search "
              "keys, validation ON\n\n",
              cfg.graph.scale, (unsigned long long)cfg.graph.num_vertices(),
              (unsigned long long)cfg.graph.num_edges(), topo.mesh().ranks(),
              cfg.num_roots);

  // Every block after the sweep (per-key table, Graph 500 summary, bench
  // summary, encoding ablation, metrics report) describes the best
  // wall-clock point, the one BENCH_headline.json records.
  std::vector<SweepPoint> sweep;
  size_t best_index = 0;
  bfs::RunnerResult best_result;
  for (int tpr : sweep_list()) {
    cfg.bfs.threads_per_rank = tpr;
    cfg.bfs1d.threads_per_rank = tpr;
    bfs::RunnerResult result = bfs::run_graph500(topo, cfg);
    SweepPoint p;
    p.threads_per_rank = tpr;
    for (const auto& r : result.runs) {
      p.wall_s += r.wall_s;
      p.modeled_s += r.modeled_s / double(result.runs.size());
    }
    p.gteps = result.harmonic_gteps;
    sweep.push_back(p);
    std::printf("threads/rank %2d: BFS wall %8.3f s, mean modeled %.6f s, "
                "%.3f GTEPS, staging allocs warmup/steady %llu/%llu, "
                "valid %s\n",
                tpr, p.wall_s, p.modeled_s, p.gteps,
                (unsigned long long)result.staging_allocs_warmup,
                (unsigned long long)result.staging_allocs_steady,
                result.all_valid ? "yes" : "NO");
    if (!result.all_valid) return bench::finish(1);
    const std::string prefix =
        "headline.tpr" + std::to_string(tpr) + ".";
    bench::report().gauge(prefix + "wall_s", p.wall_s);
    bench::report().gauge(prefix + "modeled_s", p.modeled_s);
    bench::report().gauge(prefix + "gteps", p.gteps);
    bench::report().add_counter(prefix + "staging_allocs_steady",
                                result.staging_allocs_steady);
    if (sweep.size() == 1 || p.wall_s < sweep[best_index].wall_s) {
      best_index = sweep.size() - 1;
      best_result = std::move(result);
    }
  }
  const SweepPoint& best = sweep[best_index];
  const bfs::RunnerResult& result = best_result;
  cfg.bfs.threads_per_rank = best.threads_per_rank;
  cfg.bfs1d.threads_per_rank = best.threads_per_rank;

  std::printf("\n%6s %14s %14s %12s %8s\n", "key", "root", "trav. edges",
              "modeled s", "valid");
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const auto& r = result.runs[i];
    std::printf("%6zu %14lld %14llu %12.6f %8s\n", i, (long long)r.root,
                (unsigned long long)r.traversed_edges, r.modeled_s,
                r.valid ? "yes" : r.error.c_str());
  }
  // Graph 500 output-format-style summary block.
  {
    std::vector<double> times;
    for (const auto& r : result.runs) times.push_back(r.modeled_s);
    std::sort(times.begin(), times.end());
    double sum = 0;
    for (double t : times) sum += t;
    double mean = sum / double(times.size());
    double var = 0;
    for (double t : times) var += (t - mean) * (t - mean);
    var /= double(std::max<size_t>(1, times.size() - 1));
    std::printf("\nSCALE:                 %d\n", cfg.graph.scale);
    std::printf("edgefactor:            %d\n", cfg.graph.edge_factor);
    std::printf("NBFS:                  %d\n", cfg.num_roots);
    std::printf("construction_time:     %.6f s (wall)\n",
                result.partition_wall_s);
    std::printf("min_time:              %.6f\n", times.front());
    std::printf("median_time:           %.6f\n", times[times.size() / 2]);
    std::printf("max_time:              %.6f\n", times.back());
    std::printf("mean_time:             %.6f\n", mean);
    std::printf("stddev_time:           %.6f\n", std::sqrt(var));
    std::printf("harmonic_mean_TEPS:    %.3e\n",
                result.harmonic_gteps * 1e9);
  }

  std::printf("\nclassification: |EH| = %llu (|E| = %llu) of %llu vertices\n",
              (unsigned long long)result.num_eh,
              (unsigned long long)result.num_e,
              (unsigned long long)cfg.graph.num_vertices());
  std::printf("harmonic mean: %.3f GTEPS (modeled clock)\n",
              result.harmonic_gteps);
  std::printf("all runs validated: %s\n", result.all_valid ? "YES" : "NO");

  // Regression-tracking summary: best wall-clock point of the sweep.
  const char* bench_out = std::getenv("SUNBFS_BENCH_OUT");
  if (!bench_out) bench_out = "BENCH_headline.json";
  if (write_bench_json(bench_out, cfg.graph.scale, topo.mesh().ranks(), best,
                       sweep))
    std::printf("bench summary: wrote %s (best at %d threads/rank)\n",
                bench_out, best.threads_per_rank);
  else
    std::printf("bench summary: FAILED writing %s\n", bench_out);

  // Encoding on/off ablation on the deterministic search wire bytes.  The
  // sweep above ran with the adaptive encoding on (the default); one more
  // pipeline run with raw structs gives the denominator.  Validation is
  // skipped for the off run — the compared bytes cover the search phase
  // only, and parents are bit-identical on/off (tests/test_differential).
  {
    const uint64_t a2a_on = result.search_alltoallv_bytes;
    const uint64_t ag_on = result.search_allgather_bytes;
    bfs::RunnerConfig off_cfg = cfg;
    off_cfg.validate = false;
    off_cfg.bfs.exchange.encoding = false;
    off_cfg.bfs1d.exchange.encoding = false;
    auto off = bfs::run_graph500(topo, off_cfg);
    const double a2a_red =
        off.search_alltoallv_bytes
            ? 100.0 * (1.0 - double(a2a_on) /
                                 double(off.search_alltoallv_bytes))
            : 0.0;
    std::printf("\nencoding ablation (search wire bytes, on vs raw):\n");
    std::printf("  alltoallv %llu -> %llu (%.1f%% reduction)\n",
                (unsigned long long)off.search_alltoallv_bytes,
                (unsigned long long)a2a_on, a2a_red);
    std::printf("  allgather %llu -> %llu\n",
                (unsigned long long)off.search_allgather_bytes,
                (unsigned long long)ag_on);
    const char* enc_out = std::getenv("SUNBFS_BENCH_ENCODING_OUT");
    if (!enc_out) enc_out = "BENCH_encoding.json";
    if (write_encoding_json(enc_out, cfg.graph.scale, topo.mesh().ranks(),
                            a2a_on, ag_on, off.search_alltoallv_bytes,
                            off.search_allgather_bytes))
      std::printf("encoding summary: wrote %s\n", enc_out);
    else
      std::printf("encoding summary: FAILED writing %s\n", enc_out);
    bench::report().gauge("headline.encoding.alltoallv_reduction_pct",
                          a2a_red);
    bench::report().add_counter("headline.encoding.alltoallv_bytes", a2a_on);
    bench::report().add_counter("headline.encoding.alltoallv_bytes_raw",
                                off.search_alltoallv_bytes);
  }

  // Full machine-readable run report (graph500.* / bfs.* / comm.* keys).
  result.to_report(bench::report());
  bench::report().info("headline.scale", int64_t(cfg.graph.scale));
  bench::shape_line(
      "every search key passes Graph 500 validation; harmonic-mean GTEPS "
      "reported on the modeled machine clock; intra-rank sweep measured "
      "for the threads-per-rank exhibit");
  return bench::finish(result.all_valid ? 0 : 1);
}
