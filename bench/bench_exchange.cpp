// Exchange-backend ablation: the same Graph 500 search pipeline run under
// each exchange backend (direct alltoallv, 2D-CA row/column split),
// compared on the search-phase alltoallv bytes — total and the
// inter-supernode subset that crosses the 8x-oversubscribed top-level
// links — and on the modeled network seconds those alltoallvs cost.
//
// The push phase is pinned top-down (pull_ratio > 1) because the staged
// plan's merge win lives in the push alltoallv: duplicate visit messages
// from a whole mesh row collapse at the intermediate rank before they reach
// the expensive links (Buluç & Madduri, arXiv 1104.4518).  Direction-
// optimized production runs spend most dense levels in the pull allgather,
// which no exchange plan touches; see docs/COMM.md.
//
// CI gates the emitted BENCH_exchange.json against the committed
// reports/BENCH_exchange.baseline.json via tools/bench_compare.py: the
// backends must stay bit-identical on parents (counted valid roots), and
// neither 2D-CA's inter-supernode reduction at the largest mesh nor any
// plan's modeled alltoallv time may regress.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bfs/runner.hpp"
#include "sim/exchange.hpp"

using namespace sunbfs;

namespace {

struct ExchangeRow {
  int ranks = 0;
  std::string backend;
  uint64_t a2a_bytes = 0;
  uint64_t inter_bytes = 0;
  double a2a_modeled_s = 0;
  double inter_reduction_pct = 0;
  uint64_t valid_roots = 0;
  uint64_t staging_allocs_steady = 0;
};

/// Compact sunbfs.bench/1 summary (BENCH_exchange.json, or
/// $SUNBFS_BENCH_OUT) for the CI regression gate: the byte counts are
/// deterministic at the pinned scale/seed, so tools/bench_compare.py can
/// diff them tightly against reports/BENCH_exchange.baseline.json.
bool write_bench_json(const char* path, int base_scale,
                      const std::vector<ExchangeRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sunbfs.bench/1\",\n");
  std::fprintf(f, "  \"bench\": \"exchange\",\n");
  std::fprintf(f, "  \"scale\": %d,\n", base_scale);
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const char* sep = i + 1 < rows.size() ? "," : "";
    const std::string tag = r.backend + "_ranks" + std::to_string(r.ranks);
    std::fprintf(f, "    \"alltoallv_bytes_%s\": %llu,\n", tag.c_str(),
                 (unsigned long long)r.a2a_bytes);
    std::fprintf(f, "    \"alltoallv_inter_bytes_%s\": %llu,\n", tag.c_str(),
                 (unsigned long long)r.inter_bytes);
    std::fprintf(f, "    \"alltoallv_modeled_us_%s\": %.6f,\n", tag.c_str(),
                 r.a2a_modeled_s * 1e6);
    std::fprintf(f, "    \"inter_reduction_pct_%s\": %.6f%s\n", tag.c_str(),
                 r.inter_reduction_pct, sep);
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_exchange");
  bench::header("Exchange backends",
                "staged-exchange ablation: direct vs 2D-CA");
  bench::paper_line(
      "the production system drives the alltoallv through a hardware-assisted "
      "direct exchange; staged software plans trade extra cheap intra-"
      "supernode hops for in-flight merging before the oversubscribed links");

  const int base_scale = 12 + bench::scale_delta();
  const std::vector<sim::MeshShape> meshes = {{2, 2}, {2, 4}, {4, 4}, {4, 8}};
  const sim::ExchangeBackend backends[] = {sim::ExchangeBackend::Direct,
                                           sim::ExchangeBackend::TwoDCA};

  std::printf("%6s %10s | %12s %12s %12s | %12s\n", "ranks", "backend",
              "a2a bytes", "inter bytes", "vs direct", "a2a model us");

  auto& rep = bench::report();
  std::vector<ExchangeRow> rows;
  for (size_t mi = 0; mi < meshes.size(); ++mi) {
    const sim::MeshShape mesh = meshes[mi];
    const sim::Topology topo(mesh);
    uint64_t direct_inter = 0;
    for (sim::ExchangeBackend backend : backends) {
      bfs::RunnerConfig cfg;
      cfg.graph.scale = base_scale + int(mi);
      cfg.graph.seed = 11;
      cfg.engine = bfs::EngineKind::OneD;
      cfg.num_roots = 2;
      cfg.validate = true;
      // Pin top-down so every level exercises the exchange under test.
      cfg.bfs1d.pull_ratio = 2.0;
      cfg.bfs1d.exchange.backend = backend;
      cfg.bfs.exchange.backend = backend;
      auto result = bfs::run_graph500(topo, cfg);

      if (backend == sim::ExchangeBackend::Direct)
        direct_inter = result.search_alltoallv_inter_bytes;
      const double delta =
          direct_inter
              ? 100.0 * (1.0 - double(result.search_alltoallv_inter_bytes) /
                                   double(direct_inter))
              : 0.0;
      std::printf("%6d %10s | %12llu %12llu %11.1f%% | %12.3f\n",
                  mesh.ranks(), sim::exchange_backend_name(backend),
                  (unsigned long long)result.search_alltoallv_bytes,
                  (unsigned long long)result.search_alltoallv_inter_bytes,
                  delta, result.search_alltoallv_modeled_s * 1e6);

      const std::string row = "exchange.ranks" + std::to_string(mesh.ranks()) +
                              "." + sim::exchange_backend_name(backend) + ".";
      rep.add_counter(row + "alltoallv_bytes", result.search_alltoallv_bytes);
      rep.add_counter(row + "alltoallv_inter_bytes",
                      result.search_alltoallv_inter_bytes);
      rep.gauge(row + "inter_reduction_pct", delta);
      rep.gauge(row + "alltoallv_modeled_s",
                result.search_alltoallv_modeled_s);
      const uint64_t valid_roots = [&] {
        uint64_t n = 0;
        for (const auto& r : result.runs)
          if (r.valid) ++n;
        return n;
      }();
      rep.add_counter(row + "valid_roots", valid_roots);
      rep.add_counter(row + "staging_allocs_steady",
                      result.staging_allocs_steady);
      rows.push_back(ExchangeRow{mesh.ranks(),
                                 sim::exchange_backend_name(backend),
                                 result.search_alltoallv_bytes,
                                 result.search_alltoallv_inter_bytes,
                                 result.search_alltoallv_modeled_s, delta,
                                 valid_roots,
                                 result.staging_allocs_steady});
    }
  }

  // Self-gating shape checks (CI runs the binary before the baseline diff):
  // every backend must validate every root, the resident pools must not
  // grow past warmup, and at the largest mesh 2D-CA must beat direct on
  // inter-supernode bytes.
  bool ok = true;
  for (const auto& r : rows) {
    if (r.valid_roots != 2) {
      std::printf("FAIL: %s at %d ranks validated %llu/2 roots\n",
                  r.backend.c_str(), r.ranks,
                  (unsigned long long)r.valid_roots);
      ok = false;
    }
    if (r.staging_allocs_steady != 0) {
      std::printf("FAIL: %s at %d ranks grew staging %llu times past "
                  "warmup\n",
                  r.backend.c_str(), r.ranks,
                  (unsigned long long)r.staging_allocs_steady);
      ok = false;
    }
  }
  const int largest = meshes.back().ranks();
  for (const auto& r : rows) {
    if (r.ranks != largest || r.backend != "2dca") continue;
    if (r.inter_reduction_pct <= 0) {
      std::printf("FAIL: %s at the largest mesh (%d ranks) sent %.1f%% MORE "
                  "inter-supernode bytes than direct\n",
                  r.backend.c_str(), largest, -r.inter_reduction_pct);
      ok = false;
    }
  }

  const char* out = std::getenv("SUNBFS_BENCH_OUT");
  const char* path = out ? out : "BENCH_exchange.json";
  if (write_bench_json(path, base_scale, rows))
    std::printf("bench summary: wrote %s\n", path);
  else
    std::printf("bench summary: FAILED writing %s\n", path);

  bench::shape_line(
      "both backends validate bit-identically; at the largest mesh 2D-CA's "
      "two stages send fewer inter-supernode bytes than the direct "
      "alltoallv while paying more total (mostly intra-supernode) bytes "
      "for the extra hop");
  const int rc = bench::finish();
  return ok ? rc : 1;
}
