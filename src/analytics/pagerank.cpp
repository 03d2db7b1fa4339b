#include "analytics/pagerank.hpp"

#include <cmath>

#include "analytics/propagate.hpp"
#include "graph/csr.hpp"
#include "support/check.hpp"

namespace sunbfs::analytics {

using graph::Vertex;

namespace {
/// Fixed-point rank: kOne is a total mass of 1.  Mass never grows, so no
/// rank, contribution or gathered sum can exceed 2^62.
constexpr int kFracBits = 62;
constexpr uint64_t kOne = uint64_t(1) << kFracBits;

/// x · f for a fixed-point fraction f <= kOne, truncated.
uint64_t times(uint64_t x, uint64_t f) {
  return uint64_t((unsigned __int128)x * f >> kFracBits);
}

/// One power iteration as a propagation program: vertex u sends
/// rank(u) / degree(u) along each arc; the gather sums; the update is
/// base + damping · gathered.  pagerank15d refreshes `base` (teleport plus
/// spread dangling mass) before every round.
struct RankProgram {
  using Value = uint64_t;
  const partition::EhlTable* cls;
  std::span<const uint64_t> local_degrees;  // owned vertices, E/H included
  uint64_t first_owned;                     // global id of local index 0
  uint64_t damping;                         // fixed point
  uint64_t base = 0;

  Value identity() const { return 0; }
  Value combine(Value a, Value b) const { return a + b; }
  Value contribution(Value u_value, Vertex u, Vertex /*v*/) const {
    // Every L source is owned by the rank that sends for it; an E/H source
    // may be owned elsewhere (its EH degree is its owner's local degree).
    uint64_t l = uint64_t(u) - first_owned;
    uint64_t degree = l < local_degrees.size()
                          ? local_degrees[l]
                          : cls->eh_degree(cls->eh_of(u));
    return u_value / degree;
  }
  bool update(Value& state, const Value& gathered) const {
    Value next = base + times(gathered, damping);
    bool changed = next != state;
    state = next;
    return changed;
  }
};
}  // namespace

std::vector<double> pagerank15d(sim::RankContext& ctx,
                                const partition::Part15d& part,
                                std::span<const uint64_t> local_degrees,
                                const PageRankOptions& options) {
  SUNBFS_CHECK(local_degrees.size() == part.local_count);
  SUNBFS_CHECK(options.damping >= 0 && options.damping <= 1);
  const uint64_t n = part.space.total;
  const uint64_t damping = uint64_t(std::ldexp(options.damping, kFracBits));

  PropagationEngine<RankProgram> engine(
      ctx, part,
      RankProgram{&part.cls, local_degrees, part.space.begin(ctx.rank),
                  damping});
  engine.initialize([&](Vertex) { return kOne / n; });
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Dangling mass (degree-0 vertices are always L), spread evenly.
    uint64_t dangling = 0;
    for (uint64_t l = 0; l < part.local_count; ++l)
      if (local_degrees[l] == 0 && !part.local_is_eh.get(l))
        dangling += engine.local_value(l);
    dangling = ctx.world.allreduce_sum(dangling);
    engine.program().base = (kOne - damping + times(dangling, damping)) / n;
    if (!engine.step()) break;
  }

  std::vector<uint64_t> fixed = engine.owned_values();
  std::vector<double> out(fixed.size());
  for (size_t i = 0; i < fixed.size(); ++i)
    out[i] = std::ldexp(double(fixed[i]), -kFracBits);
  return out;
}

std::vector<double> reference_pagerank(uint64_t num_vertices,
                                       std::span<const graph::Edge> edges,
                                       const PageRankOptions& options) {
  graph::Csr adj = graph::Csr::from_undirected(num_vertices, edges);
  const double n = double(num_vertices);
  std::vector<double> rank(num_vertices, 1.0 / n);
  std::vector<double> next(num_vertices);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0;
    for (uint64_t v = 0; v < num_vertices; ++v)
      if (adj.degree(v) == 0) dangling += rank[v];
    const double base =
        (1.0 - options.damping) / n + options.damping * dangling / n;
    std::fill(next.begin(), next.end(), base);
    for (uint64_t v = 0; v < num_vertices; ++v) {
      if (adj.degree(v) == 0) continue;
      double c = options.damping * rank[v] / double(adj.degree(v));
      for (Vertex u : adj.neighbors(v)) next[size_t(u)] += c;
    }
    bool changed = next != rank;
    rank.swap(next);
    if (!changed) break;
  }
  return rank;
}

}  // namespace sunbfs::analytics
