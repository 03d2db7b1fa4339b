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
/// Iteration stops once an iteration moves less than 2^-40 (about 0.9e-12)
/// of the total mass, summed over every vertex's |Δrank| (L1).
constexpr int kResidualStopBits = 40;
constexpr uint64_t kResidualStop = kOne >> kResidualStopBits;

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

PageRankResult pagerank15d(sim::RankContext& ctx,
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
  // The residual of the last iteration, over owned vertices, rides the next
  // iteration's dangling-mass sum.  Fixed-point sums are exact and every
  // vertex has one owner, so every mesh stops on the same iteration.
  struct Fold {
    uint64_t dangling = 0;
    uint64_t residual = 0;
  };
  std::vector<uint64_t> prev = engine.owned_values();
  Fold mine;
  PageRankResult result;
  for (; result.iterations < options.max_iterations; ++result.iterations) {
    // Dangling mass (degree-0 vertices are always L), spread evenly.
    mine.dangling = 0;
    for (uint64_t l = 0; l < part.local_count; ++l)
      if (local_degrees[l] == 0 && !part.local_is_eh.get(l))
        mine.dangling += engine.local_value(l);
    const Fold all = ctx.world.allreduce(mine, [](Fold a, Fold b) {
      return Fold{a.dangling + b.dangling, a.residual + b.residual};
    });
    if (result.iterations > 0 && all.residual < kResidualStop) break;
    engine.program().base =
        (kOne - damping + times(all.dangling, damping)) / n;
    engine.step();
    std::vector<uint64_t> next = engine.owned_values();
    mine.residual = 0;
    for (size_t i = 0; i < next.size(); ++i)
      mine.residual +=
          next[i] > prev[i] ? next[i] - prev[i] : prev[i] - next[i];
    prev.swap(next);
  }

  result.rank.resize(prev.size());
  for (size_t i = 0; i < prev.size(); ++i)
    result.rank[i] = std::ldexp(double(prev[i]), -kFracBits);
  return result;
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
    double residual = 0;
    for (uint64_t v = 0; v < num_vertices; ++v)
      residual += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (residual < std::ldexp(1.0, -kResidualStopBits)) break;
  }
  return rank;
}

}  // namespace sunbfs::analytics
