#include "partition/part15d.hpp"

#include <algorithm>

#include "sort/paradis.hpp"
#include "support/check.hpp"

namespace sunbfs::partition {

const char* subgraph_name(Subgraph s) {
  switch (s) {
    case Subgraph::EH2EH: return "EH2EH";
    case Subgraph::E2L: return "E2L";
    case Subgraph::L2E: return "L2E";
    case Subgraph::H2L: return "H2L";
    case Subgraph::L2H: return "L2H";
    case Subgraph::L2L: return "L2L";
  }
  return "?";
}

namespace {

// Arc message exchanged during construction.  The component kind is packed
// into the top bits of `a` (vertex / EH ids use < 61 bits).
enum ArcKind : uint64_t { kEh2Eh = 0, kEl = 1, kHl = 2, kLh = 3, kLl = 4 };
constexpr int kKindShift = 61;
constexpr uint64_t kIdMask = (uint64_t(1) << kKindShift) - 1;

struct ArcMsg {
  uint64_t kind_a;  // kind << 61 | a
  int64_t b;

  ArcKind kind() const { return ArcKind(kind_a >> kKindShift); }
  uint64_t a() const { return kind_a & kIdMask; }
};

ArcMsg make_arc(ArcKind kind, uint64_t a, int64_t b) {
  SUNBFS_ASSERT(a <= kIdMask);
  return ArcMsg{(uint64_t(kind) << kKindShift) | a, b};
}

}  // namespace

Part15d build_15d(sim::RankContext& ctx, const VertexSpace& space,
                  std::span<const graph::Edge> slice,
                  std::span<const uint64_t> local_degrees,
                  DegreeThresholds thresholds, ThreadPool& pool) {
  const sim::MeshShape mesh = ctx.mesh;
  SUNBFS_CHECK(space.nranks == mesh.ranks());

  Part15d part;
  part.space = space;
  part.cls = classify_vertices(ctx, space, local_degrees, thresholds);
  part.eh_space = CyclicSpace{part.cls.num_eh(), mesh.ranks()};
  part.local_count = space.count(ctx.rank);
  part.local_is_eh.resize(part.local_count);
  for (uint64_t l = 0; l < part.local_count; ++l)
    if (part.cls.is_eh(space.to_global(ctx.rank, l)))
      part.local_is_eh.set(l);

  const EhlTable& cls = part.cls;
  auto eh_rank = [&](uint64_t eh_id) {
    return part.eh_space.owner(graph::Vertex(eh_id));
  };

  // Route every arc of every component to its storing rank.
  std::vector<std::vector<ArcMsg>> to(size_t(mesh.ranks()));
  auto send_eh2eh = [&](uint64_t x, uint64_t y) {
    int dest = mesh.rank_of(mesh.row_of(eh_rank(y)), mesh.col_of(eh_rank(x)));
    to[size_t(dest)].push_back(make_arc(kEh2Eh, x, int64_t(y)));
  };
  for (const graph::Edge& e : slice) {
    uint64_t ka = cls.eh_of(e.u);
    uint64_t kb = cls.eh_of(e.v);
    bool a_eh = ka != EhlTable::kNotEh;
    bool b_eh = kb != EhlTable::kNotEh;
    if (a_eh && b_eh) {
      // Both orientations, self loops twice (adjacency-matrix convention,
      // matching Csr::from_undirected).
      send_eh2eh(ka, kb);
      send_eh2eh(kb, ka);
    } else if (a_eh || b_eh) {
      uint64_t k = a_eh ? ka : kb;
      graph::Vertex l = a_eh ? e.v : e.u;
      int lo = space.owner(l);
      if (cls.is_e(k)) {
        to[size_t(lo)].push_back(make_arc(kEl, k, l));
      } else {
        int hl_rank = mesh.rank_of(mesh.row_of(lo), mesh.col_of(eh_rank(k)));
        to[size_t(hl_rank)].push_back(make_arc(kHl, k, l));
        to[size_t(lo)].push_back(make_arc(kLh, k, l));
      }
    } else {
      to[size_t(space.owner(e.u))].push_back(
          make_arc(kLl, uint64_t(e.u), e.v));
      to[size_t(space.owner(e.v))].push_back(
          make_arc(kLl, uint64_t(e.v), e.u));
    }
  }

  std::vector<ArcMsg> arcs = ctx.world.alltoallv(to);
  to.clear();
  to.shrink_to_fit();

  // Unified sort-based construction (the paper's in-place global sort idea,
  // applied node-locally with PARADIS): order by (kind, a) so each
  // component is a contiguous run of row-sorted arcs.
  sort::paradis_sort(std::span<ArcMsg>(arcs),
                     [](const ArcMsg& m) { return m.kind_a; }, pool);

  auto run_of = [&](ArcKind kind) {
    auto lo = std::partition_point(arcs.begin(), arcs.end(), [&](const ArcMsg& m) {
      return uint64_t(m.kind()) < uint64_t(kind);
    });
    auto hi = std::partition_point(lo, arcs.end(), [&](const ArcMsg& m) {
      return uint64_t(m.kind()) <= uint64_t(kind);
    });
    return std::span<const ArcMsg>(arcs.data() + (lo - arcs.begin()),
                                   size_t(hi - lo));
  };

  auto build = [&](std::span<const ArcMsg> run, uint64_t num_rows, bool row_is_a,
                   auto&& map_row, auto&& map_val) {
    std::vector<graph::Vertex> rows, vals;
    rows.reserve(run.size());
    vals.reserve(run.size());
    for (const ArcMsg& m : run) {
      uint64_t a = m.a();
      int64_t b = m.b;
      rows.push_back(map_row(row_is_a ? graph::Vertex(a) : graph::Vertex(b)));
      vals.push_back(map_val(row_is_a ? graph::Vertex(b) : graph::Vertex(a)));
    }
    return graph::Csr::from_arcs(num_rows, rows, vals);
  };

  auto ident = [](graph::Vertex v) { return v; };
  auto to_local = [&](graph::Vertex v) {
    return graph::Vertex(space.to_local(ctx.rank, v));
  };

  const uint64_t k = cls.num_eh();
  auto eh2eh_run = run_of(kEh2Eh);
  part.eh2eh = build(eh2eh_run, k, true, ident, ident);
  {
    // Reverse orientation for the pull kernel: rows y, values x.
    std::vector<graph::Vertex> rows, vals;
    rows.reserve(eh2eh_run.size());
    vals.reserve(eh2eh_run.size());
    for (const ArcMsg& m : eh2eh_run) {
      rows.push_back(m.b);
      vals.push_back(graph::Vertex(m.a()));
    }
    part.eh2eh_rev = graph::Csr::from_arcs(k, rows, vals);
  }
  auto el_run = run_of(kEl);
  part.e2l = build(el_run, k, true, ident, to_local);
  part.l2e = build(el_run, part.local_count, false, to_local, ident);
  auto hl_run = run_of(kHl);
  part.h2l = build(hl_run, k, true, ident, ident);
  {
    // Destination-major mirror of H2L over the row-local L index space: the
    // row's ranks are consecutive, so their L vertices are one contiguous
    // global range starting at its first rank's.
    const int myrow = mesh.row_of(ctx.rank);
    const uint64_t row_begin = space.begin(mesh.rank_of(myrow, 0));
    const uint64_t row_count =
        space.end(mesh.rank_of(myrow, mesh.cols - 1)) - row_begin;
    auto row_local = [&](graph::Vertex l) {
      SUNBFS_ASSERT(mesh.row_of(space.owner(l)) == myrow);
      return graph::Vertex(uint64_t(l) - row_begin);
    };
    std::vector<graph::Vertex> rows, vals;
    rows.reserve(hl_run.size());
    vals.reserve(hl_run.size());
    for (const ArcMsg& m : hl_run) {
      rows.push_back(row_local(m.b));
      vals.push_back(graph::Vertex(m.a()));
    }
    part.h2l_by_l = graph::Csr::from_arcs(row_count, rows, vals);
  }
  part.l2h = build(run_of(kLh), part.local_count, false, to_local, ident);
  part.l2l = build(run_of(kLl), part.local_count, true, to_local, ident);

  part.arc_counts[int(Subgraph::EH2EH)] = part.eh2eh.num_arcs();
  part.arc_counts[int(Subgraph::E2L)] = part.e2l.num_arcs();
  part.arc_counts[int(Subgraph::L2E)] = part.l2e.num_arcs();
  part.arc_counts[int(Subgraph::H2L)] = part.h2l.num_arcs();
  part.arc_counts[int(Subgraph::L2H)] = part.l2h.num_arcs();
  part.arc_counts[int(Subgraph::L2L)] = part.l2l.num_arcs();
  return part;
}

}  // namespace sunbfs::partition
