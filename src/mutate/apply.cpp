#include "mutate/apply.hpp"

#include "support/check.hpp"

namespace sunbfs::mutate {

namespace {

/// Append one arc, compacting the CSR once when the row is full.
void insert_arc(graph::Csr& csr, uint64_t row, graph::Vertex value,
                ApplyStats& stats) {
  if (!csr.insert_arc(row, value)) {
    csr.compact();
    ++stats.compactions;
    SUNBFS_CHECK(csr.insert_arc(row, value));
  }
  ++stats.inserted_arcs;
}

void erase_arcs(graph::Csr& csr, uint64_t row, graph::Vertex value,
                ApplyStats& stats, uint64_t* removed_out = nullptr) {
  uint64_t removed = csr.erase_arcs(row, value);
  stats.deleted_arcs += removed;
  if (removed_out != nullptr) *removed_out = removed;
}

}  // namespace

ApplyStats apply_batch_1d(int rank, partition::Part1d& part,
                          const MutationBatch& batch,
                          std::vector<uint64_t>* local_degrees) {
  const partition::VertexSpace& space = part.space;
  ApplyStats stats;
  auto bump_degree = [&](uint64_t lloc, int64_t delta) {
    if (local_degrees != nullptr)
      (*local_degrees)[lloc] = uint64_t(int64_t((*local_degrees)[lloc]) + delta);
  };
  for (const graph::Edge& e : batch.inserts) {
    if (space.owner(e.u) == rank) {
      uint64_t lu = space.to_local(rank, e.u);
      insert_arc(part.adj, lu, e.v, stats);
      bump_degree(lu, 1);
    }
    if (space.owner(e.v) == rank) {
      uint64_t lv = space.to_local(rank, e.v);
      insert_arc(part.adj, lv, e.u, stats);
      bump_degree(lv, 1);
    }
  }
  for (const graph::Edge& e : batch.deletes) {
    uint64_t removed_total = 0;
    bool owned = false;
    if (space.owner(e.u) == rank) {
      owned = true;
      uint64_t removed = 0;
      uint64_t lu = space.to_local(rank, e.u);
      erase_arcs(part.adj, lu, e.v, stats, &removed);
      bump_degree(lu, -int64_t(removed));
      removed_total += removed;
    }
    // A self loop's two arc copies share one row; the erase above already
    // removed both.
    if (e.u != e.v && space.owner(e.v) == rank) {
      owned = true;
      uint64_t removed = 0;
      uint64_t lv = space.to_local(rank, e.v);
      erase_arcs(part.adj, lv, e.u, stats, &removed);
      bump_degree(lv, -int64_t(removed));
      removed_total += removed;
    }
    if (owned && removed_total == 0) ++stats.delete_misses;
  }
  return stats;
}

ApplyStats apply_batch_15d(const sim::MeshShape& mesh, int rank,
                           partition::Part15d& part,
                           const MutationBatch& batch) {
  const partition::VertexSpace& space = part.space;
  const partition::EhlTable& cls = part.cls;
  const int my_row = mesh.row_of(rank);
  const uint64_t row_begin = space.begin(mesh.rank_of(my_row, 0));
  ApplyStats stats;
  auto eh_rank = [&](uint64_t eh_id) {
    return part.eh_space.owner(graph::Vertex(eh_id));
  };
  auto row_local = [&](graph::Vertex l) {
    SUNBFS_ASSERT(mesh.row_of(space.owner(l)) == my_row);
    return uint64_t(l) - row_begin;
  };

  // One edge op lands on the exact CSR rows build_15d would have routed its
  // arcs to; `add` switches between append and erase so insert and delete
  // walk identical placement code.
  auto patch_edge = [&](const graph::Edge& e, bool add) {
    uint64_t touched = 0;
    auto patch = [&](graph::Csr& csr, uint64_t row, graph::Vertex value) {
      if (add) {
        insert_arc(csr, row, value, stats);
        ++touched;
      } else {
        uint64_t removed = 0;
        erase_arcs(csr, row, value, stats, &removed);
        touched += removed;
      }
    };
    uint64_t ka = cls.eh_of(e.u);
    uint64_t kb = cls.eh_of(e.v);
    bool a_eh = ka != partition::EhlTable::kNotEh;
    bool b_eh = kb != partition::EhlTable::kNotEh;
    if (a_eh && b_eh) {
      // Both orientations, self loops twice (matching build_15d).  A
      // deleted self loop's duplicate arcs die on the first erase; skip the
      // second orientation so delete_misses stays accurate.
      int n_orient = (!add && ka == kb) ? 1 : 2;
      for (int o = 0; o < n_orient; ++o) {
        uint64_t x = o == 0 ? ka : kb;
        uint64_t y = o == 0 ? kb : ka;
        int dest =
            mesh.rank_of(mesh.row_of(eh_rank(y)), mesh.col_of(eh_rank(x)));
        if (dest != rank) continue;
        patch(part.eh2eh, x, graph::Vertex(y));
        patch(part.eh2eh_rev, y, graph::Vertex(x));
      }
    } else if (a_eh || b_eh) {
      uint64_t k = a_eh ? ka : kb;
      graph::Vertex l = a_eh ? e.v : e.u;
      int lo = space.owner(l);
      if (cls.is_e(k)) {
        if (lo == rank) {
          patch(part.e2l, k, graph::Vertex(space.to_local(rank, l)));
          patch(part.l2e, space.to_local(rank, l), graph::Vertex(k));
        }
      } else {
        int hl_rank =
            mesh.rank_of(mesh.row_of(lo), mesh.col_of(eh_rank(k)));
        if (hl_rank == rank) {
          patch(part.h2l, k, l);
          patch(part.h2l_by_l, row_local(l), graph::Vertex(k));
        }
        if (lo == rank) patch(part.l2h, space.to_local(rank, l), graph::Vertex(k));
      }
    } else {
      if (space.owner(e.u) == rank)
        patch(part.l2l, space.to_local(rank, e.u), e.v);
      if (e.u != e.v && space.owner(e.v) == rank)
        patch(part.l2l, space.to_local(rank, e.v), e.u);
    }
    return touched;
  };

  for (const graph::Edge& e : batch.inserts) patch_edge(e, true);
  for (const graph::Edge& e : batch.deletes)
    if (patch_edge(e, false) == 0) ++stats.delete_misses;

  part.arc_counts[int(partition::Subgraph::EH2EH)] = part.eh2eh.num_arcs();
  part.arc_counts[int(partition::Subgraph::E2L)] = part.e2l.num_arcs();
  part.arc_counts[int(partition::Subgraph::L2E)] = part.l2e.num_arcs();
  part.arc_counts[int(partition::Subgraph::H2L)] = part.h2l.num_arcs();
  part.arc_counts[int(partition::Subgraph::L2H)] = part.l2h.num_arcs();
  part.arc_counts[int(partition::Subgraph::L2L)] = part.l2l.num_arcs();
  return stats;
}

}  // namespace sunbfs::mutate
