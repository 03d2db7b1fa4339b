#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

/// Compressed sparse row adjacency storage.
///
/// Used for node-local subgraphs: row ids are *local* indices in
/// [0, num_rows); column values are whatever vertex naming the caller uses
/// (local or global), the structure does not interpret them.
namespace sunbfs::graph {

/// CSR built from (row, value) pairs.
///
/// Rows carry an independent live end (`ends_`), so a row's live arcs
/// occupy [offsets_[r], ends_[r]) and [ends_[r], offsets_[r+1]) is slack.
/// Freshly built CSRs have zero slack and behave exactly like the
/// historical immutable layout; the mutation layer (src/mutate) grows
/// slack through erase_arcs/compact and fills it through insert_arc, so
/// engines that only use degree()/neighbors()/num_arcs() are oblivious
/// to in-place patches.
///
/// Row order: insert_arc, erase_arcs and compact all preserve it, so a
/// CSR whose rows were sorted descending (sort_rows_descending) keeps
/// every row non-increasing under mutation.  The 1D engines rely on that
/// invariant for their shared parent rule (docs/PERF.md).
class Csr {
 public:
  Csr() = default;

  /// Build from directed arcs: for each i, an arc row[i] -> value[i].
  /// Duplicate arcs and self loops are kept (Graph 500 inputs contain them;
  /// algorithms must tolerate them).
  static Csr from_arcs(uint64_t num_rows, std::span<const Vertex> rows,
                       std::span<const Vertex> values);

  /// Build a symmetric adjacency from undirected edges over vertices
  /// [0, num_vertices): each edge contributes arcs in both directions.
  static Csr from_undirected(uint64_t num_vertices,
                             std::span<const Edge> edges);

  uint64_t num_rows() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  /// Live arcs (excludes slack reserved by compact()).
  uint64_t num_arcs() const { return live_arcs_; }
  /// Physical arc slots, live + slack.  Sizing staging pools by capacity
  /// instead of num_arcs() keeps them alloc-free across in-place inserts.
  uint64_t arc_capacity() const { return values_.size(); }
  /// Reserved-but-unused arc slots across all rows.
  uint64_t slack_arcs() const { return values_.size() - live_arcs_; }

  uint64_t degree(uint64_t row) const {
    return ends_[row] - offsets_[row];
  }

  std::span<const Vertex> neighbors(uint64_t row) const {
    return std::span<const Vertex>(values_.data() + offsets_[row],
                                   degree(row));
  }

  /// Sort every row's live arcs by descending value.  The resident 1D
  /// partition does this once at build (partition::build_1d), so each 1D
  /// pull's first frontier hit is its max-id parent.
  void sort_rows_descending();

  /// Insert `value` into `row`'s live range, shifting the trailing arcs
  /// smaller than it one slot right: a descending row stays descending.
  /// Returns false (no change) when the row has no slack left; the caller
  /// then compact()s and retries.
  bool insert_arc(uint64_t row, Vertex value);

  /// Remove every copy of `value` from `row` (tombstone semantics: deleting
  /// an edge kills all its duplicates), keeping the survivors in order.
  /// Returns the number of arcs removed (0 == miss).
  uint64_t erase_arcs(uint64_t row, Vertex value);

  /// Rebuild in place, giving every row `max(slack_min, degree/4)` spare
  /// slots.  Live arcs keep their order.
  void compact(uint64_t slack_min = 4);

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<Vertex>& values() const { return values_; }

 private:
  std::vector<uint64_t> offsets_;  // num_rows + 1: physical row starts
  std::vector<uint64_t> ends_;     // num_rows: live end per row
  std::vector<Vertex> values_;     // arc_capacity() slots
  uint64_t live_arcs_ = 0;
};

/// Degree of every vertex in [0, num_vertices) counting both endpoints of
/// each undirected edge (self loops count twice, per adjacency-matrix
/// convention).
std::vector<uint64_t> undirected_degrees(uint64_t num_vertices,
                                         std::span<const Edge> edges);

}  // namespace sunbfs::graph
