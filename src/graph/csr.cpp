#include "graph/csr.hpp"

#include <algorithm>
#include <functional>

#include "support/check.hpp"
#include "support/prefix.hpp"

namespace sunbfs::graph {

Csr Csr::from_arcs(uint64_t num_rows, std::span<const Vertex> rows,
                   std::span<const Vertex> values) {
  SUNBFS_CHECK(rows.size() == values.size());
  Csr csr;
  std::vector<uint64_t> counts(num_rows, 0);
  for (Vertex r : rows) {
    SUNBFS_ASSERT(r >= 0 && uint64_t(r) < num_rows);
    counts[size_t(r)]++;
  }
  csr.offsets_ = offsets_from_counts(counts);
  csr.values_.resize(rows.size());
  std::vector<uint64_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
  for (size_t i = 0; i < rows.size(); ++i)
    csr.values_[cursor[size_t(rows[i])]++] = values[i];
  csr.ends_.assign(csr.offsets_.begin() + 1, csr.offsets_.end());
  csr.live_arcs_ = csr.values_.size();
  return csr;
}

Csr Csr::from_undirected(uint64_t num_vertices, std::span<const Edge> edges) {
  Csr csr;
  std::vector<uint64_t> counts(num_vertices, 0);
  for (const Edge& e : edges) {
    SUNBFS_ASSERT(uint64_t(e.u) < num_vertices && uint64_t(e.v) < num_vertices);
    counts[size_t(e.u)]++;
    counts[size_t(e.v)]++;
  }
  csr.offsets_ = offsets_from_counts(counts);
  csr.values_.resize(2 * edges.size());
  std::vector<uint64_t> cursor(csr.offsets_.begin(), csr.offsets_.end() - 1);
  for (const Edge& e : edges) {
    csr.values_[cursor[size_t(e.u)]++] = e.v;
    csr.values_[cursor[size_t(e.v)]++] = e.u;
  }
  csr.ends_.assign(csr.offsets_.begin() + 1, csr.offsets_.end());
  csr.live_arcs_ = csr.values_.size();
  return csr;
}

void Csr::sort_rows_descending() {
  for (uint64_t r = 0; r < num_rows(); ++r)
    std::sort(values_.begin() + ptrdiff_t(offsets_[r]),
              values_.begin() + ptrdiff_t(ends_[r]), std::greater<Vertex>());
}

bool Csr::insert_arc(uint64_t row, Vertex value) {
  SUNBFS_ASSERT(row < num_rows());
  if (ends_[row] == offsets_[row + 1]) return false;
  // Shift the arcs smaller than `value` one slot into the slack.
  uint64_t i = ends_[row]++;
  for (; i > offsets_[row] && values_[i - 1] < value; --i)
    values_[i] = values_[i - 1];
  values_[i] = value;
  ++live_arcs_;
  return true;
}

uint64_t Csr::erase_arcs(uint64_t row, Vertex value) {
  SUNBFS_ASSERT(row < num_rows());
  auto begin = values_.begin() + ptrdiff_t(offsets_[row]);
  auto end = values_.begin() + ptrdiff_t(ends_[row]);
  const uint64_t removed = uint64_t(end - std::remove(begin, end, value));
  ends_[row] -= removed;
  live_arcs_ -= removed;
  return removed;
}

void Csr::compact(uint64_t slack_min) {
  const uint64_t rows = num_rows();
  std::vector<uint64_t> counts(rows, 0);
  for (uint64_t r = 0; r < rows; ++r)
    counts[r] = degree(r) + std::max<uint64_t>(slack_min, degree(r) / 4);
  std::vector<uint64_t> new_offsets = offsets_from_counts(counts);
  std::vector<Vertex> new_values(new_offsets.back());
  std::vector<uint64_t> new_ends(rows);
  for (uint64_t r = 0; r < rows; ++r) {
    const uint64_t deg = degree(r);
    std::copy_n(values_.data() + offsets_[r], deg,
                new_values.data() + new_offsets[r]);
    new_ends[r] = new_offsets[r] + deg;
  }
  offsets_ = std::move(new_offsets);
  values_ = std::move(new_values);
  ends_ = std::move(new_ends);
}

std::vector<uint64_t> undirected_degrees(uint64_t num_vertices,
                                         std::span<const Edge> edges) {
  std::vector<uint64_t> deg(num_vertices, 0);
  for (const Edge& e : edges) {
    SUNBFS_CHECK(e.u >= 0 && uint64_t(e.u) < num_vertices);
    SUNBFS_CHECK(e.v >= 0 && uint64_t(e.v) < num_vertices);
    deg[size_t(e.u)]++;
    deg[size_t(e.v)]++;
  }
  return deg;
}

}  // namespace sunbfs::graph
