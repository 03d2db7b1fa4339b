#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/comm_stats.hpp"

/// Instrumentation for the BFS engines: everything needed to regenerate the
/// paper's Figures 5, 10, 11 and 15.
namespace sunbfs::bfs {

/// Frontier composition at the start of one iteration (Figure 5 data).
struct IterationRecord {
  int iteration = 0;
  uint64_t active_e = 0;  ///< E vertices in the frontier (global count)
  uint64_t active_h = 0;
  uint64_t active_l = 0;
  /// Direction chosen for each subgraph this iteration (true = bottom-up).
  std::array<bool, partition::kSubgraphCount> bottom_up{};
};

/// Per-rank statistics of one BFS run.
struct BfsStats {
  /// Rank-local compute CPU seconds attributed to each subgraph's
  /// sub-iteration, split by direction (Figures 10 and 15).
  std::array<double, partition::kSubgraphCount> push_cpu_s{};
  std::array<double, partition::kSubgraphCount> pull_cpu_s{};
  /// Modeled network seconds of the collectives issued inside each
  /// subgraph's sub-iteration (including its EH synchronization).
  std::array<double, partition::kSubgraphCount> comm_modeled_s{};
  /// Delegated-parent reduction (the paper's "reduce" bar).
  double reduce_cpu_s = 0;
  double reduce_comm_modeled_s = 0;
  /// Everything else: direction heuristics, frontier swaps, termination.
  double other_cpu_s = 0;
  double other_comm_modeled_s = 0;

  /// Communication by collective type over the whole run (Figure 11).
  sim::CommStats comm;

  std::vector<IterationRecord> iterations;

  int num_iterations = 0;

  double total_cpu_s() const {
    double t = reduce_cpu_s + other_cpu_s;
    for (int s = 0; s < partition::kSubgraphCount; ++s)
      t += push_cpu_s[size_t(s)] + pull_cpu_s[size_t(s)];
    return t;
  }

  double total_comm_modeled_s() const {
    double t = reduce_comm_modeled_s + other_comm_modeled_s;
    for (int s = 0; s < partition::kSubgraphCount; ++s)
      t += comm_modeled_s[size_t(s)];
    return t;
  }

  /// Fold into a metrics report: per-subgraph "<prefix><sub>.push_cpu_s" /
  /// ".pull_cpu_s" / ".comm_modeled_s" gauges, reduce/other components, the
  /// iteration count and a log2 histogram of per-iteration frontier sizes
  /// ("<prefix>frontier_active").  The embedded CommStats is *not* folded
  /// here (callers usually want the whole-pipeline SpmdReport instead).
  void to_report(obs::Report& report,
                 const std::string& prefix = "bfs.") const;
};

}  // namespace sunbfs::bfs
