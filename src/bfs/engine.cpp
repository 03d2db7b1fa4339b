#include "bfs/engine.hpp"

#include "bfs/workspace.hpp"
#include "support/check.hpp"

namespace sunbfs::bfs {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::OneD: return "1d";
    case EngineKind::OneFiveD: return "1.5d";
    case EngineKind::Async: return "async";
  }
  return "1.5d";
}

bool parse_engine_kind(const std::string& s, EngineKind* out) {
  if (s == "1d") *out = EngineKind::OneD;
  else if (s == "1.5d") *out = EngineKind::OneFiveD;
  else if (s == "async") *out = EngineKind::Async;
  else return false;
  return true;
}

const char* engine_kind_choices() { return "1d, 1.5d, async"; }

std::string unknown_choice_error(const std::string& flag,
                                 const std::string& value,
                                 const std::string& choices) {
  return flag + ": unknown value '" + value + "' (valid: " + choices + ")";
}

int EngineConfig::threads_request() const {
  switch (kind) {
    case EngineKind::OneD: return bfs1d.threads_per_rank;
    case EngineKind::OneFiveD: return bfs15.threads_per_rank;
    case EngineKind::Async: return async.threads_per_rank;
  }
  return 0;
}

BfsWorkspace* EngineConfig::workspace() const {
  switch (kind) {
    case EngineKind::OneD: return bfs1d.workspace;
    case EngineKind::OneFiveD: return bfs15.workspace;
    case EngineKind::Async: return async.workspace;
  }
  return nullptr;
}

namespace {

class Engine1d final : public TraversalEngine {
 public:
  Engine1d(partition::Part1d part, Bfs1dOptions options)
      : part_(std::move(part)), options_(std::move(options)) {}
  EngineRun run(sim::RankContext& ctx, graph::Vertex root) override {
    Bfs1dResult r = bfs1d_run(ctx, part_, root, options_);
    EngineRun out;
    out.parent = std::move(r.parent);
    out.cpu_s = r.cpu_s;
    out.comm_modeled_s = r.comm_modeled_s;
    out.rounds = r.num_iterations;
    return out;
  }

 private:
  partition::Part1d part_;
  Bfs1dOptions options_;
};

class Engine15d final : public TraversalEngine {
 public:
  Engine15d(partition::Part15d part, Bfs15dOptions options)
      : part_(std::move(part)), options_(std::move(options)) {}
  EngineRun run(sim::RankContext& ctx, graph::Vertex root) override {
    Bfs15dResult r = bfs15d_run(ctx, part_, root, options_);
    EngineRun out;
    out.parent = std::move(r.parent);
    out.cpu_s = r.stats.total_cpu_s();
    out.comm_modeled_s = r.stats.total_comm_modeled_s();
    out.rounds = r.stats.num_iterations;
    out.stats = std::move(r.stats);
    out.has_stats = true;
    return out;
  }
  const partition::Part15d* part15() const override { return &part_; }

 private:
  partition::Part15d part_;
  Bfs15dOptions options_;
};

class EngineAsync final : public TraversalEngine {
 public:
  EngineAsync(partition::Part1d part, BfsAsyncOptions options)
      : part_(std::move(part)), options_(std::move(options)) {}
  EngineRun run(sim::RankContext& ctx, graph::Vertex root) override {
    BfsAsyncResult r = bfsasync_run(ctx, part_, root, options_);
    EngineRun out;
    out.parent = std::move(r.parent);
    out.cpu_s = r.cpu_s;
    out.comm_modeled_s = r.comm_modeled_s;
    out.rounds = r.rounds;
    return out;
  }

 private:
  partition::Part1d part_;
  BfsAsyncOptions options_;
};

}  // namespace

std::unique_ptr<TraversalEngine> make_engine(
    sim::RankContext& ctx, const partition::VertexSpace& space,
    std::span<const graph::Edge> slice, std::span<const uint64_t> local_degrees,
    const EngineConfig& config) {
  BfsWorkspace* ws = config.workspace();
  SUNBFS_CHECK_MSG(ws != nullptr,
                   "make_engine: the selected engine's workspace is not set");
  switch (config.kind) {
    case EngineKind::OneFiveD:
      return std::make_unique<Engine15d>(
          partition::build_15d(ctx, space, slice, local_degrees,
                               config.thresholds, ws->pool()),
          config.bfs15);
    case EngineKind::OneD:
      return std::make_unique<Engine1d>(partition::build_1d(ctx, space, slice),
                                        config.bfs1d);
    case EngineKind::Async:
      return std::make_unique<EngineAsync>(
          partition::build_1d(ctx, space, slice), config.async);
  }
  SUNBFS_CHECK(false);
  return nullptr;
}

}  // namespace sunbfs::bfs
