#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/runtime.hpp"
#include "support/bitvector.hpp"
#include "support/thread_pool.hpp"

/// Generic propagation engine over the 1.5D partition — the paper's §8
/// proposal that the partitioning is "neutral to the graph algorithm to run
/// on" and the seed of its "next-generation ShenTu" future work.
///
/// An algorithm supplies, via a Program type:
///   using Value      — per-vertex state (an integer type);
///   Value identity() — the neutral element of the gather;
///   Value combine(a, b) — associative+commutative gather of contributions;
///   Value contribution(u_value, u_global, v_global)
///                    — what vertex u sends along edge (u, v);
///   bool update(Value& state, const Value& gathered)
///                    — fold the gathered value into the state; returns
///                      whether the state changed (drives termination).
///
/// Each round propagates over all six subgraph components exactly once per
/// directed arc: EH2EH arcs locally, L→E/H at the L owner, E/H→L through
/// the delegated mirrors (no messages — the whole point of delegation), and
/// L→L with owner messages.  E/H accumulators are merged with the mesh
/// column+row reduction under `combine`.  Rounds repeat until no vertex
/// changes (or `max_rounds`).
///
/// Because every global arc contributes exactly once and accumulators start
/// from identity(), the engine is correct for both idempotent gathers
/// (min — connected components, SSSP) and non-idempotent ones (+ — PageRank,
/// whose fixed-point integer ranks keep the sum exact; analytics/pagerank.hpp).
///
/// The L→L messages travel through an ExchangeChannel, the staging path
/// every BFS engine uses, configured from `exchange` (sim/exchange.hpp):
/// routed through the staged plan it selects, wire-encoded when it says so.
/// A program may also declare `static constexpr bool kMinGather = true` when
/// its combine() is min; staged plans then keep only the smallest
/// contribution per destination vertex at every hop.
namespace sunbfs::analytics {

struct PropagateResult {
  int rounds = 0;
  bool converged = false;
};

struct PropagateOptions {
  /// When true, only vertices whose state changed in the previous round
  /// contribute in the next one — the delta/frontier execution every
  /// monotone program (min/max label propagation, SSSP relaxation) admits.
  /// Must stay false for programs whose gather must see every neighbor
  /// each round (sums, e.g. PageRank).
  bool incremental = false;
  /// Exchange plan and wire encoding of the L→L round; results are
  /// identical under every setting (ctest -L differential).  Encoding is
  /// off by default: on this traffic the encode/decode pass costs more host
  /// time than the bytes it saves.
  sim::ExchangeOptions exchange{.encoding = false};
};

/// A program whose combine() is min (it declares kMinGather = true).
template <typename Program>
concept MinGatherProgram = Program::kMinGather;

/// One cross-rank L→L contribution: `value` for global vertex `dst`, which
/// the receiver owns.  `MinGather` lets staged plans merge in flight.
template <typename Value, bool MinGather>
struct PropagateMsg {
  graph::Vertex dst;
  Value value;
};

template <typename Program>
class PropagationEngine {
 public:
  using Value = typename Program::Value;
  using Msg = PropagateMsg<Value, MinGatherProgram<Program>>;

  PropagationEngine(sim::RankContext& ctx, const partition::Part15d& part,
                    Program program, PropagateOptions options = {})
      : ctx_(ctx),
        part_(part),
        program_(std::move(program)),
        options_(options),
        k_(part.cls.num_eh()),
        nloc_(part.local_count),
        eh_value_(k_, program_.identity()),
        l_value_(nloc_, program_.identity()),
        eh_changed_(k_),
        l_changed_(nloc_) {
    channel_.configure(ctx, options.exchange);
    // Every vertex is a source in the first round.
    for (uint64_t i = 0; i < k_; ++i) eh_changed_.set(i);
    for (uint64_t l = 0; l < nloc_; ++l) l_changed_.set(l);
  }

  /// Per-vertex state accessors (EH values are replicated; L values owned).
  Value& eh_value(uint64_t eh_id) { return eh_value_[eh_id]; }
  Value& local_value(uint64_t lloc) { return l_value_[lloc]; }

  /// Initialize every vertex's state from init(global_id).
  template <typename InitFn>
  void initialize(InitFn init) {
    for (uint64_t i = 0; i < k_; ++i)
      eh_value_[i] = init(part_.cls.eh_to_global(i));
    for (uint64_t l = 0; l < nloc_; ++l)
      l_value_[l] = init(part_.space.to_global(ctx_.rank, l));
  }

  /// Run until convergence or max_rounds.  Collective.
  PropagateResult run(int max_rounds = 1 << 20) {
    PropagateResult result;
    for (int round = 0; round < max_rounds; ++round) {
      ++result.rounds;
      if (!step()) {
        result.converged = true;
        break;
      }
    }
    return result;
  }

  /// One full propagation round; returns whether anything changed globally.
  /// Collective.
  bool step() {
    const partition::EhlTable& cls = part_.cls;
    auto contrib_eh = [&](uint64_t u, graph::Vertex v_global) {
      return program_.contribution(eh_value_[u], cls.eh_to_global(u),
                                   v_global);
    };
    auto contrib_l = [&](uint64_t lloc, graph::Vertex v_global) {
      return program_.contribution(l_value_[lloc],
                                   part_.space.to_global(ctx_.rank, lloc),
                                   v_global);
    };

    const bool inc = options_.incremental;
    auto eh_active = [&](uint64_t x) { return !inc || eh_changed_.get(x); };
    auto l_active = [&](uint64_t l) { return !inc || l_changed_.get(l); };

    // --- gather into EH -------------------------------------------------
    std::vector<Value> acc_eh(k_, program_.identity());
    for (uint64_t x = 0; x < part_.eh2eh.num_rows(); ++x) {
      if (part_.eh2eh.degree(x) == 0 || !eh_active(x)) continue;
      for (graph::Vertex y : part_.eh2eh.neighbors(x))
        acc_eh[size_t(y)] = program_.combine(
            acc_eh[size_t(y)], contrib_eh(x, cls.eh_to_global(uint64_t(y))));
    }
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (!l_active(l)) continue;
      for (graph::Vertex e : part_.l2e.neighbors(l))
        acc_eh[size_t(e)] = program_.combine(
            acc_eh[size_t(e)], contrib_l(l, cls.eh_to_global(uint64_t(e))));
      for (graph::Vertex h : part_.l2h.neighbors(l))
        acc_eh[size_t(h)] = program_.combine(
            acc_eh[size_t(h)], contrib_l(l, cls.eh_to_global(uint64_t(h))));
    }
    if (k_ > 0) {
      auto op = [this](Value a, Value b) { return program_.combine(a, b); };
      ctx_.col.allreduce_inplace(std::span<Value>(acc_eh), op);
      ctx_.row.allreduce_inplace(std::span<Value>(acc_eh), op);
    }

    // --- gather into L ----------------------------------------------------
    std::vector<Value> acc_l(nloc_, program_.identity());
    for (uint64_t l = 0; l < nloc_; ++l) {
      graph::Vertex gl = part_.space.to_global(ctx_.rank, l);
      for (graph::Vertex e : part_.l2e.neighbors(l))
        if (eh_active(uint64_t(e)))
          acc_l[l] = program_.combine(acc_l[l], contrib_eh(uint64_t(e), gl));
      for (graph::Vertex h : part_.l2h.neighbors(l))
        if (eh_active(uint64_t(h)))
          acc_l[l] = program_.combine(acc_l[l], contrib_eh(uint64_t(h), gl));
    }
    channel_.begin_world(1);
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (!l_active(l)) continue;
      for (graph::Vertex l2 : part_.l2l.neighbors(l)) {
        int owner = part_.space.owner(l2);
        if (owner == ctx_.rank) {
          uint64_t t = part_.space.to_local(owner, l2);
          acc_l[t] = program_.combine(acc_l[t], contrib_l(l, l2));
        } else {
          channel_.push(0, size_t(owner), Msg{l2, contrib_l(l, l2)});
        }
      }
    }
    for (const Msg& m : channel_.exchange(ctx_.world, pool_)) {
      uint64_t t = part_.space.to_local(ctx_.rank, m.dst);
      acc_l[t] = program_.combine(acc_l[t], m.value);
    }

    // --- update -----------------------------------------------------------
    bool changed = false;
    eh_changed_.reset();
    l_changed_.reset();
    for (uint64_t i = 0; i < k_; ++i) {
      // Replicated update: identical inputs everywhere, identical result.
      bool c = program_.update(eh_value_[i], acc_eh[i]);
      if (c) eh_changed_.set(i);  // replicated, like the value itself
      // Only the owner votes, so "changed" is counted once per vertex.
      if (c && part_.eh_space.owner(graph::Vertex(i)) == ctx_.rank)
        changed = true;
    }
    for (uint64_t l = 0; l < nloc_; ++l) {
      if (part_.local_is_eh.get(l)) continue;
      if (program_.update(l_value_[l], acc_l[l])) {
        l_changed_.set(l);
        changed = true;
      }
    }
    return ctx_.world.allreduce_or(changed);
  }

  /// Final per-owned-vertex values (local index order).  EH vertices read
  /// from the replicated array.
  std::vector<Value> owned_values() const {
    std::vector<Value> out(nloc_);
    for (uint64_t l = 0; l < nloc_; ++l) {
      graph::Vertex g = part_.space.to_global(ctx_.rank, l);
      uint64_t eh = part_.cls.eh_of(g);
      out[l] =
          eh == partition::EhlTable::kNotEh ? l_value_[l] : eh_value_[eh];
    }
    return out;
  }

  Program& program() { return program_; }

 private:
  sim::RankContext& ctx_;
  const partition::Part15d& part_;
  Program program_;
  PropagateOptions options_;
  uint64_t k_, nloc_;
  std::vector<Value> eh_value_, l_value_;
  BitVector eh_changed_, l_changed_;
  sim::ExchangeChannel<Msg> channel_;
  ThreadPool pool_{1};  // the L→L round is staged serially; size 1 inlines
};

}  // namespace sunbfs::analytics

namespace sunbfs::sim {

/// Wire codec for L→L contributions: the destination id keys the
/// sort/bitmap; the value follows as a varint (zigzag if signed).
template <typename Value, bool MinGather>
struct WireFormat<analytics::PropagateMsg<Value, MinGather>> {
  static_assert(std::is_integral_v<Value>);
  using Msg = analytics::PropagateMsg<Value, MinGather>;

  static uint64_t bits(Value v) {
    if constexpr (std::is_signed_v<Value>) return zigzag(int64_t(v));
    return uint64_t(v);
  }
  static uint64_t key(const Msg& m) { return uint64_t(m.dst); }
  static bool less(const Msg& a, const Msg& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.value < b.value;
  }
  static size_t rest_size(const Msg& m) { return varint_size(bits(m.value)); }
  static uint8_t* put_rest(const Msg& m, uint8_t* p) {
    return put_varint(p, bits(m.value));
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, Msg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    m.dst = graph::Vertex(key);
    uint64_t v = 0;
    p = get_varint(p, end, &v);
    if constexpr (std::is_signed_v<Value>) m.value = Value(unzigzag(v));
    else m.value = Value(v);
    return p != nullptr && bits(m.value) == v ? p : nullptr;
  }
};

/// Staged-exchange fold for min gathers: an intermediate hop keeps the
/// smallest contribution per destination vertex — the receiver's reduction.
/// Any other gather ships every contribution through untouched.
template <typename Value, bool MinGather>
struct ExchangeMergePolicy<analytics::PropagateMsg<Value, MinGather>> {
  using Msg = analytics::PropagateMsg<Value, MinGather>;
  static constexpr bool enabled = MinGather;
  static bool same(const Msg& a, uint32_t /*a_src_part*/, const Msg& b,
                   uint32_t /*b_src_part*/) {
    return a.dst == b.dst;
  }
  static void fold(Msg& into, uint32_t& into_src_part, const Msg& from,
                   uint32_t from_src_part) {
    // Keep the (value, src_part) minimum so the survivor is independent of
    // fold order.
    if (from.value < into.value ||
        (from.value == into.value && from_src_part < into_src_part)) {
      into.value = from.value;
      into_src_part = from_src_part;
    }
  }
};

}  // namespace sunbfs::sim
