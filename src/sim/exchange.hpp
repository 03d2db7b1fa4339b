#pragma once

#include <cstdint>
#include <string>

#include "sim/comm_buffer.hpp"
#include "sim/encoding.hpp"

/// Exchange plans for the staged point-to-point (alltoallv-shaped) frontier
/// traffic of every engine (docs/COMM.md "Exchange plans").
///
/// The engines stage one personalized message stream per destination each
/// level; how those streams reach their destinations is the exchange plan:
///
///   Direct     one alltoallv over the world communicator — every rank
///              injects every destination block straight onto the network
///              (the paper's hardware-assisted exchange; our modeled
///              baseline),
///   TwoDCA     the 2D communication-avoiding split (Buluç & Madduri, arXiv
///              1104.4518), which is also the paper's §4.4 hierarchical L2L
///              route taken row-first: stage one moves messages over the
///              holder's row communicator to the destination's column,
///              stage two delivers them over that column communicator — at
///              most one inter-supernode hop per message, and mergeable
///              messages headed for the same (destination rank, key)
///              collapse at the intermediate rank.
///
/// Execution lives in ExchangeChannel (sim/exchange_channel.hpp), which runs
/// each stage through an ordinary A2aStaging pool on RankContext::row and
/// RankContext::col, so wire encoding, xxhash64 checksums, fault injection
/// and Topology byte charging all apply per stage unchanged.  A mesh with
/// nothing to split (one row or one column) runs TwoDCA as the direct
/// alltoallv.
namespace sunbfs::sim {

enum class ExchangeBackend : uint8_t { Direct = 0, TwoDCA = 1 };

inline const char* exchange_backend_name(ExchangeBackend b) {
  switch (b) {
    case ExchangeBackend::Direct: return "direct";
    case ExchangeBackend::TwoDCA: return "2dca";
  }
  return "direct";
}

/// Parse "direct" / "2dca"; false on anything else.
inline bool parse_exchange_backend(const std::string& s, ExchangeBackend* out) {
  if (s == "direct") *out = ExchangeBackend::Direct;
  else if (s == "2dca") *out = ExchangeBackend::TwoDCA;
  else return false;
  return true;
}

/// How an engine's exchanges run — the one exchange setting of every engine
/// option struct (Bfs1dOptions, Bfs15dOptions, BfsAsyncOptions,
/// MsbfsOptions, PropagateOptions, SsspOptions, RepairOptions), threaded
/// from runner flags into ExchangeChannel::configure.
struct ExchangeOptions {
  /// Exchange plan of the world rounds.
  ExchangeBackend backend = ExchangeBackend::Direct;
  /// Adaptive wire encoding (sim/encoding.hpp) of the staged exchanges and
  /// frontier gathers.  On by default: the encoded path is the product path,
  /// and the fault suite exercises checksums over encoded bytes.
  bool encoding = true;
};

/// ---- In-flight merging ---------------------------------------------------
///
/// A staged exchange holds messages from many sources at intermediate ranks;
/// collapsing messages that a receiver would reduce anyway is where a staged
/// plan's byte win comes from.  A message type opts in by specializing
/// ExchangeMergePolicy<T> next to its WireFormat (bfs/messages.hpp,
/// service/msbfs.hpp, analytics/sssp.hpp, analytics/propagate.hpp):
///
///   static constexpr bool enabled;
///   static bool same(const T& a, uint32_t a_src_part,
///                    const T& b, uint32_t b_src_part);  // same merge group
///   static void fold(T& into, uint32_t& into_src_part,
///                    const T& from, uint32_t from_src_part);
///
/// fold() must reproduce the receiver's reduction exactly (max parent, min
/// distance, OR of query masks), and same() must group only messages the
/// receiver would reduce together — when a merged message's meaning depends
/// on which rank sent it (CompactMsg local source indices), either same()
/// keeps sources apart (MsbfsMsg) or fold() rewrites the surviving source
/// rank (CompactMsg picks the max (rank, local-id) pair, which is the max
/// global parent under the monotone block layout).  Merging only ever runs
/// inside staged plans; the Direct backend's bytes are untouched.
template <typename T>
struct ExchangeMergePolicy {
  static constexpr bool enabled = false;
};

/// Routing envelope for staged hops: the final destination rank and the
/// originating rank ride along so intermediate holders can re-stage and the
/// final holder can rebuild the per-source delimiters the receivers' index
/// reconstruction depends on.  `route` leads the struct so the layout has no
/// uninitialized padding beyond what T itself carries (raw-codec blocks and
/// fault checksums memcpy whole structs).
template <typename T>
struct Routed {
  uint64_t route;  // dst_part << 32 | src_part
  T msg;

  static uint64_t make_route(uint32_t dst_part, uint32_t src_part) {
    return (uint64_t(dst_part) << 32) | uint64_t(src_part);
  }
  uint32_t dst_part() const { return uint32_t(route >> 32); }
  uint32_t src_part() const { return uint32_t(route); }
};

/// ExchangeFold bridge: A2aStaging's merge pass (comm_buffer.hpp) folds
/// adjacent same-group Routed messages using the payload's merge policy.
/// Grouping ignores the source rank — collapsing duplicates from different
/// sources is the point — so fold() lets the policy pick the surviving
/// source.
template <typename T>
struct ExchangeFold<Routed<T>> {
  static constexpr bool enabled = ExchangeMergePolicy<T>::enabled;
  static bool same(const Routed<T>& a, const Routed<T>& b) {
    return a.dst_part() == b.dst_part() &&
           ExchangeMergePolicy<T>::same(a.msg, a.src_part(), b.msg,
                                        b.src_part());
  }
  static void fold(Routed<T>& into, const Routed<T>& from) {
    uint32_t src = into.src_part();
    ExchangeMergePolicy<T>::fold(into.msg, src, from.msg, from.src_part());
    into.route = Routed<T>::make_route(into.dst_part(), src);
  }
};

/// Wire format of the routing envelope: the payload's key drives sorting and
/// delta coding; the route and the payload's rest fields travel as varints.
/// Same-key messages order route-major, which is exactly the adjacency the
/// merge pass needs (same destination rank together, then same source).
template <typename T>
struct WireFormat<Routed<T>> {
  using Inner = WireFormat<T>;
  static uint64_t key(const Routed<T>& m) { return Inner::key(m.msg); }
  static bool less(const Routed<T>& a, const Routed<T>& b) {
    const uint64_t ka = key(a), kb = key(b);
    if (ka != kb) return ka < kb;
    if (a.route != b.route) return a.route < b.route;
    return Inner::less(a.msg, b.msg);
  }
  static size_t rest_size(const Routed<T>& m) {
    return varint_size(m.dst_part()) + varint_size(m.src_part()) +
           Inner::rest_size(m.msg);
  }
  static uint8_t* put_rest(const Routed<T>& m, uint8_t* p) {
    p = put_varint(p, m.dst_part());
    p = put_varint(p, m.src_part());
    return Inner::put_rest(m.msg, p);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, Routed<T>& m) {
    uint64_t dst_part = 0, src_part = 0;
    p = get_varint(p, end, &dst_part);
    if (p == nullptr || dst_part > UINT32_MAX) return nullptr;
    p = get_varint(p, end, &src_part);
    if (p == nullptr || src_part > UINT32_MAX) return nullptr;
    m.route = Routed<T>::make_route(uint32_t(dst_part), uint32_t(src_part));
    return Inner::get_rest(p, end, key, m.msg);
  }
};

}  // namespace sunbfs::sim
