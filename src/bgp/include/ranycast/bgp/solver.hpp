// Gao-Rexford anycast route propagation.
//
// Computes, for one anycast prefix originated at a set of sites, the route
// each AS in the graph selects. The engine follows the standard three-stage
// valley-free model:
//   1. customer routes climb the provider hierarchy (Dijkstra on path length),
//   2. each AS considers routes its peers export (peers export only customer
//      routes and direct originations),
//   3. provider routes descend to customers (Dijkstra on path length over the
//      exported best routes).
// Selection order: local-pref class (customer > public peer > route-server
// peer > provider), then AS-path length, then a deterministic hash tie-break
// standing in for BGP's arbitrary tie-breaking (router ids, age).
//
// Candidates are held as compact parent-indexed references into a PathArena
// (see path_arena.hpp). The outcome keeps the compact entries and the arena,
// and answers the measurement plane's two questions straight from them:
// catchment() (which site catches an AS) and path_rtt() (the RTT of its
// selected route, an allocation-free arena walk). A full Route is
// materialized only on the first route_for() for an AS — for consumers
// that need hops: traceroute, the §5.4 path analysis, the delta verifier,
// the tools. Every read is thread-safe (materialization is lock-free), so
// the measurement plane may fan out over probes while sharing one outcome.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ranycast/bgp/path_arena.hpp"
#include "ranycast/bgp/route.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::bgp {

struct LatencyModel;

/// Per-AS routing result for one anycast prefix. Movable, not copyable (the
/// lazily materialized Route cache is identity-bound).
class RoutingOutcome {
 public:
  /// Compact selected-route record for one AS; `path == PathArena::kNone`
  /// means the prefix is unreachable from that AS.
  struct Entry {
    std::uint32_t path{PathArena::kNone};
    std::uint16_t len{0};
    SiteId origin_site{kInvalidSite};
    RouteClass cls{RouteClass::Provider};
    double ingress_km{0.0};
    std::uint64_t tiebreak{0};
  };

  RoutingOutcome(const topo::Graph* graph, Asn origin_asn, std::vector<Entry> entries,
                 PathArena arena);
  /// Shared-arena variant (incremental delta re-solves): the outcome keeps
  /// the arena alive but does not own it exclusively. The producer (the
  /// DeltaSolver's master arena) may keep appending — appends never move or
  /// mutate existing nodes, and all access is index-based, so entries
  /// referencing earlier nodes stay valid for the outcome's lifetime.
  RoutingOutcome(const topo::Graph* graph, Asn origin_asn, std::vector<Entry> entries,
                 std::shared_ptr<const PathArena> arena);
  ~RoutingOutcome();

  RoutingOutcome(RoutingOutcome&& other) noexcept;
  RoutingOutcome& operator=(RoutingOutcome&& other) noexcept;
  RoutingOutcome(const RoutingOutcome&) = delete;
  RoutingOutcome& operator=(const RoutingOutcome&) = delete;

  /// The route the AS selected, or nullptr if the prefix is unreachable.
  /// Materializes the full path on first call for an AS; safe to call
  /// concurrently, and the returned pointer stays valid for the outcome's
  /// lifetime.
  const Route* route_for(Asn a) const noexcept;

  /// Catchment: the site an AS's traffic reaches. Reads the compact entry;
  /// never materializes a path.
  std::optional<SiteId> catchment(Asn a) const noexcept;
  /// The same by dense node index (topo::Graph::index_of), without the ASN
  /// lookup: for callers that walk every AS in index order.
  std::optional<SiteId> catchment_at(std::size_t node) const noexcept {
    if (entries_[node].path == PathArena::kNone) return std::nullopt;
    return entries_[node].origin_site;
  }

  /// RTT of AS `a`'s selected route for a client of `a` itself in
  /// `client_city`: latency.path_rtt(*route_for(a), client_city, a, extra)
  /// bit for bit, read from the compact entry and the arena without
  /// materializing. nullopt when the prefix is unreachable from `a`.
  std::optional<Rtt> path_rtt(Asn a, CityId client_city, const LatencyModel& latency,
                              double client_access_extra_ms = 0.0) const;

  std::size_t reachable_count() const noexcept;
  std::size_t as_count() const noexcept { return entries_.size(); }

  /// The rows (dense node indices, ascending) whose selected route differs
  /// from the one `other`, an outcome of the same prefix over the same
  /// graph, holds: by content — reachability, origin site, class, ingress
  /// distance, tie-break and every (ASN, city) hop — so the two outcomes'
  /// arenas and path ids may differ.
  std::vector<std::uint32_t> rows_differing_from(const RoutingOutcome& other) const;

 private:
  const Route* materialize(std::size_t idx) const noexcept;
  void destroy_cache() noexcept;

  const topo::Graph* graph_{nullptr};
  Asn origin_asn_{kInvalidAsn};
  std::vector<Entry> entries_;  // indexed by dense node index
  std::shared_ptr<const PathArena> arena_;
  /// Lazily materialized Routes, CAS-installed; slot i covers entries_[i].
  mutable std::unique_ptr<std::atomic<const Route*>[]> cache_;
};

/// Solve one anycast prefix. `seed` perturbs only the tie-break hash, which
/// models BGP's arbitrary tie-breaking; all policy decisions are
/// deterministic in the inputs. Pure in its inputs (reads the graph, never
/// mutates it), so independent prefixes may be solved concurrently.
RoutingOutcome solve_anycast(const topo::Graph& graph, Asn cdn_asn,
                             std::span<const OriginAttachment> origins, std::uint64_t seed);

}  // namespace ranycast::bgp
