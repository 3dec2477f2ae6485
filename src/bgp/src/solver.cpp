#include "ranycast/bgp/solver.hpp"

#include <algorithm>

#include "ranycast/bgp/path_metrics.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::bgp {

std::string_view to_string(RouteClass c) noexcept {
  switch (c) {
    case RouteClass::Customer:
      return "customer";
    case RouteClass::PeerPublic:
      return "public-peer";
    case RouteClass::PeerRouteServer:
      return "route-server-peer";
    case RouteClass::Provider:
      return "provider";
  }
  return "?";
}

// ---- RoutingOutcome ---------------------------------------------------------
//
// The solver itself (solve_anycast and the incremental DeltaSolver) lives in
// delta_solver.cpp; both paths share one SoA engine so a delta re-solve and a
// from-scratch solve cannot drift apart.

RoutingOutcome::RoutingOutcome(const topo::Graph* graph, Asn origin_asn,
                               std::vector<Entry> entries, PathArena arena)
    : RoutingOutcome(graph, origin_asn, std::move(entries),
                     std::make_shared<const PathArena>(std::move(arena))) {}

RoutingOutcome::RoutingOutcome(const topo::Graph* graph, Asn origin_asn,
                               std::vector<Entry> entries,
                               std::shared_ptr<const PathArena> arena)
    : graph_(graph),
      origin_asn_(origin_asn),
      entries_(std::move(entries)),
      arena_(std::move(arena)),
      cache_(std::make_unique<std::atomic<const Route*>[]>(entries_.size())) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    cache_[i].store(nullptr, std::memory_order_relaxed);
  }
}

void RoutingOutcome::destroy_cache() noexcept {
  if (!cache_) return;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    delete cache_[i].load(std::memory_order_relaxed);
  }
  cache_.reset();
}

RoutingOutcome::~RoutingOutcome() { destroy_cache(); }

RoutingOutcome::RoutingOutcome(RoutingOutcome&& other) noexcept
    : graph_(other.graph_),
      origin_asn_(other.origin_asn_),
      entries_(std::move(other.entries_)),
      arena_(std::move(other.arena_)),
      cache_(std::move(other.cache_)) {
  other.entries_.clear();
}

RoutingOutcome& RoutingOutcome::operator=(RoutingOutcome&& other) noexcept {
  if (this == &other) return *this;
  destroy_cache();
  graph_ = other.graph_;
  origin_asn_ = other.origin_asn_;
  entries_ = std::move(other.entries_);
  arena_ = std::move(other.arena_);
  cache_ = std::move(other.cache_);
  other.entries_.clear();
  return *this;
}

const Route* RoutingOutcome::materialize(std::size_t idx) const noexcept {
  const Entry& e = entries_[idx];
  if (e.path == PathArena::kNone) return nullptr;
  if (const Route* cached = cache_[idx].load(std::memory_order_acquire)) return cached;
  auto* fresh = new Route;
  fresh->origin_site = e.origin_site;
  fresh->origin_asn = origin_asn_;
  fresh->cls = e.cls;
  arena_->materialize(e.path, fresh->as_path, fresh->geo_path);
  fresh->ingress_km = e.ingress_km;
  fresh->tiebreak = e.tiebreak;
  const Route* expected = nullptr;
  if (!cache_[idx].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    // Another thread materialized the same entry first; the two Routes are
    // byte-identical, keep theirs.
    delete fresh;
    return expected;
  }
  static obs::Counter& materialized =
      obs::MetricsRegistry::global().counter("bgp.routes_materialized");
  materialized.add();
  return fresh;
}

const Route* RoutingOutcome::route_for(Asn a) const noexcept {
  const auto idx = graph_->index_of(a);
  if (!idx) return nullptr;
  return materialize(*idx);
}

std::optional<SiteId> RoutingOutcome::catchment(Asn a) const noexcept {
  const auto idx = graph_->index_of(a);
  if (!idx) return std::nullopt;
  return catchment_at(*idx);
}

std::optional<Rtt> RoutingOutcome::path_rtt(Asn a, CityId client_city,
                                            const LatencyModel& latency,
                                            double client_access_extra_ms) const {
  const auto idx = graph_->index_of(a);
  if (!idx || entries_[*idx].path == PathArena::kNone) return std::nullopt;
  const Entry& e = entries_[*idx];
  return latency.path_rtt(*arena_, e.path, e.origin_site, client_city, a,
                          client_access_extra_ms);
}

std::vector<std::uint32_t> RoutingOutcome::rows_differing_from(
    const RoutingOutcome& other) const {
  const PathArena& mine = *arena_;
  const PathArena& theirs = *other.arena_;
  const bool shared = arena_ == other.arena_;
  const auto same_hops = [&](std::uint32_t x, std::uint32_t y) {
    for (; x != PathArena::kNone && y != PathArena::kNone;
         x = mine.parent_of(x), y = theirs.parent_of(y)) {
      if (shared && x == y) return true;  // one node: the rest of the path too
      if (mine.asn_of(x) != theirs.asn_of(y) || mine.city_of(x) != theirs.city_of(y)) {
        return false;
      }
    }
    return x == y;  // both ended
  };
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& a = entries_[i];
    bool same = i < other.entries_.size();
    if (same) {
      const Entry& b = other.entries_[i];
      same = (a.path == PathArena::kNone) == (b.path == PathArena::kNone) &&
             (a.path == PathArena::kNone ||
              (a.len == b.len && a.origin_site == b.origin_site && a.cls == b.cls &&
               a.ingress_km == b.ingress_km && a.tiebreak == b.tiebreak &&
               same_hops(a.path, b.path)));
    }
    if (!same) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::size_t RoutingOutcome::reachable_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.path != PathArena::kNone; }));
}

}  // namespace ranycast::bgp
