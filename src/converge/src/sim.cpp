#include "ranycast/converge/sim.hpp"

#include <algorithm>
#include <cmath>

#include "ranycast/core/rng.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::converge {

namespace {

/// Arena nodes a run may add past twice the last compaction's size before
/// the next run compacts: like the DeltaSolver's re-prime, compaction waits
/// until garbage dominates the live paths.
constexpr std::size_t kCompactSlack = 65'536;

}  // namespace

std::uint64_t fingerprint(const Config& c) noexcept {
  return core::fingerprint_fields(0x434f4e56u /* "CONV" */, c);
}

namespace detail {

std::vector<std::uint32_t> forwarding_cycle(std::span<const std::int32_t> next_hop,
                                            std::uint32_t start) {
  std::vector<std::uint32_t> trail;
  std::uint32_t cur = start;
  while (trail.size() <= next_hop.size()) {
    for (std::size_t k = 0; k < trail.size(); ++k) {
      if (trail[k] == cur) return {trail.begin() + static_cast<std::ptrdiff_t>(k), trail.end()};
    }
    trail.push_back(cur);
    const std::int32_t nh = next_hop[cur];
    if (nh < 0) return {};  // terminated at an origin (-2) or a blackhole (-1)
    cur = static_cast<std::uint32_t>(nh);
  }
  return trail;  // unreachable: a revisit always fires within n+1 steps
}

}  // namespace detail

Mirror::Mirror(const topo::Graph& graph) {
  const auto nodes = graph.nodes();
  first_.reserve(nodes.size() + 1);
  first_.push_back(0);
  reverse_.reserve(2 * graph.edge_count());
  for (const topo::AsNode& node : nodes) {
    for (const topo::Edge& e : node.edges) {
      const auto nidx = graph.index_of(e.neighbor);
      std::uint32_t redge = 0;
      if (nidx) {
        const auto& redges = nodes[*nidx].edges;
        for (std::size_t k = 0; k < redges.size(); ++k) {
          if (redges[k].neighbor == node.asn) {
            redge = static_cast<std::uint32_t>(k);
            break;
          }
        }
      }
      reverse_.emplace_back(static_cast<std::uint32_t>(nidx.value_or(0)), redge);
    }
    first_.push_back(static_cast<std::uint32_t>(reverse_.size()));
  }
}

PrefixSim::PrefixSim(const topo::Graph& graph, Asn cdn_asn, std::uint64_t seed,
                     const Config& cfg)
    : PrefixSim(graph, std::make_shared<const Mirror>(graph), cdn_asn, seed, cfg) {}

PrefixSim::PrefixSim(const topo::Graph& graph, std::shared_ptr<const Mirror> mirror,
                     Asn cdn_asn, std::uint64_t seed, const Config& cfg)
    : graph_(graph), cdn_asn_(cdn_asn), seed_(seed), cfg_(cfg), mirror_(std::move(mirror)) {
  const auto nodes = graph_.nodes();
  const std::size_t n = nodes.size();
  budget_ = cfg_.max_events != 0 ? cfg_.max_events : 4096 + 2048 * static_cast<std::uint64_t>(n);

  nodes_.resize(n);
  next_hop_.assign(n, -1);
  timelines_.assign(n, NodeTimeline{});
  is_touched_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const topo::AsNode& node = nodes[i];
    nodes_[i].adj.resize(node.edges.size());
    nodes_[i].proc_delay_us =
        cfg_.timers.proc_delay_us +
        (cfg_.timers.proc_jitter_us == 0
             ? 0
             : hash_combine(hash_combine(seed_, 0x70726f63u /* "proc" */), value(node.asn)) %
                   (cfg_.timers.proc_jitter_us + 1));
    for (std::size_t j = 0; j < node.edges.size(); ++j) nodes_[i].adj[j].up = node.edges[j].up;
  }
}

bool PrefixSim::path_contains(std::uint32_t path, Asn asn) const noexcept {
  for (std::uint32_t cur = path; cur != bgp::PathArena::kNone; cur = arena_.parent_of(cur)) {
    if (arena_.asn_of(cur) == asn) return true;
  }
  return false;
}

// ---- timers -----------------------------------------------------------------

std::uint64_t PrefixSim::mrai_us(std::size_t node, std::size_t edge) const noexcept {
  const std::uint64_t base = cfg_.timers.mrai_us;
  if (!cfg_.timers.mrai_jitter || base == 0) return base;
  const Asn me = graph_.nodes()[node].asn;
  const Asn nbr = graph_.nodes()[node].edges[edge].neighbor;
  const std::uint64_t h = hash_combine(hash_combine(seed_, value(me)), value(nbr));
  return base - h % (base / 4 + 1);
}

std::uint64_t PrefixSim::link_delay_us(std::size_t node, std::size_t edge) const noexcept {
  const auto& gaz = geo::Gazetteer::world();
  const topo::AsNode& me = graph_.nodes()[node];
  const auto [rn, re] = mirror_->at(node, edge);
  const double km = gaz.distance(me.home_city, graph_.nodes()[rn].home_city).km;
  return cfg_.timers.link_base_delay_us +
         static_cast<std::uint64_t>(std::llround(cfg_.timers.link_us_per_km * km));
}

// ---- event machinery --------------------------------------------------------

void PrefixSim::push(Event e) {
  e.seq = seq_++;
  queue_.push(std::move(e));
}

void PrefixSim::schedule_send(std::size_t node, std::size_t edge, std::uint64_t now) {
  AdjState& a = nodes_[node].adj[edge];
  if (!a.up || a.pending) return;
  touch(node);
  a.pending = true;
  Event ev;
  ev.kind = Event::Kind::Send;
  ev.time = std::max(now, a.next_ok_us);  // MRAI coalescing point
  ev.node = static_cast<std::uint32_t>(node);
  ev.edge = static_cast<std::uint32_t>(edge);
  push(std::move(ev));
}

PrefixSim::Cand PrefixSim::eligible_export(std::size_t node, std::size_t edge) const {
  const NodeState& n = nodes_[node];
  const Cand& b = n.best;
  if (!b.valid()) return {};
  const topo::Edge& e = graph_.nodes()[node].edges[edge];
  // Gao-Rexford export: everything to customers; only customer routes to
  // peers and providers (e.rel is the neighbor's role from our perspective).
  if (e.rel != topo::Rel::Customer && b.attrs.cls != bgp::RouteClass::Customer) return {};
  // Sender-side AS-path loop check: the receiver would reject it anyway;
  // suppressing here halves the message volume and implicitly withdraws a
  // previously advertised route that now points back through the receiver.
  if (path_contains(b.path, e.neighbor)) return {};
  return b;
}

void PrefixSim::fire_send(std::size_t node, std::size_t edge, std::uint64_t now) {
  AdjState& a = nodes_[node].adj[edge];
  a.pending = false;
  if (!a.up) return;  // session died between scheduling and firing
  const Cand content = eligible_export(node, edge);
  if (content.attrs == a.sent.attrs) return;  // nothing new to say
  a.sent = content;
  a.next_ok_us = now + mrai_us(node, edge);
  const auto [rn, re] = mirror_->at(node, edge);
  Event ev;
  ev.kind = Event::Kind::Update;
  ev.time = now + link_delay_us(node, edge) + nodes_[rn].proc_delay_us;
  ev.node = rn;
  ev.edge = re;
  ev.gen = nodes_[rn].adj[re].gen;
  ev.announce = content.valid();
  ev.route = content;
  ev.via = graph_.nodes()[node].asn;
  push(std::move(ev));
  if (content.valid()) {
    ++updates_sent_;
  } else {
    ++withdrawals_sent_;
  }
}

void PrefixSim::accept_update(const Event& e) {
  AdjState& a = nodes_[e.node].adj[e.edge];
  if (!a.up || e.gen != a.gen) return;  // stale: rode a session that reset
  Cand next{};
  if (e.announce) {
    // Classed by the receiver's side of the session.
    const topo::Edge& edge = graph_.nodes()[e.node].edges[e.edge];
    next.attrs = bgp::rules::extend(geo::Gazetteer::world(), e.route.attrs, e.via, edge,
                                    graph_.nodes()[e.node], bgp::class_of(edge.rel));
    next.path = arena_.append(e.route.path, e.via, next.attrs.last_city);
  }
  if (next.attrs == a.in.attrs) return;
  touch(e.node);
  if (cfg_.damping.enabled && a.in.valid()) bump_penalty(e.node, e.edge, e.time);
  a.in = next;
  reselect(e.node, e.time);  // reselect skips suppressed sessions
}

void PrefixSim::bump_penalty(std::size_t node, std::size_t edge, std::uint64_t now) {
  AdjState& a = nodes_[node].adj[edge];
  if (a.penalty > 0.0 && now > a.penalty_at_us) {
    a.penalty *= std::exp2(-static_cast<double>(now - a.penalty_at_us) /
                           static_cast<double>(cfg_.damping.half_life_us));
  }
  a.penalty_at_us = now;
  a.penalty += cfg_.damping.flap_penalty;
  if (!a.suppressed && a.penalty >= cfg_.damping.suppress_threshold) {
    a.suppressed = true;
    ++suppressed_;
  }
  if (a.suppressed && !a.reuse_queued) {
    const double ratio = a.penalty / cfg_.damping.reuse_threshold;
    const std::uint64_t wait =
        ratio <= 1.0 ? 1
                     : static_cast<std::uint64_t>(std::ceil(
                           static_cast<double>(cfg_.damping.half_life_us) * std::log2(ratio)));
    Event ev;
    ev.kind = Event::Kind::Reuse;
    ev.time = now + wait;
    ev.node = static_cast<std::uint32_t>(node);
    ev.edge = static_cast<std::uint32_t>(edge);
    push(std::move(ev));
    a.reuse_queued = true;
  }
}

void PrefixSim::fire_reuse(std::size_t node, std::size_t edge, std::uint64_t now) {
  AdjState& a = nodes_[node].adj[edge];
  a.reuse_queued = false;
  if (!a.suppressed) return;  // session reset cleared the penalty meanwhile
  if (a.penalty > 0.0 && now > a.penalty_at_us) {
    a.penalty *= std::exp2(-static_cast<double>(now - a.penalty_at_us) /
                           static_cast<double>(cfg_.damping.half_life_us));
  }
  a.penalty_at_us = now;
  if (a.penalty <= cfg_.damping.reuse_threshold) {
    a.suppressed = false;
    reselect(node, now);
  } else {
    const double ratio = a.penalty / cfg_.damping.reuse_threshold;
    Event ev;
    ev.kind = Event::Kind::Reuse;
    ev.time = now + static_cast<std::uint64_t>(std::ceil(
                        static_cast<double>(cfg_.damping.half_life_us) * std::log2(ratio)));
    ev.node = static_cast<std::uint32_t>(node);
    ev.edge = static_cast<std::uint32_t>(edge);
    push(std::move(ev));
    a.reuse_queued = true;
  }
}

void PrefixSim::record_change(std::size_t node, const Cand& next, std::uint64_t now) {
  touch(node);
  NodeTimeline& t = timelines_[node];
  const Cand& old = nodes_[node].best;
  if (!t.changed) {
    t.changed = true;
    t.first_change_us = now;
  }
  t.last_change_us = now;
  ++t.rib_changes;
  const bool was = old.valid();
  const bool is = next.valid();
  if (was && is && old.attrs.site != next.attrs.site) ++t.site_flips;
  if (was && !is && !t.dark) {
    t.dark = true;
    t.dark_since_us = now;
  }
  if (!was && is && t.dark) {
    t.blackhole_us += std::min(now - t.dark_since_us, cfg_.dns_failover_us);
    t.dark = false;
  }
}

void PrefixSim::reselect(std::size_t node, std::uint64_t now) {
  NodeState& n = nodes_[node];
  Cand best{};
  std::int32_t hop = -1;
  for (const auto& [origin, cand] : n.seeds) {
    if (!best.valid() || bgp::rules::better(cand.attrs, best.attrs)) {
      best = cand;
      hop = -2;
    }
  }
  for (std::size_t j = 0; j < n.adj.size(); ++j) {
    const AdjState& a = n.adj[j];
    if (!a.in.valid() || a.suppressed) continue;
    if (!best.valid() || bgp::rules::better(a.in.attrs, best.attrs)) {
      best = a.in;
      hop = static_cast<std::int32_t>(mirror_->at(node, j).first);
    }
  }
  if (best.attrs == n.best.attrs) return;

  record_change(node, best, now);
  n.best = best;
  next_hop_[node] = best.valid() ? hop : -1;

  if (best.valid()) {
    const auto cycle = detail::forwarding_cycle(next_hop_, static_cast<std::uint32_t>(node));
    if (!cycle.empty()) {
      ++transient_loops_;
      // A cycle member's best need not have changed this run.
      for (const std::uint32_t idx : cycle) {
        touch(idx);
        timelines_[idx].looped = true;
      }
    }
  }

  for (std::size_t j = 0; j < n.adj.size(); ++j) {
    const AdjState& a = n.adj[j];
    if (!a.up || a.pending) continue;
    // Pre-filter: only wake the session if the export content would differ
    // from what it last carried. The Send recomputes at fire time, so
    // intermediate changes coalesce under the MRAI.
    if (eligible_export(node, j).attrs != a.sent.attrs) schedule_send(node, j, now);
  }
}

void PrefixSim::apply_link_transition(std::size_t node, std::size_t edge, bool up,
                                      std::uint64_t now) {
  touch(node);
  AdjState& a = nodes_[node].adj[edge];
  a.up = up;
  ++a.gen;
  a.sent = Cand{};
  a.pending = false;
  a.next_ok_us = 0;
  a.penalty = 0.0;
  a.penalty_at_us = 0;
  a.suppressed = false;
  a.reuse_queued = false;
  if (up) {
    schedule_send(node, edge, now);  // fresh session: full re-advertisement
  } else if (a.in.valid()) {
    a.in = Cand{};  // implicit withdraw of everything learned on the session
    reselect(node, now);
  }
}

void PrefixSim::apply_origin_change(const bgp::OriginChange& change) {
  const bgp::OriginAttachment& o = change.origin;
  if (!bgp::rules::seeds_route(o)) return;
  const auto idx = graph_.index_of(o.neighbor);
  if (!idx) return;
  touch(*idx);
  NodeState& n = nodes_[*idx];
  if (change.announce) {
    const Cand seeded{arena_.append(bgp::PathArena::kNone, cdn_asn_, o.site_city),
                      bgp::rules::seed(geo::Gazetteer::world(), seed_, cdn_asn_, o,
                                       graph_.nodes()[*idx])};
    n.seeds.emplace_back(o, seeded);
  } else {
    const auto it = std::find_if(n.seeds.begin(), n.seeds.end(),
                                 [&](const auto& s) { return s.first == o; });
    if (it == n.seeds.end()) return;
    n.seeds.erase(it);
  }
  reselect(*idx, 0);
}

std::size_t PrefixSim::sync_overlay_with_graph(
    std::optional<std::span<const bgp::LinkDelta>> toggled,
    std::span<const TimedLinkFlip> flipped) {
  const auto nodes = graph_.nodes();
  const auto sync = [&](std::uint32_t i, std::uint32_t j) {
    const bool gup = nodes[i].edges[j].up;
    if (nodes_[i].adj[j].up != gup) apply_link_transition(i, j, gup, 0);
  };
  if (!toggled) {
    std::size_t compared = 0;
    for (std::uint32_t i = 0; i < nodes.size(); ++i) {
      for (std::uint32_t j = 0; j < nodes[i].edges.size(); ++j) sync(i, j);
      compared += nodes[i].edges.size();
    }
    return compared;
  }
  // Both directions of each listed adjacency, and of each one the previous
  // run's schedule flipped (that moved the overlay, not the graph).
  sync_list_.clear();
  const auto add = [&](Asn a, Asn b) {
    const auto ia = graph_.index_of(a);
    if (!ia) return;
    const auto& edges = nodes[*ia].edges;
    for (std::size_t j = 0; j < edges.size(); ++j) {
      if (edges[j].neighbor != b) continue;
      sync_list_.emplace_back(static_cast<std::uint32_t>(*ia), static_cast<std::uint32_t>(j));
      sync_list_.push_back(mirror_->at(*ia, j));
      return;
    }
  };
  for (const bgp::LinkDelta& l : *toggled) add(l.a, l.b);
  for (const TimedLinkFlip& f : flipped) add(f.a, f.b);
  std::sort(sync_list_.begin(), sync_list_.end());
  sync_list_.erase(std::unique(sync_list_.begin(), sync_list_.end()), sync_list_.end());
  for (const auto& [i, j] : sync_list_) sync(i, j);
  return sync_list_.size();
}

void PrefixSim::touch(std::size_t node) {
  if (is_touched_[node] != 0) return;
  is_touched_[node] = 1;
  touched_.push_back(static_cast<std::uint32_t>(node));
}

void PrefixSim::touch_all() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) touch(i);
}

std::size_t PrefixSim::reset_touched() {
  for (const std::uint32_t i : touched_) {
    for (AdjState& a : nodes_[i].adj) {
      a.pending = false;
      a.gen = 0;
      a.next_ok_us = 0;
      a.penalty = 0.0;
      a.penalty_at_us = 0;
      a.suppressed = false;
      a.reuse_queued = false;
    }
    const bool routed = nodes_[i].best.valid();
    timelines_[i] = NodeTimeline{};
    timelines_[i].routed_initially = routed;
    timelines_[i].routed_finally = routed;
    is_touched_[i] = 0;
  }
  const std::size_t reset = touched_.size();
  touched_.clear();
  if (!queue_.empty()) queue_ = {};
  seq_ = 0;
  events_ = 0;
  updates_sent_ = 0;
  withdrawals_sent_ = 0;
  transient_loops_ = 0;
  suppressed_ = 0;
  last_event_us_ = 0;
  oscillating_ = false;
  return reset;
}

// ---- arena compaction --------------------------------------------------------

std::uint32_t PrefixSim::reintern(const bgp::PathArena& from, std::uint32_t path,
                                  bgp::PathArena& into) {
  if (path == bgp::PathArena::kNone) return bgp::PathArena::kNone;
  reintern_chain_.clear();  // reused: compaction re-interns every RIB path
  for (std::uint32_t cur = path; cur != bgp::PathArena::kNone; cur = from.parent_of(cur)) {
    reintern_chain_.push_back(cur);
  }
  std::uint32_t parent = bgp::PathArena::kNone;
  for (auto it = reintern_chain_.rbegin(); it != reintern_chain_.rend(); ++it) {
    parent = into.append(parent, from.asn_of(*it), from.city_of(*it));
  }
  return parent;
}

void PrefixSim::compact_arena() {
  // Every in-flight path died with the drained queue; only the RIB state
  // survives an epoch. Re-interning it into a fresh arena bounds memory by
  // the RIB size instead of the cumulative update volume.
  bgp::PathArena fresh;
  for (NodeState& n : nodes_) {
    for (auto& [origin, cand] : n.seeds) cand.path = reintern(arena_, cand.path, fresh);
    for (AdjState& a : n.adj) {
      a.in.path = reintern(arena_, a.in.path, fresh);
      a.sent.path = reintern(arena_, a.sent.path, fresh);
    }
    n.best.path = reintern(arena_, n.best.path, fresh);
  }
  arena_ = std::move(fresh);
}

// ---- run loops ----------------------------------------------------------------

RegionTransient PrefixSim::drain() {
  while (!queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    ++events_;
    if (events_ > budget_) {
      // Oscillation guard: flag and stop instead of spinning. The dropped
      // in-flight updates leave sessions inconsistent (a sender's Adj-RIB-Out
      // may record a delivery the receiver never saw), so the next epoch
      // must re-flood from scratch rather than trust the session state.
      oscillating_ = true;
      rebuild_pending_ = true;
      queue_ = {};
      break;
    }
    if ((events_ & 0x3FFu) == 0) {
      if (const exec::CancelFlag* flag = exec::installed_cancel_flag();
          flag != nullptr && flag->requested()) {
        throw exec::CancelledError{};
      }
    }
    last_event_us_ = e.time;
    switch (e.kind) {
      case Event::Kind::Update:
        accept_update(e);
        break;
      case Event::Kind::Send:
        fire_send(e.node, e.edge, e.time);
        break;
      case Event::Kind::Reuse:
        fire_reuse(e.node, e.edge, e.time);
        break;
      case Event::Kind::LinkFlip: {
        const TimedLinkFlip& f = schedule_[e.edge];
        const auto ia = graph_.index_of(f.a);
        const auto ib = graph_.index_of(f.b);
        if (!ia || !ib) break;
        const auto& edges = graph_.nodes()[*ia].edges;
        for (std::size_t j = 0; j < edges.size(); ++j) {
          if (edges[j].neighbor != f.b) continue;
          const auto [rn, re] = mirror_->at(*ia, j);
          apply_link_transition(*ia, j, f.up, e.time);
          apply_link_transition(rn, re, f.up, e.time);
          break;
        }
        break;
      }
    }
  }
  return finalize(RegionTransient{});
}

RegionTransient PrefixSim::finalize(RegionTransient out) {
  out.events = events_;
  out.updates_sent = updates_sent_;
  out.withdrawals_sent = withdrawals_sent_;
  out.transient_loops = transient_loops_;
  out.suppressed = suppressed_;
  out.last_event_us = last_event_us_;
  out.oscillating = oscillating_;
  // An untouched node's timeline is empty: it adds nothing below.
  for (const std::uint32_t i : touched_) {
    NodeTimeline& t = timelines_[i];
    t.routed_finally = nodes_[i].best.valid();
    if (t.dark) {
      // Never got a route back this epoch: the client's outage runs until
      // DNS-level failover rescues it, so charge the full window.
      t.blackhole_us += cfg_.dns_failover_us;
      t.dark = false;
      t.dark_at_end = true;
    }
    if (t.changed) {
      ++out.nodes_changed;
      out.converged_us = std::max(out.converged_us, t.last_change_us);
    }
    out.rib_changes += t.rib_changes;
    out.site_flips += t.site_flips;
    if (t.blackhole_us > 0) ++out.nodes_blackholed;
    if (t.dark_at_end) ++out.nodes_dark_at_end;
    out.max_blackhole_us = std::max(out.max_blackhole_us, t.blackhole_us);
  }
  return out;
}

RegionTransient PrefixSim::cold_start(std::span<const bgp::OriginAttachment> origins) {
  reset_touched();
  arena_ = bgp::PathArena{};
  const auto nodes = graph_.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeState& n = nodes_[i];
    n.seeds.clear();
    n.best = Cand{};
    for (std::size_t j = 0; j < n.adj.size(); ++j) {
      n.adj[j] = AdjState{};
      n.adj[j].up = nodes[i].edges[j].up;
    }
  }
  std::fill(next_hop_.begin(), next_hop_.end(), -1);
  timelines_.assign(nodes_.size(), NodeTimeline{});
  touch_all();  // every node starts over, so the next run resets every node
  rebuild_pending_ = false;
  schedule_.clear();
  for (const bgp::OriginAttachment& o : origins) {
    apply_origin_change(bgp::OriginChange{true, o});
  }
  RegionTransient out = drain();
  compact_above_ = 2 * arena_.size() + kCompactSlack;
  return out;
}

RegionTransient PrefixSim::run_step(std::span<const bgp::OriginChange> origin_changes,
                                    std::span<const TimedLinkFlip> schedule,
                                    std::optional<std::span<const bgp::LinkDelta>> toggled) {
  static obs::Counter& nodes_reset = obs::MetricsRegistry::global().counter("converge.nodes_reset");
  static obs::Counter& edges_synced =
      obs::MetricsRegistry::global().counter("converge.edges_synced");
  static obs::Counter& compactions =
      obs::MetricsRegistry::global().counter("converge.arena_compactions");
  // Paths are read only by content and the queue is empty between runs, so
  // when the arena is compacted changes no output; it bounds memory by the
  // RIB size once the update garbage dominates.
  const bool compact = arena_.size() > compact_above_;
  if (compact) {
    compact_arena();
    compact_above_ = 2 * arena_.size() + kCompactSlack;
  }
  compactions.add(compact ? 1 : 0);
  nodes_reset.add(reset_touched());
  // Recover from an oscillation-truncated epoch: drop every session's
  // Adj-RIB-In/Out (mid-flight state of unknowable consistency) and force a
  // full reselect + re-flood below, exactly like a cold start except that
  // the timelines keep charging from the (possibly wrong) pre-step routes.
  const bool rebuild = rebuild_pending_;
  rebuild_pending_ = false;
  if (rebuild) {
    touch_all();
    for (NodeState& n : nodes_) {
      for (AdjState& a : n.adj) {
        a.in = Cand{};
        a.sent = Cand{};
      }
    }
  }
  // The previous schedule's flips are listed for the sync before this run's
  // schedule replaces it; the sync's own events queue after the flips.
  std::vector<TimedLinkFlip> flipped = std::move(schedule_);
  schedule_.assign(schedule.begin(), schedule.end());
  for (std::size_t k = 0; k < schedule_.size(); ++k) {
    Event ev;
    ev.kind = Event::Kind::LinkFlip;
    ev.time = schedule_[k].at_us;
    ev.edge = static_cast<std::uint32_t>(k);
    push(std::move(ev));
  }
  edges_synced.add(sync_overlay_with_graph(toggled, flipped));
  for (const bgp::OriginChange& change : origin_changes) apply_origin_change(change);
  if (rebuild) {
    // reselect alone is not enough to restart the flood: a node whose best
    // is unchanged (an origin holder, say) early-outs without waking its
    // exports, and its cleared Adj-RIB-Out means nothing would ever flow.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      reselect(i, 0);
      NodeState& n = nodes_[i];
      for (std::size_t j = 0; j < n.adj.size(); ++j) {
        if (n.adj[j].up && eligible_export(i, j).valid()) schedule_send(i, j, 0);
      }
    }
  }
  return drain();
}

// ---- accessors -----------------------------------------------------------------

bool PrefixSim::has_route(std::size_t node) const noexcept {
  return nodes_[node].best.valid();
}

std::optional<SiteId> PrefixSim::catchment(std::size_t node) const noexcept {
  if (!nodes_[node].best.valid()) return std::nullopt;
  return nodes_[node].best.attrs.site;
}

std::optional<bgp::rules::Attrs> PrefixSim::route_view(std::size_t node) const noexcept {
  if (!nodes_[node].best.valid()) return std::nullopt;
  return nodes_[node].best.attrs;
}

}  // namespace ranycast::converge
