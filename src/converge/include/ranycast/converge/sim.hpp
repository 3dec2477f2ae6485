// Deterministic event-driven BGP convergence for one anycast prefix.
//
// PrefixSim runs the distributed counterpart of bgp::solve_anycast: every AS
// holds an Adj-RIB-In per session plus its locally originated seeds, selects
// with the solver's own comparator and attribute arithmetic (bgp/rules.hpp:
// local-pref class, path length, ingress distance, hash tie-break), and
// exports under the same Gao-Rexford policy (everything to customers,
// customer routes only to peers and providers). Updates travel as
// timestamped events through a (time, seq) priority queue with per-AS
// processing delay, per-session MRAI coalescing and optional route-flap
// damping, so between two topology states the simulator exposes the
// *transient* the instantaneous solver cannot see: blackhole windows,
// forwarding loops, interim catchment flips and the time to reconverge.
//
// Because selection is the solver's, export matches it and Gao-Rexford
// policies have a unique stable solution, the quiesced state equals the
// solver's output for the same topology — tests/converge/test_differential.cpp
// holds that equivalence over every scenario in configs/. Everything is integer
// virtual time and hash-derived jitter: byte-identical across runs and
// thread counts (each region's sim is single-threaded; regions fan out).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "ranycast/bgp/delta_solver.hpp"
#include "ranycast/bgp/path_arena.hpp"
#include "ranycast/bgp/route.hpp"
#include "ranycast/bgp/rules.hpp"
#include "ranycast/converge/config.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::converge {

/// A scheduled mid-run link flip (session reset at a virtual time), used to
/// build adversarial MRAI-race fixtures where the topology flaps faster
/// than the plane can reconverge.
struct TimedLinkFlip {
  std::uint64_t at_us{0};
  Asn a{kInvalidAsn};
  Asn b{kInvalidAsn};
  bool up{true};
};

/// Per-AS transient timeline of one convergence run.
struct NodeTimeline {
  bool changed{false};
  std::uint64_t first_change_us{0};
  std::uint64_t last_change_us{0};  ///< time-to-reconverge for this AS
  std::uint32_t rib_changes{0};
  std::uint32_t site_flips{0};  ///< interim catchment changes (both sides routed)
  /// Total user-visible outage: each routed->unrouted interval charged up to
  /// the DNS failover window (Config::dns_failover_us).
  std::uint64_t blackhole_us{0};
  bool routed_initially{false};
  bool routed_finally{false};
  bool dark_at_end{false};  ///< lost its route and never got one back
  bool looped{false};       ///< sat on a transient forwarding loop

  // internal interval bookkeeping (finalized before run_step returns)
  bool dark{false};
  std::uint64_t dark_since_us{0};

  bool operator==(const NodeTimeline&) const = default;
};

/// Aggregate view of one region's convergence run.
struct RegionTransient {
  std::uint64_t events{0};  ///< queue events processed
  std::uint64_t updates_sent{0};
  std::uint64_t withdrawals_sent{0};
  std::uint64_t rib_changes{0};
  std::uint64_t converged_us{0};  ///< last best-route change anywhere
  std::uint64_t last_event_us{0};
  std::uint64_t transient_loops{0};  ///< forwarding cycles observed
  std::uint64_t suppressed{0};       ///< damping suppression activations
  std::uint64_t site_flips{0};
  std::uint64_t nodes_changed{0};
  std::uint64_t nodes_blackholed{0};
  std::uint64_t nodes_dark_at_end{0};
  std::uint64_t max_blackhole_us{0};
  bool oscillating{false};  ///< event budget exhausted before quiescence

  // Differential check vs the steady-state solver, filled by Plane::step.
  bool matches_steady{true};
  std::uint64_t mismatches{0};

  bool operator==(const RegionTransient&) const = default;
};

/// RegionTransient's field list (core/fields.hpp): an element of
/// StepTransient's regions.
template <core::RecordOf<RegionTransient> Self, typename F>
void for_each_field(Self& t, F&& f) {
  f("events", t.events);
  f("updates_sent", t.updates_sent);
  f("withdrawals_sent", t.withdrawals_sent);
  f("rib_changes", t.rib_changes);
  f("converged_us", t.converged_us);
  f("last_event_us", t.last_event_us);
  f("transient_loops", t.transient_loops);
  f("suppressed", t.suppressed);
  f("site_flips", t.site_flips);
  f("nodes_changed", t.nodes_changed);
  f("nodes_blackholed", t.nodes_blackholed);
  f("nodes_dark_at_end", t.nodes_dark_at_end);
  f("max_blackhole_us", t.max_blackhole_us);
  f("oscillating", t.oscillating);
  f("matches_steady", t.matches_steady);
  f("mismatches", t.mismatches);
}

namespace detail {
/// Walk a forwarding next-hop array from `start` (-1 = no route, -2 =
/// origin-terminated, else dense node index) and return the nodes forming
/// the first cycle encountered — empty when the walk terminates. Standalone
/// so the loop detector is unit-testable on crafted arrays.
std::vector<std::uint32_t> forwarding_cycle(std::span<const std::int32_t> next_hop,
                                            std::uint32_t start);
}  // namespace detail

/// The graph-only half of a sim's adjacency bookkeeping: for the edge
/// `edge` of dense node `node`, the neighbour's dense index and the index of
/// the reverse edge in the neighbour's list. It reads the adjacency lists
/// only, never link state, so one table serves every sim of a graph.
class Mirror {
 public:
  explicit Mirror(const topo::Graph& graph);

  std::pair<std::uint32_t, std::uint32_t> at(std::size_t node,
                                             std::size_t edge) const noexcept {
    return reverse_[first_[node] + edge];
  }

 private:
  std::vector<std::uint32_t> first_;  ///< node's first slot in reverse_; n + 1 entries
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reverse_;
};

class PrefixSim {
 public:
  /// The graph must outlive the sim. `seed` is the solver tie-break seed of
  /// the same prefix — hash_combine(lab seed, region index) — so quiesced
  /// tie-breaks are bit-equal to the steady-state solve.
  PrefixSim(const topo::Graph& graph, Asn cdn_asn, std::uint64_t seed, const Config& cfg);
  /// The same, sharing a Mirror of `graph` with the other sims of a plane.
  PrefixSim(const topo::Graph& graph, std::shared_ptr<const Mirror> mirror, Asn cdn_asn,
            std::uint64_t seed, const Config& cfg);

  /// Reset all routing state and converge from scratch on the graph's
  /// current link state and the given originations.
  RegionTransient cold_start(std::span<const bgp::OriginAttachment> origins);

  /// One transient step from the current quiesced state: synchronize the
  /// session overlay with the graph (a session reset for every adjacency
  /// whose up/down state differs from the graph's), apply the origin changes
  /// (withdraw/restore faults) at t=0 and any scheduled flips at their
  /// times, then run to quiescence (or the oscillation budget, or
  /// cancellation — a supervisor's installed cancel flag is polled and
  /// exec::CancelledError thrown, which guard::run_sweep converts into a
  /// truncated run).
  ///
  /// `toggled` lists every adjacency whose graph state may have changed
  /// since the previous run (the re-solve's bgp::SolveDelta::links). With a
  /// list, only those adjacencies and the ones the previous run's schedule
  /// flipped are compared with the graph; without one, all of them are.
  /// Before its events the step resets only the nodes the previous run
  /// touched, and compacts the path arena only once it has outgrown the
  /// bound set by the last compaction.
  RegionTransient run_step(std::span<const bgp::OriginChange> origin_changes,
                           std::span<const TimedLinkFlip> schedule = {},
                           std::optional<std::span<const bgp::LinkDelta>> toggled = std::nullopt);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  bool has_route(std::size_t node) const noexcept;
  std::optional<SiteId> catchment(std::size_t node) const noexcept;

  /// Selected-route attributes for equivalence checks against the solver;
  /// nullopt when the AS has no route.
  std::optional<bgp::rules::Attrs> route_view(std::size_t node) const noexcept;

  /// Per-AS timelines of the most recent run, indexed by dense node index.
  /// A node the run did not touch holds an empty timeline, routed initially
  /// and finally exactly when it has a route.
  std::span<const NodeTimeline> timelines() const noexcept { return timelines_; }

 private:
  /// One route candidate in the frame of the node holding it: its arena
  /// path and the attributes bgp::rules computes and compares. An invalid
  /// candidate is always value-initialized, so two candidates carry the
  /// same route exactly when their `attrs` are equal. 40 bytes: one rides
  /// in every queued Update.
  struct Cand {
    std::uint32_t path{bgp::PathArena::kNone};
    bgp::rules::Attrs attrs{};

    bool valid() const noexcept { return path != bgp::PathArena::kNone; }
  };
  static_assert(sizeof(Cand) == 40);

  /// Per-session state at one endpoint of an adjacency.
  struct AdjState {
    Cand in{};    ///< Adj-RIB-In: the neighbor's last accepted advertisement
    Cand sent{};  ///< last content we advertised out (invalid = withdrawn)
    bool up{true};          ///< session overlay (synced with graph per step)
    bool pending{false};    ///< a Send event is queued for this session
    /// Session generation, bumped on every up/down transition: an update
    /// delivered across a session reset (sent on the old session, arriving
    /// after a flap cycle) is recognized as stale and dropped, like the TCP
    /// stream it rode on.
    std::uint32_t gen{0};
    std::uint64_t next_ok_us{0};  ///< MRAI gate: earliest next advertisement
    // flap damping of the inbound route on this session
    double penalty{0.0};
    std::uint64_t penalty_at_us{0};
    bool suppressed{false};
    bool reuse_queued{false};
  };

  struct NodeState {
    std::vector<AdjState> adj;  ///< parallel to the graph node's edge list
    std::vector<std::pair<bgp::OriginAttachment, Cand>> seeds;
    Cand best{};
    std::uint64_t proc_delay_us{0};
  };

  struct Event {
    std::uint64_t time{0};
    std::uint64_t seq{0};
    enum class Kind : std::uint8_t { Update, Send, Reuse, LinkFlip } kind{Kind::Update};
    std::uint32_t node{0};  ///< receiver (Update/Reuse) or sender (Send)
    std::uint32_t edge{0};  ///< edge index at `node`; LinkFlip: schedule index
    bool announce{true};    ///< Update: announce vs withdraw
    std::uint32_t gen{0};   ///< Update: receiver session generation at send
    Cand route{};           ///< Update payload, in the *sender's* frame
    Asn via{kInvalidAsn};   ///< Update: sender ASN

    bool operator>(const Event& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  bool path_contains(std::uint32_t path, Asn asn) const noexcept;
  std::uint64_t mrai_us(std::size_t node, std::size_t edge) const noexcept;
  std::uint64_t link_delay_us(std::size_t node, std::size_t edge) const noexcept;

  void push(Event e);
  void schedule_send(std::size_t node, std::size_t edge, std::uint64_t now);
  Cand eligible_export(std::size_t node, std::size_t edge) const;
  void fire_send(std::size_t node, std::size_t edge, std::uint64_t now);
  void accept_update(const Event& e);
  void bump_penalty(std::size_t node, std::size_t edge, std::uint64_t now);
  void fire_reuse(std::size_t node, std::size_t edge, std::uint64_t now);
  void reselect(std::size_t node, std::uint64_t now);
  void record_change(std::size_t node, const Cand& next, std::uint64_t now);
  void apply_link_transition(std::size_t node, std::size_t edge, bool up,
                             std::uint64_t now);
  void apply_origin_change(const bgp::OriginChange& change);
  /// Start a session reset wherever the overlay differs from the graph:
  /// over every directed adjacency without a `toggled` list, else over both
  /// directions of each listed and each `flipped` adjacency, in ascending
  /// (node, edge) order. Returns how many directed adjacencies it compared.
  std::size_t sync_overlay_with_graph(std::optional<std::span<const bgp::LinkDelta>> toggled,
                                      std::span<const TimedLinkFlip> flipped);
  void touch(std::size_t node);
  void touch_all();
  /// Return every node the previous run touched to its between-runs state
  /// (idle session controls, an empty timeline) and clear the per-run
  /// counters. Returns how many nodes it reset.
  std::size_t reset_touched();
  void compact_arena();
  std::uint32_t reintern(const bgp::PathArena& from, std::uint32_t path,
                         bgp::PathArena& into);
  RegionTransient drain();
  RegionTransient finalize(RegionTransient out);

  const topo::Graph& graph_;
  Asn cdn_asn_;
  std::uint64_t seed_;
  Config cfg_;
  std::uint64_t budget_;

  std::shared_ptr<const Mirror> mirror_;

  bgp::PathArena arena_;
  /// Arena size past which run_step compacts: twice the size the last
  /// compaction (or cold start) left, plus kCompactSlack.
  std::size_t compact_above_{0};
  /// reintern()'s reused buffer: one path's arena ids, holder first.
  std::vector<std::uint32_t> reintern_chain_;
  std::vector<NodeState> nodes_;
  std::vector<std::int32_t> next_hop_;  ///< -1 none, -2 origin, else node index
  std::vector<NodeTimeline> timelines_;
  /// The nodes this run changed — session controls, Adj-RIB-In/Out, seeds,
  /// best route or loop mark — each listed once (is_touched_ dedupes).
  /// finalize() reads only these, and the next run resets only these.
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint8_t> is_touched_;
  /// sync_overlay_with_graph()'s reused buffer of (node, edge) pairs.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sync_list_;

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::uint64_t seq_{0};
  std::vector<TimedLinkFlip> schedule_;

  // per-run counters
  std::uint64_t events_{0};
  std::uint64_t updates_sent_{0};
  std::uint64_t withdrawals_sent_{0};
  std::uint64_t transient_loops_{0};
  std::uint64_t suppressed_{0};
  std::uint64_t last_event_us_{0};
  bool oscillating_{false};
  /// Set when the oscillation budget fired: the in-flight updates it dropped
  /// leave Adj-RIB-In/Out inconsistent, so the next epoch re-floods from
  /// scratch instead of trusting the session state.
  bool rebuild_pending_{false};
};

}  // namespace ranycast::converge
