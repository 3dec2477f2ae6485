// Incremental anycast re-solving: O(affected) chaos steps.
//
// The full solver (solve_anycast) recomputes every AS's selection from
// scratch after each topology event, even when the event touched a single
// site, link or route server. BGP itself converges incrementally — only
// ASes whose best route or candidate set can change re-decide — and the
// DeltaSolver mirrors that: it retains the three per-stage selection planes
// of the previous solve as parallel SoA arrays keyed by dense node index,
// and on a topology/origination delta propagates a withdrawal/announcement
// frontier outward from the changed edges with a worklist fixpoint
// (Ramalingam–Reps style: each inconsistent node is re-decided from its
// neighbors' current values in global key order).
//
// Equality guarantee: the re-solved outcome is byte-identical to a
// from-scratch solve_anycast over the mutated inputs. The selection keys
// (class, path length, ingress distance, 64-bit tie-break hash, node) are
// strictly monotone along export chains — extending a route lengthens it —
// so the selection fixpoint is unique and the frontier propagation and the
// full Dijkstra land on the same one. The guarantee is enforced three ways:
// always-on differential tests (tests/bgp/test_delta_solver.cpp), the
// chaos soak's per-step comparison of every region's outcome against a
// scratch solve_anycast (tests/chaos/test_delta_soak), and a sampled
// in-engine verify mode (DeltaConfig::verify_every) that re-solves from
// scratch every Nth step and self-heals on mismatch.
//
// Changed rows: resolve() reports which final-plane rows it changed — the
// ASes whose selected path, origin site or class differs from before — so a
// consumer can redo only the measurements that read them. An unchanged row
// keeps its arena path id (an incremental pass keeps the append-only arena
// and reuses the id of an unchanged hop), so catchment() and path_rtt() of
// that AS read the same bits as before. A full solve starts a fresh arena,
// so every path id is new: a prime, a fallback, the arena-growth re-prime
// and the verifier's self-heal report "all" instead of a list.
//
// Fallback: when the frontier exceeds a fixed quarter of all nodes (e.g. a
// regional withdrawal invalidating most of the plane) the incremental pass
// aborts and a full SoA solve re-primes the state — never slower than a
// from-scratch solve by more than the abandoned frontier walk. The region
// then reports "all" changed rows.
//
// Concurrency: one DeltaSolver belongs to one deployment; distinct regions
// hold distinct planes/arenas and may be resolved concurrently. Mutation
// (resolve/prime) and measurement (route_for on emitted outcomes) must be
// serialized per region, exactly like lab::Lab::resolve_delta.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ranycast/bgp/solver.hpp"

namespace ranycast::bgp {

/// One inter-AS adjacency state change (already applied to the graph).
struct LinkDelta {
  Asn a{kInvalidAsn};
  Asn b{kInvalidAsn};
  bool up{true};
};

/// One origination change: a site announcement appearing (announce) or
/// disappearing (withdraw) from a region's origin set.
struct OriginChange {
  bool announce{true};
  OriginAttachment origin{};
};

/// A topology/origination delta covering every region of one deployment.
/// The graph mutation must already be applied; `origins[r]` lists region
/// r's origination changes (missing trailing regions mean "no change").
struct SolveDelta {
  std::vector<LinkDelta> links;
  std::vector<std::vector<OriginChange>> origins;

  /// Region r's origination changes.
  std::span<const OriginChange> origin_changes(std::size_t r) const noexcept {
    return r < origins.size() ? std::span<const OriginChange>(origins[r])
                              : std::span<const OriginChange>{};
  }
  /// Whether region r's outcome can change: a link moved (every prefix
  /// crosses the graph) or r's own origin set did. Each region is its own
  /// prefix, so another region's originations are not r's input.
  bool touches(std::size_t r) const noexcept {
    return !links.empty() || !origin_changes(r).empty();
  }
};

/// The checker: when verify_every is nonzero, every Nth resolve of each
/// region also runs a from-scratch solve, compares outcomes and self-heals
/// on mismatch.
struct DeltaConfig {
  std::uint32_t verify_every{0};
};

/// The final-plane rows one resolve changed, by dense node index: every AS
/// whose selected path, origin site or class differs from before it, or
/// `all` when the region was solved in full.
struct ChangedRows {
  bool all{false};
  std::vector<std::uint32_t> rows;  ///< ascending; empty when `all`
};

/// Accounting for one resolve (or a merge over regions/steps). A region a
/// deployment-level re-solve skips (lab::Lab::resolve_delta: no link change
/// and no origin change of its own) is not counted at all.
struct DeltaStats {
  std::size_t regions{0};        ///< regions resolved (primed or re-solved)
  std::size_t delta_regions{0};  ///< solved incrementally
  std::size_t full_regions{0};   ///< primed or fell back to full
  /// Size of the reported ChangedRows::rows (0 for a region reported `all`).
  std::size_t affected_ases{0};
  std::size_t touched_ases{0};   ///< frontier size across all stages
  std::size_t verified{0};       ///< sampled differential verifications run
  std::size_t mismatches{0};     ///< verifications that disagreed (self-healed)

  void merge(const DeltaStats& o) noexcept {
    regions += o.regions;
    delta_regions += o.delta_regions;
    full_regions += o.full_regions;
    affected_ases += o.affected_ases;
    touched_ases += o.touched_ases;
    verified += o.verified;
    mismatches += o.mismatches;
  }
};

/// Order-preserving multiset diff of two origin sets: withdrawals (in
/// `before` order) followed by announcements (in `after` order). This is
/// how chaos::Engine turns a site/attachment/region mutation into a
/// SolveDelta without knowing which fault produced it.
std::vector<OriginChange> diff_origin_changes(std::span<const OriginAttachment> before,
                                              std::span<const OriginAttachment> after);

/// Retained per-deployment incremental state: one selection-plane set per
/// region. prime() runs the full SoA solve and installs the planes;
/// resolve() re-decides only the affected rows. Either returns the outcome
/// read off the region's final-selection plane.
class DeltaSolver {
 public:
  DeltaSolver(const topo::Graph& graph, Asn cdn_asn, std::size_t regions,
              DeltaConfig cfg = {});
  ~DeltaSolver();

  DeltaSolver(DeltaSolver&&) noexcept;
  DeltaSolver& operator=(DeltaSolver&&) noexcept;
  DeltaSolver(const DeltaSolver&) = delete;
  DeltaSolver& operator=(const DeltaSolver&) = delete;

  /// Full SoA solve of one region; resets that region's planes and arena.
  /// The outcome is byte-identical to solve_anycast(graph, asn, origins,
  /// seed). Counts as a full region in `stats`.
  RoutingOutcome prime(std::size_t region, std::span<const OriginAttachment> origins,
                       std::uint64_t seed, DeltaStats* stats = nullptr);

  bool primed(std::size_t region) const noexcept;

  /// Incremental re-solve of a primed region. `origins` is the post-delta
  /// origin set; `changes`/`links` describe how it and the graph moved
  /// since the previous prime()/resolve(). Falls back to a full re-prime
  /// when the frontier exceeds a quarter of all ASes. `changed` (if given)
  /// receives the rows that differ from the previous outcome of this
  /// region. Throws std::logic_error for a region that was never primed:
  /// its tie-break seed is only known to prime().
  RoutingOutcome resolve(std::size_t region, std::span<const OriginAttachment> origins,
                         std::span<const OriginChange> changes,
                         std::span<const LinkDelta> links, DeltaStats* stats = nullptr,
                         ChangedRows* changed = nullptr);

  /// Deep copy (planes + arenas), for deriving a deployment from a base
  /// one (resilience::fail_site reuses the base's primed planes).
  std::unique_ptr<DeltaSolver> clone() const;

 private:
  struct RegionState;

  const topo::Graph* graph_;
  Asn cdn_asn_;
  DeltaConfig cfg_;
  std::vector<std::unique_ptr<RegionState>> regions_;
};

}  // namespace ranycast::bgp
