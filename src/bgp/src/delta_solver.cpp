// The shared SoA route-selection engine: one implementation behind both the
// from-scratch solve_anycast() and the incremental DeltaSolver, so the two
// cannot drift apart. Selection state lives in parallel arrays (structure of
// arrays) keyed by dense node index — the comparator hot path reads three
// cache-linear lanes (class, length, tie-break) instead of striding over
// 48-byte records — and the incremental path re-decides only the nodes whose
// candidate set a delta can reach (a Ramalingam–Reps style worklist
// fixpoint, processed in global key order).
#include "ranycast/bgp/delta_solver.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "ranycast/bgp/rules.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::bgp {

// Named (not anonymous) detail namespace: DeltaSolver::RegionState embeds
// these types, and members of anonymous-namespace type in an exported class
// trip -Wsubobject-linkage.
namespace delta_detail {

constexpr std::uint32_t kNoPath = PathArena::kNone;
constexpr std::size_t kInfLen = std::numeric_limits<std::size_t>::max();
/// An incremental pass gives up (and the region is solved in full) once its
/// touched frontier exceeds this fraction of all ASes.
constexpr double kFallbackFrac = 0.25;

/// One selection stage's results as parallel arrays over dense node index:
/// the arena path plus one lane per rules::Attrs field. `path == kNoPath`
/// gates occupancy, exactly like CompactRoute::valid().
struct Plane {
  std::vector<std::uint32_t> path;
  std::vector<std::uint16_t> len;
  std::vector<RouteClass> cls;
  std::vector<SiteId> site;
  std::vector<CityId> last_city;
  std::vector<double> ingress;
  std::vector<std::uint64_t> hash_base;
  std::vector<std::uint64_t> tiebreak;

  void reset(std::size_t n) {
    path.assign(n, kNoPath);
    len.assign(n, 0);
    cls.assign(n, RouteClass::Provider);
    site.assign(n, kInvalidSite);
    last_city.assign(n, kInvalidCity);
    ingress.assign(n, 0.0);
    hash_base.assign(n, 0);
    tiebreak.assign(n, 0);
  }
  bool valid(std::size_t i) const noexcept { return path[i] != kNoPath; }
  void clear_row(std::size_t i) noexcept { path[i] = kNoPath; }

  rules::Attrs attrs(std::size_t i) const noexcept {
    return rules::Attrs{len[i],     last_city[i], site[i],    cls[i],
                        ingress[i], hash_base[i], tiebreak[i]};
  }
  void set_row(std::size_t i, std::uint32_t id, const rules::Attrs& a) noexcept {
    path[i] = id;
    len[i] = a.len;
    cls[i] = a.cls;
    site[i] = a.site;
    last_city[i] = a.last_city;
    ingress[i] = a.ingress_km;
    hash_base[i] = a.hash_base;
    tiebreak[i] = a.tiebreak;
  }
};

/// A row snapshot taken before the incremental pass mutates it: the arena
/// reuse check and the changed-set diff both compare against the original,
/// not whatever intermediate value the fixpoint passed through.
struct SavedRow {
  std::uint32_t path{kNoPath};
  rules::Attrs attrs{};
};

/// The outcome rows of a final-selection plane (the lanes of an empty row
/// are stale, so only occupied rows are copied).
std::vector<RoutingOutcome::Entry> entries_of(const Plane& f) {
  const std::size_t n = f.path.size();
  std::vector<RoutingOutcome::Entry> entries(n);
  RoutingOutcome::Entry* out = entries.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (!f.valid(i)) continue;
    out[i].path = f.path[i];
    out[i].len = f.len[i];
    out[i].origin_site = f.site[i];
    out[i].cls = f.cls[i];
    out[i].ingress_km = f.ingress[i];
    out[i].tiebreak = f.tiebreak[i];
  }
  return entries;
}

SavedRow save_row(const Plane& p, std::size_t i) { return SavedRow{p.path[i], p.attrs(i)}; }

/// Content inequality. Arena node ids are content-addressed by the reuse
/// logic (an unchanged hop keeps its old id), so id + origin-site + class
/// pin the whole route: equal ids mean equal (parent chain, ASN, city)
/// and therefore equal length/ingress/hash lanes.
bool row_differs(const Plane& p, std::size_t i, const SavedRow& s) {
  return p.path[i] != s.path || p.site[i] != s.attrs.site || p.cls[i] != s.attrs.cls;
}

/// Dijkstra/worklist ordering: rules::decide within one class (length, hot
/// potato, hash), then the node index.
struct Key {
  std::size_t len{kInfLen};
  double ingress{0.0};
  std::uint64_t tiebreak{0};
  std::size_t node{0};
};

bool key_less(const Key& a, const Key& b) noexcept {
  if (a.len != b.len) return a.len < b.len;
  if (a.ingress != b.ingress) return a.ingress < b.ingress;
  if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
  return a.node < b.node;
}

bool key_eq(const Key& a, const Key& b) noexcept {
  return a.len == b.len && a.ingress == b.ingress && a.tiebreak == b.tiebreak &&
         a.node == b.node;
}

/// A candidate route in flight. It defers the arena append: the hop is
/// carried as (parent, via, attrs.last_city) and only materialized into the
/// arena when the candidate is accepted — losing candidates never allocate,
/// and an accepted hop identical to the node's pre-delta hop reuses the old
/// arena id (splice identity).
struct Cand {
  std::uint32_t parent{kNoPath};  ///< arena node of the parent path
  std::uint32_t ready{kNoPath};   ///< pre-built arena node to adopt verbatim
  Asn via{kInvalidAsn};           ///< exporter of this hop
  std::uint32_t node{0};          ///< dense index of the AS this candidate is for
  rules::Attrs attrs{};
  bool valid{false};

  Key key() const noexcept {
    return valid ? Key{attrs.len, attrs.ingress_km, attrs.tiebreak, node}
                 : Key{kInfLen, 0.0, 0, node};
  }
};

struct CandHeapEntry {
  Key key;
  Cand cand;
  bool operator>(const CandHeapEntry& o) const noexcept { return key_less(o.key, key); }
};
using CandHeap = std::priority_queue<CandHeapEntry, std::vector<CandHeapEntry>, std::greater<>>;

struct WorkEntry {
  Key key;
  std::uint32_t node;
  bool operator>(const WorkEntry& o) const noexcept { return key_less(o.key, key); }
};
using WorkHeap = std::priority_queue<WorkEntry, std::vector<WorkEntry>, std::greater<>>;

using SeedMap = std::unordered_map<std::size_t, std::vector<std::size_t>>;

/// The engine proper: borrows one region's planes + arena and runs either a
/// full three-stage solve or the incremental frontier pass over them.
struct SoaEngine {
  const topo::Graph& graph;
  std::span<const topo::AsNode> nodes;
  std::size_t n;
  const geo::Gazetteer& gaz;
  Asn cdn;
  std::uint64_t seed;
  PathArena& arena;
  Plane& c;  // stage 1: customer routes
  Plane& s;  // stage 2: customer-or-peer best
  Plane& f;  // stage 3: final selection
  std::span<const OriginAttachment> origins{};
  SeedMap cust_seeds{};
  SeedMap peer_seeds{};
  // Route-selection decision tallies, flushed once (see solve_anycast).
  std::uint64_t hot_potato = 0;
  std::uint64_t tiebreak_hash = 0;

  SoaEngine(const topo::Graph& g, Asn cdn_asn, std::uint64_t seed_, PathArena& arena_,
            Plane& c_, Plane& s_, Plane& f_)
      : graph(g),
        nodes(g.nodes()),
        n(g.nodes().size()),
        gaz(geo::Gazetteer::world()),
        cdn(cdn_asn),
        seed(seed_),
        arena(arena_),
        c(c_),
        s(s_),
        f(f_) {}

  // ---- candidate construction: the attributes come from bgp::rules ------

  Cand seed_cand(const OriginAttachment& o, std::size_t holder) const {
    Cand out;
    out.valid = true;
    out.node = static_cast<std::uint32_t>(holder);
    out.via = cdn;
    out.attrs = rules::seed(gaz, seed, cdn, o, nodes[holder]);
    return out;
  }

  Cand extend_cand(const Plane& p, std::size_t y, const topo::Edge& e, std::size_t x,
                   RouteClass cls) const {
    Cand out;
    out.valid = true;
    out.node = static_cast<std::uint32_t>(x);
    out.parent = p.path[y];
    out.via = nodes[y].asn;
    out.attrs = rules::extend(gaz, p.attrs(y), out.via, e, nodes[x], cls);
    return out;
  }

  /// A row re-offered as a candidate for another plane (stage-2 customer
  /// dominance, stage-3 adoption): shares the arena id, never re-appends.
  Cand adopt_cand(const Plane& p, std::size_t i) const {
    Cand out;
    out.valid = true;
    out.node = static_cast<std::uint32_t>(i);
    out.ready = p.path[i];
    out.attrs = p.attrs(i);
    return out;
  }

  /// Keep the preferred of `best` and `cand` across classes (stage 2 only),
  /// tallying which rule decided.
  void offer(Cand& best, const Cand& cand) {
    if (!best.valid) {
      best = cand;
      return;
    }
    const rules::Decision d = rules::decide(cand.attrs, best.attrs);
    if (d.rule == rules::Rule::HotPotato) ++hot_potato;
    if (d.rule == rules::Rule::Hash) ++tiebreak_hash;
    if (d.first) best = cand;
  }

  /// Install an accepted candidate. `orig` (the node's pre-delta row, null
  /// during a full solve) enables arena-id reuse: when the winning hop is
  /// bitwise the hop the node already had, the old id is kept so the
  /// changed-set diff sees "no change" without materializing paths.
  void accept(Plane& p, const Cand& cand, const SavedRow* orig) {
    std::uint32_t id;
    if (cand.ready != kNoPath) {
      id = cand.ready;
    } else if (orig != nullptr && orig->path != kNoPath &&
               arena.parent_of(orig->path) == cand.parent &&
               arena.asn_of(orig->path) == cand.via &&
               arena.city_of(orig->path) == cand.attrs.last_city) {
      id = orig->path;
    } else {
      id = arena.append(cand.parent, cand.via, cand.attrs.last_city);
    }
    p.set_row(cand.node, id, cand.attrs);
  }

  /// The seeding originations by holder: customer ones seed stage 1, peer
  /// ones stage 2.
  SeedMap seeds_by_holder(std::span<const OriginAttachment> origin_set, bool peer) const {
    SeedMap out;
    for (std::size_t k = 0; k < origin_set.size(); ++k) {
      const OriginAttachment& o = origin_set[k];
      if (!rules::seeds_route(o) || topo::is_peer(o.neighbor_rel) != peer) continue;
      if (const auto idx = graph.index_of(o.neighbor)) out[*idx].push_back(k);
    }
    return out;
  }

  // ---- full solve (byte-identical selections to the historical AoS path)

  void stage1_full() {
    obs::Span stage_span("bgp.solve.customer");
    static obs::Histogram& h_stage =
        obs::MetricsRegistry::global().histogram("bgp.solve.stage_customer_us");
    obs::ScopedTimer stage_timer(h_stage);
    CandHeap heap;
    for (const OriginAttachment& o : origins) {
      if (!rules::seeds_route(o) || topo::is_peer(o.neighbor_rel)) continue;
      const auto idx = graph.index_of(o.neighbor);
      if (!idx) continue;
      const Cand cand = seed_cand(o, *idx);
      heap.push(CandHeapEntry{cand.key(), cand});
    }
    while (!heap.empty()) {
      const Cand cand = heap.top().cand;
      heap.pop();
      if (c.valid(cand.node)) continue;  // finalized with a better key
      accept(c, cand, nullptr);
      for (const topo::Edge& e : nodes[cand.node].edges) {
        if (!e.up || e.rel != topo::Rel::Provider) continue;  // climb only
        const auto nidx = graph.index_of(e.neighbor);
        if (!nidx || c.valid(*nidx)) continue;
        const Cand next = extend_cand(c, cand.node, e, *nidx, RouteClass::Customer);
        heap.push(CandHeapEntry{next.key(), next});
      }
    }
  }

  /// Stage-2 selection for one node, in the AoS solver's candidate order:
  /// direct peer originations (origins order), then peer exports (edge
  /// order), then customer dominance.
  Cand stage2_candidate(std::size_t i) {
    Cand best;
    if (const auto it = peer_seeds.find(i); it != peer_seeds.end()) {
      for (const std::size_t k : it->second) offer(best, seed_cand(origins[k], i));
    }
    for (const topo::Edge& e : nodes[i].edges) {
      if (!e.up || !topo::is_peer(e.rel)) continue;
      const auto nidx = graph.index_of(e.neighbor);
      if (!nidx || !c.valid(*nidx)) continue;
      offer(best, extend_cand(c, *nidx, e, i, class_of(e.rel)));
    }
    if (c.valid(i)) offer(best, adopt_cand(c, i));
    return best;
  }

  void stage2_full() {
    obs::Span stage_span("bgp.solve.peer");
    static obs::Histogram& h_stage =
        obs::MetricsRegistry::global().histogram("bgp.solve.stage_peer_us");
    obs::ScopedTimer stage_timer(h_stage);
    for (std::size_t i = 0; i < n; ++i) {
      const Cand best = stage2_candidate(i);
      if (best.valid) accept(s, best, nullptr);
    }
  }

  void stage3_full() {
    obs::Span stage_span("bgp.solve.provider");
    static obs::Histogram& h_stage =
        obs::MetricsRegistry::global().histogram("bgp.solve.stage_provider_us");
    obs::ScopedTimer stage_timer(h_stage);
    CandHeap heap;
    for (std::size_t i = 0; i < n; ++i) {
      if (!s.valid(i)) continue;
      const Cand cand = adopt_cand(s, i);
      heap.push(CandHeapEntry{cand.key(), cand});
    }
    while (!heap.empty()) {
      const Cand cand = heap.top().cand;
      heap.pop();
      if (f.valid(cand.node)) continue;
      accept(f, cand, nullptr);
      for (const topo::Edge& e : nodes[cand.node].edges) {
        if (!e.up || e.rel != topo::Rel::Customer) continue;  // descend only
        const auto nidx = graph.index_of(e.neighbor);
        if (!nidx || f.valid(*nidx) || s.valid(*nidx)) continue;
        const Cand next = extend_cand(f, cand.node, e, *nidx, RouteClass::Provider);
        heap.push(CandHeapEntry{next.key(), next});
      }
    }
  }

  void full_solve(std::span<const OriginAttachment> origin_set) {
    static obs::Histogram& h_total =
        obs::MetricsRegistry::global().histogram("bgp.solve.total_us");
    obs::Span solve_span("bgp.solve");
    obs::ScopedTimer solve_timer(h_total);
    origins = origin_set;
    peer_seeds = seeds_by_holder(origins, /*peer=*/true);
    hot_potato = 0;
    tiebreak_hash = 0;
    c.reset(n);
    s.reset(n);
    f.reset(n);
    stage1_full();
    stage2_full();
    stage3_full();
    if (obs::enabled()) {
      auto& registry = obs::MetricsRegistry::global();
      registry.counter("bgp.solve.calls").add(1);
      registry.counter("bgp.solve.nodes").add(n);
      registry.counter("bgp.solve.select.hot_potato").add(hot_potato);
      registry.counter("bgp.solve.select.tiebreak_hash").add(tiebreak_hash);
      registry.counter("bgp.solve.arena_nodes").add(arena.size());
    }
  }

  // ---- incremental pass ----------------------------------------------------

  /// Recompute one node's best supported stage-1 candidate from its
  /// current neighborhood (seeds + exports of its customers).
  Cand rhs_customer(std::size_t x) const {
    Cand best;
    if (const auto it = cust_seeds.find(x); it != cust_seeds.end()) {
      for (const std::size_t k : it->second) {
        const Cand cand = seed_cand(origins[k], x);
        if (!best.valid || key_less(cand.key(), best.key())) best = cand;
      }
    }
    for (const topo::Edge& e : nodes[x].edges) {
      if (!e.up || e.rel != topo::Rel::Customer) continue;  // customers export up
      const auto y = graph.index_of(e.neighbor);
      if (!y || !c.valid(*y)) continue;
      const Cand cand = extend_cand(c, *y, e, x, RouteClass::Customer);
      if (!best.valid || key_less(cand.key(), best.key())) best = cand;
    }
    return best;
  }

  /// Recompute one node's best supported stage-3 candidate: its own
  /// stage-2 selection when valid (never overridden by provider routes),
  /// else the best export of its providers.
  Cand rhs_final(std::size_t x) const {
    if (s.valid(x)) return adopt_cand(s, x);
    Cand best;
    for (const topo::Edge& e : nodes[x].edges) {
      if (!e.up || e.rel != topo::Rel::Provider) continue;  // providers export down
      const auto y = graph.index_of(e.neighbor);
      if (!y || !f.valid(*y)) continue;
      const Cand cand = extend_cand(f, *y, e, x, RouteClass::Provider);
      if (!best.valid || key_less(cand.key(), best.key())) best = cand;
    }
    return best;
  }
};

/// Worklist fixpoint over one Dijkstra-shaped plane (stage 1 or stage 3).
/// A node is *inconsistent* when its stored row differs from the best
/// candidate its current neighborhood supports (its "rhs"); inconsistent
/// nodes are processed in global key order — adopt the rhs when it is
/// better than the stored row, retract the row when the row is no longer
/// supported — and every change re-examines the node's importers. The
/// selection keys grow strictly along export chains (length +1 per hop), so
/// the fixpoint is unique and equals the full Dijkstra's; see
/// docs/performance.md for the argument.
class Worklist {
 public:
  enum class Stage { kCustomer, kFinal };

  Worklist(SoaEngine& eng, Stage stage)
      : eng_(eng), p_(stage == Stage::kCustomer ? eng.c : eng.f), stage_(stage) {}

  void touch(std::size_t x) { refresh(x); }

  /// Runs to quiescence. Returns false when the touched frontier exceeds
  /// `touch_budget` (caller falls back to a full solve).
  bool run(std::size_t touch_budget) {
    const std::size_t pop_budget = 16 * eng_.n + 1024;  // safety valve
    std::size_t pops = 0;
    while (!heap_.empty()) {
      const WorkEntry top = heap_.top();
      heap_.pop();
      const std::uint32_t x = top.node;
      const auto rit = rhs_.find(x);
      if (rit == rhs_.end()) continue;
      const Cand rhs = rit->second;  // copy: refresh below may rehash the map
      if (consistent(x, rhs)) continue;
      const Key gk = g_key(x);
      const Key rk = rhs.key();
      const Key cur = key_less(gk, rk) ? gk : rk;
      if (!key_eq(top.key, cur)) {  // stale entry: requeue at the live key
        heap_.push(WorkEntry{cur, x});
        continue;
      }
      if (++pops > pop_budget) return false;
      if (key_less(rk, gk)) {
        // Under-consistent: the neighborhood supports something better (or
        // the row is empty) — adopt it and re-examine importers.
        const SavedRow* orig = save(x);
        eng_.accept(p_, rhs, orig);
      } else {
        // Over-consistent: the stored row is no longer supported — retract
        // it; the node re-decides from whatever remains, and importers that
        // leaned on it cascade.
        save(x);
        p_.clear_row(x);
        refresh(x);
      }
      for_succs(x);
      if (saved_.size() > touch_budget) return false;
    }
    return true;
  }

  const std::unordered_map<std::uint32_t, SavedRow>& saved() const { return saved_; }

  /// Nodes whose row content actually changed, ascending.
  std::vector<std::uint32_t> changed() const {
    std::vector<std::uint32_t> out;
    for (const auto& [x, orig] : saved_) {
      if (row_differs(p_, x, orig)) out.push_back(x);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  const SavedRow* save(std::size_t x) {
    const auto [it, fresh] = saved_.try_emplace(static_cast<std::uint32_t>(x));
    if (fresh) it->second = save_row(p_, x);
    return &it->second;
  }

  void refresh(std::size_t x) {
    const Cand rhs =
        stage_ == Stage::kCustomer ? eng_.rhs_customer(x) : eng_.rhs_final(x);
    const auto [it, inserted] = rhs_.insert_or_assign(static_cast<std::uint32_t>(x), rhs);
    (void)inserted;
    if (!consistent(x, it->second)) {
      const Key gk = g_key(x);
      const Key rk = it->second.key();
      heap_.push(WorkEntry{key_less(gk, rk) ? gk : rk, static_cast<std::uint32_t>(x)});
    }
  }

  void for_succs(std::size_t x) {
    const topo::Rel want =
        stage_ == Stage::kCustomer ? topo::Rel::Provider : topo::Rel::Customer;
    for (const topo::Edge& e : eng_.nodes[x].edges) {
      if (!e.up || e.rel != want) continue;
      if (const auto z = eng_.graph.index_of(e.neighbor)) refresh(*z);
    }
  }

  bool consistent(std::size_t x, const Cand& rhs) const {
    if (!rhs.valid) return !p_.valid(x);
    if (!p_.valid(x)) return false;
    if (p_.site[x] != rhs.attrs.site || p_.cls[x] != rhs.attrs.cls) return false;
    if (rhs.ready != kNoPath) return p_.path[x] == rhs.ready;
    const std::uint32_t id = p_.path[x];
    return eng_.arena.parent_of(id) == rhs.parent && eng_.arena.asn_of(id) == rhs.via &&
           eng_.arena.city_of(id) == rhs.attrs.last_city;
  }

  Key g_key(std::size_t x) const {
    if (!p_.valid(x)) return Key{kInfLen, 0.0, 0, x};
    return Key{p_.len[x], p_.ingress[x], p_.tiebreak[x], x};
  }

  SoaEngine& eng_;
  Plane& p_;
  Stage stage_;
  WorkHeap heap_;
  std::unordered_map<std::uint32_t, Cand> rhs_;
  std::unordered_map<std::uint32_t, SavedRow> saved_;
};

/// The incremental pass over one region. Returns false when any stage blew
/// its frontier budget (caller falls back to a full solve); otherwise
/// `changed` holds the final-plane rows that changed, ascending.
bool incremental_solve(SoaEngine& eng, std::span<const OriginAttachment> origin_set,
                       std::span<const OriginChange> changes,
                       std::span<const LinkDelta> links, std::size_t touch_budget,
                       std::vector<std::uint32_t>& changed, std::size_t& touched) {
  obs::Span span("bgp.solve.delta");
  static obs::Histogram& h_total =
      obs::MetricsRegistry::global().histogram("bgp.delta.solve_us");
  obs::ScopedTimer timer(h_total);

  eng.origins = origin_set;
  eng.cust_seeds = eng.seeds_by_holder(origin_set, /*peer=*/false);
  eng.peer_seeds = eng.seeds_by_holder(origin_set, /*peer=*/true);

  // Classify the link deltas by the relationship of the adjacency: transit
  // links feed stages 1/3, peerings feed stage 2.
  std::vector<std::pair<std::size_t, std::size_t>> transit;  // (customer, provider)
  std::vector<std::pair<std::size_t, std::size_t>> peering;
  for (const LinkDelta& ld : links) {
    const auto ai = eng.graph.index_of(ld.a);
    const auto bi = eng.graph.index_of(ld.b);
    if (!ai || !bi) continue;
    const topo::Edge* edge = nullptr;
    for (const topo::Edge& e : eng.nodes[*ai].edges) {
      if (e.neighbor == ld.b) {
        edge = &e;
        break;
      }
    }
    if (edge == nullptr) continue;
    switch (edge->rel) {
      case topo::Rel::Provider:  // a buys transit from b
        transit.emplace_back(*ai, *bi);
        break;
      case topo::Rel::Customer:  // b buys transit from a
        transit.emplace_back(*bi, *ai);
        break;
      default:
        peering.emplace_back(*ai, *bi);
        break;
    }
  }

  // ---- stage 1: customer-plane fixpoint. Dirty roots: holders of changed
  // customer originations and the provider side of changed transit links
  // (the importer; the customer side's stage-1 candidates never cross the
  // link upward).
  Worklist stage1(eng, Worklist::Stage::kCustomer);
  for (const OriginChange& ch : changes) {
    if (ch.origin.neighbor_rel != topo::Rel::Customer) continue;
    if (const auto idx = eng.graph.index_of(ch.origin.neighbor)) stage1.touch(*idx);
  }
  for (const auto& [cust, prov] : transit) {
    (void)cust;
    stage1.touch(prov);
  }
  if (!stage1.run(touch_budget)) return false;
  const std::vector<std::uint32_t> changed1 = stage1.changed();

  // ---- stage 2: local recompute. A node's peer-plane row depends on its
  // own customer row, its peers' customer rows over up peer edges, its
  // direct peer originations, and peer-edge state.
  std::vector<std::uint32_t> dirty2;
  for (const std::uint32_t x : changed1) {
    dirty2.push_back(x);
    for (const topo::Edge& e : eng.nodes[x].edges) {
      if (!e.up || !topo::is_peer(e.rel)) continue;
      if (const auto z = eng.graph.index_of(e.neighbor)) {
        dirty2.push_back(static_cast<std::uint32_t>(*z));
      }
    }
  }
  for (const auto& [a, b] : peering) {
    dirty2.push_back(static_cast<std::uint32_t>(a));
    dirty2.push_back(static_cast<std::uint32_t>(b));
  }
  for (const OriginChange& ch : changes) {
    if (!topo::is_peer(ch.origin.neighbor_rel)) continue;
    if (const auto idx = eng.graph.index_of(ch.origin.neighbor)) {
      dirty2.push_back(static_cast<std::uint32_t>(*idx));
    }
  }
  std::sort(dirty2.begin(), dirty2.end());
  dirty2.erase(std::unique(dirty2.begin(), dirty2.end()), dirty2.end());
  if (dirty2.size() > touch_budget) return false;

  std::vector<std::uint32_t> changed2;
  std::unordered_map<std::uint32_t, SavedRow> saved2;
  for (const std::uint32_t x : dirty2) {
    const SavedRow orig = save_row(eng.s, x);
    saved2.emplace(x, orig);
    const Cand best = eng.stage2_candidate(x);
    if (best.valid) {
      eng.accept(eng.s, best, &orig);
    } else {
      eng.s.clear_row(x);
    }
    if (row_differs(eng.s, x, orig)) changed2.push_back(x);
  }

  // ---- stage 3: final-plane fixpoint. Dirty roots: stage-2 changes and
  // the customer side of changed transit links (the descent importer).
  Worklist stage3(eng, Worklist::Stage::kFinal);
  for (const std::uint32_t x : changed2) stage3.touch(x);
  for (const auto& [cust, prov] : transit) {
    (void)prov;
    stage3.touch(cust);
  }
  if (!stage3.run(touch_budget)) return false;

  touched = stage1.saved().size() + dirty2.size() + stage3.saved().size();
  changed = stage3.changed();
  return true;
}

}  // namespace delta_detail

// ---- solve_anycast ----------------------------------------------------------

RoutingOutcome solve_anycast(const topo::Graph& graph, Asn cdn_asn,
                             std::span<const OriginAttachment> origins, std::uint64_t seed) {
  namespace dd = delta_detail;
  auto arena = std::make_shared<PathArena>();
  dd::Plane c, s, f;
  dd::SoaEngine engine(graph, cdn_asn, seed, *arena, c, s, f);
  engine.full_solve(origins);
  return RoutingOutcome{&graph, cdn_asn, dd::entries_of(f),
                        std::shared_ptr<const PathArena>(std::move(arena))};
}

// ---- diff_origin_changes ----------------------------------------------------

std::vector<OriginChange> diff_origin_changes(std::span<const OriginAttachment> before,
                                              std::span<const OriginAttachment> after) {
  std::vector<OriginChange> out;
  std::vector<bool> matched(after.size(), false);
  for (const OriginAttachment& b : before) {
    bool found = false;
    for (std::size_t j = 0; j < after.size(); ++j) {
      if (!matched[j] && b == after[j]) {
        matched[j] = true;
        found = true;
        break;
      }
    }
    if (!found) out.push_back(OriginChange{false, b});
  }
  for (std::size_t j = 0; j < after.size(); ++j) {
    if (!matched[j]) out.push_back(OriginChange{true, after[j]});
  }
  return out;
}

// ---- DeltaSolver ------------------------------------------------------------

struct DeltaSolver::RegionState {
  bool primed{false};
  std::uint64_t seed{0};
  std::uint64_t resolve_count{0};
  std::shared_ptr<PathArena> arena;
  delta_detail::Plane c, s, f;  // f is the final selection the outcome reads

  /// Full SoA solve into a fresh (compacted) arena; primes the region.
  void solve_full(const topo::Graph& graph, Asn cdn, std::span<const OriginAttachment> origins) {
    arena = std::make_shared<PathArena>();
    delta_detail::SoaEngine engine(graph, cdn, seed, *arena, c, s, f);
    engine.full_solve(origins);
    primed = true;
  }

  RoutingOutcome outcome(const topo::Graph& graph, Asn cdn) const {
    return RoutingOutcome{&graph, cdn, delta_detail::entries_of(f),
                          std::shared_ptr<const PathArena>(arena)};
  }
};

DeltaSolver::DeltaSolver(const topo::Graph& graph, Asn cdn_asn, std::size_t regions,
                         DeltaConfig cfg)
    : graph_(&graph), cdn_asn_(cdn_asn), cfg_(cfg) {
  regions_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    regions_.push_back(std::make_unique<RegionState>());
  }
}

DeltaSolver::~DeltaSolver() = default;
DeltaSolver::DeltaSolver(DeltaSolver&&) noexcept = default;
DeltaSolver& DeltaSolver::operator=(DeltaSolver&&) noexcept = default;

bool DeltaSolver::primed(std::size_t region) const noexcept {
  return region < regions_.size() && regions_[region]->primed;
}

namespace {

/// Thorough (sampled) differential check: materializes and compares every
/// node's route.
bool outcomes_equal(const topo::Graph& graph, const RoutingOutcome& a,
                    const RoutingOutcome& b) {
  for (const topo::AsNode& node : graph.nodes()) {
    const Route* ra = a.route_for(node.asn);
    const Route* rb = b.route_for(node.asn);
    if ((ra == nullptr) != (rb == nullptr)) return false;
    if (ra == nullptr) continue;
    if (ra->origin_site != rb->origin_site || ra->cls != rb->cls ||
        ra->ingress_km != rb->ingress_km || ra->tiebreak != rb->tiebreak ||
        ra->as_path != rb->as_path || ra->geo_path != rb->geo_path) {
      return false;
    }
  }
  return true;
}

}  // namespace

RoutingOutcome DeltaSolver::prime(std::size_t region,
                                  std::span<const OriginAttachment> origins,
                                  std::uint64_t seed, DeltaStats* stats) {
  RegionState& st = *regions_[region];
  st.seed = seed;
  st.solve_full(*graph_, cdn_asn_, origins);
  if (stats != nullptr) {
    ++stats->regions;
    ++stats->full_regions;
  }
  return st.outcome(*graph_, cdn_asn_);
}

RoutingOutcome DeltaSolver::resolve(std::size_t region,
                                    std::span<const OriginAttachment> origins,
                                    std::span<const OriginChange> changes,
                                    std::span<const LinkDelta> links, DeltaStats* stats,
                                    ChangedRows* changed) {
  namespace dd = delta_detail;
  RegionState& st = *regions_[region];
  if (!st.primed) {
    throw std::logic_error("DeltaSolver::resolve: region " + std::to_string(region) +
                           " was never primed");
  }
  const std::size_t n = graph_->nodes().size();
  DeltaStats local;
  local.regions = 1;
  ChangedRows rows;

  const std::size_t budget = std::max<std::size_t>(
      64, static_cast<std::size_t>(dd::kFallbackFrac * static_cast<double>(n)));
  // Re-prime (compacting the arena) when accumulated splice garbage
  // dominates the live paths.
  bool full = st.arena->size() > 32 * n + 4096;
  if (!full) {
    dd::SoaEngine engine(*graph_, cdn_asn_, st.seed, *st.arena, st.c, st.s, st.f);
    std::size_t touched = 0;
    if (dd::incremental_solve(engine, origins, changes, links, budget, rows.rows, touched)) {
      local.delta_regions = 1;
      local.touched_ases = touched;
    } else {
      full = true;
    }
  }
  if (full) {
    st.solve_full(*graph_, cdn_asn_, origins);
    local.full_regions = 1;
    rows = ChangedRows{.all = true, .rows = {}};
  }

  RoutingOutcome out = st.outcome(*graph_, cdn_asn_);

  if (cfg_.verify_every != 0 && ++st.resolve_count % cfg_.verify_every == 0) {
    local.verified = 1;
    const RoutingOutcome fresh = solve_anycast(*graph_, cdn_asn_, origins, st.seed);
    if (!outcomes_equal(*graph_, out, fresh)) {
      // Self-heal: discard the incremental state and use the from-scratch
      // result; the mismatch is surfaced through stats/counters.
      local.mismatches = 1;
      st.solve_full(*graph_, cdn_asn_, origins);
      out = st.outcome(*graph_, cdn_asn_);
      rows = ChangedRows{.all = true, .rows = {}};
    }
  }
  local.affected_ases = rows.rows.size();

  if (obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("bgp.delta.resolves").add(1);
    if (local.delta_regions != 0) {
      registry.counter("bgp.delta.affected_ases").add(local.affected_ases);
      registry.histogram("bgp.delta.affected_ases")
          .record(static_cast<double>(local.affected_ases));
    }
    if (local.full_regions != 0) registry.counter("bgp.delta.fallback_full").add(1);
    if (local.verified != 0) registry.counter("bgp.delta.verified").add(1);
    if (local.mismatches != 0) registry.counter("bgp.delta.verify_mismatch").add(1);
  }
  if (stats != nullptr) stats->merge(local);
  if (changed != nullptr) *changed = std::move(rows);
  return out;
}

std::unique_ptr<DeltaSolver> DeltaSolver::clone() const {
  auto out = std::make_unique<DeltaSolver>(*graph_, cdn_asn_, regions_.size(), cfg_);
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const RegionState& src = *regions_[r];
    RegionState& dst = *out->regions_[r];
    dst.primed = src.primed;
    dst.seed = src.seed;
    dst.resolve_count = src.resolve_count;
    // Deep-copy the arena: the clone appends independently, and arena node
    // ids (shared with the copied planes) stay valid because the copy has
    // identical contents.
    dst.arena = src.arena ? std::make_shared<PathArena>(*src.arena) : nullptr;
    dst.c = src.c;
    dst.s = src.s;
    dst.f = src.f;
  }
  return out;
}

}  // namespace ranycast::bgp
