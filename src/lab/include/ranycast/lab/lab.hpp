// The measurement laboratory: a façade tying the synthetic Internet, the
// probe platform, the geolocation databases and the CDN deployments
// together, and exposing the measurement primitives the paper's
// methodology is built from (DNS lookups, pings, traceroutes).
//
// Typical use:
//   auto lab = Lab::create({});
//   const auto& im6 = lab.add_deployment(cdn::catalog::imperva6());
//   auto ans = lab.dns_lookup(probe, im6, dns::QueryMode::Ldns);
//   auto rtt = lab.ping(probe, ans.address);
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ranycast/atlas/census.hpp"
#include "ranycast/bgp/delta_solver.hpp"
#include "ranycast/bgp/path_metrics.hpp"
#include "ranycast/bgp/solver.hpp"
#include "ranycast/cdn/builder.hpp"
#include "ranycast/cdn/deployment.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/dns/geo_database.hpp"
#include "ranycast/topo/generator.hpp"
#include "ranycast/topo/ip_registry.hpp"

namespace ranycast::lab {

/// A deployment plus its solved per-region routing.
struct DeploymentHandle {
  cdn::Deployment deployment;
  std::vector<bgp::RoutingOutcome> outcomes;  ///< one per region
  /// Retained incremental-solver state (selection planes per region).
  /// Null until the first Lab::resolve_delta or add_deployment_derived on
  /// this handle, which create it with no region primed; a region is primed
  /// (solved in full) the first time an event touches it. A derived handle
  /// keeps none.
  std::unique_ptr<bgp::DeltaSolver> delta;

  const bgp::Route* route_for(Asn client, std::size_t region) const {
    return outcomes[region].route_for(client);
  }
  /// The site a client AS reaches on a region's prefix, nullopt if
  /// unreachable. Never materializes a Route.
  std::optional<SiteId> catchment(Asn client, std::size_t region) const {
    return outcomes[region].catchment(client);
  }
};

/// Measurement-plane degradation (chaos engine): per-attempt packet loss on
/// the active probing paths and resolver timeouts on DNS, with a bounded
/// deterministic retry/backoff policy. Loss decisions are pure hashes of
/// (seed, probe, target, attempt), so a degraded run is exactly reproducible
/// and independent measurements do not perturb each other.
struct MeasurementFaults {
  /// Per-attempt loss probability for ping/traceroute packets.
  double ping_loss_prob{0.0};
  /// Per-attempt timeout probability for DNS resolutions.
  double dns_timeout_prob{0.0};
  /// Retries after the first attempt (total attempts = 1 + max_retries).
  int max_retries{2};
  /// Exponential backoff: attempt k waits backoff_base_ms * 2^k after a
  /// loss. Accounted in telemetry (wasted wall time), never added to RTTs —
  /// a retried ping still measures the true network RTT.
  double backoff_base_ms{50.0};
  std::uint64_t seed{0xFA117};

  bool active() const noexcept { return ping_loss_prob > 0.0 || dns_timeout_prob > 0.0; }
  bool operator==(const MeasurementFaults&) const = default;
};

/// MeasurementFaults' field list (core/fields.hpp): a measurement_degrade event's.
template <core::RecordOf<MeasurementFaults> Self, typename F>
void for_each_field(Self& m, F&& f) {
  f("ping_loss_prob", m.ping_loss_prob);
  f("dns_timeout_prob", m.dns_timeout_prob);
  f("max_retries", m.max_retries);
  f("backoff_base_ms", m.backoff_base_ms);
  f("seed", m.seed);
}

/// One retained probe's row of a measurement pass (Lab::measure), by value:
/// a re-solve frees the routes of the previous pass.
struct Measurement {
  std::uint32_t address{0};  ///< the deployment address DNS handed the probe
  std::uint16_t region{0};   ///< regional prefix index the answer came from
  std::uint16_t site{0};     ///< catchment site (kInvalidSite when unrouted)
  double rtt_ms{0.0};        ///< measured RTT (0 when unrouted or lost)
  bool routed{false};        ///< probe's AS holds a route to the answer
  bool degraded{false};      ///< DNS served the fallback region
  bool ping_lost{false};     ///< routed, but the ping measured nothing

  bool operator==(const Measurement&) const = default;
};
static_assert(sizeof(Measurement) == 24);

struct LabConfig {
  std::uint64_t seed{2023};
  /// Process-wide observability override applied by Lab::create: nullopt
  /// leaves the RANYCAST_OBS environment setting alone, true/false forces
  /// obs::set_enabled. See docs/observability.md.
  std::optional<bool> observability{};
  topo::GeneratorParams world;
  atlas::CensusConfig census;
  bgp::LatencyModel latency;
  /// Error profiles of the three commercial-style geolocation databases.
  std::array<dns::GeoDatabase::Config, 3> geo_dbs{
      dns::GeoDatabase::Config{"maxmind-like", 0.012, 0.80, 0.20, 101},
      dns::GeoDatabase::Config{"ipinfo-like", 0.022, 0.75, 0.25, 202},
      dns::GeoDatabase::Config{"edgescape-like", 0.017, 0.85, 0.22, 303},
  };

  bool operator==(const LabConfig&) const = default;
};

/// LabConfig's field list (core/fields.hpp): a lab config file's schema.
template <core::RecordOf<LabConfig> Self, typename F>
void for_each_field(Self& c, F&& f) {
  f("seed", c.seed);
  f("observability", c.observability);
  f("world", c.world);
  f("census", c.census);
  f("latency", c.latency);
  f("geo_dbs", c.geo_dbs);
}

class Lab {
 public:
  static Lab create(const LabConfig& config);

  // The geolocation databases hold pointers into this object (registry_,
  // world graph); moving would leave them dangling. Construction via
  // create() relies on guaranteed copy elision.
  Lab(const Lab&) = delete;
  Lab& operator=(const Lab&) = delete;
  Lab(Lab&&) = delete;
  Lab& operator=(Lab&&) = delete;

  const topo::World& world() const noexcept { return *world_; }
  /// Mutable topology access for fault injection. After mutating the graph
  /// (link state, route-server state), previously solved deployment handles
  /// hold stale routes until re-solved with `resolve_delta()`, told which
  /// adjacencies moved.
  topo::Graph& graph_mut() noexcept { return world_->graph; }
  topo::IpRegistry& registry() noexcept { return registry_; }
  const atlas::ProbeCensus& census() const noexcept { return census_; }
  const bgp::LatencyModel& latency() const noexcept { return config_.latency; }
  const LabConfig& config() const noexcept { return config_; }

  /// The i-th commercial-style geolocation database (0..2).
  const dns::GeoDatabase& db(std::size_t i) const { return *geo_dbs_[i]; }
  /// Mutable access for fault injection (staleness/outage).
  dns::GeoDatabase& db_mut(std::size_t i) { return *geo_dbs_[i]; }
  /// The database CDN operators' DNS mapping uses.
  const dns::GeoDatabase& mapping_db() const { return *geo_dbs_[0]; }

  /// Build a deployment and solve BGP for each of its regional prefixes.
  /// The returned reference stays valid for the Lab's lifetime.
  const DeploymentHandle& add_deployment(const cdn::DeploymentSpec& spec);

  /// Register an already-constructed deployment (e.g. a programmatically
  /// transformed one) and solve its regional prefixes.
  const DeploymentHandle& add_deployment(cdn::Deployment deployment);

  /// Mutable access to a registered deployment handle (fault injection
  /// mutates announcement state in place). `handle` must have been returned
  /// by add_deployment on this Lab; returns nullptr otherwise.
  DeploymentHandle* handle_mut(const DeploymentHandle& handle) noexcept;

  // ---- re-solving after a mutation (see bgp/delta_solver.hpp) ----

  /// The in-engine checker of every later-created solver: with
  /// verify_every = N, every Nth re-solve of a region is compared against a
  /// scratch solve (and self-heals on mismatch). Deliberately outside
  /// LabConfig: checking changes no result, so it must not enter config
  /// fingerprints (chaos resume compares them).
  void set_delta_config(const bgp::DeltaConfig& cfg) noexcept { delta_cfg_ = cfg; }

  /// Re-solve a registered deployment in place after a mutation described
  /// by `delta` (the graph and announcement changes already applied), with
  /// the same per-region tie-break salts as add_deployment — the operation
  /// the chaos engine is built on. A region re-solves only when the delta
  /// has a link change or an origin change of that region; every other
  /// region keeps its outcome object, so route_for() pointers into it stay
  /// valid (those into re-solved regions are invalidated). A touched region
  /// is primed (solved in full) the first time, then re-decides only the
  /// ASes the delta can affect; outcomes are byte-identical to a
  /// from-scratch solve. Returns the accounting of the regions re-solved.
  /// `changed` (if given) receives one entry per region: the rows whose
  /// route the re-solve changed (bgp::DeltaSolver::resolve) and no rows for
  /// an untouched region. A region solved in full — a first-touch prime, a
  /// fallback or a verifier self-heal — renumbers every path in a fresh
  /// arena, so it lists the rows whose route content differs from the
  /// outcome it replaces (RoutingOutcome::rows_differing_from); it never
  /// reports `all`. The returned accounting is the solver's, unchanged.
  bgp::DeltaStats resolve_delta(DeploymentHandle& handle, const bgp::SolveDelta& delta,
                                std::vector<bgp::ChangedRows>* changed = nullptr) const;

  /// Register a deployment derived from `base` by `delta` (e.g. a site
  /// failure: resilience::fail_site): primes every base region not yet
  /// primed, then splices `delta` into a copy of base's selection planes
  /// instead of solving every region from scratch. `base`'s outcomes are
  /// left untouched. The derived handle keeps no solver (`delta` is null).
  /// Falls back to add_deployment when `base` is not registered here or
  /// the region sets or origin ASes differ.
  const DeploymentHandle& add_deployment_derived(const DeploymentHandle& base,
                                                 cdn::Deployment deployment,
                                                 const bgp::SolveDelta& delta);

  // ---- measurement-plane degradation (chaos engine) ----

  void set_measurement_faults(std::optional<MeasurementFaults> faults) noexcept {
    measurement_faults_ = faults;
  }

  /// Solve an ad-hoc origination (used for per-site unicast emulation).
  bgp::RoutingOutcome solve_origins(Asn cdn_asn,
                                    std::span<const bgp::OriginAttachment> origins,
                                    std::uint64_t salt = 0) const;

  /// The solver tie-break seed for `salt`: the lab seed combined with it.
  /// Region r of a registered deployment is solved with salt r, and the
  /// convergence plane seeds region r's simulator the same way.
  std::uint64_t tiebreak_seed(std::uint64_t salt) const noexcept {
    return hash_combine(config_.seed, salt);
  }

  // ---- measurement primitives ----

  struct DnsAnswer {
    std::size_t region;
    Ipv4Addr address;
    /// True when the answer came from the degraded path: every resolution
    /// attempt timed out (measurement faults) and the authoritative logic
    /// served its fallback region instead of a geo-mapped one.
    bool degraded{false};
  };

  /// Resolve a deployment-served hostname from a probe. Maps from the
  /// address truth the census resolved for it (atlas::ProbeCensus::dns_truth);
  /// throws std::invalid_argument for a probe this lab's census did not draw.
  DnsAnswer dns_lookup(const atlas::Probe& probe, const DeploymentHandle& handle,
                       dns::QueryMode mode) const;

  /// Ping any address inside a registered deployment's regional prefix.
  /// `salt` perturbs the measurement noise (per-hostname variation).
  /// Returns nullopt when the probe's AS has no route.
  std::optional<Rtt> ping(const atlas::Probe& probe, Ipv4Addr address,
                          std::uint64_t salt = 0) const;

  /// Traceroute from a probe to an address in a registered deployment.
  std::optional<bgp::TracerouteResult> traceroute(const atlas::Probe& probe,
                                                  Ipv4Addr address) const;

  // ---- batch measurement fan-out ----
  //
  // The batch variants answer the same question as N calls of the scalar
  // primitive — slot i holds exactly what the scalar call for probes[i]
  // would have returned — but fan the probes out over the deterministic
  // thread pool (ranycast::exec). Telemetry counters are recorded with the
  // same totals; only their interleaving differs.

  /// dns_lookup for every probe. Safe concurrently: resolution is pure in
  /// (probe, deployment, databases).
  std::vector<DnsAnswer> dns_lookup_all(std::span<const atlas::Probe* const> probes,
                                        const DeploymentHandle& handle,
                                        dns::QueryMode mode) const;

  /// ping for every probe against one address.
  std::vector<std::optional<Rtt>> ping_all(std::span<const atlas::Probe* const> probes,
                                           Ipv4Addr address, std::uint64_t salt = 0) const;

  /// traceroute for every probe against one address. A serial prepass warms
  /// the IP registry in the exact order the sequential loop would have
  /// touched it (first touch fixes an AS's block ordinal), then the hop
  /// synthesis fans out read-only.
  std::vector<std::optional<bgp::TracerouteResult>> traceroute_all(
      std::span<const atlas::Probe* const> probes, Ipv4Addr address) const;

  /// The measurement pass (§4–§5): row i is retained probe i's LDNS
  /// answer, the catchment site of the answered prefix and the ping to it.
  /// Rows are pure in (probe, lab state), so the pool fan-out gives the
  /// same rows at any worker count. `rows` is resized and fully rewritten.
  void measure(const DeploymentHandle& handle, std::vector<Measurement>& rows) const;
  /// Redo route lookup and ping for the listed rows only; their DNS
  /// answers stand.
  void remeasure(const DeploymentHandle& handle, std::vector<Measurement>& rows,
                 std::span<const std::uint32_t> which) const;

  /// Catchment site of a probe for an address (nullopt if unreachable or
  /// the address is not registered).
  std::optional<SiteId> catchment_of(const atlas::Probe& probe, Ipv4Addr address) const;

  /// Which (deployment, region) an address belongs to: the first
  /// registered deployment whose regional prefix holds it.
  struct AddressInfo {
    const DeploymentHandle* handle;
    std::size_t region;
  };
  std::optional<AddressInfo> locate_address(Ipv4Addr address) const;

 private:
  explicit Lab(const LabConfig& config);
  /// Register a built handle: keep it and list its regional prefixes.
  const DeploymentHandle& register_handle(DeploymentHandle handle);

  /// One regional prefix of a registered deployment.
  struct AddressEntry {
    Prefix prefix;
    AddressInfo info;
  };

  LabConfig config_;
  std::unique_ptr<topo::World> world_;
  mutable topo::IpRegistry registry_;
  atlas::ProbeCensus census_;
  std::array<std::unique_ptr<dns::GeoDatabase>, 3> geo_dbs_;
  std::deque<DeploymentHandle> deployments_;  // deque: stable references
  /// Every registered regional prefix, in registration order.
  std::vector<AddressEntry> addresses_;
  std::optional<MeasurementFaults> measurement_faults_;
  bgp::DeltaConfig delta_cfg_;
};

}  // namespace ranycast::lab
