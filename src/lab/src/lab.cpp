#include "ranycast/lab/lab.hpp"

#include <stdexcept>
#include <string>

#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::lab {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

double hash01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic per-attempt loss decision.
bool attempt_lost(const MeasurementFaults& f, std::uint64_t tag, ProbeId probe,
                  std::uint64_t target, int attempt, double prob) noexcept {
  const std::uint64_t h = mix64(hash_combine(
      hash_combine(hash_combine(hash_combine(f.seed, tag), value(probe)), target),
      static_cast<std::uint64_t>(attempt)));
  return hash01(h) < prob;
}

/// A fault-gated measurement primitive: its decision stream tag (separating
/// the primitives, so a ping loss does not imply a DNS timeout for the same
/// probe/target pair), its per-attempt loss probability and the counters of
/// its lost attempts and of its give-ups.
struct FaultGate {
  std::uint64_t tag;
  double MeasurementFaults::*prob;
  const char* lost;
  const char* gaveup;
};

constexpr FaultGate kDnsGate{0xD235, &MeasurementFaults::dns_timeout_prob,
                             "lab.dns_lookup.fault_timeouts", "lab.dns_lookup.fault_fallbacks"};
constexpr FaultGate kPingGate{0x1C39, &MeasurementFaults::ping_loss_prob,
                              "lab.ping.fault_lost_attempts", "lab.ping.fault_gaveup"};
constexpr FaultGate kTraceGate{0x7A3C, &MeasurementFaults::ping_loss_prob,
                               "lab.traceroute.fault_lost_attempts",
                               "lab.traceroute.fault_gaveup"};

/// The fault gate of one measurement towards `target`: the bounded
/// retry/backoff loop, false when every attempt was lost. Lost attempts,
/// their backoff and the give-up are recorded under the gate's names; one
/// instantiation per gate registers its counters on first faulted use.
/// Shared by the scalar and batch primitives so both make the same fault
/// decisions and record the same telemetry.
template <const FaultGate& G>
bool answers(const std::optional<MeasurementFaults>& faults, ProbeId probe,
             std::uint64_t target) {
  const double prob = faults ? (*faults).*G.prob : 0.0;
  if (prob <= 0.0) return true;
  static obs::Counter& lost = metrics().counter(G.lost);
  static obs::Counter& gaveup = metrics().counter(G.gaveup);
  static obs::Histogram& backoff = metrics().histogram("lab.fault.backoff_ms", obs::kRttMsBounds);
  for (int attempt = 0; attempt <= faults->max_retries; ++attempt) {
    if (!attempt_lost(*faults, G.tag, probe, target, attempt, prob)) return true;
    lost.add();
    backoff.record(faults->backoff_base_ms * static_cast<double>(1u << attempt));
  }
  gaveup.add();
  return false;
}

/// Solve every region of a deployment concurrently. Region r's outcome
/// depends only on (graph, origins_for_region(r), salt r), so each worker
/// writes its own slot and the assembled vector is independent of the thread
/// count and of which region finished first.
std::vector<bgp::RoutingOutcome> solve_regions(const Lab& laboratory,
                                               const cdn::Deployment& dep) {
  const std::size_t count = dep.regions().size();
  std::vector<std::optional<bgp::RoutingOutcome>> slots(count);
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    slots[r].emplace(laboratory.solve_origins(dep.asn(), dep.origins_for_region(r), r));
  });
  std::vector<bgp::RoutingOutcome> outcomes;
  outcomes.reserve(count);
  for (auto& slot : slots) outcomes.push_back(std::move(*slot));
  return outcomes;
}

/// The handle's incremental solver, created with no region primed on first
/// use.
bgp::DeltaSolver& solver_of(const Lab& laboratory, DeploymentHandle& handle,
                            const bgp::DeltaConfig& cfg) {
  if (!handle.delta) {
    handle.delta = std::make_unique<bgp::DeltaSolver>(
        laboratory.world().graph, handle.deployment.asn(), handle.deployment.regions().size(),
        cfg);
  }
  return *handle.delta;
}

/// Prime region r of `solver` from `dep`'s current origins with the salt
/// add_deployment solved it with, unless it is primed already. Returns the
/// primed outcome, nullopt when nothing ran.
std::optional<bgp::RoutingOutcome> prime_if_needed(const Lab& laboratory,
                                                   bgp::DeltaSolver& solver,
                                                   const cdn::Deployment& dep, std::size_t r,
                                                   bgp::DeltaStats* stats = nullptr) {
  if (solver.primed(r)) return std::nullopt;
  return solver.prime(r, dep.origins_for_region(r), laboratory.tiebreak_seed(r), stats);
}

/// Route lookup and ping of one row against the DNS answer it holds.
void route_and_ping(const Lab& laboratory, const DeploymentHandle& handle,
                    const atlas::Probe& probe, Measurement& row) {
  const auto site = handle.catchment(probe.asn, row.region);
  const auto rtt = site ? laboratory.ping(probe, Ipv4Addr{row.address}) : std::nullopt;
  row.site = value(site.value_or(kInvalidSite));
  row.rtt_ms = rtt ? rtt->ms : 0.0;
  row.routed = site.has_value();
  row.ping_lost = site && !rtt;
}

}  // namespace

Lab::Lab(const LabConfig& config) : config_(config) {
  obs::Span create_span("lab.create");
  static obs::Histogram& h_total = metrics().histogram("lab.create.total_us");
  obs::ScopedTimer create_timer(h_total);
  {
    obs::Span span("lab.create.topology");
    static obs::Histogram& h = metrics().histogram("lab.create.topology_us");
    obs::ScopedTimer timer(h);
    world_ = std::make_unique<topo::World>(topo::generate_world(config.world));
  }
  {
    obs::Span span("lab.create.census");
    static obs::Histogram& h = metrics().histogram("lab.create.census_us");
    obs::ScopedTimer timer(h);
    census_ = atlas::ProbeCensus::generate(*world_, registry_, config.census);
  }
  {
    obs::Span span("lab.create.geodb");
    static obs::Histogram& h = metrics().histogram("lab.create.geodb_us");
    obs::ScopedTimer timer(h);
    for (std::size_t i = 0; i < geo_dbs_.size(); ++i) {
      geo_dbs_[i] =
          std::make_unique<dns::GeoDatabase>(config.geo_dbs[i], &world_->graph, &registry_);
    }
  }
  static obs::Counter& creates = metrics().counter("lab.create.calls");
  creates.add();
}

Lab Lab::create(const LabConfig& config) {
  if (config.observability) obs::set_enabled(*config.observability);
  return Lab{config};
}

const DeploymentHandle& Lab::add_deployment(const cdn::DeploymentSpec& spec) {
  return add_deployment(cdn::build_deployment(spec, *world_, registry_));
}

const DeploymentHandle& Lab::add_deployment(cdn::Deployment deployment) {
  obs::Span span("lab.add_deployment");
  DeploymentHandle handle{std::move(deployment), {}, nullptr};
  const auto& dep = handle.deployment;
  handle.outcomes = solve_regions(*this, dep);
  static obs::Counter& deployments = metrics().counter("lab.deployments");
  static obs::Counter& regions = metrics().counter("lab.regions_solved");
  deployments.add();
  regions.add(dep.regions().size());
  return register_handle(std::move(handle));
}

const DeploymentHandle& Lab::register_handle(DeploymentHandle handle) {
  const DeploymentHandle& kept = deployments_.emplace_back(std::move(handle));
  const auto regions = kept.deployment.regions();
  for (std::size_t r = 0; r < regions.size(); ++r) {
    addresses_.push_back(AddressEntry{regions[r].prefix, AddressInfo{&kept, r}});
  }
  return kept;
}

DeploymentHandle* Lab::handle_mut(const DeploymentHandle& handle) noexcept {
  for (DeploymentHandle& h : deployments_) {
    if (&h == &handle) return &h;
  }
  return nullptr;
}

bgp::DeltaStats Lab::resolve_delta(DeploymentHandle& handle, const bgp::SolveDelta& delta,
                                   std::vector<bgp::ChangedRows>* changed) const {
  obs::Span span("lab.resolve_delta");
  static obs::Histogram& h_resolve = metrics().histogram("lab.resolve.total_us");
  obs::ScopedTimer timer(h_resolve);
  const cdn::Deployment& dep = handle.deployment;
  const std::size_t count = dep.regions().size();
  bgp::DeltaSolver& solver = solver_of(*this, handle, delta_cfg_);
  std::vector<bgp::DeltaStats> stats(count);
  std::vector<std::optional<bgp::RoutingOutcome>> slots(count);
  if (changed != nullptr) changed->assign(count, bgp::ChangedRows{});
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    if (!delta.touches(r)) return;  // untouched: keeps its outcome, stays unprimed
    bgp::ChangedRows* rows = changed != nullptr ? &(*changed)[r] : nullptr;
    slots[r] = prime_if_needed(*this, solver, dep, r, &stats[r]);
    const bool primed = slots[r].has_value();  // from the post-delta origins
    if (!primed) {
      slots[r].emplace(solver.resolve(r, dep.origins_for_region(r), delta.origin_changes(r),
                                      delta.links, &stats[r], rows));
    }
    // A full solve (a first-touch prime, a fallback or a verifier self-heal)
    // renumbers every path in a fresh arena; list the rows whose route
    // content differs from the outcome it replaces instead.
    if (rows != nullptr && (primed || rows->all)) {
      *rows = bgp::ChangedRows{.all = false,
                               .rows = slots[r]->rows_differing_from(handle.outcomes[r])};
    }
  });
  bgp::DeltaStats merged;
  for (std::size_t r = 0; r < count; ++r) {
    if (slots[r]) handle.outcomes[r] = std::move(*slots[r]);
    merged.merge(stats[r]);
  }
  static obs::Counter& resolves = metrics().counter("lab.resolves");
  resolves.add();
  return merged;
}

const DeploymentHandle& Lab::add_deployment_derived(const DeploymentHandle& base,
                                                    cdn::Deployment deployment,
                                                    const bgp::SolveDelta& delta) {
  DeploymentHandle* base_mut = handle_mut(base);
  const std::size_t count = deployment.regions().size();
  if (base_mut == nullptr || base.deployment.regions().size() != count ||
      base.deployment.asn() != deployment.asn()) {
    return add_deployment(std::move(deployment));
  }
  obs::Span span("lab.add_deployment_derived");
  // The clone must carry every region primed: resolve() needs the region's
  // tie-break seed, which only prime() records. Priming leaves base's
  // published outcomes untouched (the primed ones are byte-identical).
  bgp::DeltaSolver& base_solver = solver_of(*this, *base_mut, delta_cfg_);
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    prime_if_needed(*this, base_solver, base.deployment, r);
  });
  const std::unique_ptr<bgp::DeltaSolver> solver = base_solver.clone();
  DeploymentHandle handle{std::move(deployment), {}, nullptr};
  const cdn::Deployment& dep = handle.deployment;
  std::vector<std::optional<bgp::RoutingOutcome>> slots(count);
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    slots[r].emplace(
        solver->resolve(r, dep.origins_for_region(r), delta.origin_changes(r), delta.links));
  });
  handle.outcomes.reserve(count);
  for (std::size_t r = 0; r < count; ++r) handle.outcomes.push_back(std::move(*slots[r]));
  static obs::Counter& deployments = metrics().counter("lab.deployments");
  static obs::Counter& regions = metrics().counter("lab.regions_solved");
  static obs::Counter& derived = metrics().counter("lab.deployments_derived");
  deployments.add();
  regions.add(count);
  derived.add();
  return register_handle(std::move(handle));
}

bgp::RoutingOutcome Lab::solve_origins(Asn cdn_asn,
                                       std::span<const bgp::OriginAttachment> origins,
                                       std::uint64_t salt) const {
  return bgp::solve_anycast(world_->graph, cdn_asn, origins, tiebreak_seed(salt));
}

std::optional<Lab::AddressInfo> Lab::locate_address(Ipv4Addr address) const {
  for (const AddressEntry& e : addresses_) {
    if (e.prefix.contains(address)) return e.info;
  }
  return std::nullopt;
}

Lab::DnsAnswer Lab::dns_lookup(const atlas::Probe& probe, const DeploymentHandle& handle,
                               dns::QueryMode mode) const {
  static obs::Counter& calls = metrics().counter("lab.dns_lookup.calls");
  static obs::Histogram& wall = metrics().histogram("lab.dns_lookup.wall_us");
  calls.add();
  obs::ScopedTimer timer(wall);
  const dns::AddressTruth* truth = census_.dns_truth(probe, mode);
  if (truth == nullptr) {
    throw std::invalid_argument("lab: probe " + std::to_string(value(probe.id)) +
                                " was not drawn by this lab's census");
  }
  const Ipv4Addr fallback = handle.deployment.regions()[0].service_ip;
  if (!answers<kDnsGate>(measurement_faults_, probe.id, fallback.bits())) {
    // Every resolution attempt timed out: the client is served the stale
    // fallback record (region 0, mirroring map_client's unknown-address
    // fallback) instead of a geo-mapped answer.
    return DnsAnswer{0, fallback, true};
  }
  const std::size_t region = handle.deployment.map_client(*truth, mapping_db());
  return DnsAnswer{region, handle.deployment.regions()[region].service_ip, false};
}

std::optional<Rtt> Lab::ping(const atlas::Probe& probe, Ipv4Addr address,
                             std::uint64_t salt) const {
  static obs::Counter& calls = metrics().counter("lab.ping.calls");
  static obs::Counter& unreachable = metrics().counter("lab.ping.unreachable");
  static obs::Histogram& wall = metrics().histogram("lab.ping.wall_us");
  static obs::Histogram& rtt_hist =
      metrics().histogram("lab.ping.rtt_ms", obs::kRttMsBounds);
  calls.add();
  obs::ScopedTimer timer(wall);
  // The probe pings from its own AS, so the route's holder is the client.
  std::optional<Rtt> rtt;
  if (const auto info = locate_address(address)) {
    rtt = info->handle->outcomes[info->region].path_rtt(probe.asn, probe.city, config_.latency,
                                                        probe.access_extra_ms);
  }
  if (!rtt) {
    unreachable.add();
    return std::nullopt;
  }
  if (!answers<kPingGate>(measurement_faults_, probe.id, hash_combine(address.bits(), salt))) {
    return std::nullopt;  // every attempt lost: the probe reports failure
  }
  if (salt != 0) {
    // Per-hostname measurement perturbation (used for the Appendix C
    // generalization study): sub-millisecond deterministic noise.
    const std::uint64_t h = mix64(hash_combine(hash_combine(salt, value(probe.id)),
                                               address.bits()));
    *rtt += Rtt{static_cast<double>(h >> 11) * 0x1.0p-53 * 1.0};
  }
  rtt_hist.record(rtt->ms);
  return rtt;
}

std::optional<bgp::TracerouteResult> Lab::traceroute(const atlas::Probe& probe,
                                                     Ipv4Addr address) const {
  static obs::Counter& calls = metrics().counter("lab.traceroute.calls");
  static obs::Histogram& wall = metrics().histogram("lab.traceroute.wall_us");
  calls.add();
  obs::ScopedTimer timer(wall);
  const auto info = locate_address(address);
  if (!info) return std::nullopt;
  const bgp::Route* route = info->handle->route_for(probe.asn, info->region);
  if (route == nullptr) return std::nullopt;
  if (!answers<kTraceGate>(measurement_faults_, probe.id, address.bits())) return std::nullopt;
  const cdn::Site& site = info->handle->deployment.site(route->origin_site);
  return bgp::synth_traceroute(*route, probe.city, probe.asn, probe.access_extra_ms,
                               site.onsite_router, address, config_.latency, registry_);
}

std::vector<Lab::DnsAnswer> Lab::dns_lookup_all(std::span<const atlas::Probe* const> probes,
                                                const DeploymentHandle& handle,
                                                dns::QueryMode mode) const {
  obs::Span span("lab.dns_lookup_all");
  std::vector<DnsAnswer> out(probes.size());
  exec::ThreadPool::global().parallel_for(probes.size(), [&](std::size_t i) {
    out[i] = dns_lookup(*probes[i], handle, mode);
  });
  return out;
}

std::vector<std::optional<Rtt>> Lab::ping_all(std::span<const atlas::Probe* const> probes,
                                              Ipv4Addr address, std::uint64_t salt) const {
  obs::Span span("lab.ping_all");
  std::vector<std::optional<Rtt>> out(probes.size());
  exec::ThreadPool::global().parallel_for(probes.size(), [&](std::size_t i) {
    out[i] = ping(*probes[i], address, salt);
  });
  return out;
}

std::vector<std::optional<bgp::TracerouteResult>> Lab::traceroute_all(
    std::span<const atlas::Probe* const> probes, Ipv4Addr address) const {
  obs::Span span("lab.traceroute_all");
  std::vector<std::optional<bgp::TracerouteResult>> out(probes.size());
  static obs::Counter& calls = metrics().counter("lab.traceroute.calls");
  const auto info = locate_address(address);
  if (!info) {
    calls.add(probes.size());
    return out;
  }

  // Serial prepass: decide which probes measure (recording the fault
  // telemetry the scalar path would) and touch the registry in the exact
  // hop order of the sequential loop — first touch assigns an AS's block
  // ordinal, so this order must not depend on the thread count.
  std::vector<const bgp::Route*> routes(probes.size(), nullptr);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const atlas::Probe& probe = *probes[i];
    calls.add();
    const bgp::Route* route = info->handle->route_for(probe.asn, info->region);
    if (route == nullptr) continue;
    if (!answers<kTraceGate>(measurement_faults_, probe.id, address.bits())) continue;
    routes[i] = route;
    const cdn::Site& site = info->handle->deployment.site(route->origin_site);
    bgp::for_each_traceroute_interface(
        *route, probe.city, probe.asn, site.onsite_router,
        [&](Asn a, CityId c) { registry_.router_ip(a, c); });
  }

  // Parallel hop synthesis against the now-complete, read-only registry.
  static obs::Histogram& wall = metrics().histogram("lab.traceroute.wall_us");
  const topo::IpRegistry& warmed = registry_;
  exec::ThreadPool::global().parallel_for(probes.size(), [&](std::size_t i) {
    if (routes[i] == nullptr) return;
    obs::ScopedTimer timer(wall);
    const atlas::Probe& probe = *probes[i];
    const cdn::Site& site = info->handle->deployment.site(routes[i]->origin_site);
    out[i] = bgp::synth_traceroute(*routes[i], probe.city, probe.asn, probe.access_extra_ms,
                                   site.onsite_router, address, config_.latency, warmed);
  });
  return out;
}

void Lab::measure(const DeploymentHandle& handle, std::vector<Measurement>& rows) const {
  const auto retained = census_.retained();
  rows.resize(retained.size());
  exec::ThreadPool::global().parallel_for(retained.size(), [&](std::size_t i) {
    const DnsAnswer answer = dns_lookup(*retained[i], handle, dns::QueryMode::Ldns);
    rows[i] = Measurement{.address = answer.address.bits(),
                          .region = static_cast<std::uint16_t>(answer.region),
                          .degraded = answer.degraded};
    route_and_ping(*this, handle, *retained[i], rows[i]);
  });
}

void Lab::remeasure(const DeploymentHandle& handle, std::vector<Measurement>& rows,
                    std::span<const std::uint32_t> which) const {
  const auto retained = census_.retained();
  exec::ThreadPool::global().parallel_for(which.size(), [&](std::size_t k) {
    route_and_ping(*this, handle, *retained[which[k]], rows[which[k]]);
  });
}

std::optional<SiteId> Lab::catchment_of(const atlas::Probe& probe, Ipv4Addr address) const {
  const auto info = locate_address(address);
  if (!info) return std::nullopt;
  return info->handle->catchment(probe.asn, info->region);
}

}  // namespace ranycast::lab
