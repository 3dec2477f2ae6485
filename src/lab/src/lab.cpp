#include "ranycast/lab/lab.hpp"

#include <cstdlib>

#include "ranycast/exec/pool.hpp"
#include "ranycast/obs/span.hpp"

namespace ranycast::lab {

namespace {

obs::MetricsRegistry& metrics() { return obs::MetricsRegistry::global(); }

double hash01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Stream tags separating the fault decisions of the three measurement
// primitives, so a ping loss does not imply a DNS timeout for the same
// probe/target pair.
constexpr std::uint64_t kPingFaultTag = 0x1C39;
constexpr std::uint64_t kDnsFaultTag = 0xD235;
constexpr std::uint64_t kTraceFaultTag = 0x7A3C;

/// Deterministic per-attempt loss decision.
bool attempt_lost(const MeasurementFaults& f, std::uint64_t tag, ProbeId probe,
                  std::uint64_t target, int attempt, double prob) noexcept {
  const std::uint64_t h = mix64(hash_combine(
      hash_combine(hash_combine(hash_combine(f.seed, tag), value(probe)), target),
      static_cast<std::uint64_t>(attempt)));
  return hash01(h) < prob;
}

/// Run the retry/backoff loop for one measurement. Returns the attempt
/// index that succeeded, or nullopt when every attempt was lost. Lost
/// attempts and the backoff they cost are recorded in `lost`/`backoff_ms`.
std::optional<int> faulty_attempts(const MeasurementFaults& f, std::uint64_t tag,
                                   ProbeId probe, std::uint64_t target, double prob,
                                   obs::Counter& lost, obs::Histogram& backoff_ms) {
  for (int attempt = 0; attempt <= f.max_retries; ++attempt) {
    if (!attempt_lost(f, tag, probe, target, attempt, prob)) return attempt;
    lost.add();
    backoff_ms.record(f.backoff_base_ms * static_cast<double>(1u << attempt));
  }
  return std::nullopt;
}

/// The ping-loss gate of one traceroute: false when every attempt towards
/// `address` was lost. Shared by the scalar and batch traceroutes so both
/// make the same fault decisions and record the same telemetry.
bool traceroute_answers(const std::optional<MeasurementFaults>& faults, ProbeId probe,
                        Ipv4Addr address) {
  if (!faults || faults->ping_loss_prob <= 0.0) return true;
  static obs::Counter& lost = metrics().counter("lab.traceroute.fault_lost_attempts");
  static obs::Counter& gaveup = metrics().counter("lab.traceroute.fault_gaveup");
  static obs::Histogram& backoff = metrics().histogram("lab.fault.backoff_ms", obs::kRttMsBounds);
  if (faulty_attempts(*faults, kTraceFaultTag, probe, address.bits(), faults->ping_loss_prob,
                      lost, backoff)) {
    return true;
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
  if (const char* delta_env = std::getenv("RANYCAST_DELTA");
      delta_env != nullptr && delta_env[0] == '1') {
    delta_cfg_.enabled = true;
  }
  if (const char* verify_env = std::getenv("RANYCAST_DELTA_VERIFY"); verify_env != nullptr) {
    delta_cfg_.verify_every = static_cast<std::uint32_t>(std::strtoul(verify_env, nullptr, 10));
  }
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
  deployments_.push_back(std::move(handle));
  return deployments_.back();
}

DeploymentHandle* Lab::handle_mut(const DeploymentHandle& handle) noexcept {
  for (DeploymentHandle& h : deployments_) {
    if (&h == &handle) return &h;
  }
  return nullptr;
}

void Lab::resolve(DeploymentHandle& handle) const {
  obs::Span span("lab.resolve");
  static obs::Histogram& h_resolve = metrics().histogram("lab.resolve.total_us");
  obs::ScopedTimer timer(h_resolve);
  // Same per-region salts as add_deployment: a re-solve of an unchanged
  // deployment reproduces the original outcome bit-for-bit.
  handle.outcomes = solve_regions(*this, handle.deployment);
  // A full re-solve leaves retained incremental planes stale; drop them so
  // a later resolve_delta re-primes instead of splicing against old state.
  handle.delta.reset();
  static obs::Counter& resolves = metrics().counter("lab.resolves");
  resolves.add();
}

bgp::DeltaStats Lab::resolve_delta(DeploymentHandle& handle,
                                   const bgp::SolveDelta& delta) const {
  if (!delta_cfg_.enabled) {
    resolve(handle);
    return {};
  }
  obs::Span span("lab.resolve_delta");
  static obs::Histogram& h_resolve = metrics().histogram("lab.resolve.total_us");
  obs::ScopedTimer timer(h_resolve);
  const cdn::Deployment& dep = handle.deployment;
  const std::size_t count = dep.regions().size();
  if (!handle.delta || handle.delta->region_count() != count) {
    handle.delta =
        std::make_unique<bgp::DeltaSolver>(world_->graph, dep.asn(), count, delta_cfg_);
  }
  bgp::DeltaSolver& solver = *handle.delta;
  std::vector<bgp::DeltaStats> stats(count);
  std::vector<std::optional<bgp::RoutingOutcome>> slots(count);
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    const auto origins = dep.origins_for_region(r);
    const std::uint64_t seed = hash_combine(config_.seed, r);  // matches solve_origins
    if (!solver.primed(r)) {
      slots[r].emplace(solver.prime(r, origins, seed, &stats[r]));
      return;
    }
    const std::span<const bgp::OriginChange> changes =
        r < delta.origins.size() ? std::span<const bgp::OriginChange>(delta.origins[r])
                                 : std::span<const bgp::OriginChange>{};
    slots[r].emplace(solver.resolve(r, origins, changes, delta.links, &stats[r]));
  });
  handle.outcomes.clear();
  handle.outcomes.reserve(count);
  bgp::DeltaStats merged;
  for (std::size_t r = 0; r < count; ++r) {
    handle.outcomes.push_back(std::move(*slots[r]));
    merged.merge(stats[r]);
  }
  static obs::Counter& resolves = metrics().counter("lab.resolves");
  static obs::Counter& delta_resolves = metrics().counter("lab.resolves_delta");
  resolves.add();
  delta_resolves.add();
  return merged;
}

const DeploymentHandle& Lab::add_deployment_derived(const DeploymentHandle& base,
                                                    cdn::Deployment deployment,
                                                    const bgp::SolveDelta& delta) {
  DeploymentHandle* base_mut = handle_mut(base);
  const std::size_t count = deployment.regions().size();
  if (!delta_cfg_.enabled || base_mut == nullptr ||
      base.deployment.regions().size() != count || base.deployment.asn() != deployment.asn()) {
    return add_deployment(std::move(deployment));
  }
  obs::Span span("lab.add_deployment_derived");
  if (!base_mut->delta || base_mut->delta->region_count() != count) {
    // Prime the base's planes once; its published outcomes stay untouched
    // (the primed ones are byte-identical by construction, so discarding
    // them changes nothing observable).
    auto solver = std::make_unique<bgp::DeltaSolver>(world_->graph, base.deployment.asn(),
                                                     count, delta_cfg_);
    exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
      solver->prime(r, base.deployment.origins_for_region(r), hash_combine(config_.seed, r));
    });
    base_mut->delta = std::move(solver);
  }
  DeploymentHandle handle{std::move(deployment), {}, base_mut->delta->clone()};
  const cdn::Deployment& dep = handle.deployment;
  std::vector<bgp::DeltaStats> stats(count);
  std::vector<std::optional<bgp::RoutingOutcome>> slots(count);
  bgp::DeltaSolver& solver = *handle.delta;
  exec::ThreadPool::global().parallel_for(count, [&](std::size_t r) {
    const std::span<const bgp::OriginChange> changes =
        r < delta.origins.size() ? std::span<const bgp::OriginChange>(delta.origins[r])
                                 : std::span<const bgp::OriginChange>{};
    slots[r].emplace(
        solver.resolve(r, dep.origins_for_region(r), changes, delta.links, &stats[r]));
  });
  handle.outcomes.reserve(count);
  for (std::size_t r = 0; r < count; ++r) handle.outcomes.push_back(std::move(*slots[r]));
  static obs::Counter& deployments = metrics().counter("lab.deployments");
  static obs::Counter& regions = metrics().counter("lab.regions_solved");
  static obs::Counter& derived = metrics().counter("lab.deployments_derived");
  deployments.add();
  regions.add(count);
  derived.add();
  deployments_.push_back(std::move(handle));
  return deployments_.back();
}

bgp::RoutingOutcome Lab::solve_origins(Asn cdn_asn,
                                       std::span<const bgp::OriginAttachment> origins,
                                       std::uint64_t salt) const {
  return bgp::solve_anycast(world_->graph, cdn_asn, origins,
                            hash_combine(config_.seed, salt));
}

std::optional<Lab::AddressInfo> Lab::locate_address(Ipv4Addr address) const {
  for (const DeploymentHandle& h : deployments_) {
    if (const auto region = h.deployment.region_of_ip(address)) {
      return AddressInfo{&h, *region};
    }
  }
  return std::nullopt;
}

Lab::DnsAnswer Lab::dns_lookup(const atlas::Probe& probe, const DeploymentHandle& handle,
                               dns::QueryMode mode) const {
  static obs::Counter& calls = metrics().counter("lab.dns_lookup.calls");
  static obs::Histogram& wall = metrics().histogram("lab.dns_lookup.wall_us");
  calls.add();
  obs::ScopedTimer timer(wall);
  if (measurement_faults_ && measurement_faults_->dns_timeout_prob > 0.0) {
    static obs::Counter& timeouts = metrics().counter("lab.dns_lookup.fault_timeouts");
    static obs::Counter& fallbacks = metrics().counter("lab.dns_lookup.fault_fallbacks");
    static obs::Histogram& backoff =
        metrics().histogram("lab.fault.backoff_ms", obs::kRttMsBounds);
    const auto ok = faulty_attempts(*measurement_faults_, kDnsFaultTag, probe.id,
                                    handle.deployment.regions()[0].service_ip.bits(),
                                    measurement_faults_->dns_timeout_prob, timeouts, backoff);
    if (!ok) {
      // Every resolution attempt timed out: the client is served the stale
      // fallback record (region 0, mirroring map_client's unknown-address
      // fallback) instead of a geo-mapped answer.
      fallbacks.add();
      return DnsAnswer{0, handle.deployment.regions()[0].service_ip, true};
    }
  }
  const auto effective = dns::effective_address(probe.query_context(), mode);
  const std::size_t region = handle.deployment.map_client(effective, mapping_db());
  return DnsAnswer{region, handle.deployment.regions()[region].service_ip, false};
}

const bgp::Route* Lab::route_of(const atlas::Probe& probe, Ipv4Addr address) const {
  const auto info = locate_address(address);
  if (!info) return nullptr;
  return info->handle->route_for(probe.asn, info->region);
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
  const bgp::Route* route = route_of(probe, address);
  if (route == nullptr) {
    unreachable.add();
    return std::nullopt;
  }
  if (measurement_faults_ && measurement_faults_->ping_loss_prob > 0.0) {
    static obs::Counter& lost = metrics().counter("lab.ping.fault_lost_attempts");
    static obs::Counter& gaveup = metrics().counter("lab.ping.fault_gaveup");
    static obs::Histogram& backoff =
        metrics().histogram("lab.fault.backoff_ms", obs::kRttMsBounds);
    const auto ok = faulty_attempts(*measurement_faults_, kPingFaultTag, probe.id,
                                    hash_combine(address.bits(), salt),
                                    measurement_faults_->ping_loss_prob, lost, backoff);
    if (!ok) {
      gaveup.add();
      return std::nullopt;  // every attempt lost: the probe reports failure
    }
  }
  Rtt rtt = config_.latency.path_rtt(*route, probe.city, probe.asn, probe.access_extra_ms);
  if (salt != 0) {
    // Per-hostname measurement perturbation (used for the Appendix C
    // generalization study): sub-millisecond deterministic noise.
    const std::uint64_t h = mix64(hash_combine(hash_combine(salt, value(probe.id)),
                                               address.bits()));
    rtt += Rtt{static_cast<double>(h >> 11) * 0x1.0p-53 * 1.0};
  }
  rtt_hist.record(rtt.ms);
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
  if (!traceroute_answers(measurement_faults_, probe.id, address)) return std::nullopt;
  const cdn::Site& site = info->handle->deployment.site(route->origin_site);
  return bgp::synth_traceroute(*route, probe.city, probe.asn, probe.access_extra_ms,
                               site.onsite_router, address, config_.latency,
                               config_.traceroute, registry_);
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
    if (!traceroute_answers(measurement_faults_, probe.id, address)) continue;
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
                                   site.onsite_router, address, config_.latency,
                                   config_.traceroute, warmed);
  });
  return out;
}

std::optional<SiteId> Lab::catchment_of(const atlas::Probe& probe, Ipv4Addr address) const {
  const bgp::Route* route = route_of(probe, address);
  if (route == nullptr) return std::nullopt;
  return route->origin_site;
}

}  // namespace ranycast::lab
