#include "ranycast/proposals/anyopt.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace ranycast::proposals {

namespace {

/// A one-prefix spec announcing from the given subset of the base's sites.
cdn::DeploymentSpec subset_spec(const cdn::DeploymentSpec& base,
                                std::span<const std::size_t> subset, const char* label) {
  cdn::DeploymentSpec spec;
  spec.name = base.name + label;
  spec.asn = base.asn;
  spec.attachment_seed = base.attachment_seed;
  spec.min_providers = base.min_providers;
  spec.max_providers = base.max_providers;
  spec.max_ixp_peers = base.max_ixp_peers;
  spec.peer_bilateral_prob = base.peer_bilateral_prob;
  spec.onsite_router_prob = base.onsite_router_prob;
  spec.preferred_carriers = base.preferred_carriers;
  spec.region_names = {"experiment"};
  for (std::size_t s : subset) {
    spec.sites.push_back(cdn::SiteSpec{base.sites[s].iata, {0}});
  }
  return spec;
}

/// Dense client index over the retained probes' ASes.
std::unordered_map<Asn, std::size_t> client_index(const lab::Lab& lab) {
  std::unordered_map<Asn, std::size_t> index;
  for (const atlas::Probe* p : lab.census().retained()) {
    index.try_emplace(p->asn, index.size());
  }
  return index;
}

}  // namespace

AnyOptModel AnyOptModel::learn(lab::Lab& lab, const cdn::DeploymentSpec& spec) {
  AnyOptModel model;
  model.n_sites_ = spec.sites.size();
  model.graph_ = &lab.world().graph;
  const auto clients = client_index(lab);
  const std::size_t n_pairs = model.n_sites_ * (model.n_sites_ - 1) / 2;
  model.winner_.assign(clients.size(), std::vector<bool>(n_pairs, false));
  model.observed_.assign(clients.size(), false);

  for (std::size_t i = 0; i < model.n_sites_; ++i) {
    for (std::size_t j = i + 1; j < model.n_sites_; ++j) {
      const std::size_t pair[] = {i, j};
      const auto& handle = lab.add_deployment(subset_spec(spec, pair, "-pairwise"));
      const std::size_t bit = model.pair_index(i, j);
      for (const auto& [asn, idx] : clients) {
        const auto site = handle.catchment(asn, 0);
        if (!site) continue;
        model.observed_[idx] = true;
        // Site 0 of the pairwise deployment is base site i.
        if (*site == SiteId{0}) model.winner_[idx][bit] = true;
      }
    }
  }
  // Keep the client index for predict().
  model.client_map_cache_ = clients;
  return model;
}

std::optional<std::size_t> AnyOptModel::predict(Asn client,
                                                std::span<const std::size_t> subset) const {
  if (subset.empty()) return std::nullopt;
  const auto it = client_map_cache_.find(client);
  if (it == client_map_cache_.end() || !observed_[it->second]) return std::nullopt;
  const auto& bits = winner_[it->second];
  // Copeland tournament: the subset member winning the most duels.
  std::size_t best = subset.front();
  int best_score = -1;
  for (std::size_t s : subset) {
    int score = 0;
    for (std::size_t t : subset) {
      if (s == t) continue;
      const bool s_wins = s < t ? bits[pair_index(s, t)] : !bits[pair_index(t, s)];
      if (s_wins) ++score;
    }
    if (score > best_score) {
      best_score = score;
      best = s;
    }
  }
  return best;
}

double AnyOptModel::validate(lab::Lab& lab, const lab::DeploymentHandle& full) const {
  // Map the full deployment's sites back to model indices by city order.
  std::vector<std::size_t> all(n_sites_);
  for (std::size_t i = 0; i < n_sites_; ++i) all[i] = i;
  std::size_t correct = 0, total = 0;
  for (const atlas::Probe* p : lab.census().retained()) {
    const auto site = full.catchment(p->asn, 0);
    const auto predicted = predict(p->asn, all);
    if (!site || !predicted) continue;
    ++total;
    if (static_cast<std::size_t>(value(*site)) == *predicted) ++correct;
  }
  return total > 0 ? static_cast<double>(correct) / static_cast<double>(total) : 0.0;
}

AnyOptSearchResult anyopt_optimize(lab::Lab& lab, const cdn::DeploymentSpec& spec,
                                   std::size_t min_sites) {
  AnyOptModel model = AnyOptModel::learn(lab, spec);
  const std::size_t n = model.site_count();
  const auto retained = lab.census().retained();

  // Unicast latency per (probe, site): the latency AnyOpt predicts a probe
  // gets when its predicted catchment is that site.
  std::vector<std::vector<double>> unicast(retained.size(), std::vector<double>(n, 1e9));
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t one[] = {s};
    const auto& handle = lab.add_deployment(subset_spec(spec, one, "-unicast"));
    const Ipv4Addr ip = handle.deployment.regions()[0].service_ip;
    for (std::size_t p = 0; p < retained.size(); ++p) {
      if (const auto rtt = lab.ping(*retained[p], ip)) unicast[p][s] = rtt->ms;
    }
  }

  auto predicted_mean = [&](const std::vector<std::size_t>& subset) {
    double total = 0.0;
    std::size_t counted = 0;
    for (std::size_t p = 0; p < retained.size(); ++p) {
      const auto site = model.predict(retained[p]->asn, subset);
      if (!site) continue;
      total += unicast[p][*site];
      ++counted;
    }
    return counted > 0 ? total / static_cast<double>(counted) : 1e12;
  };

  // Greedy forward selection; below the floor, the least-bad addition is
  // taken even when it worsens the predicted mean.
  std::vector<std::size_t> chosen;
  double chosen_mean = std::numeric_limits<double>::infinity();
  std::vector<bool> in_set(n, false);
  while (chosen.size() < n) {
    const bool must_add = chosen.size() < min_sites;
    std::size_t best_site = n;
    double best_mean = must_add ? std::numeric_limits<double>::infinity() : chosen_mean;
    for (std::size_t s = 0; s < n; ++s) {
      if (in_set[s]) continue;
      std::vector<std::size_t> candidate = chosen;
      candidate.push_back(s);
      const double mean = predicted_mean(candidate);
      if (mean < best_mean) {
        best_mean = mean;
        best_site = s;
      }
    }
    if (best_site == n) break;  // no addition improves the prediction
    chosen.push_back(best_site);
    in_set[best_site] = true;
    chosen_mean = best_mean;
  }
  std::sort(chosen.begin(), chosen.end());

  AnyOptSearchResult result;
  result.chosen_sites = chosen;
  result.predicted_mean_ms = chosen_mean;
  result.deployment = &lab.add_deployment(subset_spec(spec, chosen, "-anyopt"));
  const Ipv4Addr ip = result.deployment->deployment.regions()[0].service_ip;
  double total = 0.0;
  std::size_t counted = 0;
  for (const atlas::Probe* p : retained) {
    if (const auto rtt = lab.ping(*p, ip)) {
      total += rtt->ms;
      ++counted;
    }
  }
  result.measured_mean_ms = counted > 0 ? total / static_cast<double>(counted) : 0.0;
  return result;
}

}  // namespace ranycast::proposals
