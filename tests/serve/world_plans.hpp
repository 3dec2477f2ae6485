// World plans the serving tests drift a server through: the shipped chaos
// scenarios and seeded transit link flaps that move what the server maps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/serve/snapshot.hpp"

namespace ranycast::serve::test_plans {

/// A scenario file under configs/.
inline chaos::FaultPlan scenario(const std::string& file) {
  auto plan = chaos::load_plan(std::string(RANYCAST_CONFIGS_DIR) + "/" + file);
  EXPECT_TRUE(plan.has_value()) << file;
  return plan ? *plan : chaos::FaultPlan{};
}

inline chaos::FaultEvent link_event(chaos::FaultKind kind, const std::pair<Asn, Asn>& link) {
  chaos::FaultEvent e;
  e.kind = kind;
  e.a = link.first;
  e.b = link.second;
  return e;
}

/// Seeded flaps of transit adjacencies (a site attachment's neighbour to
/// one of its providers) whose loss changes imperva6's measurement pass on
/// a lab of `config`, `pairs` overlapping pairs of them: down a, down b,
/// up a, up b. The links are tried on a scratch lab of their own.
inline chaos::FaultPlan moving_link_flaps(const lab::LabConfig& config, std::uint64_t seed,
                                          std::size_t pairs) {
  auto laboratory = lab::Lab::create(config);
  const auto& handle = laboratory.add_deployment(cdn::catalog::imperva6());
  const topo::Graph& graph = laboratory.world().graph;
  std::vector<std::pair<Asn, Asn>> links;
  for (const cdn::Site& site : handle.deployment.sites()) {
    for (const cdn::Attachment& att : site.attachments) {
      const topo::AsNode* node = graph.find(att.neighbor);
      if (node == nullptr) continue;
      for (const topo::Edge& edge : node->edges) {
        if (edge.rel == topo::Rel::Provider) links.emplace_back(att.neighbor, edge.neighbor);
      }
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  Rng rng(seed);
  chaos::Engine mutator(laboratory, handle);
  const std::uint64_t base = build_snapshot(laboratory, handle, 1, 0).fingerprint;
  std::vector<std::pair<Asn, Asn>> moving;
  for (std::size_t k = 0; k < links.size() && moving.size() < 2 * pairs; ++k) {
    std::swap(links[k], links[k + rng.below(links.size() - k)]);
    EXPECT_EQ(mutator.apply_event(link_event(chaos::FaultKind::LinkDown, links[k])), "");
    if (build_snapshot(laboratory, handle, 1, 0).fingerprint != base) {
      moving.push_back(links[k]);
    }
    EXPECT_EQ(mutator.apply_event(link_event(chaos::FaultKind::LinkUp, links[k])), "");
  }
  EXPECT_EQ(moving.size(), 2 * pairs) << "too few transit links move a catchment";
  chaos::FaultPlan plan;
  plan.name = "linkflap";
  for (std::size_t k = 0; k + 1 < moving.size(); k += 2) {
    plan.events.push_back(link_event(chaos::FaultKind::LinkDown, moving[k]));
    plan.events.push_back(link_event(chaos::FaultKind::LinkDown, moving[k + 1]));
    plan.events.push_back(link_event(chaos::FaultKind::LinkUp, moving[k]));
    plan.events.push_back(link_event(chaos::FaultKind::LinkUp, moving[k + 1]));
  }
  return plan;
}

}  // namespace ranycast::serve::test_plans
