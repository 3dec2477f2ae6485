#include "ranycast/topo/graph.hpp"

#include <algorithm>

namespace ranycast::topo {

std::string_view to_string(Rel r) noexcept {
  switch (r) {
    case Rel::Customer:
      return "customer";
    case Rel::Provider:
      return "provider";
    case Rel::PeerPublic:
      return "public-peer";
    case Rel::PeerRouteServer:
      return "route-server-peer";
  }
  return "?";
}

std::string_view to_string(AsKind k) noexcept {
  switch (k) {
    case AsKind::Tier1:
      return "tier1";
    case AsKind::Transit:
      return "transit";
    case AsKind::Stub:
      return "stub";
  }
  return "?";
}

bool AsNode::present_in(CityId c) const noexcept {
  return std::find(footprint.begin(), footprint.end(), c) != footprint.end();
}

Asn Graph::add_as(AsKind kind, CityId home, std::vector<CityId> footprint, bool international) {
  const Asn asn = make_asn(static_cast<std::uint32_t>(nodes_.size() + 1));
  AsNode node;
  node.asn = asn;
  node.kind = kind;
  node.home_city = home;
  node.registered_city = home;
  node.international = international;
  node.footprint = std::move(footprint);
  if (node.footprint.empty()) node.footprint.push_back(home);
  nodes_.push_back(std::move(node));
  return asn;
}

bool Graph::add_transit(Asn customer, Asn provider, std::vector<CityId> cities) {
  AsNode* c = find(customer);
  AsNode* p = find(provider);
  if (c == nullptr || p == nullptr || customer == provider || cities.empty()) return false;
  if (has_edge(customer, provider)) return false;
  c->edges.push_back(Edge{provider, Rel::Provider, true, cities});
  p->edges.push_back(Edge{customer, Rel::Customer, true, std::move(cities)});
  ++edge_count_;
  return true;
}

bool Graph::add_peering(Asn a, Asn b, bool via_route_server, std::vector<CityId> cities) {
  AsNode* na = find(a);
  AsNode* nb = find(b);
  if (na == nullptr || nb == nullptr || a == b || cities.empty()) return false;
  if (has_edge(a, b)) return false;
  const Rel rel = via_route_server ? Rel::PeerRouteServer : Rel::PeerPublic;
  na->edges.push_back(Edge{b, rel, true, cities});
  nb->edges.push_back(Edge{a, rel, true, std::move(cities)});
  ++edge_count_;
  return true;
}

std::size_t Graph::add_ixp(Ixp ixp) {
  ixps_.push_back(std::move(ixp));
  return ixps_.size() - 1;
}

bool Graph::has_edge(Asn a, Asn b) const noexcept {
  const AsNode* na = find(a);
  if (na == nullptr) return false;
  return std::any_of(na->edges.begin(), na->edges.end(),
                     [b](const Edge& e) { return e.neighbor == b; });
}

namespace {

Edge* edge_to(AsNode* from, Asn to) noexcept {
  if (from == nullptr) return nullptr;
  for (Edge& e : from->edges) {
    if (e.neighbor == to) return &e;
  }
  return nullptr;
}

}  // namespace

bool Graph::set_link_state(Asn a, Asn b, bool up) noexcept {
  Edge* ab = edge_to(find(a), b);
  Edge* ba = edge_to(find(b), a);
  if (ab == nullptr || ba == nullptr) return false;
  ab->up = up;
  ba->up = up;
  return true;
}

bool Graph::link_is_up(Asn a, Asn b) const noexcept {
  const AsNode* na = find(a);
  if (na == nullptr) return false;
  return std::any_of(na->edges.begin(), na->edges.end(),
                     [b](const Edge& e) { return e.neighbor == b && e.up; });
}

std::size_t Graph::set_route_server_state(std::size_t ixp_index, bool up) noexcept {
  if (ixp_index >= ixps_.size()) return 0;
  const Ixp& ixp = ixps_[ixp_index];
  std::size_t changed = 0;
  for (const Asn member : ixp.members) {
    AsNode* node = find(member);
    if (node == nullptr) continue;
    for (Edge& e : node->edges) {
      if (e.rel != Rel::PeerRouteServer || e.up == up) continue;
      if (std::find(ixp.members.begin(), ixp.members.end(), e.neighbor) == ixp.members.end())
        continue;
      if (std::find(e.cities.begin(), e.cities.end(), ixp.city) == e.cities.end()) continue;
      e.up = up;
      ++changed;
    }
  }
  // Each adjacency was visited from both endpoints.
  return changed / 2;
}

std::vector<std::pair<Asn, Asn>> Graph::route_server_peerings(std::size_t ixp_index) const {
  std::vector<std::pair<Asn, Asn>> out;
  if (ixp_index >= ixps_.size()) return out;
  const Ixp& ixp = ixps_[ixp_index];
  for (const Asn member : ixp.members) {
    const AsNode* node = find(member);
    if (node == nullptr) continue;
    for (const Edge& e : node->edges) {
      if (e.rel != Rel::PeerRouteServer) continue;
      if (member >= e.neighbor) continue;  // emit each pair once
      if (std::find(ixp.members.begin(), ixp.members.end(), e.neighbor) == ixp.members.end())
        continue;
      if (std::find(e.cities.begin(), e.cities.end(), ixp.city) == e.cities.end()) continue;
      out.emplace_back(member, e.neighbor);
    }
  }
  return out;
}

}  // namespace ranycast::topo
