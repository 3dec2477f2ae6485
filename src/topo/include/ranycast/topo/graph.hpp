// AS-level Internet topology: nodes, typed business relationships, and
// geographically pinned interconnections.
//
// Every adjacency carries the city where the two networks interconnect.
// Data-path latency is computed from the sequence of interconnection cities a
// route traverses, which is what lets Gao-Rexford policy decisions produce
// the geographic detours ("catchment inefficiency") the paper studies.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ranycast/core/types.hpp"

namespace ranycast::topo {

enum class AsKind : std::uint8_t {
  Tier1,    ///< global transit-free carrier; peers with all other tier-1s
  Transit,  ///< regional/national transit provider
  Stub,     ///< eyeball/enterprise edge network (where probes live)
};

/// Relationship of a neighbor *from the owning node's perspective*.
enum class Rel : std::uint8_t {
  Customer,         ///< neighbor pays us for transit
  Provider,         ///< we pay the neighbor for transit
  PeerPublic,       ///< settlement-free bilateral/public peering
  PeerRouteServer,  ///< multilateral peering via an IXP route server
};

std::string_view to_string(Rel r) noexcept;
std::string_view to_string(AsKind k) noexcept;

constexpr bool is_peer(Rel r) noexcept {
  return r == Rel::PeerPublic || r == Rel::PeerRouteServer;
}

/// Reverse a relationship to the other side's perspective.
constexpr Rel reverse(Rel r) noexcept {
  switch (r) {
    case Rel::Customer:
      return Rel::Provider;
    case Rel::Provider:
      return Rel::Customer;
    default:
      return r;  // peerings are symmetric
  }
}

struct Edge {
  Asn neighbor{kInvalidAsn};
  Rel rel{Rel::PeerPublic};
  /// Administrative/operational state. A downed adjacency stays in the graph
  /// (so it can be restored cheaply by the fault-injection engine) but the
  /// routing engine ignores it.
  bool up{true};
  /// Interconnection points. Wide-footprint networks interconnect in many
  /// cities; the routing engine picks the one nearest a route's ingress
  /// (nearest-exit), which keeps intra-AS geography realistic.
  std::vector<CityId> cities;
};

struct AsNode {
  Asn asn{kInvalidAsn};
  AsKind kind{AsKind::Stub};
  CityId home_city{kInvalidCity};  ///< operational headquarters city
  /// Where the AS's address space is *registered* (WHOIS country). For
  /// multinational organizations this differs from where hosts actually
  /// are, which is what misleads geolocation databases (paper §4.3).
  CityId registered_city{kInvalidCity};
  bool international{false};  ///< spans several countries (drives geo-DB "home country" bias)
  std::vector<CityId> footprint;  ///< cities where the AS has presence
  std::vector<Edge> edges;

  bool present_in(CityId c) const noexcept;
};

/// An Internet Exchange Point: a city plus a member list. Members may peer
/// bilaterally (public peering) or via the route server; the generator
/// records which so the BGP engine can apply the paper's §5.4 preference.
struct Ixp {
  std::string name;
  CityId city{kInvalidCity};
  std::vector<Asn> members;
};

class Graph {
 public:
  /// Add an AS. This is the only way to add a node, and it numbers them:
  /// the i-th node added (0-based) gets ASN i + 1, so `nodes()[i].asn ==
  /// make_asn(i + 1)` always holds and the dense index of an ASN is
  /// arithmetic.
  Asn add_as(AsKind kind, CityId home, std::vector<CityId> footprint, bool international = false);

  /// Customer-provider link with one or more interconnection cities.
  /// Returns false if either AS is unknown or the link already exists.
  bool add_transit(Asn customer, Asn provider, std::vector<CityId> cities);

  /// Settlement-free peering with one or more interconnection cities.
  bool add_peering(Asn a, Asn b, bool via_route_server, std::vector<CityId> cities);

  std::size_t add_ixp(Ixp ixp);

  const AsNode* find(Asn a) const noexcept {
    const auto idx = index_of(a);
    return idx ? &nodes_[*idx] : nullptr;
  }
  AsNode* find(Asn a) noexcept {
    const auto idx = index_of(a);
    return idx ? &nodes_[*idx] : nullptr;
  }

  /// Dense index of an ASN (nodes are stored contiguously): `value(a) - 1`,
  /// nullopt outside 1..nodes().size().
  std::optional<std::size_t> index_of(Asn a) const noexcept {
    const std::size_t v = value(a);
    if (v == 0 || v > nodes_.size()) return std::nullopt;
    return v - 1;
  }

  std::span<const AsNode> nodes() const noexcept { return nodes_; }
  std::span<const Ixp> ixps() const noexcept { return ixps_; }

  bool has_edge(Asn a, Asn b) const noexcept;

  std::size_t edge_count() const noexcept { return edge_count_; }

  // --- fault-injection operations (chaos engine) ---
  //
  // Mutation is exposed as an operation so failure scenarios re-solve over
  // the same graph instead of rebuilding the world from scratch.

  /// Set the operational state of the a<->b adjacency (both directions).
  /// Returns false if either AS or the adjacency is unknown.
  bool set_link_state(Asn a, Asn b, bool up) noexcept;

  /// Whether the a<->b adjacency exists and is up.
  bool link_is_up(Asn a, Asn b) const noexcept;

  /// Take the IXP's route server down (or back up): toggles every
  /// route-server peering between two members that runs over the IXP's
  /// city. Bilateral (public) peerings at the same IXP are unaffected.
  /// Returns the number of adjacencies whose state changed.
  std::size_t set_route_server_state(std::size_t ixp_index, bool up) noexcept;

  /// The member pairs whose adjacency set_route_server_state toggles (same
  /// filter, independent of current edge state), each pair once with a < b.
  /// Used to turn a route-server fault into a link delta for incremental
  /// re-solving.
  std::vector<std::pair<Asn, Asn>> route_server_peerings(std::size_t ixp_index) const;

 private:
  std::vector<AsNode> nodes_;
  std::vector<Ixp> ixps_;
  std::size_t edge_count_{0};
};

}  // namespace ranycast::topo
