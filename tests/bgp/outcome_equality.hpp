// Route-level equality of two routing outcomes, shared by the tests that
// hold a solver path against an independent from-scratch solve_anycast.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "ranycast/bgp/solver.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::bgp {

/// Full route-level equality: selection fields plus materialized paths, for
/// every AS of `g`. A reachability mismatch is fatal.
inline void expect_outcomes_equal(const topo::Graph& g, const RoutingOutcome& got,
                                  const RoutingOutcome& want, const std::string& what) {
  ASSERT_EQ(got.as_count(), want.as_count()) << what;
  for (const topo::AsNode& node : g.nodes()) {
    const Route* a = got.route_for(node.asn);
    const Route* b = want.route_for(node.asn);
    ASSERT_EQ(a == nullptr, b == nullptr)
        << what << ": reachability of AS" << value(node.asn);
    if (a == nullptr) continue;
    EXPECT_EQ(a->origin_site, b->origin_site) << what << ": AS" << value(node.asn);
    EXPECT_EQ(a->cls, b->cls) << what << ": AS" << value(node.asn);
    EXPECT_EQ(a->ingress_km, b->ingress_km) << what << ": AS" << value(node.asn);
    EXPECT_EQ(a->tiebreak, b->tiebreak) << what << ": AS" << value(node.asn);
    EXPECT_EQ(a->as_path, b->as_path) << what << ": AS" << value(node.asn);
    EXPECT_EQ(a->geo_path, b->geo_path) << what << ": AS" << value(node.asn);
  }
}

}  // namespace ranycast::bgp
