// Pins each report record's field list to a layout written out by hand.
//
// A record's checkpoint bytes, JSON object and journal line all come from
// its one field list (core/fields.hpp). The resume tests write and read
// through that same list, so a reordered or dropped entry still round-trips
// there. These tests compare what the list produces with the layouts
// written here field by field: the checkpoint bytes as explicit ByteWriter
// calls in the order checkpoints have always used, and the JSON text as the
// reports print it. Every field holds a distinct value, so swapping two
// entries of the same type changes the bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/converge/report.hpp"
#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/serve/server.hpp"
#include "ranycast/traffic/report.hpp"

namespace ranycast::chaos {
namespace {

StepReport make_step() {
  StepReport s;
  s.index = 3;
  s.event = "site_withdraw site=2 'pin'";
  s.probes = 9722;
  s.routes_before = 9700;
  s.routes_after = 9650;
  s.moved = 41;
  s.lost = 12;
  s.gained = 5;
  s.affected_probes = 57;
  s.still_served = 45;
  s.failover_in_region = 38;
  s.cross_region = 7;
  s.before_p50_ms = 54.25;
  s.before_p90_ms = 91.5;
  s.after_p50_ms = 66.75;
  s.after_p90_ms = 108.125;
  s.degraded_dns_answers = 19;
  s.lost_pings = 23;
  return s;
}

converge::RegionTransient make_region(std::uint64_t base, bool oscillating) {
  converge::RegionTransient r;
  r.events = base + 1;
  r.updates_sent = base + 2;
  r.withdrawals_sent = base + 3;
  r.rib_changes = base + 4;
  r.converged_us = base + 5;
  r.last_event_us = base + 6;
  r.transient_loops = base + 7;
  r.suppressed = base + 8;
  r.site_flips = base + 9;
  r.nodes_changed = base + 10;
  r.nodes_blackholed = base + 11;
  r.nodes_dark_at_end = base + 12;
  r.max_blackhole_us = base + 13;
  r.oscillating = oscillating;
  r.matches_steady = !oscillating;
  r.mismatches = base + 14;
  return r;
}

converge::StepTransient make_transient() {
  converge::StepTransient t;
  t.index = 4;
  t.event = "link_down 3356-174";
  t.regions = {make_region(100, true), make_region(200, false)};
  t.probes = 301;
  t.probes_blackholed = 302;
  t.probes_looped = 303;
  t.probes_flipped = 304;
  t.probes_dark_at_end = 305;
  t.reconverge_p50_ms = 1.5;
  t.reconverge_p90_ms = 2.5;
  t.reconverge_max_ms = 3.5;
  t.blackhole_p50_ms = 4.25;
  t.blackhole_p90_ms = 5.25;
  t.blackhole_max_ms = 6.25;
  t.matches_steady = false;
  t.oscillating = true;
  return t;
}

traffic::SiteLoad make_site(double base, std::size_t flows, bool overloaded) {
  traffic::SiteLoad s;
  s.capacity_mbps = base + 0.5;
  s.offered_mbps = base + 1.5;
  s.served_mbps = base + 2.5;
  s.shed_out_mbps = base + 3.5;
  s.dropped_mbps = base + 4.5;
  s.utilization = base + 5.5;
  s.queue_delay_ms = base + 6.5;
  s.flows_offered = flows + 1;
  s.flows_served = flows + 2;
  s.flows_shed_out = flows + 3;
  s.flows_shed_in = flows + 4;
  s.flows_dropped = flows + 5;
  s.overloaded = overloaded;
  return s;
}

traffic::StepTraffic make_traffic() {
  traffic::StepTraffic t;
  t.index = 5;
  t.event = "traffic_surge x1.45";
  t.solve.sites = {make_site(10.0, 400, true), make_site(20.0, 500, false)};
  t.solve.offered_mbps = 601.5;
  t.solve.served_mbps = 602.5;
  t.solve.shed_mbps = 603.5;
  t.solve.dropped_mbps = 604.5;
  t.solve.flows_offered = 605;
  t.solve.flows_served = 606;
  t.solve.flows_shed = 607;
  t.solve.flows_dropped = 608;
  t.solve.flows_unrouted = 609;
  t.solve.unrouted_mbps = 610.5;
  t.solve.overloaded_sites = 611;
  t.solve.cascade_depth = 612;
  t.solve.max_utilization = 613.25;
  t.solve.mean_utilization = 614.25;
  t.solve.queue_delay_p50_ms = 615.25;
  t.solve.queue_delay_p90_ms = 616.25;
  t.solve.queue_delay_max_ms = 617.25;
  t.before_max_utilization = 618.75;
  t.before_mean_utilization = 619.75;
  t.tipped_sites = 620;
  t.cascade_depth = 621;
  t.inflated_p50_ms = 622.75;
  t.inflated_p90_ms = 623.75;
  return t;
}

serve::ServeStats make_stats() {
  serve::ServeStats s;
  s.queries = 1001;
  s.served = 1002;
  s.shed_queue = 1003;
  s.shed_deadline = 1004;
  s.shed_rate = 1005;
  s.rejected = 1006;
  s.epochs_published = 1007;
  s.builds_failed = 1008;
  s.world_events_applied = 1009;
  return s;
}

// --- the checkpoint layouts, one ByteWriter call per field -----------------

std::vector<std::uint8_t> step_bytes(const StepReport& s) {
  guard::ByteWriter w;
  w.u64(s.index);
  w.str(s.event);
  w.u64(s.probes);
  w.u64(s.routes_before);
  w.u64(s.routes_after);
  w.u64(s.moved);
  w.u64(s.lost);
  w.u64(s.gained);
  w.u64(s.affected_probes);
  w.u64(s.still_served);
  w.u64(s.failover_in_region);
  w.u64(s.cross_region);
  w.f64(s.before_p50_ms);
  w.f64(s.before_p90_ms);
  w.f64(s.after_p50_ms);
  w.f64(s.after_p90_ms);
  w.u64(s.degraded_dns_answers);
  w.u64(s.lost_pings);
  return w.take();
}

void write_region(guard::ByteWriter& w, const converge::RegionTransient& t) {
  w.u64(t.events);
  w.u64(t.updates_sent);
  w.u64(t.withdrawals_sent);
  w.u64(t.rib_changes);
  w.u64(t.converged_us);
  w.u64(t.last_event_us);
  w.u64(t.transient_loops);
  w.u64(t.suppressed);
  w.u64(t.site_flips);
  w.u64(t.nodes_changed);
  w.u64(t.nodes_blackholed);
  w.u64(t.nodes_dark_at_end);
  w.u64(t.max_blackhole_us);
  w.u8(t.oscillating ? 1 : 0);
  w.u8(t.matches_steady ? 1 : 0);
  w.u64(t.mismatches);
}

std::vector<std::uint8_t> transient_bytes(const converge::StepTransient& s) {
  guard::ByteWriter w;
  w.u64(s.index);
  w.str(s.event);
  w.u64(s.regions.size());
  for (const converge::RegionTransient& t : s.regions) write_region(w, t);
  w.u64(s.probes);
  w.u64(s.probes_blackholed);
  w.u64(s.probes_looped);
  w.u64(s.probes_flipped);
  w.u64(s.probes_dark_at_end);
  w.f64(s.reconverge_p50_ms);
  w.f64(s.reconverge_p90_ms);
  w.f64(s.reconverge_max_ms);
  w.f64(s.blackhole_p50_ms);
  w.f64(s.blackhole_p90_ms);
  w.f64(s.blackhole_max_ms);
  w.u8(s.matches_steady ? 1 : 0);
  w.u8(s.oscillating ? 1 : 0);
  return w.take();
}

void write_site(guard::ByteWriter& w, const traffic::SiteLoad& s) {
  w.f64(s.capacity_mbps);
  w.f64(s.offered_mbps);
  w.f64(s.served_mbps);
  w.f64(s.shed_out_mbps);
  w.f64(s.dropped_mbps);
  w.f64(s.utilization);
  w.f64(s.queue_delay_ms);
  w.u64(s.flows_offered);
  w.u64(s.flows_served);
  w.u64(s.flows_shed_out);
  w.u64(s.flows_shed_in);
  w.u64(s.flows_dropped);
  w.u8(s.overloaded ? 1 : 0);
}

std::vector<std::uint8_t> traffic_bytes(const traffic::StepTraffic& t) {
  guard::ByteWriter w;
  w.u64(t.index);
  w.str(t.event);
  w.u64(t.solve.sites.size());
  for (const traffic::SiteLoad& s : t.solve.sites) write_site(w, s);
  w.f64(t.solve.offered_mbps);
  w.f64(t.solve.served_mbps);
  w.f64(t.solve.shed_mbps);
  w.f64(t.solve.dropped_mbps);
  w.u64(t.solve.flows_offered);
  w.u64(t.solve.flows_served);
  w.u64(t.solve.flows_shed);
  w.u64(t.solve.flows_dropped);
  w.u64(t.solve.flows_unrouted);
  w.f64(t.solve.unrouted_mbps);
  w.u64(t.solve.overloaded_sites);
  w.u64(t.solve.cascade_depth);
  w.f64(t.solve.max_utilization);
  w.f64(t.solve.mean_utilization);
  w.f64(t.solve.queue_delay_p50_ms);
  w.f64(t.solve.queue_delay_p90_ms);
  w.f64(t.solve.queue_delay_max_ms);
  w.f64(t.before_max_utilization);
  w.f64(t.before_mean_utilization);
  w.u64(t.tipped_sites);
  w.u64(t.cascade_depth);
  w.f64(t.inflated_p50_ms);
  w.f64(t.inflated_p90_ms);
  return w.take();
}

std::vector<std::uint8_t> stats_bytes(const serve::ServeStats& s) {
  guard::ByteWriter w;
  w.u64(s.queries);
  w.u64(s.served);
  w.u64(s.shed_queue);
  w.u64(s.shed_deadline);
  w.u64(s.shed_rate);
  w.u64(s.rejected);
  w.u64(s.epochs_published);
  w.u64(s.builds_failed);
  w.u64(s.world_events_applied);
  return w.take();
}

/// The list writes exactly `expected`, and reads it back to the record.
template <typename R>
void expect_layout(const R& record, const std::vector<std::uint8_t>& expected) {
  guard::ByteWriter w;
  guard::write_fields(w, record);
  EXPECT_EQ(w.data(), expected);
  guard::ByteReader r(expected);
  R back;
  ASSERT_TRUE(guard::read_fields(r, back));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back, record);
}

// --- the JSON objects as the reports print them -----------------------------

constexpr const char* kStepJson =
    R"({"affected_probes":57,"after_p50_ms":66.75,"after_p90_ms":108.125,)"
    R"("before_p50_ms":54.25,"before_p90_ms":91.5,"churn":0.0054639175257731962,)"
    R"("cross_region":7,"degraded_dns_answers":19,"event":"site_withdraw site=2 'pin'",)"
    R"("failover_in_region":38,"gained":5,"index":3,"lost":12,"lost_pings":23,"moved":41,)"
    R"("probes":9722,"routes_after":9650,"routes_before":9700,"still_served":45,)"
    R"("survival_rate":0.78947368421052633})";

constexpr const char* kTransientJson =
    R"({"blackhole_max_ms":6.25,"blackhole_p50_ms":4.25,"blackhole_p90_ms":5.25,)"
    R"("event":"link_down 3356-174","index":4,"matches_steady":false,"oscillating":true,)"
    R"("probes":301,"probes_blackholed":302,"probes_dark_at_end":305,"probes_flipped":304,)"
    R"("probes_looped":303,"reconverge_max_ms":3.5,"reconverge_p50_ms":1.5,)"
    R"("reconverge_p90_ms":2.5,"regions":[{"converged_us":105,"events":101,)"
    R"("last_event_us":106,"matches_steady":false,"max_blackhole_us":113,"mismatches":114,)"
    R"("nodes_blackholed":111,"nodes_changed":110,"nodes_dark_at_end":112,"oscillating":true,)"
    R"("rib_changes":104,"site_flips":109,"suppressed":108,"transient_loops":107,)"
    R"("updates_sent":102,"withdrawals_sent":103},{"converged_us":205,"events":201,)"
    R"("last_event_us":206,"matches_steady":true,"max_blackhole_us":213,"mismatches":214,)"
    R"("nodes_blackholed":211,"nodes_changed":210,"nodes_dark_at_end":212,"oscillating":false,)"
    R"("rib_changes":204,"site_flips":209,"suppressed":208,"transient_loops":207,)"
    R"("updates_sent":202,"withdrawals_sent":203}]})";

constexpr const char* kTrafficJson =
    R"({"before_max_utilization":618.75,"before_mean_utilization":619.75,"cascade_depth":621,)"
    R"("event":"traffic_surge x1.45","index":5,"inflated_p50_ms":622.75,)"
    R"("inflated_p90_ms":623.75,"solve":{"cascade_depth":612,"dropped_mbps":604.5,)"
    R"("flows_dropped":608,"flows_offered":605,"flows_served":606,"flows_shed":607,)"
    R"("flows_unrouted":609,"max_utilization":613.25,"mean_utilization":614.25,)"
    R"("offered_mbps":601.5,"overloaded_sites":611,"queue_delay_max_ms":617.25,)"
    R"("queue_delay_p50_ms":615.25,"queue_delay_p90_ms":616.25,"served_mbps":602.5,)"
    R"("shed_mbps":603.5,"sites":[{"capacity_mbps":10.5,"dropped_mbps":14.5,)"
    R"("flows_dropped":405,"flows_offered":401,"flows_served":402,"flows_shed_in":404,)"
    R"("flows_shed_out":403,"offered_mbps":11.5,"overloaded":true,"queue_delay_ms":16.5,)"
    R"("served_mbps":12.5,"shed_out_mbps":13.5,"site":0,"utilization":15.5},)"
    R"({"capacity_mbps":20.5,"dropped_mbps":24.5,"flows_dropped":505,"flows_offered":501,)"
    R"("flows_served":502,"flows_shed_in":504,"flows_shed_out":503,"offered_mbps":21.5,)"
    R"("overloaded":false,"queue_delay_ms":26.5,"served_mbps":22.5,"shed_out_mbps":23.5,)"
    R"("site":1,"utilization":25.5}],"unrouted_mbps":610.5},"tipped_sites":620})";

TEST(RecordLayout, StepReportBytes) { expect_layout(make_step(), step_bytes(make_step())); }

TEST(RecordLayout, StepTransientBytes) {
  expect_layout(make_transient(), transient_bytes(make_transient()));
}

TEST(RecordLayout, StepTrafficBytes) {
  expect_layout(make_traffic(), traffic_bytes(make_traffic()));
}

TEST(RecordLayout, ServeStatsBytes) { expect_layout(make_stats(), stats_bytes(make_stats())); }

TEST(RecordLayout, StepReportJson) {
  ChaosReport report;
  report.steps.push_back(make_step());
  EXPECT_EQ(report_to_json(report).as_object().at("steps").as_array().at(0).dump(), kStepJson);
}

TEST(RecordLayout, StepTransientJson) {
  EXPECT_EQ(converge::transient_to_json(make_transient()).dump(), kTransientJson);
}

TEST(RecordLayout, StepTrafficJson) {
  EXPECT_EQ(traffic::step_to_json(make_traffic()).dump(), kTrafficJson);
}

TEST(RecordLayout, VectorCountBeyondTheBytesLeftFailsTheRead) {
  std::vector<std::uint8_t> bytes = transient_bytes(make_transient());
  // The region count follows the index (u64) and the event (u32 length, bytes).
  const std::size_t count_at = 8 + 4 + make_transient().event.size();
  guard::ByteWriter huge;
  huge.u64(std::uint64_t{1} << 62);
  std::copy(huge.data().begin(), huge.data().end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(count_at));
  guard::ByteReader r(bytes);
  converge::StepTransient back;
  EXPECT_FALSE(guard::read_fields(r, back));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace ranycast::chaos
