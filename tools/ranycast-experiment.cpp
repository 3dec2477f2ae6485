// ranycast-experiment — run a paper experiment from a JSON configuration.
//
//   ranycast-experiment [--config FILE] [--experiment NAME] [--format table|csv]
//                       [--dump-config] [--obs] [--journal FILE] [--trace-out FILE]
//                       [--cdn NAME] [--region N] [--trials N]
//                       [--stubs N] [--probes N] [--seed N]
//                       [--traffic-policy spill|shed] [--traffic-capacity-mbps X]
//                       [--traffic-scale X]
//                       [--deadline SECONDS] [--stall-timeout SECONDS]
//                       [--checkpoint FILE] [--checkpoint-every K] [--resume]
//                       [--abort-after N]
//
// Experiments:
//   table3     Imperva-6 vs Imperva-NS tail latency (80/90/95th per area)
//   fig6c      ReOpt regional vs global anycast on the Tangled testbed
//   causes     §5.4 latency-reduction cause classification
//   stability  §5.3 catchment stability across --trials tie-break seeds
//   traffic    failover under load: surge demand, withdraw the busiest site,
//              and report per-step utilization/shed/drop accounting under the
//              chosen overload policy (docs/traffic.md)
//
// The configuration schema is documented in ranycast/io/config.hpp; any
// omitted key keeps the library default, so {} is a valid config.
//
// --obs force-enables observability and prints the JSON metrics/trace
// report to stderr after the experiment (stdout keeps the table/csv).
//
// The stability experiment honours the guard flags (docs/reliability.md):
// under --deadline it emits the trials completed so far and exits 3, and
// --checkpoint/--resume continue a killed campaign with a final report
// identical to an uninterrupted run. --abort-after N hard-kills the process
// after N trials (crash-recovery tests and CI).
//
// --journal FILE appends the structured NDJSON run journal; --trace-out FILE
// also writes a Chrome/Perfetto trace of the run (docs/observability.md).
// Both imply --obs recording.
#include <cstdio>
#include <iostream>

#include "ranycast/guard/runtime.hpp"
#include "ranycast/resilience/stability.hpp"

#include "ranycast/analysis/export.hpp"
#include "ranycast/analysis/stats.hpp"
#include "ranycast/analysis/table.hpp"
#include "ranycast/cdn/catalog.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/plan.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/lab/comparison.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/tangled/study.hpp"
#include "ranycast/traffic/config.hpp"

#include "cli.hpp"

using namespace ranycast;

namespace {

int run_table3(lab::Lab& laboratory, bool csv) {
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto& ns = laboratory.add_deployment(cdn::catalog::imperva_ns());
  const auto result = lab::compare_regional_global(laboratory, im6, ns);
  std::array<std::vector<double>, geo::kAreaCount> reg, glob;
  for (const auto& g : result.groups) {
    reg[static_cast<int>(g.area)].push_back(g.regional_ms);
    glob[static_cast<int>(g.area)].push_back(g.global_ms);
  }
  analysis::CsvWriter out({"percentile", "area", "regional_ms", "global_ms"});
  analysis::TextTable table({"percentile", "area", "regional", "global"});
  for (const double p : {80.0, 90.0, 95.0}) {
    for (std::size_t a = 0; a < geo::kAreaCount; ++a) {
      const std::string area{geo::to_string(static_cast<geo::Area>(a))};
      const double r = analysis::percentile(reg[a], p);
      const double g = analysis::percentile(glob[a], p);
      out.add_row({std::to_string(static_cast<int>(p)), area, std::to_string(r),
                   std::to_string(g)});
      table.add_row({std::to_string(static_cast<int>(p)) + "-th", area,
                     analysis::fmt_ms(r), analysis::fmt_ms(g)});
    }
  }
  if (csv) {
    out.write(std::cout);
  } else {
    std::printf("%s", table.render().c_str());
  }
  return 0;
}

int run_fig6c(lab::Lab& laboratory, bool csv) {
  const auto study = tangled::run_study(laboratory);
  std::array<std::vector<double>, geo::kAreaCount> reg, glob;
  for (const auto& r : study.results) {
    reg[static_cast<int>(r.probe->area())].push_back(r.route53_ms);
    glob[static_cast<int>(r.probe->area())].push_back(r.global_ms);
  }
  analysis::CsvWriter out({"area", "global_p90_ms", "regional_p90_ms"});
  analysis::TextTable table({"area", "global p90", "regional p90"});
  for (std::size_t a = 0; a < geo::kAreaCount; ++a) {
    const std::string area{geo::to_string(static_cast<geo::Area>(a))};
    const double g = analysis::percentile(glob[a], 90);
    const double r = analysis::percentile(reg[a], 90);
    out.add_row({area, std::to_string(g), std::to_string(r)});
    table.add_row({area, analysis::fmt_ms(g), analysis::fmt_ms(r)});
  }
  if (csv) {
    out.write(std::cout);
  } else {
    std::printf("chosen k = %d\n%s", study.reopt.k, table.render().c_str());
  }
  return 0;
}

int run_causes(lab::Lab& laboratory, bool csv) {
  const auto& im6 = laboratory.add_deployment(cdn::catalog::imperva6());
  const auto& ns = laboratory.add_deployment(cdn::catalog::imperva_ns());
  const auto result = lab::compare_regional_global(laboratory, im6, ns);
  const auto causes = lab::classify_reduction_causes(result);
  analysis::CsvWriter out({"cause", "groups"});
  out.add_row({"as_relationship", std::to_string(causes.as_relationship)});
  out.add_row({"peering_type", std::to_string(causes.peering_type)});
  out.add_row({"unknown", std::to_string(causes.unknown)});
  if (csv) {
    out.write(std::cout);
  } else {
    std::printf("reduced groups: %zu\n  AS-relationship overrides: %zu\n"
                "  peering-type overrides:    %zu\n  unclassified:              %zu\n",
                causes.reduced_groups, causes.as_relationship, causes.peering_type,
                causes.unknown);
  }
  return 0;
}

// Failover under load (docs/traffic.md): install a demand surge, withdraw
// the deployment's busiest site, restore it, and let the traffic plane
// account for where the displaced load went under the chosen policy.
int run_traffic(lab::Lab& laboratory, bool csv, const flags::Parser& args) {
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;
  const auto& handle = laboratory.add_deployment(*spec);
  traffic::TrafficConfig cfg;
  const std::string policy = args.get_or("traffic-policy", std::string("spill"));
  if (io::from_json(io::Json(policy), cfg.policy)) {
    std::fprintf(stderr, "unknown --traffic-policy '%s' (spill|shed)\n", policy.c_str());
    return 2;
  }
  cfg.default_site_capacity_mbps =
      args.get_or("traffic-capacity-mbps", cfg.default_site_capacity_mbps);
  cfg.demand_scale = args.get_or("traffic-scale", cfg.demand_scale);
  if (const auto err = traffic::validate(cfg, "<flags>")) {
    std::fprintf(stderr, "traffic config error: %s\n", err->to_string().c_str());
    return 2;
  }

  // The busiest site is the interesting victim: its catchment is what the
  // surge piles onto and what the withdrawal displaces.
  std::unordered_map<std::uint16_t, int> counts;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    const auto answer = laboratory.dns_lookup(*p, handle, dns::QueryMode::Ldns);
    if (const auto site = handle.catchment(p->asn, answer.region)) counts[value(*site)]++;
  }
  std::uint16_t victim = 0;
  int best = -1;
  for (const auto& [site, count] : counts) {
    if (count > best || (count == best && site < victim)) {
      best = count;
      victim = site;
    }
  }

  chaos::FaultPlan plan;
  plan.name = "failover-under-load";
  chaos::FaultEvent e;
  e.kind = chaos::FaultKind::TrafficSurge;
  e.magnitude = 1.45;
  e.label = "demand surge";
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteWithdraw;
  e.site = SiteId{victim};
  e.label = "busiest site fails";
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::SiteRestore;
  e.site = SiteId{victim};
  plan.events.push_back(e);
  e = chaos::FaultEvent{};
  e.kind = chaos::FaultKind::TrafficRestore;
  plan.events.push_back(e);

  chaos::Engine engine(laboratory, handle);
  engine.enable_traffic(cfg);
  auto report = engine.run(plan);
  if (!report) {
    std::fprintf(stderr, "traffic experiment error: %s\n", report.error().c_str());
    return 2;
  }

  analysis::CsvWriter out({"step", "event", "offered_mbps", "served_mbps", "shed_mbps",
                           "dropped_mbps", "max_utilization", "overloaded_sites",
                           "cascade_depth", "queue_delay_p90_ms"});
  analysis::TextTable table({"#", "event", "offered", "served", "shed", "dropped",
                             "util max", "hot", "cascade", "q p90"});
  for (const auto& t : report->traffic) {
    const auto& s = t.solve;
    out.add_row({std::to_string(t.index), t.event, std::to_string(s.offered_mbps),
                 std::to_string(s.served_mbps), std::to_string(s.shed_mbps),
                 std::to_string(s.dropped_mbps), std::to_string(s.max_utilization),
                 std::to_string(s.overloaded_sites), std::to_string(t.cascade_depth),
                 std::to_string(s.queue_delay_p90_ms)});
    table.add_row({std::to_string(t.index), t.event, analysis::fmt_ms(s.offered_mbps, 0),
                   analysis::fmt_ms(s.served_mbps, 0), analysis::fmt_ms(s.shed_mbps, 0),
                   analysis::fmt_ms(s.dropped_mbps, 0),
                   analysis::fmt_pct(s.max_utilization, 1),
                   analysis::fmt_count(s.overloaded_sites),
                   analysis::fmt_count(t.cascade_depth),
                   analysis::fmt_ms(s.queue_delay_p90_ms, 2)});
  }
  if (csv) {
    out.write(std::cout);
  } else {
    std::printf("policy: %s, victim site: %u\n%s",
                std::string(traffic::to_string(cfg.policy)).c_str(), victim,
                table.render().c_str());
  }
  return 0;
}

void print_stability(const resilience::StabilityReport& report, bool csv) {
  if (csv) {
    analysis::CsvWriter out({"trials", "ases_observed", "ases_stable", "stable_fraction",
                             "mean_pairwise_agreement"});
    out.add_row({std::to_string(report.trials), std::to_string(report.ases_observed),
                 std::to_string(report.ases_stable), std::to_string(report.stable_fraction()),
                 std::to_string(report.mean_pairwise_agreement)});
    out.write(std::cout);
  } else {
    std::printf("trials: %zu\n  ASes observed: %zu\n  ASes stable:   %zu (%.1f%%)\n"
                "  mean pairwise agreement: %.3f\n",
                report.trials, report.ases_observed, report.ases_stable,
                report.stable_fraction() * 100.0, report.mean_pairwise_agreement);
  }
}

int run_stability(lab::Lab& laboratory, bool csv, const flags::Parser& args) {
  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;
  const auto& handle = laboratory.add_deployment(*spec);
  const auto region = static_cast<std::size_t>(args.get_or("region", std::int64_t{0}));
  const int trials = static_cast<int>(args.get_or("trials", std::int64_t{8}));
  if (region >= handle.deployment.regions().size()) {
    std::fprintf(stderr, "deployment '%s' has no region %zu\n", cdn_name.c_str(), region);
    return 2;
  }

  if (!cli::guarded(args)) {
    print_stability(
        resilience::catchment_stability(laboratory, handle.deployment, region, trials), csv);
    return 0;
  }

  const auto guard = cli::guard_flags(args);
  if (!guard) return 2;
  guard::Supervisor supervisor(guard->limits);
  // SIGTERM/SIGINT cancel cooperatively: a final checkpoint and `stopped`
  // journal line are flushed, and the exit-3 truncated run resumes cleanly.
  const guard::ScopedSignalCancel signal_cancel(supervisor);
  auto outcome = resilience::catchment_stability_guarded(
      laboratory, handle.deployment, region, trials, supervisor, guard->policy);
  if (!outcome) {
    std::fprintf(stderr, "stability error: %s\n", outcome.error().to_string().c_str());
    return 2;
  }
  if (outcome->sweep.resumed) {
    std::fprintf(stderr, "[guard] resumed from %s at trial %zu/%zu\n",
                 guard->policy.path.c_str(), outcome->sweep.resumed_from,
                 outcome->sweep.total);
  }
  print_stability(outcome->report, csv);
  if (!outcome->sweep.complete()) {
    std::fprintf(stderr, "[guard] stopped (%s): completed %zu of %zu trials\n",
                 std::string(guard::to_string(outcome->sweep.stopped)).c_str(),
                 outcome->sweep.completed, outcome->sweep.total);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad :
       args.unknown({"config", "experiment", "format", "dump-config", "obs", "cdn",
                     "region", "trials", "stubs", "probes", "seed", "deadline",
                     "stall-timeout", "checkpoint", "checkpoint-every", "resume",
                     "abort-after", "journal", "trace-out", "traffic-policy",
                     "traffic-capacity-mbps", "traffic-scale"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  obs::Journal journal;
  const auto journal_path = cli::start_journal(args, journal);
  if (!journal_path) return 2;

  const auto config = cli::lab_config(args);
  if (!config) return 2;
  if (args.has("dump-config")) {
    std::printf("%s\n", io::to_json(*config).dump(2).c_str());
    return 0;
  }

  const bool csv = args.get_or("format", std::string("table")) == "csv";
  const std::string experiment = args.get_or("experiment", std::string("table3"));
  using F = obs::JournalField;
  obs::journal_event(
      "run_manifest",
      {F::str("tool", "ranycast-experiment"), F::str("experiment", experiment),
       F::u64_field("stubs", static_cast<std::uint64_t>(config->world.stub_count)),
       F::u64_field("probes", static_cast<std::uint64_t>(config->census.total_probes)),
       F::u64_field("seed", config->seed)},
      /*durable=*/true);
  obs::journal_event("phase_begin", {F::str("phase", "lab.build")});
  auto laboratory = lab::Lab::create(*config);
  obs::journal_event("phase_end", {F::str("phase", "lab.build")}, /*durable=*/true);
  obs::journal_event("phase_begin", {F::str("phase", "experiment." + experiment)});
  std::optional<int> rc;
  if (experiment == "table3") rc = run_table3(laboratory, csv);
  if (experiment == "fig6c") rc = run_fig6c(laboratory, csv);
  if (experiment == "causes") rc = run_causes(laboratory, csv);
  if (experiment == "stability") rc = run_stability(laboratory, csv, args);
  if (experiment == "traffic") rc = run_traffic(laboratory, csv, args);
  if (!rc) {
    std::fprintf(stderr, "unknown experiment '%s' (table3|fig6c|causes|stability|traffic)\n",
                 experiment.c_str());
    return 2;
  }
  obs::journal_event("phase_end",
                     {F::str("phase", "experiment." + experiment),
                      F::i64_field("exit_code", *rc)},
                     /*durable=*/true);
  if (!cli::finish_journal(args, journal, *journal_path)) return 2;
  if (args.has("obs")) std::fprintf(stderr, "%s\n", obs::json_report().c_str());
  return *rc;
}
