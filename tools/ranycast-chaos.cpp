// ranycast-chaos — run a fault-injection scenario against a deployment.
//
//   ranycast-chaos --scenario FILE [--config FILE] [--cdn NAME] [--stubs N]
//                  [--probes N] [--seed N] [--format table|json] [--out FILE]
//                  [--describe] [--obs] [--journal FILE] [--trace-out FILE]
//                  [--transient] [--mrai-ms N] [--proc-ms N] [--damping]
//                  [--dns-ttl-ms N] [--max-events N]
//                  [--traffic] [--traffic-policy spill|shed]
//                  [--traffic-capacity-mbps N] [--traffic-scale X]
//                  [--delta-verify N]
//                  [--deadline SECONDS] [--stall-timeout SECONDS]
//                  [--checkpoint FILE] [--checkpoint-every K] [--checkpoint-keep K] [--resume]
//                  [--abort-after N]
//
// Loads a JSON fault plan (schema in docs/resilience.md), builds a
// laboratory, deploys the chosen CDN and applies the plan step by step,
// printing one impact row (or JSON object) per fault event. All failure
// modes — unreadable scenario, syntax error, bad field, unappliable event —
// print an actionable message to stderr and exit 2.
//
// The run is fully deterministic: the same --seed and scenario produce a
// byte-identical JSON report. --obs additionally writes BENCH_chaos.json
// telemetry (timings live there, never in the report).
//
// --transient additionally runs every step through the event-driven BGP
// convergence plane (docs/convergence.md): the report gains per-step
// blackhole windows, transient loops, interim catchment flips and the time
// to reconverge, and the table output a second "transient convergence"
// section. --mrai-ms / --proc-ms / --damping / --dns-ttl-ms / --max-events
// tune the plane's timers.
//
// --traffic runs every step through the flow-level load plane
// (docs/traffic.md): the report gains per-site utilization, shed/dropped
// flow and cascade-depth accounting, and the table output a "traffic"
// section plus the final per-site serving state. The scenario file may
// declare a "traffic" block with the full model; the flags enable it with
// defaults and override its policy / default capacity / demand scale.
//
// Each step re-solves only the regional prefixes the fault touched, through
// the incremental delta solver (docs/performance.md, "Incremental
// re-solve"). --delta-verify N checks it: every Nth re-solve of a region is
// compared against a from-scratch solve (a mismatch self-heals and counts
// in bgp.delta.verify_mismatch); reports, checkpoints and resume
// fingerprints are identical with or without it.
//
// Guard flags (docs/reliability.md) run the timeline under a supervisor:
// --deadline time-boxes the run (a truncated report is still emitted, with
// completed-vs-planned accounting, and the tool exits 3), --checkpoint
// persists progress every K steps so a killed run can be continued with
// --resume — the resumed report is byte-identical to an uninterrupted one.
// --abort-after N hard-kills the process (as SIGKILL would) after N
// completed steps; it exists for crash-recovery tests and CI.
//
// --journal FILE appends the structured NDJSON run journal (run_manifest,
// phase markers, one chaos_step per measured step, transient_window under
// --transient, checkpoint/resumed/stopped from guard), fsync'd at step
// granularity — readable up to the last completed step after SIGKILL.
// --trace-out FILE additionally converts journal + flight recorder into
// Chrome traceEvents JSON for ui.perfetto.dev (docs/observability.md);
// both flags imply --obs.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "ranycast/guard/runtime.hpp"

#include "ranycast/analysis/table.hpp"
#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/scenario.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/obs/report.hpp"
#include "ranycast/traffic/config.hpp"

#include "cli.hpp"

using namespace ranycast;

namespace {

std::string render_transient_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "blackholed", "looped", "flipped", "reconv p50",
                             "reconv p90", "dark p50", "dark max", "steady", "oscill"});
  for (const converge::StepTransient& t : report.transient) {
    table.add_row({std::to_string(t.index), t.event,
                   analysis::fmt_count(t.probes_blackholed),
                   analysis::fmt_count(t.probes_looped),
                   analysis::fmt_count(t.probes_flipped),
                   analysis::fmt_ms(t.reconverge_p50_ms),
                   analysis::fmt_ms(t.reconverge_p90_ms),
                   analysis::fmt_ms(t.blackhole_p50_ms),
                   analysis::fmt_ms(t.blackhole_max_ms),
                   t.matches_steady ? "yes" : "NO",
                   t.oscillating ? "YES" : "no"});
  }
  return table.render();
}

std::string render_traffic_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "offered", "served", "shed", "dropped",
                             "util max", "hot", "tipped", "cascade", "q p90",
                             "p50+q"});
  for (const traffic::StepTraffic& t : report.traffic) {
    table.add_row({std::to_string(t.index), t.event,
                   analysis::fmt_ms(t.solve.offered_mbps, 0),
                   analysis::fmt_ms(t.solve.served_mbps, 0),
                   analysis::fmt_count(t.solve.flows_shed),
                   analysis::fmt_count(t.solve.flows_dropped),
                   analysis::fmt_pct(t.solve.max_utilization),
                   analysis::fmt_count(t.solve.overloaded_sites),
                   analysis::fmt_count(t.tipped_sites),
                   analysis::fmt_count(t.cascade_depth),
                   analysis::fmt_ms(t.solve.queue_delay_p90_ms, 2),
                   analysis::fmt_ms(t.inflated_p50_ms)});
  }
  return table.render();
}

/// Final serving state, one row per site. Utilization and queueing delay of
/// a zero-capacity site are undefined, not zero — rendered as `n/a`.
std::string render_site_table(const traffic::TrafficSolve& solve) {
  analysis::TextTable table({"site", "cap mbps", "offered", "served", "shed out",
                             "dropped", "util", "q delay", "hot"});
  for (std::size_t i = 0; i < solve.sites.size(); ++i) {
    const traffic::SiteLoad& s = solve.sites[i];
    const bool has_capacity = s.capacity_mbps > 0.0;
    table.add_row({std::to_string(i), analysis::fmt_ms(s.capacity_mbps, 0),
                   analysis::fmt_ms(s.offered_mbps, 0), analysis::fmt_ms(s.served_mbps, 0),
                   analysis::fmt_count(s.flows_shed_out),
                   analysis::fmt_count(s.flows_dropped),
                   has_capacity ? analysis::fmt_pct(s.utilization) : "n/a",
                   has_capacity ? analysis::fmt_ms(s.queue_delay_ms, 2) : "n/a",
                   s.overloaded ? "YES" : "no"});
  }
  return table.render();
}

std::string render_table(const chaos::ChaosReport& report) {
  analysis::TextTable table({"#", "event", "affected", "survive", "churn", "p50 before",
                             "p50 after", "in-area", "x-region", "dns-degraded",
                             "lost-pings"});
  for (const chaos::StepReport& s : report.steps) {
    table.add_row({std::to_string(s.index), s.event,
                   analysis::fmt_count(s.affected_probes),
                   analysis::fmt_pct(s.survival_rate()), analysis::fmt_pct(s.churn()),
                   analysis::fmt_ms(s.before_p50_ms), analysis::fmt_ms(s.after_p50_ms),
                   analysis::fmt_count(s.failover_in_region),
                   analysis::fmt_count(s.cross_region),
                   analysis::fmt_count(s.degraded_dns_answers),
                   analysis::fmt_count(s.lost_pings)});
  }
  return table.render();
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"scenario", "config", "cdn", "stubs", "probes",
                                       "seed", "format", "out", "describe", "obs",
                                       "journal", "trace-out",
                                       "transient", "mrai-ms", "proc-ms", "damping",
                                       "dns-ttl-ms", "max-events",
                                       "traffic", "traffic-policy",
                                       "traffic-capacity-mbps", "traffic-scale",
                                       "delta-verify",
                                       "deadline", "stall-timeout", "checkpoint",
                                       "checkpoint-every", "checkpoint-keep", "resume",
                                       "abort-after"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  const std::string format = args.get_or("format", std::string("table"));
  if (format != "table" && format != "json") {
    std::fprintf(stderr, "unknown format '%s' (table|json)\n", format.c_str());
    return 2;
  }
  const auto scenario_path = args.get("scenario");
  if (!scenario_path) {
    std::fprintf(stderr, "--scenario FILE is required\n");
    return 2;
  }
  auto scenario_json = io::load_json(*scenario_path);
  if (!scenario_json) {
    std::fprintf(stderr, "scenario error: %s\n",
                 scenario_json.error().to_string().c_str());
    return 2;
  }
  auto plan = chaos::plan_from_json(*scenario_json, *scenario_path);
  if (!plan) {
    std::fprintf(stderr, "scenario error: %s\n", plan.error().to_string().c_str());
    return 2;
  }
  auto scenario_traffic = chaos::traffic_from_scenario(*scenario_json, *scenario_path);
  if (!scenario_traffic) {
    std::fprintf(stderr, "scenario error: %s\n",
                 scenario_traffic.error().to_string().c_str());
    return 2;
  }
  std::optional<traffic::TrafficConfig> traffic_cfg = std::move(*scenario_traffic);
  const bool traffic_flags = args.has("traffic") || args.has("traffic-policy") ||
                             args.has("traffic-capacity-mbps") ||
                             args.has("traffic-scale");
  if (traffic_flags && !traffic_cfg) traffic_cfg.emplace();
  if (traffic_cfg) {
    const auto policy = args.get("traffic-policy");
    if (policy && io::from_json(io::Json(*policy), traffic_cfg->policy)) {
      std::fprintf(stderr, "unknown traffic policy '%s' (spill|shed)\n", policy->c_str());
      return 2;
    }
    if (args.has("traffic-capacity-mbps")) {
      traffic_cfg->default_site_capacity_mbps = args.get_or("traffic-capacity-mbps", 600.0);
    }
    if (args.has("traffic-scale")) {
      traffic_cfg->demand_scale = args.get_or("traffic-scale", 1.0);
    }
    if (auto err = traffic::validate(*traffic_cfg, *scenario_path)) {
      std::fprintf(stderr, "traffic config error: %s\n", err->to_string().c_str());
      return 2;
    }
  }
  if (args.has("describe")) {
    std::printf("plan '%s' (%zu events)\n", plan->name.c_str(), plan->events.size());
    for (std::size_t i = 0; i < plan->events.size(); ++i) {
      std::printf("  %2zu  %s\n", i, chaos::describe(plan->events[i]).c_str());
    }
    return 0;
  }

  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;

  obs::Journal journal;
  const auto journal_path = cli::start_journal(args, journal);
  if (!journal_path) return 2;
  obs::MetricsRegistry::global().set_label("tool", "ranycast-chaos");
  obs::MetricsRegistry::global().set_label("chaos.plan", plan->name);

  const auto config = cli::lab_config(args);
  if (!config) return 2;

  using F = obs::JournalField;
  obs::journal_event(
      "run_manifest",
      {F::str("tool", "ranycast-chaos"), F::str("scenario", *scenario_path),
       F::str("plan", plan->name), F::str("cdn", cdn_name),
       F::u64_field("stubs", static_cast<std::uint64_t>(config->world.stub_count)),
       F::u64_field("probes", static_cast<std::uint64_t>(config->census.total_probes)),
       F::u64_field("seed", config->seed),
       F::u64_field("planned_steps", plan->events.size()),
       F::bool_field("transient", args.has("transient")),
       F::bool_field("traffic", traffic_cfg.has_value()),
       F::bool_field("resume", args.has("resume"))},
      /*durable=*/true);

  obs::journal_event("phase_begin", {F::str("phase", "lab.build")});
  auto laboratory = lab::Lab::create(*config);
  laboratory.set_delta_config(bgp::DeltaConfig{
      static_cast<std::uint32_t>(args.get_or("delta-verify", std::int64_t{0}))});
  const auto& handle = laboratory.add_deployment(*spec);
  chaos::Engine engine(laboratory, handle);
  obs::journal_event("phase_end", {F::str("phase", "lab.build")}, /*durable=*/true);

  if (args.has("transient")) {
    converge::Config ccfg;
    ccfg.timers.mrai_us =
        static_cast<std::uint64_t>(args.get_or("mrai-ms", std::int64_t{5000})) * 1000;
    ccfg.timers.proc_delay_us =
        static_cast<std::uint64_t>(args.get_or("proc-ms", std::int64_t{10})) * 1000;
    ccfg.damping.enabled = args.has("damping");
    ccfg.dns_failover_us =
        static_cast<std::uint64_t>(args.get_or("dns-ttl-ms", std::int64_t{30000})) * 1000;
    ccfg.max_events = static_cast<std::uint64_t>(args.get_or("max-events", std::int64_t{0}));
    engine.enable_transient(ccfg);
  }
  if (traffic_cfg) engine.enable_traffic(*traffic_cfg);

  obs::journal_event("phase_begin", {F::str("phase", "chaos.run")});
  chaos::ChaosReport report;
  bool truncated = false;
  if (cli::guarded(args)) {
    const auto guard = cli::guard_flags(args);
    if (!guard) return 2;
    guard::Supervisor supervisor(guard->limits);
    // SIGTERM/SIGINT stop the timeline cooperatively at the next step
    // boundary: the sweep flushes a final checkpoint plus the `stopped`
    // journal line and the tool exits 3 with a resumable truncated report.
    const guard::ScopedSignalCancel signal_cancel(supervisor);
    auto outcome = engine.run_guarded(*plan, supervisor, guard->policy);
    if (!outcome) {
      std::fprintf(stderr, "chaos error: %s\n", outcome.error().c_str());
      return 2;
    }
    if (outcome->sweep.resumed) {
      std::fprintf(stderr, "[guard] resumed from %s at step %zu/%zu\n",
                   guard->policy.path.c_str(), outcome->sweep.resumed_from,
                   outcome->sweep.total);
    }
    report = std::move(outcome->report);
    truncated = report.truncated;
    if (truncated) {
      std::fprintf(stderr, "[guard] stopped (%s): completed %zu of %zu steps\n",
                   std::string(guard::to_string(outcome->sweep.stopped)).c_str(),
                   report.completed_steps, report.planned_steps);
    }
  } else {
    auto outcome = engine.run(*plan);
    if (!outcome) {
      std::fprintf(stderr, "chaos error: %s\n", outcome.error().c_str());
      return 2;
    }
    report = std::move(*outcome);
  }
  obs::journal_event("phase_end",
                     {F::str("phase", "chaos.run"),
                      F::u64_field("completed_steps", report.completed_steps),
                      F::bool_field("truncated", truncated)},
                     /*durable=*/true);

  std::string rendered = format == "json" ? chaos::report_to_json(report).dump(2) + "\n"
                                          : render_table(report);
  if (format == "table" && !report.transient.empty()) {
    rendered += "\ntransient convergence\n" + render_transient_table(report);
  }
  if (format == "table" && !report.traffic.empty()) {
    rendered += "\ntraffic (" + std::string(traffic::to_string(traffic_cfg->policy)) +
                ")\n" + render_traffic_table(report);
    rendered += "\nfinal serving state\n" + render_site_table(report.traffic.back().solve);
  }
  if (const auto out_path = args.get("out")) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path->c_str());
      return 2;
    }
    out << rendered;
  } else {
    std::fputs(rendered.c_str(), stdout);
  }

  if (!cli::finish_journal(args, journal, *journal_path)) return 2;

  if (obs::enabled() && args.has("obs")) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (obs::write_bench_report("chaos", wall_ms)) {
      std::fprintf(stderr, "[obs] wrote BENCH_chaos.json\n");
    }
  }
  return truncated ? 3 : 0;
}
