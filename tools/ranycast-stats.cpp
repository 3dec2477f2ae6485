// ranycast-stats — build a laboratory, run a measurement pass, dump the full
// observability report.
//
//   ranycast-stats [--stubs N] [--probes N] [--cdn NAME] [--seed N]
//                  [--pings N] [--format report|trace]
//
// Observability is force-enabled for the process, a lab is built and the
// requested deployment solved, then every retained probe (up to --pings) is
// driven through dns_lookup + ping (plus a traceroute sample). Output on
// stdout: the JSON metrics/span report (report, default) or the raw NDJSON
// trace events (trace). See docs/observability.md for both schemas.
#include <cstdio>

#include "ranycast/core/flags.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/obs/report.hpp"

#include "cli.hpp"

using namespace ranycast;

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad :
       args.unknown({"stubs", "probes", "cdn", "seed", "pings", "format"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  const std::string format = args.get_or("format", std::string("report"));
  if (format != "report" && format != "trace") {
    std::fprintf(stderr, "unknown format '%s' (report|trace)\n", format.c_str());
    return 2;
  }
  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;

  obs::set_enabled(true);
  obs::MetricsRegistry::global().set_label("tool", "ranycast-stats");
  obs::MetricsRegistry::global().set_label("cdn", cdn_name);

  lab::LabConfig sizing;
  sizing.world.stub_count = 1200;
  sizing.census.total_probes = 5000;
  const auto config = cli::lab_config(args, sizing);
  if (!config) return 2;
  auto laboratory = lab::Lab::create(*config);
  const auto& handle = laboratory.add_deployment(*spec);

  const auto retained = laboratory.census().retained();
  const auto pings = static_cast<std::size_t>(args.get_or("pings", std::int64_t{500}));
  const std::size_t n = std::min(retained.size(), pings);
  for (std::size_t i = 0; i < n; ++i) {
    const atlas::Probe* probe = retained[i];
    const auto answer = laboratory.dns_lookup(*probe, handle, dns::QueryMode::Ldns);
    laboratory.ping(*probe, answer.address);
    if (i % 25 == 0) laboratory.traceroute(*probe, answer.address);
  }

  if (format == "trace") {
    std::fputs(obs::trace_ndjson().c_str(), stdout);
  } else {
    std::printf("%s\n", obs::json_report().c_str());
  }
  return 0;
}
