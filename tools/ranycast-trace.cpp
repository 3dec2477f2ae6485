// ranycast-trace — resolve, ping and traceroute a studied CDN from probes.
//
//   ranycast-trace [--cdn imperva6|imperva-ns|edgio3|edgio4|tangled]
//                  [--probe-city IATA] [--count N] [--mode ldns|adns]
//
// Prints, per probe: the regional IP DNS returned, the ping RTT, and the
// traceroute hops with owner AS and city — the paper's measurement loop as
// an interactive tool.
#include <cstdio>

#include "ranycast/core/flags.hpp"
#include "ranycast/lab/lab.hpp"

#include "cli.hpp"

using namespace ranycast;

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"cdn", "probe-city", "count", "mode", "seed"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;
  const auto mode = args.get_or("mode", std::string("ldns")) == "adns" ? dns::QueryMode::Adns
                                                                       : dns::QueryMode::Ldns;
  const auto count = static_cast<std::size_t>(args.get_or("count", std::int64_t{3}));

  lab::LabConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{2023}));
  auto laboratory = lab::Lab::create(config);
  const auto& gaz = geo::Gazetteer::world();
  const auto& handle = laboratory.add_deployment(*spec);

  std::optional<CityId> filter;
  if (const auto city = args.get("probe-city")) {
    filter = gaz.find_by_iata(*city);
    if (!filter) {
      std::fprintf(stderr, "unknown city '%s'\n", city->c_str());
      return 2;
    }
  }

  std::size_t shown = 0;
  for (const atlas::Probe* p : laboratory.census().retained()) {
    if (filter && p->city != *filter) continue;
    const auto answer = laboratory.dns_lookup(*p, handle, mode);
    const auto rtt = laboratory.ping(*p, answer.address);
    std::printf("probe %u @%s AS%u resolver=%s\n", value(p->id),
                std::string(gaz.city(p->city).iata).c_str(), value(p->asn),
                std::string(dns::to_string(p->resolver.kind)).c_str());
    std::printf("  %s -> %s (region %s), rtt %s\n", cdn_name.c_str(),
                answer.address.to_string().c_str(),
                handle.deployment.regions()[answer.region].name.c_str(),
                rtt ? (std::to_string(rtt->ms).substr(0, 5) + " ms").c_str() : "unreachable");
    if (const auto trace = laboratory.traceroute(*p, answer.address)) {
      for (std::size_t h = 0; h < trace->hops.size(); ++h) {
        const auto& hop = trace->hops[h];
        std::printf("  %2zu  %-15s AS%-6u %-4s %6.1f ms%s\n", h + 1,
                    hop.ip.to_string().c_str(), value(hop.owner),
                    std::string(gaz.city(hop.city).iata).c_str(), hop.rtt.ms,
                    h + 1 == trace->hops.size()
                        ? (trace->phop_valid ? "  <- p-hop" : "  <- p-hop (no reply)")
                        : "");
      }
    }
    if (++shown >= count) break;
  }
  if (shown == 0) std::fprintf(stderr, "no matching probes\n");
  return shown == 0 ? 1 : 0;
}
