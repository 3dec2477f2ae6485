// ranycast-catchment — Verfploeter-style catchment census and load report.
//
//   ranycast-catchment [--cdn imperva6|imperva-ns|edgio3|edgio4|tangled]
//                      [--region N] [--format table|csv] [--seed N]
//
// Prints each site's catchment share (fraction of client ASes it serves)
// plus load-balance metrics (Gini, peak-to-mean, effective site count).
#include <cstdio>
#include <iostream>

#include "ranycast/analysis/export.hpp"
#include "ranycast/analysis/load.hpp"
#include "ranycast/analysis/table.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/verfploeter/census.hpp"

#include "cli.hpp"

using namespace ranycast;

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown({"cdn", "region", "format", "seed"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;

  lab::LabConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{2023}));
  auto laboratory = lab::Lab::create(config);
  const auto& gaz = geo::Gazetteer::world();
  const auto& handle = laboratory.add_deployment(*spec);

  const auto region = static_cast<std::size_t>(args.get_or("region", std::int64_t{0}));
  if (region >= handle.deployment.regions().size()) {
    std::fprintf(stderr, "region %zu out of range (deployment has %zu)\n", region,
                 handle.deployment.regions().size());
    return 2;
  }
  const auto census = verfploeter::full_census(laboratory, handle, region);

  std::vector<double> loads;
  const std::string format = args.get_or("format", std::string("table"));
  analysis::TextTable table({"site", "area", "client ASes", "share"});
  analysis::CsvWriter csv({"site", "area", "client_ases", "share"});
  for (const auto& [site, count] : census.by_site) {
    loads.push_back(static_cast<double>(count));
    const CityId city = handle.deployment.site(site).city;
    const std::string iata{gaz.city(city).iata};
    const std::string area{geo::to_string(gaz.area_of_city(city))};
    table.add_row({iata, area, analysis::fmt_count(count),
                   analysis::fmt_pct(census.fraction(site))});
    csv.add_row({iata, area, std::to_string(count), std::to_string(census.fraction(site))});
  }
  if (format == "csv") {
    csv.write(std::cout);
  } else {
    std::printf("%s (region %s): %zu client ASes over %zu catching sites\n\n",
                cdn_name.c_str(), handle.deployment.regions()[region].name.c_str(),
                census.total, census.by_site.size());
    std::printf("%s\n", table.render().c_str());
    std::printf("load balance: gini %.3f, peak/mean %.2f, effective sites %.1f\n",
                analysis::gini(loads), analysis::peak_to_mean(loads),
                analysis::effective_sites(loads));
  }
  return 0;
}
