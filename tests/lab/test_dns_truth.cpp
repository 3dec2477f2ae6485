// DNS mapping from census-resolved address truth must equal the mapping
// built from the address path: the geo DB's ISO2 answer for the probe's
// effective address, looked up now, mapped through the deployment spec's
// country-override pairs, else the area default. Every census probe,
// retained or not, both query modes, each geo DB healthy, stale and in
// outage, at several worker counts, and again after traceroutes have
// registered router interfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/lab/lab.hpp"

namespace ranycast::lab {
namespace {

constexpr dns::QueryMode kModes[] = {dns::QueryMode::Ldns, dns::QueryMode::Adns};

LabConfig truth_config() {
  LabConfig config;
  config.world.stub_count = 800;
  config.census.total_probes = 3000;
  config.seed = 2023;
  return config;
}

/// The region the spec's policy gives an address, read through the address
/// path alone: `db.country(effective)`, the last override pair naming that
/// ISO2 (set_country_region overwrites), else the area default; region 0
/// when the database has no answer.
std::size_t reference_region(const cdn::DeploymentSpec& spec, const dns::GeoDatabase& db,
                             Ipv4Addr effective) {
  const auto iso2 = db.country(effective);
  if (!iso2) return 0;
  std::optional<std::size_t> overridden;
  for (const auto& [code, region] : spec.country_overrides) {
    if (code == *iso2) overridden = region;
  }
  if (overridden) return *overridden;
  for (const geo::Country& c : geo::Gazetteer::world().countries()) {
    if (c.iso2 == *iso2) {
      return spec.area_defaults[static_cast<std::size_t>(geo::area_of(c.continent))];
    }
  }
  return 0;
}

struct DbState {
  const char* name;
  dns::GeoDatabase::Fault fault;
};

const DbState kStates[] = {
    {"healthy", {}},
    {"stale", {.extra_wrong_country_prob = 0.3}},
    {"outage", {.outage = true}},
};

/// Compare every census probe's answers against the reference, for every
/// deployment, mode, database and database state. Adds the number of
/// (probe, deployment, mode, db, state) cases checked to `checked`.
void expect_truth_matches_address_path(Lab& laboratory,
                                       const std::vector<cdn::DeploymentSpec>& specs,
                                       const std::vector<const DeploymentHandle*>& handles,
                                       std::size_t& checked) {
  std::vector<const atlas::Probe*> everyone;
  for (const atlas::Probe& p : laboratory.census().probes()) everyone.push_back(&p);
  auto& pool = exec::ThreadPool::global();
  const unsigned original = pool.worker_count();
  for (std::size_t d = 0; d < handles.size(); ++d) {
    const DeploymentHandle& handle = *handles[d];
    for (const dns::QueryMode mode : kModes) {
      for (std::size_t i = 0; i < 3; ++i) {
        for (const DbState& state : kStates) {
          laboratory.db_mut(i).set_fault(state.fault);
          const dns::GeoDatabase& db = laboratory.db(i);
          std::vector<std::size_t> expected(everyone.size());
          for (std::size_t k = 0; k < everyone.size(); ++k) {
            expected[k] = reference_region(
                specs[d], db, dns::effective_address(everyone[k]->query_context(), mode));
          }
          const std::string where = handle.deployment.name() + " mode " +
                                    std::to_string(static_cast<int>(mode)) + " db " +
                                    std::to_string(i) + " " + state.name;
          if (i == 0) {
            // The mapping DB: through the lab's batch lookup.
            for (const unsigned workers :
                 {1u, 2u, std::max(1u, std::thread::hardware_concurrency())}) {
              pool.resize(workers);
              const auto answers = laboratory.dns_lookup_all(everyone, handle, mode);
              for (std::size_t k = 0; k < everyone.size(); ++k) {
                ASSERT_EQ(answers[k].region, expected[k])
                    << where << ", " << workers << " workers, probe " << k;
                ASSERT_FALSE(answers[k].degraded);
                ASSERT_EQ(answers[k].address,
                          handle.deployment.regions()[expected[k]].service_ip);
              }
            }
            pool.resize(original);
          } else {
            for (std::size_t k = 0; k < everyone.size(); ++k) {
              const dns::AddressTruth* truth = laboratory.census().dns_truth(*everyone[k], mode);
              ASSERT_NE(truth, nullptr) << "probe " << k;
              ASSERT_EQ(handle.deployment.map_client(*truth, db), expected[k])
                  << where << ", probe " << k;
            }
          }
          checked += everyone.size();
          laboratory.db_mut(i).clear_fault();
        }
      }
    }
  }
}

/// A lab holding the four deployments of the paper's pass.
struct PaperLab {
  PaperLab() : lab(Lab::create(truth_config())) {
    specs = {cdn::catalog::edgio3(), cdn::catalog::edgio4(), cdn::catalog::imperva6(),
             cdn::catalog::imperva_ns()};
    for (const auto& spec : specs) handles.push_back(&lab.add_deployment(spec));
  }

  Lab lab;
  std::vector<cdn::DeploymentSpec> specs;
  std::vector<const DeploymentHandle*> handles;
};

TEST(BatchMeasurements, DnsTruthMatchesAddressPath) {
  PaperLab paper;
  Lab& laboratory = paper.lab;
  std::size_t checked = 0;
  expect_truth_matches_address_path(laboratory, paper.specs, paper.handles, checked);
  EXPECT_EQ(checked, laboratory.census().probes().size() * 2 * 4 * 3 * 3);

  // The check can fail: the query mode moves the healthy mapping DB's
  // answer for some probes, so a truth resolved from the probe's own
  // address in both modes would not match.
  const cdn::DeploymentSpec& im6 = paper.specs[2];
  std::size_t mode_matters = 0;
  for (const atlas::Probe& p : laboratory.census().probes()) {
    const auto ldns = dns::effective_address(p.query_context(), dns::QueryMode::Ldns);
    if (reference_region(im6, laboratory.mapping_db(), ldns) !=
        reference_region(im6, laboratory.mapping_db(), p.ip)) {
      ++mode_matters;
    }
  }
  EXPECT_GT(mode_matters, 0u);
}

TEST(BatchMeasurements, DnsTruthMatchesAddressPathAfterTraceroutes) {
  // Traceroutes register router interfaces in the address plan; none may
  // land where a probe's DNS-visible address lives.
  PaperLab paper;
  Lab& laboratory = paper.lab;
  const auto retained = laboratory.census().retained();
  for (const DeploymentHandle* handle : paper.handles) {
    for (const cdn::Region& region : handle->deployment.regions()) {
      const auto traces = laboratory.traceroute_all(retained, region.service_ip);
      ASSERT_EQ(traces.size(), retained.size());
    }
  }
  std::size_t checked = 0;
  expect_truth_matches_address_path(laboratory, paper.specs, paper.handles, checked);
  EXPECT_EQ(checked, laboratory.census().probes().size() * 2 * 4 * 3 * 3);
}

TEST(BatchMeasurements, ProbeOutsideTheCensusIsRefused) {
  PaperLab paper;
  Lab& laboratory = paper.lab;
  const atlas::ProbeCensus& census = laboratory.census();
  for (const atlas::Probe& p : census.probes()) {
    for (const dns::QueryMode mode : kModes) {
      const dns::AddressTruth* truth = census.dns_truth(p, mode);
      ASSERT_NE(truth, nullptr);
      EXPECT_TRUE(truth->known()) << "probe " << value(p.id);
    }
  }
  // A probe this census did not draw, even a copy of one it did, has no
  // resolved truth here: DNS must refuse it rather than serve region 0 as
  // if its address were unknown.
  const atlas::Probe stray = census.probes().front();
  ASSERT_EQ(census.dns_truth(stray, dns::QueryMode::Ldns), nullptr);
  const DeploymentHandle& eg4 = *paper.handles[1];
  for (const dns::QueryMode mode : kModes) {
    EXPECT_THROW(laboratory.dns_lookup(stray, eg4, mode), std::invalid_argument);
  }
  const atlas::Probe* strays[] = {census.retained().front(), &stray};
  EXPECT_THROW(laboratory.dns_lookup_all(strays, eg4, dns::QueryMode::Ldns),
               std::invalid_argument);
}

}  // namespace
}  // namespace ranycast::lab
