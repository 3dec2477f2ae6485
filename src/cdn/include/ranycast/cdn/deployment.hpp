// Anycast CDN deployment model.
//
// A Deployment owns a set of sites, a set of regions (one anycast prefix
// each; a single region models global anycast), the site→region announcement
// matrix (a site announcing several regional prefixes is the paper's
// "cross-region announcement"), and the client→region DNS mapping policy
// (country overrides on top of per-area defaults).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ranycast/bgp/route.hpp"
#include "ranycast/core/ipv4.hpp"
#include "ranycast/core/types.hpp"
#include "ranycast/dns/geo_database.hpp"
#include "ranycast/geo/gazetteer.hpp"
#include "ranycast/topo/graph.hpp"

namespace ranycast::cdn {

/// How a site connects to the surrounding Internet at its city.
struct Attachment {
  Asn neighbor{kInvalidAsn};
  /// Relationship from the neighbor's perspective (Customer = the CDN buys
  /// transit from this neighbor).
  topo::Rel rel{topo::Rel::Customer};
  /// Operational state; a downed attachment is skipped when originating
  /// (single-adjacency failure in the chaos fault model).
  bool up{true};
};

struct Site {
  SiteId id{kInvalidSite};
  CityId city{kInvalidCity};
  bool onsite_router{true};
  std::vector<std::size_t> regions;  ///< region indices announced; >1 = mixed
  std::vector<Attachment> attachments;

  bool announces(std::size_t region) const noexcept;
  bool mixed() const noexcept { return regions.size() > 1; }
};

struct Region {
  std::string name;
  Prefix prefix;
  Ipv4Addr service_ip;  ///< the A-record address handed to clients
};

class Deployment {
 public:
  Deployment(std::string name, Asn asn)
      : name_(std::move(name)),
        asn_(asn),
        country_region_(geo::Gazetteer::world().countries().size()) {}

  const std::string& name() const noexcept { return name_; }
  Asn asn() const noexcept { return asn_; }

  std::span<const Site> sites() const noexcept { return sites_; }
  std::span<const Region> regions() const noexcept { return regions_; }
  const Site& site(SiteId id) const { return sites_[value(id)]; }

  bool is_global() const noexcept { return regions_.size() == 1; }

  // --- construction (used by the builder) ---
  std::size_t add_region(Region r);
  SiteId add_site(Site s);  ///< id is assigned; returns it
  /// Override the region of one country. Throws std::invalid_argument for
  /// an ISO2 code the gazetteer does not know: no geo-DB answer could ever
  /// match it.
  void set_country_region(std::string_view iso2, std::size_t region);
  void set_area_region(geo::Area a, std::size_t region);
  /// Take `from`'s client-mapping policy (area defaults and country
  /// overrides): the deployment transforms map clients as the deployment
  /// they derive from does.
  void copy_mapping_policy(const Deployment& from);

  // --- in-place fault operations (chaos engine) ---
  //
  // These mutate the announcement state so failure scenarios can be applied
  // and rolled back without allocating fresh prefixes or rebuilding the
  // deployment; callers re-solve routing afterwards (lab::Lab::resolve_delta).

  /// Withdraw every announcement of `site`. Returns the region list it
  /// announced before (pass it back to `restore_site` to undo).
  std::vector<std::size_t> withdraw_site(SiteId site);

  /// Restore a previously withdrawn site's announcements.
  void restore_site(SiteId site, std::vector<std::size_t> regions);

  /// Withdraw one regional prefix everywhere. Returns the sites that were
  /// announcing it (pass back to `restore_region` to undo).
  std::vector<SiteId> withdraw_region(std::size_t region);

  /// Re-announce a regional prefix at the given sites.
  void restore_region(std::size_t region, const std::vector<SiteId>& sites);

  /// Set the operational state of one site attachment (index into the
  /// site's attachment list). Returns false if out of range.
  bool set_attachment_state(SiteId site, std::size_t attachment, bool up);

  // --- client mapping policy ---
  /// The override of a country given by ISO2, nullopt when it has none.
  std::optional<std::size_t> region_for_country(std::string_view iso2) const;
  /// Region intended for clients in an area with no country override.
  std::size_t region_for_area(geo::Area a) const noexcept { return area_default_[static_cast<int>(a)]; }
  /// Region intended for a (correctly geolocated) country: its override,
  /// else its area's default.
  std::size_t region_for(geo::CountryIdx country) const {
    if (const auto r = country_region_[country]) return *r;
    return region_for_area(geo::area_of(geo::Gazetteer::world().countries()[country].continent));
  }

  /// The DNS decision: geolocate the effective address whose ground truth
  /// is `truth` through `db` and apply the mapping policy. Falls back to
  /// region 0 when `db` cannot place the address.
  std::size_t map_client(const dns::AddressTruth& truth, const dns::GeoDatabase& db) const;

  /// Ground-truth mapping for a client whose true city is known — what DNS
  /// *should* return under this deployment's geographic policy. Used to
  /// classify ×Region vs ✓Region mapping outcomes (Table 2).
  std::size_t intended_region(CityId true_city) const;

  // --- addressing ---
  std::optional<std::size_t> region_of_ip(Ipv4Addr a) const;

  // --- BGP interface ---
  std::vector<bgp::OriginAttachment> origins_for_region(std::size_t region) const;

  /// Sites by geographic area (Table 1 rows).
  std::array<std::size_t, geo::kAreaCount> site_count_by_area() const;

 private:
  std::string name_;
  Asn asn_;
  std::vector<Site> sites_;
  std::vector<Region> regions_;
  /// Country overrides, indexed by geo::CountryIdx.
  std::vector<std::optional<std::size_t>> country_region_;
  std::array<std::size_t, geo::kAreaCount> area_default_{0, 0, 0, 0};
};

}  // namespace ranycast::cdn
