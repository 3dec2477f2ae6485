#include "ranycast/cdn/deployment.hpp"

#include <algorithm>
#include <stdexcept>

namespace ranycast::cdn {

bool Site::announces(std::size_t region) const noexcept {
  return std::find(regions.begin(), regions.end(), region) != regions.end();
}

std::size_t Deployment::add_region(Region r) {
  regions_.push_back(std::move(r));
  return regions_.size() - 1;
}

SiteId Deployment::add_site(Site s) {
  s.id = SiteId{static_cast<std::uint16_t>(sites_.size())};
  sites_.push_back(std::move(s));
  return sites_.back().id;
}

void Deployment::set_country_region(std::string_view iso2, std::size_t region) {
  const auto idx = geo::Gazetteer::world().find_country(iso2);
  if (!idx) {
    throw std::invalid_argument("deployment '" + name_ + "': unknown country code '" +
                                std::string(iso2) + "'");
  }
  country_region_[*idx] = region;
}

void Deployment::set_area_region(geo::Area a, std::size_t region) {
  area_default_[static_cast<int>(a)] = region;
}

void Deployment::copy_mapping_policy(const Deployment& from) {
  country_region_ = from.country_region_;
  area_default_ = from.area_default_;
}

std::vector<std::size_t> Deployment::withdraw_site(SiteId site) {
  Site& s = sites_[value(site)];
  std::vector<std::size_t> previous = std::move(s.regions);
  s.regions.clear();
  return previous;
}

void Deployment::restore_site(SiteId site, std::vector<std::size_t> regions) {
  sites_[value(site)].regions = std::move(regions);
}

std::vector<SiteId> Deployment::withdraw_region(std::size_t region) {
  std::vector<SiteId> announcing;
  for (Site& s : sites_) {
    const auto it = std::find(s.regions.begin(), s.regions.end(), region);
    if (it == s.regions.end()) continue;
    s.regions.erase(it);
    announcing.push_back(s.id);
  }
  return announcing;
}

void Deployment::restore_region(std::size_t region, const std::vector<SiteId>& sites) {
  for (const SiteId id : sites) {
    Site& s = sites_[value(id)];
    if (!s.announces(region)) s.regions.push_back(region);
  }
}

bool Deployment::set_attachment_state(SiteId site, std::size_t attachment, bool up) {
  if (value(site) >= sites_.size()) return false;
  Site& s = sites_[value(site)];
  if (attachment >= s.attachments.size()) return false;
  s.attachments[attachment].up = up;
  return true;
}

std::optional<std::size_t> Deployment::region_for_country(std::string_view iso2) const {
  const auto idx = geo::Gazetteer::world().find_country(iso2);
  if (!idx) return std::nullopt;
  return country_region_[*idx];
}

std::size_t Deployment::map_client(const dns::AddressTruth& truth,
                                   const dns::GeoDatabase& db) const {
  if (is_global()) return 0;
  const auto country = db.country_index(truth);
  return country ? region_for(*country) : 0;
}

std::size_t Deployment::intended_region(CityId true_city) const {
  if (is_global()) return 0;
  return region_for(geo::Gazetteer::world().city(true_city).country);
}

std::optional<std::size_t> Deployment::region_of_ip(Ipv4Addr a) const {
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].prefix.contains(a)) return i;
  }
  return std::nullopt;
}

std::vector<bgp::OriginAttachment> Deployment::origins_for_region(std::size_t region) const {
  std::vector<bgp::OriginAttachment> out;
  for (const Site& s : sites_) {
    if (!s.announces(region)) continue;
    for (const Attachment& a : s.attachments) {
      if (!a.up) continue;  // failed adjacency (chaos engine)
      out.push_back(bgp::OriginAttachment{s.id, s.city, a.neighbor, a.rel, s.onsite_router});
    }
  }
  return out;
}

std::array<std::size_t, geo::kAreaCount> Deployment::site_count_by_area() const {
  std::array<std::size_t, geo::kAreaCount> out{0, 0, 0, 0};
  const auto& gaz = geo::Gazetteer::world();
  for (const Site& s : sites_) {
    out[static_cast<int>(gaz.area_of_city(s.city))]++;
  }
  return out;
}

}  // namespace ranycast::cdn
