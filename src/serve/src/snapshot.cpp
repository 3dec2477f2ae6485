#include "ranycast/serve/snapshot.hpp"

#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/dns/resolver.hpp"
#include "ranycast/exec/pool.hpp"

namespace ranycast::serve {

WorldSnapshot build_snapshot(lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                             std::uint64_t epoch, std::uint64_t built_at_ns) {
  WorldSnapshot snap;
  snap.epoch = epoch;
  snap.built_at_ns = built_at_ns;
  const auto retained = laboratory.census().retained();
  snap.entries.resize(retained.size());
  // Each probe's entry is pure in (probe, deployment state), so the fan-out
  // writes disjoint slots and the snapshot is identical at any worker count.
  exec::ThreadPool::global().parallel_for(retained.size(), [&](std::size_t i) {
    const atlas::Probe* p = retained[i];
    const lab::Lab::DnsAnswer answer =
        laboratory.dns_lookup(*p, handle, dns::QueryMode::Ldns);
    MapEntry e;
    e.address = answer.address.bits();
    e.region = static_cast<std::uint16_t>(answer.region);
    e.degraded = answer.degraded;
    e.site = value(kInvalidSite);
    if (const auto site = handle.catchment(p->asn, answer.region)) {
      e.routed = true;
      e.site = value(*site);
      const auto rtt = laboratory.ping(*p, answer.address);
      e.rtt_ms = rtt ? rtt->ms : 0.0;
    }
    snap.entries[i] = e;
  });
  snap.fingerprint = snapshot_fingerprint(snap);
  return snap;
}

namespace {

void encode_entries(guard::ByteWriter& w, const WorldSnapshot& snapshot) {
  w.u64(snapshot.entries.size());
  for (const MapEntry& e : snapshot.entries) {
    w.u32(e.address);
    w.u16(e.region);
    w.u16(e.site);
    w.f64(e.rtt_ms);
    w.u8(e.routed ? 1 : 0);
    w.u8(e.degraded ? 1 : 0);
  }
}

}  // namespace

std::uint64_t snapshot_fingerprint(const WorldSnapshot& snapshot) {
  guard::ByteWriter w;
  encode_entries(w, snapshot);
  const std::uint32_t crc = core::crc32(w.data().data(), w.data().size());
  // Fold in the entry count so an empty world and a zero-entry decode error
  // cannot collide with real content at fingerprint zero.
  return hash_combine(snapshot.entries.size(), crc);
}

void encode_snapshot(guard::ByteWriter& w, const WorldSnapshot& snapshot) {
  w.u64(snapshot.epoch);
  w.u64(snapshot.built_at_ns);
  w.u64(snapshot.fingerprint);
  encode_entries(w, snapshot);
}

bool decode_snapshot(guard::ByteReader& r, WorldSnapshot& out) {
  out.epoch = r.u64();
  out.built_at_ns = r.u64();
  out.fingerprint = r.u64();
  const std::uint64_t count = r.u64();
  if (!r.ok() || count > r.remaining()) return false;  // each entry needs > 1 byte
  out.entries.clear();
  out.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    MapEntry e;
    e.address = r.u32();
    e.region = r.u16();
    e.site = r.u16();
    e.rtt_ms = r.f64();
    e.routed = r.u8() != 0;
    e.degraded = r.u8() != 0;
    out.entries.push_back(e);
  }
  // The content fingerprint doubles as an integrity check on top of the
  // checkpoint CRC: a payload that decodes but disagrees is corrupt.
  return r.ok() && snapshot_fingerprint(out) == out.fingerprint;
}

}  // namespace ranycast::serve
