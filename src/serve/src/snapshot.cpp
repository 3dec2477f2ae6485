#include "ranycast/serve/snapshot.hpp"

#include <algorithm>

#include "ranycast/core/crc32.hpp"
#include "ranycast/core/rng.hpp"

namespace ranycast::serve {

WorldSnapshot build_snapshot(lab::Lab& laboratory, const lab::DeploymentHandle& handle,
                             std::uint64_t epoch, std::uint64_t built_at_ns) {
  WorldSnapshot snap;
  snap.epoch = epoch;
  snap.built_at_ns = built_at_ns;
  laboratory.measure(handle, snap.entries);
  snap.fingerprint = snapshot_fingerprint(snap);
  return snap;
}

namespace {

void encode_entries(guard::ByteWriter& w, const WorldSnapshot& snapshot) {
  w.u64(snapshot.entries.size());
  for (const lab::Measurement& e : snapshot.entries) {
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
  const auto& rows = snapshot.entries;
  w.u64(std::count_if(rows.begin(), rows.end(), [](const auto& e) { return e.ping_lost; }));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].ping_lost) w.u32(static_cast<std::uint32_t>(i));
  }
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
    lab::Measurement e;
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
  if (!r.ok() || snapshot_fingerprint(out) != out.fingerprint) return false;
  // The ping_lost list: strictly ascending indices of routed 0-RTT rows.
  std::uint64_t lost = r.u64(), next = 0;
  if (!r.ok() || lost > count) return false;
  for (; lost > 0; --lost) {
    const std::uint64_t i = r.u32();
    if (!r.ok() || i < next || i >= count) return false;
    lab::Measurement& e = out.entries[i];
    if (!e.routed || e.rtt_ms != 0.0) return false;
    e.ping_lost = true;
    next = i + 1;
  }
  return true;
}

}  // namespace ranycast::serve
