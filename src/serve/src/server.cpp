#include "ranycast/serve/server.hpp"

#include <algorithm>
#include <cmath>

#include "ranycast/core/rng.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"

namespace ranycast::serve {

namespace {

/// Counts one query outcome in its ServeStats field and its serve.* counter.
void count_outcome(ServeStats& stats, QueryStatus status) {
  static obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  static obs::Counter& served = reg.counter("serve.served");
  static obs::Counter& shed_queue = reg.counter("serve.shed.queue");
  static obs::Counter& shed_deadline = reg.counter("serve.shed.deadline");
  static obs::Counter& shed_rate = reg.counter("serve.shed.rate");
  static obs::Counter& rejected = reg.counter("serve.rejected");
  const auto bump = [](std::uint64_t& field, obs::Counter& counter) {
    ++field;
    counter.add();
  };
  switch (status) {
    case QueryStatus::Served: return bump(stats.served, served);
    case QueryStatus::ShedQueue: return bump(stats.shed_queue, shed_queue);
    case QueryStatus::ShedDeadline: return bump(stats.shed_deadline, shed_deadline);
    case QueryStatus::ShedRate: return bump(stats.shed_rate, shed_rate);
    case QueryStatus::Rejected: return bump(stats.rejected, rejected);
  }
}

}  // namespace

std::string_view to_string(QueryStatus status) noexcept {
  switch (status) {
    case QueryStatus::Served: return "served";
    case QueryStatus::ShedQueue: return "shed_queue";
    case QueryStatus::ShedDeadline: return "shed_deadline";
    case QueryStatus::ShedRate: return "shed_rate";
    case QueryStatus::Rejected: return "rejected";
  }
  return "unknown";
}

void LatencyDigest::record_ns(std::uint64_t latency_ns) {
  const std::uint64_t us = (latency_ns + 999) / 1000;
  std::size_t bucket = kBuckets - 1;
  for (std::size_t i = 0; i < std::size(kBoundsUs); ++i) {
    if (us <= kBoundsUs[i]) {
      bucket = i;
      break;
    }
  }
  ++buckets_[bucket];
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
}

std::uint64_t LatencyDigest::quantile_us(double q) const noexcept {
  if (count_ == 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  auto target = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count_)));
  target = std::clamp<std::uint64_t>(target, 1, count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= target) {
      return i < std::size(kBoundsUs) ? kBoundsUs[i] : max_us_;
    }
  }
  return max_us_;
}

void LatencyDigest::encode(guard::ByteWriter& w) const {
  for (std::uint64_t b : buckets_) w.u64(b);
  w.u64(count_);
  w.u64(sum_us_);
  w.u64(max_us_);
}

bool LatencyDigest::decode(guard::ByteReader& r) {
  std::uint64_t total = 0;
  for (std::uint64_t& b : buckets_) {
    b = r.u64();
    total += b;
  }
  count_ = r.u64();
  sum_us_ = r.u64();
  max_us_ = r.u64();
  return r.ok() && total == count_;
}

Server::Server(lab::Lab& laboratory, const lab::DeploymentHandle& handle, ServeConfig cfg)
    : lab_(laboratory),
      handle_(handle),
      cfg_(std::move(cfg)),
      engine_(laboratory, handle),
      ladder_(cfg_.ladder),
      admission_(cfg_.admission) {}

std::uint64_t Server::fingerprint() const {
  std::uint64_t h = chaos::plan_fingerprint(lab_, handle_.deployment, cfg_.world_plan);
  h = hash_combine(h, cfg_.faults.fingerprint());
  h = hash_combine(h, cfg_.seed);
  h = hash_combine(h, cfg_.refresh_interval_ns);
  h = hash_combine(h, cfg_.build_time_ns);
  h = core::fingerprint_fields(h, cfg_.ladder);
  return core::fingerprint_fields(h, cfg_.admission);
}

LadderHealth Server::health_at(std::uint64_t now_ns) const {
  LadderHealth health;
  std::shared_ptr<const WorldSnapshot> snap;
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snap = snapshot_;
  }
  health.has_snapshot = snap != nullptr;
  if (snap) {
    // Staleness is measured on the (possibly skewed) staleness clock; the
    // scheduler keeps running on plain virtual time.
    const std::uint64_t s_now = cfg_.faults.staleness_now_ns(now_ns);
    health.age_ns = s_now > snap->built_at_ns ? s_now - snap->built_at_ns : 0;
  }
  health.consecutive_failures = consecutive_failures_;
  return health;
}

void Server::journal_transition(const LadderTransition& t) const {
  using F = obs::JournalField;
  // Durable: the ladder history is part of the crash story — a restart must
  // be able to reconstruct every rung the dead process admitted to.
  obs::journal_event("serve_ladder",
                     {F::u64_field("at_ns", t.at_ns),
                      F::str("from", std::string(to_string(t.from))),
                      F::str("to", std::string(to_string(t.to))),
                      F::str("reason", t.reason)},
                     /*durable=*/true);
}

void Server::advance_ladder(std::uint64_t now_ns, std::string_view reason) {
  LadderTransition t;
  if (ladder_.advance(now_ns, health_at(now_ns), reason, &t)) {
    journal_transition(t);
  }
}

std::string Server::start_build(std::uint64_t t_ns) {
  build_started_ns_ = t_ns;
  build_will_fail_ = cfg_.faults.build_fails(t_ns);
  build_done_at_ns_ = t_ns + cfg_.build_time_ns + cfg_.faults.stall_extra_ns(t_ns);
  next_build_at_ns_ = t_ns + std::max<std::uint64_t>(cfg_.refresh_interval_ns, 1);
  building_ = true;
  pending_.reset();
  if (!build_will_fail_) {
    // A build patches the last epoch this process built: its rows, moved
    // across the world event by the engine's after-pass rule, equal a full
    // measurement of the lab after the event. Without that base it measures
    // in full.
    WorldSnapshot snap;
    if (base_ != nullptr) snap = *base_;
    // The world drifts one chaos event per successful build start: a failed
    // build consumes nothing, so the retry rebuilds against the same world.
    const bool drifts = world_events_applied_ < cfg_.world_plan.events.size();
    if (drifts) {
      const chaos::FaultEvent& e =
          cfg_.world_plan.events[static_cast<std::size_t>(world_events_applied_)];
      std::string err = engine_.apply_event(e, base_ != nullptr ? &snap.entries : nullptr);
      if (!err.empty()) {
        building_ = false;
        return err;
      }
      ++world_events_applied_;
      ++stats_.world_events_applied;
    }
    if (base_ == nullptr) {
      snap = build_snapshot(lab_, handle_, epoch_counter_ + 1, build_done_at_ns_);
    } else {
      snap.epoch = epoch_counter_ + 1;
      snap.built_at_ns = build_done_at_ns_;
      if (drifts) snap.fingerprint = snapshot_fingerprint(snap);
    }
    pending_ = std::make_shared<const WorldSnapshot>(std::move(snap));
    base_ = pending_;
  }
  return {};
}

void Server::finish_build() {
  using F = obs::JournalField;
  const std::uint64_t done_ns = build_done_at_ns_;
  building_ = false;
  if (build_will_fail_ || pending_ == nullptr) {
    ++consecutive_failures_;
    ++stats_.builds_failed;
    pending_.reset();
    obs::journal_event("serve_build",
                       {F::u64_field("at_ns", done_ns), F::bool_field("ok", false),
                        F::u64_field("failures", consecutive_failures_)},
                       /*durable=*/true);
    advance_ladder(done_ns, "refresh_failure");
    return;
  }
  const std::uint64_t epoch = pending_->epoch;
  if (crash_hook_) crash_hook_("pre_publish", epoch);
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = pending_;
  }
  if (crash_hook_) crash_hook_("post_publish", epoch);
  epoch_counter_ = epoch;
  const std::uint64_t snapshot_fp = pending_->fingerprint;
  pending_.reset();
  consecutive_failures_ = 0;
  ++stats_.epochs_published;
  obs::journal_event("serve_epoch",
                     {F::u64_field("epoch", epoch), F::u64_field("at_ns", done_ns),
                      F::u64_field("fingerprint", snapshot_fp),
                      F::u64_field("world_events", world_events_applied_)},
                     /*durable=*/true);
  advance_ladder(done_ns, "published");
}

core::Expected<std::monostate, std::string> Server::tick(std::uint64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (;;) {
    if (building_) {
      if (now_ns < build_done_at_ns_) break;
      finish_build();
      continue;
    }
    if (now_ns >= next_build_at_ns_) {
      std::string err = start_build(next_build_at_ns_);
      if (!err.empty()) return core::unexpected(std::move(err));
      continue;
    }
    break;
  }
  advance_ladder(now_ns, "tick");
  return std::monostate{};
}

QueryResult Server::query(std::uint64_t client, std::uint64_t now_ns,
                          std::uint64_t budget_us) {
  static obs::Counter& queries = obs::MetricsRegistry::global().counter("serve.queries");
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.queries;
  queries.add();
  advance_ladder(now_ns, "query");
  QueryResult result;
  result.rung = ladder_.rung();
  if (result.rung == LadderRung::Reject) {
    result.status = QueryStatus::Rejected;
    count_outcome(stats_, result.status);
    return result;
  }
  const Admitted admitted =
      admission_.offer(now_ns, budget_us, cfg_.faults.query_extra_ns(now_ns));
  switch (admitted.decision) {
    case AdmitDecision::ShedQueue:
      result.status = QueryStatus::ShedQueue;
      break;
    case AdmitDecision::ShedDeadline:
      result.status = QueryStatus::ShedDeadline;
      break;
    case AdmitDecision::ShedRate:
      result.status = QueryStatus::ShedRate;
      break;
    case AdmitDecision::Admit: {
      std::shared_ptr<const WorldSnapshot> snap;
      {
        const std::lock_guard<std::mutex> pin_lock(snapshot_mutex_);
        snap = snapshot_;
      }
      // rung != Reject implies a snapshot is published.
      result.status = QueryStatus::Served;
      result.epoch = snap->epoch;
      result.fingerprint = snap->fingerprint;
      result.latency_us = (admitted.latency_ns + 999) / 1000;
      if (!snap->entries.empty()) {
        result.entry = snap->entries[static_cast<std::size_t>(
            client % snap->entries.size())];
      }
      latency_.record_ns(admitted.latency_ns);
      break;
    }
  }
  count_outcome(stats_, result.status);
  return result;
}

std::shared_ptr<const WorldSnapshot> Server::pin() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

LadderRung Server::rung() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ladder_.rung();
}

ServeStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t Server::current_epoch() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_ ? snapshot_->epoch : 0;
}

void Server::save(guard::ByteWriter& w) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  w.u64(next_build_at_ns_);
  w.u8(building_ ? 1 : 0);
  w.u8(build_will_fail_ ? 1 : 0);
  w.u64(build_started_ns_);
  w.u64(build_done_at_ns_);
  w.u64(epoch_counter_);
  w.u32(consecutive_failures_);
  w.u64(world_events_applied_);
  {
    const std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    w.u8(snapshot_ ? 1 : 0);
    if (snapshot_) encode_snapshot(w, *snapshot_);
  }
  ladder_.encode(w);
  admission_.encode(w);
  latency_.encode(w);
  guard::write_fields(w, stats_);
}

bool Server::load(guard::ByteReader& r) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // A decoded epoch never becomes a patch base: the first build after a
  // load (the in-flight rebuild below included) measures in full.
  base_.reset();
  next_build_at_ns_ = r.u64();
  const bool was_building = r.u8() != 0;
  build_will_fail_ = r.u8() != 0;
  build_started_ns_ = r.u64();
  build_done_at_ns_ = r.u64();
  epoch_counter_ = r.u64();
  consecutive_failures_ = r.u32();
  world_events_applied_ = r.u64();
  if (!r.ok() || world_events_applied_ > cfg_.world_plan.events.size()) return false;
  std::shared_ptr<const WorldSnapshot> restored;
  if (r.u8() != 0) {
    auto snap = std::make_shared<WorldSnapshot>();
    if (!decode_snapshot(r, *snap)) return false;
    restored = std::move(snap);
  }
  if (!ladder_.decode(r) || !admission_.decode(r) || !latency_.decode(r)) return false;
  guard::read_fields(r, stats_);
  // The server's state is the tail of the checkpoint payload: bytes left
  // over mean a layout this binary does not write.
  if (!r.ok() || !r.at_end()) return false;
  // A publish moves the snapshot, the epoch counter and its stats together,
  // and a drift event moves both event counts: a payload where they
  // disagree was not written by save(), and resuming it could step the
  // published epoch backwards.
  if ((restored != nullptr) != (epoch_counter_ != 0) ||
      (restored != nullptr && restored->epoch != epoch_counter_) ||
      stats_.epochs_published != epoch_counter_ ||
      stats_.world_events_applied != world_events_applied_) {
    return false;
  }
  // Fast-forward the world: re-apply the events the dead process consumed,
  // in order, so the lab reaches the exact state the checkpoint was taken
  // in. The mutations are deterministic; measurements are pure in lab
  // state, so the rebuilt snapshots match byte for byte.
  for (std::uint64_t i = 0; i < world_events_applied_; ++i) {
    const std::string err =
        engine_.apply_event(cfg_.world_plan.events[static_cast<std::size_t>(i)]);
    if (!err.empty()) return false;
  }
  {
    const std::lock_guard<std::mutex> snap_lock(snapshot_mutex_);
    snapshot_ = std::move(restored);
  }
  // An interrupted in-flight build is rebuilt here in full: rebuilding is
  // idempotent (the world event was already consumed and replayed above),
  // so the published epoch stream is unchanged.
  building_ = was_building;
  pending_.reset();
  if (building_) {
    if (build_will_fail_) {
      // Failed builds carry no snapshot; nothing to rebuild.
    } else {
      WorldSnapshot snap =
          build_snapshot(lab_, handle_, epoch_counter_ + 1, build_done_at_ns_);
      pending_ = std::make_shared<const WorldSnapshot>(std::move(snap));
    }
  }
  return true;
}

}  // namespace ranycast::serve
