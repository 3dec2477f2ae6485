// serve::Server — the self-healing, overload-safe mapping service.
//
// The server answers "which site serves this client?" from an immutable
// epoch-swapped WorldSnapshot while a background refresher rebuilds the
// snapshot off the drifting world (the chaos plan's mutations) and a
// seeded serve::FaultPlan injects refresher and query faults underneath.
//
// A refresh patches the last epoch this process built instead of measuring
// the world again: it copies that epoch's rows and lets the world event
// move them (chaos::Engine::apply_event with a pass), so a build that
// applies no event is a copy, and a routing event redoes only the rows its
// re-solve reached. The fingerprint is recomputed only when an event was
// applied. The first build of a process, and of a resumed one, measures in
// full. Patching assumes the lab drifts only through `world_plan`: anything
// else that mutates the lab under a running server leaves the patched
// epochs describing the old world.
//
// The core is a *deterministic virtual-time state machine*: tick(now_ns)
// advances the refresher, query(...) answers one arrival — both are pure
// functions of (config, plans, lab state, virtual time), never of the wall
// clock. The ranycast-serve drive mode runs this core under guard::run_sweep
// (checkpoint chain, resume, journal), which is what makes the CI soak's
// guarantee possible: SIGKILL anywhere — including between a finished build
// and its publish — then resume, and the full answer stream is
// byte-identical to an uninterrupted run. A real-time mode maps elapsed
// wall time onto the same core, with queries and the refresher on separate
// threads; the epoch swap is an atomic shared_ptr store, so readers pin a
// whole epoch or the previous whole epoch, never a torn mix.
//
// Robustness surface (docs/serving.md):
//   - degradation ladder (ladder.hpp) journaled on every transition
//   - admission control (admission.hpp) with shed accounting in obs
//   - crash-restart through guard::CheckpointChain (save/load round-trip
//     the published snapshot, ladder history, bucket, queue model, latency
//     digest, world-drift cursor; load rebuilds an in-flight build)
//   - fault-injected serving (fault.hpp) with a differential ladder test
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ranycast/chaos/engine.hpp"
#include "ranycast/chaos/plan.hpp"
#include "ranycast/core/expected.hpp"
#include "ranycast/core/fields.hpp"
#include "ranycast/guard/checkpoint.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/serve/admission.hpp"
#include "ranycast/serve/fault.hpp"
#include "ranycast/serve/ladder.hpp"
#include "ranycast/serve/snapshot.hpp"

namespace ranycast::serve {

/// Deterministic fixed-bucket latency recorder (microsecond buckets,
/// power-of-two-ish edges). Unlike obs::Histogram it is part of the
/// serving state: it encodes into checkpoints so a resumed run reports the
/// same quantiles an uninterrupted one would.
class LatencyDigest {
 public:
  static constexpr std::uint64_t kBoundsUs[] = {10,    20,    50,    100,  200,
                                                500,   1000,  2000,  5000, 10000,
                                                20000, 50000, 100000};
  static constexpr std::size_t kBuckets = std::size(kBoundsUs) + 1;

  void record_ns(std::uint64_t latency_ns);
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max_us() const noexcept { return max_us_; }
  /// Upper bound of the bucket holding quantile q (conservative: the true
  /// quantile is <= the returned value, except in the overflow bucket where
  /// the observed max is returned).
  std::uint64_t quantile_us(double q) const noexcept;

  void encode(guard::ByteWriter& w) const;
  bool decode(guard::ByteReader& r);

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_{0};
  std::uint64_t sum_us_{0};
  std::uint64_t max_us_{0};
};

struct ServeConfig {
  LadderConfig ladder;
  AdmissionConfig admission;
  /// Refresher cadence: a new build starts this long after the previous
  /// build STARTED (failed builds retry on the same cadence).
  std::uint64_t refresh_interval_ns{1'000'000'000};
  /// Virtual latency from build start to publishable snapshot.
  std::uint64_t build_time_ns{200'000'000};
  /// World drift: one event is applied to the lab per successful build
  /// start, in order, until the plan is exhausted. While a server runs, the
  /// lab must drift only through this plan: builds patch the previous
  /// epoch across these events alone.
  chaos::FaultPlan world_plan;
  /// Serving-plane fault timeline.
  FaultPlan faults;
  std::uint64_t seed{2023};
};

enum class QueryStatus : std::uint8_t {
  Served = 0,
  ShedQueue = 1,
  ShedDeadline = 2,
  ShedRate = 3,
  Rejected = 4,  ///< ladder Reject: structured error, nothing servable
};

std::string_view to_string(QueryStatus status) noexcept;

struct QueryResult {
  QueryStatus status{QueryStatus::Rejected};
  LadderRung rung{LadderRung::Reject};
  std::uint64_t epoch{0};        ///< epoch the answer came from (0 if none)
  std::uint64_t fingerprint{0};  ///< that epoch's content fingerprint
  std::uint64_t latency_us{0};   ///< virtual latency (0 unless Served)
  lab::Measurement entry;        ///< meaningful only when Served
};

/// Shed/serve accounting (each outcome also bumps its obs serve.* counter).
struct ServeStats {
  std::uint64_t queries{0};
  std::uint64_t served{0};
  std::uint64_t shed_queue{0};
  std::uint64_t shed_deadline{0};
  std::uint64_t shed_rate{0};
  std::uint64_t rejected{0};
  std::uint64_t epochs_published{0};
  std::uint64_t builds_failed{0};
  std::uint64_t world_events_applied{0};

  bool operator==(const ServeStats&) const = default;
};

/// ServeStats' field list (core/fields.hpp): the stats block at the end of
/// Server::save.
template <core::RecordOf<ServeStats> Self, typename F>
void for_each_field(Self& s, F&& f) {
  f("queries", s.queries);
  f("served", s.served);
  f("shed_queue", s.shed_queue);
  f("shed_deadline", s.shed_deadline);
  f("shed_rate", s.shed_rate);
  f("rejected", s.rejected);
  f("epochs_published", s.epochs_published);
  f("builds_failed", s.builds_failed);
  f("world_events_applied", s.world_events_applied);
}

class Server {
 public:
  /// Crash-point hook for the CI soak: invoked at named points of the
  /// publish sequence ("pre_publish", "post_publish") with the epoch about
  /// to be / just published. A test hook may std::_Exit(137) to simulate a
  /// SIGKILL mid-swap.
  using CrashHook = std::function<void(std::string_view point, std::uint64_t epoch)>;

  Server(lab::Lab& laboratory, const lab::DeploymentHandle& handle, ServeConfig cfg);

  const ServeConfig& config() const noexcept { return cfg_; }

  /// Binds (lab config, deployment, serve config, both plans, seed): the
  /// checkpoint identity a resume must match.
  std::uint64_t fingerprint() const;

  // ---- refresher (call from one thread: the drive loop or the refresher
  // thread; internally synchronized against query()) ----

  /// Advance the refresher state machine to virtual time `now_ns`: start
  /// due builds (applying the next world-drift event), complete or fail
  /// in-flight ones, publish finished snapshots (epoch swap), and
  /// re-evaluate the ladder. Idempotent for equal `now_ns`.
  core::Expected<std::monostate, std::string> tick(std::uint64_t now_ns);

  // ---- query path (thread-safe) ----

  /// Answer one arrival at virtual time `now_ns` for `client` (an index
  /// into the retained-probe universe) with `budget_us` deadline budget.
  QueryResult query(std::uint64_t client, std::uint64_t now_ns, std::uint64_t budget_us);

  /// Pin the current epoch (RCU read-side): the returned snapshot stays
  /// valid until the pointer is dropped, regardless of later swaps.
  std::shared_ptr<const WorldSnapshot> pin() const;

  // ---- introspection ----

  LadderRung rung() const;
  const std::vector<LadderTransition>& transitions() const { return ladder_.transitions(); }
  ServeStats stats() const;
  const LatencyDigest& latency() const noexcept { return latency_; }
  std::uint64_t current_epoch() const;

  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  // ---- persistence (guard::run_sweep hooks) ----

  /// Serialize the serving state (refresher, published snapshot, ladder,
  /// admission, stats, latency digest) into a checkpoint payload.
  void save(guard::ByteWriter& w) const;
  /// Restore from a payload that ends with the server's state; re-applies
  /// the consumed world-drift events, then rebuilds an in-flight build in
  /// full. False on a short, garbled or over-long payload, on one whose
  /// epoch counter disagrees with its published snapshot or its stats (or
  /// whose drift counts disagree), or on a failed replay.
  bool load(guard::ByteReader& r);

 private:
  /// Start a build at virtual time `t` (consumes a world event unless the
  /// fault plan fails this build), patching base_ when there is one.
  /// Returns an error string on an unappliable world event.
  std::string start_build(std::uint64_t t_ns);
  /// Complete the in-flight build at its virtual done-time.
  void finish_build();
  void advance_ladder(std::uint64_t now_ns, std::string_view reason);
  LadderHealth health_at(std::uint64_t now_ns) const;
  void journal_transition(const LadderTransition& t) const;

  lab::Lab& lab_;
  const lab::DeploymentHandle& handle_;
  ServeConfig cfg_;
  /// Applies the world-drift events (mutation + re-solve), both live and
  /// during the resume fast-forward replay.
  chaos::Engine engine_;

  mutable std::mutex mutex_;  ///< guards refresher + admission + ladder state
  // Published epoch, swapped atomically so query threads pin lock-free.
  std::shared_ptr<const WorldSnapshot> snapshot_;  // guarded by snapshot_mutex_
  mutable std::mutex snapshot_mutex_;

  // --- refresher state (guarded by mutex_) ---
  std::uint64_t next_build_at_ns_{0};
  bool building_{false};
  bool build_will_fail_{false};
  std::uint64_t build_started_ns_{0};
  std::uint64_t build_done_at_ns_{0};
  std::shared_ptr<const WorldSnapshot> pending_;
  /// The last snapshot this process built, which the next build patches;
  /// null after construction and after load (a null base means a full
  /// Lab::measure).
  std::shared_ptr<const WorldSnapshot> base_;
  std::uint64_t epoch_counter_{0};
  std::uint32_t consecutive_failures_{0};
  std::uint64_t world_events_applied_{0};

  Ladder ladder_;
  Admission admission_;
  ServeStats stats_;
  LatencyDigest latency_;
  CrashHook crash_hook_;
};

}  // namespace ranycast::serve
