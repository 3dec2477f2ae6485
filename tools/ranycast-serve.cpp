// ranycast-serve — the self-healing, overload-safe mapping service.
//
//   ranycast-serve drive [--scenario FILE] [--cdn NAME] [--ticks N] [--tick-ns N]
//                  [--queries-per-tick N] [--budget-us N]
//                  [--qps X] [--burst N] [--queue-depth N] [--service-us N]
//                  [--refresh-ns N] [--build-ns N]
//                  [--fresh-ns N] [--stale-ns N] [--reject-ns N] [--freeze-failures N]
//                  [--fault-intensity X] [--fault-seed N]
//                  [--config FILE] [--stubs N] [--probes N] [--seed N]
//                  [--answers FILE] [--journal FILE] [--obs]
//                  [--deadline S] [--stall-timeout S]
//                  [--checkpoint FILE] [--checkpoint-every K] [--checkpoint-keep K]
//                  [--resume] [--abort-after N] [--abort-at POINT] [--abort-epoch E]
//   ranycast-serve live  [--duration-ms N] [--threads N] [... same serve/lab knobs]
//
// drive runs the deterministic virtual-time serving core under
// guard::run_sweep: each tick advances the background refresher (snapshot
// builds over the drifting world, epoch publishes, ladder transitions) and
// answers a batch of client queries through admission control, appending
// one line per query to --answers. With --checkpoint the complete serving
// state (snapshots, ladder history, admission model, latency digest,
// world-drift cursor) persists on the cadence; a SIGKILL'd run restarted
// with --resume truncates the answers file to the last durable cursor and
// continues byte-identically — the soak in tools/ci_serve_soak.sh kills the
// process at arbitrary points (including mid-epoch-swap via --abort-at
// pre_publish/post_publish) and diffs the answer stream against an
// uninterrupted run.
//
// The world drifts one --scenario fault event per successful snapshot build
// start; --fault-intensity injects a seeded serve::FaultPlan storm (failed
// and stalled builds, slow queries, staleness-clock skew) underneath, which
// the degradation ladder (docs/serving.md) answers honestly: Fresh ->
// Stale -> Frozen -> Reject, every transition journaled durably.
//
// live drives the same core in wall-clock time: a refresher thread ticks it
// while --threads query threads hammer the query path concurrently — the
// TSan smoke for the epoch-swap (RCU pin) and admission locking.
//
// Exit codes: 0 complete, 2 usage/config error, 3 stopped early (deadline,
// stall or SIGTERM/SIGINT; resumable with --resume).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ranycast/chaos/scenario.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/core/rng.hpp"
#include "ranycast/guard/runtime.hpp"
#include "ranycast/guard/sweep.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/serve/server.hpp"

#include "cli.hpp"

using namespace ranycast;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ranycast-serve drive [--scenario FILE] [--ticks N] [--checkpoint "
               "FILE] [--resume] ...\n"
               "       ranycast-serve live [--duration-ms N] [--threads N] ...\n"
               "see the header of tools/ranycast-serve.cpp for the full flag list\n");
  return 2;
}

/// Append-only answers file with an exact committed-byte counter: the byte
/// count at checkpoint time is what resume truncates back to, discarding
/// whatever a killed process appended after its last durable checkpoint.
class AnswerLog {
 public:
  bool open(const std::string& path, bool append) {
    path_ = path;
    file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (file_ == nullptr) return false;
    bytes_ = append ? static_cast<std::uint64_t>(std::ftell(file_)) : 0;
    return true;
  }
  bool truncate_to(std::uint64_t bytes) {
    if (file_ != nullptr) std::fclose(file_);
    if (::truncate(path_.c_str(), static_cast<off_t>(bytes)) != 0) return false;
    file_ = std::fopen(path_.c_str(), "ab");
    bytes_ = bytes;
    return file_ != nullptr;
  }
  void append(const std::string& line) {
    if (file_ == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), file_);
    bytes_ += line.size();
  }
  void flush() {
    if (file_ != nullptr) std::fflush(file_);
  }
  std::uint64_t bytes() const noexcept { return bytes_; }
  bool active() const noexcept { return file_ != nullptr; }
  ~AnswerLog() {
    if (file_ != nullptr) std::fclose(file_);
  }

 private:
  std::string path_;
  std::FILE* file_{nullptr};
  std::uint64_t bytes_{0};
};

std::string render_answer(std::size_t tick, std::size_t q, const serve::QueryResult& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%zu,%zu,%s,%s,%llu,%016llx,%llu,%u,%u,%u,%.6f\n", tick, q,
                std::string(serve::to_string(r.status)).c_str(),
                std::string(serve::to_string(r.rung)).c_str(),
                static_cast<unsigned long long>(r.epoch),
                static_cast<unsigned long long>(r.fingerprint),
                static_cast<unsigned long long>(r.latency_us), r.entry.address,
                r.entry.region, r.entry.site, r.entry.rtt_ms);
  return buf;
}

struct ServeKnobs {
  serve::ServeConfig cfg;
  std::uint64_t tick_ns{100'000'000};
  std::size_t ticks{100};
  std::size_t queries_per_tick{4};
  std::uint64_t budget_us{2000};
};

ServeKnobs knobs_from_flags(const flags::Parser& args, chaos::FaultPlan world_plan,
                            std::uint64_t lab_seed) {
  ServeKnobs k;
  k.cfg.world_plan = std::move(world_plan);
  k.cfg.seed = lab_seed;
  k.cfg.refresh_interval_ns = static_cast<std::uint64_t>(
      args.get_or("refresh-ns", std::int64_t{1'000'000'000}));
  k.cfg.build_time_ns =
      static_cast<std::uint64_t>(args.get_or("build-ns", std::int64_t{200'000'000}));
  k.cfg.ladder.fresh_max_age_ns = static_cast<std::uint64_t>(
      args.get_or("fresh-ns", std::int64_t{2'000'000'000}));
  k.cfg.ladder.stale_max_age_ns = static_cast<std::uint64_t>(
      args.get_or("stale-ns", std::int64_t{5'000'000'000}));
  k.cfg.ladder.reject_after_age_ns = static_cast<std::uint64_t>(
      args.get_or("reject-ns", std::int64_t{20'000'000'000}));
  k.cfg.ladder.freeze_after_failures =
      static_cast<std::uint32_t>(args.get_or("freeze-failures", std::int64_t{3}));
  k.cfg.admission.rate_qps = args.get_or("qps", 2000.0);
  k.cfg.admission.burst = static_cast<std::uint32_t>(args.get_or("burst", std::int64_t{64}));
  k.cfg.admission.max_queue_depth =
      static_cast<std::uint32_t>(args.get_or("queue-depth", std::int64_t{32}));
  k.cfg.admission.service_time_ns =
      static_cast<std::uint64_t>(args.get_or("service-us", std::int64_t{500})) * 1000;
  k.tick_ns = static_cast<std::uint64_t>(args.get_or("tick-ns", std::int64_t{100'000'000}));
  if (k.tick_ns == 0) k.tick_ns = 1;
  k.ticks = static_cast<std::size_t>(args.get_or("ticks", std::int64_t{100}));
  k.queries_per_tick =
      static_cast<std::size_t>(args.get_or("queries-per-tick", std::int64_t{4}));
  k.budget_us = static_cast<std::uint64_t>(args.get_or("budget-us", std::int64_t{2000}));
  const double intensity = args.get_or("fault-intensity", 0.0);
  if (intensity > 0.0) {
    const auto fault_seed =
        static_cast<std::uint64_t>(args.get_or("fault-seed", std::int64_t{97}));
    k.cfg.faults = serve::FaultPlan::storm(
        fault_seed, static_cast<std::uint64_t>(k.ticks) * k.tick_ns, intensity);
  }
  return k;
}

void journal_summary(const serve::Server& server, std::size_t completed,
                     std::size_t ticks) {
  using F = obs::JournalField;
  const serve::ServeStats s = server.stats();
  obs::journal_event(
      "serve_summary",
      {F::u64_field("ticks_completed", completed), F::u64_field("ticks_planned", ticks),
       F::u64_field("queries", s.queries), F::u64_field("served", s.served),
       F::u64_field("shed_queue", s.shed_queue),
       F::u64_field("shed_deadline", s.shed_deadline),
       F::u64_field("shed_rate", s.shed_rate), F::u64_field("rejected", s.rejected),
       F::u64_field("epochs", s.epochs_published),
       F::u64_field("builds_failed", s.builds_failed),
       F::u64_field("world_events", s.world_events_applied),
       F::u64_field("p50_us", server.latency().quantile_us(0.50)),
       F::u64_field("p99_us", server.latency().quantile_us(0.99)),
       F::u64_field("ladder_transitions", server.transitions().size()),
       F::str("final_rung", std::string(serve::to_string(server.rung())))},
      /*durable=*/true);
}

void print_summary(const serve::Server& server) {
  const serve::ServeStats s = server.stats();
  std::printf("queries %llu: served %llu, shed %llu (queue %llu, deadline %llu, "
              "rate %llu), rejected %llu\n",
              static_cast<unsigned long long>(s.queries),
              static_cast<unsigned long long>(s.served),
              static_cast<unsigned long long>(s.shed_queue + s.shed_deadline + s.shed_rate),
              static_cast<unsigned long long>(s.shed_queue),
              static_cast<unsigned long long>(s.shed_deadline),
              static_cast<unsigned long long>(s.shed_rate),
              static_cast<unsigned long long>(s.rejected));
  std::printf("served latency: p50 %llu us, p99 %llu us, max %llu us\n",
              static_cast<unsigned long long>(server.latency().quantile_us(0.50)),
              static_cast<unsigned long long>(server.latency().quantile_us(0.99)),
              static_cast<unsigned long long>(server.latency().max_us()));
  std::printf("refresher: %llu epochs published, %llu builds failed, %llu world events\n",
              static_cast<unsigned long long>(s.epochs_published),
              static_cast<unsigned long long>(s.builds_failed),
              static_cast<unsigned long long>(s.world_events_applied));
  std::printf("ladder: rung %s, %zu transitions\n",
              std::string(serve::to_string(server.rung())).c_str(),
              server.transitions().size());
  for (const serve::LadderTransition& t : server.transitions()) {
    std::printf("  %12.3fms  %s -> %s (%s)\n", static_cast<double>(t.at_ns) / 1e6,
                std::string(serve::to_string(t.from)).c_str(),
                std::string(serve::to_string(t.to)).c_str(), t.reason.c_str());
  }
}

int run_drive(const flags::Parser& args, lab::Lab& laboratory,
              const lab::DeploymentHandle& handle, const ServeKnobs& knobs) {
  serve::Server server(laboratory, handle, knobs.cfg);

  AnswerLog answers;
  const std::string answers_path = args.get_or("answers", std::string());
  if (!answers_path.empty() && !answers.open(answers_path, args.has("resume"))) {
    std::fprintf(stderr, "cannot open answers file '%s'\n", answers_path.c_str());
    return 2;
  }

  if (args.has("abort-at")) {
    // Simulated SIGKILL inside the epoch swap: no cleanup, no flush — only
    // what the last checkpoint made durable may survive.
    const std::string point = args.get_or("abort-at", std::string("pre_publish"));
    const auto epoch =
        static_cast<std::uint64_t>(args.get_or("abort-epoch", std::int64_t{1}));
    server.set_crash_hook([point, epoch](std::string_view at, std::uint64_t e) {
      if (at == point && e == epoch) std::_Exit(137);
    });
  }

  auto guard = cli::guard_flags(args);
  if (!guard) return 2;
  guard->policy.kind = guard::CheckpointKind::ServeState;

  guard::Supervisor supervisor(guard->limits);
  // SIGTERM/SIGINT stop cooperatively at the next tick: final checkpoint,
  // `stopped` journal line, exit 3, resumable.
  const guard::ScopedSignalCancel signal_cancel(supervisor);

  guard::SweepHooks hooks;
  hooks.process = [&](std::size_t i) {
    const std::uint64_t tick_start_ns = static_cast<std::uint64_t>(i) * knobs.tick_ns;
    auto ticked = server.tick(tick_start_ns);
    if (!ticked) {
      std::fprintf(stderr, "serve error: %s\n", ticked.error().c_str());
      std::exit(2);
    }
    const std::uint64_t stride =
        knobs.queries_per_tick == 0 ? knobs.tick_ns
                                    : knobs.tick_ns / knobs.queries_per_tick;
    for (std::size_t q = 0; q < knobs.queries_per_tick; ++q) {
      // Client identity is a stateless hash of (seed, tick, q): resumed runs
      // regenerate the same arrivals without storing them.
      const std::uint64_t client =
          hash_combine(hash_combine(knobs.cfg.seed, i), q);
      const std::uint64_t arrival_ns = tick_start_ns + q * stride;
      const serve::QueryResult result = server.query(client, arrival_ns, knobs.budget_us);
      if (answers.active()) answers.append(render_answer(i, q, result));
    }
    // Committed before the checkpoint that records bytes(): a crash after
    // this point loses nothing, a crash before it is truncated on resume.
    answers.flush();
  };
  hooks.save = [&](guard::ByteWriter& w) {
    w.u64(answers.bytes());
    server.save(w);
  };
  hooks.load = [&](guard::ByteReader& r) {
    const std::uint64_t committed = r.u64();
    if (!r.ok() || !server.load(r)) return false;
    if (answers.active() && !answers.truncate_to(committed)) return false;
    return true;
  };

  // The identity a resume must match: the serving config and plans (via
  // Server::fingerprint) plus the drive parameters that shape the streams.
  std::uint64_t fingerprint = server.fingerprint();
  fingerprint = hash_combine(fingerprint, knobs.tick_ns);
  fingerprint = hash_combine(fingerprint, knobs.ticks);
  fingerprint = hash_combine(fingerprint, knobs.queries_per_tick);
  fingerprint = hash_combine(fingerprint, knobs.budget_us);

  auto outcome = guard::run_sweep(knobs.ticks, fingerprint, supervisor, guard->policy, hooks);
  if (!outcome) {
    std::fprintf(stderr, "serve error: %s\n", outcome.error().to_string().c_str());
    return 2;
  }
  answers.flush();
  if (outcome->resumed) {
    std::fprintf(stderr, "[guard] resumed from %s at tick %zu/%zu\n", guard->policy.path.c_str(),
                 outcome->resumed_from, outcome->total);
  }
  journal_summary(server, outcome->completed, knobs.ticks);
  print_summary(server);
  if (!outcome->complete()) {
    std::fprintf(stderr, "[guard] stopped (%s): completed %zu of %zu ticks\n",
                 std::string(guard::to_string(outcome->stopped)).c_str(),
                 outcome->completed, outcome->total);
    return 3;
  }
  return 0;
}

int run_live(const flags::Parser& args, lab::Lab& laboratory,
             const lab::DeploymentHandle& handle, const ServeKnobs& knobs) {
  serve::Server server(laboratory, handle, knobs.cfg);
  const auto duration_ms =
      static_cast<std::uint64_t>(args.get_or("duration-ms", std::int64_t{500}));
  const auto threads = static_cast<std::size_t>(args.get_or("threads", std::int64_t{4}));

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ns = [start]() -> std::uint64_t {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count());
  };
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pinned_epochs{0};

  std::thread refresher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto ticked = server.tick(elapsed_ns());
      if (!ticked) {
        std::fprintf(stderr, "serve error: %s\n", ticked.error().c_str());
        stop.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  clients.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t client = hash_combine(t, n++);
        (void)server.query(client, elapsed_ns(), knobs.budget_us);
        // Exercise the RCU read side concurrently with epoch swaps.
        if (const auto snap = server.pin()) {
          pinned_epochs.fetch_add(snap->epoch != 0 ? 1 : 0, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  refresher.join();
  for (std::thread& c : clients) c.join();

  journal_summary(server, 0, 0);
  print_summary(server);
  std::printf("live: %zu threads, %llu pins of a published epoch\n", threads,
              static_cast<unsigned long long>(pinned_epochs.load()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const flags::Parser args(argc, argv);
  for (const auto& bad : args.unknown(
           {"scenario", "cdn",           "ticks",          "tick-ns",
            "queries-per-tick",          "budget-us",      "qps",
            "burst",    "queue-depth",   "service-us",     "refresh-ns",
            "build-ns", "fresh-ns",      "stale-ns",       "reject-ns",
            "freeze-failures",           "fault-intensity", "fault-seed",
            "config",   "stubs",         "probes",         "seed",
            "answers",  "journal",       "obs",            "deadline",
            "stall-timeout",             "checkpoint",     "checkpoint-every",
            "checkpoint-keep",           "resume",         "abort-after",
            "abort-at", "abort-epoch",   "duration-ms",    "threads"})) {
    std::fprintf(stderr, "unknown flag --%s\n", bad.c_str());
    return 2;
  }
  if (args.positional().size() != 1) return usage();
  const std::string& command = args.positional().front();
  if (command != "drive" && command != "live") {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
  }

  chaos::FaultPlan world_plan;
  if (const auto scenario_path = args.get("scenario")) {
    auto scenario_json = io::load_json(*scenario_path);
    if (!scenario_json) {
      std::fprintf(stderr, "scenario error: %s\n",
                   scenario_json.error().to_string().c_str());
      return 2;
    }
    auto plan = chaos::plan_from_json(*scenario_json, *scenario_path);
    if (!plan) {
      std::fprintf(stderr, "scenario error: %s\n", plan.error().to_string().c_str());
      return 2;
    }
    world_plan = std::move(*plan);
  }

  const std::string cdn_name = args.get_or("cdn", std::string("imperva6"));
  const auto spec = cli::deployment_spec(args);
  if (!spec) return 2;

  obs::Journal journal;
  if (!cli::start_journal(args, journal)) return 2;
  obs::MetricsRegistry::global().set_label("tool", "ranycast-serve");

  const auto config = cli::lab_config(args);
  if (!config) return 2;

  const ServeKnobs knobs = knobs_from_flags(args, std::move(world_plan), config->seed);

  using F = obs::JournalField;
  obs::journal_event(
      "run_manifest",
      {F::str("tool", "ranycast-serve"), F::str("mode", command),
       F::str("cdn", cdn_name),
       F::u64_field("stubs", static_cast<std::uint64_t>(config->world.stub_count)),
       F::u64_field("probes", static_cast<std::uint64_t>(config->census.total_probes)),
       F::u64_field("seed", config->seed), F::u64_field("ticks", knobs.ticks),
       F::u64_field("tick_ns", knobs.tick_ns),
       F::u64_field("queries_per_tick", knobs.queries_per_tick),
       F::u64_field("budget_us", knobs.budget_us),
       F::u64_field("world_events", knobs.cfg.world_plan.events.size()),
       F::u64_field("serve_faults", knobs.cfg.faults.events.size()),
       F::bool_field("resume", args.has("resume"))},
      /*durable=*/true);

  obs::journal_event("phase_begin", {F::str("phase", "lab.build")});
  auto laboratory = lab::Lab::create(*config);
  const auto& handle = laboratory.add_deployment(*spec);
  obs::journal_event("phase_end", {F::str("phase", "lab.build")}, /*durable=*/true);

  const int rc = command == "drive" ? run_drive(args, laboratory, handle, knobs)
                                    : run_live(args, laboratory, handle, knobs);
  if (obs::journal() != nullptr) {
    obs::journal()->sync();
    obs::set_journal(nullptr);
  }
  return rc;
}
