// Command-line plumbing shared by the ranycast tools.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/exec/pool.hpp"
#include "ranycast/flight/flight.hpp"
#include "ranycast/guard/runtime.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/obs/flight.hpp"
#include "ranycast/obs/journal.hpp"
#include "ranycast/obs/metrics.hpp"
#include "ranycast/tangled/testbed.hpp"

namespace ranycast::cli {

/// The deployment --cdn selects (imperva6 by default); for an unknown name,
/// prints the error and returns nullopt (the tool exits 2).
inline std::optional<cdn::DeploymentSpec> deployment_spec(const flags::Parser& args) {
  const std::string name = args.get_or("cdn", std::string("imperva6"));
  if (name == "imperva6") return cdn::catalog::imperva6();
  if (name == "imperva-ns") return cdn::catalog::imperva_ns();
  if (name == "edgio3") return cdn::catalog::edgio3();
  if (name == "edgio4") return cdn::catalog::edgio4();
  if (name == "tangled") return tangled::global_spec();
  std::fprintf(stderr, "unknown CDN '%s'\n", name.c_str());
  return std::nullopt;
}

/// The laboratory a tool runs: --config FILE (else `base`), then --stubs,
/// --probes and --seed over it, validated. On a bad file or an invalid
/// size, prints the one-line error and returns nullopt (the tool exits 2).
inline std::optional<lab::LabConfig> lab_config(const flags::Parser& args,
                                                lab::LabConfig base = {}) {
  lab::LabConfig config = std::move(base);
  if (const auto path = args.get("config")) {
    auto loaded = io::load_config(*path);
    if (!loaded) {
      std::fprintf(stderr, "config error: %s\n", loaded.error().to_string().c_str());
      return std::nullopt;
    }
    config = std::move(*loaded);
  }
  if (args.has("stubs")) {
    config.world.stub_count = static_cast<int>(args.get_or("stubs", std::int64_t{0}));
  }
  if (args.has("probes")) {
    config.census.total_probes = static_cast<int>(args.get_or("probes", std::int64_t{0}));
  }
  if (args.has("seed")) {
    config.seed = static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{0}));
  }
  if (auto err = io::validate_lab_config(config)) {
    std::fprintf(stderr, "config error: %s\n", err->to_string().c_str());
    return std::nullopt;
  }
  return config;
}

/// --obs, --journal FILE or --trace-out FILE (journal FILE.journal.ndjson)
/// switch observability on; opens and installs the journal. Returns its
/// path ("" without one), or nullopt after printing the error (exit 2).
inline std::optional<std::string> start_journal(const flags::Parser& args,
                                                obs::Journal& journal) {
  std::string path = args.get_or("journal", std::string());
  if (const auto trace_out = args.get("trace-out"); path.empty() && trace_out) {
    path = *trace_out + ".journal.ndjson";
  }
  if (args.has("obs") || !path.empty()) obs::set_enabled(true);
  obs::set_thread_name("main");
  if (!path.empty()) {
    // A fresh run starts a fresh journal; --resume appends to the previous
    // attempt's (run_sweep writes the explicit resume marker).
    if (!journal.open(path, /*append=*/args.has("resume"))) {
      std::fprintf(stderr, "%s\n", journal.error().c_str());
      return std::nullopt;
    }
    obs::set_journal(&journal);
  }
  return path;
}

/// With obs on, publish the pool's stats and the RSS high-water mark. Close
/// the journal, then write --trace-out FILE from it and the flight recorder
/// (Chrome traceEvents JSON). false after printing the error.
inline bool finish_journal(const flags::Parser& args, obs::Journal& journal,
                           const std::string& journal_path) {
  if (obs::enabled()) {
    exec::ThreadPool::global().publish_stats();
    obs::rss_high_water_kb();
  }
  obs::set_journal(nullptr);
  journal.close();
  const auto trace_out = args.get("trace-out");
  if (!trace_out) return true;
  auto loaded = flight::load_journal(journal_path);
  if (!loaded) {
    std::fprintf(stderr, "trace export: %s\n", loaded.error().c_str());
    return false;
  }
  const std::string trace = flight::chrome_trace(*loaded, obs::flight_snapshot());
  std::ofstream tf(*trace_out, std::ios::binary | std::ios::trunc);
  if (!tf) {
    std::fprintf(stderr, "cannot write %s\n", trace_out->c_str());
    return false;
  }
  tf << trace;
  std::fprintf(stderr, "[obs] wrote %s\n", trace_out->c_str());
  return true;
}

/// Whether a guard flag asks for a supervised run.
inline bool guarded(const flags::Parser& args) {
  return args.has("deadline") || args.has("stall-timeout") || args.has("checkpoint") ||
         args.has("resume");
}

struct GuardFlags {
  guard::RunLimits limits;
  guard::CheckpointPolicy policy;
};

/// --deadline and --stall-timeout as limits; --checkpoint, --checkpoint-every,
/// --checkpoint-keep, --resume and --abort-after as the checkpoint policy.
/// nullopt after printing the error for --resume without --checkpoint.
inline std::optional<GuardFlags> guard_flags(const flags::Parser& args) {
  GuardFlags out;
  out.limits.deadline_s = args.get_or("deadline", 0.0);
  out.limits.stall_timeout_s = args.get_or("stall-timeout", 0.0);
  guard::CheckpointPolicy& policy = out.policy;
  policy.path = args.get_or("checkpoint", std::string());
  policy.every = static_cast<std::size_t>(args.get_or("checkpoint-every", std::int64_t{1}));
  policy.keep = static_cast<std::size_t>(args.get_or("checkpoint-keep", std::int64_t{3}));
  policy.resume = args.has("resume");
  if (policy.resume && policy.path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint FILE\n");
    return std::nullopt;
  }
  if (args.has("abort-after")) {
    // Simulate a crash for recovery tests: no cleanup, no stream flush —
    // the checkpoint fsynced after step N is all a resume may rely on.
    const auto fatal_step =
        static_cast<std::size_t>(args.get_or("abort-after", std::int64_t{0}));
    policy.after_step = [fatal_step](std::size_t done, std::size_t) {
      if (done == fatal_step) std::_Exit(137);
    };
  }
  return out;
}

}  // namespace ranycast::cli
