// Command-line plumbing shared by the ranycast tools.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "ranycast/cdn/catalog.hpp"
#include "ranycast/core/flags.hpp"
#include "ranycast/io/config.hpp"
#include "ranycast/lab/lab.hpp"
#include "ranycast/tangled/testbed.hpp"

namespace ranycast::cli {

/// The deployment a --cdn name selects; nullopt for an unknown name.
inline std::optional<cdn::DeploymentSpec> deployment_spec(const std::string& name) {
  if (name == "imperva6") return cdn::catalog::imperva6();
  if (name == "imperva-ns") return cdn::catalog::imperva_ns();
  if (name == "edgio3") return cdn::catalog::edgio3();
  if (name == "edgio4") return cdn::catalog::edgio4();
  if (name == "tangled") return tangled::global_spec();
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

}  // namespace ranycast::cli
