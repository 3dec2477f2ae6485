// JSON projection of transient convergence results, shared by the chaos
// scenario reporter, the CLI and the tests.
#pragma once

#include "ranycast/converge/plane.hpp"
#include "ranycast/io/json.hpp"

namespace ranycast::converge {

/// The record's JSON object: its field list through io::to_json.
io::Json transient_to_json(const StepTransient& s);

}  // namespace ranycast::converge
