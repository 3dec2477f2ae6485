#include "ranycast/converge/report.hpp"

namespace ranycast::converge {

io::Json transient_to_json(const StepTransient& s) { return io::to_json(s); }

}  // namespace ranycast::converge
