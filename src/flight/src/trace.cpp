#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "ranycast/flight/flight.hpp"

namespace ranycast::flight {

namespace {

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

io::Json base_event(const char* ph, std::string name, double ts, std::uint64_t pid,
                    std::uint64_t tid) {
  io::JsonObject o;
  o["ph"] = io::Json(ph);
  o["name"] = io::Json(std::move(name));
  o["ts"] = io::Json(ts);
  o["pid"] = io::Json(static_cast<std::int64_t>(pid));
  o["tid"] = io::Json(static_cast<std::int64_t>(tid));
  return io::Json(std::move(o));
}

void add_metadata(io::JsonArray& out, const char* kind, std::string value,
                  std::uint64_t pid, std::uint64_t tid) {
  io::Json e = base_event("M", kind, 0.0, pid, tid);
  io::JsonObject args;
  args["name"] = io::Json(std::move(value));
  e.as_object()["args"] = io::Json(std::move(args));
  out.push_back(std::move(e));
}

/// Async begin/end pair synthesized from a completed interval — balanced by
/// construction, even when the journal was cut mid-run.
void add_async_pair(io::JsonArray& out, std::string cat, std::string name,
                    double begin_us, double end_us, std::uint64_t id,
                    std::uint64_t pid) {
  for (const char* ph : {"b", "e"}) {
    io::Json e = base_event(ph, name, ph[0] == 'b' ? begin_us : std::max(begin_us, end_us),
                            pid, 0);
    e.as_object()["cat"] = io::Json(cat);
    e.as_object()["id"] = io::Json(static_cast<std::int64_t>(id));
    out.push_back(std::move(e));
  }
}

void add_counter(io::JsonArray& out, const char* name, const char* key, double value,
                 double ts_us, std::uint64_t pid) {
  io::Json e = base_event("C", name, ts_us, pid, 0);
  io::JsonObject args;
  args[key] = io::Json(value);
  e.as_object()["args"] = io::Json(std::move(args));
  out.push_back(std::move(e));
}

}  // namespace

std::string chrome_trace(const JournalFile& journal,
                         const std::vector<obs::FlightThreadSnapshot>& threads,
                         const TraceOptions& options) {
  const std::uint64_t pid =
      options.pid != 0 ? options.pid : static_cast<std::uint64_t>(::getpid());
  io::JsonArray out;

  add_metadata(out, "process_name", "ranycast", pid, 0);
  add_metadata(out, "thread_name", "journal", pid, 0);
  for (const obs::FlightThreadSnapshot& t : threads) {
    if (t.os_tid != 0) add_metadata(out, "thread_name", t.name, pid, t.os_tid);
  }

  // Flight spans: complete ("X") events on their real thread.
  for (const obs::FlightThreadSnapshot& t : threads) {
    for (const obs::TraceEvent& e : t.events) {
      io::Json x = base_event("X", e.name, to_us(e.start_ns), pid, e.tid);
      x.as_object()["cat"] = io::Json("span");
      x.as_object()["dur"] = io::Json(to_us(e.dur_ns));
      io::JsonObject args;
      args["parent"] = io::Json(e.parent);
      args["depth"] = io::Json(static_cast<std::int64_t>(e.depth));
      args["seq"] = io::Json(static_cast<std::int64_t>(e.seq));
      x.as_object()["args"] = io::Json(std::move(args));
      out.push_back(std::move(x));
    }
  }

  for (const JournalEvent& e : journal.events) {
    const double ts_us = to_us(e.ts_ns);
    if (e.type == "chaos_step") {
      // Emitted when the step completes; reconstruct [start, end] from dur.
      const double dur_us = e.fields.number_or("dur_ns", 0.0) / 1000.0;
      const auto index =
          static_cast<std::uint64_t>(e.fields.number_or("index", 0.0));
      add_async_pair(out, "chaos", e.fields.string_or("event", "step"),
                     ts_us - dur_us, ts_us, index, pid);
      add_counter(out, "chaos.step_ms", "ms", dur_us / 1000.0, ts_us, pid);
      continue;
    }
    if (e.type == "transient_window") {
      // Blackhole windows run in the convergence plane's virtual time;
      // render them schematically, anchored at the journal timestamp.
      const auto index =
          static_cast<std::uint64_t>(e.fields.number_or("index", 0.0));
      if (const io::Json* regions = e.fields.find("regions");
          regions != nullptr && regions->is_array()) {
        for (const io::Json& r : regions->as_array()) {
          const double dark_us = r.number_or("max_blackhole_us", 0.0);
          if (dark_us <= 0.0) continue;
          const auto region = static_cast<std::uint64_t>(r.number_or("region", 0.0));
          add_async_pair(out, "blackhole",
                         "blackhole r" + std::to_string(region), ts_us,
                         ts_us + dark_us, (index << 8) | region, pid);
        }
      }
      continue;
    }
    // Everything else — manifest, phases, checkpoint, resumed, stopped,
    // bench_sample — is an instant marker on the journal track.
    io::Json i = base_event("i", e.type, ts_us, pid, 0);
    i.as_object()["s"] = io::Json("g");
    i.as_object()["args"] = e.fields;
    out.push_back(std::move(i));
    if (const io::Json* rss = e.fields.find("rss_hwm_kb");
        rss != nullptr && rss->is_number()) {
      add_counter(out, "process.rss_hwm_kb", "kb", rss->as_number(), ts_us, pid);
    }
  }

  io::JsonObject doc;
  doc["traceEvents"] = io::Json(std::move(out));
  doc["displayTimeUnit"] = io::Json("ms");
  return io::Json(std::move(doc)).dump();
}

std::string summarize(const JournalFile& journal) {
  std::map<std::string, std::size_t> by_type;
  std::set<std::uint64_t> step_indexes;
  std::string stop_reason;
  // Delta-locality rollup over the chaos_step events that carry the
  // re-solve fields (every routing step): how local each fault actually
  // was, and how often a region was solved in full (primed or fell back).
  std::size_t delta_steps = 0;
  std::uint64_t delta_affected = 0;
  std::uint64_t delta_fallbacks = 0;
  for (const JournalEvent& e : journal.events) {
    ++by_type[e.type.empty() ? "<untyped>" : e.type];
    if (e.type == "chaos_step") {
      step_indexes.insert(static_cast<std::uint64_t>(e.fields.number_or("index", 0.0)));
      if (e.fields.find("delta_affected_ases") != nullptr) {
        ++delta_steps;
        delta_affected +=
            static_cast<std::uint64_t>(e.fields.number_or("delta_affected_ases", 0.0));
        delta_fallbacks +=
            static_cast<std::uint64_t>(e.fields.number_or("delta_fallback_full", 0.0));
      }
    }
    if (e.type == "stopped") stop_reason = e.fields.string_or("reason", "unknown");
  }
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "events: %zu (%zu malformed line%s, %zu corrupt)\n",
                journal.events.size(), journal.malformed_lines,
                journal.malformed_lines == 1 ? "" : "s", journal.corrupt_lines);
  out += buf;
  if (journal.truncated_tail) out += "  (final line truncated: kill-cut tail)\n";
  for (const auto& [type, count] : by_type) {
    std::snprintf(buf, sizeof buf, "  %-18s %zu\n", type.c_str(), count);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "chaos steps: %zu distinct\n", step_indexes.size());
  out += buf;
  if (delta_steps > 0) {
    std::snprintf(buf, sizeof buf,
                  "delta re-solves: %zu steps, %llu affected ASes (mean %.1f/step), "
                  "%llu regions solved in full\n",
                  delta_steps, static_cast<unsigned long long>(delta_affected),
                  static_cast<double>(delta_affected) / static_cast<double>(delta_steps),
                  static_cast<unsigned long long>(delta_fallbacks));
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "resume markers: %zu\n", journal.resume_markers);
  out += buf;
  if (!stop_reason.empty()) out += "stopped: " + stop_reason + "\n";
  return out;
}

std::string render_event(const JournalEvent& event) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%12.3fms  ", to_us(event.ts_ns) / 1000.0);
  return std::string(buf) + event.fields.dump();
}

std::string tail(const JournalFile& journal, std::size_t n) {
  std::string out;
  const std::size_t begin = journal.events.size() > n ? journal.events.size() - n : 0;
  for (std::size_t i = begin; i < journal.events.size(); ++i) {
    out += render_event(journal.events[i]);
    out += '\n';
  }
  return out;
}

}  // namespace ranycast::flight
