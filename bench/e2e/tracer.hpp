// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only by the benchmark program, around its calls into a
// layer's public functions (never inside the library), so a traced run
// measures each layer from outside. A span's parent is the innermost span
// still open on the same thread; a layer's self time is its duration minus
// the time its direct children cover. Everything stays in memory until the
// run ends, then goes out once as Chrome traceEvents JSON (the format
// tools/check_trace.py validates and ui.perfetto.dev loads).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

class Tracer {
 public:
  struct Record {
    const char* name;      ///< a string literal: the layer and call
    std::int32_t parent;   ///< index of the enclosing span, -1 at top level
    std::uint32_t tid;     ///< small per-thread id (0 = first thread to record)
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
  };

  struct Totals {
    std::uint64_t count{0};
    std::uint64_t total_ns{0};
    std::uint64_t self_ns{0};
  };

  /// Opens a span on construction, closes it on destruction. A null or
  /// disabled tracer makes the scope a no-op (no clock read).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) {
      if (tracer == nullptr || !tracer->enabled_) return;
      tracer_ = tracer;
      index_ = tracer->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_{nullptr};
    std::int32_t index_{-1};
  };

  /// Only flipped while no span is open on any thread.
  void set_enabled(bool on) { enabled_ = on; }

  /// Record an already-finished top-level span on the calling thread (for
  /// calls only worth keeping once their outcome is known).
  void add(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(Record{name, -1, thread_id(), start_ns, dur_ns});
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }

  /// Per-name totals over the spans recorded in [from, to).
  std::map<std::string, Totals> totals(std::size_t from, std::size_t to) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::uint64_t> child_ns(records_.size(), 0);
    for (std::size_t i = from; i < to; ++i) {
      const Record& r = records_[i];
      if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.dur_ns;
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = from; i < to; ++i) {
      const Record& r = records_[i];
      Totals& t = out[r.name];
      t.count += 1;
      t.total_ns += r.dur_ns;
      t.self_ns += r.dur_ns > child_ns[i] ? r.dur_ns - child_ns[i] : 0;
    }
    return out;
  }

  /// Write every recorded span as Chrome traceEvents ("X" complete events,
  /// microsecond timestamps relative to the first span, plus thread names).
  bool write_chrome(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    std::uint64_t epoch = records_.empty() ? 0 : records_.front().start_ns;
    std::uint32_t threads = 0;
    for (const Record& r : records_) {
      epoch = std::min(epoch, r.start_ns);
      threads = std::max(threads, r.tid + 1);
    }
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::uint32_t t = 0; t < threads; ++t) {
      out << (t == 0 ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,"
          << "\"pid\":1,\"tid\":" << t << ",\"args\":{\"name\":\""
          << "thread-" << t << "\"}}";
    }
    char buf[64];
    for (const Record& r : records_) {
      out << ",{\"name\":\"" << r.name << "\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":"
          << r.tid;
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f}",
                    static_cast<double>(r.start_ns - epoch) * 1e-3,
                    static_cast<double>(r.dur_ns) * 1e-3);
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::int32_t open(const char* name) {
    std::vector<std::int32_t>& stack = open_stack();
    const std::int32_t parent = stack.empty() ? -1 : stack.back();
    const std::uint64_t start = now_ns();
    std::int32_t index = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      index = static_cast<std::int32_t>(records_.size());
      records_.push_back(Record{name, parent, thread_id(), start, 0});
    }
    stack.push_back(index);
    return index;
  }

  void close(std::int32_t index) {
    const std::uint64_t end = now_ns();
    open_stack().pop_back();
    const std::lock_guard<std::mutex> lock(mutex_);
    Record& r = records_[static_cast<std::size_t>(index)];
    r.dur_ns = end - r.start_ns;
  }

  static std::vector<std::int32_t>& open_stack() {
    thread_local std::vector<std::int32_t> stack;
    return stack;
  }

  static std::uint32_t thread_id() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards records_
  std::vector<Record> records_;
};

}  // namespace e2e
