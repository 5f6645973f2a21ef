// perfbench — host clocks and the in-memory span recorder.
//
// Host time is read from std::chrono::steady_clock (wall) and getrusage
// (user + sys CPU of the whole process, every thread included).  Spans are
// recorded only by the traced run: each one carries its name, start, end,
// the span that was open when it started (its parent) and the campaign
// point it belongs to.  They stay in memory and are written out once, when
// the run ends.  A span's name is "<layer>.<call>", the layer being the
// src/ module whose public function the span wraps (mem, sim, solver, fem,
// miniapp, core) or "bench" for the benchmark's own grouping spans.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic host clock since an arbitrary origin.
double wall_now();

/// User + system CPU seconds consumed by this process so far.
double cpu_now();

/// Peak resident set of this process, MiB.
double peak_rss_mib();

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at top level
  int point = -1;      ///< grid index of the campaign point, -1 if none

  double seconds() const { return end - start; }
  /// "mem" for "mem.touch_range".
  std::string_view layer() const;
};

class Tracer {
 public:
  Tracer();

  /// Open a span nested in the currently open one; returns its id.
  int open(std::string name, int point = -1);
  /// Close span @p id (must be the innermost open span).
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every closed span named @p name, in record order.
  std::vector<double> durations(std::string_view name) const;
  /// Σ self time (duration minus the time covered by child spans) of
  /// every span of @p layer.
  double self_seconds(std::string_view layer) const;

  /// One JSON object per line: name, layer, start, end, parent, point.
  void write_jsonl(const std::string& path) const;

 private:
  /// Σ durations of the children of span @p parent.
  double child_seconds(int parent) const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, int point = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name), point) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
