// perfbench — the metric report.
//
// Every number the benchmark prints goes through Report::add with its
// unit and its clock: `host` numbers are measured on this machine and
// vary run to run; `model` numbers are simulated cycles or counts and
// repeat exactly; `ratio` numbers are derived from one or both.  The
// human-readable table lists every metric; the last line of standard
// output is the JSON result, which carries the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Clock { kHost, kModel, kRatio };

/// Which result a metric belongs to.  kInfo metrics are printed in the
/// table only (context such as job count, probe buffer sizes).
enum class Kind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kHost;
  Kind kind = Kind::kInfo;
  std::string note;
};

/// Failed correctness checks, each with its reason.
class Checks {
 public:
  /// Record a failure unless @p ok.
  void expect(bool ok, const std::string& what);
  int failed() const { return static_cast<int>(failures_.size()); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, Clock clock,
           Kind kind, std::string note = {});

  const std::vector<Metric>& metrics() const { return metrics_; }

  /// One line per metric: name, value, unit, clock, kind, note.
  void print_table(std::ostream& os) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every metric of @p kind.
  void print_result(std::ostream& os, Kind kind, long attempted,
                    long failed) const;

 private:
  std::vector<Metric> metrics_;
};

double median(std::vector<double> v);

/// Every digit a double needs to round-trip.
std::string full_digits(double v);

}  // namespace perfbench
