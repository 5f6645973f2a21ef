#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace perfbench {

namespace {

const char* to_string(Clock c) {
  switch (c) {
    case Clock::kHost:  return "host";
    case Clock::kModel: return "model";
    case Clock::kRatio: return "ratio";
  }
  return "?";
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kEndToEnd: return "end-to-end";
    case Kind::kLayer:    return "layer";
    case Kind::kInfo:     return "info";
  }
  return "?";
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::add(std::string name, double value, std::string unit,
                 Clock clock, Kind kind, std::string note) {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      throw std::logic_error("perfbench: metric reported twice: " + name);
    }
  }
  metrics_.push_back({std::move(name), value, std::move(unit), clock, kind,
                      std::move(note)});
}

void Report::print_table(std::ostream& os) const {
  char buf[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "%-34s %22s %-8s %-5s %-10s", m.name.c_str(),
                  full_digits(m.value).c_str(), m.unit.c_str(),
                  to_string(m.clock), to_string(m.kind));
    os << buf;
    if (!m.note.empty()) os << "  " << m.note;
    os << '\n';
  }
}

void Report::print_result(std::ostream& os, Kind kind, long attempted,
                          long failed) const {
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.kind != kind) continue;
    os << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
       << full_digits(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string full_digits(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan; checks flag it
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

}  // namespace perfbench
