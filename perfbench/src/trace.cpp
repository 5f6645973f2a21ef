#include "trace.h"

#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string_view Span::layer() const {
  const std::string_view n = name;
  return n.substr(0, n.find('.'));
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int Tracer::open(std::string name, int point) {
  Span s;
  s.name = std::move(name);
  s.parent = current_;
  s.point = point;
  s.start = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          origin_)
                .count();
  s.end = s.start;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  if (id != current_) {
    throw std::logic_error("perfbench: span closed out of order");
  }
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        origin_)
              .count();
  current_ = s.parent;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::child_seconds(int parent) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == parent) t += s.seconds();
  }
  return t;
}

double Tracer::self_seconds(std::string_view layer) const {
  double t = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer() == layer) {
      t += spans_[i].seconds() - child_seconds(static_cast<int>(i));
    }
  }
  return t;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  char buf[512];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"layer\": \"%.*s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %d, \"point\": %d}\n",
                  s.name.c_str(), static_cast<int>(s.layer().size()),
                  s.layer().data(), s.start, s.end, s.parent, s.point);
    os << buf;
  }
}

}  // namespace perfbench
