// perfbench — the two-clock benchmark program (NOTES.md).
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//
// Run from the root of a checkout; spans and scratch files go under
// .bench_build/perfbench/out.  --trace 0 times the workload's one public
// call with tracing off and prints the end-to-end metrics; --trace 1 runs
// the same call once more untraced, then the serial traced run and the
// layer probes, and prints the per-layer metrics.  Both print every metric
// as a table (name, value, unit, clock) and end with the JSON result line.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "miniapp/driver.h"
#include "probes.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMaxJobs = 4;
constexpr int kMinReps = 3;         // timed reps of the public call, at least
constexpr int kMaxReps = 1000;
constexpr double kSetupBudget = 0.1;     // seconds of set-ups first ...
constexpr double kSetupPerRep = 0.02;    // ... and after every timed rep
constexpr const char* kOutDir = ".bench_build/perfbench/out";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  int jobs = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    usage(flag + " wants a non-negative integer, got '" + s + "'");
  }
  try {
    return std::stoull(s);
  } catch (const std::exception&) {
    usage(flag + " out of range: '" + s + "'");
  }
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, v));
      if (o.seconds < 1 || o.seconds > 600) usage("--seconds out of range");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown workload '" + o.workload + "'");
  }
  const int online = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  o.jobs = std::clamp(online, 1, kMaxJobs);
  return o;
}

/// A private scratch directory, removed when the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One timed call of the public entry point.
struct Rep {
  double wall = 0.0;
  double cpu = 0.0;
  std::vector<PointModel> grid;
};

Rep timed_public(Workload& w, std::span<const std::size_t> order, int jobs) {
  Rep r;
  const double c0 = cpu_now();
  const double t0 = wall_now();
  r.grid = w.run_public(order, jobs);
  r.wall = wall_now() - t0;
  r.cpu = cpu_now() - c0;
  return r;
}

/// Count the points of @p grid that failed, and any that differ from the
/// reference @p ref.
void check_points(const std::vector<PointModel>& grid,
                  const std::vector<PointModel>& ref, const char* against,
                  Checks& checks) {
  for (std::size_t i = 0; i < grid.size(); ++i) {
    checks.expect(!grid[i].failed, grid[i].label + ": point failed");
    checks.expect(same_model(grid[i], ref[i]),
                  grid[i].label + ": modeled counters differ from the " +
                      against);
  }
}

sim::Counters sum_total(const std::vector<PointModel>& grid) {
  sim::Counters t;
  for (const PointModel& p : grid) t += p.total;
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_model_end_to_end(const std::vector<PointModel>& grid,
                          Report& report) {
  double cycles = 0.0;
  double critical = 0.0;
  for (const PointModel& p : grid) {
    cycles += p.cycles;
    critical += p.critical_cycles;
  }
  report.add("model_cycles", cycles, "cycles", Clock::kModel,
             Kind::kEndToEnd, "sum over points of modeled total cycles");
  report.add("model_critical_cycles", critical, "cycles", Clock::kModel,
             Kind::kEndToEnd,
             "sum over points of cycles - phase10 + pressure makespan");
}

void add_model_layers(const std::vector<PointModel>& grid, Report& report) {
  const sim::Counters t = sum_total(grid);
  report.add("mem.l1_accesses", static_cast<double>(t.l1_accesses), "count",
             Clock::kModel, Kind::kLayer, "workload Counters");
  report.add("mem.l1_miss_ratio",
             ratio(static_cast<double>(t.l1_misses),
                   static_cast<double>(t.l1_accesses)),
             "ratio", Clock::kModel, Kind::kLayer, "l1_misses / l1_accesses");
  report.add("mem.l2_miss_ratio",
             ratio(static_cast<double>(t.l2_misses),
                   static_cast<double>(t.l1_misses)),
             "ratio", Clock::kModel, Kind::kLayer, "l2_misses / l1_misses");
  report.add("sim.instrs", static_cast<double>(t.total_instrs()), "count",
             Clock::kModel, Kind::kLayer, "all executed instructions");
  // Every registered counter, summed over the points, in registry order.
  t.visit([&](const sim::CounterInfo& info, const auto& v) {
    const bool cycles = std::is_same_v<std::decay_t<decltype(v)>, double>;
    report.add(std::string("counter.") + info.name, static_cast<double>(v),
               cycles ? "cycles" : "count", Clock::kModel, Kind::kInfo);
  });

  double pressure = 0.0, momentum = 0.0, makespan = 0.0;
  for (const PointModel& p : grid) {
    pressure += p.pressure_iters;
    momentum += p.momentum_iters;
    makespan += p.pressure_makespan_cycles;
  }
  report.add("solver.pressure_iters", pressure, "count", Clock::kModel,
             Kind::kLayer, "phase-10 iterations, sum over points");
  report.add("solver.momentum_iters", momentum, "count", Clock::kModel,
             Kind::kLayer, "phase-9 iterations, sum over points");
  report.add("solver.gather_lines_per_iter",
             ratio(static_cast<double>(t.gather_lines_touched),
                   pressure + momentum),
             "lines", Clock::kModel, Kind::kLayer,
             "gather_lines_touched / solver iterations");
  report.add("solver.pad_fraction",
             ratio(static_cast<double>(t.pad_lanes),
                   static_cast<double>(t.pad_lanes + t.gather_lanes)),
             "ratio", Clock::kModel, Kind::kLayer,
             "pad lanes / (pad + gathered lanes)");
  report.add("solver.halo_lines",
             static_cast<double>(t.halo_lines_sent + t.halo_lines_recv),
             "lines", Clock::kModel, Kind::kLayer, "halo lines sent + received");
  report.add("solver.makespan_cycles", makespan, "cycles", Clock::kModel,
             Kind::kLayer, "sum of phase-10 critical-path cycles");

  for (int ph = 1; ph <= miniapp::kNumInstrumentedPhases; ++ph) {
    double c = 0.0;
    for (const PointModel& p : grid) {
      c += p.phase[static_cast<std::size_t>(ph)].total_cycles();
    }
    report.add("miniapp.phase" + std::to_string(ph) + "_cycles", c, "cycles",
               Clock::kModel, Kind::kLayer);
  }
}

/// The traced run: the public call once more untraced (for the fan-out and
/// overhead baselines), the serial per-point run, then the layer probes.
void traced_run(Workload& w, const Options& o, const std::string& scratch,
                Report& report, Checks& checks) {
  timed_public(w, submission_order(w.num_points(), o.seed, 0), o.jobs);
  const Rep par =
      timed_public(w, submission_order(w.num_points(), o.seed, 1), o.jobs);
  report.add("untraced.wall_s", par.wall, "s", Clock::kHost, Kind::kInfo,
             "public call, jobs=" + std::to_string(o.jobs));
  report.add("untraced.cpu_s", par.cpu, "s", Clock::kHost, Kind::kInfo);

  Tracer tracer;
  std::vector<PointModel> serial;
  int serial_root = -1;
  {
    Scope root(&tracer, "bench.serial");
    serial_root = root.id();
    serial = w.run_serial(tracer);
  }
  check_points(par.grid, serial, "serial traced run", checks);
  w.check(par.grid, checks, report);
  {
    Scope root(&tracer, "bench.probes");
    run_probes(w.probe_inputs(), scratch, tracer, report, checks);
  }

  // Top-level point spans: the children of the serial root.
  std::vector<double> point_s;
  for (const Span& s : tracer.spans()) {
    if (s.parent == serial_root) point_s.push_back(s.seconds());
  }
  double serial_s = 0.0;
  for (double s : point_s) serial_s += s;

  add_model_layers(par.grid, report);
  const sim::Counters t = sum_total(serial);
  report.add("sim.host_minstr_per_s",
             ratio(static_cast<double>(t.total_instrs()), serial_s) / 1e6,
             "Minstr/s", Clock::kRatio, Kind::kLayer,
             "simulated instructions per host second, serial run "
             "(diagnostic)");

  const std::vector<double> assembly =
      tracer.durations("core.Experiment::run");
  report.add("miniapp.assembly_point_s", median(assembly), "s", Clock::kHost,
             Kind::kLayer,
             "Experiment::run p50, n=" + std::to_string(assembly.size()));

  report.add("core.point_s_p50", median(point_s), "s", Clock::kHost,
             Kind::kLayer,
             "serial point p50, n=" + std::to_string(point_s.size()));
  report.add("core.fanout_eff", ratio(serial_s, o.jobs * par.wall), "ratio",
             Clock::kRatio, Kind::kLayer,
             "sum serial point time / (jobs x untraced wall)");
  int attempts = 0, degraded = 0, useful = 0;
  for (const PointModel& p : serial) {
    attempts += p.attempts;
    degraded += p.degraded ? 1 : 0;
    useful += p.failed ? 0 : 1;
  }
  const double n = static_cast<double>(serial.size());
  report.add("core.attempts_per_point", attempts / n, "ratio", Clock::kModel,
             Kind::kLayer, "Campaign::run attempts per point");
  report.add("core.degraded_frac", degraded / n, "ratio", Clock::kModel,
             Kind::kLayer, "points finished on a degraded rung");
  report.add("core.useful_per_attempt", useful / static_cast<double>(attempts),
             "ratio", Clock::kModel, Kind::kLayer,
             "useful outcomes per attempt");

  for (const char* layer : {"core", "miniapp", "solver", "fem", "sim", "mem"}) {
    report.add(std::string("self.") + layer + "_s",
               tracer.self_seconds(layer), "s", Clock::kHost, Kind::kLayer,
               "span self time of the layer's spans");
  }
  report.add("trace.overhead_ratio", ratio(serial_s, par.cpu), "ratio",
             Clock::kRatio, Kind::kLayer,
             "sum of top-level point spans / untraced cpu_s");
  report.add("trace.spans", static_cast<double>(tracer.spans().size()),
             "count", Clock::kModel, Kind::kInfo);

  const std::string spans_file = std::string(kOutDir) + "/" + o.workload +
                                 "-seed" +
                                 std::to_string(o.seed) + ".spans.jsonl";
  tracer.write_jsonl(spans_file);
  std::cout << "spans: " << spans_file << '\n';
}

int run(const Options& o) {
  std::filesystem::create_directories(kOutDir);
  const ScratchDir scratch(std::string(kOutDir) + "/scratch-" + o.workload +
                           "-" + std::to_string(::getpid()));

  // Set-up: build the workload's inputs, keep the first build, and time
  // further builds between the timed reps so setup_s samples the same
  // stretch of host time as wall_s.  The spare builds start after the
  // serial warm-up call, so they do not reach into peak_rss_mb.
  std::vector<double> setups;
  auto sample_setups = [&](double budget) {
    const double start = wall_now();
    do {
      const double t0 = wall_now();
      const std::unique_ptr<Workload> spare =
          make_workload(o.workload, o.seed, scratch.path());
      setups.push_back(wall_now() - t0);
    } while (wall_now() - start < budget);
  };
  const double t0 = wall_now();
  const std::unique_ptr<Workload> w =
      make_workload(o.workload, o.seed, scratch.path());
  setups.push_back(wall_now() - t0);

  Report report;
  Checks checks;
  std::cout << "workload: " << o.workload << " — " << w->describe() << '\n'
            << "seed: " << o.seed << "  jobs: " << o.jobs
            << "  points: " << w->num_points()
            << "  loop: closed, one public call at a time\n";

  long attempted = 0;
  if (o.trace) {
    sample_setups(kSetupBudget);
    traced_run(*w, o, scratch.path(), report, checks);
    attempted = static_cast<long>(w->num_points()) * 3;
  } else {
    // Warm-up: one serial call in grid order.  It is the reference every
    // timed parallel call must reproduce exactly, and the process peak right
    // after it is the footprint of set-up plus one point at a time.
    std::vector<std::size_t> grid_order(w->num_points());
    std::iota(grid_order.begin(), grid_order.end(), std::size_t{0});
    const Rep base = timed_public(*w, grid_order, 1);
    const double serial_rss = peak_rss_mib();
    sample_setups(kSetupBudget);
    std::vector<double> wall, cpu;
    double spent = 0.0;
    for (int rep = 1; rep <= kMaxReps; ++rep) {
      const Rep r = timed_public(
          *w, submission_order(w->num_points(), o.seed, rep), o.jobs);
      check_points(r.grid, base.grid, "serial call", checks);
      wall.push_back(r.wall);
      cpu.push_back(r.cpu);
      spent += r.wall;
      sample_setups(kSetupPerRep);
      if (rep >= kMinReps && spent >= o.seconds) break;
    }
    attempted = static_cast<long>(w->num_points()) *
                static_cast<long>(wall.size() + 1);
    w->check(base.grid, checks, report);
    report.add("wall_s", median(wall), "s", Clock::kHost, Kind::kEndToEnd,
               "public call p50, n=" + std::to_string(wall.size()) +
                   ", min " + full_digits(*std::min_element(wall.begin(),
                                                             wall.end())) +
                   ", max " +
                   full_digits(*std::max_element(wall.begin(), wall.end())));
    report.add("cpu_s", median(cpu), "s", Clock::kHost, Kind::kEndToEnd,
               "user+sys of the public call, p50");
    report.add("peak_rss_mb", serial_rss, "MiB", Clock::kHost,
               Kind::kEndToEnd,
               "peak resident set after set-up and the serial call");
    report.add("process_peak_rss_mb", peak_rss_mib(), "MiB", Clock::kHost,
               Kind::kInfo, "after the parallel calls too");
    add_model_end_to_end(base.grid, report);
  }

  report.add("setup_s", median(setups), "s", Clock::kHost, Kind::kEndToEnd,
             "workload inputs, median of " + std::to_string(setups.size()));
  for (const Metric& m : report.metrics()) {
    checks.expect(std::isfinite(m.value), m.name + " is not finite");
  }
  const long failed = checks.failed();
  report.add("failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio", Clock::kRatio, Kind::kInfo,
             "(failed points + failed checks) / points attempted");
  report.add("seed", static_cast<double>(o.seed), "-", Clock::kModel,
             Kind::kInfo);
  report.add("jobs", o.jobs, "-", Clock::kModel, Kind::kInfo);
  for (const std::string& f : checks.failures()) {
    std::cout << "CHECK FAILED: " << f << '\n';
  }
  report.print_table(std::cout);
  report.print_result(std::cout, o.trace ? Kind::kLayer : Kind::kEndToEnd,
                      attempted, failed);
  std::cout.flush();
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Run with address-space randomization off (one re-exec): the memory
  // model keys a hash map by host line addresses, so ASLR alone moves host
  // time and resident memory from run to run.  Modeled numbers never
  // depend on it (the model canonicalizes addresses).
  const int persona = ::personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      ::personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    ::execv("/proc/self/exe", argv);  // returns only on failure: run as is
  }
  const perfbench::Options o = perfbench::parse(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
