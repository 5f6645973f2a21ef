#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>

#include "core/campaign.h"
#include "core/experiment.h"
#include "fem/state.h"
#include "miniapp/config.h"
#include "platforms/platforms.h"
#include "sim/fault_injection.h"

namespace perfbench {

namespace {

using core::CampaignPoint;
using miniapp::OptLevel;
using solver::PrecondKind;
using solver::SpmvFormat;

// ---- shapes ----------------------------------------------------------------
// Sized so that one public call takes about a second at 4 jobs and the
// serial traced run a few seconds; NOTES.md records the trims against the
// full paper/campaign sizes.

/// paper_sweep: the repo's small paper mesh (VECFD_BENCH_SMALL of bench/):
/// 960 elements, every studied VECTOR_SIZE still gets whole chunks.
constexpr fem::MeshConfig kPaperMesh{.nx = 8, .ny = 10, .nz = 12};
constexpr int kScalarReferenceVs = 16;  // Figure 11's scalar baseline
constexpr int kPaperVs = 240;           // the paper's best VECTOR_SIZE
constexpr double kPaperSpeedupLo = 7.6;  // paper: 7.6x single-core ...
constexpr double kPaperSpeedupHi = 7.9;  // ... up to 7.9x (Figure 11)

/// transient_campaign: every scenario x all four platforms x two of the
/// studied VECTOR_SIZEs (the smallest and the paper's best).
constexpr fem::MeshConfig kTransientMesh{.nx = 4, .ny = 4, .nz = 4};
constexpr int kTransientSizes[] = {16, 240};
constexpr int kTransientSteps = 2;

/// codesign_ft: cavity on about 10^3 elements.
constexpr fem::MeshConfig kCodesignMesh{.nx = 9, .ny = 9, .nz = 9};
constexpr int kCodesignSteps = 2;
constexpr int kCodesignVs = 240;
constexpr int kCheckpointEvery = 1;
constexpr int kMaxRetries = 2;
/// Grid points the fault plan strikes: (ell, cheby, shards 4), whose
/// retry steps down to Jacobi and so onto the sharded path, and
/// (sell+rcm, deflate, shards 1), whose retry steps down to Chebyshev.
/// One target gets a worker death (the per-point isolation path, nothing
/// wasted), the other a solver breakdown (one whole attempt wasted); the
/// seed draws which target gets which, and the breakdown's step.  Fixed
/// targets keep every final configuration — and so every modeled
/// end-to-end number — independent of the seed, and a fixed mix of kinds
/// keeps the wasted work about the same.  nan-rhs is left out: a
/// NaN-poisoned pressure solve burns its whole iteration budget (about
/// 12 s on a deflate point against 1 s clean), so host time would measure
/// which point the seed hit.
constexpr std::size_t kFaultTargets[] = {3, 10};

/// splitmix64: the mixer of every seed-derived input.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool same_counters(const sim::Counters& a, const sim::Counters& b) {
  bool same = true;
  sim::Counters::visit_pairs(
      a, b, [&](const sim::CounterInfo&, const auto& x, const auto& y) {
        if (!(x == y)) same = false;
      });
  return same;
}

PointModel from_measurement(const core::Measurement& m) {
  PointModel p;
  p.label = m.machine.name + "/" + std::string(miniapp::to_string(m.app.opt)) +
            "/vs=" + std::to_string(m.app.vector_size);
  p.total = m.total;
  p.phase.assign(m.phase.begin(), m.phase.end());
  p.cycles = m.total_cycles;
  p.critical_cycles = m.total_cycles;
  return p;
}

std::string solver_key(const CampaignPoint& pt) {
  return std::string(solver::to_string(pt.format)) +
         (pt.rcm_renumber ? "+rcm/" : "/") + solver::to_string(pt.precond);
}

PointModel from_run(const core::CampaignRun& r) {
  PointModel p;
  p.label = r.scenario + "/" + r.point.machine.name +
            "/vs=" + std::to_string(r.point.vector_size) + "/" +
            solver_key(r.point) + "/shards=" + std::to_string(r.point.shards);
  p.total = r.loop.total;
  p.phase = r.loop.phase;
  p.cycles = r.total_cycles;
  p.pressure_makespan_cycles = r.loop.pressure_makespan_cycles;
  p.critical_cycles = r.total_cycles - r.phase_cycles(10) +
                      r.loop.pressure_makespan_cycles;
  p.pressure_iters = r.pressure_iterations;
  p.momentum_iters = r.momentum_iterations;
  p.final_divergence = r.final_divergence;
  p.converged = r.all_converged;
  p.solver_failures = r.solver_failures;
  p.solver_key = solver_key(r.point);
  return p;
}

PointModel from_outcome(const core::CampaignOutcome& o) {
  PointModel p = from_run(o.run);
  p.attempts = o.attempts;
  p.degraded = o.degraded;
  p.failed = o.final_status == "failed";
  return p;
}

/// Every transient point converged, with a finite final divergence, no
/// failed solve, and was not given up by the retry ladder.
void check_transient(const std::vector<PointModel>& grid, Checks& checks) {
  for (const PointModel& p : grid) {
    checks.expect(!p.failed, p.label + ": point failed");
    checks.expect(p.converged, p.label + ": a solve did not converge");
    checks.expect(std::isfinite(p.final_divergence),
                  p.label + ": non-finite final divergence");
    checks.expect(p.solver_failures == 0, p.label + ": failed solve");
  }
}

std::vector<miniapp::Scenario> scenarios_on(std::vector<miniapp::Scenario> s,
                                            const fem::MeshConfig& mesh) {
  for (miniapp::Scenario& sc : s) {
    sc.mesh.nx = mesh.nx;
    sc.mesh.ny = mesh.ny;
    sc.mesh.nz = mesh.nz;
  }
  return s;
}

/// Results of a permuted submission, back in grid order.
template <class Result, class Convert>
std::vector<PointModel> to_grid(std::span<const std::size_t> order,
                                const std::vector<Result>& results,
                                Convert&& convert) {
  std::vector<PointModel> out(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    out[order[k]] = convert(results[k]);
  }
  return out;
}

template <class Point>
std::vector<Point> submitted(std::span<const std::size_t> order,
                             const std::vector<Point>& grid) {
  std::vector<Point> out;
  out.reserve(order.size());
  for (std::size_t g : order) out.push_back(grid.at(g));
  return out;
}

// ---- paper_sweep -------------------------------------------------------------

class PaperSweep final : public Workload {
 public:
  PaperSweep() : mesh_(kPaperMesh), state_(mesh_), ex_(mesh_, state_) {
    // sweep_grid's size-major grid, then the scalar reference point.
    miniapp::MiniAppConfig app;
    for (int vs : miniapp::kStudiedVectorSizes) {
      for (OptLevel o : core::kSweepOptLevels) {
        app.vector_size = vs;
        app.opt = o;
        points_.push_back({platforms::riscv_vec(), app});
      }
    }
    app.vector_size = kScalarReferenceVs;
    app.opt = OptLevel::kScalar;
    points_.push_back({platforms::riscv_vec_scalar(), app});
  }

  std::size_t num_points() const override { return points_.size(); }

  std::string describe() const override {
    return "Experiment::run_points (sweep_grid engine): riscv-vec x "
           "VECTOR_SIZE {16,64,128,240,256,512} x {vanilla,vec2,ivec2,vec1} "
           "+ scalar reference on riscv-vec-scalar; mesh " +
           std::to_string(mesh_.num_elements()) + " elements";
  }

  std::vector<PointModel> run_public(std::span<const std::size_t> order,
                                     int jobs) override {
    const auto sub = submitted(order, points_);
    return to_grid(order, ex_.run_points(sub, jobs), from_measurement);
  }

  std::vector<PointModel> run_serial(Tracer& tracer) override {
    std::vector<PointModel> out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      Scope s(&tracer, "core.Experiment::run", static_cast<int>(i));
      out.push_back(
          from_measurement(ex_.run(points_[i].machine, points_[i].app)));
    }
    return out;
  }

  void check(const std::vector<PointModel>& grid, Checks& checks,
             Report& report) const override {
    double scalar = 0.0;
    double vec1 = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const miniapp::MiniAppConfig& a = points_[i].app;
      if (a.opt == OptLevel::kScalar) scalar = grid[i].cycles;
      if (a.opt == OptLevel::kVec1 && a.vector_size == kPaperVs) {
        vec1 = grid[i].cycles;
      }
    }
    const double speedup = vec1 > 0.0 ? scalar / vec1 : 0.0;
    report.add("miniapp.vec1_speedup", speedup, "x", Clock::kModel,
               Kind::kLayer,
               "VEC1@240 over scalar@16; paper 7.6x (the only external "
               "reference in the repo; the model is otherwise unvalidated)");
    report.add("miniapp.vec1_speedup_err", std::abs(speedup / kPaperSpeedupLo - 1.0),
               "ratio", Clock::kModel, Kind::kLayer,
               "model error against the paper's 7.6x");
    checks.expect(speedup >= kPaperSpeedupLo && speedup <= kPaperSpeedupHi,
                  "VEC1 speed-up " + full_digits(speedup) +
                      "x outside the paper's 7.6-7.9x band");
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.mesh = &mesh_;
    in.scenario = miniapp::scenario_cavity();
    in.timeloop_mesh = kPaperMesh;
    in.timeloop_steps = 1;
    in.machine = platforms::riscv_vec();
    in.vector_size = kPaperVs;
    in.assembly_in_grid = true;
    return in;
  }

 private:
  fem::Mesh mesh_;
  fem::State state_;
  core::Experiment ex_;
  std::vector<core::SweepPoint> points_;
};

// ---- transient_campaign ----------------------------------------------------

class TransientCampaign final : public Workload {
 public:
  TransientCampaign()
      : camp_(scenarios_on(miniapp::all_scenarios(), kTransientMesh)) {
    const sim::MachineConfig machines[] = {
        platforms::riscv_vec(), platforms::riscv_vec_scalar(),
        platforms::sx_aurora(), platforms::mn4_avx512()};
    points_ = camp_.grid(machines, kTransientSizes, kTransientSteps);
  }

  std::size_t num_points() const override { return points_.size(); }

  std::string describe() const override {
    return "Campaign::run_points: 3 scenarios x 4 platforms x VECTOR_SIZE "
           "{16,240}, " + std::to_string(kTransientSteps) +
           " steps, ELL/Jacobi; mesh " +
           std::to_string(camp_.mesh(0).num_elements()) + " elements";
  }

  std::vector<PointModel> run_public(std::span<const std::size_t> order,
                                     int jobs) override {
    const auto sub = submitted(order, points_);
    return to_grid(order, camp_.run_points(sub, jobs), from_run);
  }

  std::vector<PointModel> run_serial(Tracer& tracer) override {
    std::vector<PointModel> out;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      Scope s(&tracer, "core.Campaign::run", static_cast<int>(i));
      out.push_back(from_run(camp_.run(points_[i])));
    }
    return out;
  }

  void check(const std::vector<PointModel>& grid, Checks& checks,
             Report&) const override {
    check_transient(grid, checks);
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.mesh = &camp_.mesh(0);
    in.scenario = camp_.scenarios().front();
    in.timeloop_mesh = kTransientMesh;
    in.timeloop_steps = kTransientSteps;
    in.machine = platforms::riscv_vec();
    in.vector_size = kPaperVs;
    return in;
  }

 private:
  core::Campaign camp_;
  std::vector<CampaignPoint> points_;
};

// ---- codesign_ft -------------------------------------------------------------

class CodesignFt final : public Workload {
 public:
  CodesignFt(std::uint64_t seed, const std::string& scratch)
      : camp_(scenarios_on({miniapp::scenario_cavity()}, kCodesignMesh)),
        scratch_(scratch) {
    struct Storage {
      SpmvFormat format;
      bool rcm;
    };
    constexpr Storage kStorages[] = {{SpmvFormat::kEll, false},
                                     {SpmvFormat::kSell, true}};
    constexpr PrecondKind kRungs[] = {
        PrecondKind::kJacobi, PrecondKind::kCheby, PrecondKind::kDeflate};
    for (const Storage& st : kStorages) {
      for (PrecondKind pk : kRungs) {
        for (int shards : {1, 4}) {
          CampaignPoint p;
          p.machine = platforms::riscv_vec();
          p.vector_size = kCodesignVs;
          p.steps = kCodesignSteps;
          p.format = st.format;
          p.rcm_renumber = st.rcm;
          p.precond = pk;
          p.shards = shards;
          points_.push_back(p);
        }
      }
    }
    // The plan strikes GRID points; run_public re-targets it at the
    // submission positions so every order injects the same faults.
    const std::uint64_t h = mix(seed ^ 0xfa017ULL);
    const std::size_t death = h & 1u;
    faults_.push_back({sim::FaultKind::kWorkerDeath,
                       static_cast<int>(kFaultTargets[death]), 0});
    faults_.push_back({sim::FaultKind::kSolverBreakdown,
                       static_cast<int>(kFaultTargets[1 - death]),
                       static_cast<int>((h >> 8) % kCodesignSteps)});
  }

  std::size_t num_points() const override { return points_.size(); }

  std::string describe() const override {
    return "Campaign::run_points_ft: cavity, {ell, sell+rcm} x {jacobi, "
           "cheby, deflate} x shards {1,4}, " +
           std::to_string(kCodesignSteps) + " steps, checkpoint_every=" +
           std::to_string(kCheckpointEvery) + ", max_retries=" +
           std::to_string(kMaxRetries) + ", fault plan " + grid_plan().describe() +
           "; mesh " +
           std::to_string(camp_.mesh(0).num_elements()) + " elements";
  }

  std::vector<PointModel> run_public(std::span<const std::size_t> order,
                                     int jobs) override {
    std::vector<std::size_t> position(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) position[order[k]] = k;
    const sim::FaultPlan plan = plan_for(position);
    const auto sub = submitted(order, points_);
    return to_grid(order, camp_.run_points_ft(sub, options(scratch_, plan), jobs),
                   from_outcome);
  }

  /// One point at a time: a one-point run_points_ft call at one job walks
  /// the library's own retry ladder for that point, into its own
  /// checkpoint directory.
  std::vector<PointModel> run_serial(Tracer& tracer) override {
    std::vector<PointModel> out;
    checkpoint_files_.clear();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const std::string dir = scratch_ + "/serial_" + std::to_string(i);
      std::filesystem::create_directories(dir);
      std::vector<std::size_t> position(points_.size(), kNotSubmitted);
      position[i] = 0;
      const sim::FaultPlan plan = plan_for(position);
      {
        Scope s(&tracer, "core.Campaign::run_points_ft", static_cast<int>(i));
        out.push_back(from_outcome(
            camp_.run_points_ft(std::span(&points_[i], 1), options(dir, plan), 1)
                .front()));
      }
      const std::string file = dir + "/point_0.ckpt";
      if (std::filesystem::exists(file)) checkpoint_files_.push_back(file);
    }
    return out;
  }

  void check(const std::vector<PointModel>& grid, Checks& checks,
             Report& report) const override {
    check_transient(grid, checks);
    // P-independence: a configuration's shards-1 and shards-4 runs
    // iterate identically.  A pair is comparable when both final runs
    // executed the same solver configuration (a fault may have degraded
    // one of them down the ladder).
    int compared = 0;
    for (std::size_t i = 0; i + 1 < grid.size(); i += 2) {
      const PointModel& one = grid[i];
      const PointModel& four = grid[i + 1];
      if (one.solver_key != four.solver_key) continue;
      ++compared;
      checks.expect(one.pressure_iters == four.pressure_iters,
                    one.solver_key + ": pressure iterations differ between "
                                     "shards 1 and 4 (P-independence)");
    }
    checks.expect(compared > 0, "no comparable shards 1/4 pair");
    report.add("core.p_independence_pairs", compared, "count", Clock::kModel,
               Kind::kInfo, "shards 1/4 pairs compared");
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.mesh = &camp_.mesh(0);
    in.scenario = camp_.scenarios().front();
    in.timeloop_mesh = kCodesignMesh;
    in.timeloop_steps = kCodesignSteps;
    in.machine = platforms::riscv_vec();
    in.vector_size = kCodesignVs;
    in.checkpoint_files = checkpoint_files_;
    return in;
  }

 private:
  static core::CampaignFtOptions options(const std::string& dir,
                                         const sim::FaultPlan& plan) {
    core::CampaignFtOptions ft;
    ft.retry.max_retries = kMaxRetries;
    ft.faults = &plan;
    ft.checkpoint_dir = dir;
    ft.checkpoint_every = kCheckpointEvery;
    return ft;
  }

  /// The plan with each fault at submission index @p position[grid point]
  /// (kNotSubmitted: the point is not in this call).
  sim::FaultPlan plan_for(const std::vector<std::size_t>& position) const {
    std::string spec;
    for (const sim::PlannedFault& f : faults_) {
      const std::size_t g = static_cast<std::size_t>(f.point);
      if (position[g] == kNotSubmitted) continue;
      if (!spec.empty()) spec += ';';
      spec += sim::to_string(f.kind);
      spec += '@';
      spec += std::to_string(position[g]);
      if (f.kind != sim::FaultKind::kWorkerDeath) {
        spec += '.';
        spec += std::to_string(f.step);
      }
    }
    return spec.empty() ? sim::FaultPlan{} : sim::FaultPlan::parse(spec);
  }

  static constexpr std::size_t kNotSubmitted = ~std::size_t{0};

  /// The plan in grid order (for the description).
  sim::FaultPlan grid_plan() const {
    std::vector<std::size_t> identity(points_.size());
    std::iota(identity.begin(), identity.end(), std::size_t{0});
    return plan_for(identity);
  }

  core::Campaign camp_;
  std::string scratch_;  ///< checkpoints of the public calls, serial_<i>/
  std::vector<CampaignPoint> points_;
  std::vector<sim::PlannedFault> faults_;  ///< at grid indices
  std::vector<std::string> checkpoint_files_;
};

}  // namespace

bool same_model(const PointModel& a, const PointModel& b) {
  if (a.phase.size() != b.phase.size()) return false;
  for (std::size_t p = 0; p < a.phase.size(); ++p) {
    if (!same_counters(a.phase[p], b.phase[p])) return false;
  }
  return same_counters(a.total, b.total) && a.cycles == b.cycles &&
         a.critical_cycles == b.critical_cycles &&
         a.pressure_iters == b.pressure_iters &&
         a.momentum_iters == b.momentum_iters &&
         a.final_divergence == b.final_divergence &&
         a.converged == b.converged &&
         a.solver_failures == b.solver_failures &&
         a.attempts == b.attempts && a.degraded == b.degraded &&
         a.failed == b.failed && a.label == b.label;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_sweep", "transient_campaign", "codesign_ft"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>();
  if (name == "transient_campaign") {
    return std::make_unique<TransientCampaign>();
  }
  if (name == "codesign_ft") {
    return std::make_unique<CodesignFt>(seed, scratch);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<std::size_t> submission_order(std::size_t n, std::uint64_t seed,
                                          int rep) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = mix(seed) ^ mix(static_cast<std::uint64_t>(rep) +
                                        0x5eedULL);
  for (std::size_t i = n; i > 1; --i) {
    state = mix(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

}  // namespace perfbench
