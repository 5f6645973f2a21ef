// perfbench — the three workloads (NOTES.md says why each was chosen).
//
// A workload owns its inputs (meshes, State, Experiment/Campaign, the
// point grid), built by make_workload — the set-up the benchmark times as
// setup_s.  It exposes:
//
//   * run_public: the ONE public call a user would make for the whole grid
//     (Experiment::run_points, the engine of sweep_grid; Campaign::run_points;
//     Campaign::run_points_ft), fanned out over the library's own pool.
//     The points are submitted in a seed-derived order and the results are
//     mapped back to grid order;
//   * run_serial: the same grid, one point after the other, through the
//     per-point public function (Experiment::run / Campaign::run), each
//     call wrapped in a span — the traced run and the plain single-threaded
//     baseline;
//   * check: the workload's own correctness checks on grid-ordered results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fem/mesh.h"
#include "miniapp/scenarios.h"
#include "report.h"
#include "sim/counters.h"
#include "sim/machine_config.h"
#include "trace.h"

namespace vecfd::core {}
namespace vecfd::platforms {}
namespace vecfd::solver {}

namespace perfbench {

namespace core = vecfd::core;
namespace fem = vecfd::fem;
namespace mem = vecfd::mem;
namespace miniapp = vecfd::miniapp;
namespace platforms = vecfd::platforms;
namespace sim = vecfd::sim;
namespace solver = vecfd::solver;

/// The modeled outcome of one grid point — everything that must be
/// identical whatever the job count or submission order.
struct PointModel {
  std::string label;
  sim::Counters total;
  std::vector<sim::Counters> phase;  ///< 0..kNumInstrumentedPhases
  double cycles = 0.0;
  /// cycles − phase10 + pressure_makespan_cycles (== cycles unsharded).
  double critical_cycles = 0.0;
  double pressure_makespan_cycles = 0.0;
  int pressure_iters = 0;
  int momentum_iters = 0;
  double final_divergence = 0.0;
  bool converged = true;
  int solver_failures = 0;
  bool failed = false;  ///< threw, or the retry ladder gave up
  int attempts = 1;
  bool degraded = false;
  /// Executed solver configuration (format/rcm/precond), for the
  /// P-independence check.
  std::string solver_key;
};

/// Exact equality of every modeled number of two points.
bool same_model(const PointModel& a, const PointModel& b);

/// What the layer probes run on: the workload's own mesh and operator
/// inputs, machine and strip.
struct ProbeInputs {
  const fem::Mesh* mesh = nullptr;  ///< operator mesh (workload-owned)
  miniapp::Scenario scenario;       ///< pins + the TimeLoop probe
  fem::MeshConfig timeloop_mesh;    ///< mesh of the TimeLoop probe
  int timeloop_steps = 1;
  sim::MachineConfig machine;       ///< vector machine of the workload
  int vector_size = 240;
  /// Checkpoint files the workload itself wrote (empty = capture one from
  /// the TimeLoop probe).
  std::vector<std::string> checkpoint_files;
  /// Assembly timing and the VEC1 speed-up come from the workload's own
  /// serial run (paper_sweep) instead of a probe pair.
  bool assembly_in_grid = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t num_points() const = 0;
  /// Human-readable shape of the grid (printed as info).
  virtual std::string describe() const = 0;

  /// The workload's one public call.  @p order[k] is the grid index of
  /// the k-th submitted point.  Results come back in grid order.
  virtual std::vector<PointModel> run_public(
      std::span<const std::size_t> order, int jobs) = 0;

  /// Serial per-point run, one span per point under the open span.
  virtual std::vector<PointModel> run_serial(Tracer& tracer) = 0;

  /// Workload-specific correctness checks on grid-ordered results; may
  /// add metrics (e.g. the VEC1 speed-up) to @p report.
  virtual void check(const std::vector<PointModel>& grid, Checks& checks,
                     Report& report) const = 0;

  virtual ProbeInputs probe_inputs() const = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload's inputs from @p seed.  @p scratch is a directory the
/// workload may write (checkpoints); it exists and is empty.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch);

/// The submission order of rep @p rep: a Fisher–Yates permutation of
/// [0, n) drawn from (seed, rep).
std::vector<std::size_t> submission_order(std::size_t n, std::uint64_t seed,
                                          int rep);

}  // namespace perfbench
