// P-independence of the sharded pressure solve (DESIGN.md §9): the
// ShardedCg contract demands fields, residual histories and convergence
// outcomes BIT-identical to the single-Vpu path for every shard count —
// sharding redistributes work and adds halo counters, never numerics.
//
// Covered here:
//   * solver::ShardedCg vs solver::vcg on the same pinned Laplacian,
//     bitwise (solution, history, iterations, residual), incl. b = 0;
//   * miniapp::TimeLoop runs at P ∈ {1, 2, 4, 8}: identical fields and
//     pressure histories, halo counters live iff P > 1 on the kJacobi
//     vector path, legacy fallback (zero halo counters, identical results,
//     TimeLoopResult::effective_shards == 1) for non-Jacobi rungs and
//     scalar machines;
//   * counter conservation with shards: per-step cycle deltas still tile
//     the run and per-phase counters still sum to the totals — the shard
//     Vpus' work (incl. the halo counters, which land in phase 10) is
//     folded into the same accounting as the coordinator's;
//   * sim::HaloExchange unit semantics: values copied bit-for-bit, the
//     three halo counters priced on the documented sides;
//   * the host fan-out: once the worker pool is warm, neither a sharded
//     solve nor a jobs=4 campaign over sharded points creates a thread,
//     and that campaign is bit-identical to its jobs=1 twin;
//   * the shard-aware core::recommend_format overload and the halo-bound
//     Advisor finding;
//   * the BSP makespan of a deliberately unbalanced two-shard plan, pinned
//     exactly, so any regrouping of the executor's epochs shows;
//   * every sharded solve and transient configuration runs through the
//     steady-state replay oracle (replay_oracle.h): replay off and on give
//     equal counters, equal L1/L2 hit/miss totals and an equal makespan,
//     with the shard tapes driven from the worker pool's threads.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/advisor.h"
#include "core/campaign.h"
#include "core/parallel.h"
#include "fem/mesh.h"
#include "fem/partition.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "miniapp/checkpoint.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "replay_oracle.h"
#include "sim/halo_exchange.h"
#include "sim/vpu.h"
#include "solver/sharding.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;

// ---------------------------------------------------------------------------
// ShardedCg vs vcg, direct
// ---------------------------------------------------------------------------

struct PinnedPoisson {
  explicit PinnedPoisson(int n) : mesh({.nx = n, .ny = n, .nz = n}) {
    const fem::ShapeTable shape;
    a = fem::assemble_pressure_laplacian(mesh, shape);
    const std::vector<int> pins = {0};
    fem::pin_dirichlet(a, pins);
    b.assign(static_cast<std::size_t>(mesh.num_nodes()), 0.0);
    for (std::size_t i = 1; i < b.size(); ++i) {
      b[i] = 1.0 + 0.25 * std::sin(static_cast<double>(i));
    }
  }
  fem::Mesh mesh;
  solver::CsrMatrix a;
  std::vector<double> b;
};

void expect_reports_identical(const solver::SolveReport& got,
                              const solver::SolveReport& want,
                              const std::string& what) {
  EXPECT_EQ(got.converged, want.converged) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_EQ(got.residual, want.residual) << what;  // bitwise
  EXPECT_EQ(got.history, want.history) << what;    // bitwise, every entry
  EXPECT_EQ(got.failure, want.failure) << what;
}

/// One ShardedCg solve of @p plan through the replay oracle: a fresh
/// executor and coordinator per run; every shard Vpu, the coordinator and
/// the makespan go into the trace.
solver::SolveReport replay_checked_sharded(
    const std::string& what, const solver::ShardPlan& plan,
    const solver::CsrMatrix& a, const sim::MachineConfig& machine, int vs,
    std::span<const double> b, std::vector<double>& x,
    const solver::SolveOptions& opts, double* makespan = nullptr,
    std::uint64_t* halo = nullptr, std::uint64_t* replayed = nullptr) {
  return testsupport::replay_checked(
      what,
      [&](testsupport::ReplayTrace& trace) {
        solver::ShardedCg scg(plan, a, machine, vs, miniapp::kPressurePhase);
        sim::Vpu coord(machine);
        x.assign(b.size(), 0.0);
        const solver::SolveReport rep = scg.solve(coord, b, x, opts);
        trace.add(coord);
        if (halo != nullptr) *halo = 0;
        for (int p = 0; p < scg.shards(); ++p) {
          trace.add(scg.shard_vpu(p));
          if (halo != nullptr) {
            *halo += scg.shard_vpu(p).counters().halo_lines_sent +
                     scg.shard_vpu(p).counters().halo_lines_recv;
          }
        }
        trace.values.push_back(scg.makespan_cycles());
        if (makespan != nullptr) *makespan = scg.makespan_cycles();
        return rep;
      },
      replayed);
}

TEST(ShardedCg, BitIdenticalToVcg) {
  PinnedPoisson sys(4);
  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 64;
  const int quantum = solver::solve_effective_strip(vs, machine);
  const int n = sys.mesh.num_nodes();

  sim::Vpu ref_vpu(machine);
  std::vector<double> x_ref(static_cast<std::size_t>(n), 0.0);
  const solver::SolveOptions opts;
  solver::SolveReport ref =
      solver::vcg(ref_vpu, sys.a, sys.b, x_ref, opts, vs);

  std::uint64_t replayed = 0;
  for (const int shards : {2, 4, 8}) {
    const fem::MeshPartition part =
        fem::partition_mesh(sys.mesh, shards, quantum);
    const std::string what = "P=" + std::to_string(shards);
    std::vector<double> x;
    double makespan = 0.0;
    std::uint64_t halo = 0;
    const solver::SolveReport rep =
        replay_checked_sharded(what, part.plan, sys.a, machine, vs, sys.b, x,
                               opts, &makespan, &halo, &replayed);
    expect_reports_identical(rep, ref, what);
    EXPECT_EQ(x, x_ref) << what;  // bitwise, every unknown
    EXPECT_GT(makespan, 0.0) << what;
    // The distributed work really ran on the shard Vpus.
    EXPECT_GT(halo, 0u) << what;
  }
  EXPECT_GT(replayed, 0u);  // the shard tapes served instructions
}

TEST(ShardedCg, BitIdenticalToVcgOnZeroRhs) {
  PinnedPoisson sys(3);
  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 64;
  const int quantum = solver::solve_effective_strip(vs, machine);
  const int n = sys.mesh.num_nodes();
  const std::vector<double> zero_b(static_cast<std::size_t>(n), 0.0);

  sim::Vpu ref_vpu(machine);
  std::vector<double> x_ref(static_cast<std::size_t>(n), 0.0);
  const solver::SolveOptions opts;
  solver::SolveReport ref =
      solver::vcg(ref_vpu, sys.a, zero_b, x_ref, opts, vs);

  const fem::MeshPartition part = fem::partition_mesh(sys.mesh, 2, quantum);
  std::vector<double> x;
  const solver::SolveReport rep = replay_checked_sharded(
      "zero rhs", part.plan, sys.a, machine, vs, zero_b, x, opts);
  expect_reports_identical(rep, ref, "zero rhs");
  EXPECT_EQ(x, x_ref);
}

/// Two deliberately unbalanced shards on a machine whose L1 is one set of
/// two ways:
/// shard 0 owns 8 wide rows (a dense 8×8 block plus two links each into
/// shard 1), so its SpMV outweighs shard 1's; shard 1 owns 16 narrow rows
/// (a chain plus one link each) in two strips, so its reductions outweigh
/// shard 0's.  SPD by strict diagonal dominance.
struct UnbalancedShards {
  static constexpr int kWide = 8;
  static constexpr int kNarrow = 16;
  static constexpr int kStrip = 8;

  UnbalancedShards() {
    machine.memory.l1 = {.size_bytes = 128, .line_bytes = 64,
                         .associativity = 2, .name = "L1D"};
    machine.memory.l2 = {.size_bytes = 4096, .line_bytes = 64,
                         .associativity = 4, .name = "L2"};
    const int n = kWide + kNarrow;
    std::vector<std::vector<std::pair<int, double>>> off(
        static_cast<std::size_t>(n));
    const auto link = [&](int i, int j, double v) {
      off[static_cast<std::size_t>(i)].push_back({j, v});
      off[static_cast<std::size_t>(j)].push_back({i, v});
    };
    for (int i = 0; i < kWide; ++i) {
      for (int k = i + 1; k < kWide; ++k) link(i, k, -0.5);
      link(i, kWide + 2 * i, -1.0);
      link(i, kWide + 2 * i + 1, -1.0);
    }
    for (int j = kWide; j + 1 < n; ++j) link(j, j + 1, -1.0);
    std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (const auto& [j, v] : off[static_cast<std::size_t>(i)]) {
        adj[static_cast<std::size_t>(i)].push_back(j);
      }
    }
    a = solver::CsrMatrix(adj);
    for (int i = 0; i < n; ++i) {
      double sum = 0.0;
      for (const auto& [j, v] : off[static_cast<std::size_t>(i)]) {
        a.add(i, j, v);
        sum += std::abs(v);
      }
      a.add(i, i, sum + 1.0 + 0.1 * i);
    }
    b.assign(static_cast<std::size_t>(n), 0.0);
    for (int i = 0; i < n; ++i) {
      b[static_cast<std::size_t>(i)] = 1.0 + 0.25 * std::sin(1.0 * i);
    }
    plan.shards = 2;
    plan.quantum = kStrip;
    plan.bounds = {0, kWide, n};
    plan.ghosts.resize(2);
    for (int j = kWide; j < n; ++j) plan.ghosts[0].push_back(j);
    for (int i = 0; i < kWide; ++i) plan.ghosts[1].push_back(i);
  }

  sim::MachineConfig machine = platforms::riscv_vec();
  solver::CsrMatrix a;
  std::vector<double> b;
  solver::ShardPlan plan;
};

TEST(ShardedCg, MakespanPinsTheEpochGrouping) {
  // The slowest shard differs between the SpMV and the reduction half of
  // the spmv_dot epoch, so splitting it into two epochs raises the BSP
  // makespan; the two-line L1 makes the order of step()'s two updates
  // visible in hit/miss counts.  The pinned value is the makespan of this exact
  // epoch grouping and kernel order — any regrouping moves it.
  UnbalancedShards sys;
  std::vector<double> x;
  double makespan = 0.0;
  const solver::SolveReport rep = replay_checked_sharded(
      "unbalanced", sys.plan, sys.a, sys.machine, UnbalancedShards::kStrip,
      sys.b, x,
      {.max_iterations = 6, .rel_tolerance = 1e-30, .precond = {}},
      &makespan);
  EXPECT_EQ(rep.iterations, 6);
  // The same system on one Vpu iterates identically (P-independence).
  sim::Vpu ref(sys.machine);
  std::vector<double> x_ref(sys.b.size(), 0.0);
  const solver::SolveReport want = solver::vcg(
      ref, sys.a, sys.b, x_ref,
      {.max_iterations = 6, .rel_tolerance = 1e-30, .precond = {}},
      UnbalancedShards::kStrip);
  expect_reports_identical(rep, want, "unbalanced P=2");
  EXPECT_EQ(x, x_ref);
  EXPECT_EQ(makespan, 0x1.55b3fffffffecp+13) << std::hexfloat << makespan;
}

TEST(ShardedCg, RejectsScalarMachineAndZeroDiagonal) {
  PinnedPoisson sys(3);
  const int vs = 64;
  {
    const sim::MachineConfig scalar = platforms::riscv_vec_scalar();
    fem::MeshPartition part = fem::partition_mesh(sys.mesh, 2, vs);
    EXPECT_THROW(solver::ShardedCg(std::move(part.plan), sys.a, scalar, vs,
                                   miniapp::kPressurePhase),
                 std::invalid_argument);
  }
  {
    // A structurally zero diagonal must be detected in the constructor
    // (std::runtime_error), BEFORE any shard state exists — the TimeLoop
    // relies on this to fall back to the legacy instrumented-failure path.
    const sim::MachineConfig machine = platforms::riscv_vec();
    const int quantum = solver::solve_effective_strip(vs, machine);
    solver::CsrMatrix bad = sys.a;
    const auto cols = bad.row_cols(1);
    auto vals = bad.row_vals(1);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] == 1) vals[k] = 0.0;
    }
    fem::MeshPartition part = fem::partition_mesh(sys.mesh, 2, quantum);
    EXPECT_THROW(solver::ShardedCg(std::move(part.plan), bad, machine, vs,
                                   miniapp::kPressurePhase),
                 std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// TimeLoop P-independence
// ---------------------------------------------------------------------------

struct LoopRun {
  std::vector<double> fields;           ///< final unknowns
  std::vector<double> pressure_history; ///< concatenated across steps
  std::uint64_t halo_lines = 0;
  std::uint64_t halo_messages = 0;
  double makespan = 0.0;
  miniapp::TimeLoopResult res;
};

LoopRun run_loop(const sim::MachineConfig& machine, int shards,
                 solver::PrecondKind precond = solver::PrecondKind::kJacobi,
                 bool rcm = false) {
  const miniapp::Scenario scen = miniapp::scenario_cavity();
  const fem::Mesh mesh(scen.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = 2;
  cfg.vector_size = 64;
  cfg.shards = shards;
  cfg.precond = precond;
  cfg.rcm_renumber = rcm;
  LoopRun r;
  r.res = testsupport::replay_checked_loop(
      "P=" + std::to_string(shards) + " " + to_string(precond) +
          (rcm ? " rcm" : ""),
      mesh, scen, cfg, machine, &r.fields);
  for (const auto& step : r.res.steps) {
    r.pressure_history.insert(r.pressure_history.end(),
                              step.pressure.history.begin(),
                              step.pressure.history.end());
  }
  const sim::Counters& p10 = r.res.phase[miniapp::kPressurePhase];
  r.halo_lines = p10.halo_lines_sent + p10.halo_lines_recv;
  r.halo_messages = p10.halo_messages;
  r.makespan = r.res.pressure_makespan_cycles;
  return r;
}

TEST(TimeLoopSharding, FieldsAndHistoriesIndependentOfShardCount) {
  const sim::MachineConfig machine = platforms::riscv_vec();
  const LoopRun ref = run_loop(machine, 1);
  EXPECT_EQ(ref.halo_lines, 0u);
  EXPECT_EQ(ref.halo_messages, 0u);
  EXPECT_GT(ref.makespan, 0.0);  // legacy path: phase-10 cycles
  for (const int shards : {2, 4, 8}) {
    const LoopRun r = run_loop(machine, shards);
    const std::string what = "P=" + std::to_string(shards);
    EXPECT_EQ(r.fields, ref.fields) << what;                      // bitwise
    EXPECT_EQ(r.pressure_history, ref.pressure_history) << what;  // bitwise
    EXPECT_GT(r.halo_lines, 0u) << what;
    EXPECT_GT(r.halo_messages, 0u) << what;
    EXPECT_GT(r.makespan, 0.0) << what;
    EXPECT_EQ(r.res.effective_shards, shards) << what;
    EXPECT_LT(r.makespan, ref.makespan) << what << ": distributing the "
        "pressure solve must shorten its BSP critical path";
  }
}

TEST(TimeLoopSharding, ComposesWithRcm) {
  const sim::MachineConfig machine = platforms::riscv_vec();
  const LoopRun ref = run_loop(machine, 1, solver::PrecondKind::kJacobi,
                               /*rcm=*/true);
  const LoopRun r = run_loop(machine, 4, solver::PrecondKind::kJacobi,
                             /*rcm=*/true);
  EXPECT_EQ(r.fields, ref.fields);
  EXPECT_EQ(r.pressure_history, ref.pressure_history);
  EXPECT_GT(r.halo_lines, 0u);
}

TEST(TimeLoopSharding, NonJacobiRungsFallBackToLegacyPath) {
  // The sharded replay covers the kJacobi rung; the higher rungs take the
  // documented fallback — identical results, no halo counters, and the
  // result says the solve ran on one Vpu.
  const sim::MachineConfig machine = platforms::riscv_vec();
  for (const auto kind :
       {solver::PrecondKind::kCheby, solver::PrecondKind::kDeflate}) {
    const LoopRun ref = run_loop(machine, 1, kind);
    const LoopRun r = run_loop(machine, 4, kind);
    const std::string what = to_string(kind);
    EXPECT_EQ(r.fields, ref.fields) << what;
    EXPECT_EQ(r.pressure_history, ref.pressure_history) << what;
    EXPECT_EQ(r.halo_lines, 0u) << what;
    EXPECT_EQ(r.halo_messages, 0u) << what;
    EXPECT_EQ(r.res.effective_shards, 1) << what;
  }
}

TEST(TimeLoopSharding, ScalarMachineFallsBackToLegacyPath) {
  const sim::MachineConfig machine = platforms::riscv_vec_scalar();
  const LoopRun ref = run_loop(machine, 1);
  const LoopRun r = run_loop(machine, 4);
  EXPECT_EQ(r.fields, ref.fields);
  EXPECT_EQ(r.pressure_history, ref.pressure_history);
  EXPECT_EQ(r.halo_lines, 0u);
  EXPECT_EQ(r.res.effective_shards, 1);
}

TEST(TimeLoopSharding, CountersStillConserveWithShards) {
  // The conservation invariants of test_time_loop_conservation, re-checked
  // on the sharded path: shard-Vpu work (incl. halo counters) must fold
  // into the same per-step / per-phase accounting as the coordinator's.
  const sim::MachineConfig machine = platforms::riscv_vec();
  const LoopRun r = run_loop(machine, 4);
  const miniapp::TimeLoopResult& res = r.res;

  double step_sum = 0.0;
  for (const auto& st : res.steps) step_sum += st.cycles;
  EXPECT_NEAR(step_sum, res.cycles, 1e-9 * res.cycles);
  EXPECT_NEAR(res.cycles, res.total.total_cycles(), 1e-9 * res.cycles);

  sim::Counters phase_sum;
  for (const sim::Counters& pc : res.phase) phase_sum += pc;
  sim::Counters::visit_pairs(
      phase_sum, res.total,
      [&](const sim::CounterInfo& info, const auto& g, const auto& w) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(g)>>) {
          EXPECT_NEAR(g, w, 1e-9 * (1.0 + w)) << info.name;
        } else {
          EXPECT_EQ(g, w) << info.name;
        }
      });
  // Every solve on every path reports success on this well-posed problem.
  for (const auto& st : res.steps) {
    EXPECT_TRUE(st.pressure.failure.empty());
    EXPECT_TRUE(st.pressure.converged);
  }
}

// ---------------------------------------------------------------------------
// Host fan-out: the persistent worker pool
// ---------------------------------------------------------------------------

void expect_counters_identical(const sim::Counters& got,
                               const sim::Counters& want,
                               const std::string& what) {
  sim::Counters::visit_pairs(
      got, want,
      [&](const sim::CounterInfo& info, const auto& g, const auto& w) {
        EXPECT_EQ(g, w) << what << " " << info.name;  // bitwise
      });
}

/// {jacobi, cheby} × shards {1, 4} on the cavity, checkpointing every step
/// into @p dir so the final fields can be read back.
std::vector<core::CampaignOutcome> run_campaign(const core::Campaign& camp,
                                                const std::string& dir,
                                                int jobs) {
  std::vector<core::CampaignPoint> points;
  for (const auto kind :
       {solver::PrecondKind::kJacobi, solver::PrecondKind::kCheby}) {
    for (const int shards : {1, 4}) {
      core::CampaignPoint p;
      p.machine = platforms::riscv_vec();
      p.vector_size = 64;
      p.steps = 2;
      p.precond = kind;
      p.shards = shards;
      points.push_back(p);
    }
  }
  std::filesystem::create_directories(dir);
  core::CampaignFtOptions opts;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 1;
  return camp.run_points_ft(points, opts, jobs);
}

TEST(ShardPool, NoThreadCreatedInsideASolveOrACampaign) {
  PinnedPoisson sys(4);
  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 64;
  const int quantum = solver::solve_effective_strip(vs, machine);
  fem::MeshPartition part = fem::partition_mesh(sys.mesh, 4, quantum);
  solver::ShardedCg scg(std::move(part.plan), sys.a, machine, vs,
                        miniapp::kPressurePhase);
  const solver::SolveOptions opts;
  const auto solve = [&] {
    sim::Vpu coord(machine);
    std::vector<double> x(sys.b.size(), 0.0);
    scg.reset();
    return scg.solve(coord, sys.b, x, opts);
  };
  const solver::SolveReport warm = solve();  // sizes the pool
  const std::size_t started = core::pool_threads_started();

  // Every BSP epoch of a second solve is a job on the same workers.
  expect_reports_identical(solve(), warm, "second solve");
  EXPECT_EQ(core::pool_threads_started(), started) << "second solve";

  // A campaign at jobs=4 nests shard epochs inside busy points: they run
  // on the pool (inline when every worker is busy), never on new threads,
  // and the schedule cannot reach any modeled number.
  const core::Campaign camp({miniapp::scenario_cavity()});
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string dir1 = (tmp / "vecfd_shard_pool_jobs1").string();
  const std::string dir4 = (tmp / "vecfd_shard_pool_jobs4").string();
  const auto serial = run_campaign(camp, dir1, 1);
  const auto parallel = run_campaign(camp, dir4, 4);
  EXPECT_EQ(core::pool_threads_started(), started) << "campaign";

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const miniapp::TimeLoopResult& a = serial[i].run.loop;
    const miniapp::TimeLoopResult& b = parallel[i].run.loop;
    const std::string what = "point " + std::to_string(i);
    ASSERT_EQ(serial[i].final_status, "ok") << what;
    ASSERT_EQ(parallel[i].final_status, "ok") << what;
    EXPECT_EQ(a.effective_shards, b.effective_shards) << what;
    EXPECT_EQ(a.pressure_makespan_cycles, b.pressure_makespan_cycles) << what;
    ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
    for (std::size_t k = 0; k < a.steps.size(); ++k) {
      expect_reports_identical(b.steps[k].pressure, a.steps[k].pressure, what);
      for (int d = 0; d < fem::kDim; ++d) {
        expect_reports_identical(b.steps[k].momentum[d],
                                 a.steps[k].momentum[d], what);
      }
    }
    expect_counters_identical(b.total, a.total, what);
    ASSERT_EQ(a.phase.size(), b.phase.size()) << what;
    for (std::size_t p = 0; p < a.phase.size(); ++p) {
      expect_counters_identical(b.phase[p], a.phase[p],
                                what + " phase " + std::to_string(p));
    }
    const std::string file = "/point_" + std::to_string(i) + ".ckpt";
    EXPECT_EQ(miniapp::load_checkpoint(dir4 + file).unknowns,
              miniapp::load_checkpoint(dir1 + file).unknowns)
        << what;  // bitwise final fields
  }
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir4);
}

// ---------------------------------------------------------------------------
// HaloExchange unit semantics
// ---------------------------------------------------------------------------

TEST(HaloExchange, CopiesValuesAndPricesTheDocumentedSides) {
  // Two shards; shard 1's three ghost slots read owned entries {0, 1, 8}
  // of shard 0.  At 64-byte lines (8 doubles) those indices touch 2 lines
  // on the send side; the 3 contiguous ghost slots start at local index 4
  // and land in 1 line on the receive side.
  std::vector<std::vector<sim::HaloBlock>> plan(2);
  plan[1].push_back(sim::HaloBlock{.src_shard = 0,
                                   .dst_begin = 4,
                                   .src_local = {0, 1, 8}});
  const sim::HaloExchange halo(std::move(plan), 64);

  const std::int32_t idx[] = {0, 1, 8};
  EXPECT_EQ(halo.lines_of(idx), 2u);

  const sim::MachineConfig machine = platforms::riscv_vec();
  sim::Vpu v0(machine), v1(machine);
  std::vector<double> loc0 = {10.0, 11.0, 12.0, 13.0, 14.0,
                              15.0, 16.0, 17.0, 18.0};
  std::vector<double> loc1 = {0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0};
  sim::Vpu* vpus[] = {&v0, &v1};
  double* locals[] = {loc0.data(), loc1.data()};
  halo.exchange(vpus, locals);

  EXPECT_EQ(loc1[4], 10.0);
  EXPECT_EQ(loc1[5], 11.0);
  EXPECT_EQ(loc1[6], 18.0);
  EXPECT_EQ(loc1[0], 0.0);  // owned prefix untouched

  EXPECT_EQ(v0.counters().halo_lines_sent, 2u);   // owner pays the reads
  EXPECT_EQ(v0.counters().halo_lines_recv, 0u);
  EXPECT_EQ(v0.counters().halo_messages, 0u);
  EXPECT_EQ(v1.counters().halo_lines_sent, 0u);
  EXPECT_EQ(v1.counters().halo_lines_recv, 1u);   // receiver pays the write
  EXPECT_EQ(v1.counters().halo_messages, 1u);     // one (recv, owner) pair
}

// ---------------------------------------------------------------------------
// Advisor integration
// ---------------------------------------------------------------------------

TEST(ShardAdvisor, RecommendFormatScalesWithLocalRows) {
  const sim::MachineConfig vec = platforms::riscv_vec();
  ASSERT_GE(vec.vlmax, 64);
  // Plenty of local rows: the unsharded recommendation (SELL) stands.
  EXPECT_EQ(core::recommend_format(vec, 100 * vec.vlmax),
            core::recommend_format(vec));
  EXPECT_EQ(core::recommend_format(vec, 4 * vec.vlmax),
            solver::SpmvFormat::kSell);
  // Below ~4·vlmax rows per shard the slices cannot fill: ELL wins.
  EXPECT_EQ(core::recommend_format(vec, 4 * vec.vlmax - 1),
            solver::SpmvFormat::kEll);
  // Scalar machines stream the host CSR regardless of sharding.
  EXPECT_EQ(core::recommend_format(platforms::riscv_vec_scalar(), 10),
            solver::SpmvFormat::kCsrHost);
}

TEST(ShardAdvisor, FlagsHaloBoundPhase) {
  core::Measurement m;
  m.machine = platforms::riscv_vec();
  m.total_cycles = 100.0;
  const int p = miniapp::kPressurePhase;
  sim::Counters& pc = m.phase[static_cast<std::size_t>(p)];
  pc.vector_cycles = 50.0;  // 50% share: well above the 2% floor
  pc.gather_lines_touched = 1000;
  pc.halo_lines_sent = 150;
  pc.halo_lines_recv = 151;  // ratio 0.301 > 0.2
  // Healthy vectorization so the halo check is reached.
  m.phase_metrics[static_cast<std::size_t>(p)].mv = 0.5;
  m.phase_metrics[static_cast<std::size_t>(p)].avl =
      static_cast<double>(m.machine.vlmax);

  const auto findings = core::advise(m);
  const core::Finding* f = nullptr;
  for (const auto& cand : findings) {
    if (cand.kind == core::FindingKind::kHaloBound) f = &cand;
  }
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->phase, p);
  EXPECT_GT(f->severity, 0.1);
  EXPECT_NE(f->message.find("--shards"), std::string::npos);

  // Under the 20% threshold the finding disappears.
  pc.halo_lines_sent = 50;
  pc.halo_lines_recv = 50;
  for (const auto& cand : core::advise(m)) {
    EXPECT_NE(cand.kind, core::FindingKind::kHaloBound);
  }
}

}  // namespace
