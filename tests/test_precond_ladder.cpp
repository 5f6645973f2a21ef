// Property tests for the phase-10 preconditioner ladder (DESIGN.md §8):
//
//   * every rung's M⁻¹ is symmetric positive definite on the pinned
//     pressure Laplacian (the property that keeps plain CG valid);
//   * rungs order monotonically on refined cavity meshes — deflate ≤
//     cheby ≤ jacobi pressure iterations, with the two-level rung's count
//     levelling off where Jacobi's grows;
//   * the SolveReport residual/history contract of krylov.h holds per
//     rung on EVERY exit path — convergence, budget exhaustion, zero RHS,
//     breakdown, and the failure exit a zero operator diagonal takes;
//   * a zero diagonal surfaces as SolveReport::failure from every solver
//     (host and Vpu, single and multi RHS) instead of escaping as an
//     exception out of the time loop (the regression this suite pins);
//   * per-rung counter conservation: Σ phase counters == run totals and
//     host-side setup charges nothing (phase 0 stays empty), i.e. the
//     instrumented preconditioner setup/apply work lands in phase 10;
//   * structured_aggregates is dense, non-empty, bounded and
//     numbering-robust, and malformed aggregates are rejected loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/campaign.h"
#include "core/csv.h"
#include "fem/mesh.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "solver/krylov.h"
#include "solver/preconditioner.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;
using solver::CsrMatrix;
using solver::PrecondKind;
using solver::SolveOptions;
using solver::SolveReport;

constexpr PrecondKind kRungs[] = {PrecondKind::kJacobi, PrecondKind::kCheby,
                                  PrecondKind::kDeflate};

// vector path + scalar fallback; the middle machines add nothing the
// format-equivalence suite doesn't already cover
const sim::MachineConfig kMachines[] = {platforms::riscv_vec(),
                                        platforms::riscv_vec_scalar()};

/// Pinned cavity pressure Laplacian of an n³ mesh (the phase-10 operator).
CsrMatrix pinned_laplacian(const fem::Mesh& mesh) {
  const fem::ShapeTable shape;
  CsrMatrix a = fem::assemble_pressure_laplacian(mesh, shape);
  const int pin[] = {0};
  fem::pin_dirichlet(a, pin);
  return a;
}

SolveOptions rung_options(PrecondKind kind, const fem::Mesh& mesh) {
  SolveOptions opts{.max_iterations = 600, .rel_tolerance = 1e-10,
                    .precond = {}};
  opts.precond.kind = kind;
  if (kind == PrecondKind::kDeflate) {
    opts.precond.aggregates = fem::structured_aggregates(mesh, 2);
  }
  return opts;
}

double true_relative_residual(const CsrMatrix& a,
                              const std::vector<double>& b,
                              const std::vector<double>& x) {
  std::vector<double> ax(b.size());
  a.spmv(x, ax);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += (b[i] - ax[i]) * (b[i] - ax[i]);
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// The krylov.h residual contract (see test_property_solvers).
void expect_contract(const SolveReport& rep, const CsrMatrix& a,
                     const std::vector<double>& b,
                     const std::vector<double>& x, const SolveOptions& opts,
                     const std::string& what) {
  const double truth = true_relative_residual(a, b, x);
  EXPECT_NEAR(rep.residual, truth, 1e-8 * (1.0 + truth)) << what;
  if (rep.converged) {
    EXPECT_LT(rep.residual, opts.rel_tolerance) << what;
  }
  ASSERT_EQ(rep.history.size(),
            static_cast<std::size_t>(rep.iterations) + 1u)
      << what;
  EXPECT_DOUBLE_EQ(rep.history.back(), rep.residual) << what;
}

/// Deterministic pseudo-random vector (no RNG state shared across tests).
std::vector<double> hashed_vector(int n, unsigned seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const unsigned h = (static_cast<unsigned>(i) + seed) * 2654435761u;
    v[static_cast<std::size_t>(i)] =
        static_cast<double>(h & 0xffffu) / 32768.0 - 1.0;
  }
  return v;
}

/// Small SPD-patterned system whose row `zero_row` keeps its implicit 0.0
/// diagonal — the operator jacobi_inverse_diagonal_into must reject.
CsrMatrix zero_diagonal_system(int n, int zero_row) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int r = 0; r + 1 < n; ++r) {
    adj[static_cast<std::size_t>(r)].push_back(r + 1);
    adj[static_cast<std::size_t>(r + 1)].push_back(r);
  }
  CsrMatrix a(adj);
  for (int r = 0; r < n; ++r) {
    if (r != zero_row) a.add(r, r, 2.0);
    if (r + 1 < n) {
      a.add(r, r + 1, -0.5);
      a.add(r + 1, r, -0.5);
    }
  }
  return a;
}

TEST(PrecondLadder, EveryRungIsSymmetricPositiveDefinite) {
  const fem::Mesh mesh(fem::MeshConfig{.nx = 5, .ny = 5, .nz = 5});
  const CsrMatrix a = pinned_laplacian(mesh);
  const int n = a.rows();
  for (const auto kind : kRungs) {
    const SolveOptions opts = rung_options(kind, mesh);
    sim::Vpu vpu(platforms::riscv_vec());
    solver::OperatorMirror op;
    op.assign(a, solver::SpmvFormat::kEll,
              solver::solve_effective_strip(64, vpu.config()));
    solver::Preconditioner pc;
    pc.setup(vpu, a, op, opts, 64);
    std::vector<double> mu(static_cast<std::size_t>(n));
    std::vector<double> mv(static_cast<std::size_t>(n));
    for (unsigned trial = 0; trial < 6; ++trial) {
      const auto u = hashed_vector(n, 2 * trial + 1);
      const auto v = hashed_vector(n, 2 * trial + 2);
      pc.apply(vpu, u, mu, 64);
      pc.apply(vpu, v, mv, 64);
      double umv = 0.0;
      double vmu = 0.0;
      double umu = 0.0;
      double uu = 0.0;
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        umv += u[ui] * mv[ui];
        vmu += v[ui] * mu[ui];
        umu += u[ui] * mu[ui];
        uu += u[ui] * u[ui];
      }
      const std::string what = std::string("rung ") + to_string(kind) +
                               " trial " + std::to_string(trial);
      // symmetry: <u, M⁻¹v> == <M⁻¹u, v> up to float evaluation order
      EXPECT_NEAR(umv, vmu, 1e-9 * (1.0 + std::abs(umv))) << what;
      // definiteness: <u, M⁻¹u> > 0 for u != 0
      EXPECT_GT(umu, 0.0) << what;
      EXPECT_GT(uu, 0.0) << what;
    }
  }
}

TEST(PrecondLadder, RungsOrderMonotonicallyUnderRefinement) {
  // deflate <= cheby <= jacobi at every refinement, and the two-level
  // rung's count must level off where Jacobi's grows (the κ-capping
  // property bench/precond_ladder quantifies on the finest mesh).
  int prev_jacobi = 0;
  int prev_deflate = 0;
  for (const int nref : {6, 8}) {
    const fem::Mesh mesh(
        fem::MeshConfig{.nx = nref, .ny = nref, .nz = nref});
    const CsrMatrix a = pinned_laplacian(mesh);
    const int n = a.rows();
    std::vector<double> b(static_cast<std::size_t>(n), 1.0);
    b[0] = 0.0;  // pinned row
    int iters[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
      const SolveOptions opts = rung_options(kRungs[k], mesh);
      sim::Vpu vpu(platforms::riscv_vec());
      std::vector<double> x(static_cast<std::size_t>(n), 0.0);
      const auto rep = solver::vcg(vpu, a, b, x, opts, 240);
      ASSERT_TRUE(rep.converged)
          << to_string(kRungs[k]) << " at " << nref << "^3";
      expect_contract(rep, a, b, x, opts,
                      std::string(to_string(kRungs[k])) + " converged");
      iters[k] = rep.iterations;
    }
    EXPECT_LE(iters[2], iters[1]) << nref << "^3: deflate vs cheby";
    EXPECT_LE(iters[1], iters[0]) << nref << "^3: cheby vs jacobi";
    if (prev_jacobi > 0) {
      // refinement growth: Jacobi must grow strictly faster than the
      // two-level rung (which stays within a couple of iterations)
      EXPECT_LT(iters[2] - prev_deflate, iters[0] - prev_jacobi)
          << "deflation must level off where Jacobi grows";
    }
    prev_jacobi = iters[0];
    prev_deflate = iters[2];
  }
}

TEST(PrecondLadder, ContractHoldsOnEveryExitPathPerRung) {
  const fem::Mesh mesh(fem::MeshConfig{.nx = 5, .ny = 5, .nz = 5});
  const CsrMatrix a = pinned_laplacian(mesh);
  const int n = a.rows();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  b[0] = 0.0;
  for (const auto kind : kRungs) {
    for (const auto& m : kMachines) {
      const std::string tag =
          std::string(to_string(kind)) + " on " + m.name;
      // convergence exit
      {
        SolveOptions opts = rung_options(kind, mesh);
        sim::Vpu vpu(m);
        std::vector<double> x(static_cast<std::size_t>(n), 0.0);
        const auto rep = solver::vcg(vpu, a, b, x, opts, 64);
        EXPECT_TRUE(rep.converged) << tag;
        EXPECT_TRUE(rep.failure.empty()) << tag;
        expect_contract(rep, a, b, x, opts, tag + " convergence");
      }
      // budget exit
      {
        SolveOptions opts = rung_options(kind, mesh);
        opts.max_iterations = 2;
        opts.rel_tolerance = 1e-30;
        sim::Vpu vpu(m);
        std::vector<double> x(static_cast<std::size_t>(n), 0.0);
        const auto rep = solver::vcg(vpu, a, b, x, opts, 64);
        EXPECT_FALSE(rep.converged) << tag;
        EXPECT_EQ(rep.iterations, 2) << tag;
        expect_contract(rep, a, b, x, opts, tag + " budget");
      }
      // zero-RHS exit
      {
        SolveOptions opts = rung_options(kind, mesh);
        sim::Vpu vpu(m);
        const std::vector<double> zero(static_cast<std::size_t>(n), 0.0);
        std::vector<double> x = hashed_vector(n, 7);
        const auto rep = solver::vcg(vpu, a, zero, x, opts, 64);
        EXPECT_TRUE(rep.converged) << tag;
        EXPECT_EQ(rep.iterations, 0) << tag;
        expect_contract(rep, a, zero, x, opts, tag + " zero RHS");
        for (const double xi : x) EXPECT_EQ(xi, 0.0);
      }
    }
  }
  // breakdown exit: indefinite diag(1, −1) makes pᵀAp vanish.  The
  // deflation rung is excluded — a Galerkin coarse operator of an
  // indefinite matrix is not a meaningful configuration.
  for (const auto kind : {PrecondKind::kJacobi, PrecondKind::kCheby}) {
    CsrMatrix ind(std::vector<std::vector<int>>(2));
    ind.add(0, 0, 1.0);
    ind.add(1, 1, -1.0);
    SolveOptions opts{.max_iterations = 50, .rel_tolerance = 1e-12,
                      .precond = {}};
    opts.precond.kind = kind;
    const std::vector<double> b2{1.0, 1.0};
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(2, 0.0);
    const auto rep = solver::vcg(vpu, ind, b2, x, opts, 8);
    EXPECT_FALSE(rep.converged) << to_string(kind);
    expect_contract(rep, ind, b2, x, opts,
                    std::string(to_string(kind)) + " breakdown");
  }
}

TEST(PrecondLadder, ZeroDiagonalSurfacesAsFailureNotAsAnException) {
  // Regression: jacobi_inverse_diagonal_into throws std::runtime_error on
  // a zero diagonal, and no solver caught it — a degenerate operator blew
  // the whole time loop up.  Every solver now converts it into the
  // SolveReport::failure exit (krylov.h): failure set, zero iterations,
  // history == {rel0}, x untouched.
  const CsrMatrix a = zero_diagonal_system(24, 7);
  const std::vector<double> b(24, 1.0);
  const SolveOptions opts{.max_iterations = 50, .rel_tolerance = 1e-10,
                          .precond = {}};

  auto expect_failure = [&](const SolveReport& rep,
                            const std::vector<double>& x,
                            const std::string& what) {
    EXPECT_FALSE(rep.failure.empty()) << what;
    EXPECT_FALSE(rep.converged) << what;
    EXPECT_EQ(rep.iterations, 0) << what;
    expect_contract(rep, a, b, x, opts, what);
    for (const double xi : x) EXPECT_EQ(xi, 0.5) << what;  // untouched
  };

  {
    std::vector<double> x(24, 0.5);
    expect_failure(cg(a, b, x, opts), x, "host cg");
  }
  {
    std::vector<double> x(24, 0.5);
    expect_failure(bicgstab(a, b, x, opts), x, "host bicgstab");
  }
  for (const auto& m : kMachines) {
    {
      sim::Vpu vpu(m);
      std::vector<double> x(24, 0.5);
      expect_failure(solver::vcg(vpu, a, b, x, opts, 8), x,
                     std::string("vcg on ") + m.name);
    }
    {
      sim::Vpu vpu(m);
      std::vector<double> x(24, 0.5);
      expect_failure(solver::vbicgstab(vpu, a, b, x, opts, 8), x,
                     std::string("vbicgstab on ") + m.name);
    }
    {
      // multi-RHS: every active column fails; a zero column keeps its
      // ordinary converged-at-zero exit
      sim::Vpu vpu(m);
      std::vector<double> B(48, 1.0);
      std::fill(B.begin() + 24, B.end(), 0.0);
      std::vector<double> X(48, 0.5);
      const auto reps = solver::vbicgstab_multi(vpu, a, B, X, 2, opts, 8);
      ASSERT_EQ(reps.size(), 2u);
      EXPECT_FALSE(reps[0].failure.empty()) << m.name;
      EXPECT_EQ(reps[0].iterations, 0) << m.name;
      EXPECT_TRUE(reps[1].failure.empty()) << m.name;
      EXPECT_TRUE(reps[1].converged) << m.name;
      for (int i = 0; i < 24; ++i) {
        EXPECT_EQ(X[static_cast<std::size_t>(i)], 0.5) << m.name;
        EXPECT_EQ(X[static_cast<std::size_t>(24 + i)], 0.0) << m.name;
      }
    }
  }

  // kCheby / kDeflate setups hit the same throw before any rung-specific
  // work; the vcg failure exit must cover them too
  for (const auto kind : {PrecondKind::kCheby, PrecondKind::kDeflate}) {
    SolveOptions ro{.max_iterations = 50, .rel_tolerance = 1e-10,
                    .precond = {}};
    ro.precond.kind = kind;
    ro.precond.aggregates.assign(24, 0);  // size matches the 24-row system
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(24, 0.5);
    const auto rep = solver::vcg(vpu, a, b, x, ro, 8);
    EXPECT_FALSE(rep.failure.empty()) << to_string(kind);
    EXPECT_EQ(rep.iterations, 0) << to_string(kind);
  }
}

TEST(PrecondLadder, CgFailureExitCostsExactlyOneResidualEvaluation) {
  // vcg's failure exit (a fault-plan injected breakdown, or a rung whose
  // setup throws on a zero diagonal) is the regular prologue cut short:
  // ‖b‖, then one residual evaluation — apply, vsub, vnorm2, sdiv — and
  // not a single instruction more.  Pinned counter by counter against the
  // same four kernels issued on a fresh Vpu.
  struct Case {
    const char* what;
    CsrMatrix a;
    bool inject;
  };
  const Case cases[] = {
      {"inject_breakdown", zero_diagonal_system(24, -1), true},
      {"zero diagonal", zero_diagonal_system(24, 7), false},
  };
  const std::vector<double> b = hashed_vector(24, 5);
  constexpr int kStrip = 8;
  for (const Case& c : cases) {
    for (const auto& m : kMachines) {
      const std::string what = std::string(c.what) + " on " + m.name;
      SolveOptions opts{.max_iterations = 50, .rel_tolerance = 1e-10,
                        .precond = {}};
      opts.inject_breakdown = c.inject;
      sim::Vpu vpu(m);
      std::vector<double> x(24, 0.5);
      const SolveReport rep = solver::vcg(vpu, c.a, b, x, opts, kStrip);
      EXPECT_FALSE(rep.failure.empty()) << what;

      sim::Vpu ref(m);
      solver::OperatorMirror op;
      op.assign(c.a, solver::SpmvFormat::kEll, kStrip);
      std::vector<double> r(24, 0.0);
      const double bnorm = solver::vnorm2(ref, b, kStrip);
      op.apply(ref, x, r, kStrip);
      solver::vsub(ref, b, r, r, kStrip);
      const double rel0 = ref.sdiv(solver::vnorm2(ref, r, kStrip), bnorm);
      EXPECT_EQ(rep.residual, rel0) << what;

      sim::Counters::visit_pairs(
          vpu.counters(), ref.counters(),
          [&](const sim::CounterInfo& info, const auto& got,
              const auto& want) {
            EXPECT_EQ(got, want) << what << ": " << info.name;
          });
    }
  }
}

TEST(PrecondLadder, FailureCountSurfacesInCampaignCsv) {
  // The campaign CSV grew `precond` and `solver_failures` columns; a
  // healthy run must report its rung and zero failures.
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = {.nx = 3, .ny = 3, .nz = 3};
  core::Campaign camp({scen});
  core::CampaignPoint p;
  p.machine = platforms::riscv_vec();
  p.vector_size = 16;
  p.steps = 1;
  p.precond = PrecondKind::kDeflate;
  const core::CampaignRun run = camp.run(p);
  EXPECT_EQ(run.solver_failures, 0);
  EXPECT_TRUE(run.all_converged);
  std::ostringstream os;
  core::write_campaign_csv(os, {&run, 1});
  const std::string csv = os.str();
  EXPECT_NE(csv.find(",precond,"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",solver_failures"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",deflate,"), std::string::npos) << csv;
}

TEST(PrecondLadder, CountersConservePerRung) {
  // Per-rung conservation: Σ phase == totals field by field, phase 0
  // ("outside") stays empty — i.e. all instrumented preconditioner work
  // (power iterations, transfers, extra SpMVs) lands in phase 10 and
  // host-side setup charges nothing.
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 4, .ny = 4, .nz = 4};
  const fem::Mesh mesh(s.mesh);
  for (const auto kind : kRungs) {
    for (const auto& m : kMachines) {
      miniapp::TimeLoopConfig cfg;
      cfg.steps = 2;
      cfg.vector_size = 32;
      cfg.precond = kind;
      miniapp::TimeLoop loop(mesh, s, cfg);
      sim::Vpu vpu(m);
      const auto res = loop.run(vpu);
      const std::string what =
          std::string(to_string(kind)) + " on " + m.name;
      EXPECT_TRUE(res.all_converged) << what;
      sim::Counters sum;
      for (const sim::Counters& c : res.phase) sum += c;
      sim::Counters::visit_pairs(
          sum, res.total,
          [&](const sim::CounterInfo& info, const auto& g, const auto& w) {
            if constexpr (std::is_floating_point_v<
                              std::decay_t<decltype(g)>>) {
              EXPECT_NEAR(g, w, 1e-9 * (1.0 + w)) << what << ": "
                                                  << info.name;
            } else {
              EXPECT_EQ(g, w) << what << ": " << info.name;
            }
          });
      EXPECT_EQ(res.phase[0].total_instrs(), 0u) << what;
      EXPECT_DOUBLE_EQ(res.phase[0].total_cycles(), 0.0) << what;
      double step_sum = 0.0;
      for (const miniapp::StepReport& st : res.steps) step_sum += st.cycles;
      EXPECT_NEAR(step_sum, res.cycles, 1e-9 * res.cycles) << what;
    }
  }
}

TEST(PrecondLadder, StructuredAggregatesAreDenseBoundedAndRobust) {
  for (const bool shuffle : {false, true}) {
    const fem::Mesh mesh(fem::MeshConfig{.nx = 5, .ny = 4, .nz = 3,
                                         .distortion = 0.3,
                                         .shuffle_nodes = shuffle});
    const int factor = 2;
    const auto agg = fem::structured_aggregates(mesh, factor);
    ASSERT_EQ(agg.size(), static_cast<std::size_t>(mesh.num_nodes()));
    const int bx = (5 + 1 + factor - 1) / factor;
    const int by = (4 + 1 + factor - 1) / factor;
    const int bz = (3 + 1 + factor - 1) / factor;
    const int nagg = bx * by * bz;
    std::vector<int> count(static_cast<std::size_t>(nagg), 0);
    for (const int c : agg) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, nagg);
      ++count[static_cast<std::size_t>(c)];
    }
    for (int c = 0; c < nagg; ++c) {
      EXPECT_GT(count[static_cast<std::size_t>(c)], 0) << "aggregate " << c;
      EXPECT_LE(count[static_cast<std::size_t>(c)], factor * factor * factor);
    }
    // numbering-robust: the aggregate is a function of the node's lattice
    // position alone, so nodes of one aggregate stay within one block
    // extent of each other per axis
    const double d[3] = {1.0 / 5, 1.0 / 4, 1.0 / 3};
    std::vector<std::array<double, 6>> box(
        static_cast<std::size_t>(nagg),
        {1e30, -1e30, 1e30, -1e30, 1e30, -1e30});
    for (int i = 0; i < mesh.num_nodes(); ++i) {
      const auto p = mesh.node(i);
      auto& bb = box[static_cast<std::size_t>(agg[
          static_cast<std::size_t>(i)])];
      for (int ax = 0; ax < 3; ++ax) {
        bb[2 * ax] = std::min(bb[2 * ax], p[ax]);
        bb[2 * ax + 1] = std::max(bb[2 * ax + 1], p[ax]);
      }
    }
    for (int c = 0; c < nagg; ++c) {
      const auto& bb = box[static_cast<std::size_t>(c)];
      for (int ax = 0; ax < 3; ++ax) {
        // factor−1 lattice spacings + 2 × the max distortion offset
        EXPECT_LE(bb[2 * ax + 1] - bb[2 * ax],
                  (factor - 1 + 2 * 0.3) * d[ax] + 1e-12)
            << "aggregate " << c << " axis " << ax;
      }
    }
  }
  const fem::Mesh mesh(fem::MeshConfig{.nx = 2, .ny = 2, .nz = 2});
  EXPECT_THROW(fem::structured_aggregates(mesh, 0), std::invalid_argument);
}

TEST(PrecondLadder, MalformedAggregatesAndWrongSolversRejectLoudly) {
  const fem::Mesh mesh(fem::MeshConfig{.nx = 3, .ny = 3, .nz = 3});
  const CsrMatrix a = pinned_laplacian(mesh);
  const int n = a.rows();
  const std::vector<double> b(static_cast<std::size_t>(n), 1.0);

  // wrong-size aggregate map
  {
    SolveOptions opts = rung_options(PrecondKind::kDeflate, mesh);
    opts.precond.aggregates.resize(static_cast<std::size_t>(n) - 1);
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    EXPECT_THROW((void)solver::vcg(vpu, a, b, x, opts, 16),
                 std::invalid_argument);
  }
  // empty aggregate (id 5 used, 4 skipped)
  {
    SolveOptions opts = rung_options(PrecondKind::kDeflate, mesh);
    opts.precond.aggregates.assign(static_cast<std::size_t>(n), 0);
    opts.precond.aggregates[1] = 5;
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    EXPECT_THROW((void)solver::vcg(vpu, a, b, x, opts, 16),
                 std::invalid_argument);
  }
  // negative aggregate id
  {
    SolveOptions opts = rung_options(PrecondKind::kDeflate, mesh);
    opts.precond.aggregates[0] = -1;
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    EXPECT_THROW((void)solver::vcg(vpu, a, b, x, opts, 16),
                 std::invalid_argument);
  }
  // non-Jacobi rungs are vcg-only: the nonsymmetric solvers and the host
  // cg reject them instead of silently solving unpreconditioned
  {
    SolveOptions opts = rung_options(PrecondKind::kCheby, mesh);
    std::vector<double> x(static_cast<std::size_t>(n), 0.0);
    EXPECT_THROW((void)cg(a, b, x, opts), std::invalid_argument);
    EXPECT_THROW((void)bicgstab(a, b, x, opts), std::invalid_argument);
    sim::Vpu vpu(platforms::riscv_vec());
    EXPECT_THROW((void)solver::vbicgstab(vpu, a, b, x, opts, 16),
                 std::invalid_argument);
    std::vector<double> X(static_cast<std::size_t>(2 * n), 0.0);
    std::vector<double> B(static_cast<std::size_t>(2 * n), 1.0);
    EXPECT_THROW((void)solver::vbicgstab_multi(vpu, a, B, X, 2, opts, 16),
                 std::invalid_argument);
  }
}

TEST(PrecondLadder, RcmComposedDeflationSolvesTheSameSystem) {
  // Under --rcm the solve runs in permuted order; the TimeLoop composes
  // the aggregates with the permutation.  Both runs must converge with
  // zero failures and produce fields agreeing to solver tolerance.
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 4, .ny = 4, .nz = 4, .shuffle_nodes = true};
  const fem::Mesh mesh(s.mesh);
  std::vector<double> plain;
  std::vector<double> rcm;
  int plain_iters = 0;
  int rcm_iters = 0;
  for (const bool renumber : {false, true}) {
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 2;
    cfg.vector_size = 32;
    cfg.precond = PrecondKind::kDeflate;
    cfg.rcm_renumber = renumber;
    miniapp::TimeLoop loop(mesh, s, cfg);
    sim::Vpu vpu(platforms::riscv_vec());
    const auto res = loop.run(vpu);
    EXPECT_TRUE(res.all_converged) << (renumber ? "rcm" : "plain");
    int iters = 0;
    for (const auto& st : res.steps) iters += st.pressure.iterations;
    auto unk = loop.state().unknowns();
    std::vector<double> fields(unk.begin(), unk.end());
    (renumber ? rcm : plain) = std::move(fields);
    (renumber ? rcm_iters : plain_iters) = iters;
  }
  ASSERT_EQ(plain.size(), rcm.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(plain[i], rcm[i], 1e-6 * (1.0 + std::abs(plain[i])))
        << "dof " << i;
  }
  // the permuted coarse space is the same space: iteration counts stay
  // within a few reassociation-driven iterations of each other
  EXPECT_NEAR(plain_iters, rcm_iters, 0.25 * plain_iters + 4.0);
}

}  // namespace
