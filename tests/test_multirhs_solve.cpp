// The multi-RHS block solve contract (solver/vkernels.h, DESIGN.md §5):
// per-column results of the blocked kernels and of vbicgstab_multi are
// bit-for-bit those of the single-RHS path (k = 1), the shared
// operator slabs make the blocked SpMV issue fewer unit loads for the same
// gathers, converged/broken-down columns freeze exactly where a standalone
// solve would leave them, and the transient TimeLoop produces identical
// fields under blocked_momentum = true / false on every scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "scenario_support.h"
#include "solver/krylov.h"
#include "solver/sell.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;
using testsupport::small_scenarios;
using solver::CsrMatrix;
using solver::EllMatrix;
using solver::SolveOptions;
using solver::SolveReport;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

CsrMatrix random_system(int n, int extra, bool spd, std::mt19937& rng) {
  std::uniform_int_distribution<int> col(0, n - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  std::vector<std::vector<std::pair<int, double>>> entries(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    for (int k = 0; k < extra; ++k) {
      const int c = col(rng);
      if (c == r) continue;
      const double v = val(rng);
      entries[static_cast<std::size_t>(r)].push_back({c, v});
      adj[static_cast<std::size_t>(r)].push_back(c);
      if (spd) {
        entries[static_cast<std::size_t>(c)].push_back({r, v});
        adj[static_cast<std::size_t>(c)].push_back(r);
      }
    }
  }
  CsrMatrix a(adj);
  std::vector<double> rowsum(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    for (const auto& [c, v] : entries[static_cast<std::size_t>(r)]) {
      a.add(r, c, v);
      rowsum[static_cast<std::size_t>(r)] += std::abs(v);
    }
  }
  for (int r = 0; r < n; ++r) {
    a.add(r, r, rowsum[static_cast<std::size_t>(r)] + 0.5 + 0.1 * (r % 7));
  }
  return a;
}

std::vector<double> random_block(int n, int k, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n) *
                        static_cast<std::size_t>(k));
  for (double& x : v) x = u(rng);
  return v;
}

std::vector<double> column(const std::vector<double>& blk, int n, int d) {
  const auto off = static_cast<std::ptrdiff_t>(d) * n;
  return {blk.begin() + off, blk.begin() + off + n};
}

TEST(MultiRhsKernels, SpmvMatchesSinglePerColumnAndSharesSlabs) {
  const int n = 97;  // odd: remainder strips
  const int k = 3;
  std::mt19937 rng(7);
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  const EllMatrix ell(a);
  const std::vector<double> X = random_block(n, k, 11);
  std::vector<double> Y(static_cast<std::size_t>(n) * k, 0.0);

  sim::Vpu vpu_multi(platforms::riscv_vec());
  solver::vspmv_multi(vpu_multi, ell, X, Y, k, 64);

  sim::Vpu vpu_single(platforms::riscv_vec());
  std::vector<double> y(static_cast<std::size_t>(n));
  for (int d = 0; d < k; ++d) {
    const std::vector<double> xd = column(X, n, d);
    solver::vspmv(vpu_single, ell, xd, y, 64);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(Y[static_cast<std::size_t>(d) * n + i], y[i])
          << "col " << d << " row " << i;  // bit-for-bit
    }
  }
  // same gather streams, k× fewer value/index slab loads (plus k stores)
  EXPECT_EQ(vpu_multi.counters().vmem_indexed_instrs,
            vpu_single.counters().vmem_indexed_instrs);
  const auto strips = static_cast<std::uint64_t>((n + 63) / 64);
  const auto width = static_cast<std::uint64_t>(ell.width());
  EXPECT_EQ(vpu_multi.counters().vmem_unit_instrs,
            2 * width * strips + k * strips);  // shared slabs + k stores
  EXPECT_EQ(vpu_single.counters().vmem_unit_instrs,
            k * (2 * width * strips + strips));
}

TEST(MultiRhsKernels, Blas1MatchesSinglePerColumn) {
  const int n = 83;
  const int k = 3;
  const std::vector<double> A = random_block(n, k, 1);
  const std::vector<double> B = random_block(n, k, 2);
  const std::vector<double> dinv = random_block(n, 1, 3);
  const std::vector<double> alpha{0.75, -0.5, 1.25};

  for (const auto& m :
       {platforms::riscv_vec(), platforms::riscv_vec_scalar()}) {
    SCOPED_TRACE(m.name);
    sim::Vpu vpu(m);
    std::vector<double> dots(k, 0.0);
    solver::vdot_multi(vpu, A, B, k, dots, 32);
    std::vector<double> Y = B;
    solver::vaxpy_multi(vpu, alpha, A, Y, k, 32);
    std::vector<double> D(A.size());
    solver::vsub_multi(vpu, A, B, D, k, 32);
    std::vector<double> C(A.size(), 0.0);
    solver::vcopy_multi(vpu, A, C, k, 32);
    std::vector<double> J(A.size(), 0.0);
    solver::vjacobi_apply_multi(vpu, dinv, A, J, k, 32);
    std::vector<double> Jc(A.size(), 0.0);
    solver::vjacobi_apply_multi(vpu, {}, A, Jc, k, 32);  // no diagonal: copy

    // one set of column buffers for the whole measurement: a buffer
    // freed and re-allocated under `ref` would re-alias measured lines
    const auto un = static_cast<std::size_t>(n);
    std::vector<double> ad(un), bd(un), yd(un), jd(un);
    sim::Vpu ref(m);
    for (int d = 0; d < k; ++d) {
      const auto off = static_cast<std::ptrdiff_t>(d) * n;
      std::copy_n(A.begin() + off, n, ad.begin());
      std::copy_n(B.begin() + off, n, bd.begin());
      EXPECT_EQ(dots[static_cast<std::size_t>(d)],
                solver::vdot(ref, ad, bd, 32))
          << d;
      yd = bd;
      solver::vaxpy(ref, alpha[static_cast<std::size_t>(d)], ad, yd, 32);
      solver::vjacobi_apply(ref, dinv, ad, jd, 32);
      for (int i = 0; i < n; ++i) {
        const std::size_t at = static_cast<std::size_t>(d) * n + i;
        EXPECT_EQ(Y[at], yd[i]) << d;
        EXPECT_EQ(D[at], ad[i] - bd[i]) << d;
        EXPECT_EQ(C[at], ad[i]) << d;
        EXPECT_EQ(J[at], jd[i]) << d;
        EXPECT_EQ(J[at], dinv[i] * ad[i]) << d;
        EXPECT_EQ(Jc[at], ad[i]) << d;
      }
    }
  }
}

TEST(MultiRhsKernels, InactiveColumnsAreNeverTouched) {
  const int n = 40;
  const int k = 3;
  std::mt19937 rng(5);
  const CsrMatrix a = random_system(n, 3, /*spd=*/true, rng);
  const EllMatrix ell(a);
  const std::vector<double> X = random_block(n, k, 21);
  const double sentinel = -777.25;
  std::vector<double> Y(static_cast<std::size_t>(n) * k, sentinel);
  const std::vector<char> active{1, 0, 1};

  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv_multi(vpu, ell, X, Y, k, 16, active);
  std::vector<double> dots(k, sentinel);
  solver::vdot_multi(vpu, X, X, k, dots, 16, active);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(Y[static_cast<std::size_t>(n) + i], sentinel) << i;
  }
  EXPECT_EQ(dots[1], sentinel);
  EXPECT_NE(dots[0], sentinel);
}

TEST(MultiRhsKernels, DimensionMismatchesThrow) {
  sim::Vpu vpu(platforms::riscv_vec());
  std::mt19937 rng(3);
  const CsrMatrix a = random_system(10, 2, true, rng);
  const EllMatrix ell(a);
  std::vector<double> good(30, 0.0), bad(29, 0.0), out(3, 0.0);
  EXPECT_THROW(solver::vspmv_multi(vpu, ell, bad, bad, 3),
               std::invalid_argument);
  EXPECT_THROW(solver::vspmv_multi(vpu, ell, good, good, 0),
               std::invalid_argument);
  EXPECT_THROW(solver::vdot_multi(vpu, good, bad, 3, out),
               std::invalid_argument);
  std::vector<char> short_mask{1, 0};
  EXPECT_THROW(solver::vcopy_multi(vpu, good, good, 3, 8, short_mask),
               std::invalid_argument);
  std::vector<double> xblk(30, 0.0);
  EXPECT_THROW(solver::vbicgstab_multi(vpu, a, bad, xblk, 3),
               std::invalid_argument);
  const std::vector<double> alpha2{1.0, 2.0};  // k = 3 wants three
  EXPECT_THROW(solver::vaxpy_multi(vpu, alpha2, good, good, 3),
               std::invalid_argument);
  std::vector<double> dinv9(9, 1.0);  // column length is 10
  EXPECT_THROW(solver::vjacobi_apply_multi(vpu, dinv9, good, good, 3),
               std::invalid_argument);
  EXPECT_THROW(solver::vsub_multi(vpu, good, bad, good, 3),
               std::invalid_argument);

  // the single-RHS kernels are the k = 1 calls and check the same way
  std::vector<double> v10(10, 0.0), v9(9, 0.0);
  EXPECT_THROW(solver::vsub(vpu, v10, v9, v10), std::invalid_argument);
  EXPECT_THROW(solver::vjacobi_apply(vpu, v9, v10, v10),
               std::invalid_argument);
  EXPECT_THROW(solver::vjacobi_apply(vpu, v10, v10, v9),
               std::invalid_argument);
  const solver::SellMatrix sell(a, 4);
  EXPECT_THROW(solver::vspmv(vpu, sell, v9, v10), std::invalid_argument);
  EXPECT_THROW(solver::vspmv(vpu, sell, v10, v9), std::invalid_argument);
  // a rectangular row-range mirror: rows [2, 6) over 10 columns, so x
  // must have 10 entries and y 4
  EllMatrix part;
  part.assign(a, 2, 4, 10, [](int c) { return c; });
  std::vector<double> y4(4, 0.0);
  EXPECT_NO_THROW(solver::vspmv(vpu, part, v10, y4));
  EXPECT_THROW(solver::vspmv(vpu, part, y4, y4), std::invalid_argument);
  EXPECT_THROW(solver::vspmv(vpu, part, v10, v10), std::invalid_argument);
}

TEST(MultiRhsSolvers, VpuMultiMatchesVpuSinglePerColumnOnAllPlatforms) {
  std::mt19937 rng(41);
  const int n = 53;
  const int k = 3;
  const CsrMatrix a = random_system(n, 4, /*spd=*/false, rng);
  const std::vector<double> B = random_block(n, k, 17);
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-11, .precond = {}};

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> X(B.size(), 0.0);
    const auto reps = solver::vbicgstab_multi(vpu, a, B, X, k, opts, 48);
    for (int d = 0; d < k; ++d) {
      sim::Vpu ref_vpu(m);
      const std::vector<double> bd = column(B, n, d);
      std::vector<double> xd(static_cast<std::size_t>(n), 0.0);
      const SolveReport ref = solver::vbicgstab(ref_vpu, a, bd, xd, opts, 48);
      const SolveReport& got = reps[static_cast<std::size_t>(d)];
      const std::string what =
          std::string("col ") + std::to_string(d) + " on " + m.name;
      EXPECT_EQ(got.converged, ref.converged) << what;
      EXPECT_EQ(got.iterations, ref.iterations) << what;
      EXPECT_EQ(got.history, ref.history) << what;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(X[static_cast<std::size_t>(d) * n + i], xd[i]) << what;
      }
    }
  }
}

TEST(MultiRhsSolvers, PerColumnBreakdownLifecycleMatchesStandalone) {
  // diag(1, -1), no preconditioner: b = (1, 1) hits the r₀·v = 0 breakdown
  // immediately, b = (1, 0) decouples and converges — in one block the two
  // columns must retire independently with exactly their standalone
  // reports, and the broken column's iterate must stay frozen.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  const SolveOptions opts{.max_iterations = 50,
                          .rel_tolerance = 1e-10,
                          .jacobi_precondition = false, .precond = {}};
  const std::vector<double> B{1.0, 1.0, 1.0, 0.0};  // cols (1,1) and (1,0)

  for (const auto& m : kMachines) {
    sim::Vpu vpu(m);
    std::vector<double> X(4, 0.0);
    const auto reps = solver::vbicgstab_multi(vpu, a, B, X, 2, opts, 2);
    for (int d = 0; d < 2; ++d) {
      sim::Vpu ref_vpu(m);
      const std::vector<double> bd{B[static_cast<std::size_t>(d) * 2],
                                   B[static_cast<std::size_t>(d) * 2 + 1]};
      std::vector<double> xd(2, 0.0);
      const SolveReport ref = solver::vbicgstab(ref_vpu, a, bd, xd, opts, 2);
      const std::string what =
          std::string("col ") + std::to_string(d) + " on " + m.name;
      EXPECT_EQ(reps[static_cast<std::size_t>(d)].converged, ref.converged)
          << what;
      EXPECT_EQ(reps[static_cast<std::size_t>(d)].iterations, ref.iterations)
          << what;
      EXPECT_DOUBLE_EQ(reps[static_cast<std::size_t>(d)].residual,
                       ref.residual)
          << what;
      EXPECT_EQ(X[static_cast<std::size_t>(d) * 2], xd[0]) << what;
      EXPECT_EQ(X[static_cast<std::size_t>(d) * 2 + 1], xd[1]) << what;
    }
    EXPECT_FALSE(reps[0].converged) << m.name;  // the breakdown column
    EXPECT_TRUE(reps[1].converged) << m.name;   // the decoupled column
  }
}

TEST(MultiRhsSolvers, ZeroColumnsRetireWithoutWork) {
  std::mt19937 rng(8);
  const int n = 24;
  const CsrMatrix a = random_system(n, 2, /*spd=*/false, rng);
  std::vector<double> B(static_cast<std::size_t>(n) * 2, 0.0);
  std::mt19937 rng2(9);
  for (int i = 0; i < n; ++i) {  // column 1 nonzero, column 0 all-zero
    B[static_cast<std::size_t>(n) + i] =
        std::uniform_real_distribution<double>(-1.0, 1.0)(rng2);
  }
  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> X(B.size(), 3.0);
  const auto reps = solver::vbicgstab_multi(vpu, a, B, X, 2, {}, 16);
  EXPECT_TRUE(reps[0].converged);
  EXPECT_EQ(reps[0].iterations, 0);
  ASSERT_EQ(reps[0].history.size(), 1u);
  for (int i = 0; i < n; ++i) EXPECT_EQ(X[i], 0.0) << i;
  EXPECT_TRUE(reps[1].converged);
  EXPECT_GT(reps[1].iterations, 0);
}

TEST(MultiRhsTimeLoop, BlockedMomentumMatchesPerComponentOnAllScenarios) {
  // The acceptance bar: blocked vs per-component fields agree to <= 1e-9
  // per component on every scenario (they are in fact bit-identical — the
  // per-column recurrences are the same FP sequences), with identical
  // Krylov iteration counts and convergence flags.
  for (const miniapp::Scenario& s : small_scenarios()) {
    const fem::Mesh mesh(s.mesh);
    miniapp::TimeLoopConfig cfg;
    cfg.steps = 2;
    cfg.vector_size = 32;

    cfg.blocked_momentum = true;
    miniapp::TimeLoop blocked(mesh, s, cfg);
    sim::Vpu vpu_b(platforms::riscv_vec());
    const auto res_b = blocked.run(vpu_b);

    cfg.blocked_momentum = false;
    miniapp::TimeLoop percomp(mesh, s, cfg);
    sim::Vpu vpu_p(platforms::riscv_vec());
    const auto res_p = percomp.run(vpu_p);

    ASSERT_TRUE(res_b.all_converged) << s.name;
    ASSERT_TRUE(res_p.all_converged) << s.name;
    ASSERT_EQ(res_b.steps.size(), res_p.steps.size()) << s.name;
    for (std::size_t st = 0; st < res_b.steps.size(); ++st) {
      for (int d = 0; d < fem::kDim; ++d) {
        EXPECT_EQ(res_b.steps[st].momentum[static_cast<std::size_t>(d)]
                      .iterations,
                  res_p.steps[st].momentum[static_cast<std::size_t>(d)]
                      .iterations)
            << s.name << " step " << st << " comp " << d;
      }
      EXPECT_EQ(res_b.steps[st].pressure.iterations,
                res_p.steps[st].pressure.iterations)
          << s.name << " step " << st;
      EXPECT_DOUBLE_EQ(res_b.steps[st].div_after, res_p.steps[st].div_after)
          << s.name << " step " << st;
    }
    for (int n = 0; n < mesh.num_nodes(); ++n) {
      for (int d = 0; d < fem::kDim; ++d) {
        EXPECT_NEAR(blocked.state().velocity(n, d),
                    percomp.state().velocity(n, d), 1e-9)
            << s.name << " node " << n << " comp " << d;
      }
    }
  }
}

TEST(MultiRhsTimeLoop, BlockedSolveReducesSolvePhaseUnitLoads) {
  // The traffic claim at time-loop granularity: identical gathers, fewer
  // unit loads (the shared ELL slabs), same iteration counts.
  miniapp::Scenario s = miniapp::scenario_cavity();
  s.mesh = {.nx = 4, .ny = 4, .nz = 4, .distortion = 0.05};
  const fem::Mesh mesh(s.mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = 1;
  cfg.vector_size = 64;

  cfg.blocked_momentum = true;
  miniapp::TimeLoop blocked(mesh, s, cfg);
  sim::Vpu vpu_b(platforms::riscv_vec());
  const auto res_b = blocked.run(vpu_b);

  cfg.blocked_momentum = false;
  miniapp::TimeLoop percomp(mesh, s, cfg);
  sim::Vpu vpu_p(platforms::riscv_vec());
  const auto res_p = percomp.run(vpu_p);

  const auto& p9_b = res_b.phase[miniapp::kSolvePhase];
  const auto& p9_p = res_p.phase[miniapp::kSolvePhase];
  EXPECT_EQ(p9_b.vmem_indexed_instrs, p9_p.vmem_indexed_instrs);
  EXPECT_LT(p9_b.vmem_unit_instrs, p9_p.vmem_unit_instrs);
  EXPECT_LT(p9_b.total_cycles(), p9_p.total_cycles());
}

}  // namespace
