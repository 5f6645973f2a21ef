// Tests for the experiment runner and report rendering.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/report.h"

namespace {

using vecfd::core::Experiment;
using vecfd::core::Measurement;
using vecfd::core::Table;
using vecfd::miniapp::MiniAppConfig;
using vecfd::miniapp::OptLevel;
using vecfd::platforms::riscv_vec;
using vecfd::platforms::riscv_vec_scalar;

struct Fixture {
  Fixture() : mesh({.nx = 4, .ny = 4, .nz = 2}), state(mesh) {}
  vecfd::fem::Mesh mesh;
  vecfd::fem::State state;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Experiment, PhaseSharesSumToOne) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.opt = OptLevel::kVanilla;
  const Measurement m = ex.run(riscv_vec(), cfg);
  double sum = 0.0;
  for (int p = 1; p <= 8; ++p) sum += m.phase_share(p);
  EXPECT_NEAR(sum, 1.0, 1e-9);  // nothing outside the 8 phases
  EXPECT_GT(m.total_cycles, 0.0);
}

TEST(Experiment, ScalarRunHasZeroVectorActivity) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.opt = OptLevel::kScalar;
  const Measurement m = ex.run(riscv_vec_scalar(), cfg);
  EXPECT_DOUBLE_EQ(m.overall.mv, 0.0);
  EXPECT_DOUBLE_EQ(m.overall.av, 0.0);
}

TEST(Experiment, VanillaVectorizesComputePhases) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 16;  // = 4x4x2/2 chunks of 16
  cfg.opt = OptLevel::kVanilla;
  const Measurement m = ex.run(riscv_vec(), cfg);
  // at vs=16 only the lean subkernels vectorize (Table 4), so the overall
  // mix is small but non-zero
  EXPECT_GT(m.overall.mv, 0.02);
  EXPECT_GT(m.phase_metrics[7].mv, 0.3);    // phase 7 vectorized at vs=16
  EXPECT_LT(m.phase_metrics[2].mv, 1e-9);   // phase 2 scalar
  EXPECT_LT(m.phase_metrics[8].mv, 1e-9);   // phase 8 scalar
}

TEST(Experiment, SweepVectorSizesPreservesOrder) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.opt = OptLevel::kVanilla;
  const int sizes[] = {8, 16, 32};
  const auto ms = ex.sweep_vector_sizes(riscv_vec(), cfg, sizes);
  ASSERT_EQ(ms.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ms[i].app.vector_size, sizes[i]);
  }
}

TEST(Experiment, SweepOptLevels) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 16;
  const OptLevel levels[] = {OptLevel::kVanilla, OptLevel::kVec1};
  const auto ms = ex.sweep_opt_levels(riscv_vec(), cfg, levels);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0].app.opt, OptLevel::kVanilla);
  EXPECT_EQ(ms[1].app.opt, OptLevel::kVec1);
  // VEC1 (cumulative: includes IVEC2) must not be slower overall
  EXPECT_LT(ms[1].total_cycles, ms[0].total_cycles);
}

TEST(Experiment, SolveRunRecordsPhase9) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 16;
  cfg.scheme = vecfd::fem::Scheme::kSemiImplicit;
  cfg.run_solve = true;
  const Measurement m = ex.run(riscv_vec(), cfg);

  ASSERT_TRUE(m.has_solve);
  EXPECT_TRUE(m.solve.converged) << "res=" << m.solve.residual;
  EXPECT_GT(m.solve.iterations, 0);
  // the solve is attributed to phase 9 with live vector counters
  const int p = vecfd::miniapp::kSolvePhase;
  EXPECT_GT(m.phase_cycles(p), 0.0);
  EXPECT_GT(m.phase[p].vector_instrs(), 0u);
  EXPECT_GT(m.phase[p].vmem_indexed_instrs, 0u);  // the vgather SpMV
  EXPECT_GT(m.phase_metrics[p].avl, 0.0);
  // phase shares (1..9) still account for every cycle
  double sum = 0.0;
  for (int q = 1; q <= vecfd::miniapp::kNumInstrumentedPhases; ++q) {
    sum += m.phase_share(q);
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Experiment, SolveWithoutMatrixThrows) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.run_solve = true;  // explicit scheme: nothing to solve
  EXPECT_THROW(ex.run(riscv_vec(), cfg), std::invalid_argument);
}

TEST(Experiment, SolveSweepIsDeterministicAcrossJobs) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.scheme = vecfd::fem::Scheme::kSemiImplicit;
  cfg.run_solve = true;
  const int sizes[] = {8, 16};
  const auto serial = ex.sweep_vector_sizes(riscv_vec(), cfg, sizes, 1);
  const auto parallel = ex.sweep_vector_sizes(riscv_vec(), cfg, sizes, 2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].total_cycles, parallel[i].total_cycles);
    EXPECT_EQ(serial[i].phase[9].vl_sum, parallel[i].phase[9].vl_sum);
    EXPECT_EQ(serial[i].solve.iterations, parallel[i].solve.iterations);
    EXPECT_EQ(serial[i].solve.residual, parallel[i].solve.residual);
  }
}

TEST(Experiment, RhsCarriedInMeasurement) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  cfg.vector_size = 8;
  const Measurement m = ex.run(riscv_vec(), cfg);
  EXPECT_EQ(m.rhs.size(),
            static_cast<std::size_t>(f.mesh.num_nodes()) * 3);
}

// ---- report ------------------------------------------------------------

TEST(Report, TableAlignsAndCounts) {
  Table t({"phase", "cycles", "share"});
  t.add_row({"6", "123456", "35.1%"});
  t.add_row({"7", "98765", "28.0%"});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| phase"), std::string::npos);
  EXPECT_NE(s.find("| 6"), std::string::npos);
  // header separator present
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Report, TableRejectsBadRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Report, Formatters) {
  EXPECT_EQ(vecfd::core::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(vecfd::core::fmt_pct(0.421, 1), "42.1%");
  EXPECT_EQ(vecfd::core::fmt_speedup(7.6), "7.60x");
  EXPECT_EQ(vecfd::core::fmt_sci(1430000.0, 2), "1.43e+06");
  const std::string b = vecfd::core::banner("Table 5", "vCPI");
  EXPECT_NE(b.find("Table 5"), std::string::npos);
}

}  // namespace
