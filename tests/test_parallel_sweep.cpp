// Tests for the thread-parallel sweep engine: the parallel fan-out must be
// indistinguishable from the serial loop — same measurements, same order,
// byte-identical CSV — at any job count.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/csv.h"
#include "core/experiment.h"

namespace {

using vecfd::core::Experiment;
using vecfd::core::Measurement;
using vecfd::core::SweepPoint;
using vecfd::miniapp::MiniAppConfig;
using vecfd::miniapp::OptLevel;
using vecfd::platforms::riscv_vec;
using vecfd::platforms::sx_aurora;

struct Fixture {
  Fixture() : mesh({.nx = 4, .ny = 4, .nz = 2}), state(mesh) {}
  vecfd::fem::Mesh mesh;
  vecfd::fem::State state;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::string csv_of(const std::vector<Measurement>& ms) {
  std::ostringstream os;
  vecfd::core::write_csv(os, ms);
  return os.str();
}

constexpr int kSizes[] = {8, 16, 32};

TEST(ParallelSweep, GridMatchesSerialByteForByte) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;

  // Cover both modelled line sizes: riscv-vec (64 B) and sx-aurora (128 B).
  // The 128 B platform is the one that breaks if heap alignment ever drops
  // below the largest modelled line again.
  for (const auto& machine : {riscv_vec(), sx_aurora()}) {
    const auto serial = ex.sweep_grid(machine, cfg, kSizes,
                                      vecfd::core::kSweepOptLevels,
                                      /*jobs=*/1);
    const auto parallel = ex.sweep_grid(machine, cfg, kSizes,
                                        vecfd::core::kSweepOptLevels,
                                        /*jobs=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(csv_of(serial), csv_of(parallel)) << machine.name;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].app.vector_size, parallel[i].app.vector_size);
      EXPECT_EQ(serial[i].app.opt, parallel[i].app.opt);
      EXPECT_DOUBLE_EQ(serial[i].total_cycles, parallel[i].total_cycles);
      EXPECT_EQ(serial[i].rhs, parallel[i].rhs);
    }
  }
}

TEST(ParallelSweep, GridIsSizeMajorInPaperLevelOrder) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  const auto grid = ex.sweep_grid(riscv_vec(), MiniAppConfig{}, kSizes,
                                  vecfd::core::kSweepOptLevels, 2);
  constexpr std::size_t nopts = std::size(vecfd::core::kSweepOptLevels);
  ASSERT_EQ(grid.size(), std::size(kSizes) * nopts);
  for (std::size_t si = 0; si < std::size(kSizes); ++si) {
    for (std::size_t oi = 0; oi < nopts; ++oi) {
      const auto& m = grid[si * nopts + oi];
      EXPECT_EQ(m.app.vector_size, kSizes[si]);
      EXPECT_EQ(m.app.opt, vecfd::core::kSweepOptLevels[oi]);
    }
  }
}

TEST(ParallelSweep, RunPointsPreservesPointOrder) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  std::vector<SweepPoint> points;
  for (int vs : kSizes) {
    MiniAppConfig cfg;
    cfg.vector_size = vs;
    points.push_back({riscv_vec(), cfg});
    points.push_back({sx_aurora(), cfg});
  }
  const auto ms = ex.run_points(points, 3);
  ASSERT_EQ(ms.size(), points.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(ms[i].machine.name, points[i].machine.name);
    EXPECT_EQ(ms[i].app.vector_size, points[i].app.vector_size);
  }
}

TEST(ParallelSweep, SizeAndLevelSweepsMatchSingleRuns) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  MiniAppConfig cfg;
  const auto by_size = ex.sweep_vector_sizes(riscv_vec(), cfg, kSizes, 4);
  ASSERT_EQ(by_size.size(), std::size(kSizes));
  for (std::size_t i = 0; i < by_size.size(); ++i) {
    cfg.vector_size = kSizes[i];
    EXPECT_DOUBLE_EQ(by_size[i].total_cycles,
                     ex.run(riscv_vec(), cfg).total_cycles);
  }

  cfg.vector_size = 16;
  const auto by_level =
      ex.sweep_opt_levels(riscv_vec(), cfg, vecfd::core::kAllOptLevels, 4);
  ASSERT_EQ(by_level.size(), std::size(vecfd::core::kAllOptLevels));
  for (std::size_t i = 0; i < by_level.size(); ++i) {
    cfg.opt = vecfd::core::kAllOptLevels[i];
    EXPECT_DOUBLE_EQ(by_level[i].total_cycles,
                     ex.run(riscv_vec(), cfg).total_cycles);
  }
}

TEST(ParallelSweep, EmptyPointListIsFine) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  EXPECT_TRUE(ex.run_points({}, 8).empty());
}

TEST(ParallelSweep, WorkerExceptionPropagates) {
  Fixture& f = fixture();
  const Experiment ex(f.mesh, f.state);
  std::vector<SweepPoint> points;
  MiniAppConfig cfg;
  points.push_back({riscv_vec(), cfg});
  cfg.vector_size = -1;  // MiniApp ctor throws
  points.push_back({riscv_vec(), cfg});
  EXPECT_THROW((void)ex.run_points(points, 2), std::invalid_argument);
}

}  // namespace
