// Transient campaign engine (core/campaign.h): the scenario × platform ×
// VECTOR_SIZE grid runs on the parallel sweep fan-out, produces live
// phase-1..11 counters on all four platforms, reports solve-phase AVL per
// VECTOR_SIZE, and serializes deterministically to the campaign CSV schema.
//
// This is the heavyweight suite of the transient subsystem (dozens of
// time-loop runs); it carries the `slow` ctest label so the sanitizer CI
// job can skip it while still running the solver/property suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/campaign.h"
#include "core/csv.h"
#include "platforms/platforms.h"
#include "scenario_support.h"

namespace {

using namespace vecfd;
using testsupport::small_scenarios;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

TEST(TransientCampaign, GridCoversScenarioByPlatformByVectorSize) {
  const core::Campaign camp(small_scenarios());
  const int sizes[] = {16, 64};
  const auto points = camp.grid(kMachines, sizes, 2);
  ASSERT_EQ(points.size(), 3u * 4u * 2u);
  // scenario-major, then machine, then size
  EXPECT_EQ(points[0].scenario, 0);
  EXPECT_EQ(points[0].vector_size, 16);
  EXPECT_EQ(points[1].vector_size, 64);
  EXPECT_EQ(points.back().scenario, 2);
  EXPECT_EQ(points.back().machine.name, kMachines[3].name);
}

TEST(TransientCampaign, AllPlatformsProducePhase1To11Counters) {
  const core::Campaign camp(small_scenarios());
  const int sizes[] = {32};
  const auto points = camp.grid(kMachines, sizes, 2);
  const auto runs = camp.run_points(points, 0);
  ASSERT_EQ(runs.size(), points.size());
  for (const auto& r : runs) {
    EXPECT_TRUE(r.all_converged) << r.scenario << " on "
                                 << r.point.machine.name;
    for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
      EXPECT_GT(r.phase_cycles(p), 0.0)
          << r.scenario << " on " << r.point.machine.name << " phase " << p;
    }
    EXPECT_GT(r.momentum_iterations, 0);
    EXPECT_GT(r.pressure_iterations, 0);
    if (!r.point.machine.vector_enabled) {
      EXPECT_EQ(r.loop.total.vector_instrs(), 0u) << r.scenario;
    }
  }
}

TEST(TransientCampaign, SolvePhaseAvlIsReportedPerVectorSize) {
  auto scens = small_scenarios();
  scens.resize(1);  // cavity only
  const core::Campaign camp(std::move(scens));
  const sim::MachineConfig vec_machine[] = {platforms::riscv_vec()};
  const int sizes[] = {8, 32};
  const auto runs = camp.run_points(camp.grid(vec_machine, sizes, 1), 0);
  ASSERT_EQ(runs.size(), 2u);
  const double avl_8 = runs[0].phase_metrics[miniapp::kSolvePhase].avl;
  const double avl_32 = runs[1].phase_metrics[miniapp::kSolvePhase].avl;
  EXPECT_NEAR(avl_8, 8.0, 1.0);
  EXPECT_GT(avl_32, 2.0 * avl_8);
  // the campaign CSV carries those AVLs in the ph9 column block
  std::ostringstream os;
  core::write_campaign_csv(os, runs);
  EXPECT_NE(os.str().find("ph9_avl"), std::string::npos);
  EXPECT_NE(os.str().find("ph10_avl"), std::string::npos);
  EXPECT_NE(os.str().find("ph11_avl"), std::string::npos);
}

TEST(TransientCampaign, ParallelAndSerialRunsAgreeByteForByte) {
  auto scens = small_scenarios();
  scens.erase(scens.begin() + 1);  // drop channel: keep the grid light
  const core::Campaign camp(std::move(scens));
  const sim::MachineConfig machines[] = {platforms::riscv_vec(),
                                         platforms::mn4_avx512()};
  const int sizes[] = {16, 64};
  const auto points = camp.grid(machines, sizes, 2);

  std::ostringstream serial;
  std::ostringstream parallel;
  core::write_campaign_csv(serial, camp.run_points(points, 1));
  core::write_campaign_csv(parallel, camp.run_points(points, 4));
  EXPECT_FALSE(serial.str().empty());
  EXPECT_EQ(serial.str(), parallel.str());
}

TEST(TransientCampaign, CsvSchemaDerivesFromInstrumentedPhaseCount) {
  auto scens = small_scenarios();
  scens.resize(1);
  const core::Campaign camp(std::move(scens));
  core::CampaignPoint p;
  p.machine = platforms::riscv_vec();
  p.vector_size = 16;
  p.steps = 1;
  const core::CampaignRun run = camp.run(p);

  std::ostringstream os;
  core::write_campaign_csv_header(os);
  core::write_campaign_row(os, run);
  std::istringstream is(os.str());
  std::string header;
  std::string row;
  std::getline(is, header);
  std::getline(is, row);
  const auto count_cols = [](const std::string& line) {
    return 1 + std::count(line.begin(), line.end(), ',');
  };
  EXPECT_EQ(count_cols(header), count_cols(row));
  // 24 identity/metric columns (incl. format/rcm/precond/shards and the
  // gather-quality + halo counters), the ph block, the 6-column
  // convergence digest (iterations, divergence, convergence,
  // solver_failures + pressure makespan) and the 3-column retry digest
  // (attempts, degraded, final_status — inert 1,0,ok on plain runs)
  EXPECT_EQ(count_cols(header),
            24 + 3 * miniapp::kNumInstrumentedPhases + 6 + 3);
  EXPECT_NE(header.find("vector_size,effective_strip"), std::string::npos);
}

}  // namespace
