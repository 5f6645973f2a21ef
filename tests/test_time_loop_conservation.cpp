// Counter-conservation invariants of the transient time loop: nothing the
// Vpu charges may leak out of the per-step / per-phase accounting.  For
// every scenario × platform:
//
//   * Σ StepReport::cycles == TimeLoopResult::cycles (the per-step deltas
//     tile the run exactly);
//   * Σ_{p=0..kNumInstrumentedPhases} phase[p] == total, field by field
//     (instruction classes, cycles, vl_sum, FLOPs, cache misses).
//
// This pins down the whole class of mid-measurement accounting bugs (work
// charged outside its phase, double-counted deltas, phase snapshots taken
// mid-kernel) that previously had to be chased by hand.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <type_traits>

#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "scenario_support.h"

namespace {

using namespace vecfd;
using testsupport::small_scenarios;

const sim::MachineConfig kMachines[] = {
    platforms::riscv_vec(), platforms::riscv_vec_scalar(),
    platforms::sx_aurora(), platforms::mn4_avx512()};

// Field-by-field comparison generated from the counter registry
// (sim::Counters::visit_pairs): a counter is covered by the conservation
// invariant the moment it enters the VECFD_COUNTERS X-macro, with nothing
// to keep in sync here.  Integer counters must tile exactly; the cycle
// accumulators (doubles) are compared to 1e-9 relative, since per-phase
// deltas re-sum floating-point cycle costs in a different association.
void expect_counters_equal(const sim::Counters& got, const sim::Counters& want,
                           const std::string& what) {
  sim::Counters::visit_pairs(
      got, want, [&](const sim::CounterInfo& info, const auto& g,
                     const auto& w) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(g)>>) {
          EXPECT_NEAR(g, w, 1e-9 * (1.0 + w)) << what << ": " << info.name;
        } else {
          EXPECT_EQ(g, w) << what << ": " << info.name;
        }
      });
}

TEST(TimeLoopConservation, StepCyclesSumToRunCycles) {
  for (const miniapp::Scenario& s : small_scenarios()) {
    const fem::Mesh mesh(s.mesh);
    for (const auto& m : kMachines) {
      miniapp::TimeLoopConfig cfg;
      cfg.steps = 2;
      cfg.vector_size = 32;
      miniapp::TimeLoop loop(mesh, s, cfg);
      sim::Vpu vpu(m);
      const auto res = loop.run(vpu);
      const std::string what = s.name + std::string(" on ") + m.name;
      ASSERT_EQ(res.steps.size(), 2u) << what;
      double sum = 0.0;
      for (const miniapp::StepReport& st : res.steps) {
        EXPECT_GT(st.cycles, 0.0) << what << " t=" << st.time;
        sum += st.cycles;
      }
      EXPECT_NEAR(sum, res.cycles, 1e-9 * res.cycles) << what;
      EXPECT_NEAR(res.cycles, res.total.total_cycles(), 1e-9 * res.cycles)
          << what;
    }
  }
}

TEST(TimeLoopConservation, PhaseCountersSumToTotals) {
  for (const miniapp::Scenario& s : small_scenarios()) {
    const fem::Mesh mesh(s.mesh);
    for (const auto& m : kMachines) {
      miniapp::TimeLoopConfig cfg;
      cfg.steps = 2;
      cfg.vector_size = 32;
      miniapp::TimeLoop loop(mesh, s, cfg);
      sim::Vpu vpu(m);
      const auto res = loop.run(vpu);
      const std::string what = s.name + std::string(" on ") + m.name;
      ASSERT_EQ(res.phase.size(),
                static_cast<std::size_t>(miniapp::kNumInstrumentedPhases) + 1u)
          << what;
      sim::Counters sum;
      for (const sim::Counters& c : res.phase) sum += c;
      expect_counters_equal(sum, res.total, what);
      // all work is attributed to an instrumented phase: host-side setup
      // charges nothing, so phase 0 ("outside") stays empty
      EXPECT_EQ(res.phase[0].total_instrs(), 0u) << what;
      EXPECT_DOUBLE_EQ(res.phase[0].total_cycles(), 0.0) << what;
    }
  }
}

TEST(TimeLoopConservation, BothMomentumPathsConserve) {
  // The blocked and the per-component phase-9 paths must both satisfy the
  // conservation invariants (the blocked path reshuffles kernel order and
  // masks columns — none of that may leak cycles across phase boundaries),
  // in and out of the RCM solve space, on one Vpu and on four pressure
  // shards, and across the checkpoint epoch drain, which folds every
  // machine's counters into the carried totals and resets them.
  miniapp::Scenario s = miniapp::scenario_taylor_green();
  s.mesh.nx = s.mesh.ny = s.mesh.nz = 3;
  const fem::Mesh mesh(s.mesh);
  for (const bool blocked : {true, false}) {
    for (const bool rcm : {false, true}) {
      for (const int shards : {1, 4}) {
        for (const int every : {0, 1}) {
          miniapp::TimeLoopConfig cfg;
          cfg.steps = 3;
          cfg.vector_size = 24;
          cfg.blocked_momentum = blocked;
          cfg.rcm_renumber = rcm;
          cfg.shards = shards;
          cfg.checkpoint_every = every;
          miniapp::TimeLoop loop(mesh, s, cfg);
          sim::Vpu vpu(platforms::riscv_vec());
          const auto res = loop.run(vpu);
          const std::string what =
              std::string(blocked ? "blocked" : "per-component") +
              " momentum, rcm=" + std::to_string(rcm) +
              ", shards=" + std::to_string(shards) +
              ", checkpoint_every=" + std::to_string(every);
          ASSERT_EQ(res.steps.size(), 3u) << what;
          sim::Counters sum;
          for (const sim::Counters& c : res.phase) sum += c;
          expect_counters_equal(sum, res.total, what);
          double step_sum = 0.0;
          for (const miniapp::StepReport& st : res.steps) {
            step_sum += st.cycles;
          }
          EXPECT_NEAR(step_sum, res.cycles, 1e-9 * res.cycles) << what;
          // the four-shard runs really take the sharded pressure path
          EXPECT_EQ(res.effective_shards, shards) << what;
        }
      }
    }
  }
}

}  // namespace
