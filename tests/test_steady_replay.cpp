// Steady-state replay of Krylov memory outcomes (DESIGN.md §9
// "Steady-state replay"), at the Vpu level.  Every case runs a synthetic
// iteration stream inside a TapeScope twice — replay off, then on — and
// the replay oracle (replay_oracle.h) demands every counter and both
// caches' hit/miss totals to agree exactly.  Each case also checks that
// the tape really served instructions, so no case passes vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "platforms/platforms.h"
#include "replay_oracle.h"
#include "sim/vpu.h"
#include "solver/csr.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;

/// Runs @p body on a fresh Vpu of @p m with replay off and on, expects the
/// oracle to hold and returns the memory instructions served from the
/// tape in the replay-on run.
template <class Body>
std::uint64_t expect_exact(const sim::MachineConfig& m,
                           const std::string& what, Body body) {
  std::uint64_t replayed = 0;
  testsupport::replay_checked(
      what,
      [&](testsupport::ReplayTrace& trace) {
        sim::Vpu vpu(m);
        body(vpu);
        trace.add(vpu);
      },
      &replayed);
  return replayed;
}

/// A gather-heavy iteration: per strip, a unit-stride load of the strip's
/// column ids, a gather of x through them and a unit-stride store — the
/// shape of an ELL SpMV.  The columns span 128 KiB of x, past riscv-vec's
/// 64 KiB L1; x's tail past kCols is never gathered unless a test points
/// a lane there.
struct GatherStream {
  static constexpr int kStrips = 12;
  static constexpr int kVl = 64;
  static constexpr int kCols = 16384;
  std::vector<double> x = std::vector<double>(kCols + 4096, 1.0);
  std::vector<double> y = std::vector<double>(kStrips * kVl, 0.0);
  std::vector<std::int32_t> cols =
      std::vector<std::int32_t>(kStrips * kVl, 0);

  explicit GatherStream(bool pads) {
    std::mt19937 rng(2024);
    std::uniform_int_distribution<int> col(0, kCols - 1);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      cols[i] = pads && i % 5 == 3 ? -1 : col(rng);
    }
  }
  void iteration(sim::Vpu& vpu) {
    vpu.set_vl(kVl);
    for (int s = 0; s < kStrips; ++s) {
      const sim::Vec idx = vpu.vload_i32(cols.data() + s * kVl);
      const sim::Vec v = vpu.vgather(x.data(), idx);
      vpu.vstore(y.data() + s * kVl, vpu.vadd(v, v));
    }
  }
};

TEST(SteadyReplay, L2SettlesOnlyOnTheThirdIdenticalPass) {
  // L1: one set of 2 ways, L2: one set of 3 ways.  The iteration loads
  // lines A, B, C; the prologue leaves A in L1 but evicted from L2:
  //
  //   prologue A F A G A H A   L1 [A H]    L2 [H G F]
  //   pass 1   A B C           L2 sees B C     → 2 L2 misses, L2 [C B H]
  //   pass 2   A B C           L2 sees A B C   → 1 L2 miss,   L2 [C B A]
  //   pass 3+  A B C           L2 sees A B C   → 0 L2 misses
  //
  // L1 settles after pass 1 but L2 only after pass 2, so replaying pass
  // 2's outcomes (a two-iteration criterion) would overcharge an L2 miss
  // per replayed pass.
  sim::MachineConfig m = platforms::riscv_vec();
  m.memory.l1 = {.size_bytes = 2 * 64, .line_bytes = 64, .associativity = 2,
                 .name = "L1D"};
  m.memory.l2 = {.size_bytes = 3 * 64, .line_bytes = 64, .associativity = 3,
                 .name = "L2"};
  std::vector<double> buf(6 * 8, 1.0);  // six 64-byte lines (line-aligned)
  enum Line { A, B, C, F, G, H };
  const auto line = [&](Line k) { return buf.data() + 8 * k; };
  const std::uint64_t replayed = expect_exact(m, "L2 third pass", [&](
                                                  sim::Vpu& vpu) {
    const sim::Vpu& cv = vpu;
    const sim::TapeScope scope(vpu);
    for (const Line k : {A, F, A, G, A, H, A}) vpu.sload(line(k));
    std::vector<std::uint64_t> l2_misses;
    std::uint64_t before = cv.memory().l2().misses();
    for (int pass = 0; pass < 8; ++pass) {
      vpu.mark_iteration();
      const std::uint64_t now = cv.memory().l2().misses();
      if (pass > 0) l2_misses.push_back(now - before);
      before = now;
      for (const Line k : {A, B, C}) vpu.sload(line(k));
    }
    EXPECT_EQ(l2_misses, (std::vector<std::uint64_t>{2, 1, 0, 0, 0, 0, 0}));
  });
  // Passes 1-3 are recorded; 4-8 are served from the tape.
  EXPECT_EQ(replayed, 5u * 3u);
}

TEST(SteadyReplay, ChangedGatherLaneDivergesAndRebuilds) {
  GatherStream g(/*pads=*/false);
  const std::size_t lane = 5 * GatherStream::kVl + 17;  // mid-tape gather
  const std::uint64_t replayed = expect_exact(
      platforms::riscv_vec(), "changed lane", [&](sim::Vpu& vpu) {
        const sim::TapeScope scope(vpu);
        for (int it = 0; it < 12; ++it) {
          vpu.mark_iteration();
          // two iterations gather one lane from a line no other access
          // touches: a compulsory miss the tape has never seen
          const std::int32_t saved = g.cols[lane];
          if (it == 6 || it == 7) g.cols[lane] = GatherStream::kCols + 64 * it;
          g.iteration(vpu);
          g.cols[lane] = saved;
        }
      });
  EXPECT_GT(replayed, 0u);
}

TEST(SteadyReplay, SolveExitMidTapeRebuildsThePrefix) {
  GatherStream g(/*pads=*/false);
  const std::uint64_t replayed = expect_exact(
      platforms::riscv_vec(), "exit mid-tape", [&](sim::Vpu& vpu) {
        {
          const sim::TapeScope scope(vpu);
          for (int it = 0; it < 6; ++it) {
            vpu.mark_iteration();
            g.iteration(vpu);
          }
          vpu.mark_iteration();
          // half an iteration, then the solve exits
          vpu.set_vl(GatherStream::kVl);
          for (int s = 0; s < GatherStream::kStrips / 2; ++s) {
            vpu.vgather(g.x.data(),
                        vpu.vload_i32(g.cols.data() + s * GatherStream::kVl));
          }
        }
        // Live accesses after the solve see the rebuilt cache state.
        g.iteration(vpu);
      });
  EXPECT_GT(replayed, 0u);
}

TEST(SteadyReplay, FlushAndResetMidSolveDropTheTape) {
  GatherStream g(/*pads=*/false);
  const std::uint64_t replayed = expect_exact(
      platforms::riscv_vec(), "flush mid-solve", [&](sim::Vpu& vpu) {
        const sim::TapeScope scope(vpu);
        for (int it = 0; it < 16; ++it) {
          vpu.mark_iteration();
          if (it == 6) {
            g.iteration(vpu);
            vpu.memory().flush();  // mid-iteration, while replaying
          }
          if (it == 12) {
            g.iteration(vpu);
            vpu.reset();
          }
          g.iteration(vpu);
        }
      });
  EXPECT_GT(replayed, 0u);
}

TEST(SteadyReplay, PadLaneGathersReplayExactly) {
  GatherStream g(/*pads=*/true);
  const std::size_t pad = 7 * GatherStream::kVl + 5;  // a -1 lane
  ASSERT_EQ(g.cols[pad], -1);
  const std::uint64_t replayed = expect_exact(
      platforms::riscv_vec(), "pad lanes", [&](sim::Vpu& vpu) {
        const sim::TapeScope scope(vpu);
        for (int it = 0; it < 12; ++it) {
          vpu.mark_iteration();
          // a pad lane turns real for one iteration: a divergence
          if (it == 8) g.cols[pad] = GatherStream::kCols;
          g.iteration(vpu);
          g.cols[pad] = -1;
        }
      });
  EXPECT_GT(replayed, 0u);
}

solver::CsrMatrix poisson_1d(int n) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i + 1 < n) adj[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  solver::CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i + 1 < n) a.add(i, i + 1, -1.0);
  }
  return a;
}

TEST(SteadyReplay, ScalarMachineSloadStreams) {
  const sim::MachineConfig scalar = platforms::riscv_vec_scalar();
  std::vector<double> buf(4096, 1.0);
  const std::uint64_t synthetic = expect_exact(
      scalar, "scalar sload stream", [&](sim::Vpu& vpu) {
        const sim::TapeScope scope(vpu);
        for (int it = 0; it < 10; ++it) {
          vpu.mark_iteration();
          double s = 0.0;
          for (std::size_t i = 0; i < buf.size(); i += 3) {
            s = vpu.sadd(s, vpu.sload(buf.data() + i));
          }
          // one iteration stores elsewhere: a divergence
          vpu.sstore(buf.data() + (it == 7 ? 1 : 0), s);
        }
      });
  EXPECT_GT(synthetic, 0u);

  // A real CG solve on the scalar machine: every SpMV lane is an sload.
  const solver::CsrMatrix a = poisson_1d(120);
  const std::vector<double> b(120, 1.0);
  const std::uint64_t solve = expect_exact(
      scalar, "scalar vcg", [&](sim::Vpu& vpu) {
        std::vector<double> x(120, 0.0);
        const auto rep = solver::vcg(vpu, a, b, x, {}, 16);
        EXPECT_TRUE(rep.converged);
      });
  EXPECT_GT(solve, 0u);
}

TEST(SteadyReplay, NestedScopeMarksCountOnlyForTheOuterSolve) {
  GatherStream g(/*pads=*/false);
  const std::uint64_t replayed = expect_exact(
      platforms::riscv_vec(), "nested", [&](sim::Vpu& vpu) {
        const sim::TapeScope outer(vpu);
        for (int it = 0; it < 10; ++it) {
          vpu.mark_iteration();
          g.iteration(vpu);
          const sim::TapeScope inner(vpu);
          for (int k = 0; k < 2; ++k) {
            vpu.mark_iteration();  // ignored: part of the outer stream
            g.iteration(vpu);
          }
        }
      });
  EXPECT_GT(replayed, 0u);
}

}  // namespace
