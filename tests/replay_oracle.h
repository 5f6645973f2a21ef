// Shared test helper: the steady-state replay oracle (DESIGN.md §9
// "Steady-state replay").  A configuration runs twice, replay switched off
// and then on, and everything the model exposes must agree exactly: every
// registered counter (Counters::visit_pairs) of every Vpu and phase the
// run reports, and both caches' hit/miss totals.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "miniapp/time_loop.h"
#include "sim/counters.h"
#include "sim/steady_tape.h"
#include "sim/vpu.h"

namespace vecfd::testsupport {

/// What one run of a configuration shows the replay oracle.
struct ReplayTrace {
  std::vector<sim::Counters> counters;
  /// Per added Vpu: L1 hits, L1 misses, L2 hits, L2 misses.
  std::vector<std::uint64_t> caches;
  /// Other modeled numbers (cycle totals, makespans), compared exactly.
  std::vector<double> values;
  /// Memory instructions the added Vpus served from their tapes.
  std::uint64_t replayed = 0;

  /// @p vpu's totals, every phase and both caches.
  void add(const sim::Vpu& vpu) {
    counters.push_back(vpu.counters());
    for (int p = 0; p <= vpu.profiler().num_phases(); ++p) {
      counters.push_back(vpu.profiler().phase(p));
    }
    const mem::MemoryHierarchy& m = vpu.memory();
    caches.insert(caches.end(), {m.l1().hits(), m.l1().misses(),
                                 m.l2().hits(), m.l2().misses()});
    replayed += vpu.tape().replayed();
  }
  /// A transient run's counter folds over all its Vpus (shards included),
  /// its cycle total and its pressure makespan.
  void add(const miniapp::TimeLoopResult& r) {
    counters.push_back(r.total);
    counters.insert(counters.end(), r.phase.begin(), r.phase.end());
    values.insert(values.end(), {r.cycles, r.pressure_makespan_cycles});
    for (const miniapp::StepReport& st : r.steps) values.push_back(st.cycles);
  }
};

inline void expect_same_trace(const ReplayTrace& on, const ReplayTrace& off,
                              const std::string& what) {
  ASSERT_EQ(on.counters.size(), off.counters.size()) << what;
  for (std::size_t i = 0; i < off.counters.size(); ++i) {
    sim::Counters::visit_pairs(
        on.counters[i], off.counters[i],
        [&](const sim::CounterInfo& info, const auto& x, const auto& y) {
          // exact: replay never reassociates a cycle sum
          EXPECT_EQ(x, y) << what << ": counters[" << i << "]." << info.name;
        });
  }
  EXPECT_EQ(on.caches, off.caches) << what << ": cache hit/miss totals";
  EXPECT_EQ(on.values, off.values) << what << ": cycle totals";
  EXPECT_EQ(off.replayed, 0u) << what;
}

/// Replay switched off for the scope's lifetime.
class ReplayOff {
 public:
  ReplayOff() { sim::set_steady_replay_for_testing(false); }
  ~ReplayOff() { sim::set_steady_replay_for_testing(true); }
  ReplayOff(const ReplayOff&) = delete;
  ReplayOff& operator=(const ReplayOff&) = delete;
};

/// Runs @p run(ReplayTrace&) with replay off and then on, expects the two
/// traces to agree exactly, adds the replay-on run's tape hits to
/// @p replayed (when given) and returns the replay-on run's result.
template <class Run>
auto replay_checked(const std::string& what, Run&& run,
                    std::uint64_t* replayed = nullptr) {
  ReplayTrace off;
  ReplayTrace on;
  const auto finish = [&] {
    expect_same_trace(on, off, what);
    if (replayed != nullptr) *replayed += on.replayed;
  };
  if constexpr (std::is_void_v<decltype(run(off))>) {
    {
      const ReplayOff scope;
      run(off);
    }
    run(on);
    finish();
  } else {
    {
      const ReplayOff scope;
      run(off);
    }
    auto result = run(on);
    finish();
    return result;
  }
}

/// One solve on a fresh Vpu of @p m through replay_checked: @p x is reset
/// to @p n zeros before each run and @p solve(vpu, x) returns the result.
template <class Solve>
auto replay_checked_solve(const std::string& what, const sim::MachineConfig& m,
                          std::vector<double>& x, std::size_t n, Solve&& solve,
                          std::uint64_t* replayed = nullptr) {
  return replay_checked(
      what,
      [&](ReplayTrace& trace) {
        sim::Vpu vpu(m);
        x.assign(n, 0.0);
        auto result = solve(vpu, x);
        trace.add(vpu);
        return result;
      },
      replayed);
}

/// A fresh TimeLoop(@p mesh, @p scen, @p cfg) run on a fresh Vpu of @p m
/// through replay_checked; @p u receives the final unknowns.
inline miniapp::TimeLoopResult replay_checked_loop(
    const std::string& what, const fem::Mesh& mesh,
    const miniapp::Scenario& scen, const miniapp::TimeLoopConfig& cfg,
    const sim::MachineConfig& m, std::vector<double>* u = nullptr,
    std::uint64_t* replayed = nullptr) {
  return replay_checked(
      what,
      [&](ReplayTrace& trace) {
        miniapp::TimeLoop loop(mesh, scen, cfg);
        sim::Vpu vpu(m);
        miniapp::TimeLoopResult res = loop.run(vpu);
        trace.add(vpu);
        trace.add(res);
        if (u != nullptr) {
          const auto unk = loop.state().unknowns();
          u->assign(unk.begin(), unk.end());
        }
        return res;
      },
      replayed);
}

}  // namespace vecfd::testsupport
