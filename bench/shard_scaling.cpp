// Shard scaling — the domain-decomposition co-design study (DESIGN.md §9):
// the cavity pressure-Poisson solve partitioned over P instrumented Vpus
// with ghost refreshes priced through the halo counters.
//
// Two tables:
//   1. STRONG scaling at a fixed mesh: the phase-10 BSP makespan (max shard
//      cycles per parallel epoch + the coordinator's reduction folds) must
//      fall as P grows while the halo-volume counters rise — the classic
//      surface-vs-compute trade, now visible in counters.  Next to the
//      modeled makespan, the host wall-clock of each whole run (all
//      phases; only phase 10 shards) shows what the shard fan-out buys on
//      the machine running the bench.  It is an info column: not gated,
//      not exported by tools/bench_to_json.
//   2. SURFACE-TO-VOLUME at fixed P: refining the mesh grows subdomain
//      volumes (owned gathered lines) faster than their surfaces (halo
//      lines), so the halo/owned ratio must FALL monotonically — the 1-D
//      strip partition's surface is O(P·width²) against an O(width³)
//      volume.
//
// P-independence is re-verified before measuring: fields and residual
// histories of every sharded run are demanded bitwise equal to the P=1
// legacy path (the contract of solver::ShardedCg).
//
// Acceptance (exit 1 on failure): on the strong-scaling mesh the P=8
// makespan is at most HALF the P=1 phase-10 cycles, every field/history
// comparison is bitwise clean, and the halo/owned ratio decreases under
// refinement.
#include "bench_common.h"

#include <chrono>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "sim/vpu.h"

namespace {

using namespace vecfd;

/// One sharded transient run distilled: the scaling metrics plus the raw
/// material of the bit-identity check (final fields, pressure histories).
struct ShardRun {
  double makespan = 0.0;      ///< phase-10 BSP critical path
  double wall_s = 0.0;        ///< host wall-clock of loop.run (info only)
  double p10_cycles = 0.0;    ///< total phase-10 work (all Vpus)
  double p10_avl = 0.0;
  std::uint64_t halo_lines = 0;
  std::uint64_t halo_messages = 0;
  std::uint64_t owned_lines = 0;  ///< phase-10 gathered lines
  int iters = 0;
  std::vector<double> history;  ///< concatenated pressure histories
  std::vector<double> fields;   ///< final unknowns (u, v, w, p)
};

ShardRun run_point(const fem::MeshConfig& mc, int shards, int vs, int steps,
                   const sim::MachineConfig& machine) {
  miniapp::Scenario scen = miniapp::scenario_cavity();
  scen.mesh = mc;
  const fem::Mesh mesh(mc);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = steps;
  cfg.vector_size = vs;
  cfg.shards = shards;
  miniapp::TimeLoop loop(mesh, scen, cfg);
  sim::Vpu vpu(machine);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = loop.run(vpu);
  const auto t1 = std::chrono::steady_clock::now();

  ShardRun r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.makespan = res.pressure_makespan_cycles;
  const sim::Counters& p10 = res.phase[miniapp::kPressurePhase];
  r.p10_cycles = p10.total_cycles();
  r.p10_avl = metrics::compute(p10, machine.vlmax).avl;
  r.halo_lines = p10.halo_lines_sent + p10.halo_lines_recv;
  r.halo_messages = p10.halo_messages;
  r.owned_lines = p10.gather_lines_touched;
  for (const auto& step : res.steps) {
    r.iters += step.pressure.iterations;
    r.history.insert(r.history.end(), step.pressure.history.begin(),
                     step.pressure.history.end());
  }
  const auto unk = loop.state().unknowns();
  r.fields.assign(unk.begin(), unk.end());
  return r;
}

}  // namespace

int main() {
  using namespace vecfd;
  std::cout << core::banner("Shard scaling",
                            "domain-decomposition pressure solve: BSP "
                            "makespan, halo volume, P-independence");

  const sim::MachineConfig machine = platforms::riscv_vec();
  const int vs = 240;
  const int steps = 2;
  const int strong_n = bench::small_run() ? 8 : 12;
  std::vector<int> refinements = {8, 10, 12};
  if (bench::small_run()) refinements = {6, 8};
  std::cout << "scenario cavity, riscv-vec, VECTOR_SIZE=" << vs << ", "
            << steps << " steps per point"
            << (bench::small_run() ? " (VECFD_BENCH_SMALL)" : "") << "\n\n";

  // ---- strong scaling: fixed mesh, P = 1, 2, 4, 8 -------------------------
  const fem::MeshConfig strong_mesh{.nx = strong_n, .ny = strong_n,
                                    .nz = strong_n};
  core::Table strong({"shards", "p10 makespan", "speedup", "host wall s",
                      "host speedup", "halo lines", "halo msgs", "p10 AVL",
                      "identical"});
  bool identical_ok = true;
  double base_makespan = 0.0;
  double base_wall = 0.0;
  double p8_makespan = 0.0;
  ShardRun ref;
  for (const int p : {1, 2, 4, 8}) {
    const ShardRun r = run_point(strong_mesh, p, vs, steps, machine);
    const bool same =
        r.history == ref.history && r.fields == ref.fields;  // bitwise
    if (p == 1) {
      ref = r;
      base_makespan = r.makespan;
      base_wall = r.wall_s;
    } else {
      identical_ok = identical_ok && same;
    }
    if (p == 8) p8_makespan = r.makespan;
    strong.add_row(
        {std::to_string(p), core::fmt(r.makespan, 0),
         base_makespan > 0.0
             ? core::fmt(base_makespan / r.makespan, 2) + "x"
             : "-",
         core::fmt(r.wall_s, 3),
         r.wall_s > 0.0 ? core::fmt(base_wall / r.wall_s, 2) + "x" : "-",
         std::to_string(r.halo_lines), std::to_string(r.halo_messages),
         core::fmt(r.p10_avl, 1), p == 1 ? "(ref)" : (same ? "yes" : "NO")});
  }
  std::cout << "strong scaling, cavity " << strong_n << "^3:\n"
            << strong.to_string() << '\n';
  const bool strong_ok =
      p8_makespan > 0.0 && p8_makespan <= 0.5 * base_makespan;

  // ---- surface-to-volume: fixed P, refine the mesh ------------------------
  // A finer strip (VECTOR_SIZE 64) keeps all P subdomains populated on
  // every refinement: with the 240-strip quantum the coarse meshes round
  // some shards down to zero rows, and the interface COUNT (not the
  // surface physics) would dominate the ratio.
  const int fixed_p = 4;
  const int s2v_vs = 64;
  core::Table s2v({"mesh", "halo lines", "owned lines", "halo/owned"});
  bool s2v_ok = true;
  double prev_ratio = 0.0;
  for (std::size_t ri = 0; ri < refinements.size(); ++ri) {
    const int nref = refinements[ri];
    const fem::MeshConfig mc{.nx = nref, .ny = nref, .nz = nref};
    const ShardRun r = run_point(mc, fixed_p, s2v_vs, steps, machine);
    const double ratio =
        r.owned_lines > 0
            ? static_cast<double>(r.halo_lines) /
                  static_cast<double>(r.owned_lines)
            : 0.0;
    if (ri > 0) s2v_ok = s2v_ok && ratio < prev_ratio;
    prev_ratio = ratio;
    s2v.add_row({std::to_string(nref) + "^3", std::to_string(r.halo_lines),
                 std::to_string(r.owned_lines), core::fmt(ratio, 4)});
  }
  std::cout << "surface-to-volume, " << fixed_p
            << " shards, VECTOR_SIZE=" << s2v_vs << ":\n"
            << s2v.to_string();

  std::cout << "\nreading guide: sharding distributes the CG's vector work "
               "over P instrumented Vpus, so the BSP makespan (max shard "
               "per epoch + serial reduction folds) falls with P while the "
               "halo counters price the growing subdomain surface; under "
               "refinement at fixed P the surface grows one power of the "
               "mesh width slower than the volume, so halo/owned falls.  "
               "The host columns time each whole run on this machine: the "
               "shard epochs run on the persistent worker pool, but only "
               "phase 10 shards, so host speed-up is Amdahl-capped and "
               "varies run to run (info only, not gated).  "
               "Acceptance: P=8 makespan <= half of P=1 ("
            << (strong_ok ? "met" : "NOT met")
            << "), fields and residual histories bit-identical across P ("
            << (identical_ok ? "met" : "NOT met")
            << "), halo/owned strictly decreasing under refinement ("
            << (s2v_ok ? "met" : "NOT met") << ").\n";
  return strong_ok && identical_ok && s2v_ok ? 0 : 1;
}
