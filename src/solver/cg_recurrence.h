// vecfd::solver — the one conjugate-gradient recurrence (DESIGN.md §9).
//
// The instrumented CG is written once, here, and run by two executors:
//
//   * vcg (vkernels.cpp): one Vpu, the format-selected OperatorMirror, the
//     v* kernels and the ladder Preconditioner;
//   * ShardedCg (sharding.cpp): P shard Vpus stepping in BSP epochs, the
//     coordinator Vpu folding strip-ordered reductions, HaloExchange
//     refreshing ghosts before every operator application.
//
// Both see the same scalar recurrence, so every residual history, iterate
// and iteration count is bit-identical between them.  The executor verbs
// follow the sharded epoch grouping — each verb below that touches vectors
// is ONE for_shards epoch when sharded, which the BSP makespan prices — so
// regrouping them would move the modeled makespan:
//
//   std::string prepare(opts)  host setup + preconditioner setup, issued
//                              after the b = 0 exit; a non-empty return
//                              names why the solve cannot run
//   void mark()                top of an iteration: the steady-state
//                              replay mark of every Vpu that carries
//                              vectors (no instruction)
//   sim::Vpu& scalar()         the Vpu charged for the scalar divides
//                              (the coordinator when sharded)
//   double norm2(CgVec)        ‖b‖₂ or ‖r‖₂ (vnorm2 branching)
//   void zero_x()              x = 0
//   void residual()            r = b − A·x
//   void precond_into_p()      z = M⁻¹·r, then p = z
//   double dot_rz()            r·z
//   double spmv_dot()          ap = A·p, returns p·ap
//   void step(alpha)           x += α·p, then r −= α·ap
//   void precond()             z = M⁻¹·r
//   void xpby(beta)            p = z + β·p
//   SolveReport& finish(rep)   publish x, close the accounting, and pass
//                              the krylov.h contract gate (checked)
#pragma once

#include <string>

#include "solver/krylov.h"

namespace vecfd::solver {

/// The vectors the recurrence takes norms of.
enum class CgVec { kB, kR };

/// Jacobi-/ladder-preconditioned CG over executor @p ex, honouring the
/// full SolveReport contract of krylov.h on every exit.
template <class Exec>
SolveReport cg_recurrence(Exec& ex, const SolveOptions& opts) {
  SolveReport rep;
  const double bnorm = ex.norm2(CgVec::kB);
  if (bnorm == 0.0) {
    ex.zero_x();
    rep.converged = true;
    rep.history.push_back(0.0);
    return ex.finish(rep);
  }
  const auto rel_r = [&] {
    return ex.scalar().sdiv(ex.norm2(CgVec::kR), bnorm);
  };
  // A solve that cannot run (SolveReport::failure) still prices the true
  // residual of the untouched iterate: it leaves right after the prologue,
  // so the failure exit costs exactly one residual evaluation.
  rep.failure = ex.prepare(opts);
  ex.residual();
  const double rel0 = rel_r();
  rep.residual = rel0;
  rep.history.push_back(rel0);
  rep.converged = rel0 < opts.rel_tolerance;
  if (rep.converged || !rep.failure.empty()) return ex.finish(rep);
  ex.precond_into_p();
  double rz = ex.dot_rz();

  for (int it = 0; it < opts.max_iterations; ++it) {
    ex.mark();
    const double pap = ex.spmv_dot();
    if (pap == 0.0) {
      // Breakdown: the aborted iteration is counted and the true residual
      // of the returned iterate appended.
      const double rel = rel_r();
      rep.iterations = it + 1;
      rep.residual = rel;
      rep.history.push_back(rel);
      rep.converged = rel < opts.rel_tolerance;
      return ex.finish(rep);
    }
    const double alpha = ex.scalar().sdiv(rz, pap);
    ex.step(alpha);
    const double rel = rel_r();
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return ex.finish(rep);
    }
    ex.precond();
    const double rz_new = ex.dot_rz();
    const double beta = ex.scalar().sdiv(rz_new, rz);
    rz = rz_new;
    ex.xpby(beta);
  }
  return ex.finish(rep);
}

}  // namespace vecfd::solver
