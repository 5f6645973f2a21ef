// vecfd::solver — Krylov solvers with optional Jacobi preconditioning.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "solver/csr.h"

namespace vecfd::solver {

/// Preconditioner ladder for the SPD (phase-10 pressure-Poisson) solve,
/// weakest to strongest.  Every rung above kJacobi is built from the same
/// instrumented kernels the counter model already prices (DESIGN.md §8);
/// only the SPD vcg path accepts the higher rungs — the nonsymmetric
/// bicgstab solvers reject them loudly.
enum class PrecondKind {
  kJacobi,   ///< inverse diagonal (current behaviour, bit-identical)
  kCheby,    ///< Chebyshev polynomial in the Jacobi-scaled operator
  kDeflate,  ///< Jacobi + two-level coarse correction (aggregates)
};

constexpr const char* to_string(PrecondKind k) {
  switch (k) {
    case PrecondKind::kJacobi:  return "jacobi";
    case PrecondKind::kCheby:   return "cheby";
    case PrecondKind::kDeflate: return "deflate";
  }
  return "?";
}

/// CLI spelling -> kind; returns false on an unknown name (the vecfd-run
/// --precond exit-2 contract reports the offending value).
bool precond_from_string(std::string_view name, PrecondKind& out);

/// Knobs for the non-trivial rungs.  Defaults are the studied operating
/// point (bench/precond_ladder); all of them are deterministic.
struct PrecondOptions {
  PrecondKind kind = PrecondKind::kJacobi;

  // -- Chebyshev rung -----------------------------------------------------
  /// Polynomial degree (SpMVs per apply).  3 triples the per-iteration
  /// operator work and roughly halves the CG iteration count on the
  /// studied meshes — between Jacobi and deflation on the ladder.
  int cheby_degree = 3;
  /// Instrumented power iterations estimating λmax of D⁻¹A on the
  /// selected vspmv path (charged to the surrounding solve phase).
  int power_iterations = 8;
  /// Safety factor on the λmax estimate (power iteration approaches the
  /// true value from below; the polynomial must stay positive on the
  /// whole spectrum to keep the preconditioned operator SPD).
  double cheby_boost = 1.1;
  /// Target interval is [λmax·boost/ratio, λmax·boost]: the polynomial
  /// damps this band hard and leaves the low modes to CG itself.
  double cheby_ratio = 30.0;

  // -- deflation rung -----------------------------------------------------
  /// Fine row -> aggregate id (size n, ids dense in [0, num aggregates)).
  /// The TimeLoop fills this from fem::structured_aggregates composed
  /// with the active solve ordering; empty aggregates are rejected.
  std::vector<int> aggregates;
  /// Host coarse-solve (CG on the Galerkin operator PᵀAP) controls.
  int coarse_max_iterations = 500;
  double coarse_rel_tolerance = 1e-12;
};

struct SolveOptions {
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;  ///< on ‖r‖₂ / ‖b‖₂
  /// false disables preconditioning entirely (precond.kind is ignored and
  /// the solve runs un-preconditioned, as before the ladder existed).
  bool jacobi_precondition = true;
  /// Which ladder rung to run when preconditioning is enabled.
  PrecondOptions precond;
  /// Deterministic fault hook (sim/fault_injection.h): when set, the
  /// instrumented vcg fails immediately through its regular failure exit —
  /// same instrumented true-residual path a genuine Krylov breakdown takes
  /// — so campaigns can rehearse the retry ladder on demand.  Never set by
  /// production configs.
  bool inject_breakdown = false;
};

/// Reporting contract, honoured on EVERY exit path of every solver in this
/// library (cg/bicgstab, the instrumented vcg/ShardedCg/vbicgstab, and the
/// multi-RHS vbicgstab_multi per column):
///
///   * `residual` equals the true relative residual ‖b − A·x‖₂ / ‖b‖₂ of
///     the returned `x` — a Krylov breakdown (cg: p·Ap = 0; bicgstab:
///     r₀·v = 0, t·t = 0, ω = 0, or a failed ρ restart) never returns the
///     misleading `residual == 0, converged == false` pair, and a breakdown
///     with a residual already below tolerance (e.g. an exact initial
///     guess) reports `converged == true`.
///   * `history[0]` is the relative residual of the incoming iterate; every
///     counted iteration appends exactly one entry, and a breakdown exit
///     counts the aborted iteration (its SpMV work was spent, and for the
///     bicgstab t·t breakdown the half-step was applied) and appends the
///     true residual of the returned iterate.  Hence the length invariant
///
///         history.size() == iterations + 1   and
///         history.back() == residual
///
///     holds on convergence, budget exhaustion, breakdowns and the trivial
///     b = 0 / already-converged-guess exits alike (test_property_solvers
///     asserts it on every path).
///   * A preconditioner that cannot be built (e.g. a structurally zero
///     diagonal feeding Jacobi) is a per-solve FAILURE, not an exception
///     escaping to the caller: the solver returns with `failure` naming the
///     cause, `iterations == 0`, the untouched iterate, and the contract
///     above intact (`history == {rel0}` with the true residual of that
///     iterate) — a bad point fails its campaign row instead of aborting
///     the whole campaign.
struct SolveReport {
  bool converged = false;
  int iterations = 0;
  double residual = 0.0;      ///< final relative residual (see contract above)
  std::vector<double> history;  ///< [0] initial + one entry per iteration
  /// Non-empty: the solve could not run (preconditioner setup failed);
  /// x is the incoming iterate, untouched.
  std::string failure;
};

/// Always-on exit gate for the contract above: every solver return path in
/// this library funnels through `checked(...)` — vecfd-lint rule
/// `solve-report-history` rejects a bare `return rep;` in any function
/// returning SolveReport — so a producer that breaks the
/// `history.size() == iterations + 1` / `history.back() == residual`
/// invariant fails loudly at the exit that broke it instead of corrupting
/// downstream per-iteration analyses (the PR 4 off-by-one class).
/// @throws std::logic_error on a violated invariant.
SolveReport& checked(SolveReport& rep);

/// Per-column gate for the multi-RHS producers.
std::vector<SolveReport>& checked(std::vector<SolveReport>& reps);

/// Host conjugate gradients — for symmetric positive-definite systems.  The
/// uninstrumented reference the instrumented solvers are tested against,
/// and the deflation rung's coarse solver (preconditioner.cpp).
SolveReport cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts = {});

/// Host BiCGStab — for the nonsymmetric semi-implicit momentum operator
/// (convection makes it non-self-adjoint).  The uninstrumented reference
/// of vbicgstab / vbicgstab_multi (solver/vkernels.h).
SolveReport bicgstab(const CsrMatrix& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts = {});

/// Inverse-diagonal of @p a (the Jacobi preconditioner).
/// @throws std::runtime_error on a zero diagonal entry.
std::vector<double> jacobi_inverse_diagonal(const CsrMatrix& a);

/// In-place variant: fills @p out (resized to a.rows()), reusing its
/// storage across repeated calls — used by workspace-reusing solvers.
void jacobi_inverse_diagonal_into(const CsrMatrix& a,
                                  std::vector<double>& out);

// small BLAS-1 helpers shared by the solvers (exposed for tests)
double dot(std::span<const double> a, std::span<const double> b);

/// Trust bounds on the squared sum dot(a,a): a value inside them neither
/// overflowed nor sits so deep in the denormal range that sqrt would lose
/// the residual's precision.  Outside them (or for 0 / non-finite sums)
/// norm2 re-scans for ‖a‖∞ and evaluates the scaled m·sqrt(Σ(aᵢ/m)²)
/// instead.  Shared with the instrumented vnorm2 so host and Vpu paths
/// branch identically.
inline constexpr double kNormSumSqMin = 1e-280;
inline constexpr double kNormSumSqMax = 1e280;

/// Overflow/underflow-safe Euclidean norm.  The common path is exactly the
/// one-pass sqrt(dot(a,a)); only when the squared sum falls outside the
/// trust bounds above does a second ‖a‖∞ pass pick a scale, so norms of
/// magnitude ~1e±300 stay finite (a vector containing ±inf still reports
/// inf, and NaN propagates) and breakdown exits never misreport
/// convergence off an inf/0 norm.
double norm2(std::span<const double> a);

void axpy(double alpha, std::span<const double> x, std::span<double> y);

}  // namespace vecfd::solver
