#include "solver/krylov.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace vecfd::solver {

SolveReport& checked(SolveReport& rep) {
  const bool len_ok =
      rep.history.size() == static_cast<std::size_t>(rep.iterations) + 1;
  // NaN residuals (a diverged solve) must compare equal to themselves here.
  const bool back_ok =
      !rep.history.empty() &&
      (rep.history.back() == rep.residual ||
       (std::isnan(rep.history.back()) && std::isnan(rep.residual)));
  if (!len_ok || !back_ok) {
    throw std::logic_error(
        "SolveReport contract violated at solver exit: history.size()=" +
        std::to_string(rep.history.size()) +
        ", iterations=" + std::to_string(rep.iterations) +
        " (want size == iterations + 1 and history.back() == residual; "
        "see krylov.h)");
  }
  return rep;
}

std::vector<SolveReport>& checked(std::vector<SolveReport>& reps) {
  for (SolveReport& rep : reps) checked(rep);
  return reps;
}

bool precond_from_string(std::string_view name, PrecondKind& out) {
  if (name == "jacobi") {
    out = PrecondKind::kJacobi;
  } else if (name == "cheby") {
    out = PrecondKind::kCheby;
  } else if (name == "deflate") {
    out = PrecondKind::kDeflate;
  } else {
    return false;
  }
  return true;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: dimension mismatch");
  }
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) {
  const double s = dot(a, a);
  if (s > kNormSumSqMin && s < kNormSumSqMax) {
    return std::sqrt(s);  // common path: trustworthy one-pass sum
  }
  // Rare rescan: the sum overflowed (inf/NaN), underflowed toward the
  // denormal range, or is 0 for a possibly-nonzero input.  Pick the scale
  // ‖a‖∞ and evaluate m·sqrt(Σ(aᵢ/m)²).
  double m = 0.0;
  for (const double v : a) {
    const double av = std::fabs(v);
    if (av > m || std::isnan(av)) m = av;  // NaN-propagating max
  }
  if (m == 0.0) return 0.0;
  if (std::isinf(m)) return m;  // an inf entry: the norm IS inf, not NaN
  double ssq = 0.0;
  for (const double v : a) {
    const double q = v / m;
    ssq += q * q;
  }
  return m * std::sqrt(ssq);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("axpy: dimension mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

std::vector<double> jacobi_inverse_diagonal(const CsrMatrix& a) {
  std::vector<double> inv;
  jacobi_inverse_diagonal_into(a, inv);
  return inv;
}

void jacobi_inverse_diagonal_into(const CsrMatrix& a,
                                  std::vector<double>& out) {
  const int n = a.rows();
  out.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < n; ++r) {
    const double d = a.at(r, r);
    if (d == 0.0) {
      throw std::runtime_error("jacobi preconditioner: zero diagonal at row " +
                               std::to_string(r));
    }
    out[static_cast<std::size_t>(r)] = 1.0 / d;
  }
}

namespace {
void apply_precond(const std::vector<double>& dinv,
                   std::span<const double> r, std::span<double> z) {
  if (dinv.empty()) {
    std::copy(r.begin(), r.end(), z.begin());
  } else {
    for (std::size_t i = 0; i < r.size(); ++i) z[i] = dinv[i] * r[i];
  }
}

/// Breakdown exit (see the contract in krylov.h): count the aborted
/// iteration @p it, record the true relative residual of the current
/// iterate so callers never see the misleading `residual == 0,
/// converged == false` pair, and flag convergence if the breakdown happened
/// because the residual is already below tolerance.  Keeps the
/// `history.size() == iterations + 1` invariant on the breakdown path.
SolveReport& breakdown_exit(SolveReport& rep, int it,
                            std::span<const double> r, double bnorm,
                            double rel_tolerance) {
  const double rel = norm2(r) / bnorm;
  rep.iterations = it + 1;
  rep.residual = rel;
  rep.history.push_back(rel);
  if (rel < rel_tolerance) rep.converged = true;
  return checked(rep);
}

/// The ladder beyond Jacobi lives in the instrumented SPD vcg path only
/// (solver/preconditioner.h); the nonsymmetric host/bicgstab solvers reject
/// the higher rungs loudly instead of silently running Jacobi.
void require_jacobi_rung(const SolveOptions& opts, const char* who) {
  if (opts.jacobi_precondition &&
      opts.precond.kind != PrecondKind::kJacobi) {
    throw std::invalid_argument(
        std::string(who) + ": preconditioner '" +
        to_string(opts.precond.kind) +
        "' is only available on the SPD vcg path (use vcg, or kJacobi)");
  }
}

/// Failure exit (see SolveReport::failure): the preconditioner could not
/// be built, so the solve never ran.  x is the caller's iterate untouched;
/// the contract still holds with history == {rel0} and iterations == 0.
SolveReport& failure_exit(SolveReport& rep, const char* why,
                          const CsrMatrix& a, std::span<const double> b,
                          std::span<const double> x, double bnorm,
                          double rel_tolerance) {
  std::vector<double> r(b.size());
  a.spmv(x, r);
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = b[i] - r[i];
  const double rel0 = norm2(r) / bnorm;
  rep.failure = why;
  rep.iterations = 0;
  rep.residual = rel0;
  rep.history.assign(1, rel0);
  rep.converged = rel0 < rel_tolerance;
  return checked(rep);
}
}  // namespace

SolveReport cg(const CsrMatrix& a, std::span<const double> b,
               std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != a.rows() || x.size() != n) {
    throw std::invalid_argument("cg: dimension mismatch");
  }
  require_jacobi_rung(opts, "cg");
  SolveReport rep;
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    rep.converged = true;
    rep.history.push_back(0.0);
    return checked(rep);
  }
  std::vector<double> dinv;
  if (opts.jacobi_precondition) {
    try {
      dinv = jacobi_inverse_diagonal(a);
    } catch (const std::runtime_error& e) {
      return checked(
          failure_exit(rep, e.what(), a, b, x, bnorm, opts.rel_tolerance));
    }
  }

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.spmv(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const double rel0 = norm2(r) / bnorm;
  rep.residual = rel0;
  rep.history.push_back(rel0);
  if (rel0 < opts.rel_tolerance) {
    rep.converged = true;
    return checked(rep);
  }
  apply_precond(dinv, r, z);
  p = z;
  double rz = dot(r, z);

  for (int it = 0; it < opts.max_iterations; ++it) {
    a.spmv(p, ap);
    const double pap = dot(p, ap);
    if (pap == 0.0) {
      return checked(breakdown_exit(rep, it, r, bnorm, opts.rel_tolerance));
    }
    const double alpha = rz / pap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    const double rel = norm2(r) / bnorm;
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return checked(rep);
    }
    apply_precond(dinv, r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  return checked(rep);
}

SolveReport bicgstab(const CsrMatrix& a, std::span<const double> b,
                     std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != a.rows() || x.size() != n) {
    throw std::invalid_argument("bicgstab: dimension mismatch");
  }
  require_jacobi_rung(opts, "bicgstab");
  SolveReport rep;
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    rep.converged = true;
    rep.history.push_back(0.0);
    return checked(rep);
  }
  std::vector<double> dinv;
  if (opts.jacobi_precondition) {
    try {
      dinv = jacobi_inverse_diagonal(a);
    } catch (const std::runtime_error& e) {
      return checked(
          failure_exit(rep, e.what(), a, b, x, bnorm, opts.rel_tolerance));
    }
  }

  std::vector<double> r(n), r0(n), p(n, 0.0), v(n, 0.0), s(n), t(n);
  std::vector<double> phat(n), shat(n);
  a.spmv(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const double rel0 = norm2(r) / bnorm;
  rep.residual = rel0;
  rep.history.push_back(rel0);
  if (rel0 < opts.rel_tolerance) {
    rep.converged = true;
    return checked(rep);
  }
  r0 = r;
  double rho = 1.0;
  double alpha = 1.0;
  double omega = 1.0;

  for (int it = 0; it < opts.max_iterations; ++it) {
    double rho_new = dot(r0, r);
    bool restart = it == 0;
    if (rho_new == 0.0) {
      // serious breakdown: the shadow residual became orthogonal to r
      // (common when Dirichlet rows decouple); restart with r0 = r.
      r0 = r;
      rho_new = dot(r, r);
      if (rho_new == 0.0) {
        // r is exactly zero: the iterate is an exact solution.
        return checked(breakdown_exit(rep, it, r, bnorm, opts.rel_tolerance));
      }
      restart = true;
    }
    if (restart) {
      p = r;
    } else {
      const double beta = (rho_new / rho) * (alpha / omega);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = r[i] + beta * (p[i] - omega * v[i]);
      }
    }
    rho = rho_new;
    apply_precond(dinv, p, phat);
    a.spmv(phat, v);
    const double r0v = dot(r0, v);
    if (r0v == 0.0) {
      return checked(breakdown_exit(rep, it, r, bnorm, opts.rel_tolerance));
    }
    alpha = rho / r0v;
    for (std::size_t i = 0; i < n; ++i) s[i] = r[i] - alpha * v[i];
    if (norm2(s) / bnorm < opts.rel_tolerance) {
      axpy(alpha, phat, x);
      rep.iterations = it + 1;
      rep.residual = norm2(s) / bnorm;
      rep.history.push_back(rep.residual);
      rep.converged = true;
      return checked(rep);
    }
    apply_precond(dinv, s, shat);
    a.spmv(shat, t);
    const double tt = dot(t, t);
    if (tt == 0.0) {
      // Apply the valid half-step so x is consistent with the reported
      // residual s = b - A·(x + α·p̂).
      axpy(alpha, phat, x);
      return checked(breakdown_exit(rep, it, s, bnorm, opts.rel_tolerance));
    }
    omega = dot(t, s) / tt;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * phat[i] + omega * shat[i];
      r[i] = s[i] - omega * t[i];
    }
    const double rel = norm2(r) / bnorm;
    rep.history.push_back(rel);
    rep.iterations = it + 1;
    rep.residual = rel;
    if (rel < opts.rel_tolerance) {
      rep.converged = true;
      return checked(rep);
    }
    // ω = 0 is a breakdown, but x, residual and history were just updated
    // above, so the exit already satisfies the reporting contract.
    if (omega == 0.0) break;
  }
  return checked(rep);
}

}  // namespace vecfd::solver
