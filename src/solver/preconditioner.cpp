#include "solver/preconditioner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace vecfd::solver {

namespace {

/// rc[c] = Σ r[f] over the fine members f of aggregate c — the Pᵀ
/// restriction, walked in padded column-major slabs exactly like the ELL
/// vspmv: slab j holds the j-th member of every aggregate (or −1, the
/// masked-pad convention: vgather reads +0.0 and generates no traffic).
/// All transfer values are 1.0, so the slab value load drops out and the
/// fma degrades to a vadd.  The scalar fallback accumulates in the same
/// slab order, so values are identical.
void vrestrict_sum(sim::Vpu& vpu, const std::int32_t* cols, int width, int nc,
                   std::span<const double> r, std::span<double> rc,
                   int strip) {
  const ColumnBlock blk(static_cast<std::size_t>(nc), 1, {}, "vrestrict_sum");
  for_block(vpu, blk, strip, [&](int eff) {
    for_strips(vpu, nc, eff, [&](int i, int) {
      sim::Vec acc = vpu.vsplat(0.0);
      for (int j = 0; j < width; ++j) {
        const sim::Vec idx =
            vpu.vload_i32(cols + static_cast<std::size_t>(j) * nc + i);
        const sim::Vec xs = vpu.vgather(r.data(), idx);
        acc = vpu.vadd(acc, xs);
        vpu.sarith(1);  // slab-loop control
      }
      vpu.vstore(rc.data() + i, acc);
    });
  }, [&](std::size_t, std::size_t, int c) {
    double s = 0.0;
    for (int j = 0; j < width; ++j) {
      const std::int32_t f =
          vpu.sload_i32(cols + static_cast<std::size_t>(j) * nc + c);
      vpu.sarith(1);  // pad-mask test
      if (f < 0) {    // masked pad lane: skipped, zero data traffic
        vpu.note_pad_lanes(1);
        continue;
      }
      s = vpu.sadd(s, vpu.sload(r.data() + f));
    }
    vpu.sstore(rc.data() + c, s);
  });
}

/// z[i] += alpha · zc[agg[i]] — the P prolongation, a width-1 gather
/// folded into an axpy (alpha = ±1 covers the balancing combination).
void vprolong_axpy(sim::Vpu& vpu, const std::int32_t* agg, double alpha,
                   std::span<const double> zc, std::span<double> z,
                   int strip) {
  for_columns(vpu, ColumnBlock(z.size(), 1, {}, "vprolong_axpy"), strip,
              [&](std::size_t, std::size_t, int i) {
    const sim::Vec idx = vpu.vload_i32(agg + i);
    const sim::Vec cs = vpu.vgather(zc.data(), idx);
    const sim::Vec vz = vpu.vload(z.data() + i);
    vpu.vstore(z.data() + i, vpu.vfma_s(cs, alpha, vz));
  }, [&](std::size_t, std::size_t, int i) {
    const std::int32_t c = vpu.sload_i32(agg + i);
    const double zi = vpu.sload(z.data() + i);
    const double ci = vpu.sload(zc.data() + c);
    vpu.sstore(z.data() + i, vpu.sfma(ci, alpha, zi));
  });
}

}  // namespace

void Preconditioner::setup(sim::Vpu& vpu, const CsrMatrix& a,
                           const OperatorMirror& op, const SolveOptions& opts,
                           int strip) {
  // all host-side construction first: nothing below issues an instruction
  // or touches Vpu memory until the (kCheby-only) power iterations
  op_ = &op;
  setup_host(a, opts);
  if (kind_ == PrecondKind::kCheby && !identity_) {
    setup_cheby_bounds(vpu, strip);
  }
}

void Preconditioner::setup_host(const CsrMatrix& a, const SolveOptions& opts) {
  n_ = a.rows();
  kind_ = opts.precond.kind;
  identity_ = !opts.jacobi_precondition;
  if (identity_) {
    dinv_.clear();  // vjacobi_apply on an empty diagonal degrades to copy
    return;
  }
  jacobi_inverse_diagonal_into(a, dinv_);  // throws on a zero diagonal
  const std::size_t un = static_cast<std::size_t>(n_);

  if (kind_ == PrecondKind::kCheby) {
    degree_ = std::max(1, opts.precond.cheby_degree);
    power_its_ = std::max(1, opts.precond.power_iterations);
    boost_ = opts.precond.cheby_boost;
    ratio_ = std::max(1.125, opts.precond.cheby_ratio);
    pw_v_.assign(un, 0.0);
    pw_w_.assign(un, 0.0);
    chb_pr_.assign(un, 0.0);
    chb_d_.assign(un, 0.0);
    chb_az_.assign(un, 0.0);
    // deterministic seed with components on every mode (a constant seed
    // can be exactly orthogonal to the dominant eigenvector on a
    // symmetric lattice); host-written, like every operator setup
    for (std::size_t i = 0; i < un; ++i) {
      pw_v_[i] = 1.0 + static_cast<double>((i * 2654435761u) & 1023u) / 1024.0;
    }
    return;
  }

  if (kind_ == PrecondKind::kDeflate) {
    const std::vector<int>& agg = opts.precond.aggregates;
    if (agg.size() != un) {
      throw std::invalid_argument(
          "Preconditioner: deflation aggregates must map every fine row "
          "(got " + std::to_string(agg.size()) + " for n = " +
          std::to_string(n_) + ")");
    }
    int nc = 0;
    for (const int c : agg) {
      if (c < 0) {
        throw std::invalid_argument(
            "Preconditioner: negative aggregate id");
      }
      nc = std::max(nc, c + 1);
    }
    std::vector<int> count(static_cast<std::size_t>(nc), 0);
    for (const int c : agg) ++count[static_cast<std::size_t>(c)];
    pt_width_ = 0;
    for (int c = 0; c < nc; ++c) {
      if (count[static_cast<std::size_t>(c)] == 0) {
        throw std::invalid_argument(
            "Preconditioner: empty aggregate " + std::to_string(c) +
            " (coarse operator would be singular)");
      }
      pt_width_ = std::max(pt_width_, count[static_cast<std::size_t>(c)]);
    }
    coarse_rows_ = nc;

    agg_ids_.assign(un, 0);
    for (std::size_t i = 0; i < un; ++i) {
      agg_ids_[i] = static_cast<std::int32_t>(agg[i]);
    }
    // Pᵀ slabs: slab j lists the j-th fine member (ascending id) of every
    // aggregate, −1 when the aggregate is shorter
    pt_cols_.assign(
        static_cast<std::size_t>(pt_width_) * static_cast<std::size_t>(nc),
        -1);
    std::vector<int> fill(static_cast<std::size_t>(nc), 0);
    for (int i = 0; i < n_; ++i) {
      const int c = agg[static_cast<std::size_t>(i)];
      const int j = fill[static_cast<std::size_t>(c)]++;
      pt_cols_[static_cast<std::size_t>(j) * nc + c] =
          static_cast<std::int32_t>(i);
    }

    // Galerkin coarse operator A_c = PᵀAP: every fine entry (i, j, v)
    // lands on (agg[i], agg[j]).  Host-assembled, host-solved.
    std::vector<std::vector<int>> cadj(static_cast<std::size_t>(nc));
    for (int i = 0; i < n_; ++i) {
      const int ci = agg[static_cast<std::size_t>(i)];
      for (const int j : a.row_cols(i)) {
        cadj[static_cast<std::size_t>(ci)].push_back(
            agg[static_cast<std::size_t>(j)]);
      }
    }
    coarse_ = CsrMatrix(cadj);
    for (int i = 0; i < n_; ++i) {
      const int ci = agg[static_cast<std::size_t>(i)];
      const auto cs = a.row_cols(i);
      const auto vs = a.row_vals(i);
      for (std::size_t k = 0; k < cs.size(); ++k) {
        coarse_.add(ci, agg[static_cast<std::size_t>(cs[k])], vs[k]);
      }
    }
    coarse_opts_ = SolveOptions{};
    coarse_opts_.max_iterations = opts.precond.coarse_max_iterations;
    coarse_opts_.rel_tolerance = opts.precond.coarse_rel_tolerance;
    rc_.assign(static_cast<std::size_t>(nc), 0.0);
    zc_.assign(static_cast<std::size_t>(nc), 0.0);
    df_t_.assign(un, 0.0);
    df_y_.assign(un, 0.0);
  }
}

void Preconditioner::setup_cheby_bounds(sim::Vpu& vpu, int strip) {
  // Power iteration for λmax(D⁻¹A) on the instrumented vspmv path: the
  // operator applications and normalizations are counter-priced inside
  // the caller's phase scope; the interval arithmetic below is setup
  // scalar work, uncounted like the rest of operator construction.
  double lam = 1.0;
  for (int t = 0; t < power_its_; ++t) {
    op_->apply(vpu, pw_v_, pw_w_, strip);            // w = A v
    vjacobi_apply(vpu, dinv_, pw_w_, pw_w_, strip);  // w = D⁻¹ w
    const double nrm = vnorm2(vpu, pw_w_, strip);
    if (nrm == 0.0 || !std::isfinite(nrm)) break;
    lam = nrm;
    std::swap(pw_v_, pw_w_);
    vscal(vpu, 1.0 / lam, pw_v_, strip);             // v = w / ‖w‖
  }
  lambda_max_ = lam > 0.0 && std::isfinite(lam) ? lam : 1.0;
  const double hi = lambda_max_ * boost_;
  const double lo = hi / ratio_;
  theta_ = 0.5 * (hi + lo);
  delta_ = 0.5 * (hi - lo);
}

void Preconditioner::apply(sim::Vpu& vpu, std::span<const double> r,
                           std::span<double> z, int strip) {
  if (identity_ || kind_ == PrecondKind::kJacobi) {
    // bit-identical to the historic inline Jacobi (or plain copy) path
    vjacobi_apply(vpu, dinv_, r, z, strip);
    return;
  }
  if (kind_ == PrecondKind::kCheby) {
    apply_cheby(vpu, r, z, strip);
  } else {
    apply_deflate(vpu, r, z, strip);
  }
}

void Preconditioner::apply_cheby(sim::Vpu& vpu, std::span<const double> r,
                                 std::span<double> z, int strip) {
  // Chebyshev semi-iteration on (D⁻¹A) z = D⁻¹r from z = 0 (Saad, alg.
  // 12.1), run for `degree_` updates: z_k = p_{k−1}(D⁻¹A) D⁻¹ r with the
  // error polynomial T_k((θ−λ)/δ)/T_k(θ/δ), |·| < 1 on (0, 2θ) ⊃ the
  // spectrum — so p > 0 there and M⁻¹ = p(D⁻¹A)D⁻¹ stays SPD.
  const double sigma1 = theta_ / delta_;
  vjacobi_apply(vpu, dinv_, r, chb_pr_, strip);  // pr = D⁻¹ r (the "f")
  vcopy(vpu, chb_pr_, chb_d_, strip);
  vscal(vpu, 1.0 / theta_, chb_d_, strip);       // d₀ = (1/θ)·f
  vcopy(vpu, chb_d_, z, strip);                  // z₁ = d₀
  double rho = 1.0 / sigma1;
  for (int k = 2; k <= degree_; ++k) {
    op_->apply(vpu, z, chb_az_, strip);               // az = A z
    vjacobi_apply(vpu, dinv_, chb_az_, chb_az_, strip);
    const double rho_new = 1.0 / (2.0 * sigma1 - rho);
    vsub(vpu, chb_pr_, chb_az_, chb_az_, strip);      // az = f − D⁻¹A z
    vscal(vpu, rho_new * rho, chb_d_, strip);
    vaxpy(vpu, 2.0 * rho_new / delta_, chb_az_, chb_d_, strip);
    vaxpy(vpu, 1.0, chb_d_, z, strip);                // z += d
    rho = rho_new;
  }
}

void Preconditioner::apply_deflate(sim::Vpu& vpu, std::span<const double> r,
                                   std::span<double> z, int strip) {
  // Balancing two-level correction with Q = P A_c⁻¹ Pᵀ:
  //
  //   z = Q r + (I − QA) D⁻¹ (I − AQ) r
  //
  // (I − QA) = (I − AQ)ᵀ, so the second term is Eᵀ D⁻¹ E with E = I − AQ
  // — symmetric PSD — and Q is symmetric PSD; their sum is definite (E r
  // = 0 forces r into range(AQ), where rᵀQr > 0 unless r = 0), so M⁻¹
  // stays SPD and plain CG remains valid.  Unlike the purely additive
  // D⁻¹ + Q form, the pre/post projections keep the coarse and fine
  // corrections from fighting over the low modes, which is what makes
  // the iteration count level off under refinement.  Cost per apply: two
  // fine SpMVs (instrumented, via the active format) + two coarse host
  // solves + both transfer kernels.
  vrestrict_sum(vpu, pt_cols_.data(), pt_width_, coarse_rows_, r, rc_,
                strip);
  // the coarse solve is host-side by design (DESIGN.md §8): a real
  // co-designed machine keeps the tiny serial solve off the vector unit
  std::fill(zc_.begin(), zc_.end(), 0.0);
  cg(coarse_, rc_, zc_, coarse_opts_);
  vfill(vpu, z, 0.0, strip);
  vprolong_axpy(vpu, agg_ids_.data(), 1.0, zc_, z, strip);   // z = Q r
  op_->apply(vpu, z, df_t_, strip);                          // t = A Q r
  vsub(vpu, r, df_t_, df_t_, strip);                         // t = (I−AQ) r
  vjacobi_apply(vpu, dinv_, df_t_, df_y_, strip);            // y = D⁻¹ t
  vaxpy(vpu, 1.0, df_y_, z, strip);                          // z = Q r + y
  op_->apply(vpu, df_y_, df_t_, strip);                      // t = A y
  vrestrict_sum(vpu, pt_cols_.data(), pt_width_, coarse_rows_, df_t_, rc_,
                strip);
  std::fill(zc_.begin(), zc_.end(), 0.0);
  cg(coarse_, rc_, zc_, coarse_opts_);
  vprolong_axpy(vpu, agg_ids_.data(), -1.0, zc_, z, strip);  // z −= Q A y
}

}  // namespace vecfd::solver
