#include "solver/vkernels.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "solver/cg_recurrence.h"
#include "solver/preconditioner.h"

namespace vecfd::solver {

namespace {

void check_len(std::size_t got, std::size_t want, const char* what) {
  if (got != want) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
}

}  // namespace

EllMatrix::EllMatrix(const CsrMatrix& a) { assign(a); }

void EllMatrix::assign(const CsrMatrix& a) {
  build(a, 0, a.rows(), a.rows(), [](int c) { return c; });
}

void EllMatrix::assign(const CsrMatrix& a, int first, int rows, int cols,
                       const std::function<int(int)>& col_of) {
  build(a, first, rows, cols, col_of);
}

template <class ColOf>
void EllMatrix::build(const CsrMatrix& a, int first, int rows, int cols,
                      ColOf&& col_of) {
  if (first < 0 || rows < 0 || first + rows > a.rows()) {
    throw std::invalid_argument("EllMatrix: row range outside the matrix");
  }
  rows_ = rows;
  cols_n_ = cols;
  width_ = 0;
  for (int r = 0; r < rows_; ++r) {
    width_ = std::max(width_, static_cast<int>(a.row_cols(first + r).size()));
  }
  const std::size_t cells =
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(rows_);
  vals_.assign(cells, 0.0);
  cols_.assign(cells, -1);  // masked pads: +0.0 and zero cache traffic
  for (int r = 0; r < rows_; ++r) {
    const auto cs = a.row_cols(first + r);
    const auto vs = a.row_vals(first + r);
    for (std::size_t j = 0; j < cs.size(); ++j) {
      const int c = col_of(cs[j]);
      if (c < 0 || c >= cols) {
        throw std::invalid_argument(
            "EllMatrix: column " + std::to_string(cs[j]) +
            " maps outside the mirror's column range");
      }
      const std::size_t k = j * static_cast<std::size_t>(rows_) +
                            static_cast<std::size_t>(r);
      vals_[k] = vs[j];
      cols_[k] = c;
    }
  }
}

int solve_effective_strip(int requested, const sim::MachineConfig& machine) {
  if (!machine.vector_enabled) return requested;  // scalar loops honour it
  return requested <= 0 || requested > machine.vlmax ? machine.vlmax
                                                     : requested;
}

ColumnBlock::ColumnBlock(std::size_t cells, int columns,
                         std::span<const char> mask, const char* what)
    : k(columns), active(mask) {
  if (k <= 0) {
    throw std::invalid_argument(std::string(what) + ": k must be positive");
  }
  if (cells % static_cast<std::size_t>(k) != 0) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
  if (!active.empty() && active.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument(std::string(what) + ": active mask size");
  }
  n = cells / static_cast<std::size_t>(k);
}

namespace {

/// One run of `rows` lanes of a column-major slab operator: the whole ELL
/// mirror, or one SELL slice.  Slab j starts at vals/cols + j·rows; slab j
/// is the pad-free unit column run coal[j] + lane when coal[j] >= 0.  The
/// vector body stores lane l to row row_base + l, or scatters it through
/// row_ids when row_base < 0; the scalar body reads row_ids when set.
struct SlabRun {
  int rows = 0;
  int width = 0;
  const double* vals = nullptr;
  const std::int32_t* cols = nullptr;
  const std::int32_t* coal = nullptr;  ///< null: every slab gathers
  int row_base = 0;
  const std::int32_t* row_ids = nullptr;
};

/// The blocked SpMV of both slab formats: Y_d = A·X_d over @p runs slab
/// runs (run_of(s), each @p run_height lanes but the last), every slab
/// value/index load feeding all active gather/fma streams.  X's columns
/// are @p x_len long; @p run_control charges the per-run loop control.
template <class RunOf>
void slab_spmv(sim::Vpu& vpu, const ColumnBlock& blk, const double* x,
               std::size_t x_len, double* y, int strip, int runs,
               int run_height, bool run_control, RunOf&& run_of) {
  for_block(vpu, blk, strip, [&](int eff) {
    // Vec accumulators hold register values; this storage is never
    // vload/vstore'd, so no canonical line ever maps to it and its free
    // cannot re-alias a measured buffer.
    // vecfd-lint: allow(measured-alloc) register-value storage, never mapped
    std::vector<sim::Vec> acc(static_cast<std::size_t>(blk.k));
    for (int s = 0; s < runs; ++s) {
      const SlabRun r = run_of(s);
      for_strips(vpu, r.rows, eff, [&](int i, int vl) {
        blk.each([&](std::size_t d, std::size_t) {
          acc[d] = vpu.vsplat(0.0);
        });
        for (int j = 0; j < r.width; ++j) {
          const std::size_t at = static_cast<std::size_t>(j) *
                                     static_cast<std::size_t>(r.rows) +
                                 static_cast<std::size_t>(i);
          const sim::Vec vv = vpu.vload(r.vals + at);
          const int c0 = r.coal != nullptr ? r.coal[j] : -1;
          sim::Vec idx;
          if (c0 < 0) idx = vpu.vload_i32(r.cols + at);
          blk.each([&](std::size_t d, std::size_t) {
            const double* xd = x + d * x_len;
            sim::Vec xs;
            if (c0 >= 0) {
              // coalescing fast path: the slab's columns are the unit run
              // c0+i .. c0+i+vl−1, so the gather degenerates to a vload
              xs = vpu.vload(xd + c0 + i);
              vpu.note_coalesced_lanes(static_cast<std::uint64_t>(vl));
            } else {
              xs = vpu.vgather(xd, idx);
            }
            acc[d] = vpu.vfma(vv, xs, acc[d]);
            vpu.sarith(1);  // stream-loop control
          });
        }
        if (r.row_base >= 0) {
          blk.each([&](std::size_t d, std::size_t off) {
            vpu.vstore(y + off + r.row_base + i, acc[d]);
          });
        } else {
          const sim::Vec ridx = vpu.vload_i32(r.row_ids + i);
          blk.each([&](std::size_t d, std::size_t off) {
            vpu.vscatter(y + off, ridx, acc[d]);
          });
        }
      });
      if (run_control) vpu.sarith(1);  // slice-loop control
    }
  }, [&](std::size_t d, std::size_t off, int q) {
    // lanes in run (memory) order; per-row accumulation in CSR order
    const int s = q / run_height;
    const SlabRun r = run_of(s);
    const int l = q - s * run_height;
    const int row =
        r.row_ids != nullptr ? vpu.sload_i32(r.row_ids + l) : r.row_base + l;
    double acc = 0.0;
    for (int j = 0; j < r.width; ++j) {
      const std::size_t at = static_cast<std::size_t>(j) *
                                 static_cast<std::size_t>(r.rows) +
                             static_cast<std::size_t>(l);
      const std::int32_t c = vpu.sload_i32(r.cols + at);
      vpu.sarith(1);  // pad-mask test
      if (c < 0) {    // masked pad lane: skipped, zero data traffic
        vpu.note_pad_lanes(1);
        continue;
      }
      const double v = vpu.sload(r.vals + at);
      const double xv = vpu.sload(x + d * x_len + c);
      acc = vpu.sfma(v, xv, acc);
      vpu.sarith(1);
    }
    vpu.sstore(y + off + row, acc);
  });
}

/// out_d = base_d + scale[d]·scaled_d (out may alias either input) — the
/// axpy, xpby and BiCGStab s / r updates.
void axpby_into_multi(sim::Vpu& vpu, std::span<const double> base,
                      std::span<const double> scale,
                      std::span<const double> scaled, std::span<double> out,
                      int k, int strip, std::span<const char> active = {}) {
  const ColumnBlock blk(out.size(), k, active, "axpby");
  check_len(base.size(), out.size(), "axpby");
  check_len(scaled.size(), out.size(), "axpby");
  check_len(scale.size(), static_cast<std::size_t>(k), "axpby");
  for_columns(vpu, blk, strip, [&](std::size_t d, std::size_t off, int i) {
    const sim::Vec vb = vpu.vload(base.data() + off + i);
    const sim::Vec vs = vpu.vload(scaled.data() + off + i);
    vpu.vstore(out.data() + off + i, vpu.vfma_s(vs, scale[d], vb));
  }, [&](std::size_t d, std::size_t off, int i) {
    const double bi = vpu.sload(base.data() + off + i);
    const double si = vpu.sload(scaled.data() + off + i);
    vpu.sstore(out.data() + off + i, vpu.sfma(si, scale[d], bi));
  });
}

/// The BiCGStab direction update: restart columns take p_d = r_d, the rest
/// p_d = r_d + beta[d]·(p_d − omega[d]·v_d).
void bicgstab_p_update_multi(sim::Vpu& vpu, std::span<const double> r,
                             std::span<const double> beta,
                             std::span<const double> omega,
                             std::span<const double> v, std::span<double> p,
                             int k, std::span<const char> restart, int strip,
                             std::span<const char> active) {
  const ColumnBlock blk(p.size(), k, active, "bicgstab_p_update");
  for_columns(vpu, blk, strip, [&](std::size_t d, std::size_t off, int i) {
    if (restart[d]) {
      vpu.vstore(p.data() + off + i, vpu.vload(r.data() + off + i));
      return;
    }
    const sim::Vec vp = vpu.vload(p.data() + off + i);
    const sim::Vec vv = vpu.vload(v.data() + off + i);
    const sim::Vec vr = vpu.vload(r.data() + off + i);
    const sim::Vec tmp = vpu.vfma_s(vv, -omega[d], vp);
    vpu.vstore(p.data() + off + i, vpu.vfma_s(tmp, beta[d], vr));
  }, [&](std::size_t d, std::size_t off, int i) {
    if (restart[d]) {
      vpu.sstore(p.data() + off + i, vpu.sload(r.data() + off + i));
      return;
    }
    const double pi = vpu.sload(p.data() + off + i);
    const double vi = vpu.sload(v.data() + off + i);
    const double ri = vpu.sload(r.data() + off + i);
    vpu.sstore(p.data() + off + i,
               vpu.sfma(vpu.sfma(vi, -omega[d], pi), beta[d], ri));
  });
}

/// SELL slice height for a solver-built mirror: the effective strip, with
/// a fixed fallback for the degenerate scalar-machine strip<=0 request
/// (layout only — the scalar fallback walks lanes either way).
int mirror_slice_height(int strip, const sim::MachineConfig& m) {
  const int eff = solve_effective_strip(strip, m);
  return eff > 0 ? eff : 64;
}

/// Breakdown exit mirroring krylov.cpp's contract (aborted iteration @p it
/// counted, true residual appended — the history.size() == iterations + 1
/// invariant), residual computed through the Vpu so the exit stays
/// instrumented.
SolveReport& vbreakdown_exit(sim::Vpu& vpu, SolveReport& rep, int it,
                             std::span<const double> r, double bnorm,
                             const SolveOptions& opts, int strip) {
  const double rel = vpu.sdiv(vnorm2(vpu, r, strip), bnorm);
  rep.iterations = it + 1;
  rep.residual = rel;
  rep.history.push_back(rel);
  if (rel < opts.rel_tolerance) rep.converged = true;
  return checked(rep);
}

/// Mirror of krylov.cpp's guard: rungs above Jacobi live on the SPD vcg
/// path only; the nonsymmetric solvers reject them loudly.
void vrequire_jacobi_rung(const SolveOptions& opts, const char* who) {
  if (opts.jacobi_precondition &&
      opts.precond.kind != PrecondKind::kJacobi) {
    throw std::invalid_argument(
        std::string(who) + ": preconditioner '" +
        to_string(opts.precond.kind) +
        "' is only available on the SPD vcg path (use vcg, or kJacobi)");
  }
}

/// Instrumented failure exit (SolveReport::failure, see krylov.h): the
/// preconditioner could not be built, the solve never ran, x is untouched.
/// The true residual of that iterate is computed through the Vpu so even
/// the failure path stays counter-priced; @p r is workspace scratch.
SolveReport& vfailure_exit(sim::Vpu& vpu, SolveReport& rep, const char* why,
                           const OperatorMirror& op, std::span<const double> b,
                           std::span<const double> x, std::span<double> r,
                           double bnorm, const SolveOptions& opts, int strip) {
  op.apply(vpu, x, r, strip);
  vsub(vpu, b, r, r, strip);
  const double rel0 = vpu.sdiv(vnorm2(vpu, r, strip), bnorm);
  rep.failure = why;
  rep.iterations = 0;
  rep.residual = rel0;
  rep.history.assign(1, rel0);
  rep.converged = rel0 < opts.rel_tolerance;
  return checked(rep);
}

}  // namespace

// ---- single-RHS kernels: the k = 1 blocked kernels ---------------------

void vspmv(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  vspmv_multi(vpu, a, x, y, 1, strip);
}

void vspmv(sim::Vpu& vpu, const SellMatrix& a, std::span<const double> x,
           std::span<double> y, int strip) {
  vspmv_multi(vpu, a, x, y, 1, strip);
}

double vdot(sim::Vpu& vpu, std::span<const double> a,
            std::span<const double> b, int strip) {
  double s = 0.0;
  vdot_multi(vpu, a, b, 1, {&s, 1}, strip);
  return s;
}

void vaxpy(sim::Vpu& vpu, double alpha, std::span<const double> x,
           std::span<double> y, int strip) {
  axpby_into_multi(vpu, y, {&alpha, 1}, x, y, 1, strip);
}

void vxpby(sim::Vpu& vpu, std::span<const double> x, double beta,
           std::span<double> y, int strip) {
  axpby_into_multi(vpu, x, {&beta, 1}, y, y, 1, strip);
}

void vsub(sim::Vpu& vpu, std::span<const double> a, std::span<const double> b,
          std::span<double> out, int strip) {
  vsub_multi(vpu, a, b, out, 1, strip);
}

void vcopy(sim::Vpu& vpu, std::span<const double> src, std::span<double> dst,
           int strip) {
  vcopy_multi(vpu, src, dst, 1, strip);
}

void vjacobi_apply(sim::Vpu& vpu, std::span<const double> dinv,
                   std::span<const double> r, std::span<double> z,
                   int strip) {
  vjacobi_apply_multi(vpu, dinv, r, z, 1, strip);
}

void OperatorMirror::apply(sim::Vpu& vpu, std::span<const double> x,
                           std::span<double> y, int strip) const {
  apply_multi(vpu, x, y, 1, strip);
}

// ---- kernels without a blocked caller (k = 1 blocks) -------------------

double vnorm2(sim::Vpu& vpu, std::span<const double> a, int strip) {
  const double s = vdot(vpu, a, a, strip);
  if (s > kNormSumSqMin && s < kNormSumSqMax) {
    return vpu.ssqrt(s);  // common path: the one-pass sum is trustworthy
  }
  // Rare rescan (mirrors norm2 in krylov.cpp): instrumented ‖a‖∞ pass
  // picks the scale, then the scaled sum — so extreme-magnitude vectors
  // cost a second pass but ordinary solves never pay for it.
  const ColumnBlock blk(a.size(), 1, {}, "vnorm2");
  double m = 0.0;
  auto keep_max = [&m](double v) {
    if (v > m || std::isnan(v)) m = v;  // NaN-propagating running max
  };
  for_columns(vpu, blk, strip, [&](std::size_t, std::size_t, int i) {
    keep_max(vpu.vredmax(vpu.vabs(vpu.vload(a.data() + i))));
    vpu.sarith(1);
  }, [&](std::size_t, std::size_t, int i) {
    keep_max(std::fabs(vpu.sload(a.data() + i)));
  });
  if (m == 0.0) return 0.0;
  if (std::isinf(m)) return m;  // an inf entry: the norm IS inf, not NaN
  double ssq = 0.0;
  for_columns(vpu, blk, strip, [&](std::size_t, std::size_t, int i) {
    const sim::Vec q = vpu.vdiv(vpu.vload(a.data() + i), vpu.vsplat(m));
    ssq = vpu.sadd(ssq, vpu.vredsum(vpu.vmul(q, q)));
  }, [&](std::size_t, std::size_t, int i) {
    const double q = vpu.sdiv(vpu.sload(a.data() + i), m);
    ssq = vpu.sfma(q, q, ssq);
  });
  return vpu.smul(m, vpu.ssqrt(ssq));
}

void vscal(sim::Vpu& vpu, double alpha, std::span<double> x, int strip) {
  for_columns(vpu, ColumnBlock(x.size(), 1, {}, "vscal"), strip,
              [&](std::size_t, std::size_t, int i) {
    vpu.vstore(x.data() + i, vpu.vmul_s(vpu.vload(x.data() + i), alpha));
  }, [&](std::size_t, std::size_t, int i) {
    vpu.sstore(x.data() + i, vpu.smul(vpu.sload(x.data() + i), alpha));
  });
}

void vfill(sim::Vpu& vpu, std::span<double> dst, double value, int strip) {
  for_columns(vpu, ColumnBlock(dst.size(), 1, {}, "vfill"), strip,
              [&](std::size_t, std::size_t, int i) {
    vpu.vstore(dst.data() + i, vpu.vsplat(value));
  }, [&](std::size_t, std::size_t, int i) {
    vpu.sstore(dst.data() + i, value);
  });
}

void vpack_strided(sim::Vpu& vpu, const double* base, std::ptrdiff_t stride,
                   std::span<double> out, int strip) {
  for_columns(vpu, ColumnBlock(out.size(), 1, {}, "vpack_strided"), strip,
              [&](std::size_t, std::size_t, int i) {
    const sim::Vec v = vpu.vload_strided(base + stride * i, stride);
    vpu.vstore(out.data() + i, v);
  }, [&](std::size_t, std::size_t, int i) {
    vpu.sstore(out.data() + i, vpu.sload(base + stride * i));
  });
}

// ---- csr-host SpMV (scalar on every machine) and the operator mirror ---

// CsrMatrix stores `int` indices; the Vpu's index loads take int32_t.  The
// two are the same type on every supported ABI — assert it so a port to an
// ILP64-style ABI fails loudly here instead of corrupting index loads.
static_assert(sizeof(int) == sizeof(std::int32_t),
              "csr-host SpMV assumes 32-bit int column indices");

void vspmv(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> x,
           std::span<double> y) {
  const int n = a.rows();
  check_len(x.size(), static_cast<std::size_t>(n), "vspmv(csr)");
  check_len(y.size(), static_cast<std::size_t>(n), "vspmv(csr)");
  for (int r = 0; r < n; ++r) {
    const auto cs = a.row_cols(r);
    const auto vs = a.row_vals(r);
    double s = 0.0;
    for (std::size_t k = 0; k < cs.size(); ++k) {
      const double v = vpu.sload(vs.data() + k);
      const std::int32_t c = vpu.sload_i32(
          reinterpret_cast<const std::int32_t*>(cs.data()) + k);
      const double xv = vpu.sload(x.data() + c);
      s = vpu.sfma(v, xv, s);
      vpu.sarith(1);
    }
    vpu.sstore(y.data() + r, s);
    vpu.sarith(1);
  }
}

void OperatorMirror::assign(const CsrMatrix& a, SpmvFormat format,
                            int slice_height) {
  format_ = format;
  rows_ = a.rows();
  csr_ = &a;
  switch (format_) {
    case SpmvFormat::kCsrHost:
      break;  // no mirror: apply() streams the host arrays
    case SpmvFormat::kEll:
      ell_.assign(a);
      break;
    case SpmvFormat::kSell:
      sell_.assign(a, slice_height);
      break;
  }
}

// ---- multi-RHS (blocked) kernels --------------------------------------

void vspmv_multi(sim::Vpu& vpu, const EllMatrix& a, std::span<const double> x,
                 std::span<double> y, int k, int strip,
                 std::span<const char> active) {
  const ColumnBlock blk(y.size(), k, active, "vspmv");
  check_len(blk.n, static_cast<std::size_t>(a.rows()), "vspmv");
  const auto x_len = static_cast<std::size_t>(a.num_cols());
  check_len(x.size(), static_cast<std::size_t>(k) * x_len, "vspmv");
  const SlabRun run{a.rows(), a.width(), a.vals(0), a.cols(0)};
  slab_spmv(vpu, blk, x.data(), x_len, y.data(), strip, 1, a.rows(), false,
            [&](int) { return run; });
}

void vspmv_multi(sim::Vpu& vpu, const SellMatrix& a,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  const ColumnBlock blk(y.size(), k, active, "vspmv(sell)");
  check_len(x.size(), y.size(), "vspmv(sell)");
  check_len(blk.n, static_cast<std::size_t>(a.rows()), "vspmv(sell)");
  slab_spmv(vpu, blk, x.data(), blk.n, y.data(), strip, a.num_slices(),
            a.slice_height(), true, [&](int s) {
    return SlabRun{a.slice_rows(s),       a.slice_width(s),
                   a.vals(s, 0),          a.cols(s, 0),
                   a.coalesced_cols(s),   a.slice_row_base(s),
                   a.row_ids(s)};
  });
}

void OperatorMirror::apply_multi(sim::Vpu& vpu, std::span<const double> x,
                                 std::span<double> y, int k, int strip,
                                 std::span<const char> active) const {
  switch (format_) {
    case SpmvFormat::kCsrHost: {
      const ColumnBlock blk(y.size(), k, active, "apply_multi(csr)");
      check_len(x.size(), y.size(), "apply_multi(csr)");
      blk.each([&](std::size_t, std::size_t off) {
        vspmv(vpu, *csr_, x.subspan(off, blk.n), y.subspan(off, blk.n));
      });
      return;
    }
    case SpmvFormat::kEll:
      vspmv_multi(vpu, ell_, x, y, k, strip, active);
      return;
    case SpmvFormat::kSell:
      vspmv_multi(vpu, sell_, x, y, k, strip, active);
      return;
  }
}

void vdot_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, int k, std::span<double> out,
                int strip, std::span<const char> active) {
  const ColumnBlock blk(a.size(), k, active, "vdot");
  check_len(b.size(), a.size(), "vdot");
  check_len(out.size(), static_cast<std::size_t>(k), "vdot");
  blk.each([&](std::size_t d, std::size_t) { out[d] = 0.0; });
  for_columns(vpu, blk, strip, [&](std::size_t d, std::size_t off, int i) {
    const sim::Vec va = vpu.vload(a.data() + off + i);
    const sim::Vec vb = vpu.vload(b.data() + off + i);
    out[d] = vpu.sadd(out[d], vpu.vredsum(vpu.vmul(va, vb)));
  }, [&](std::size_t d, std::size_t off, int i) {
    const double ai = vpu.sload(a.data() + off + i);
    const double bi = vpu.sload(b.data() + off + i);
    out[d] = vpu.sfma(ai, bi, out[d]);
  });
}

void vaxpy_multi(sim::Vpu& vpu, std::span<const double> alpha,
                 std::span<const double> x, std::span<double> y, int k,
                 int strip, std::span<const char> active) {
  axpby_into_multi(vpu, y, alpha, x, y, k, strip, active);
}

void vsub_multi(sim::Vpu& vpu, std::span<const double> a,
                std::span<const double> b, std::span<double> out, int k,
                int strip, std::span<const char> active) {
  const ColumnBlock blk(out.size(), k, active, "vsub");
  check_len(a.size(), out.size(), "vsub");
  check_len(b.size(), out.size(), "vsub");
  for_columns(vpu, blk, strip, [&](std::size_t, std::size_t off, int i) {
    const sim::Vec va = vpu.vload(a.data() + off + i);
    const sim::Vec vb = vpu.vload(b.data() + off + i);
    vpu.vstore(out.data() + off + i, vpu.vsub(va, vb));
  }, [&](std::size_t, std::size_t off, int i) {
    const double ai = vpu.sload(a.data() + off + i);
    const double bi = vpu.sload(b.data() + off + i);
    vpu.sstore(out.data() + off + i, vpu.ssub(ai, bi));
  });
}

void vcopy_multi(sim::Vpu& vpu, std::span<const double> src,
                 std::span<double> dst, int k, int strip,
                 std::span<const char> active) {
  const ColumnBlock blk(dst.size(), k, active, "vcopy");
  check_len(src.size(), dst.size(), "vcopy");
  for_columns(vpu, blk, strip, [&](std::size_t, std::size_t off, int i) {
    vpu.vstore(dst.data() + off + i, vpu.vload(src.data() + off + i));
  }, [&](std::size_t, std::size_t off, int i) {
    vpu.sstore(dst.data() + off + i, vpu.sload(src.data() + off + i));
  });
}

void vjacobi_apply_multi(sim::Vpu& vpu, std::span<const double> dinv,
                         std::span<const double> r, std::span<double> z,
                         int k, int strip, std::span<const char> active) {
  if (dinv.empty()) {
    vcopy_multi(vpu, r, z, k, strip, active);
    return;
  }
  const ColumnBlock blk(z.size(), k, active, "vjacobi_apply");
  check_len(r.size(), z.size(), "vjacobi_apply");
  check_len(dinv.size(), blk.n, "vjacobi_apply");
  for_columns(vpu, blk, strip, [&](std::size_t, std::size_t off, int i) {
    const sim::Vec vd = vpu.vload(dinv.data() + i);
    const sim::Vec vr = vpu.vload(r.data() + off + i);
    vpu.vstore(z.data() + off + i, vpu.vmul(vd, vr));
  }, [&](std::size_t, std::size_t off, int i) {
    const double di = vpu.sload(dinv.data() + i);
    const double ri = vpu.sload(r.data() + off + i);
    vpu.sstore(z.data() + off + i, vpu.smul(di, ri));
  });
}

namespace {

/// vcg's executor for cg_recurrence: one Vpu, the format-selected operator
/// mirror and the ladder rung, all over workspace buffers.
class VpuCgExec {
 public:
  VpuCgExec(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> b,
            std::span<double> x, int strip, KrylovWorkspace& ws,
            SpmvFormat format)
      : vpu_(vpu), a_(a), b_(b), x_(x), strip_(strip), ws_(ws),
        format_(format) {}

  std::string prepare(const SolveOptions& opts) {
    ws_.op.assign(a_, format_, mirror_slice_height(strip_, vpu_.config()));
    for (std::vector<double>* v : {&ws_.r, &ws_.z, &ws_.p, &ws_.q}) {
      v->assign(b_.size(), 0.0);
    }
    // Fault-plan hook (sim/fault_injection.h): fail through the regular
    // instrumented failure exit, so the report carries the true residual of
    // the untouched iterate exactly like a genuine breakdown would.
    if (opts.inject_breakdown) return "injected solver breakdown (fault plan)";
    // The ladder rung (solver/preconditioner.h).  kJacobi issues no setup
    // instructions, so that rung's stream is bit-identical to the historic
    // inline-Jacobi vcg; kCheby's power iterations run here, inside the
    // caller's phase scope, so eigenvalue estimation is counter-priced.
    if (!ws_.precond) ws_.precond = std::make_shared<Preconditioner>();
    try {
      ws_.precond->setup(vpu_, a_, ws_.op, opts, strip_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  }
  sim::Vpu& scalar() { return vpu_; }
  void mark() { vpu_.mark_iteration(); }
  double norm2(CgVec v) {
    return vnorm2(vpu_, v == CgVec::kB ? b_ : std::span<const double>(ws_.r),
                  strip_);
  }
  void zero_x() { vfill(vpu_, x_, 0.0, strip_); }
  void residual() {
    ws_.op.apply(vpu_, x_, ws_.r, strip_);
    vsub(vpu_, b_, ws_.r, ws_.r, strip_);
  }
  void precond_into_p() {
    precond();
    vcopy(vpu_, ws_.z, ws_.p, strip_);
  }
  double dot_rz() { return vdot(vpu_, ws_.r, ws_.z, strip_); }
  double spmv_dot() {
    ws_.op.apply(vpu_, ws_.p, ws_.q, strip_);
    return vdot(vpu_, ws_.p, ws_.q, strip_);
  }
  void step(double alpha) {
    vaxpy(vpu_, alpha, ws_.p, x_, strip_);
    vaxpy(vpu_, -alpha, ws_.q, ws_.r, strip_);
  }
  void precond() { ws_.precond->apply(vpu_, ws_.r, ws_.z, strip_); }
  void xpby(double beta) { vxpby(vpu_, ws_.z, beta, ws_.p, strip_); }
  SolveReport& finish(SolveReport& rep) { return checked(rep); }

 private:
  sim::Vpu& vpu_;
  const CsrMatrix& a_;
  std::span<const double> b_;
  std::span<double> x_;
  int strip_;
  KrylovWorkspace& ws_;  // q holds A·p
  SpmvFormat format_;
};

}  // namespace

SolveReport vcg(sim::Vpu& vpu, const CsrMatrix& a, std::span<const double> b,
                std::span<double> x, const SolveOptions& opts, int strip,
                KrylovWorkspace* ws, SpmvFormat format) {
  if (static_cast<int>(b.size()) != a.rows() || x.size() != b.size()) {
    throw std::invalid_argument("vcg: dimension mismatch");
  }
  KrylovWorkspace local;
  VpuCgExec ex(vpu, a, b, x, strip, ws != nullptr ? *ws : local, format);
  const sim::TapeScope tape(vpu);
  return cg_recurrence(ex, opts);
}

SolveReport vbicgstab(sim::Vpu& vpu, const CsrMatrix& a,
                      std::span<const double> b, std::span<double> x,
                      const SolveOptions& opts, int strip,
                      KrylovWorkspace* ws, SpmvFormat format) {
  // At k = 1 the blocked kernels issue the single-column stream, so this
  // is instruction for instruction the single-RHS solve.
  return vbicgstab_multi(vpu, a, b, x, 1, opts, strip, ws, format)[0];
}

std::vector<SolveReport> vbicgstab_multi(sim::Vpu& vpu, const CsrMatrix& a,
                                         std::span<const double> b,
                                         std::span<double> x, int k,
                                         const SolveOptions& opts, int strip,
                                         KrylovWorkspace* ws,
                                         SpmvFormat format) {
  if (k <= 0) {
    throw std::invalid_argument("vbicgstab_multi: k must be positive");
  }
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const std::size_t cells = n * static_cast<std::size_t>(k);
  if (b.size() != cells || x.size() != cells) {
    throw std::invalid_argument("vbicgstab_multi: dimension mismatch");
  }
  vrequire_jacobi_rung(opts, "vbicgstab_multi");
  auto bcol = [&](int d) {
    return b.subspan(static_cast<std::size_t>(d) * n, n);
  };
  auto xcol = [&](int d) {
    return x.subspan(static_cast<std::size_t>(d) * n, n);
  };
  auto ccol = [&](const std::vector<double>& blk, int d) {
    return std::span<const double>(blk).subspan(
        static_cast<std::size_t>(d) * n, n);
  };
  auto mcol = [&](std::vector<double>& blk, int d) {
    return std::span<double>(blk).subspan(static_cast<std::size_t>(d) * n, n);
  };

  const std::size_t uk = static_cast<std::size_t>(k);
  std::vector<SolveReport> reps(uk);
  std::vector<char> active(uk, 0);
  std::vector<char> restart(uk, 0);
  std::vector<double> bnorm(uk, 0.0), rho(uk, 1.0), alpha(uk, 1.0);
  std::vector<double> omega(uk, 1.0), scal(uk, 0.0), ts(uk, 0.0);
  std::vector<double> beta(uk, 0.0), negscale(uk, 0.0);
  int remaining = 0;

  // The workspace outlives the tape scope: closing a tape mid-iteration
  // re-runs its replayed prefix, which touches the workspace's lines.
  KrylovWorkspace local;
  const sim::TapeScope tape(vpu);
  for (int d = 0; d < k; ++d) {
    bnorm[static_cast<std::size_t>(d)] = vnorm2(vpu, bcol(d), strip);
    if (bnorm[static_cast<std::size_t>(d)] == 0.0) {
      vfill(vpu, xcol(d), 0.0, strip);
      reps[static_cast<std::size_t>(d)].converged = true;
      reps[static_cast<std::size_t>(d)].history.push_back(0.0);
    } else {
      active[static_cast<std::size_t>(d)] = 1;
      ++remaining;
    }
  }
  if (remaining == 0) return checked(reps);

  if (ws == nullptr) ws = &local;
  ws->op.assign(a, format, mirror_slice_height(strip, vpu.config()));
  const OperatorMirror& op = ws->op;

  std::vector<double>&R = ws->r, &R0 = ws->z, &P = ws->p, &V = ws->q;
  std::vector<double>&S = ws->s, &T = ws->t, &Phat = ws->u, &Shat = ws->w;
  std::vector<double>& dinv = ws->dinv;
  if (opts.jacobi_precondition) {
    try {
      jacobi_inverse_diagonal_into(a, dinv);
    } catch (const std::runtime_error& e) {
      // per-column instrumented failure exits; zero-RHS columns already
      // took their ordinary exit above
      R.assign(cells, 0.0);
      for (int d = 0; d < k; ++d) {
        const std::size_t ud = static_cast<std::size_t>(d);
        if (!active[ud]) continue;
        vfailure_exit(vpu, reps[ud], e.what(), op, bcol(d), xcol(d),
                      mcol(R, d), bnorm[ud], opts, strip);
      }
      return checked(reps);
    }
  } else {
    dinv.clear();
  }
  R.assign(cells, 0.0);
  R0.assign(cells, 0.0);
  P.assign(cells, 0.0);
  V.assign(cells, 0.0);
  S.assign(cells, 0.0);
  T.assign(cells, 0.0);
  Phat.assign(cells, 0.0);
  Shat.assign(cells, 0.0);

  auto retire = [&](int d) {
    active[static_cast<std::size_t>(d)] = 0;
    --remaining;
  };

  op.apply_multi(vpu, x, R, k, strip, active);
  vsub_multi(vpu, b, R, R, k, strip, active);
  for (int d = 0; d < k; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    if (!active[ud]) continue;
    const double rel0 = vpu.sdiv(vnorm2(vpu, ccol(R, d), strip), bnorm[ud]);
    reps[ud].residual = rel0;
    reps[ud].history.push_back(rel0);
    if (rel0 < opts.rel_tolerance) {
      reps[ud].converged = true;
      retire(d);
    }
  }
  if (remaining > 0) vcopy_multi(vpu, R, R0, k, strip, active);

  auto column_breakdown = [&](int d, int it, std::span<const double> res) {
    vbreakdown_exit(vpu, reps[static_cast<std::size_t>(d)], it, res,
                    bnorm[static_cast<std::size_t>(d)], opts, strip);
    retire(d);
  };

  for (int it = 0; it < opts.max_iterations && remaining > 0; ++it) {
    vpu.mark_iteration();
    vdot_multi(vpu, R0, R, k, scal, strip, active);  // per-column ρ
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      restart[ud] = it == 0 ? 1 : 0;
      if (scal[ud] == 0.0) {
        // serious breakdown in column d: restart with r0 = r (see krylov.cpp)
        vcopy(vpu, ccol(R, d), mcol(R0, d), strip);
        scal[ud] = vdot(vpu, ccol(R, d), ccol(R, d), strip);
        if (scal[ud] == 0.0) {
          column_breakdown(d, it, ccol(R, d));
          continue;
        }
        restart[ud] = 1;
      }
      if (!restart[ud]) {
        beta[ud] = vpu.smul(vpu.sdiv(scal[ud], rho[ud]),
                            vpu.sdiv(alpha[ud], omega[ud]));
      }
      rho[ud] = scal[ud];
    }
    if (remaining == 0) break;
    bicgstab_p_update_multi(vpu, R, beta, omega, V, P, k, restart, strip,
                            active);
    vjacobi_apply_multi(vpu, dinv, P, Phat, k, strip, active);
    op.apply_multi(vpu, Phat, V, k, strip, active);
    vdot_multi(vpu, R0, V, k, scal, strip, active);  // per-column r₀·v
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        column_breakdown(d, it, ccol(R, d));
        continue;
      }
      alpha[ud] = vpu.sdiv(rho[ud], scal[ud]);
      negscale[ud] = -alpha[ud];
    }
    if (remaining == 0) break;
    axpby_into_multi(vpu, R, negscale, V, S, k, strip, active);  // s = r − αv
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double srel =
          vpu.sdiv(vnorm2(vpu, ccol(S, d), strip), bnorm[ud]);
      if (srel < opts.rel_tolerance) {
        vaxpy(vpu, alpha[ud], ccol(Phat, d), xcol(d), strip);
        reps[ud].iterations = it + 1;
        reps[ud].residual = srel;
        reps[ud].history.push_back(srel);
        reps[ud].converged = true;
        retire(d);
      }
    }
    if (remaining == 0) break;
    vjacobi_apply_multi(vpu, dinv, S, Shat, k, strip, active);
    op.apply_multi(vpu, Shat, T, k, strip, active);
    vdot_multi(vpu, T, T, k, scal, strip, active);  // per-column t·t
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      if (scal[ud] == 0.0) {
        // apply the valid half-step so x matches the reported residual s
        vaxpy(vpu, alpha[ud], ccol(Phat, d), xcol(d), strip);
        column_breakdown(d, it, ccol(S, d));
      }
    }
    if (remaining == 0) break;
    vdot_multi(vpu, T, S, k, ts, strip, active);
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      omega[ud] = vpu.sdiv(ts[ud], scal[ud]);
      negscale[ud] = -omega[ud];
    }
    vaxpy_multi(vpu, alpha, Phat, x, k, strip, active);
    vaxpy_multi(vpu, omega, Shat, x, k, strip, active);
    axpby_into_multi(vpu, S, negscale, T, R, k, strip, active);  // r = s − ωt
    for (int d = 0; d < k; ++d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (!active[ud]) continue;
      const double rel = vpu.sdiv(vnorm2(vpu, ccol(R, d), strip), bnorm[ud]);
      reps[ud].history.push_back(rel);
      reps[ud].iterations = it + 1;
      reps[ud].residual = rel;
      if (rel < opts.rel_tolerance) {
        reps[ud].converged = true;
        retire(d);
        continue;
      }
      if (omega[ud] == 0.0) retire(d);  // ω breakdown: already reported
    }
  }
  return checked(reps);
}

}  // namespace vecfd::solver
