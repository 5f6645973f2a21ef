// Tests for the Vpu-instrumented solve kernels (solver/vkernels.h): the
// ELL mirror, SpMV/BLAS-1 golden equality against the host kernels, the
// vcg/vbicgstab golden match against cg/bicgstab, the scalar-machine
// fallback, the long-vector AVL behaviour the co-design case rests on, and
// the kernel-stream golden (tests/golden/kernel_streams.txt): every
// registered counter each instrumented kernel leaves on a fresh Vpu.
//
// This suite links plain GTest (no gtest_main): the custom main owns the
// --regen-golden flag, which rewrites kernel_streams.txt.  Regenerate only
// for a deliberate change of a kernel's instruction stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "fem/reference_assembly.h"
#include "metrics/metrics.h"
#include "platforms/platforms.h"
#include "solver/krylov.h"
#include "solver/sell.h"
#include "solver/vkernels.h"

namespace {

using namespace vecfd;
using solver::bicgstab;
using solver::cg;
using solver::CsrMatrix;
using solver::EllMatrix;
using solver::SolveOptions;
using solver::vbicgstab;
using solver::vcg;

CsrMatrix poisson1d(int n) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i > 0) adj[static_cast<std::size_t>(i)].push_back(i - 1);
    if (i < n - 1) adj[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  CsrMatrix a(adj);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 2.0);
    if (i > 0) a.add(i, i - 1, -1.0);
    if (i < n - 1) a.add(i, i + 1, -1.0);
  }
  return a;
}

std::vector<double> random_vector(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = u(rng);
  return v;
}

double rel_l2_diff(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// The semi-implicit momentum operator of a small cavity mesh — the system
/// phase 9 solves.
struct FemSystem {
  FemSystem()
      : mesh({.nx = 4, .ny = 4, .nz = 4}),
        state(mesh),
        shape(),
        sys(fem::assemble_global(mesh, state, shape,
                                 fem::Scheme::kSemiImplicit)) {}
  fem::Mesh mesh;
  fem::State state;
  fem::ShapeTable shape;
  fem::GlobalSystem sys;
};

TEST(EllMatrix, MirrorsCsrWithMaskedPadding) {
  const CsrMatrix a = poisson1d(5);
  const EllMatrix e(a);
  EXPECT_EQ(e.rows(), 5);
  EXPECT_EQ(e.width(), 3);  // interior rows hold {-1, 2, -1}
  // row 0 has only 2 nonzeros: slab 2 must pad with the masked-lane
  // sentinel (column −1, 0.0) so the pad gathers nothing
  EXPECT_EQ(e.cols(2)[0], -1);
  EXPECT_DOUBLE_EQ(e.vals(2)[0], 0.0);
  // interior row 2, slab order follows the sorted CSR columns {1, 2, 3}
  EXPECT_EQ(e.cols(0)[2], 1);
  EXPECT_DOUBLE_EQ(e.vals(0)[2], -1.0);
  EXPECT_EQ(e.cols(1)[2], 2);
  EXPECT_DOUBLE_EQ(e.vals(1)[2], 2.0);
  EXPECT_EQ(e.num_cols(), 5);

  // row-range build with renumbered columns (a shard's restriction):
  // rows {3, 4} over columns 2..4 renumbered to 0..2
  EllMatrix part;
  part.assign(a, 3, 2, 3, [](int c) { return c - 2; });
  EXPECT_EQ(part.rows(), 2);
  EXPECT_EQ(part.num_cols(), 3);
  EXPECT_EQ(part.width(), 3);
  EXPECT_EQ(part.cols(0)[0], 0);  // row 3: columns {2, 3, 4} -> {0, 1, 2}
  EXPECT_EQ(part.cols(2)[0], 2);
  EXPECT_EQ(part.cols(1)[1], 2);  // row 4: columns {3, 4} -> {1, 2}, pad
  EXPECT_EQ(part.cols(2)[1], -1);
  EXPECT_DOUBLE_EQ(part.vals(1)[1], 2.0);
  // a column the renumbering cannot place is rejected
  EXPECT_THROW(part.assign(a, 0, 2, 3, [](int c) { return c - 2; }),
               std::invalid_argument);
}

TEST(Vspmv, MatchesHostSpmv) {
  const CsrMatrix a = poisson1d(97);  // odd size: remainder strips
  const EllMatrix e(a);
  const std::vector<double> x = random_vector(97, 7);
  std::vector<double> y_host(97), y_vpu(97);
  a.spmv(x, y_host);

  sim::Vpu vpu(platforms::riscv_vec());
  solver::vspmv(vpu, e, x, y_vpu, 64);
  for (int i = 0; i < 97; ++i) {
    EXPECT_NEAR(y_vpu[i], y_host[i], 1e-13) << "row " << i;
  }
  // the instrumented SpMV must be the paper's indexed-load workload
  EXPECT_GT(vpu.counters().vmem_indexed_instrs, 0u);  // vgather x[cols]
  EXPECT_GT(vpu.counters().vmem_unit_instrs, 0u);     // vals/cols slabs
  EXPECT_GT(vpu.counters().flops, 0u);
}

TEST(Vblas1, MatchesHostBlas1) {
  const int n = 83;
  std::vector<double> a = random_vector(n, 1);
  std::vector<double> b = random_vector(n, 2);
  sim::Vpu vpu(platforms::riscv_vec());

  EXPECT_NEAR(solver::vdot(vpu, a, b, 32), solver::dot(a, b), 1e-12);
  EXPECT_NEAR(solver::vnorm2(vpu, a, 32), solver::norm2(a), 1e-12);

  std::vector<double> y_host = b;
  std::vector<double> y_vpu = b;
  solver::axpy(0.75, a, y_host);
  solver::vaxpy(vpu, 0.75, a, y_vpu, 32);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(y_vpu[i], y_host[i], 1e-14);

  // y = x + beta·y
  std::vector<double> p_vpu = b;
  solver::vxpby(vpu, a, -0.5, p_vpu, 32);
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(p_vpu[i], a[i] - 0.5 * b[i], 1e-14);
  }

  std::vector<double> out(n);
  solver::vsub(vpu, a, b, out, 32);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(out[i], a[i] - b[i], 1e-14);

  std::vector<double> packed(n / 3);
  solver::vpack_strided(vpu, a.data(), 3, packed, 16);
  for (std::size_t i = 0; i < packed.size(); ++i) {
    EXPECT_DOUBLE_EQ(packed[i], a[3 * i]);
  }
}

TEST(Vcg, GoldenMatchAgainstHostCg) {
  const int n = 100;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 3);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 500, .rel_tolerance = 1e-12, .precond = {}};

  std::vector<double> x_host(n, 0.0);
  const auto rep_host = cg(a, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);

  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x_vpu(n, 0.0);
  const auto rep_vpu = vcg(vpu, a, b, x_vpu, opts, 128);
  ASSERT_TRUE(rep_vpu.converged);

  EXPECT_LE(rel_l2_diff(x_vpu, x_host), 1e-10);
  EXPECT_GT(vpu.counters().vector_instrs(), 0u);
  EXPECT_GT(vpu.counters().vmem_indexed_instrs, 0u);
}

TEST(Vbicgstab, GoldenMatchAgainstHostOnFemOperator) {
  FemSystem f;
  ASSERT_TRUE(f.sys.has_matrix);
  const int n = f.sys.matrix.rows();
  std::vector<double> xref(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    xref[static_cast<std::size_t>(i)] = std::sin(0.37 * i) + 0.2;
  }
  std::vector<double> b(static_cast<std::size_t>(n));
  f.sys.matrix.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 500, .rel_tolerance = 1e-12, .precond = {}};

  std::vector<double> x_host(static_cast<std::size_t>(n), 0.0);
  const auto rep_host = bicgstab(f.sys.matrix, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);

  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x_vpu(static_cast<std::size_t>(n), 0.0);
  const auto rep_vpu = vbicgstab(vpu, f.sys.matrix, b, x_vpu, opts, 240);
  ASSERT_TRUE(rep_vpu.converged) << "res=" << rep_vpu.residual;

  EXPECT_LE(rel_l2_diff(x_vpu, x_host), 1e-10);
  // and both sit on the manufactured solution
  EXPECT_LE(rel_l2_diff(x_vpu, xref), 1e-8);
}

TEST(Vkernels, ScalarMachineFallbackComputesIdenticalValues) {
  const int n = 64;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 5);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 300, .rel_tolerance = 1e-12, .precond = {}};

  sim::Vpu vpu(platforms::riscv_vec_scalar());
  std::vector<double> x(n, 0.0);
  const auto rep = vcg(vpu, a, b, x, opts, 64);
  ASSERT_TRUE(rep.converged);

  std::vector<double> x_host(n, 0.0);
  const auto rep_host = cg(a, b, x_host, opts);
  ASSERT_TRUE(rep_host.converged);
  EXPECT_LE(rel_l2_diff(x, x_host), 1e-10);

  // a scalar-only machine must not execute a single vector instruction
  EXPECT_EQ(vpu.counters().vector_instrs(), 0u);
  EXPECT_GT(vpu.counters().scalar_instrs(), 0u);
}

TEST(Vkernels, BreakdownContractMatchesHost) {
  // diag(1, -1) → CG breaks down immediately; the instrumented variant
  // must honour the same truthful-residual contract as the host solver.
  CsrMatrix a(std::vector<std::vector<int>>(2));
  a.add(0, 0, 1.0);
  a.add(1, 1, -1.0);
  std::vector<double> b{1.0, 1.0};
  sim::Vpu vpu(platforms::riscv_vec());
  std::vector<double> x(2, 0.0);
  const auto rep = vcg(vpu, a, b, x);
  EXPECT_FALSE(rep.converged);
  EXPECT_NEAR(rep.residual, 1.0, 1e-14);
  ASSERT_FALSE(rep.history.empty());
}

TEST(Vkernels, AvlApproachesVlmaxWithLargeStrips) {
  // the acceptance claim: strip-mining the solve at large VECTOR_SIZE
  // drives AVL toward vlmax — the vgather SpMV exploits long vectors.
  const int n = 1024;
  const CsrMatrix a = poisson1d(n);
  std::vector<double> xref = random_vector(n, 11);
  std::vector<double> b(n);
  a.spmv(xref, b);
  const SolveOptions opts{
      .max_iterations = 50, .rel_tolerance = 1e-10, .precond = {}};
  const int vlmax = platforms::riscv_vec().vlmax;

  auto solve_avl = [&](int strip) {
    sim::Vpu vpu(platforms::riscv_vec());
    std::vector<double> x(n, 0.0);
    (void)vcg(vpu, a, b, x, opts, strip);
    return metrics::compute(vpu.counters(), vlmax).avl;
  };

  const double avl_short = solve_avl(16);
  const double avl_long = solve_avl(512);
  EXPECT_NEAR(avl_short, 16.0, 1.0);
  EXPECT_GT(avl_long, 0.9 * vlmax);
  EXPECT_GT(avl_long, 10.0 * avl_short);
}

// ---- kernel-stream golden ------------------------------------------------

/// Inputs built from exact binary fractions (no libm, no <random>
/// distribution), so the golden is the same on every toolchain.
std::vector<double> exact_vector(std::size_t n, unsigned seed,
                                 double scale = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto h = static_cast<std::uint32_t>(i * 2654435761u + seed * 40503u);
    v[i] = scale * (static_cast<double>((h >> 16) % 2001u) / 1024.0 - 0.97);
  }
  return v;
}

/// SPD tridiagonal operator plus two long-range couplings: rows of width
/// 2 to 4, so ELL pads, and SELL (C = 16) has a scattered slice, in-order
/// slices whose slabs coalesce and an in-order slice that gathers.
CsrMatrix kernel_matrix(int n) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  auto link = [&](int r, int c) {
    adj[static_cast<std::size_t>(r)].push_back(c);
    adj[static_cast<std::size_t>(c)].push_back(r);
  };
  for (int i = 0; i + 1 < n; ++i) link(i, i + 1);
  for (int r = 1; r <= 2; ++r) link(r, r + 63);
  CsrMatrix a(adj);
  for (int r = 0; r < n; ++r) {
    a.add(r, r, 5.0 + 0.25 * (r % 5));
    for (const int c : adj[static_cast<std::size_t>(r)]) {
      a.add(r, c, c == r + 1 || c == r - 1 ? -1.0 : -0.5);
    }
  }
  return a;
}

/// FNV-1a over the bit patterns of @p v: pins the values a kernel wrote.
std::uint64_t bits_hash(std::span<const double> v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string generate_kernel_streams() {
  constexpr int n = 97;  // odd: a 64-lane strip and a 33-lane tail
  constexpr int k = 3;
  constexpr int strip = 64;
  const std::size_t un = n;
  const std::size_t uk = static_cast<std::size_t>(n) * k;
  const CsrMatrix a = kernel_matrix(n);
  const EllMatrix ell(a);
  const solver::SellMatrix sell(a, 16);
  solver::OperatorMirror csr_mirror;
  csr_mirror.assign(a, solver::SpmvFormat::kCsrHost, strip);
  const std::vector<double> x = exact_vector(un, 1);
  const std::vector<double> y0 = exact_vector(un, 2);
  const std::vector<double> dinv = exact_vector(un, 3);
  const std::vector<double> huge = exact_vector(un, 4, 1e300);
  const std::vector<double> tiny = exact_vector(un, 5, 1e-300);
  const std::vector<double> wide = exact_vector(3 * un, 6);
  const std::vector<double> X = exact_vector(uk, 7);
  const std::vector<double> Y0 = exact_vector(uk, 8);
  const std::vector<double> alpha{0.75, -0.5, 1.25};
  const std::vector<char> active{1, 0, 1};
  const std::vector<double> none;

  using Run = std::function<std::vector<double>(sim::Vpu&)>;
  struct Case {
    const char* name;
    Run run;  ///< returns the values the kernel produced
  };
  auto solve_opts = [](int iterations, solver::PrecondKind kind) {
    SolveOptions o;
    o.max_iterations = iterations;
    o.rel_tolerance = 1e-30;  // run every iteration
    o.precond.kind = kind;
    if (kind == solver::PrecondKind::kDeflate) {
      for (int i = 0; i < n; ++i) o.precond.aggregates.push_back(i / 8);
    }
    return o;
  };
  const std::vector<Case> cases = {
      {"vspmv_ell", [&](sim::Vpu& v) {
         std::vector<double> y(un);
         solver::vspmv(v, ell, x, y, strip);
         return y;
       }},
      {"vspmv_sell", [&](sim::Vpu& v) {
         std::vector<double> y(un);
         solver::vspmv(v, sell, x, y, strip);
         return y;
       }},
      {"vspmv_csr", [&](sim::Vpu& v) {
         std::vector<double> y(un);
         solver::vspmv(v, a, x, y);
         return y;
       }},
      {"vdot", [&](sim::Vpu& v) {
         return std::vector<double>{solver::vdot(v, x, y0, strip)};
       }},
      {"vnorm2", [&](sim::Vpu& v) {
         return std::vector<double>{solver::vnorm2(v, x, strip)};
       }},
      {"vnorm2_rescan_huge", [&](sim::Vpu& v) {
         return std::vector<double>{solver::vnorm2(v, huge, strip)};
       }},
      {"vnorm2_rescan_tiny", [&](sim::Vpu& v) {
         return std::vector<double>{solver::vnorm2(v, tiny, strip)};
       }},
      {"vaxpy", [&](sim::Vpu& v) {
         std::vector<double> y = y0;
         solver::vaxpy(v, 0.75, x, y, strip);
         return y;
       }},
      {"vxpby", [&](sim::Vpu& v) {
         std::vector<double> y = y0;
         solver::vxpby(v, x, -0.5, y, strip);
         return y;
       }},
      {"vsub", [&](sim::Vpu& v) {
         std::vector<double> out(un);
         solver::vsub(v, x, y0, out, strip);
         return out;
       }},
      {"vcopy", [&](sim::Vpu& v) {
         std::vector<double> out(un);
         solver::vcopy(v, x, out, strip);
         return out;
       }},
      {"vscal", [&](sim::Vpu& v) {
         std::vector<double> y = y0;
         solver::vscal(v, -1.5, y, strip);
         return y;
       }},
      {"vfill", [&](sim::Vpu& v) {
         std::vector<double> y(un);
         solver::vfill(v, y, 0.25, strip);
         return y;
       }},
      {"vjacobi_apply", [&](sim::Vpu& v) {
         std::vector<double> z(un);
         solver::vjacobi_apply(v, dinv, x, z, strip);
         return z;
       }},
      {"vjacobi_apply_nodiag", [&](sim::Vpu& v) {
         std::vector<double> z(un);
         solver::vjacobi_apply(v, none, x, z, strip);
         return z;
       }},
      {"vpack_strided", [&](sim::Vpu& v) {
         std::vector<double> out(un);
         solver::vpack_strided(v, wide.data(), 3, out, strip);
         return out;
       }},
      {"vspmv_multi_ell", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vspmv_multi(v, ell, X, Y, k, strip, active);
         return Y;
       }},
      {"vspmv_multi_sell", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vspmv_multi(v, sell, X, Y, k, strip, active);
         return Y;
       }},
      {"apply_multi_csr", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         csr_mirror.apply_multi(v, X, Y, k, strip, active);
         return Y;
       }},
      {"vdot_multi", [&](sim::Vpu& v) {
         std::vector<double> out(k, -1.0);
         solver::vdot_multi(v, X, Y0, k, out, strip, active);
         return out;
       }},
      {"vaxpy_multi", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vaxpy_multi(v, alpha, X, Y, k, strip, active);
         return Y;
       }},
      {"vsub_multi", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vsub_multi(v, X, Y0, Y, k, strip, active);
         return Y;
       }},
      {"vcopy_multi", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vcopy_multi(v, X, Y, k, strip, active);
         return Y;
       }},
      {"vjacobi_apply_multi", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vjacobi_apply_multi(v, dinv, X, Y, k, strip, active);
         return Y;
       }},
      {"vjacobi_apply_multi_nodiag", [&](sim::Vpu& v) {
         std::vector<double> Y = Y0;
         solver::vjacobi_apply_multi(v, none, X, Y, k, strip, active);
         return Y;
       }},
      // The solvers reach the internal kernels: the axpby and BiCGStab
      // direction updates (single and blocked), the Chebyshev rescale and
      // the deflation transfers.
      {"vbicgstab", [&](sim::Vpu& v) {
         std::vector<double> xs(un, 0.0);
         (void)solver::vbicgstab(
             v, a, y0, xs, solve_opts(3, solver::PrecondKind::kJacobi), strip);
         return xs;
       }},
      {"vbicgstab_multi", [&](sim::Vpu& v) {
         std::vector<double> xs(uk, 0.0);
         (void)solver::vbicgstab_multi(
             v, a, Y0, xs, k, solve_opts(3, solver::PrecondKind::kJacobi),
             strip);
         return xs;
       }},
      {"vcg_cheby", [&](sim::Vpu& v) {
         std::vector<double> xs(un, 0.0);
         (void)vcg(v, a, y0, xs, solve_opts(2, solver::PrecondKind::kCheby),
                   strip);
         return xs;
       }},
      {"vcg_deflate", [&](sim::Vpu& v) {
         std::vector<double> xs(un, 0.0);
         (void)vcg(v, a, y0, xs, solve_opts(2, solver::PrecondKind::kDeflate),
                   strip);
         return xs;
       }},
  };

  std::ostringstream os;
  os << "# machine kernel counter value: every registered counter on a "
        "fresh Vpu (doubles as hexfloat); `out` is the FNV-1a hash of the "
        "values written.  Rewrite: test_solver_vkernels --regen-golden\n";
  char buf[64];
  for (const sim::MachineConfig& m :
       {platforms::riscv_vec(), platforms::riscv_vec_scalar()}) {
    for (const Case& c : cases) {
      sim::Vpu vpu(m);
      const std::vector<double> out = c.run(vpu);
      const std::string tag = m.name + " " + c.name + " ";
      std::snprintf(buf, sizeof buf, "%016llx",
                    static_cast<unsigned long long>(bits_hash(out)));
      os << tag << "out " << buf << '\n';
      vpu.counters().visit([&](const sim::CounterInfo& info, const auto& v) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
          std::snprintf(buf, sizeof buf, "%a", v);
        } else {
          std::snprintf(buf, sizeof buf, "%llu",
                        static_cast<unsigned long long>(v));
        }
        os << tag << info.name << ' ' << buf << '\n';
      });
    }
  }
  return os.str();
}

const char* const kStreamsGolden = VECFD_GOLDEN_DIR "/kernel_streams.txt";

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(Vkernels, KernelStreamsMatchGolden) {
  std::ifstream is(kStreamsGolden, std::ios::binary);
  std::ostringstream golden;
  golden << is.rdbuf();
  const auto want = lines_of(golden.str());
  ASSERT_FALSE(want.empty())
      << "missing " << kStreamsGolden
      << " — regenerate with: test_solver_vkernels --regen-golden";
  const auto got = lines_of(generate_kernel_streams());
  ASSERT_EQ(got.size(), want.size()) << "kernel/counter set changed";
  int mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i] && ++mismatches <= 20) {
      ADD_FAILURE() << "line " << i + 1 << ": got '" << got[i]
                    << "', golden '" << want[i] << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--regen-golden") continue;
    std::ofstream os(kStreamsGolden, std::ios::binary);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", kStreamsGolden);
      return 1;
    }
    os << generate_kernel_streams();
    std::printf("regenerated %s\n", kStreamsGolden);
    return 0;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
