#include "solver/sharding.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/parallel.h"
#include "solver/cg_recurrence.h"
#include "solver/vkernels.h"

namespace vecfd::solver {

int ShardPlan::owner(int g) const {
  // Last p with bounds[p] <= g: empty shards share their neighbour's bound
  // and can never contain g, so upper_bound lands on the real owner.
  const auto it = std::upper_bound(bounds.begin(), bounds.end(), g);
  int p = static_cast<int>(it - bounds.begin()) - 1;
  if (p < 0) p = 0;
  if (p >= shards) p = shards - 1;
  return p;
}

int ShardPlan::local_index(int p, int g) const {
  const std::size_t sp = static_cast<std::size_t>(p);
  if (g >= bounds[sp] && g < bounds[sp + 1]) return g - bounds[sp];
  const auto& gh = ghosts[sp];
  const auto it = std::lower_bound(gh.begin(), gh.end(), g);
  if (it != gh.end() && *it == g) {
    return num_owned(p) + static_cast<int>(it - gh.begin());
  }
  return -1;
}

std::vector<int> strip_bounds(int n, int shards, int quantum) {
  if (n < 0 || shards < 1 || quantum < 1) {
    throw std::invalid_argument("strip_bounds: need n >= 0, shards >= 1, "
                                "quantum >= 1");
  }
  std::vector<int> b(static_cast<std::size_t>(shards) + 1, 0);
  for (int p = 1; p < shards; ++p) {
    // round-half-up of p*n / (shards*quantum), in exact integer arithmetic
    const long long num = 2LL * p * n + 1LL * shards * quantum;
    const long long den = 2LL * shards * quantum;
    long long bp = static_cast<long long>(quantum) * (num / den);
    if (bp > n) bp = n;
    if (bp < b[static_cast<std::size_t>(p) - 1]) {
      bp = b[static_cast<std::size_t>(p) - 1];
    }
    b[static_cast<std::size_t>(p)] = static_cast<int>(bp);
  }
  b[static_cast<std::size_t>(shards)] = n;
  return b;
}

ShardedCg::ShardedCg(ShardPlan plan, const CsrMatrix& a,
                     const sim::MachineConfig& machine, int strip, int phase,
                     int num_phases)
    : plan_(std::move(plan)), phase_(phase) {
  if (!machine.vector_enabled) {
    throw std::invalid_argument(
        "ShardedCg: vector machines only (the scalar dot recurrence is a "
        "sequential sfma chain and does not decompose over shards)");
  }
  strip_ = solve_effective_strip(strip, machine);
  if (plan_.quantum != strip_) {
    throw std::invalid_argument(
        "ShardedCg: plan quantum must equal the effective strip so global "
        "strips never straddle shards");
  }
  if (plan_.size() != a.rows() ||
      static_cast<int>(plan_.ghosts.size()) != plan_.shards ||
      static_cast<int>(plan_.bounds.size()) != plan_.shards + 1) {
    throw std::invalid_argument("ShardedCg: malformed plan");
  }
  // Global inverse diagonal FIRST: a zero diagonal throws here, before any
  // shard state exists, so the caller can fall back to the single-Vpu vcg
  // and reproduce its instrumented SolveReport::failure exit bit for bit.
  const std::vector<double> dinv_global = jacobi_inverse_diagonal(a);

  const int line_bytes = machine.memory.l1.line_bytes;
  shards_.resize(static_cast<std::size_t>(plan_.shards));
  std::vector<std::vector<sim::HaloBlock>> blocks(
      static_cast<std::size_t>(plan_.shards));
  for (int p = 0; p < plan_.shards; ++p) {
    Shard& sh = shards_[static_cast<std::size_t>(p)];
    sh.vpu = std::make_unique<sim::Vpu>(machine, num_phases);
    sh.rows = plan_.num_owned(p);
    const int base = plan_.bounds[static_cast<std::size_t>(p)];
    const std::size_t rows = static_cast<std::size_t>(sh.rows);
    const std::size_t lsize = static_cast<std::size_t>(plan_.local_size(p));
    sh.x.assign(lsize, 0.0);
    sh.p.assign(lsize, 0.0);
    sh.b.assign(rows, 0.0);
    sh.r.assign(rows, 0.0);
    sh.z.assign(rows, 0.0);
    sh.ap.assign(rows, 0.0);
    sh.dinv.assign(dinv_global.begin() + base,
                   dinv_global.begin() + base + sh.rows);
    sh.partials.reserve(rows == 0 ? 0 : (rows - 1) / strip_ + 1);

    // throws when a column lies outside the overlap-1 ghost closure
    sh.op.assign(a, base, sh.rows, plan_.local_size(p),
                [&](int c) { return plan_.local_index(p, c); });

    // Ghosts are sorted by global id and ownership ranges ascend, so each
    // owner's contribution is one contiguous run of the ghost list.
    const auto& gh = plan_.ghosts[static_cast<std::size_t>(p)];
    std::size_t i = 0;
    while (i < gh.size()) {
      const int owner = plan_.owner(gh[i]);
      sim::HaloBlock blk;
      blk.src_shard = owner;
      blk.dst_begin = sh.rows + static_cast<int>(i);
      const int src_base = plan_.bounds[static_cast<std::size_t>(owner)];
      while (i < gh.size() && plan_.owner(gh[i]) == owner) {
        blk.src_local.push_back(gh[i] - src_base);
        ++i;
      }
      blocks[static_cast<std::size_t>(p)].push_back(std::move(blk));
    }
  }
  halo_ = std::make_unique<sim::HaloExchange>(std::move(blocks), line_bytes);
  for (const Shard& sh : shards_) vpu_ptrs_.push_back(sh.vpu.get());
  local_ptrs_.assign(static_cast<std::size_t>(plan_.shards), nullptr);
  epoch_last_.assign(static_cast<std::size_t>(plan_.shards), 0.0);
}

void ShardedCg::reset() {
  for (Shard& sh : shards_) sh.vpu->reset();
  std::fill(epoch_last_.begin(), epoch_last_.end(), 0.0);
  makespan_ = 0.0;
}

void ShardedCg::sync_epoch() {
  double mx = 0.0;
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    const double now = shards_[p].vpu->counters().total_cycles();
    const double delta = now - epoch_last_[p];
    epoch_last_[p] = now;
    if (delta > mx) mx = delta;
  }
  makespan_ += mx;
}

template <class Fn>
void ShardedCg::for_shards(Fn&& fn) {
  core::parallel_for_index(
      shards_.size(), static_cast<int>(shards_.size()), [&](std::size_t p) {
        Shard& sh = shards_[p];
        sim::ScopedPhase scope(sh.vpu->profiler(), phase_);
        fn(sh);
      });
  sync_epoch();
}

double ShardedCg::fold_sum(sim::Vpu& coord) const {
  // Global strip order: shard partial lists concatenate in shard order
  // because ownership ranges ascend — the exact sadd recurrence of vdot.
  double s = 0.0;
  for (const Shard& sh : shards_) {
    for (const double part : sh.partials) s = coord.sadd(s, part);
  }
  return s;
}

double ShardedCg::fold_max() const {
  // NaN-sticky running max over the global strip sequence, mirroring the
  // vnorm2 rescan combine (host-side there too — no instruction charged).
  double m = 0.0;
  for (const Shard& sh : shards_) {
    for (const double sm : sh.partials) {
      if (sm > m || std::isnan(sm)) m = sm;
    }
  }
  return m;
}

void ShardedCg::seg_dot_partials(Shard& sh, const double* a,
                                 const double* bb) const {
  sim::Vpu& vpu = *sh.vpu;
  sh.partials.clear();
  for_strips(vpu, sh.rows, strip_, [&](int i, int) {
    const sim::Vec va = vpu.vload(a + i);
    const sim::Vec vb = vpu.vload(bb + i);
    sh.partials.push_back(vpu.vredsum(vpu.vmul(va, vb)));
  });
}

void ShardedCg::seg_max_partials(Shard& sh, const double* a) const {
  sim::Vpu& vpu = *sh.vpu;
  sh.partials.clear();
  for_strips(vpu, sh.rows, strip_, [&](int i, int) {
    sh.partials.push_back(vpu.vredmax(vpu.vabs(vpu.vload(a + i))));
    vpu.sarith(1);  // running-max combine, as in the vnorm2 rescan
  });
}

void ShardedCg::seg_scaled_partials(Shard& sh, const double* a,
                                    double m) const {
  sim::Vpu& vpu = *sh.vpu;
  sh.partials.clear();
  for_strips(vpu, sh.rows, strip_, [&](int i, int) {
    const sim::Vec q = vpu.vdiv(vpu.vload(a + i), vpu.vsplat(m));
    sh.partials.push_back(vpu.vredsum(vpu.vmul(q, q)));
  });
}

double ShardedCg::sharded_norm2(sim::Vpu& coord, Vec v) {
  for_shards([&](Shard& sh) {
    seg_dot_partials(sh, (sh.*v).data(), (sh.*v).data());
  });
  const double s = fold_sum(coord);
  if (s > kNormSumSqMin && s < kNormSumSqMax) {
    return coord.ssqrt(s);
  }
  for_shards([&](Shard& sh) { seg_max_partials(sh, (sh.*v).data()); });
  const double m = fold_max();
  if (m == 0.0) return 0.0;
  if (std::isinf(m)) return m;
  for_shards([&](Shard& sh) { seg_scaled_partials(sh, (sh.*v).data(), m); });
  const double ssq = fold_sum(coord);
  return coord.smul(m, coord.ssqrt(ssq));
}

double ShardedCg::sharded_dot(sim::Vpu& coord, Vec a, Vec b) {
  for_shards([&](Shard& sh) {
    seg_dot_partials(sh, (sh.*a).data(), (sh.*b).data());
  });
  return fold_sum(coord);
}

void ShardedCg::exchange_into(Vec v) {
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    local_ptrs_[p] = (shards_[p].*v).data();
    vpu_ptrs_[p]->profiler().begin(phase_);
  }
  halo_->exchange(vpu_ptrs_, local_ptrs_);
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    vpu_ptrs_[p]->profiler().end(phase_);
  }
}

namespace {

/// The owned prefix of a shard's local (owned + ghost) vector.
std::span<double> owned(std::vector<double>& v, int rows) {
  return {v.data(), static_cast<std::size_t>(rows)};
}

}  // namespace

/// ShardedCg's executor for cg_recurrence: every vector verb is one BSP
/// epoch over the shard Vpus (ghosts refreshed first where A is applied),
/// every reduction folds on the coordinator, which also carries the scalar
/// recurrence.
struct ShardedCg::Exec {
  ShardedCg& cg;
  sim::Vpu& coord;
  std::span<double> x;
  double coord0;  ///< coordinator cycles at solve entry

  // The Jacobi inverse diagonal was built — and a zero diagonal rejected —
  // by the constructor, so nothing here can fail.
  std::string prepare(const SolveOptions&) { return {}; }
  sim::Vpu& scalar() { return coord; }
  // The coordinator issues no memory instruction: only the shards tape.
  void mark() {
    for (Shard& sh : cg.shards_) sh.vpu->mark_iteration();
  }
  double norm2(CgVec v) {
    return cg.sharded_norm2(coord, v == CgVec::kB ? &Shard::b : &Shard::r);
  }
  void zero_x() {
    cg.for_shards([&](Shard& sh) {
      vfill(*sh.vpu, owned(sh.x, sh.rows), 0.0, cg.strip_);
    });
  }
  void residual() {
    cg.exchange_into(&Shard::x);
    cg.for_shards([&](Shard& sh) {
      vspmv(*sh.vpu, sh.op, sh.x, sh.ap, cg.strip_);
      vsub(*sh.vpu, sh.b, sh.ap, sh.r, cg.strip_);
    });
  }
  void precond_into_p() {
    cg.for_shards([&](Shard& sh) {
      vjacobi_apply(*sh.vpu, sh.dinv, sh.r, sh.z, cg.strip_);
      vcopy(*sh.vpu, sh.z, owned(sh.p, sh.rows), cg.strip_);
    });
  }
  double dot_rz() { return cg.sharded_dot(coord, &Shard::r, &Shard::z); }
  double spmv_dot() {
    cg.exchange_into(&Shard::p);
    cg.for_shards([&](Shard& sh) {
      vspmv(*sh.vpu, sh.op, sh.p, sh.ap, cg.strip_);
      cg.seg_dot_partials(sh, sh.p.data(), sh.ap.data());
    });
    return cg.fold_sum(coord);
  }
  void step(double alpha) {
    cg.for_shards([&](Shard& sh) {
      vaxpy(*sh.vpu, alpha, owned(sh.p, sh.rows), owned(sh.x, sh.rows),
            cg.strip_);
      vaxpy(*sh.vpu, -alpha, sh.ap, sh.r, cg.strip_);
    });
  }
  void precond() {
    cg.for_shards([&](Shard& sh) {
      vjacobi_apply(*sh.vpu, sh.dinv, sh.r, sh.z, cg.strip_);
    });
  }
  void xpby(double beta) {
    cg.for_shards([&](Shard& sh) {
      vxpby(*sh.vpu, sh.z, beta, owned(sh.p, sh.rows), cg.strip_);
    });
  }
  SolveReport& finish(SolveReport& rep) {
    for (std::size_t p = 0; p < cg.shards_.size(); ++p) {
      const Shard& sh = cg.shards_[p];
      std::copy(sh.x.begin(), sh.x.begin() + sh.rows,
                x.begin() + cg.plan_.bounds[p]);
    }
    cg.makespan_ += coord.counters().total_cycles() - coord0;
    return checked(rep);
  }
};

SolveReport ShardedCg::solve(sim::Vpu& coord, std::span<const double> b,
                             std::span<double> x, const SolveOptions& opts) {
  const std::size_t n = b.size();
  if (static_cast<int>(n) != plan_.size() || x.size() != n) {
    throw std::invalid_argument("ShardedCg::solve: dimension mismatch");
  }
  if (!opts.jacobi_precondition ||
      opts.precond.kind != PrecondKind::kJacobi) {
    throw std::invalid_argument(
        "ShardedCg::solve: only the kJacobi rung is sharded (other rungs "
        "take the single-Vpu vcg executor)");
  }
  // Initial owned-data distribution: host-side marshalling, deliberately
  // uncounted (it is data placement, not halo traffic).
  for (std::size_t p = 0; p < shards_.size(); ++p) {
    Shard& sh = shards_[p];
    const int base = plan_.bounds[p];
    std::copy(b.begin() + base, b.begin() + base + sh.rows, sh.b.begin());
    std::copy(x.begin() + base, x.begin() + base + sh.rows, sh.x.begin());
  }
  Exec ex{*this, coord, x, coord.counters().total_cycles()};
  const sim::TapeScope tapes(vpu_ptrs_);
  return cg_recurrence(ex, opts);
}

}  // namespace vecfd::solver
