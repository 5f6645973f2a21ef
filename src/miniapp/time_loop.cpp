#include "miniapp/time_loop.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "fem/partition.h"
#include "fem/projection.h"
#include "miniapp/checkpoint.h"
#include "solver/vkernels.h"

namespace vecfd::miniapp {

namespace {

/// Deflation coarse space: lattice blocks of 2³ nodes.  Small blocks keep
/// the coarse space rich enough that the pressure iteration count levels
/// off under refinement (the property bench/precond_ladder gates on).
constexpr int kDeflationAggregateFactor = 2;

/// Turn row r of @p a into the identity row for every fixed node: the
/// Dirichlet value lands in the RHS and the solution exactly carries it.
/// Columns are left intact so interior rows keep their coupling to the
/// boundary values (correct for the nonsymmetric momentum operator).
void impose_dirichlet_rows(solver::CsrMatrix& a,
                           const std::vector<char>& fixed) {
  for (int r = 0; r < a.rows(); ++r) {
    if (!fixed[static_cast<std::size_t>(r)]) continue;
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      vals[k] = cols[k] == r ? 1.0 : 0.0;
    }
  }
}

/// zero-diag fault (sim/fault_injection.h): knock out the first diagonal
/// entry of the momentum operator AFTER the Dirichlet pass, so the Jacobi
/// setup of every component solve exits through its instrumented
/// SolveReport::failure path.
void inject_zero_diagonal(solver::CsrMatrix& a) {
  const auto cols = a.row_cols(0);
  const auto vals = a.row_vals(0);
  for (std::size_t k = 0; k < cols.size(); ++k) {
    if (cols[k] == 0) vals[k] = 0.0;
  }
}

MiniAppConfig make_app_config(const TimeLoopConfig& cfg) {
  MiniAppConfig app;
  app.vector_size = cfg.vector_size;
  app.scheme = fem::Scheme::kSemiImplicit;
  app.opt = cfg.opt;
  app.run_solve = false;  // the loop runs its own instrumented solves
  return app;
}

std::array<double, fem::kDim> filled(double v) {
  std::array<double, fem::kDim> a;
  a.fill(v);
  return a;
}

}  // namespace

// ---- solve space ---------------------------------------------------------

TimeLoop::SolveSpace::SolveSpace(const fem::Mesh& mesh)
    : perm_(fem::rcm_ordering(mesh.node_adjacency())) {
  // One RCM ordering serves both solves (momentum and pressure share the
  // node-adjacency pattern).
  const solver::CsrMatrix pattern(mesh.node_adjacency());
  mom_perm_ = solver::permute_symmetric(pattern, perm_);
  mom_value_map_.resize(pattern.nnz());
  const auto rowptr = mom_perm_.rowptr();
  for (int q = 0; q < mom_perm_.rows(); ++q) {
    const auto cs = mom_perm_.row_cols(q);
    const int old_row = perm_[static_cast<std::size_t>(q)];
    for (std::size_t k = 0; k < cs.size(); ++k) {
      mom_value_map_[static_cast<std::size_t>(rowptr[q]) + k] =
          pattern.find(old_row, perm_[static_cast<std::size_t>(cs[k])]);
    }
  }
}

std::size_t TimeLoop::SolveSpace::node_index(std::size_t i) const {
  if (perm_.empty()) return i;
  const std::size_t q = i % perm_.size();
  return i - q + static_cast<std::size_t>(perm_[q]);
}

template <class Src, class Dst>
void TimeLoop::SolveSpace::to_solve_order(const Src& src, Dst&& dst) const {
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[node_index(i)];
}

template <class Src, class Dst>
void TimeLoop::SolveSpace::from_solve_order(const Src& src, Dst&& dst) const {
  for (std::size_t i = 0; i < src.size(); ++i) dst[node_index(i)] = src[i];
}

const solver::CsrMatrix& TimeLoop::SolveSpace::momentum(
    const solver::CsrMatrix& k) {
  if (perm_.empty()) return k;
  const auto sv = k.vals();
  const auto pv = mom_perm_.vals();
  for (std::size_t i = 0; i < mom_value_map_.size(); ++i) {
    pv[i] = sv[static_cast<std::size_t>(mom_value_map_[i])];
  }
  return mom_perm_;
}

template <class Solve>
auto TimeLoop::SolveSpace::solve(std::span<const double> b,
                                 std::span<double> x, Scratch& scratch,
                                 std::size_t at, Solve&& fn) const {
  if (perm_.empty()) return fn(b, x);
  const auto bp = std::span<double>(scratch.b).subspan(at, b.size());
  const auto xp = std::span<double>(scratch.x).subspan(at, x.size());
  to_solve_order(b, bp);
  to_solve_order(x, xp);
  auto report = fn(std::span<const double>(bp), xp);
  from_solve_order(xp, x);
  return report;
}

// ---- machines and step context ---------------------------------------------

/// The machines of one run: the caller's coordinator Vpu and, when the
/// sharded pressure path is on, one Vpu per shard.  Every aggregate walks
/// them in ONE order — coordinator first, then shards by index — so the
/// double-typed cycle counters associate identically in the uninterrupted
/// and the resumed run.
struct TimeLoop::MachineGroup {
  sim::Vpu& coord;
  std::unique_ptr<solver::ShardedCg> sharded;

  template <class Fn>
  void each(Fn&& fn) const {
    fn(coord, false);
    for (int p = 0; sharded && p < sharded->shards(); ++p) {
      fn(sharded->shard_vpu(p), true);
    }
  }

  /// {coordinator, Σ shard} cycles: the two clocks of StepReport::cycles.
  std::pair<double, double> clock() const {
    std::pair<double, double> c{0.0, 0.0};
    each([&c](const sim::Vpu& v, bool shard) {
      (shard ? c.second : c.first) += v.counters().total_cycles();
    });
    return c;
  }

  /// carried ⊕ coordinator ⊕ shard 0..P−1, totals and per phase together.
  /// The critical path is the carried ShardedCg makespan plus this epoch's
  /// when the sharded path runs, otherwise the phase-10 serial total.
  void fold_into(sim::Counters& total, std::vector<sim::Counters>& phase,
                 double& makespan) const {
    phase.resize(static_cast<std::size_t>(kNumInstrumentedPhases) + 1);
    each([&](const sim::Vpu& v, bool) {
      total += v.counters();
      for (int p = 0; p <= kNumInstrumentedPhases; ++p) {
        phase[static_cast<std::size_t>(p)] += v.profiler().phase(p);
      }
    });
    makespan = sharded ? makespan + sharded->makespan_cycles()
                       : phase[kPressurePhase].total_cycles();
  }

  /// Caches cold, canonical first-touch maps forgotten, counters zeroed.
  void reset() {
    if (sharded) sharded->reset();
    coord.reset();
  }
};

/// Everything one run() works in.  Every buffer the Vpu touches is
/// allocated here once, before the first step, and reused in place: the
/// deterministic memory model renames host lines in first-touch order, so
/// mid-measurement free/realloc churn of touched buffers would couple cache
/// behaviour to allocator history (see mem/memory_hierarchy.h).  The Krylov
/// workspaces extend the same guarantee into the solvers.
struct TimeLoop::StepContext {
  StepContext(const TimeLoop& loop, sim::Vpu& vpu);

  std::span<double> col(std::vector<double>& blk, int d) const {
    return std::span<double>(blk).subspan(static_cast<std::size_t>(d) * un,
                                          un);
  }
  std::span<const double> ccol(const std::vector<double>& blk, int d) const {
    return std::span<const double>(blk).subspan(
        static_cast<std::size_t>(d) * un, un);
  }
  /// vel_now ← ustar_blk, from component blocks to [node][d].
  void interleave_ustar() {
    for (std::size_t n = 0; n < un; ++n) {
      for (std::size_t d = 0; d < fem::kDim; ++d) {
        vel_now[n * fem::kDim + d] = ustar_blk[d * un + n];
      }
    }
  }
  /// Dirichlet rows of RHS column @p d (host).
  void impose_bc_rhs(int d) {
    for (std::size_t n = 0; n < un; ++n) {
      if (fixed[n]) {
        b_blk[static_cast<std::size_t>(d) * un + n] =
            bc[n][static_cast<std::size_t>(d)];
      }
    }
  }

  const std::size_t un;
  const double rho_dt;
  /// SELL slice height: the strip the solve kernels actually run
  /// (solver::solve_effective_strip).
  const int slice_c;
  MachineGroup machines;

  int step = 0;
  double t_next = 0.0;
  StepReport rep;

  std::vector<double> vel_now;
  // Node-major component blocks (column d spans [d·nn, (d+1)·nn)): the
  // layout the blocked phase-9/11 kernels stream; the per-component path
  // works on the same columns through single-RHS kernels.
  std::vector<double> u_blk, b_blk, tmp_blk, ustar_blk;
  std::vector<double> phi, b_p;
  std::vector<double> div, grad;
  MiniAppResult ar;
  ElementChunk ch;
  solver::CsrMatrix k_bc;
  solver::OperatorMirror dtmass_op, k_op;
  solver::KrylovWorkspace momentum_ws, pressure_ws;
  std::vector<char> fixed;
  std::vector<std::array<double, fem::kDim>> bc;
  SolveSpace::Scratch momentum_scratch, pressure_scratch;
};

TimeLoop::StepContext::StepContext(const TimeLoop& loop, sim::Vpu& vpu)
    : un(static_cast<std::size_t>(loop.mesh_->num_nodes())),
      rho_dt(loop.state_.physics().density / loop.state_.physics().dt),
      slice_c(solver::solve_effective_strip(loop.cfg_.vector_size,
                                            vpu.config())),
      machines{vpu, loop.make_sharded(vpu, slice_c)},
      ch(loop.cfg_.vector_size, /*with_matrix=*/true),
      fixed(un, 0),
      bc(un) {
  for (auto* v : {&vel_now, &u_blk, &b_blk, &tmp_blk, &ustar_blk}) {
    v->resize(un * fem::kDim);
  }
  phi.resize(un);
  b_p.resize(un);
  dtmass_op.assign(loop.dtmass_, loop.cfg_.format, slice_c);
  if (loop.cfg_.rcm_renumber) {
    momentum_scratch = {std::vector<double>(un * fem::kDim),
                        std::vector<double>(un * fem::kDim)};
    pressure_scratch = {std::vector<double>(un), std::vector<double>(un)};
  }
}

// ---- TimeLoop --------------------------------------------------------------

TimeLoop::TimeLoop(const fem::Mesh& mesh, const Scenario& scenario,
                   TimeLoopConfig cfg)
    : mesh_(&mesh),
      scen_(scenario),
      cfg_(cfg),
      state_(mesh, scenario.physics),
      app_(mesh, state_, make_app_config(cfg)) {
  if (cfg_.steps <= 0) {
    throw std::invalid_argument("TimeLoop: steps must be positive");
  }
  if (cfg_.shards < 1) {
    throw std::invalid_argument("TimeLoop: shards must be positive");
  }
  if (!scen_.initial || !scen_.velocity_bc || !scen_.pressure_pins) {
    throw std::invalid_argument("TimeLoop: scenario is missing hooks");
  }

  // Scenario initial condition on both time levels.
  const int nn = mesh_->num_nodes();
  auto unk = state_.unknowns();
  auto old = state_.unknowns_old();
  for (int n = 0; n < nn; ++n) {
    const auto f = scen_.initial(*mesh_, n);
    for (int c = 0; c < fem::kDofs; ++c) {
      unk[static_cast<std::size_t>(n) * fem::kDofs + c] = f[c];
      old[static_cast<std::size_t>(n) * fem::kDofs + c] = f[c];
    }
  }

  // Constant operators: pinned SPD Laplacian, dtfac-mass, lumped mass.
  const fem::ShapeTable& shape = app_.shape();
  pressure_pins_ = scen_.pressure_pins(*mesh_);
  if (pressure_pins_.empty()) {
    throw std::invalid_argument(
        "TimeLoop: scenario pins no pressure node (the Neumann Poisson "
        "operator would be singular)");
  }
  poisson_ = fem::assemble_pressure_laplacian(*mesh_, shape);
  fem::pin_dirichlet(poisson_, pressure_pins_);
  dtmass_ = fem::assemble_dt_mass(*mesh_, state_.physics(), shape);
  lumped_inv_ = fem::assemble_lumped_mass(*mesh_, shape);
  for (double& m : lumped_inv_) m = 1.0 / m;

  if (cfg_.rcm_renumber) {
    // The pinned Laplacian has constant values, so it is permuted once here.
    space_ = SolveSpace(*mesh_);
    poisson_ = solver::permute_symmetric(poisson_, space_.perm());
  }

  // Pressure preconditioner ladder (DESIGN.md §8): the rung knob lands on
  // the phase-10 SolveOptions; kDeflate additionally needs the structured
  // coarse space, in solve order (aggregate of solve row q = aggregate of
  // node perm[q]).
  cfg_.pressure.precond.kind = cfg_.precond;
  if (cfg_.precond == solver::PrecondKind::kDeflate) {
    const std::vector<int> agg =
        fem::structured_aggregates(*mesh_, kDeflationAggregateFactor);
    cfg_.pressure.precond.aggregates.resize(agg.size());
    space_.to_solve_order(agg, cfg_.pressure.precond.aggregates);
  }
}

std::unique_ptr<solver::ShardedCg> TimeLoop::make_sharded(const sim::Vpu& vpu,
                                                          int slice) const {
  // Sharding serves the kJacobi rung on vector machines (DESIGN.md §9);
  // every other combination runs the legacy single-Vpu path, which is the
  // bit-identical reference anyway.
  if (cfg_.shards <= 1 || !vpu.config().vector_enabled) return nullptr;
  if (cfg_.precond != solver::PrecondKind::kJacobi ||
      !cfg_.pressure.jacobi_precondition) {
    return nullptr;
  }
  try {
    fem::MeshPartition part =
        fem::partition_mesh(*mesh_, cfg_.shards, slice, space_.perm());
    return std::make_unique<solver::ShardedCg>(
        std::move(part.plan), poisson_, vpu.config(), cfg_.vector_size,
        kPressurePhase, vpu.profiler().num_phases());
  } catch (const std::runtime_error&) {
    // Zero operator diagonal: fall back so the legacy path reports the
    // failure through its instrumented SolveReport exit, bit for bit.
    return nullptr;
  }
}

void TimeLoop::set_checkpoint_sink(
    std::uint64_t config_hash,
    std::function<void(const TimeLoopCheckpoint&)> sink) {
  ckpt_hash_ = config_hash;
  ckpt_sink_ = std::move(sink);
}

void TimeLoop::restore(const TimeLoopCheckpoint& checkpoint,
                       std::uint64_t expected_hash) {
  if (checkpoint.config_hash != expected_hash) {
    throw std::runtime_error(
        "TimeLoop::restore: checkpoint config hash mismatch (written under "
        "a different scenario/config/machine — resuming would break the "
        "bit-identity contract)");
  }
  if (checkpoint.next_step < 0 ||
      checkpoint.next_step > static_cast<std::int64_t>(cfg_.steps)) {
    throw std::runtime_error(
        "TimeLoop::restore: checkpoint step cursor out of range");
  }
  if (checkpoint.unknowns.size() != state_.unknowns().size() ||
      checkpoint.unknowns_old.size() != state_.unknowns_old().size()) {
    throw std::runtime_error(
        "TimeLoop::restore: field size mismatch (different mesh?)");
  }
  if (checkpoint.step_reports.size() !=
      static_cast<std::size_t>(checkpoint.next_step)) {
    throw std::runtime_error(
        "TimeLoop::restore: step report count disagrees with the cursor");
  }
  if (checkpoint.phase_counters.size() !=
      static_cast<std::size_t>(kNumInstrumentedPhases) + 1) {
    throw std::runtime_error(
        "TimeLoop::restore: per-phase counter count mismatch");
  }

  std::copy(checkpoint.unknowns.begin(), checkpoint.unknowns.end(),
            state_.unknowns().begin());
  std::copy(checkpoint.unknowns_old.begin(), checkpoint.unknowns_old.end(),
            state_.unknowns_old().begin());
  time_ = checkpoint.time;
  next_step_ = static_cast<int>(checkpoint.next_step);
  carried_ = {.steps = checkpoint.step_reports,
              .all_converged = checkpoint.all_converged,
              .total = checkpoint.total_counters,
              .phase = checkpoint.phase_counters,
              .pressure_makespan_cycles = checkpoint.pressure_makespan_cycles};
}

double TimeLoop::divergence_norm(const std::vector<double>& div) const {
  double s = 0.0;
  for (std::size_t a = 0; a < div.size(); ++a) {
    s += div[a] * div[a] * lumped_inv_[a];
  }
  return std::sqrt(s);
}

void TimeLoop::assemble(StepContext& s) {
  // Sync time levels: old ← current, so the assembled residual is the
  // Picard residual at uⁿ and b = rhs + (K − Mdt)·uⁿ is exactly the
  // backward-Euler RHS Mdt·uⁿ + F + Ĝᵀpⁿ (see header).
  const int nn = mesh_->num_nodes();
  for (int n = 0; n < nn; ++n) {
    for (int d = 0; d < fem::kDim; ++d) {
      s.vel_now[static_cast<std::size_t>(n) * fem::kDim +
                static_cast<std::size_t>(d)] = state_.velocity(n, d);
    }
  }
  state_.push_time_level(s.vel_now);

  // ---- phases 1–8: semi-implicit assembly of K and the residual rhs --
  app_.assemble_into(s.machines.coord, s.ar, s.ch);

  // Scenario Dirichlet data at the solution time t^{n+1}.  The hook is a
  // pure function of (mesh, node, t), so this cache serves the whole step.
  std::fill(s.fixed.begin(), s.fixed.end(), 0);
  for (int n = 0; n < nn; ++n) {
    std::array<double, fem::kDim> val;
    if (scen_.velocity_bc(*mesh_, n, s.t_next, val)) {
      s.fixed[static_cast<std::size_t>(n)] = 1;
      s.bc[static_cast<std::size_t>(n)] = val;
    }
  }
  s.k_bc = s.ar.matrix;
  impose_dirichlet_rows(s.k_bc, s.fixed);
  if (cfg_.fault.fires(sim::FaultKind::kZeroDiagonal, s.step)) {
    inject_zero_diagonal(s.k_bc);
  }
  s.k_op.assign(s.ar.matrix, cfg_.format, s.slice_c);
}

void TimeLoop::solve_momentum(StepContext& s) {
  // ---- phase 9: blocked multi-RHS momentum BiCGStab ------------------
  // The kDim component systems share the operator K, so the RHS block is
  // formed and solved with the multi-RHS kernels (one value/index slab
  // load per strip feeding kDim gather streams); blocked_momentum = false
  // runs the sequential 9a–9c reference on the same column buffers —
  // bit-identical per component (DESIGN.md §5).
  sim::Vpu& vpu = s.machines.coord;
  const int vs = cfg_.vector_size;
  sim::ScopedPhase scope(vpu.profiler(), kSolvePhase);
  for (int d = 0; d < fem::kDim; ++d) {
    solver::vpack_strided(vpu, state_.unknowns_data() + d, fem::kDofs,
                          s.col(s.u_blk, d), vs);
    solver::vpack_strided(vpu, s.ar.rhs.data() + d, fem::kDim,
                          s.col(s.b_blk, d), vs);
  }
  const solver::CsrMatrix& k = space_.momentum(s.k_bc);
  if (cfg_.blocked_momentum) {
    s.k_op.apply_multi(vpu, s.u_blk, s.tmp_blk, fem::kDim, vs);
    solver::vaxpy_multi(vpu, filled(1.0), s.tmp_blk, s.b_blk, fem::kDim, vs);
    s.dtmass_op.apply_multi(vpu, s.u_blk, s.tmp_blk, fem::kDim, vs);
    solver::vaxpy_multi(vpu, filled(-1.0), s.tmp_blk, s.b_blk, fem::kDim,
                        vs);
    for (int d = 0; d < fem::kDim; ++d) s.impose_bc_rhs(d);
    solver::vcopy_multi(vpu, s.u_blk, s.ustar_blk, fem::kDim, vs);
    auto reps = space_.solve(
        s.b_blk, s.ustar_blk, s.momentum_scratch, 0, [&](auto b, auto x) {
          return solver::vbicgstab_multi(vpu, k, b, x, fem::kDim,
                                         cfg_.momentum, vs, &s.momentum_ws,
                                         cfg_.format);
        });
    std::move(reps.begin(), reps.end(), s.rep.momentum.begin());
    return;
  }
  for (int d = 0; d < fem::kDim; ++d) {
    s.k_op.apply(vpu, s.ccol(s.u_blk, d), s.col(s.tmp_blk, d), vs);
    solver::vaxpy(vpu, 1.0, s.ccol(s.tmp_blk, d), s.col(s.b_blk, d), vs);
    s.dtmass_op.apply(vpu, s.ccol(s.u_blk, d), s.col(s.tmp_blk, d), vs);
    solver::vaxpy(vpu, -1.0, s.ccol(s.tmp_blk, d), s.col(s.b_blk, d), vs);
    s.impose_bc_rhs(d);
    solver::vcopy(vpu, s.ccol(s.u_blk, d), s.col(s.ustar_blk, d), vs);
    s.rep.momentum[static_cast<std::size_t>(d)] = space_.solve(
        s.ccol(s.b_blk, d), s.col(s.ustar_blk, d), s.momentum_scratch,
        static_cast<std::size_t>(d) * s.un, [&](auto b, auto x) {
          return solver::vbicgstab(vpu, k, b, x, cfg_.momentum, vs,
                                   &s.momentum_ws, cfg_.format);
        });
  }
}

void TimeLoop::solve_pressure(StepContext& s) {
  // ---- phase 10: pressure-Poisson CG ----------------------------------
  s.interleave_ustar();
  fem::assemble_weak_divergence_into(*mesh_, app_.shape(), s.vel_now, s.div);
  if (cfg_.fault.fires(sim::FaultKind::kNanRhs, s.step)) {
    // nan-rhs fault: poison the host-assembled divergence, so NaN must
    // travel the full b_p → solve → correction → diagnostics pipeline.
    std::fill(s.div.begin(), s.div.end(),
              std::numeric_limits<double>::quiet_NaN());
  }
  s.rep.div_before = divergence_norm(s.div);

  sim::Vpu& vpu = s.machines.coord;
  const int vs = cfg_.vector_size;
  sim::ScopedPhase scope(vpu.profiler(), kPressurePhase);
  // breakdown fault: a copy of the pressure options with the injection
  // armed, routed through the legacy vcg — its instrumented failure
  // exit is the one the sharded path falls back to anyway.
  const bool inject_breakdown =
      cfg_.fault.fires(sim::FaultKind::kSolverBreakdown, s.step);
  solver::SolveOptions popts_injected;
  if (inject_breakdown) {
    popts_injected = cfg_.pressure;
    popts_injected.inject_breakdown = true;
  }
  const solver::SolveOptions& popts =
      inject_breakdown ? popts_injected : cfg_.pressure;
  solver::ShardedCg* sharded =
      inject_breakdown ? nullptr : s.machines.sharded.get();
  solver::vfill(vpu, s.b_p, 0.0, vs);
  solver::vaxpy(vpu, -s.rho_dt, s.div, s.b_p, vs);  // b = −(ρ/Δt)·D u*
  for (int r : pressure_pins_) s.b_p[static_cast<std::size_t>(r)] = 0.0;
  std::fill(s.phi.begin(), s.phi.end(), 0.0);
  s.rep.pressure = space_.solve(
      s.b_p, s.phi, s.pressure_scratch, 0, [&](auto b, auto x) {
        return sharded ? sharded->solve(vpu, b, x, popts)
                       : solver::vcg(vpu, poisson_, b, x, popts, vs,
                                     &s.pressure_ws, cfg_.format);
      });
}

void TimeLoop::correct_velocity(StepContext& s) {
  // ---- phase 11: BLAS-1 velocity correction ---------------------------
  fem::assemble_weak_gradient_into(*mesh_, app_.shape(), s.phi, s.grad);
  sim::Vpu& vpu = s.machines.coord;
  const int vs = cfg_.vector_size;
  sim::ScopedPhase scope(vpu.profiler(), kCorrectionPhase);
  for (int d = 0; d < fem::kDim; ++d) {
    solver::vpack_strided(vpu, s.grad.data() + d, fem::kDim,
                          s.col(s.b_blk, d), vs);
  }
  if (cfg_.blocked_momentum) {
    // M_L⁻¹ Ĝφ for all components, one fused pass per kernel
    solver::vjacobi_apply_multi(vpu, lumped_inv_, s.b_blk, s.tmp_blk,
                                fem::kDim, vs);
    solver::vaxpy_multi(vpu, filled(-1.0 / s.rho_dt), s.tmp_blk,
                        s.ustar_blk, fem::kDim, vs);
    return;
  }
  for (int d = 0; d < fem::kDim; ++d) {
    solver::vjacobi_apply(vpu, lumped_inv_, s.ccol(s.b_blk, d),
                          s.col(s.tmp_blk, d), vs);  // M_L⁻¹ Ĝφ
    solver::vaxpy(vpu, -1.0 / s.rho_dt, s.ccol(s.tmp_blk, d),
                  s.col(s.ustar_blk, d), vs);
  }
}

void TimeLoop::write_back(StepContext& s) {
  // uⁿ⁺¹ with the step's Dirichlet data re-imposed and pⁿ⁺¹ = pⁿ + φ
  // into the state; measure the projected divergence.
  s.interleave_ustar();
  for (std::size_t n = 0; n < s.un; ++n) {
    if (!s.fixed[n]) continue;
    std::copy(s.bc[n].begin(), s.bc[n].end(),
              s.vel_now.begin() + static_cast<std::ptrdiff_t>(n * fem::kDim));
  }
  fem::assemble_weak_divergence_into(*mesh_, app_.shape(), s.vel_now, s.div);
  s.rep.div_after = divergence_norm(s.div);

  auto unk = state_.unknowns();
  for (std::size_t n = 0; n < s.un; ++n) {
    for (std::size_t d = 0; d < fem::kDim; ++d) {
      unk[n * fem::kDofs + d] = s.vel_now[n * fem::kDim + d];
    }
    unk[n * fem::kDofs + fem::kDim] += s.phi[n];
  }
}

void TimeLoop::end_epoch(StepContext& s, TimeLoopResult& res,
                         int done) const {
  // Epoch boundary of the checkpoint/restart protocol (DESIGN.md §10):
  // capture the accumulated state for the sink, then drain the machines
  // into the carried totals and reset them outright.  Folding whole-epoch
  // subtotals instead of letting one accumulator run across epochs keeps
  // the double-typed cycle counters associating identically in the
  // uninterrupted and the resumed run, so the restart is bit-identical
  // down to the last ulp; the reset leaves caches cold and the first-touch
  // map forgotten, exactly like the restarted process the next epoch must
  // be indistinguishable from.  The final boundary (done == steps)
  // captures without draining, so a completed point replays identically
  // under --resume.
  if (cfg_.checkpoint_every <= 0) return;
  const bool drain = done % cfg_.checkpoint_every == 0 && done < cfg_.steps;
  if (ckpt_sink_ && (drain || done == cfg_.steps)) {
    TimeLoopCheckpoint c{
        .config_hash = ckpt_hash_,
        .next_step = done,
        .time = time_,
        .unknowns = {state_.unknowns().begin(), state_.unknowns().end()},
        .unknowns_old = {state_.unknowns_old().begin(),
                         state_.unknowns_old().end()},
        .step_reports = res.steps,
        .total_counters = res.total,
        .phase_counters = res.phase,
        .all_converged = res.all_converged,
        .pressure_makespan_cycles = res.pressure_makespan_cycles};
    s.machines.fold_into(c.total_counters, c.phase_counters,
                         c.pressure_makespan_cycles);
    ckpt_sink_(c);
  }
  if (drain) {
    s.machines.fold_into(res.total, res.phase, res.pressure_makespan_cycles);
    s.machines.reset();
  }
}

TimeLoopResult TimeLoop::run(sim::Vpu& vpu) {
  vpu.reset();
  StepContext s(*this, vpu);
  // Nothing for a fresh loop; after restore(), the reports and counters of
  // the steps before the cursor, which the folds below grow.
  TimeLoopResult res = std::exchange(carried_, {});
  res.steps.reserve(static_cast<std::size_t>(cfg_.steps));

  for (int step = std::exchange(next_step_, 0); step < cfg_.steps; ++step) {
    const auto [coord0, shards0] = s.machines.clock();
    s.step = step;
    s.t_next = time_ + state_.physics().dt;
    s.rep = StepReport{};
    s.rep.time = s.t_next;
    assemble(s);
    solve_momentum(s);
    solve_pressure(s);
    correct_velocity(s);
    write_back(s);
    time_ = s.t_next;
    const auto [coord1, shards1] = s.machines.clock();
    s.rep.cycles = coord1 - coord0 + shards1 - shards0;
    for (const auto& m : s.rep.momentum) res.all_converged &= m.converged;
    res.all_converged &= s.rep.pressure.converged;
    res.steps.push_back(std::move(s.rep));
    end_epoch(s, res, step + 1);
  }

  // Whole-run totals aggregate ALL Vpus — the coordinator plus every shard
  // — so the conservation invariants (Σ step cycles == run cycles, Σ phase
  // counters == totals) hold regardless of the shard count.
  s.machines.fold_into(res.total, res.phase, res.pressure_makespan_cycles);
  res.cycles = res.total.total_cycles();
  res.effective_shards = s.machines.sharded ? s.machines.sharded->shards() : 1;
  return res;
}

}  // namespace vecfd::miniapp
