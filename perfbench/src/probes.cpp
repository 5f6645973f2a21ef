#include "probes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/experiment.h"
#include "fem/mesh.h"
#include "fem/partition.h"
#include "fem/projection.h"
#include "fem/shape.h"
#include "fem/state.h"
#include "mem/memory_hierarchy.h"
#include "miniapp/checkpoint.h"
#include "miniapp/driver.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "sim/vpu.h"
#include "solver/preconditioner.h"
#include "solver/sell.h"
#include "solver/sharding.h"
#include "solver/vkernels.h"

namespace perfbench {

namespace {

constexpr int kShards = 4;             // ShardedCg / partition probes
constexpr int kStreamReps = 25;        // mem stream passes
constexpr int kGatherReps = 25;        // mem gather passes
constexpr int kFirstTouchReps = 200;   // flush + first-touch passes
constexpr int kKernelReps = 200;       // sim microkernel passes
constexpr int kSpmvReps = 20;
constexpr int kSolveReps = 3;
constexpr int kFemReps = 5;
constexpr int kCheckpointReps = 5;
constexpr double kSolveTolerance = 1e-8;

/// Run @p fn @p reps times, each call in a span named @p name; returns the
/// median span in seconds.
template <class Fn>
double timed(Tracer& tracer, const std::string& name, int reps, Fn&& fn) {
  for (int r = 0; r < reps; ++r) {
    Scope s(&tracer, name);
    fn();
  }
  return median(tracer.durations(name));
}

/// The workload's phase-10 operator: its mesh's Laplacian, pinned like
/// the TimeLoop pins it.
struct PressureOperator {
  solver::CsrMatrix a;
  std::vector<int> pins;
};

// ---- fem ---------------------------------------------------------------------

PressureOperator probe_fem(const ProbeInputs& in, int quantum,
                           Tracer& tracer, Report& report) {
  const fem::Mesh& mesh = *in.mesh;
  const double mesh_s = timed(tracer, "fem.Mesh", kFemReps, [&] {
    const fem::Mesh m(mesh.config());
    if (m.num_nodes() != mesh.num_nodes()) throw std::logic_error("mesh");
  });

  const fem::ShapeTable shape;
  const fem::Physics phys;
  PressureOperator op;
  const double operator_s = timed(tracer, "fem.assemble", kFemReps, [&] {
    op.a = fem::assemble_pressure_laplacian(mesh, shape);
    const solver::CsrMatrix mdt = fem::assemble_dt_mass(mesh, phys, shape);
    const std::vector<double> ml = fem::assemble_lumped_mass(mesh, shape);
    if (mdt.rows() != op.a.rows() || ml.empty()) {
      throw std::logic_error("operator shapes");
    }
  });
  op.pins = in.scenario.pressure_pins(mesh);
  fem::pin_dirichlet(op.a, op.pins);

  const auto adjacency = mesh.node_adjacency();
  const double rcm_s = timed(tracer, "fem.rcm_ordering", kFemReps, [&] {
    if (fem::rcm_ordering(adjacency).size() != adjacency.size()) {
      throw std::logic_error("rcm");
    }
  });
  const double partition_s =
      timed(tracer, "fem.partition_mesh", kFemReps, [&] {
        fem::partition_mesh(mesh, kShards, quantum);
      });

  report.add("fem.mesh_s", mesh_s, "s", Clock::kHost, Kind::kLayer,
             "fem::Mesh of the workload mesh");
  report.add("fem.operator_s", operator_s, "s", Clock::kHost, Kind::kLayer,
             "pressure Laplacian + dt-mass + lumped mass assembly");
  report.add("fem.rcm_s", rcm_s, "s", Clock::kHost, Kind::kLayer,
             "rcm_ordering of the node adjacency");
  report.add("fem.partition_s", partition_s, "s", Clock::kHost,
             Kind::kLayer, "partition_mesh, P=4");
  return op;
}

// ---- mem ---------------------------------------------------------------------

/// x[c] addresses of the ELL column stream of @p a (pads skipped), slab by
/// slab — the access order of vspmv's gathers.
std::vector<std::uintptr_t> gather_stream(const solver::EllMatrix& ell,
                                          const std::vector<double>& x) {
  std::vector<std::uintptr_t> out;
  for (int j = 0; j < ell.width(); ++j) {
    const std::int32_t* cols = ell.cols(j);
    for (int i = 0; i < ell.rows(); ++i) {
      if (cols[i] >= 0) {
        out.push_back(reinterpret_cast<std::uintptr_t>(
            &x[static_cast<std::size_t>(cols[i])]));
      }
    }
  }
  return out;
}

void probe_mem(const ProbeInputs& in, const solver::EllMatrix& ell,
               Tracer& tracer, Report& report) {
  const mem::HierarchyConfig& hc = in.machine.memory;

  // Unit-stride stream over a buffer 4x the modeled L2, in VECTOR_SIZE
  // chunks.  Warm: the untimed first pass canonicalizes every line; the
  // modeled caches still miss every line of every pass (capacity).
  const std::size_t buf_bytes = 4 * hc.l2.size_bytes;
  const std::vector<double> buf(buf_bytes / sizeof(double), 1.0);
  const auto base = reinterpret_cast<std::uintptr_t>(buf.data());
  const std::size_t chunk =
      static_cast<std::size_t>(in.vector_size) * sizeof(double);
  mem::MemoryHierarchy stream(hc);
  auto stream_pass = [&] {
    for (std::size_t off = 0; off < buf_bytes; off += chunk) {
      stream.touch_range(base + off, std::min(chunk, buf_bytes - off));
    }
  };
  stream_pass();
  const double stream_s = timed(tracer, "mem.touch_range", kStreamReps,
                                stream_pass);
  const double lines =
      static_cast<double>(buf_bytes / hc.l1.line_bytes);

  // The workload operator's column stream, one access per gathered lane.
  // Warm: canonical map filled and the (L1-resident) lines cached.
  const std::vector<double> x(static_cast<std::size_t>(ell.rows()), 1.0);
  const std::vector<std::uintptr_t> addrs = gather_stream(ell, x);
  mem::MemoryHierarchy gather(hc);
  auto gather_pass = [&] {
    for (std::uintptr_t a : addrs) gather.access(a);
  };
  gather_pass();
  const double gather_s =
      timed(tracer, "mem.access", kGatherReps, gather_pass);

  // The same stream's distinct lines, in first-touch order, right after
  // flush(): cold caches and an empty canonical map, so every access pays
  // line canonicalization plus a miss.  flush() itself is not timed.
  const std::uintptr_t line = hc.l1.line_bytes;
  std::vector<std::uintptr_t> first_lines;
  std::vector<char> seen(x.size() * sizeof(double) / line + 2, 0);
  const std::uintptr_t x_line0 = reinterpret_cast<std::uintptr_t>(x.data()) /
                                 line;
  for (std::uintptr_t a : addrs) {
    char& s = seen[a / line - x_line0];
    if (s == 0) first_lines.push_back(a);
    s = 1;
  }
  mem::MemoryHierarchy cold(hc);
  for (int r = 0; r < kFirstTouchReps; ++r) {
    cold.flush();
    Scope s(&tracer, "mem.first_touch");
    for (std::uintptr_t a : first_lines) cold.access(a);
  }
  const double first_s = median(tracer.durations("mem.first_touch"));

  report.add("mem.stream_ns_per_line", stream_s / lines * 1e9, "ns",
             Clock::kHost, Kind::kLayer,
             "MemoryHierarchy::touch_range, unit stride, warm map, buffer "
             "4x modeled L2");
  report.add("mem.gather_ns_per_access",
             gather_s / static_cast<double>(addrs.size()) * 1e9, "ns",
             Clock::kHost, Kind::kLayer,
             "MemoryHierarchy::access over the ELL pressure-operator column "
             "stream, warm");
  report.add("mem.first_touch_ns_per_line",
             first_s / static_cast<double>(first_lines.size()) * 1e9, "ns",
             Clock::kHost, Kind::kLayer,
             "same stream's distinct lines right after flush(), cold");
  report.add("mem.stream_buffer_mib",
             static_cast<double>(buf_bytes) / (1024.0 * 1024.0), "MiB",
             Clock::kModel, Kind::kInfo, "stream probe buffer");
  report.add("mem.l2_mib",
             static_cast<double>(hc.l2.size_bytes) / (1024.0 * 1024.0),
             "MiB", Clock::kModel, Kind::kInfo, "modeled L2");
  report.add("mem.gather_stream_accesses", static_cast<double>(addrs.size()),
             "count", Clock::kModel, Kind::kInfo, "gather probe stream");
}

// ---- sim -----------------------------------------------------------------------

void probe_sim(const ProbeInputs& in, const solver::EllMatrix& ell,
               Tracer& tracer, Report& report) {
  // vload/vload/vfma/vstore over three L1-resident arrays (3 x 16 KiB of
  // the 64 KiB L1) at the workload's VECTOR_SIZE.  Warm.
  constexpr int kN = 2048;
  const std::vector<double> xs(kN, 1.5);
  const std::vector<double> ys(kN, 0.5);
  std::vector<double> zs(kN, 0.0);
  sim::Vpu vpu(in.machine);
  auto vkernel = [&] {
    solver::for_strips(vpu, kN, in.vector_size, [&](int i, int) {
      const sim::Vec a = vpu.vload(&xs[static_cast<std::size_t>(i)]);
      const sim::Vec b = vpu.vload(&ys[static_cast<std::size_t>(i)]);
      vpu.vstore(&zs[static_cast<std::size_t>(i)], vpu.vfma(a, b, a));
    });
  };
  vkernel();
  const std::uint64_t v0 = vpu.counters().vector_instrs();
  const double v_s = timed(tracer, "sim.vinstr", kKernelReps, vkernel);
  const double v_per_pass =
      static_cast<double>(vpu.counters().vector_instrs() - v0) / kKernelReps;

  // The scalar twin on the scalar machine.  Warm.
  sim::Vpu svpu(platforms::riscv_vec_scalar());
  auto skernel = [&] {
    for (std::size_t i = 0; i < kN; ++i) {
      const double a = svpu.sload(&xs[i]);
      const double b = svpu.sload(&ys[i]);
      svpu.sstore(&zs[i], svpu.sfma(a, b, a));
    }
  };
  skernel();
  const std::uint64_t s0 = svpu.counters().scalar_instrs();
  const double s_s = timed(tracer, "sim.sinstr", kKernelReps / 4, skernel);
  const double s_per_pass =
      static_cast<double>(svpu.counters().scalar_instrs() - s0) /
      (kKernelReps / 4);

  // vgather at vlmax over the operator's column slabs.  Warm.
  const std::vector<double> x(static_cast<std::size_t>(ell.rows()), 1.0);
  sim::Vpu gvpu(in.machine);
  auto gkernel = [&] {
    for (int j = 0; j < ell.width(); ++j) {
      solver::for_strips(gvpu, ell.rows(), gvpu.vlmax(), [&](int i, int) {
        const sim::Vec idx = gvpu.vload_i32(ell.cols(j) + i);
        const sim::Vec g = gvpu.vgather(x.data(), idx);
        if (g.size() == 0) throw std::logic_error("empty gather");
      });
    }
  };
  gkernel();
  const std::uint64_t g0 = gvpu.counters().gather_lanes;
  const double g_s = timed(tracer, "sim.vgather", kGatherReps, gkernel);
  const double g_per_pass =
      static_cast<double>(gvpu.counters().gather_lanes - g0) / kGatherReps;

  report.add("sim.vinstr_ns", v_s / v_per_pass * 1e9, "ns", Clock::kHost,
             Kind::kLayer,
             "per vector instruction: for_strips vload/vfma/vstore, "
             "L1-resident, warm");
  report.add("sim.sinstr_ns", s_s / s_per_pass * 1e9, "ns", Clock::kHost,
             Kind::kLayer, "per scalar sload/sfma/sstore, warm");
  report.add("sim.gather_lane_ns", g_s / g_per_pass * 1e9, "ns",
             Clock::kHost, Kind::kLayer,
             "per lane: Vpu::vgather at vlmax over the operator columns "
             "(index vload included), warm");
}

// ---- solver ------------------------------------------------------------------

void probe_solver(const ProbeInputs& in, const PressureOperator& op,
                  const solver::EllMatrix& ell, Tracer& tracer,
                  Report& report, Checks& checks) {
  const solver::CsrMatrix& a = op.a;
  const std::size_t n = static_cast<std::size_t>(a.rows());
  const int strip = solver::solve_effective_strip(in.vector_size, in.machine);
  const double nnz = static_cast<double>(a.nnz());

  const std::vector<double> x(n, 1.0);
  std::vector<double> y(n, 0.0);
  sim::Vpu vpu(in.machine);
  auto ell_spmv = [&] { solver::vspmv(vpu, ell, x, y, strip); };
  ell_spmv();
  const double ell_s = timed(tracer, "solver.vspmv_ell", kSpmvReps, ell_spmv);

  const solver::SellMatrix sell(a, strip);
  std::vector<double> ys(n, 0.0);
  sim::Vpu svpu(in.machine);
  auto sell_spmv = [&] { solver::vspmv(svpu, sell, x, ys, strip); };
  sell_spmv();
  const double sell_s =
      timed(tracer, "solver.vspmv_sell", kSpmvReps, sell_spmv);
  checks.expect(y == ys, "ELL and SELL vspmv differ");

  // Jacobi vcg on the pinned operator, b = 1 off the pins, x0 = 0.
  std::vector<double> b(n, 1.0);
  for (int p : op.pins) b[static_cast<std::size_t>(p)] = 0.0;
  solver::SolveOptions opts;
  opts.rel_tolerance = kSolveTolerance;
  std::vector<double> xc(n, 0.0);
  solver::KrylovWorkspace ws;
  sim::Vpu cvpu(in.machine);
  solver::SolveReport cg_report;
  const double vcg_s = timed(tracer, "solver.vcg", kSolveReps, [&] {
    std::fill(xc.begin(), xc.end(), 0.0);
    cg_report = solver::vcg(cvpu, a, b, xc, opts, strip, &ws);
  });
  checks.expect(cg_report.converged, "probe vcg did not converge");

  // The same solve distributed over P=4 shards.
  fem::MeshPartition part = fem::partition_mesh(*in.mesh, kShards, strip);
  solver::ShardedCg sharded(std::move(part.plan), a, in.machine,
                            in.vector_size, miniapp::kPressurePhase);
  sim::Vpu coord(in.machine);
  std::vector<double> xs(n, 0.0);
  solver::SolveReport sh_report;
  const double sharded_s =
      timed(tracer, "solver.ShardedCg::solve", kSolveReps, [&] {
        sharded.reset();
        std::fill(xs.begin(), xs.end(), 0.0);
        sh_report = sharded.solve(coord, b, xs, opts);
      });
  checks.expect(sh_report.converged &&
                    sh_report.iterations == cg_report.iterations,
                "probe ShardedCg disagrees with vcg on iterations");

  // Preconditioner set-up of the two non-trivial rungs (fresh object per
  // call: set-up allocates its scratch).
  solver::OperatorMirror mirror;
  mirror.assign(a, solver::SpmvFormat::kEll, strip);
  sim::Vpu pvpu(in.machine);
  solver::SolveOptions cheby = opts;
  cheby.precond.kind = solver::PrecondKind::kCheby;
  solver::SolveOptions deflate = opts;
  deflate.precond.kind = solver::PrecondKind::kDeflate;
  deflate.precond.aggregates = fem::structured_aggregates(*in.mesh, 2);
  const double cheby_s =
      timed(tracer, "solver.Preconditioner::setup(cheby)", kSolveReps, [&] {
        solver::Preconditioner pc;
        pc.setup(pvpu, a, mirror, cheby, strip);
      });
  const double deflate_s =
      timed(tracer, "solver.Preconditioner::setup(deflate)", kSolveReps, [&] {
        solver::Preconditioner pc;
        pc.setup(pvpu, a, mirror, deflate, strip);
      });

  report.add("solver.vspmv_ell_ns_per_nnz", ell_s / nnz * 1e9, "ns",
             Clock::kHost, Kind::kLayer, "vspmv on the ELL mirror, warm");
  report.add("solver.vspmv_sell_ns_per_nnz", sell_s / nnz * 1e9, "ns",
             Clock::kHost, Kind::kLayer, "vspmv on the SELL mirror, warm");
  report.add("solver.vcg_s", vcg_s, "s", Clock::kHost, Kind::kLayer,
             "Jacobi vcg to 1e-8, " + std::to_string(cg_report.iterations) +
                 " iterations");
  report.add("solver.sharded_cg_s", sharded_s, "s", Clock::kHost,
             Kind::kLayer, "ShardedCg::solve, P=4, same system");
  report.add("solver.precond_setup_s", cheby_s + deflate_s, "s",
             Clock::kHost, Kind::kLayer,
             "Preconditioner::setup, cheby + deflate");
}

// ---- miniapp -----------------------------------------------------------------

void probe_miniapp(const ProbeInputs& in, const std::string& scratch,
                   Tracer& tracer, Report& report, Checks& checks) {
  if (!in.assembly_in_grid) {
    // Assembly on the workload mesh: VEC1@240 and the scalar reference.
    const fem::State state(*in.mesh);
    const core::Experiment ex(*in.mesh, state);
    miniapp::MiniAppConfig vec1;
    vec1.vector_size = 240;
    vec1.opt = miniapp::OptLevel::kVec1;
    miniapp::MiniAppConfig scalar;
    scalar.vector_size = 16;
    scalar.opt = miniapp::OptLevel::kScalar;
    double vec1_cycles = 0.0;
    double scalar_cycles = 0.0;
    for (int r = 0; r < 2; ++r) {
      {
        Scope s(&tracer, "core.Experiment::run");
        vec1_cycles = ex.run(platforms::riscv_vec(), vec1).total_cycles;
      }
      Scope s(&tracer, "core.Experiment::run");
      scalar_cycles =
          ex.run(platforms::riscv_vec_scalar(), scalar).total_cycles;
    }
    const double speedup = scalar_cycles / vec1_cycles;
    report.add("miniapp.vec1_speedup", speedup, "x", Clock::kModel,
               Kind::kLayer,
               "VEC1@240 over scalar@16 on this workload's mesh (not the "
               "paper's; not checked against the 7.6x band)");
    report.add("miniapp.vec1_speedup_err", std::abs(speedup / 7.6 - 1.0), "ratio",
               Clock::kModel, Kind::kLayer, "against the paper's 7.6x");
  }

  // TimeLoop::run of the workload's scenario, checkpointing at the end of
  // the run so a state is captured for the save/load probe.  Cold: a
  // fresh loop and Vpu per call, as a campaign point has.
  const fem::Mesh mesh(in.timeloop_mesh);
  miniapp::TimeLoopConfig cfg;
  cfg.steps = in.timeloop_steps;
  cfg.vector_size = in.vector_size;
  cfg.checkpoint_every = in.timeloop_steps;
  miniapp::TimeLoopCheckpoint captured;
  bool converged = true;
  for (int r = 0; r < 2; ++r) {
    miniapp::TimeLoop loop(mesh, in.scenario, cfg);
    loop.set_checkpoint_sink(
        miniapp::timeloop_config_hash(in.scenario.name, mesh, cfg,
                                      in.machine),
        [&](const miniapp::TimeLoopCheckpoint& c) { captured = c; });
    sim::Vpu vpu(in.machine);
    Scope s(&tracer, "miniapp.TimeLoop::run");
    converged = converged && loop.run(vpu).all_converged;
  }
  checks.expect(converged, "TimeLoop probe did not converge");
  const double step_s = median(tracer.durations("miniapp.TimeLoop::run")) /
                        in.timeloop_steps;

  // save/load of the workload's own checkpoints (codesign_ft) or of the
  // probe's captured one.
  std::vector<std::string> files = in.checkpoint_files;
  if (files.empty()) {
    const std::string f = scratch + "/probe.ckpt";
    miniapp::save_checkpoint(f, captured);
    files.push_back(f);
  }
  std::vector<double> bytes;
  for (int r = 0; r < kCheckpointReps; ++r) {
    for (const std::string& f : files) {
      miniapp::TimeLoopCheckpoint c;
      {
        Scope s(&tracer, "miniapp.load_checkpoint");
        c = miniapp::load_checkpoint(f);
      }
      Scope s(&tracer, "miniapp.save_checkpoint");
      miniapp::save_checkpoint(f + ".copy", c);
    }
  }
  for (const std::string& f : files) {
    bytes.push_back(static_cast<double>(std::filesystem::file_size(f)));
  }

  report.add("miniapp.step_s", step_s, "s", Clock::kHost, Kind::kLayer,
             "TimeLoop::run / steps, " + in.scenario.name + " " +
                 std::to_string(mesh.num_elements()) + " elements, cold");
  report.add("miniapp.ckpt_save_ms",
             median(tracer.durations("miniapp.save_checkpoint")) * 1e3, "ms",
             Clock::kHost, Kind::kLayer,
             "save_checkpoint, " + std::to_string(files.size()) + " files");
  report.add("miniapp.ckpt_load_ms",
             median(tracer.durations("miniapp.load_checkpoint")) * 1e3, "ms",
             Clock::kHost, Kind::kLayer, "load_checkpoint");
  report.add("miniapp.ckpt_bytes", median(bytes), "bytes", Clock::kModel,
             Kind::kLayer, "checkpoint file size");
}

}  // namespace

void run_probes(const ProbeInputs& in, const std::string& scratch,
                Tracer& tracer, Report& report, Checks& checks) {
  const int strip = solver::solve_effective_strip(in.vector_size, in.machine);
  const PressureOperator op = probe_fem(in, strip, tracer, report);
  const solver::EllMatrix ell(op.a);
  probe_mem(in, ell, tracer, report);
  probe_sim(in, ell, tracer, report);
  probe_solver(in, op, ell, tracer, report, checks);
  probe_miniapp(in, scratch, tracer, report, checks);
}

}  // namespace perfbench
