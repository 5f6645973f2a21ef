// vecfd-run — command-line driver for the co-design toolkit.
//
// Runs the mini-app on any modelled machine / optimization level /
// VECTOR_SIZE (or the full paper sweep), prints the §2.2 metrics and phase
// breakdown, and optionally emits CSV rows, compiler remarks, Advisor
// findings, or a Paraver trace pair (.prv/.pcf).
//
//   vecfd-run --sweep --csv sweep.csv
//   vecfd-run --sweep --solve --csv sweep.csv   # assembly + phase-9 solve
//   vecfd-run --machine sx-aurora --opt ivec2 --vs 240 --advise
//   vecfd-run --opt vec2 --vs 240 --prv trace --remarks
//   vecfd-run --scenario taylor-green --steps 10        # transient loop
//   vecfd-run --sweep --steps 3 --csv campaign.csv      # full campaign
//
// --steps/--scenario switch to the transient time loop (phases 1–11);
// combined with --sweep they batch the full campaign — every scenario ×
// all four platforms × the studied VECTOR_SIZEs — over the thread pool.
//
// The sweep fans out over a thread pool (one Vpu per sweep point); --jobs
// bounds the worker count and --jobs 1 forces the serial path.  Output is
// byte-identical either way.
//
// Exit codes: 0 ok, 2 bad usage (offending flag named on stderr).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/advisor.h"
#include "core/campaign.h"
#include "core/csv.h"
#include "core/experiment.h"
#include "core/report.h"
#include "compiler/vectorization_model.h"
#include "miniapp/driver.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "sim/fault_injection.h"
#include "trace/paraver.h"
#include "trace/vehave_trace.h"

namespace {

using namespace vecfd;

struct Options {
  std::string machine = "riscv-vec";
  std::string opt = "vec1";
  std::string scheme = "explicit";
  std::string format = "ell";
  bool rcm = false;
  std::string precond = "jacobi";
  int shards = 1;
  int vs = 240;
  int jobs = 0;  ///< sweep worker threads; 0 = all cores, 1 = serial
  bool sweep = false;
  bool solve = false;
  bool scheme_set = false;  ///< --scheme given explicitly
  bool mesh_set = false;    ///< --mesh given explicitly
  bool advise = false;
  bool remarks = false;
  int steps = 0;  ///< > 0 switches to the transient time loop
  std::optional<std::string> scenario;
  int nx = 16, ny = 20, nz = 24;
  std::optional<std::string> csv_path;
  std::optional<std::string> prv_base;
  int checkpoint_every = 0;  ///< > 0 enables the epoch checkpoint protocol
  std::optional<std::string> checkpoint_dir;
  std::optional<std::string> resume_dir;
  int max_retries = 0;
  std::optional<std::string> fault_plan;

  bool transient() const { return steps > 0 || scenario.has_value(); }
};

void usage(std::ostream& os) {
  os << "usage: vecfd-run [options]\n"
        "  --machine M   riscv-vec | riscv-vec-scalar | sx-aurora |\n"
        "                mn4-avx512            (default riscv-vec)\n"
        "  --opt O       scalar | vanilla | vec2 | ivec2 | vec1\n"
        "                                      (default vec1)\n"
        "  --scheme S    explicit | semi       (default explicit)\n"
        "  --format F    csr | ell | sell | auto — operator storage of the\n"
        "                instrumented solves; auto asks the Advisor for the\n"
        "                machine's format     (default ell)\n"
        "  --rcm         reverse-Cuthill-McKee solve-space renumbering\n"
        "                (transient runs)\n"
        "  --precond P   jacobi | cheby | deflate — phase-10 pressure\n"
        "                preconditioner rung (transient runs; DESIGN.md\n"
        "                S8)                  (default jacobi)\n"
        "  --shards N    domain-decomposition shards of the phase-10\n"
        "                pressure solve (transient runs; DESIGN.md S9) —\n"
        "                fields are bit-identical for every N, the halo\n"
        "                and makespan columns change (default 1)\n"
        "  --vs N        VECTOR_SIZE           (default 240)\n"
        "  --sweep       run the paper's full grid {16,64,128,240,256,512}\n"
        "                x {vanilla,vec2,ivec2,vec1} in parallel\n"
        "  --solve       chain the instrumented Krylov solve as phase 9\n"
        "                (implies --scheme semi)\n"
        "  --steps N     run N transient semi-implicit steps (phases 1-11;\n"
        "                implies --scheme semi, default scenario 'cavity');\n"
        "                with --sweep: the full campaign, every scenario x\n"
        "                all four platforms x the studied VECTOR_SIZEs\n"
        "  --scenario S  cavity | channel | taylor-green (implies --steps,\n"
        "                default 5)\n"
        "  --jobs N      sweep worker threads (default 0 = all cores;\n"
        "                1 = serial)\n"
        "  --mesh X,Y,Z  elements per axis     (default 16,20,24)\n"
        "  --csv FILE    append measurement rows as CSV\n"
        "  --checkpoint-every N\n"
        "                transient runs: checkpoint every N steps (epoch\n"
        "                protocol, DESIGN.md S10); needs --checkpoint-dir\n"
        "                or --resume\n"
        "  --checkpoint-dir D\n"
        "                directory for point_<i>.ckpt files (created if\n"
        "                missing)\n"
        "  --resume D    resume every point from its checkpoint in D (same\n"
        "                config and --checkpoint-every as the original run;\n"
        "                the resumed campaign is bit-identical to an\n"
        "                uninterrupted one at that cadence)\n"
        "  --max-retries N\n"
        "                retry failed points up to N times, stepping down\n"
        "                the degradation ladder (deflate->cheby->jacobi,\n"
        "                shards->1, sell->ell->csr) each retry (default 0)\n"
        "  --fault-plan P\n"
        "                deterministic fault injection: 'kind@point[.step]'\n"
        "                entries joined with ';' (kinds: breakdown, nan-rhs,\n"
        "                zero-diag, worker-death) or 'seed=S[:faults=N]'\n"
        "  --prv BASE    write BASE.prv/BASE.pcf Paraver trace (single run)\n"
        "  --advise      print co-design Advisor findings\n"
        "  --remarks     print the compiler model's vectorization remarks\n"
        "  --help\n";
}

/// Report a bad flag/value pair on stderr.  Always returns false so parse
/// call sites can `return fail(...)`.
bool fail(const std::string& flag, const std::string& why) {
  std::cerr << "vecfd-run: " << flag << ": " << why << '\n'
            << "vecfd-run: try --help\n";
  return false;
}

std::optional<sim::MachineConfig> parse_machine(const std::string& name) {
  if (name == "riscv-vec") return platforms::riscv_vec();
  if (name == "riscv-vec-scalar") return platforms::riscv_vec_scalar();
  if (name == "sx-aurora") return platforms::sx_aurora();
  if (name == "mn4-avx512") return platforms::mn4_avx512();
  return std::nullopt;
}

std::optional<miniapp::OptLevel> parse_opt(const std::string& o) {
  if (o == "scalar") return miniapp::OptLevel::kScalar;
  if (o == "vanilla") return miniapp::OptLevel::kVanilla;
  if (o == "vec2") return miniapp::OptLevel::kVec2;
  if (o == "ivec2") return miniapp::OptLevel::kIVec2;
  if (o == "vec1") return miniapp::OptLevel::kVec1;
  return std::nullopt;
}

/// Strict integer parse: the whole string must be a base-10 integer.
std::optional<int> parse_int(const char* s) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < INT_MIN || v > INT_MAX) {
    return std::nullopt;
  }
  return static_cast<int>(v);
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (a == "--machine") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.machine = v;
    } else if (a == "--opt") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.opt = v;
    } else if (a == "--scheme") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.scheme = v;
      opt.scheme_set = true;
    } else if (a == "--format") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.format = v;
    } else if (a == "--rcm") {
      opt.rcm = true;
    } else if (a == "--precond") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.precond = v;
    } else if (a == "--shards") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n <= 0) {
        return fail(a, "invalid shard count '" + std::string(v) +
                           "' (want a positive integer)");
      }
      opt.shards = *n;
    } else if (a == "--vs") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n <= 0) {
        return fail(a, "invalid VECTOR_SIZE '" + std::string(v) +
                           "' (want a positive integer)");
      }
      opt.vs = *n;
    } else if (a == "--jobs") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n < 0) {
        return fail(a, "invalid job count '" + std::string(v) +
                           "' (want 0 = all cores, or a positive integer)");
      }
      opt.jobs = *n;
    } else if (a == "--sweep") {
      opt.sweep = true;
    } else if (a == "--solve") {
      opt.solve = true;
    } else if (a == "--steps") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n <= 0) {
        return fail(a, "invalid step count '" + std::string(v) +
                           "' (want a positive integer)");
      }
      opt.steps = *n;
    } else if (a == "--scenario") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.scenario = v;
    } else if (a == "--mesh") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      if (std::sscanf(v, "%d,%d,%d", &opt.nx, &opt.ny, &opt.nz) != 3 ||
          opt.nx <= 0 || opt.ny <= 0 || opt.nz <= 0) {
        return fail(a, "invalid mesh '" + std::string(v) +
                           "' (want X,Y,Z with positive elements per axis)");
      }
      opt.mesh_set = true;
    } else if (a == "--csv") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.csv_path = v;
    } else if (a == "--checkpoint-every") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n <= 0) {
        return fail(a, "invalid checkpoint cadence '" + std::string(v) +
                           "' (want a positive step count)");
      }
      opt.checkpoint_every = *n;
    } else if (a == "--checkpoint-dir") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.checkpoint_dir = v;
    } else if (a == "--resume") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.resume_dir = v;
    } else if (a == "--max-retries") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      const auto n = parse_int(v);
      if (!n || *n < 0) {
        return fail(a, "invalid retry budget '" + std::string(v) +
                           "' (want 0 or a positive integer)");
      }
      opt.max_retries = *n;
    } else if (a == "--fault-plan") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.fault_plan = v;
    } else if (a == "--prv") {
      const char* v = next();
      if (!v) return fail(a, "missing value");
      opt.prv_base = v;
    } else if (a == "--advise") {
      opt.advise = true;
    } else if (a == "--remarks") {
      opt.remarks = true;
    } else {
      return fail(a, "unknown option");
    }
  }
  return true;
}

/// Print the compiler model's remarks for one configuration (--remarks).
void print_remarks(const sim::MachineConfig& machine,
                   const miniapp::MiniAppConfig& cfg) {
  const compiler::VectorizationModel model(
      machine, cfg.opt != miniapp::OptLevel::kScalar);
  std::cout << "vectorization remarks:\n";
  for (const auto& r : compiler::remarks(model, miniapp::loop_infos(cfg))) {
    std::cout << "  " << r << '\n';
  }
  std::cout << '\n';
}

/// Serialize @p rows with @p writer (--csv), atomically: the rows land in
/// `path + ".tmp"` and are renamed over @p path only once fully written, so
/// a killed process never leaves a truncated CSV under the real name.
/// Returns the process exit code so both the single-run and transient paths
/// share one error policy.
template <class Rows, class Writer>
int write_csv_file(const std::string& path, const Rows& rows, Writer writer,
                   const char* what) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) {
      std::cerr << "cannot open " << tmp << '\n';
      return 2;
    }
    writer(os, rows);
    if (!os) {
      std::cerr << "write failed: " << tmp << '\n';
      return 2;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::cerr << "cannot rename " << tmp << " to " << path << '\n';
    std::remove(tmp.c_str());
    return 2;
  }
  std::cout << "wrote " << rows.size() << ' ' << what << " to " << path
            << '\n';
  return 0;
}

void print_phase_row(core::Table& t, int p, double cycles, double share,
                     const metrics::VectorMetrics& pm) {
  t.add_row({std::to_string(p), core::fmt(cycles, 0), core::fmt_pct(share),
             core::fmt_pct(pm.mv), core::fmt(pm.avl, 1)});
}

void print_campaign_run(const core::CampaignRun& r) {
  std::cout << r.scenario << " / " << r.point.machine.name << " / "
            << to_string(r.point.opt) << " / "
            << to_string(r.point.format)
            << (r.point.rcm_renumber ? "+rcm" : "")
            << (r.point.precond != solver::PrecondKind::kJacobi
                    ? std::string("+") + solver::to_string(r.point.precond)
                    : "")
            << (r.point.shards > 1
                    ? " / shards=" + std::to_string(r.point.shards)
                    : "")
            << (r.loop.effective_shards != r.point.shards
                    ? " (fell back: solved on " +
                          std::to_string(r.loop.effective_shards) + " Vpu)"
                    : "")
            << " / VECTOR_SIZE=" << r.point.vector_size << " / steps="
            << r.point.steps << '\n';
  std::cout << "  cycles=" << core::fmt(r.total_cycles, 0)
            << "  Mv=" << core::fmt_pct(r.overall.mv)
            << "  Av=" << core::fmt_pct(r.overall.av)
            << "  vCPI=" << core::fmt(r.overall.vcpi, 1)
            << "  AVL=" << core::fmt(r.overall.avl, 1)
            << "  Ev=" << core::fmt_pct(r.overall.ev) << '\n';
  core::Table t({"phase", "cycles", "share", "Mv", "AVL"});
  for (int p = 1; p <= miniapp::kNumInstrumentedPhases; ++p) {
    const double cycles = r.phase_cycles(p);
    const double share =
        r.total_cycles > 0.0 ? cycles / r.total_cycles : 0.0;
    print_phase_row(t, p, cycles, share,
                    r.phase_metrics[static_cast<std::size_t>(p)]);
  }
  std::cout << t.to_string();
  std::cout << "  solves: momentum " << r.momentum_iterations
            << " iters (phase 9), pressure " << r.pressure_iterations
            << " iters (phase 10), "
            << (r.all_converged ? "all converged" : "NOT all converged")
            << ", final div=" << core::fmt(r.final_divergence, 6);
  if (r.solver_failures > 0) {
    std::cout << ", " << r.solver_failures << " solver FAILURES";
  }
  std::cout << '\n';
}

/// Print one fault-tolerant outcome: the run (when one completed) plus the
/// retry digest; a point whose final attempt never ran prints its error.
void print_campaign_outcome(std::size_t index,
                            const core::CampaignOutcome& o) {
  if (!o.error.empty()) {
    std::cout << o.run.scenario << " / " << o.run.point.machine.name
              << " / VECTOR_SIZE=" << o.run.point.vector_size << '\n'
              << "  point " << index << " FAILED after " << o.attempts
              << (o.attempts == 1 ? " attempt: " : " attempts: ") << o.error
              << '\n';
    return;
  }
  print_campaign_run(o.run);
  if (o.attempts > 1 || o.final_status != "ok") {
    std::cout << "  retry ladder: " << o.attempts << " attempts, status "
              << o.final_status;
    if (o.degraded) {
      std::cout << " (degraded from "
                << solver::to_string(o.requested.precond)
                << "/shards=" << o.requested.shards << '/'
                << to_string(o.requested.format) << " to "
                << solver::to_string(o.run.point.precond)
                << "/shards=" << o.run.point.shards << '/'
                << to_string(o.run.point.format) << ')';
    }
    std::cout << '\n';
  }
}

/// The transient path: a single TimeLoop run, or (--sweep) the full
/// campaign over scenario x platform x VECTOR_SIZE.
int run_transient(const Options& opts, const sim::MachineConfig& machine,
                  miniapp::OptLevel level, solver::SpmvFormat format,
                  sim::FaultPlan fault_plan) {
  solver::PrecondKind precond = solver::PrecondKind::kJacobi;
  solver::precond_from_string(opts.precond, precond);  // validated by caller
  std::vector<miniapp::Scenario> scens;
  if (opts.scenario || !opts.sweep) {
    const std::string name = opts.scenario.value_or("cavity");
    try {
      scens.push_back(miniapp::scenario_by_name(name));
    } catch (const std::invalid_argument&) {
      fail("--scenario", "unknown scenario '" + name + "'");
      return 2;
    }
  } else {
    scens = miniapp::all_scenarios();
  }
  if (opts.mesh_set) {
    for (auto& s : scens) {
      s.mesh.nx = opts.nx;
      s.mesh.ny = opts.ny;
      s.mesh.nz = opts.nz;
    }
  }
  const core::Campaign camp(std::move(scens));

  std::vector<core::CampaignPoint> points;
  if (opts.sweep) {
    const sim::MachineConfig machines[] = {
        platforms::riscv_vec(), platforms::riscv_vec_scalar(),
        platforms::sx_aurora(), platforms::mn4_avx512()};
    points = camp.grid(machines, miniapp::kStudiedVectorSizes, opts.steps);
    for (auto& p : points) {
      p.opt = level;
      p.format = format;
      p.rcm_renumber = opts.rcm;
      p.precond = precond;
      p.shards = opts.shards;
    }
  } else {
    core::CampaignPoint p;
    p.machine = machine;
    p.vector_size = opts.vs;
    p.steps = opts.steps;
    p.opt = level;
    p.format = format;
    p.rcm_renumber = opts.rcm;
    p.precond = precond;
    p.shards = opts.shards;
    points.push_back(p);
  }
  if (opts.format == "auto") {
    // --format auto is a PER-MACHINE and PER-SHARD policy: each platform
    // gets its own recommendation (not the --machine flag's), sized by the
    // rows each shard's Vpu actually streams (DESIGN.md §9).
    for (auto& p : points) {
      p.format = core::recommend_format(
          p.machine, camp.mesh(p.scenario).num_nodes() / p.shards);
    }
  }

  core::CampaignFtOptions ft;
  ft.retry.max_retries = opts.max_retries;
  ft.checkpoint_every = opts.checkpoint_every;
  if (opts.resume_dir) {
    ft.checkpoint_dir = *opts.resume_dir;
    ft.resume = true;
  } else if (opts.checkpoint_dir) {
    ft.checkpoint_dir = *opts.checkpoint_dir;
    std::error_code ec;
    std::filesystem::create_directories(ft.checkpoint_dir, ec);
    if (ec) {
      std::cerr << "vecfd-run: --checkpoint-dir: cannot create '"
                << ft.checkpoint_dir << "': " << ec.message() << '\n';
      return 2;
    }
  }
  if (!fault_plan.empty()) {
    // Seeded plans draw their (kind, point, step) triples from the actual
    // campaign shape; explicit plans are validated against it.
    fault_plan.materialize(static_cast<int>(points.size()), opts.steps);
    ft.faults = &fault_plan;
  }

  const auto outcomes = camp.run_points_ft(points, ft, opts.jobs);
  bool any_dead = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    print_campaign_outcome(i, outcomes[i]);
    if (!outcomes[i].error.empty()) any_dead = true;
    std::cout << '\n';
  }

  if (opts.remarks) {
    miniapp::MiniAppConfig cfg;
    cfg.vector_size = points.front().vector_size;
    cfg.scheme = fem::Scheme::kSemiImplicit;
    cfg.opt = level;
    print_remarks(machine, cfg);
  }

  if (opts.csv_path) {
    const int rc = write_csv_file(
        *opts.csv_path, outcomes,
        [](std::ostream& os, const std::vector<core::CampaignOutcome>& os2) {
          core::write_campaign_csv(os, os2);
        },
        "campaign rows");
    if (rc != 0) return rc;
  }
  // A completed-but-failed run keeps exit 0 (its status is in the CSV, the
  // historic zero-diagonal demo behaviour); only a point that never
  // produced a run — e.g. an un-retried worker death — fails the process.
  return any_dead ? 1 : 0;
}

void print_measurement(const core::Measurement& m) {
  std::cout << m.machine.name << " / " << to_string(m.app.opt)
            << " / VECTOR_SIZE=" << m.app.vector_size << " / "
            << to_string(m.app.scheme) << '\n';
  std::cout << "  cycles=" << core::fmt(m.total_cycles, 0)
            << "  Mv=" << core::fmt_pct(m.overall.mv)
            << "  Av=" << core::fmt_pct(m.overall.av)
            << "  vCPI=" << core::fmt(m.overall.vcpi, 1)
            << "  AVL=" << core::fmt(m.overall.avl, 1)
            << "  Ev=" << core::fmt_pct(m.overall.ev) << '\n';
  core::Table t({"phase", "cycles", "share", "Mv", "AVL",
                 "L1 DCM/ki"});
  // phases 10/11 belong to the transient loop; a --solve run ends at 9
  const int last_phase =
      m.has_solve ? miniapp::kSolvePhase : miniapp::kNumPhases;
  for (int p = 1; p <= last_phase; ++p) {
    t.add_row({std::to_string(p), core::fmt(m.phase_cycles(p), 0),
               core::fmt_pct(m.phase_share(p)),
               core::fmt_pct(m.phase_metrics[p].mv),
               core::fmt(m.phase_metrics[p].avl, 1),
               core::fmt(metrics::l1_dcm_per_kilo_instr(m.phase[p]), 1)});
  }
  std::cout << t.to_string();
  if (m.has_solve) {
    std::cout << "  solve (phase 9): "
              << (m.solve.converged ? "converged" : "NOT converged") << " in "
              << m.solve.iterations
              << " iters, residual=" << core::fmt(m.solve.residual, 12)
              << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    return 2;
  }
  const auto machine = parse_machine(opts.machine);
  if (!machine) {
    fail("--machine", "unknown machine '" + opts.machine + "'");
    return 2;
  }
  const auto level = parse_opt(opts.opt);
  if (!level) {
    fail("--opt", "unknown optimization level '" + opts.opt + "'");
    return 2;
  }
  if (opts.scheme != "explicit" && opts.scheme != "semi") {
    fail("--scheme", "unknown scheme '" + opts.scheme + "'");
    return 2;
  }
  if (opts.solve && !opts.scheme_set) {
    opts.scheme = "semi";  // --solve implies the semi-implicit scheme
  }
  if (opts.solve && opts.scheme != "semi") {
    fail("--solve", "requires --scheme semi (the explicit scheme assembles "
                    "no matrix to solve)");
    return 2;
  }
  solver::SpmvFormat format;
  if (opts.format == "auto") {
    format = core::recommend_format(*machine);
  } else if (const auto f = solver::format_from_string(opts.format)) {
    format = *f;
  } else {
    fail("--format", "unknown format '" + opts.format +
                         "' (want csr, ell, sell or auto)");
    return 2;
  }
  if (opts.rcm && !opts.transient()) {
    fail("--rcm", "requires a transient run (add --steps or --scenario; "
                  "the assembly sweep solves in assembly order)");
    return 2;
  }
  solver::PrecondKind precond = solver::PrecondKind::kJacobi;
  if (!solver::precond_from_string(opts.precond, precond)) {
    fail("--precond", "unknown preconditioner '" + opts.precond +
                          "' (want jacobi, cheby or deflate)");
    return 2;
  }
  if (precond != solver::PrecondKind::kJacobi && !opts.transient()) {
    fail("--precond", "requires a transient run (add --steps or --scenario; "
                      "the ladder preconditions the phase-10 pressure "
                      "solve)");
    return 2;
  }
  if (opts.shards != 1 && !opts.transient()) {
    fail("--shards", "requires a transient run (add --steps or --scenario; "
                     "sharding decomposes the phase-10 pressure solve)");
    return 2;
  }
  if (!opts.transient()) {
    const char* ft_flag = opts.checkpoint_every > 0 ? "--checkpoint-every"
                          : opts.checkpoint_dir    ? "--checkpoint-dir"
                          : opts.resume_dir        ? "--resume"
                          : opts.max_retries > 0   ? "--max-retries"
                          : opts.fault_plan        ? "--fault-plan"
                                                   : nullptr;
    if (ft_flag) {
      fail(ft_flag, "requires a transient run (add --steps or --scenario; "
                    "fault tolerance applies to transient campaigns)");
      return 2;
    }
  }
  if (opts.checkpoint_dir && opts.resume_dir) {
    fail("--checkpoint-dir", "incompatible with --resume (a resumed "
                             "campaign checkpoints back into the directory "
                             "it resumes from)");
    return 2;
  }
  if (opts.checkpoint_every > 0 && !opts.checkpoint_dir &&
      !opts.resume_dir) {
    fail("--checkpoint-every", "requires --checkpoint-dir or --resume "
                               "(somewhere to put the checkpoints)");
    return 2;
  }
  if ((opts.checkpoint_dir || opts.resume_dir) &&
      opts.checkpoint_every <= 0) {
    fail(opts.checkpoint_dir ? "--checkpoint-dir" : "--resume",
         "requires --checkpoint-every (the cadence defines the epoch "
         "protocol, and a resume must replay the original cadence)");
    return 2;
  }
  if (opts.resume_dir) {
    std::error_code ec;
    if (!std::filesystem::is_directory(*opts.resume_dir, ec)) {
      fail("--resume", "'" + *opts.resume_dir + "' is not a directory");
      return 2;
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(*opts.resume_dir, ec)) {
      if (entry.path().extension() == ".tmp") {
        fail("--resume",
             "leftover partial checkpoint '" + entry.path().string() +
                 "' (an interrupted save; delete it to resume from the "
                 "last complete checkpoint)");
        return 2;
      }
    }
  }
  sim::FaultPlan fault_plan;
  if (opts.fault_plan) {
    try {
      fault_plan = sim::FaultPlan::parse(*opts.fault_plan);
    } catch (const std::invalid_argument& e) {
      fail("--fault-plan", e.what());
      return 2;
    }
  }

  if (opts.transient()) {
    if (!opts.scheme_set) {
      opts.scheme = "semi";  // the transient loop is semi-implicit
    }
    if (opts.scheme != "semi") {
      fail(opts.steps > 0 ? "--steps" : "--scenario",
           "requires --scheme semi (the transient loop assembles and solves "
           "the momentum matrix every step)");
      return 2;
    }
    if (opts.solve) {
      fail("--solve", "incompatible with --steps/--scenario (the transient "
                      "loop runs its own instrumented solves)");
      return 2;
    }
    if (opts.prv_base) {
      fail("--prv", "requires an assembly run (omit --steps/--scenario)");
      return 2;
    }
    if (opts.advise) {
      fail("--advise", "requires an assembly run (omit --steps/--scenario)");
      return 2;
    }
    if (opts.steps == 0) opts.steps = 5;  // --scenario implies a short loop
    return run_transient(opts, *machine, *level, format,
                         std::move(fault_plan));
  }

  const fem::Mesh mesh({.nx = opts.nx, .ny = opts.ny, .nz = opts.nz});
  const fem::State state(mesh);
  const core::Experiment ex(mesh, state);

  miniapp::MiniAppConfig cfg;
  cfg.opt = *level;
  cfg.scheme = opts.scheme == "semi" ? fem::Scheme::kSemiImplicit
                                     : fem::Scheme::kExplicit;
  cfg.run_solve = opts.solve;
  cfg.solve_format = format;

  std::vector<core::Measurement> ms;
  if (opts.sweep) {
    ms = ex.sweep_grid(*machine, cfg, miniapp::kStudiedVectorSizes,
                       core::kSweepOptLevels, opts.jobs);
  } else {
    cfg.vector_size = opts.vs;
    ms.push_back(ex.run(*machine, cfg));
  }

  for (const auto& m : ms) {
    print_measurement(m);
    if (opts.advise) {
      std::cout << "advisor findings:\n";
      for (const auto& f : core::advise(m)) {
        std::cout << "  [" << core::to_string(f.kind) << "] " << f.message
                  << '\n';
      }
    }
    std::cout << '\n';
  }

  if (opts.remarks) {
    cfg.vector_size = ms.front().app.vector_size;
    print_remarks(*machine, cfg);
  }

  if (opts.csv_path) {
    const int rc = write_csv_file(
        *opts.csv_path, ms,
        [](std::ostream& os, const std::vector<core::Measurement>& rows) {
          core::write_csv(os, rows);
        },
        "rows");
    if (rc != 0) return rc;
  }

  if (opts.prv_base) {
    if (opts.sweep) {
      std::cerr << "--prv requires a single run (omit --sweep)\n";
      return 2;
    }
    // re-run with tracing enabled
    miniapp::MiniApp app(mesh, state, cfg);
    sim::Vpu vpu(*machine);
    trace::VehaveTrace tr(1u << 22);
    vpu.set_observer(&tr);
    (void)app.run(vpu);
    std::ofstream prv(*opts.prv_base + ".prv");
    std::ofstream pcf(*opts.prv_base + ".pcf");
    if (!prv || !pcf) {
      std::cerr << "cannot open " << *opts.prv_base << ".prv/.pcf\n";
      return 2;
    }
    const std::size_t n = trace::write_paraver_prv(prv, tr);
    trace::write_paraver_pcf(pcf);
    std::cout << "wrote " << n << " trace records to " << *opts.prv_base
              << ".prv (" << tr.dropped() << " dropped)\n";
  }
  return 0;
}
