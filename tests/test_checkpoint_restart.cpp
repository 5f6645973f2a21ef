// Checkpoint/restart contract of miniapp/checkpoint.{h,cpp} (DESIGN.md §10):
//
//   * serialize_state/deserialize_state round-trip every registered field
//     of VECFD_TIMELOOP_STATE bit-exactly, counters included;
//   * save_checkpoint is atomic (`.tmp` + rename, no leftover temp file)
//     and load_checkpoint rejects missing files, foreign magic, version
//     skew, truncation and payload corruption BY NAME;
//   * timeloop_config_hash separates every knob the bit-identity contract
//     depends on, and TimeLoop::restore refuses a mismatched hash;
//   * the crash matrix: checkpoint a short cavity / taylor-green run at
//     EVERY step boundary, restart a fresh TimeLoop from each checkpoint,
//     and the resumed run is bit-identical to the uninterrupted run at the
//     same cadence — fields, residual histories, and every registered
//     counter (visit_pairs), across preconditioner rungs, shard counts,
//     formats and rcm;
//   * a completed-run checkpoint replays to the identical result;
//   * the checkpoint cadence changes only counters, never fields.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "fem/mesh.h"
#include "miniapp/checkpoint.h"
#include "miniapp/driver.h"
#include "miniapp/scenarios.h"
#include "miniapp/time_loop.h"
#include "platforms/platforms.h"
#include "sim/vpu.h"

namespace {

using namespace vecfd;
using miniapp::TimeLoopCheckpoint;

/// Fresh per-test scratch path under the system temp dir.
std::string scratch_path(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "vecfd_ckpt_test";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

TimeLoopCheckpoint sample_checkpoint() {
  TimeLoopCheckpoint c;
  c.config_hash = 0x1234'5678'9abc'def0ULL;
  c.next_step = 2;
  c.time = 0.25;
  c.unknowns = {1.0, -2.5, 3.25, 0.0, 1e-300};
  c.unknowns_old = {0.5, 2.0, -1.125, 4.0, -0.0};
  miniapp::StepReport s;
  s.time = 0.125;
  s.momentum[0].converged = true;
  s.momentum[0].iterations = 2;
  s.momentum[0].history = {1.0, 0.5, 1e-12};
  s.momentum[0].residual = 1e-12;
  // deserialize_state re-runs the solver::checked() exit gate, so every
  // synthetic report must satisfy history.size()==iterations+1 and
  // history.back()==residual.
  s.momentum[1].history = {1.0};
  s.momentum[1].residual = 1.0;
  s.momentum[2].history = {1.0};
  s.momentum[2].residual = 1.0;
  s.pressure.converged = false;
  s.pressure.iterations = 1;
  s.pressure.history = {1.0, 0.75};
  s.pressure.residual = 0.75;
  s.pressure.failure = "injected solver breakdown (fault plan)";
  s.div_before = 0.5;
  s.div_after = 0.01;
  s.cycles = 1234.0;
  c.step_reports = {s, s};
  c.total_counters.visit([](const sim::CounterInfo&, auto& v) { v += 7; });
  c.phase_counters.resize(
      static_cast<std::size_t>(miniapp::kNumInstrumentedPhases) + 1);
  c.phase_counters[1].visit([](const sim::CounterInfo&, auto& v) { v += 3; });
  c.all_converged = false;
  c.pressure_makespan_cycles = 987.5;
  return c;
}

void expect_counters_equal(const sim::Counters& a, const sim::Counters& b,
                           const char* what) {
  sim::Counters::visit_pairs(
      a, b, [&](const sim::CounterInfo& info, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << what << ": counter " << info.name;
      });
}

void expect_report_equal(const solver::SolveReport& a,
                         const solver::SolveReport& b, const char* what) {
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.residual, b.residual) << what;
  EXPECT_EQ(a.history, b.history) << what;
  EXPECT_EQ(a.failure, b.failure) << what;
}

void expect_checkpoint_equal(const TimeLoopCheckpoint& a,
                             const TimeLoopCheckpoint& b) {
  EXPECT_EQ(a.config_hash, b.config_hash);
  EXPECT_EQ(a.next_step, b.next_step);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.unknowns, b.unknowns);
  EXPECT_EQ(a.unknowns_old, b.unknowns_old);
  ASSERT_EQ(a.step_reports.size(), b.step_reports.size());
  for (std::size_t i = 0; i < a.step_reports.size(); ++i) {
    const auto& sa = a.step_reports[i];
    const auto& sb = b.step_reports[i];
    EXPECT_EQ(sa.time, sb.time);
    for (int d = 0; d < fem::kDim; ++d) {
      expect_report_equal(sa.momentum[static_cast<std::size_t>(d)],
                          sb.momentum[static_cast<std::size_t>(d)],
                          "momentum");
    }
    expect_report_equal(sa.pressure, sb.pressure, "pressure");
    EXPECT_EQ(sa.div_before, sb.div_before);
    EXPECT_EQ(sa.div_after, sb.div_after);
    EXPECT_EQ(sa.cycles, sb.cycles);
  }
  expect_counters_equal(a.total_counters, b.total_counters, "totals");
  ASSERT_EQ(a.phase_counters.size(), b.phase_counters.size());
  for (std::size_t p = 0; p < a.phase_counters.size(); ++p) {
    expect_counters_equal(a.phase_counters[p], b.phase_counters[p], "phase");
  }
  EXPECT_EQ(a.all_converged, b.all_converged);
  EXPECT_EQ(a.pressure_makespan_cycles, b.pressure_makespan_cycles);
}

TEST(CheckpointFormat, Crc32KnownVector) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(miniapp::crc32(msg, sizeof msg), 0xCBF43926u);
  EXPECT_EQ(miniapp::crc32(nullptr, 0), 0u);
}

TEST(CheckpointFormat, SerializeRoundTrip) {
  const TimeLoopCheckpoint c = sample_checkpoint();
  const auto buf = miniapp::serialize_state(c);
  expect_checkpoint_equal(miniapp::deserialize_state(buf), c);
}

TEST(CheckpointFormat, DeserializeRejectsTruncation) {
  const auto buf = miniapp::serialize_state(sample_checkpoint());
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 buf.size() / 2, buf.size() - 1}) {
    const std::vector<std::uint8_t> cut(buf.begin(),
                                        buf.begin() + static_cast<long>(keep));
    EXPECT_THROW(miniapp::deserialize_state(cut), std::runtime_error)
        << "kept " << keep << " of " << buf.size() << " bytes";
  }
}

TEST(CheckpointFormat, DeserializeRejectsTrailingBytes) {
  auto buf = miniapp::serialize_state(sample_checkpoint());
  buf.push_back(0);
  EXPECT_THROW(miniapp::deserialize_state(buf), std::runtime_error);
}

TEST(CheckpointFile, SaveLoadRoundTripIsAtomic) {
  const std::string path = scratch_path("roundtrip.ckpt");
  const TimeLoopCheckpoint c = sample_checkpoint();
  miniapp::save_checkpoint(path, c);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "atomic save must not leave a .tmp behind";
  expect_checkpoint_equal(miniapp::load_checkpoint(path), c);
  // Overwrite in place (the steady-state of the epoch protocol).
  TimeLoopCheckpoint c2 = c;
  c2.next_step = 3;
  miniapp::save_checkpoint(path, c2);
  EXPECT_EQ(miniapp::load_checkpoint(path).next_step, 3);
}

TEST(CheckpointFile, LoadRejectsMissingFile) {
  try {
    miniapp::load_checkpoint(scratch_path("no_such.ckpt"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no_such.ckpt"), std::string::npos);
  }
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::vector<char> read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<char> bytes;
  int ch;
  while ((ch = std::fgetc(f)) != EOF) bytes.push_back(static_cast<char>(ch));
  std::fclose(f);
  return bytes;
}

TEST(CheckpointFile, LoadRejectsForeignMagicVersionAndCorruption) {
  const std::string path = scratch_path("tamper.ckpt");
  miniapp::save_checkpoint(path, sample_checkpoint());
  const std::vector<char> good = read_bytes(path);

  auto expect_error_containing = [&](const std::vector<char>& bytes,
                                     const char* needle) {
    write_bytes(path, bytes);
    try {
      miniapp::load_checkpoint(path);
      FAIL() << "expected failure mentioning '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual: " << e.what();
    }
  };

  std::vector<char> bad_magic = good;
  bad_magic[0] = 'X';
  expect_error_containing(bad_magic, "magic");

  std::vector<char> bad_version = good;
  bad_version[7] = static_cast<char>(miniapp::kCheckpointVersion + 1);
  expect_error_containing(bad_version, "version");

  std::vector<char> truncated(good.begin(), good.end() - 5);
  expect_error_containing(truncated, "truncated");

  std::vector<char> corrupt = good;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
  expect_error_containing(corrupt, "CRC");
}

/// Write @p payload as a well-formed checkpoint file: magic, version,
/// payload size and a CRC recomputed over the (possibly crafted) payload.
void write_framed(const std::string& path,
                  const std::vector<std::uint8_t>& payload) {
  std::vector<char> bytes = {'V', 'F', 'C', 'K', 'P', 'T', '\0',
                             static_cast<char>(miniapp::kCheckpointVersion)};
  auto put_le = [&](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_le(payload.size(), 8);
  put_le(miniapp::crc32(payload.data(), payload.size()), 4);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  write_bytes(path, bytes);
}

/// Overwrite the little-endian u64 at @p off of @p buf.
void patch_u64(std::vector<std::uint8_t>& buf, std::size_t off,
               std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// A crafted file whose CRC matches but whose array count (2^32) the
// payload cannot possibly hold must be rejected by name — never reach
// operator new and surface as std::bad_alloc.
TEST(CheckpointFile, LoadRejectsImplausibleArrayCountsBeforeAllocating) {
  TimeLoopCheckpoint c;  // empty fields, reports and phase counters
  const std::vector<std::uint8_t> good = miniapp::serialize_state(c);
  // Payload layout: config_hash, next_step, time, two empty field
  // vectors (u64 length 0 each), then the step-report count at byte 40;
  // it ends with the phase-counter count, all_converged (u8) and the
  // makespan (f64), so that count sits 17 bytes from the end.
  const std::size_t step_count_at = 5 * 8;
  const std::size_t phase_count_at = good.size() - 17;
  const std::uint64_t kCrafted = std::uint64_t{1} << 32;
  const std::string path = scratch_path("crafted_count.ckpt");
  for (const auto& [off, needle] :
       {std::pair{step_count_at, "step report array"},
        std::pair{phase_count_at, "counter array"}}) {
    std::vector<std::uint8_t> crafted = good;
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(crafted[off + static_cast<std::size_t>(i)], 0u) << needle;
    }
    patch_u64(crafted, off, kCrafted);
    write_framed(path, crafted);
    try {
      miniapp::load_checkpoint(path);
      FAIL() << "expected a named rejection of the " << needle << " count";
    } catch (const std::bad_alloc&) {
      FAIL() << needle << ": allocated before bounds-checking the count";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual: " << e.what();
    }
  }
  // The unpatched payload, framed the same way, still loads.
  write_framed(path, good);
  expect_checkpoint_equal(miniapp::load_checkpoint(path), c);
}

// ---------------------------------------------------------------------------
// config hash
// ---------------------------------------------------------------------------

struct HashFixture {
  miniapp::Scenario scen;
  fem::Mesh mesh;
  miniapp::TimeLoopConfig cfg;
  sim::MachineConfig machine = platforms::riscv_vec();

  HashFixture() : scen(miniapp::scenario_by_name("cavity")), mesh([&] {
    scen.mesh.nx = 4;
    scen.mesh.ny = 4;
    scen.mesh.nz = 3;
    return fem::Mesh(scen.mesh);
  }()) {
    cfg.steps = 3;
  }

  std::uint64_t hash() const {
    return miniapp::timeloop_config_hash(scen.name, mesh, cfg, machine);
  }
};

TEST(ConfigHash, SeparatesEveryKnob) {
  HashFixture base;
  const std::uint64_t h0 = base.hash();
  EXPECT_EQ(h0, HashFixture().hash()) << "hash must be deterministic";

  {
    HashFixture f;
    f.cfg.steps = 4;
    EXPECT_NE(f.hash(), h0) << "steps";
  }
  {
    HashFixture f;
    f.cfg.shards = 4;
    EXPECT_NE(f.hash(), h0) << "shards";
  }
  {
    HashFixture f;
    f.cfg.precond = solver::PrecondKind::kCheby;
    EXPECT_NE(f.hash(), h0) << "precond";
  }
  {
    HashFixture f;
    f.cfg.format = solver::SpmvFormat::kSell;
    EXPECT_NE(f.hash(), h0) << "format";
  }
  {
    HashFixture f;
    f.cfg.rcm_renumber = true;
    EXPECT_NE(f.hash(), h0) << "rcm";
  }
  {
    HashFixture f;
    // The cadence changes the counter stream (epoch flushes), so it is
    // part of the contract the hash protects.
    f.cfg.checkpoint_every = 1;
    EXPECT_NE(f.hash(), h0) << "checkpoint_every";
  }
  {
    HashFixture f;
    f.machine = platforms::sx_aurora();
    EXPECT_NE(f.hash(), h0) << "machine";
  }
  {
    HashFixture f;
    f.scen.name = "cavity2";
    EXPECT_NE(f.hash(), h0) << "scenario name";
  }
}

TEST(ConfigHash, RestoreRefusesMismatch) {
  HashFixture f;
  f.cfg.checkpoint_every = 1;
  miniapp::TimeLoop loop(f.mesh, f.scen, f.cfg);
  std::vector<TimeLoopCheckpoint> ckpts;
  loop.set_checkpoint_sink(f.hash(), [&](const TimeLoopCheckpoint& c) {
    ckpts.push_back(c);
  });
  sim::Vpu vpu(f.machine);
  (void)loop.run(vpu);
  ASSERT_FALSE(ckpts.empty());

  miniapp::TimeLoop fresh(f.mesh, f.scen, f.cfg);
  EXPECT_THROW(fresh.restore(ckpts.front(), f.hash() ^ 1), std::runtime_error);
  EXPECT_NO_THROW(fresh.restore(ckpts.front(), f.hash()));
}

// ---------------------------------------------------------------------------
// crash matrix: bit-identical restart at every step boundary
// ---------------------------------------------------------------------------

struct MatrixConfig {
  const char* scenario;
  solver::PrecondKind precond;
  int shards;
  solver::SpmvFormat format;
  bool rcm;
};

constexpr MatrixConfig kMatrix[] = {
    {"cavity", solver::PrecondKind::kJacobi, 1, solver::SpmvFormat::kEll,
     false},
    {"cavity", solver::PrecondKind::kCheby, 4, solver::SpmvFormat::kSell,
     true},
    {"cavity", solver::PrecondKind::kDeflate, 1, solver::SpmvFormat::kEll,
     false},
    {"taylor-green", solver::PrecondKind::kJacobi, 4,
     solver::SpmvFormat::kSell, false},
    {"taylor-green", solver::PrecondKind::kDeflate, 4,
     solver::SpmvFormat::kEll, true},
};

struct FullRun {
  miniapp::TimeLoopResult result;
  std::vector<double> unknowns;
  std::vector<double> unknowns_old;
  std::vector<TimeLoopCheckpoint> checkpoints;
};

miniapp::Scenario matrix_scenario(const MatrixConfig& m) {
  miniapp::Scenario scen = miniapp::scenario_by_name(m.scenario);
  scen.mesh.nx = 4;
  scen.mesh.ny = 4;
  scen.mesh.nz = 3;
  return scen;
}

miniapp::TimeLoopConfig matrix_config(const MatrixConfig& m, int steps,
                                      int cadence) {
  miniapp::TimeLoopConfig cfg;
  cfg.steps = steps;
  cfg.precond = m.precond;
  cfg.shards = m.shards;
  cfg.format = m.format;
  cfg.rcm_renumber = m.rcm;
  cfg.checkpoint_every = cadence;
  return cfg;
}

FullRun run_with_checkpoints(const fem::Mesh& mesh,
                             const miniapp::Scenario& scen,
                             const miniapp::TimeLoopConfig& cfg,
                             const sim::MachineConfig& machine,
                             std::uint64_t hash,
                             const TimeLoopCheckpoint* resume_from) {
  miniapp::TimeLoop loop(mesh, scen, cfg);
  if (resume_from != nullptr) loop.restore(*resume_from, hash);
  FullRun full;
  loop.set_checkpoint_sink(hash, [&](const TimeLoopCheckpoint& c) {
    full.checkpoints.push_back(c);
  });
  sim::Vpu vpu(machine);
  full.result = loop.run(vpu);
  full.unknowns.assign(loop.state().unknowns().begin(),
                       loop.state().unknowns().end());
  full.unknowns_old.assign(loop.state().unknowns_old().begin(),
                           loop.state().unknowns_old().end());
  return full;
}

void expect_run_identical(const FullRun& a, const FullRun& b,
                          const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.unknowns, b.unknowns) << "final fields must be bit-identical";
  EXPECT_EQ(a.unknowns_old, b.unknowns_old);
  EXPECT_EQ(a.result.all_converged, b.result.all_converged);
  EXPECT_EQ(a.result.cycles, b.result.cycles);
  EXPECT_EQ(a.result.pressure_makespan_cycles,
            b.result.pressure_makespan_cycles);
  ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
  for (std::size_t i = 0; i < a.result.steps.size(); ++i) {
    const auto& sa = a.result.steps[i];
    const auto& sb = b.result.steps[i];
    EXPECT_EQ(sa.time, sb.time);
    for (int d = 0; d < fem::kDim; ++d) {
      expect_report_equal(sa.momentum[static_cast<std::size_t>(d)],
                          sb.momentum[static_cast<std::size_t>(d)],
                          "momentum");
    }
    expect_report_equal(sa.pressure, sb.pressure, "pressure");
    EXPECT_EQ(sa.div_before, sb.div_before);
    EXPECT_EQ(sa.div_after, sb.div_after);
    EXPECT_EQ(sa.cycles, sb.cycles) << "step " << i;
  }
  expect_counters_equal(a.result.total, b.result.total, "run totals");
  ASSERT_EQ(a.result.phase.size(), b.result.phase.size());
  for (std::size_t p = 0; p < a.result.phase.size(); ++p) {
    expect_counters_equal(a.result.phase[p], b.result.phase[p], "phase");
  }
}

TEST(CrashMatrix, RestartIsBitIdenticalAtEveryBoundary) {
  constexpr int kSteps = 3;
  const sim::MachineConfig machine = platforms::riscv_vec();
  for (const MatrixConfig& m : kMatrix) {
    const miniapp::Scenario scen = matrix_scenario(m);
    const fem::Mesh mesh(scen.mesh);
    const miniapp::TimeLoopConfig cfg = matrix_config(m, kSteps, 1);
    const std::uint64_t hash =
        miniapp::timeloop_config_hash(scen.name, mesh, cfg, machine);
    const std::string label = std::string(m.scenario) + "/" +
                              solver::to_string(m.precond) + "/shards=" +
                              std::to_string(m.shards);

    const FullRun full =
        run_with_checkpoints(mesh, scen, cfg, machine, hash, nullptr);
    ASSERT_EQ(full.checkpoints.size(), static_cast<std::size_t>(kSteps))
        << label << ": cadence 1 checkpoints every boundary incl. the last";

    // Crash after step k, restart from the k-th checkpoint: bit-identical.
    for (int k = 1; k < kSteps; ++k) {
      const FullRun resumed = run_with_checkpoints(
          mesh, scen, cfg, machine, hash,
          &full.checkpoints[static_cast<std::size_t>(k - 1)]);
      expect_run_identical(full, resumed,
                           label + " restart@" + std::to_string(k));
      // The resumed run re-emits the remaining boundaries identically.
      ASSERT_EQ(resumed.checkpoints.size(),
                static_cast<std::size_t>(kSteps - k));
      expect_checkpoint_equal(resumed.checkpoints.back(),
                              full.checkpoints.back());
    }

    // A completed checkpoint replays to the identical result at zero cost.
    const FullRun replay = run_with_checkpoints(
        mesh, scen, cfg, machine, hash, &full.checkpoints.back());
    expect_run_identical(full, replay, label + " replay");
  }
}

TEST(CrashMatrix, CadenceChangesCountersNeverFields) {
  const MatrixConfig m = kMatrix[1];  // cheby, 4 shards, sell, rcm
  const sim::MachineConfig machine = platforms::riscv_vec();
  const miniapp::Scenario scen = matrix_scenario(m);
  const fem::Mesh mesh(scen.mesh);

  FullRun runs[3];
  const int cadences[3] = {0, 1, 2};
  for (int i = 0; i < 3; ++i) {
    const miniapp::TimeLoopConfig cfg = matrix_config(m, 3, cadences[i]);
    const std::uint64_t hash =
        miniapp::timeloop_config_hash(scen.name, mesh, cfg, machine);
    runs[i] = run_with_checkpoints(mesh, scen, cfg, machine, hash, nullptr);
  }
  // checkpoint_every=0 writes nothing; every cadence produces the same
  // fields and residual histories (the numerics never see the cache).
  EXPECT_TRUE(runs[0].checkpoints.empty());
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(runs[0].unknowns, runs[i].unknowns)
        << "cadence " << cadences[i] << " changed the fields";
    ASSERT_EQ(runs[0].result.steps.size(), runs[i].result.steps.size());
    for (std::size_t s = 0; s < runs[0].result.steps.size(); ++s) {
      EXPECT_EQ(runs[0].result.steps[s].pressure.history,
                runs[i].result.steps[s].pressure.history);
    }
  }
  // The epoch flush is real: a cold restart each step costs extra memory
  // cycles, so cadence 1 differs from cadence 0 in counters.
  EXPECT_NE(runs[0].result.cycles, runs[1].result.cycles)
      << "epoch flushes must be visible in the cycle counters";
}

}  // namespace
