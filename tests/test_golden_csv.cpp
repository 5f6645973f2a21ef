// Golden-file regression of the sweep and campaign CSV schemas and values.
//
// Two small workloads are serialized and compared against checked-in
// goldens:
//
//   * tests/golden/sweep_small.csv — an assembly sweep (phases 1–9)
//     through core::write_csv;
//   * tests/golden/campaign_small.csv — fault-tolerant transient campaigns
//     (phases 1–11) through core::write_campaign_csv, covering the
//     TimeLoop knobs whose counter streams no other oracle pins against a
//     fixed reference: ell/sell, RCM, pressure shards (including the
//     cheby/deflate and scalar-machine single-Vpu fallbacks), the
//     per-component momentum path, checkpoint epochs and retried faults.
//
// For each golden:
//
//   * the SCHEMA (header row) must match byte for byte — any column
//     addition/rename/reorder is a deliberate, reviewed change;
//   * the VALUES are tolerance-compared per cell (numeric cells within
//     1e-9 relative, everything else exactly), so last-ulp timing noise
//     across compilers doesn't flake while real counter regressions fail.
//
// Updating the goldens is deliberate: run the test binary with
// `--regen-golden` and commit the rewritten files.
//
// This suite links plain GTest (no gtest_main): the custom main owns the
// --regen-golden flag.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/csv.h"
#include "platforms/platforms.h"
#include "sim/fault_injection.h"

namespace {

using namespace vecfd;

/// The golden workload: small mesh, two VECTOR_SIZEs x two optimization
/// levels, semi-implicit with the chained phase-9 solve, serial (jobs=1)
/// so the golden never depends on the host's core count.
std::string generate_sweep_csv() {
  const fem::Mesh mesh({.nx = 4, .ny = 4, .nz = 2});
  const fem::State state(mesh);
  const core::Experiment ex(mesh, state);
  miniapp::MiniAppConfig cfg;
  cfg.scheme = fem::Scheme::kSemiImplicit;
  cfg.run_solve = true;
  const int sizes[] = {16, 64};
  const miniapp::OptLevel levels[] = {miniapp::OptLevel::kVanilla,
                                      miniapp::OptLevel::kVec1};
  const auto ms =
      ex.sweep_grid(platforms::riscv_vec(), cfg, sizes, levels, /*jobs=*/1);
  std::ostringstream os;
  core::write_csv(os, ms);
  return os.str();
}

/// Two serial fault-tolerant campaigns on 4×4×3 meshes over 3 steps,
/// written as one CSV: the first without checkpoint epochs, the second
/// with an epoch boundary (machine drain) after every step.  Each carries
/// one planned fault and a one-retry budget; zero-diag hits a csr-host
/// point with no rung left to degrade to, so its faulted run is the row.
std::string generate_campaign_csv() {
  auto scens = miniapp::all_scenarios();  // cavity, channel, taylor-green
  for (auto& s : scens) s.mesh = {.nx = 4, .ny = 4, .nz = 3};
  const core::Campaign camp(std::move(scens));
  using solver::PrecondKind;
  using solver::SpmvFormat;
  const auto point = [](int scenario, const sim::MachineConfig& machine,
                        int vs, SpmvFormat format, bool rcm, int shards,
                        PrecondKind precond = PrecondKind::kJacobi,
                        bool blocked = true) {
    core::CampaignPoint p;
    p.scenario = scenario;
    p.machine = machine;
    p.vector_size = vs;
    p.steps = 3;
    p.format = format;
    p.rcm_renumber = rcm;
    p.shards = shards;
    p.precond = precond;
    p.blocked_momentum = blocked;
    return p;
  };
  const sim::MachineConfig vec = platforms::riscv_vec();
  const sim::MachineConfig scalar = platforms::riscv_vec_scalar();
  const SpmvFormat ell = SpmvFormat::kEll;
  const SpmvFormat sell = SpmvFormat::kSell;
  const core::CampaignPoint no_epochs[] = {
      point(0, vec, 16, ell, false, 1),
      point(0, vec, 64, sell, true, 4),
      point(1, vec, 16, ell, true, 1),
      point(2, vec, 64, sell, false, 4),
      point(0, vec, 16, ell, true, 4, PrecondKind::kCheby),
      point(1, vec, 64, sell, true, 4, PrecondKind::kDeflate),
      point(2, scalar, 16, ell, false, 1),
      point(0, vec, 16, ell, true, 1, PrecondKind::kJacobi, false),
      point(1, vec, 16, SpmvFormat::kCsrHost, false, 1),
  };
  const core::CampaignPoint epochs[] = {
      point(0, vec, 64, sell, true, 4),
      point(2, vec, 16, ell, false, 1),
      point(1, vec, 16, sell, true, 4, PrecondKind::kDeflate),
      point(0, scalar, 16, ell, true, 4),
      point(2, vec, 64, ell, true, 4, PrecondKind::kJacobi, false),
  };
  core::CampaignFtOptions opts;
  opts.retry.max_retries = 1;
  const sim::FaultPlan zero_diag = sim::FaultPlan::parse("zero-diag@8.1");
  opts.faults = &zero_diag;
  std::vector<core::CampaignOutcome> outcomes =
      camp.run_points_ft(no_epochs, opts, /*jobs=*/1);
  const sim::FaultPlan breakdown = sim::FaultPlan::parse("breakdown@4.1");
  opts.faults = &breakdown;
  opts.checkpoint_every = 1;
  for (auto& o : camp.run_points_ft(epochs, opts, /*jobs=*/1)) {
    outcomes.push_back(std::move(o));
  }
  std::ostringstream os;
  core::write_campaign_csv(os, outcomes);
  return os.str();
}

struct GoldenCase {
  const char* path;
  std::string (*generate)();
};

const GoldenCase kCases[] = {
    {VECFD_GOLDEN_DIR "/sweep_small.csv", generate_sweep_csv},
    {VECFD_GOLDEN_DIR "/campaign_small.csv", generate_campaign_csv},
};

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string l;
  while (std::getline(is, l)) out.push_back(l);
  return out;
}

std::vector<std::string> cells_of(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string c;
  while (std::getline(is, c, ',')) out.push_back(c);
  return out;
}

std::string slurp(const char* path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(GoldenCsv, GoldenFileExists) {
  for (const GoldenCase& c : kCases) {
    EXPECT_FALSE(slurp(c.path).empty())
        << "missing " << c.path
        << " — regenerate with: test_golden_csv --regen-golden";
  }
}

TEST(GoldenCsv, SchemaIsByteStable) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.path);
    const auto fresh = lines_of(c.generate());
    const auto golden = lines_of(slurp(c.path));
    ASSERT_FALSE(golden.empty());
    ASSERT_FALSE(fresh.empty());
    EXPECT_EQ(fresh[0], golden[0])
        << "CSV header changed — if intentional, regenerate the golden with "
           "--regen-golden and review the schema diff";
  }
}

TEST(GoldenCsv, ValuesMatchWithinTolerance) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.path);
    const auto fresh = lines_of(c.generate());
    const auto golden = lines_of(slurp(c.path));
    ASSERT_EQ(fresh.size(), golden.size()) << "row count changed";
    for (std::size_t row = 1; row < golden.size(); ++row) {
      const auto got = cells_of(fresh[row]);
      const auto want = cells_of(golden[row]);
      ASSERT_EQ(got.size(), want.size()) << "arity of row " << row;
      for (std::size_t col = 0; col < want.size(); ++col) {
        if (got[col] == want[col]) continue;  // fast path, incl. text cells
        char* end_g = nullptr;
        char* end_w = nullptr;
        const double g = std::strtod(got[col].c_str(), &end_g);
        const double w = std::strtod(want[col].c_str(), &end_w);
        const bool numeric = end_g != got[col].c_str() && *end_g == '\0' &&
                             end_w != want[col].c_str() && *end_w == '\0';
        ASSERT_TRUE(numeric) << "non-numeric mismatch at row " << row
                             << " col " << col << ": '" << got[col]
                             << "' vs '" << want[col] << "'";
        EXPECT_NEAR(g, w, 1e-9 * (1.0 + std::abs(w)))
            << "row " << row << " col " << col;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool regen = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen-golden") regen = true;
  }
  if (regen) {
    for (const GoldenCase& c : kCases) {
      std::ofstream os(c.path, std::ios::binary);
      if (!os) {
        std::fprintf(stderr, "cannot open %s\n", c.path);
        return 1;
      }
      os << c.generate();
      std::printf("regenerated %s\n", c.path);
    }
    return 0;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
