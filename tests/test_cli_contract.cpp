// CLI contract of the vecfd-run binary: --help exits 0, every invalid
// argument names the offending flag on stderr and exits non-zero, and the
// parallel sweep writes byte-identical CSV to the serial sweep.
//
// CMake injects the binary path as VECFD_RUN_BIN.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>


namespace {

namespace fs = std::filesystem;

const std::string kBin = VECFD_RUN_BIN;

int exit_code(const std::string& args) {
  const std::string cmd = kBin + " " + args + " >/dev/null 2>/dev/null";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string stderr_of(const std::string& args) {
  const std::string cmd = kBin + " " + args + " 2>&1 1>/dev/null";
  FILE* p = popen(cmd.c_str(), "r");
  EXPECT_NE(p, nullptr);
  std::string out;
  char buf[256];
  while (p != nullptr && fgets(buf, sizeof buf, p) != nullptr) out += buf;
  if (p != nullptr) pclose(p);
  return out;
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(CliContract, HelpExitsZero) {
  EXPECT_EQ(exit_code("--help"), 0);
  EXPECT_EQ(exit_code("-h"), 0);
}

TEST(CliContract, DefaultRunExitsZero) {
  EXPECT_EQ(exit_code("--mesh 4,4,2"), 0);
}

TEST(CliContract, SolveRunExitsZeroAndImpliesSemiScheme) {
  EXPECT_EQ(exit_code("--solve --mesh 4,4,2 --vs 16"), 0);
  EXPECT_EQ(exit_code("--solve --scheme semi --mesh 4,4,2 --vs 16"), 0);
}

TEST(CliContract, FormatFlagAcceptsEveryFormatAndAuto) {
  // the sparse-format knob applies to the chained solve and the transient
  // loop alike; auto resolves through the Advisor per machine
  EXPECT_EQ(exit_code("--solve --mesh 4,4,2 --vs 16 --format csr"), 0);
  EXPECT_EQ(exit_code("--solve --mesh 4,4,2 --vs 16 --format sell"), 0);
  EXPECT_EQ(exit_code("--steps 1 --mesh 3,3,3 --vs 16 --format ell"), 0);
  EXPECT_EQ(exit_code("--steps 1 --mesh 3,3,3 --vs 16 --format auto"), 0);
  EXPECT_EQ(
      exit_code("--steps 1 --mesh 3,3,3 --vs 16 --format sell --rcm"), 0);
}

TEST(CliContract, FormatAndRcmInvalidUsesNameTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--format bogus", "--format"},
      {"--format", "--format"},  // missing value
      {"--steps 1 --format coo", "--format"},
      {"--rcm", "--rcm"},               // needs a transient run
      {"--solve --rcm", "--rcm"},       // the assembly-chained solve too
  };
  for (const auto& c : cases) {
    EXPECT_EQ(exit_code(c.args), 2) << c.args;
    EXPECT_NE(stderr_of(c.args).find(c.flag), std::string::npos)
        << c.args << " should name " << c.flag << " on stderr";
  }
}

TEST(CliContract, TransientRunExitsZeroAndImpliesSemiScheme) {
  // --steps runs the time loop on the default cavity scenario; --scenario
  // alone implies a short loop; both imply --scheme semi
  EXPECT_EQ(exit_code("--steps 2 --mesh 3,3,3 --vs 16"), 0);
  EXPECT_EQ(exit_code("--scenario taylor-green --steps 2 --mesh 3,3,3 "
                      "--vs 16"),
            0);
  EXPECT_EQ(exit_code("--scenario cavity --mesh 3,3,3 --vs 16 --steps 1 "
                      "--scheme semi"),
            0);
}

TEST(CliContract, TransientInvalidArgumentsNameTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--steps 0", "--steps"},
      {"--steps -3", "--steps"},
      {"--steps banana", "--steps"},
      {"--steps", "--steps"},  // missing value
      {"--steps 2 --scheme explicit", "--steps"},
      {"--scenario bogus --steps 1", "--scenario"},
      {"--scenario", "--scenario"},  // missing value
      {"--scenario cavity --scheme explicit", "--scenario"},
      {"--steps 1 --solve", "--solve"},  // the loop solves on its own
      {"--steps 1 --prv trace", "--prv"},
      {"--steps 1 --advise", "--advise"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(exit_code(c.args), 2) << c.args;
    EXPECT_NE(stderr_of(c.args).find(c.flag), std::string::npos)
        << c.args << " should name " << c.flag << " on stderr";
  }
}

TEST(CliContract, TransientCampaignCsvIsDeterministicAcrossJobs) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path serial = dir / "vecfd_campaign_serial.csv";
  const fs::path parallel = dir / "vecfd_campaign_parallel.csv";
  // single-scenario campaign (--sweep + --scenario restricts the grid) on
  // a tiny mesh so the contract test stays fast
  const std::string base =
      "--sweep --scenario cavity --steps 1 --mesh 3,3,3 ";
  ASSERT_EQ(exit_code(base + "--jobs 1 --csv " + serial.string()), 0);
  ASSERT_EQ(exit_code(base + "--jobs 4 --csv " + parallel.string()), 0);
  const std::string a = slurp(serial);
  const std::string b = slurp(parallel);
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("scenario,machine"), std::string::npos);
  EXPECT_NE(a.find("ph11_avl"), std::string::npos);
  EXPECT_EQ(a, b);
  fs::remove(serial);
  fs::remove(parallel);
}

TEST(CliContract, InvalidArgumentsExitNonZeroAndNameTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--machine bogus", "--machine"},
      {"--vs -7", "--vs"},
      {"--vs 0", "--vs"},
      {"--vs banana", "--vs"},
      {"--mesh 0,0,0", "--mesh"},
      {"--opt turbo", "--opt"},
      {"--scheme magic", "--scheme"},
      {"--jobs -2", "--jobs"},
      {"--frobnicate", "--frobnicate"},
      {"--machine", "--machine"},  // missing value
      {"--solve --scheme explicit", "--solve"},  // solve needs a matrix
      {"--precond bogus", "--precond"},
      {"--precond cheby", "--precond"},  // ladder rungs need --transient
  };
  for (const auto& c : cases) {
    EXPECT_NE(exit_code(c.args), 0) << c.args;
    EXPECT_NE(stderr_of(c.args).find(c.flag), std::string::npos)
        << c.args << " should name " << c.flag << " on stderr";
  }
}

TEST(CliContract, FaultToleranceInvalidArgumentsNameTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--checkpoint-every", "--checkpoint-every"},  // missing value
      {"--checkpoint-dir", "--checkpoint-dir"},
      {"--resume", "--resume"},
      {"--max-retries", "--max-retries"},
      {"--fault-plan", "--fault-plan"},
      {"--steps 1 --checkpoint-every 0 --checkpoint-dir /tmp/x",
       "--checkpoint-every"},
      {"--steps 1 --checkpoint-every -1 --checkpoint-dir /tmp/x",
       "--checkpoint-every"},
      {"--steps 1 --max-retries -1", "--max-retries"},
      // every fault-tolerance knob needs a transient run
      {"--checkpoint-every 1 --checkpoint-dir /tmp/x", "--checkpoint-every"},
      {"--max-retries 2", "--max-retries"},
      {"--fault-plan breakdown@0", "--fault-plan"},
      {"--solve --max-retries 1", "--max-retries"},
      // the checkpoint flags form a contract among themselves
      {"--steps 1 --checkpoint-every 2", "--checkpoint-every"},
      {"--steps 1 --checkpoint-dir /tmp/x", "--checkpoint-dir"},
      {"--steps 1 --resume /tmp/x", "--resume"},
      {"--steps 1 --checkpoint-every 1 --checkpoint-dir /tmp/x "
       "--resume /tmp/x",
       "--resume"},
      // a malformed plan names --fault-plan, not a raw parse error
      {"--steps 1 --mesh 3,3,3 --fault-plan bogus@0", "--fault-plan"},
      {"--steps 1 --mesh 3,3,3 --fault-plan seed=1:faults=0", "--fault-plan"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(exit_code(c.args), 2) << c.args;
    EXPECT_NE(stderr_of(c.args).find(c.flag), std::string::npos)
        << c.args << " should name " << c.flag << " on stderr";
  }
}

TEST(CliContract, ResumeRejectsMissingDirAndLeftoverTmp) {
  const fs::path dir =
      fs::temp_directory_path() / "vecfd_cli_resume_contract";
  fs::remove_all(dir);

  // nonexistent directory
  const std::string args =
      "--steps 2 --mesh 3,3,3 --vs 16 --checkpoint-every 1 --resume " +
      dir.string();
  EXPECT_EQ(exit_code(args), 2);
  EXPECT_NE(stderr_of(args).find("--resume"), std::string::npos);

  // a leftover partial write means the previous save died mid-rename:
  // refuse to resume rather than silently load who-knows-what
  fs::create_directories(dir);
  std::ofstream(dir / "point_0.ckpt.tmp") << "partial";
  EXPECT_EQ(exit_code(args), 2);
  EXPECT_NE(stderr_of(args).find(".tmp"), std::string::npos);
  fs::remove_all(dir);
}

TEST(CliContract, CheckpointThenResumeExitsZero) {
  const fs::path dir = fs::temp_directory_path() / "vecfd_cli_ckpt_run";
  fs::remove_all(dir);
  const std::string base = "--steps 2 --mesh 3,3,3 --vs 16 ";
  ASSERT_EQ(exit_code(base + "--checkpoint-every 1 --checkpoint-dir " +
                      dir.string()),
            0);
  EXPECT_TRUE(fs::exists(dir / "point_0.ckpt"));
  EXPECT_FALSE(fs::exists(dir / "point_0.ckpt.tmp"));
  EXPECT_EQ(exit_code(base + "--checkpoint-every 1 --resume " +
                      dir.string()),
            0);
  fs::remove_all(dir);
}

TEST(CliContract, FaultPlanRunsExitByOutcome) {
  const std::string base = "--steps 2 --mesh 3,3,3 --vs 16 ";
  // a completed-but-failed point is still a completed campaign: exit 0
  EXPECT_EQ(exit_code(base + "--fault-plan breakdown@0.0"), 0);
  // recovery on the retry ladder: exit 0
  EXPECT_EQ(exit_code(base + "--fault-plan breakdown@0.0 --max-retries 2 "
                             "--precond deflate"),
            0);
  // an unretried worker death leaves a point with no run at all: exit 1
  EXPECT_EQ(exit_code(base + "--fault-plan worker-death@0"), 1);
}

TEST(CliContract, ParallelSweepCsvIsByteIdenticalToSerial) {
  const fs::path dir = fs::temp_directory_path();
  const fs::path serial = dir / "vecfd_cli_serial.csv";
  const fs::path parallel = dir / "vecfd_cli_parallel.csv";
  const std::string mesh = "--mesh 4,4,2";
  ASSERT_EQ(exit_code("--sweep --jobs 1 " + mesh + " --csv " +
                      serial.string()),
            0);
  ASSERT_EQ(exit_code("--sweep --jobs 4 " + mesh + " --csv " +
                      parallel.string()),
            0);
  const std::string a = slurp(serial);
  const std::string b = slurp(parallel);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  fs::remove(serial);
  fs::remove(parallel);
}

}  // namespace
