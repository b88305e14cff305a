// End-to-end tests for the `velev_verify` command-line tool: exit codes
// for correct vs. buggy designs, single-mode reports identical to the
// library's core::verify(), DIMACS export round-trips through sat::Solver,
// DRAT proof self-check, and --jobs/--cell-jobs invariance (parallel
// verdicts identical to sequential ones). The binary path is injected by
// CMake as VELEV_VERIFY_BIN.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include "core/request.hpp"
#include "core/result_store.hpp"
#include "core/verifier.hpp"
#include "prop/cnf.hpp"
#include "sat/solver.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace velev {
namespace {

struct CliResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr
};

CliResult runCli(const std::string& args) {
  const std::string cmd = std::string(VELEV_VERIFY_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult res;
  char buf[4096];
  while (pipe && fgets(buf, sizeof buf, pipe) != nullptr) res.output += buf;
  if (pipe) {
    const int status = pclose(pipe);
    res.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return res;
}

std::string tmpPath(const char* name) {
  return ::testing::TempDir() + name;
}

// Every per-cell verdict line ("cell NxK: ..."), wall times stripped, for
// comparing runs that should reach identical verdicts.
std::string verdictLines(const std::string& output) {
  std::istringstream is(output);
  std::string line, out;
  while (std::getline(is, line)) {
    if (line.rfind("cell ", 0) != 0) continue;
    const auto timing = line.find(" (");
    out += line.substr(0, timing) + "\n";
  }
  return out;
}

TEST(Cli, CorrectDesignExitsZero) {
  const CliResult r = runCli("--size 4 --width 2 --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("verdict: CORRECT"), std::string::npos) << r.output;
}

TEST(Cli, BuggyDesignExitsOne) {
  const CliResult r = runCli("--size 8 --width 2 --bug fwd:3 --quiet");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("NON-CONFORMING SLICE 3"), std::string::npos)
      << r.output;
}

TEST(Cli, UsageErrorExitsTwo) {
  EXPECT_EQ(runCli("--no-such-flag").exitCode, 2);
  EXPECT_EQ(runCli("--size 2 --width 4").exitCode, 2);  // width > size
  EXPECT_EQ(runCli("--bug nonsense").exitCode, 2);
  EXPECT_EQ(runCli("--grid 2x4").exitCode, 2);  // impossible cell
  EXPECT_EQ(runCli("--jobs 0").exitCode, 2);
  // A single run is one cell: intra-cell parallelism is --cell-jobs.
  EXPECT_EQ(runCli("--size 4 --width 2 --jobs 2").exitCode, 2);
  // The shared-session grid mode is gone: old scripts must fail loudly.
  EXPECT_EQ(runCli("--grid 2x1,3x1 --incremental").exitCode, 2);
}

TEST(Cli, SingleModeMatchesLibrary) {
  // Single mode is a front end over core::verify(): the --json verdict,
  // reason and canonical counter block must equal the library's report for
  // the same request, on every strategy/engine/verdict shape.
  auto request = [](unsigned n, unsigned k, models::BugSpec bug = {},
                    bool peOnly = false, core::Engine e = core::Engine::Sat) {
    core::VerifyRequest r;
    r.robSize = n;
    r.issueWidth = k;
    r.bug = bug;
    if (peOnly) r.strategy = core::Strategy::PositiveEqualityOnly;
    r.engine = e;
    return r;
  };
  struct Case {
    const char* args;
    core::VerifyRequest req;
  };
  const Case cases[] = {
      {"--size 4 --width 2", request(4, 2)},
      {"--size 8 --width 2 --bug fwd:3",
       request(8, 2, {models::BugKind::ForwardingWrongOperand, 3})},
      {"--size 2 --width 1 --strategy pe --bug stale:2",
       request(2, 1, {models::BugKind::ForwardingStaleResult, 2}, true)},
      {"--size 2 --width 2 --strategy pe --engine bdd",
       request(2, 2, {}, true, core::Engine::Bdd)},
  };

  const std::string jsonPath = tmpPath("cli_single_vs_library.json");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    const core::VerifyReport lib = core::verify(c.req);
    const CliResult r =
        runCli(std::string(c.args) + " --json " + jsonPath + " --quiet");
    EXPECT_EQ(r.exitCode, core::verdictExitCode(lib.verdict())) << r.output;

    std::ifstream in(jsonPath);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const auto doc = parseJson(ss.str(), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const JsonValue* cells = doc->find("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->array.size(), 1u);
    const JsonValue& cell = cells->array[0];
    EXPECT_EQ(cell.stringAt("verdict"), core::verdictName(lib.verdict()));
    EXPECT_EQ(cell.stringAt("reason"), lib.outcome.reason);

    const JsonValue* counters = cell.find("counters");
    ASSERT_NE(counters, nullptr);
    std::vector<std::pair<std::string, std::uint64_t>> cli;
    for (const auto& [name, value] : counters->object)
      cli.emplace_back(name, static_cast<std::uint64_t>(value.number));
    EXPECT_EQ(cli, core::reportCounters(lib));
  }
}

TEST(Cli, UnknownEngineIsAUsageError) {
  const CliResult r = runCli("--engine cnf");
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("unknown engine"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("usage"), std::string::npos) << r.output;
}

TEST(Cli, BddEngineVerdictsMatchSat) {
  const CliResult ok = runCli("--size 2 --width 2 --strategy pe --engine bdd");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  const CliResult bug =
      runCli("--size 2 --width 1 --strategy pe --engine bdd --bug stale:2");
  EXPECT_EQ(bug.exitCode, 1) << bug.output;
}

TEST(Cli, BothEngineCrossChecksAndAgrees) {
  const CliResult ok = runCli("--size 2 --width 2 --strategy pe --engine both");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  const CliResult bug =
      runCli("--size 2 --width 1 --strategy pe --engine both --bug stale:2");
  EXPECT_EQ(bug.exitCode, 1) << bug.output;
  EXPECT_EQ(bug.output.find("disagreement"), std::string::npos) << bug.output;
}

TEST(Cli, ProofRequiresTheSatEngine) {
  const std::string proof = tmpPath("engine_proof.drat");
  const CliResult r = runCli("--size 2 --width 2 --engine bdd --proof " + proof);
  EXPECT_EQ(r.exitCode, 2) << r.output;
  EXPECT_NE(r.output.find("--proof requires --engine sat"), std::string::npos)
      << r.output;
}

TEST(Cli, BudgetExhaustionExitsThree) {
  const CliResult r =
      runCli("--size 4 --width 4 --strategy pe --budget 1 --quiet");
  EXPECT_EQ(r.exitCode, 3) << r.output;
  EXPECT_NE(r.output.find("INCONCLUSIVE"), std::string::npos) << r.output;
}

TEST(Cli, MemBudgetExhaustionExitsFour) {
  // A 1 MiB logical-arena budget cannot hold the PE-only translation of an
  // 8x4 design; the run must degrade into a memout verdict, not an OOM kill.
  const std::string jsonPath = tmpPath("cli_memout.json");
  const CliResult r = runCli(
      "--size 8 --width 4 --strategy pe --mem-budget 1 --json " + jsonPath +
      " --quiet");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("OUT OF MEMORY"), std::string::npos) << r.output;
  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"verdict\": \"memout\""), std::string::npos)
      << ss.str();
  EXPECT_NE(ss.str().find("\"reason\""), std::string::npos) << ss.str();
}

TEST(Cli, TimeoutExitsFour) {
  // PE-only at 4x4 takes far longer than 10 ms; the deadline must trip one
  // of the cooperative checkpoints and unwind into a timeout verdict.
  const CliResult r =
      runCli("--size 4 --width 4 --strategy pe --timeout 0.01 --quiet");
  EXPECT_EQ(r.exitCode, 4) << r.output;
  EXPECT_NE(r.output.find("TIMEOUT"), std::string::npos) << r.output;
}

TEST(Cli, BadBudgetValuesAreUsageErrors) {
  EXPECT_EQ(runCli("--size 4 --width 2 --timeout 0").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --mem-budget 0").exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --fallback bogus").exitCode, 2);
}

TEST(Cli, VerdictHelpersRoundTripEveryVerdict) {
  using core::Verdict;
  for (const Verdict v :
       {Verdict::Correct, Verdict::CounterexampleFound,
        Verdict::RewriteMismatch, Verdict::Inconclusive, Verdict::Timeout,
        Verdict::MemOut, Verdict::Skipped}) {
    const char* name = core::verdictName(v);
    ASSERT_NE(name, nullptr);
    const auto back = core::verdictFromName(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, v) << name;
    const int code = core::verdictExitCode(v);
    EXPECT_TRUE(code == 0 || code == 1 || code == 3 || code == 4) << name;
    EXPECT_NE(code, 2) << "2 is reserved for usage errors: " << name;
  }
  EXPECT_FALSE(core::verdictFromName("no-such-verdict").has_value());
  // The paper-facing mapping the tools rely on.
  EXPECT_EQ(core::verdictExitCode(core::Verdict::Correct), 0);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::CounterexampleFound), 1);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::Timeout), 4);
  EXPECT_EQ(core::verdictExitCode(core::Verdict::MemOut), 4);
}

TEST(Cli, DimacsExportRoundTripsThroughSolver) {
  // The BDD engine skips Tseitin on its own; --dump-cnf must still get the
  // full correctness CNF out of it.
  for (const char* engine : {"sat", "bdd"}) {
    SCOPED_TRACE(engine);
    const std::string cnfPath = tmpPath("cli_export.cnf");
    const CliResult r =
        runCli(std::string("--size 2 --width 1 --strategy pe --engine ") +
               engine + " --dump-cnf " + cnfPath + " --quiet");
    EXPECT_EQ(r.exitCode, 0) << r.output;

    std::ifstream in(cnfPath);
    ASSERT_TRUE(in.good());
    const prop::Cnf cnf = prop::parseDimacs(in);
    EXPECT_GT(cnf.numVars, 0u);
    EXPECT_GT(cnf.numClauses(), 0u);
    // The exported correctness CNF must agree with the in-process verdict:
    // UNSAT (the design is correct).
    EXPECT_EQ(sat::solveCnf(cnf), sat::Result::Unsat);
  }
}

TEST(Cli, ProofIsSelfCheckedOnUnsat) {
  const std::string proofPath = tmpPath("cli_proof.drat");
  const CliResult r = runCli("--size 2 --width 1 --strategy pe --proof " +
                             proofPath + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("self-check PASSED"), std::string::npos) << r.output;
  std::ifstream in(proofPath);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_FALSE(first.empty());
}

TEST(Cli, JobsVerdictsIdenticalToSequential) {
  const std::string grid = "--grid 'sizes=2,3,4;widths=1,2' --quiet";
  const CliResult seq = runCli(grid + " --jobs 1");
  const CliResult par = runCli(grid + " --jobs 3");
  EXPECT_EQ(seq.exitCode, 0) << seq.output;
  EXPECT_EQ(par.exitCode, seq.exitCode) << par.output;
  EXPECT_EQ(verdictLines(par.output), verdictLines(seq.output));
  EXPECT_NE(verdictLines(seq.output), "");
}

TEST(Cli, CellJobsVerdictsIdenticalToSequential) {
  // --cell-jobs parallelizes INSIDE each verification; verdicts must not
  // move, in either single or grid mode.
  const CliResult single = runCli("--size 8 --width 2 --cell-jobs 4 --quiet");
  EXPECT_EQ(single.exitCode, 0) << single.output;
  EXPECT_NE(single.output.find("verdict: CORRECT"), std::string::npos)
      << single.output;

  const std::string grid = "--grid 'sizes=3,4;widths=1,2' --quiet";
  const CliResult seq = runCli(grid);
  const CliResult par = runCli(grid + " --cell-jobs 3");
  EXPECT_EQ(seq.exitCode, 0) << seq.output;
  EXPECT_EQ(par.exitCode, 0) << par.output;
  EXPECT_EQ(verdictLines(par.output), verdictLines(seq.output));
}

TEST(Cli, GridCheckpointResumeRestoresFinishedCells) {
  const std::string ckpt = tmpPath("cli_resume.store");
  std::filesystem::remove_all(ckpt);
  const std::string grid = "--grid 'sizes=2,3;widths=1' --quiet";

  const CliResult first = runCli(grid + " --checkpoint " + ckpt);
  EXPECT_EQ(first.exitCode, 0) << first.output;
  EXPECT_EQ(first.output.find("restored from checkpoint"), std::string::npos)
      << first.output;

  // The checkpoint is a result store directory with one record per cell.
  core::ResultStore store(core::ResultStore::Options{ckpt});
  EXPECT_EQ(store.load().size(), 2u);

  // Resuming re-verifies nothing: both cells come back restored, with the
  // same verdict lines as the fresh run.
  const CliResult second = runCli(grid + " --checkpoint " + ckpt + " --resume");
  EXPECT_EQ(second.exitCode, 0) << second.output;
  EXPECT_NE(second.output.find("cell 2x1: restored from checkpoint"),
            std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("cell 3x1: restored from checkpoint"),
            std::string::npos)
      << second.output;
  std::filesystem::remove_all(ckpt);
}

TEST(Cli, CheckpointUsageErrors) {
  EXPECT_EQ(runCli("--grid 4x2 --resume").exitCode, 2);  // needs --checkpoint
  const std::string ckpt = tmpPath("cli_usage.store");
  // --checkpoint is a grid-mode flag.
  EXPECT_EQ(runCli("--size 4 --width 2 --checkpoint " + ckpt).exitCode, 2);
  EXPECT_EQ(runCli("--size 4 --width 2 --cell-jobs 0").exitCode, 2);
}

TEST(Cli, GridWithInjectedBugExitsOneEverywhere) {
  const CliResult r = runCli("--grid 4x2,8x2 --bug fwd:2 --jobs 2 --quiet");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find("NON-CONFORMING"), std::string::npos) << r.output;
}

TEST(Cli, TraceWritesPerfettoTraceAndVersionedManifest) {
  const std::string dir = tmpPath("cli_trace");
  const CliResult r =
      runCli("--size 4 --width 2 --cell-jobs 2 --stats --trace " + dir +
             " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  // --stats prints the stage tree and counters to stderr (merged in).
  EXPECT_NE(r.output.find("stage tree"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("verify.translate"), std::string::npos) << r.output;

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  std::string err;
  const auto tr = parseJson(slurp(dir + "/trace.json"), &err);
  ASSERT_TRUE(tr.has_value()) << err;
  const JsonValue* events = tr->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 10u);

  const auto m = parseJson(slurp(dir + "/manifest.json"), &err);
  ASSERT_TRUE(m.has_value()) << err;
  EXPECT_EQ(m->uintAt("schema_version"),
            static_cast<std::uint64_t>(trace::kManifestSchemaVersion));
  EXPECT_EQ(m->stringAt("tool"), "velev_verify");
  EXPECT_EQ(m->stringAt("verdict"), "correct");
  EXPECT_EQ(m->find("config")->uintAt("rob_size"), 4u);
  const JsonValue* counters = m->find("counters");
  ASSERT_NE(counters, nullptr);
  // The acceptance counters: encoding sizes, rewrite effort, SAT effort.
  EXPECT_GT(counters->uintAt("evc.p_equations"), 0u);
  EXPECT_GT(counters->uintAt("rewrite.rules_fired"), 0u);
  EXPECT_GT(counters->uintAt("cnf.vars"), 0u);
  EXPECT_NE(counters->find("evc.eij_vars"), nullptr);
  EXPECT_NE(counters->find("sat.conflicts"), nullptr);
}

TEST(Cli, GridTraceWritesPerCellAndMergedManifests) {
  const std::string dir = tmpPath("cli_grid_trace");
  const CliResult r =
      runCli("--grid 2x1,4x2 --jobs 2 --trace " + dir + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;

  auto parseFile = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = parseJson(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << path << ": " << err;
    return doc;
  };

  const auto cell = parseFile(dir + "/cell_1_4x2.manifest.json");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stringAt("tool"), "velev_grid");
  EXPECT_EQ(cell->find("config")->uintAt("rob_size"), 4u);
  EXPECT_EQ(cell->find("config")->uintAt("issue_width"), 2u);
  EXPECT_GT(cell->find("counters")->uintAt("eufm.nodes"), 0u);
  EXPECT_TRUE(parseFile(dir + "/cell_0_2x1.trace.json").has_value());

  const auto merged = parseFile(dir + "/manifest.json");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->stringAt("verdict"), "correct");
  EXPECT_EQ(merged->find("config")->uintAt("cells"), 2u);
  // Merged counters are sums over the cells, so at least the single-cell's.
  EXPECT_GT(merged->find("counters")->uintAt("eufm.nodes"),
            cell->find("counters")->uintAt("eufm.nodes"));
}

TEST(Cli, GridFallbackWithTraceWritesWellFormedCellManifests) {
  // A 1 MiB arena cannot hold the PE-only translation of an 8x4 design, so
  // with --fallback retry-with-rewriting (the long alias of "rewrite") the
  // cell must memout, retry under the rewriting strategy, succeed, and its
  // per-cell manifest must record the pre-retry verdict.
  const std::string dir = tmpPath("cli_fallback_trace");
  const CliResult r = runCli(
      "--grid 8x4 --strategy pe --mem-budget 1 "
      "--fallback retry-with-rewriting --trace " + dir + " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("retried with rewriting after PE-only memout"),
            std::string::npos)
      << r.output;

  auto parseFile = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    auto doc = parseJson(ss.str(), &err);
    EXPECT_TRUE(doc.has_value()) << path << ": " << err;
    return doc;
  };

  const auto cell = parseFile(dir + "/cell_0_8x4.manifest.json");
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->stringAt("tool"), "velev_grid");
  EXPECT_EQ(cell->stringAt("verdict"), "correct");
  const JsonValue* config = cell->find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->uintAt("rob_size"), 8u);
  EXPECT_EQ(config->stringAt("first_verdict"), "memout");
  EXPECT_GT(cell->find("counters")->uintAt("eufm.nodes"), 0u);
  EXPECT_TRUE(parseFile(dir + "/cell_0_8x4.trace.json").has_value());

  const auto merged = parseFile(dir + "/manifest.json");
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->stringAt("verdict"), "correct");
  EXPECT_EQ(merged->find("config")->uintAt("cells"), 1u);
}

TEST(Cli, JsonReportIsWrittenAndWellFormed) {
  const std::string jsonPath = tmpPath("cli_report.json");
  const CliResult r =
      runCli("--grid 'sizes=2,3;widths=1' --jobs 2 --json " + jsonPath +
             " --quiet");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"tool\": \"velev_verify\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"grid\""), std::string::npos);
  EXPECT_NE(json.find("\"rob_size\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"correct\""), std::string::npos);
  EXPECT_NE(json.find("\"mem_high_water_kb\""), std::string::npos);
}

}  // namespace
}  // namespace velev
