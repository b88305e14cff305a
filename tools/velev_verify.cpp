// velev_verify — command-line front end for the verification flow.
//
//   $ velev_verify --size 128 --width 4
//   $ velev_verify --size 128 --width 4 --bug fwd:72
//   $ velev_verify --size 4 --width 2 --strategy pe --dump-cnf out.cnf
//   $ velev_verify --size 2 --width 1 --strategy pe --proof out.drat
//   $ velev_verify --size 16 --width 4 --strategy pe --mem-budget 1024
//   $ velev_verify --grid "sizes=16,32,64;widths=1,2,4" --jobs 8 --json g.json
//   $ velev_verify --size 8 --width 2 --trace out/ --stats
//
// Options:
//   --size N          ROB size (default 8)
//   --width K         issue/retire width (default 2)
//   --grid SPEC       verify a whole grid instead of one configuration.
//                     SPEC is either "sizes=A,B,..;widths=X,Y,.." (cross
//                     product, cells with width > size dropped) or an
//                     explicit cell list "NxK,NxK,..."
//   --jobs N          grid mode: worker threads, one (N, k) cell per task
//                     (default 1). A single run is one cell, so N > 1 is a
//                     usage error there — use --cell-jobs
//   --cell-jobs N     intra-cell parallelism (default 1): shard the rewrite
//                     slice checks and the CNF build (Tseitin + one
//                     transitivity component per worker) across N threads
//                     *inside* each verification. Verdicts and counters are
//                     identical to --cell-jobs 1 — this only buys wall
//                     clock on big-N cells (docs/SCALING.md). Applies to
//                     single mode and grid mode alike; orthogonal to --jobs
//   --checkpoint DIR  grid mode: after every finished cell, append its
//                     record as one atomic segment to the result store in
//                     DIR (schema: docs/SCALING.md), so a killed sweep
//                     loses at most the cells in flight
//   --resume          grid mode, with --checkpoint: restore the cells whose
//                     records are already in DIR instead of re-verifying
//                     them; only unfinished cells run
//   --strategy S      rewrite (default) | pe
//   --engine E        sat (default) | bdd | both. `bdd` evaluates the
//                     negated correctness formula with shared ROBDDs built
//                     straight from the AIG (no Tseitin CNF) plus the
//                     transitivity constraints; `both` runs the two engines
//                     under sibling budgets and exits 2 on any conclusive
//                     verdict disagreement (the cross-check CI job).
//                     --proof requires the sat engine
//   --bug KIND:SLICE  inject a defect: fwd | stale | retire | alu |
//                     completion, at the given 1-based slice
//   --budget N        SAT conflict budget (default unlimited)
//   --timeout SECS    wall-clock budget per cell; exhaustion degrades into
//                     verdict `timeout` instead of running forever
//   --mem-budget MB   logical-arena memory budget per cell; exhaustion
//                     degrades into verdict `memout` instead of an OOM kill
//                     (how Table 2's "out of memory" entries reproduce)
//   --fallback P      grid mode: none (default) | rewrite (alias:
//                     retry-with-rewriting) — retry a cell whose PE-only
//                     attempt exhausted its budget with the rewriting
//                     strategy (the paper's headline comparison)
//   --no-inprocess    disable the CNF inprocessing front end of the SAT
//                     stage (variable elimination, subsumption,
//                     equivalent-literal substitution) — the
//                     pre-simplification baseline, used by the benches'
//                     before/after comparison
//   --no-coi          disable the cone-of-influence simulator optimization
//   --dump-cnf FILE   write the correctness CNF in DIMACS format
//   --proof FILE      log a DRAT proof and self-check it on UNSAT
//   --json FILE       write a machine-readable report (same schema as the
//                     benches' BENCH_<name>.json)
//   --connect ADDR    ship the request(s) to a running velev_serve daemon
//                     (docs/SERVICE.md) instead of verifying in-process.
//                     ADDR: "unix:PATH", a bare socket path, "HOST:PORT"
//                     or ":PORT". Verdicts, counters and exit codes match
//                     the local run; answers served from the daemon's
//                     result cache print a [cached] marker. Local-run
//                     features (--dump-cnf, --proof, --trace, --stats,
//                     --fallback, --checkpoint, --cell-jobs) do not apply
//   --trace DIR       write observability artifacts into DIR (created if
//                     missing): a Chrome-trace/Perfetto event stream
//                     (trace.json) and a versioned run manifest
//                     (manifest.json). Grid mode writes per-cell
//                     cell_<i>_<N>x<K>.{trace,manifest}.json plus one
//                     merged manifest.json. Schema: docs/TRACE_FORMAT.md
//   --stats           print the hierarchical stage-time tree and the final
//                     counters to stderr (single mode; grid cells record
//                     their statistics in the --trace manifests instead)
//   --quiet           print only the verdict line(s)
//
// Exit code (core::verdictExitCode — one mapping shared with the benches
// and cli_test): 0 correct, 1 bug found / mismatch, 2 usage error,
// 3 inconclusive/skipped, 4 timeout/memout. Grid mode aggregates by
// severity: any bug -> 1, else any timeout/memout -> 4, else any
// inconclusive/skipped -> 3, else 0.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "velev.hpp"

using namespace velev;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\nsee the header of tools/velev_verify.cpp "
                       "for usage\n",
               msg);
  std::exit(2);
}

models::BugKind parseBugKind(const std::string& s) {
  const auto k = models::bugKindFromName(s);
  if (!k.has_value() || *k == models::BugKind::None)
    usage(("unknown bug kind: " + s).c_str());
  return *k;
}

std::vector<unsigned> parseUnsignedList(const std::string& s) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(s.c_str() + pos, &end, 10);
    if (end == s.c_str() + pos) usage(("bad number in list: " + s).c_str());
    out.push_back(static_cast<unsigned>(v));
    pos = static_cast<std::size_t>(end - s.c_str());
    if (pos < s.size() && s[pos] == ',') ++pos;
  }
  return out;
}

std::vector<core::GridCell> parseGridSpec(const std::string& spec) {
  if (spec.find('=') != std::string::npos) {
    // "sizes=A,B,..;widths=X,Y,.."
    std::vector<unsigned> sizes, widths;
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t semi = spec.find(';', pos);
      const std::string part =
          spec.substr(pos, semi == std::string::npos ? semi : semi - pos);
      const std::size_t eq = part.find('=');
      if (eq == std::string::npos) usage("--grid expects key=value parts");
      const std::string key = part.substr(0, eq);
      if (key == "sizes") sizes = parseUnsignedList(part.substr(eq + 1));
      else if (key == "widths") widths = parseUnsignedList(part.substr(eq + 1));
      else usage(("unknown --grid key: " + key).c_str());
      if (semi == std::string::npos) break;
      pos = semi + 1;
    }
    if (sizes.empty() || widths.empty())
      usage("--grid needs both sizes= and widths=");
    return core::makeGrid(sizes, widths);
  }
  // "NxK,NxK,..."
  std::vector<core::GridCell> cells;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const std::size_t x = part.find('x');
    if (x == std::string::npos) usage("--grid cells must look like NxK");
    core::GridCell c;
    c.robSize = static_cast<unsigned>(std::atoi(part.c_str()));
    c.issueWidth = static_cast<unsigned>(std::atoi(part.c_str() + x + 1));
    if (c.issueWidth < 1 || c.issueWidth > c.robSize)
      usage(("impossible cell (need 1 <= width <= size): " + part).c_str());
    cells.push_back(c);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (cells.empty()) usage("--grid spec is empty");
  return cells;
}

/// --json report: the shared core::ReportCell schema (report_json.hpp)
/// inside the tool envelope. One writer serves the local paths and the
/// --connect client mode.
void writeJsonReport(const char* path, const char* mode, unsigned jobs,
                     const std::vector<core::ReportCell>& cells,
                     double totalSeconds) {
  std::ofstream os(path);
  JsonWriter w(os);
  w.beginObject();
  w.kv("tool", "velev_verify");
  w.kv("mode", mode);
  w.kv("jobs", jobs);
  w.key("cells");
  w.beginArray();
  for (const core::ReportCell& c : cells) core::writeReportCell(w, c);
  w.endArray();
  w.kv("total_wall_seconds", totalSeconds);
  w.endObject();
}

std::vector<core::ReportCell> toReportCells(
    const std::vector<core::GridCellResult>& results) {
  std::vector<core::ReportCell> cells;
  cells.reserve(results.size());
  for (const auto& r : results) cells.push_back(core::makeReportCell(r));
  return cells;
}

/// Flatten one wire response into the shared cell schema (sat_conflicts
/// comes back out of the canonical counter block).
core::ReportCell responseCell(const core::VerifyRequest& req,
                              const core::VerifyResponse& resp) {
  core::ReportCell c;
  c.robSize = req.robSize;
  c.issueWidth = req.issueWidth;
  c.label = resp.cached ? "cached" : "";
  c.verdict = core::verdictName(resp.verdict);
  c.reason = resp.reason;
  c.wallSeconds = resp.wallSeconds;
  for (const auto& [name, value] : resp.counters)
    if (name == "sat.conflicts") c.satConflicts = value;
  c.peakArenaBytes = resp.peakArenaBytes;
  c.memHighWaterKb = resp.rssHighWaterKb;
  c.counters = resp.counters;
  c.stageSeconds = {{"sim", resp.seconds.sim},
                    {"rewrite", resp.seconds.rewrite},
                    {"translate", resp.seconds.translate},
                    {"sat", resp.seconds.sat},
                    {"bdd", resp.seconds.bdd}};
  return c;
}

void printCellLine(const core::GridCellResult& r) {
  const unsigned n = r.cell.robSize, k = r.cell.issueWidth;
  switch (r.report.verdict()) {
    case core::Verdict::Correct:
      std::printf("cell %ux%u: CORRECT (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::CounterexampleFound:
      std::printf("cell %ux%u: COUNTEREXAMPLE FOUND (%.3f s)\n", n, k,
                  r.wallSeconds);
      break;
    case core::Verdict::RewriteMismatch:
      std::printf("cell %ux%u: NON-CONFORMING SLICE %u (%s)\n", n, k,
                  r.report.outcome.failedSlice,
                  r.report.outcome.reason.c_str());
      break;
    case core::Verdict::Inconclusive:
      std::printf("cell %ux%u: INCONCLUSIVE (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::Timeout:
      std::printf("cell %ux%u: TIMEOUT (%.3f s)\n", n, k, r.wallSeconds);
      break;
    case core::Verdict::MemOut:
      std::printf("cell %ux%u: OUT OF MEMORY (%.3f s)\n", n, k,
                  r.wallSeconds);
      break;
    case core::Verdict::Skipped:
      std::printf("cell %ux%u: SKIPPED\n", n, k);
      break;
  }
  if (r.fellBack)
    std::printf("cell %ux%u: retried with rewriting after PE-only %s\n", n, k,
                verdictName(r.firstVerdict));
  if (r.restored)
    std::printf("cell %ux%u: restored from checkpoint\n", n, k);
}

/// The more severe of two exit codes, in the order refuted (1) >
/// budget-exceeded (4) > inconclusive (3) > correct (0). Grid and --connect
/// runs fold their per-cell codes with it.
int worseExitCode(int a, int b) {
  auto severity = [](int code) {
    return code == 1 ? 3 : code == 4 ? 2 : code == 3 ? 1 : 0;
  };
  return severity(b) > severity(a) ? b : a;
}

int aggregateExitCode(const std::vector<core::GridCellResult>& results) {
  int worst = 0;
  for (const auto& r : results)
    worst = worseExitCode(worst, core::verdictExitCode(r.report.verdict()));
  return worst;
}

int runGridMode(const std::vector<core::VerifyRequest>& requests,
                const core::GridRunOptions& gopts, const char* jsonPath,
                bool quiet) {
  Timer total;
  const std::vector<core::GridCellResult> results =
      core::runGrid(requests, gopts);
  const double totalSec = total.seconds();
  for (const auto& r : results) printCellLine(r);
  if (!quiet)
    std::printf("grid: %zu cells in %.3f s with %u jobs\n", results.size(),
                totalSec, gopts.jobs);
  if (jsonPath)
    writeJsonReport(jsonPath, "grid", gopts.jobs, toReportCells(results),
                    totalSec);
  return aggregateExitCode(results);
}

/// --connect: ship the request(s) to a running velev_serve instead of
/// verifying in-process. The response carries the same verdict, counters
/// and exit-code mapping, so scripts behave identically either way.
int runConnectMode(const char* endpoint,
                   std::vector<core::VerifyRequest> requests,
                   const char* mode, const char* jsonPath, bool quiet) {
  std::string err;
  std::optional<serve::Client> client = serve::Client::connect(endpoint, &err);
  if (!client.has_value()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  Timer total;
  std::vector<core::ReportCell> cells;
  int worst = 0;
  std::uint64_t id = 1;
  for (core::VerifyRequest& r : requests) {
    r.id = id++;
    const std::optional<core::VerifyResponse> resp =
        client->roundTrip(r, &err);
    if (!resp.has_value()) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 2;
    }
    if (!resp->error.empty()) {
      std::fprintf(stderr, "error: server rejected cell %ux%u: %s\n",
                   r.robSize, r.issueWidth, resp->error.c_str());
      return 2;
    }
    std::printf("cell %ux%u: %s%s (%.3f s)\n", r.robSize, r.issueWidth,
                core::verdictName(resp->verdict),
                resp->cached ? " [cached]" : "", resp->wallSeconds);
    worst = worseExitCode(worst, resp->exitCode);
    cells.push_back(responseCell(r, *resp));
  }
  if (!quiet)
    std::printf("connect: %zu cell(s) via %s in %.3f s\n", cells.size(),
                endpoint, total.seconds());
  if (jsonPath)
    writeJsonReport(jsonPath, mode, 1, cells, total.seconds());
  return worst;
}

/// Progress lines of a single run, printed from the report: one per stage
/// that finished (a budget trip leaves the later stages' stats at zero).
void printProgress(const core::VerifyReport& rep) {
  const core::StageSeconds& s = rep.outcome.seconds;
  if (rep.simStats.cycles > 0)
    std::printf("simulated commutative diagram in %.3f s (%llu signal "
                "evaluations)\n",
                s.sim,
                static_cast<unsigned long long>(rep.simStats.signalEvals));
  if (rep.rewriteStats.slicesChecked > 0 &&
      rep.verdict() != core::Verdict::RewriteMismatch)
    std::printf("rewriting rules removed %u updates in %.3f s\n",
                rep.updatesRemoved, s.rewrite);
  const evc::TranslationStats& ev = rep.evcStats;
  if (ev.cnfVars > 0) {
    // Tseitin emits at least the negated root's clause, so a CNF holding
    // only the transitivity clauses means the BDD engine skipped it.
    if (ev.cnfClauses > ev.transitivity.clauses)
      std::printf("translated to CNF in %.3f s: %zu vars, %zu clauses, "
                  "%u e_ij variables\n",
                  s.translate, ev.cnfVars, ev.cnfClauses, ev.eijVars);
    else
      std::printf("translated in %.3f s: %u propositional inputs, "
                  "%u transitivity clauses, %u e_ij variables\n",
                  s.translate, ev.totalPrimaryVars(), ev.transitivity.clauses,
                  ev.eijVars);
  }
}

/// The stdout verdict line of a single run, from the report alone.
void printVerdict(const core::VerifyReport& rep) {
  const core::Outcome& o = rep.outcome;
  const core::Verdict v = o.verdict;
  if (v == core::Verdict::RewriteMismatch) {
    std::printf("verdict: NON-CONFORMING SLICE %u (%s) after %.3f s\n",
                o.failedSlice, o.reason.c_str(), o.seconds.rewrite);
    return;
  }
  if (rep.engine == core::Engine::Both) {
    std::printf("verdict: %s (cross-checked)\n", core::verdictName(v));
    return;
  }
  const bool bdd = rep.engine == core::Engine::Bdd;
  const double sec = bdd ? o.seconds.bdd : o.seconds.sat;
  switch (v) {
    case core::Verdict::Correct:
      std::printf("verdict: CORRECT (%s in %.3f s)\n",
                  bdd ? "BDD reduced to false" : "UNSAT", sec);
      break;
    case core::Verdict::CounterexampleFound:
      std::printf("verdict: COUNTEREXAMPLE FOUND (%s in %.3f s)\n",
                  bdd ? "satisfying path" : "SAT", sec);
      break;
    case core::Verdict::Timeout:
    case core::Verdict::MemOut:
      std::printf("verdict: %s (%s after %.3f s)\n",
                  v == core::Verdict::MemOut ? "OUT OF MEMORY" : "TIMEOUT",
                  o.reason.c_str(), o.seconds.total());
      break;
    default:
      std::printf("verdict: INCONCLUSIVE (budget exhausted after %.3f s)\n",
                  sec);
      break;
  }
}

/// Single mode: the request runs through core::verifyCell, the pipeline
/// every front end shares, and every line is printed from the returned
/// report. The CLI-only artifacts come back through the two VerifyOptions
/// sinks: the translated CNF (--dump-cnf, and the formula a --proof is
/// checked against) and the DRAT proof.
int runSingleMode(const core::VerifyRequest& req, unsigned cellJobs,
                  const char* dumpCnf, const char* proofPath,
                  const char* jsonPath, const char* traceDir, bool stats,
                  bool quiet) {
  core::VerifyOptions vopts = req.options();
  vopts.jobs = cellJobs;
  prop::Cnf cnf;
  sat::Proof proof;
  if (dumpCnf || proofPath) vopts.cnfOut = &cnf;
  if (proofPath) vopts.proofOut = &proof;

  // One Collector for the run when --trace or --stats asked for it;
  // verifyWith() records its spans and counter block into it.
  trace::Collector collector;
  const bool collecting = traceDir != nullptr || stats;
  Timer total;
  core::GridCellResult res;
  res.cell = core::GridCell{req.robSize, req.issueWidth, req.bug};
  {
    trace::Use tracing(collecting ? &collector : nullptr);
    res.report = core::verifyCell(req.config(), req.bug, vopts);
  }
  res.wallSeconds = total.seconds();
  res.memHighWaterKb = rssHighWaterKb();
  const core::VerifyReport& rep = res.report;

  if (!quiet) printProgress(rep);
  if (dumpCnf) {
    std::ofstream out(dumpCnf);
    prop::writeDimacs(cnf, out);
    if (!quiet) std::printf("wrote DIMACS to %s\n", dumpCnf);
  }
  if (!quiet && rep.bddStats.nodesPeak > 0)
    std::printf("bdd: %llu peak nodes, %llu reorderings, %llu/%llu cache "
                "hits\n",
                static_cast<unsigned long long>(rep.bddStats.nodesPeak),
                static_cast<unsigned long long>(rep.bddStats.reorderings),
                static_cast<unsigned long long>(rep.bddStats.cacheHits),
                static_cast<unsigned long long>(rep.bddStats.cacheLookups));
  if (proofPath && rep.outcome.satResult == sat::Result::Unsat) {
    const bool certified = sat::checkRup(cnf, proof);
    std::ofstream out(proofPath);
    sat::writeDrat(proof, out);
    std::printf("proof: %zu steps, self-check %s, written to %s\n",
                proof.size(), certified ? "PASSED" : "FAILED", proofPath);
    if (!certified) return 2;
  }
  printVerdict(rep);

  if (jsonPath)
    writeJsonReport(jsonPath, "single", 1, {core::makeReportCell(res)},
                    total.seconds());
  if (stats) collector.writeStageTree(std::cerr);
  if (traceDir) {
    std::filesystem::create_directories(traceDir);
    const std::string dir = traceDir;
    if (std::ofstream os(dir + "/trace.json"); os)
      collector.writeChromeTrace(os);
    if (std::ofstream os(dir + "/manifest.json"); os)
      trace::writeManifest(os, core::cellManifestData(res, vopts),
                           &collector);
    if (!quiet)
      std::printf("trace: wrote %s/trace.json and %s/manifest.json\n",
                  traceDir, traceDir);
  }
  return core::verdictExitCode(rep.verdict());
}

}  // namespace

int main(int argc, char** argv) {
  unsigned size = 8, width = 2, jobs = 1, cellJobs = 1;
  bool peOnly = false, quiet = false, coi = true;
  bool noInprocess = false, resume = false;
  const char* checkpointPath = nullptr;
  core::Engine engine = core::Engine::Sat;
  ResourceBudget budget;
  core::FallbackPolicy fallback = core::FallbackPolicy::None;
  models::BugSpec bug;
  const char* dumpCnf = nullptr;
  const char* proofPath = nullptr;
  const char* jsonPath = nullptr;
  const char* gridSpec = nullptr;
  const char* traceDir = nullptr;
  const char* connectEndpoint = nullptr;
  bool stats = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--size") size = std::atoi(next());
    else if (a == "--width") width = std::atoi(next());
    else if (a == "--jobs") {
      jobs = std::atoi(next());
      if (jobs < 1) usage("--jobs must be >= 1");
    } else if (a == "--cell-jobs") {
      cellJobs = std::atoi(next());
      if (cellJobs < 1) usage("--cell-jobs must be >= 1");
    } else if (a == "--checkpoint") checkpointPath = next();
    else if (a == "--resume") resume = true;
    else if (a == "--grid") gridSpec = next();
    else if (a == "--strategy") {
      const std::string s = next();
      if (s == "pe") peOnly = true;
      else if (s == "rewrite") peOnly = false;
      else usage(("unknown strategy: " + s).c_str());
    } else if (a == "--engine") {
      const std::string s = next();
      const auto e = core::engineFromName(s);
      if (!e.has_value()) usage(("unknown engine: " + s).c_str());
      engine = *e;
    } else if (a == "--bug") {
      const std::string s = next();
      const auto colon = s.find(':');
      if (colon == std::string::npos) usage("--bug expects KIND:SLICE");
      bug.kind = parseBugKind(s.substr(0, colon));
      bug.index = std::atoi(s.c_str() + colon + 1);
    } else if (a == "--budget") budget.satConflicts = std::atoll(next());
    else if (a == "--timeout") {
      budget.wallSeconds = std::atof(next());
      if (budget.wallSeconds <= 0) usage("--timeout must be > 0 seconds");
    } else if (a == "--mem-budget") {
      const long mb = std::atol(next());
      if (mb <= 0) usage("--mem-budget must be > 0 MiB");
      budget.memoryBytes = static_cast<std::size_t>(mb) * 1024u * 1024u;
    } else if (a == "--fallback") {
      const std::string s = next();
      if (s == "rewrite" || s == "retry-with-rewriting")
        fallback = core::FallbackPolicy::RetryWithRewriting;
      else if (s == "none") fallback = core::FallbackPolicy::None;
      else usage(("unknown fallback policy: " + s).c_str());
    } else if (a == "--no-inprocess") noInprocess = true;
    else if (a == "--no-coi") coi = false;
    else if (a == "--dump-cnf") dumpCnf = next();
    else if (a == "--proof") proofPath = next();
    else if (a == "--json") jsonPath = next();
    else if (a == "--connect") connectEndpoint = next();
    else if (a == "--trace") traceDir = next();
    else if (a == "--stats") stats = true;
    else if (a == "--quiet") quiet = true;
    else usage(("unknown option: " + a).c_str());
  }

  if (proofPath && engine != core::Engine::Sat)
    usage("--proof requires --engine sat (DRAT proofs come from the CDCL "
          "solver)");
  if (checkpointPath && !gridSpec)
    usage("--checkpoint applies to grid mode only (a single run has no "
          "cells to record)");
  if (resume && !checkpointPath)
    usage("--resume needs --checkpoint DIR (the store to restore from)");

  // The one serializable request the whole flag set folds into; grid mode
  // stamps sizes × widths onto copies of it, --connect ships it as-is.
  core::VerifyRequest base;
  base.robSize = size;
  base.issueWidth = width;
  base.bug = bug;
  base.strategy = peOnly ? core::Strategy::PositiveEqualityOnly
                         : core::Strategy::RewritingPlusPositiveEquality;
  base.engine = engine;
  base.coneOfInfluence = coi;
  base.inprocess = !noInprocess;
  base.timeoutSeconds = budget.wallSeconds;
  base.memoryBudgetBytes = budget.memoryBytes;
  base.satConflictBudget = budget.satConflicts;

  try {
  if (connectEndpoint) {
    if (dumpCnf || proofPath || traceDir || stats || checkpointPath ||
        cellJobs > 1 || fallback != core::FallbackPolicy::None)
      usage("--connect ships requests to a velev_serve daemon; "
            "--dump-cnf/--proof/--trace/--stats/--fallback/--checkpoint/"
            "--cell-jobs are local-run features");
    std::vector<core::VerifyRequest> requests;
    if (gridSpec) {
      for (const core::GridCell& c : parseGridSpec(gridSpec)) {
        core::VerifyRequest r = base;
        r.robSize = c.robSize;
        r.issueWidth = c.issueWidth;
        requests.push_back(r);
      }
    } else {
      if (width < 1 || width > size) usage("need 1 <= width <= size");
      requests.push_back(base);
    }
    return runConnectMode(connectEndpoint, std::move(requests),
                          gridSpec ? "grid" : "single", jsonPath, quiet);
  }

  if (gridSpec) {
    if (dumpCnf || proofPath)
      usage("--dump-cnf/--proof apply to single-configuration runs only");
    core::GridRunOptions gopts;
    gopts.jobs = jobs;
    gopts.cellJobs = cellJobs;
    gopts.fallback = fallback;
    if (traceDir) gopts.traceDir = traceDir;
    if (checkpointPath) gopts.checkpointPath = checkpointPath;
    gopts.resume = resume;
    if (stats)
      std::fprintf(stderr, "note: --stats is a single-run view; grid cells "
                           "record their statistics in the --trace "
                           "manifests\n");
    std::vector<core::VerifyRequest> requests;
    for (const core::GridCell& c : parseGridSpec(gridSpec)) {
      core::VerifyRequest r = base;
      r.robSize = c.robSize;
      r.issueWidth = c.issueWidth;
      requests.push_back(r);
    }
    return runGridMode(requests, gopts, jsonPath, quiet);
  }

  if (width < 1 || width > size) usage("need 1 <= width <= size");
  if (jobs > 1)
    usage("--jobs applies to grid mode only (a single run is one cell; "
          "--cell-jobs N parallelizes inside it)");
  return runSingleMode(base, cellJobs, dumpCnf, proofPath, jsonPath,
                       traceDir, stats, quiet);
  } catch (const InternalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
