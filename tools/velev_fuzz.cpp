// velev_fuzz — seeded differential fuzzing of the verification pipeline.
//
//   $ velev_fuzz --seed 1 --cases 200 --out fuzz-out
//   $ velev_fuzz --replay tests/corpus/corpus_seed1.json
//   $ velev_fuzz --seed 7 --cases 50 --trace trace-out --quiet
//
// Each case draws a random (ROB size, issue width, bug kind, bug slice)
// configuration — including bug-free ones — and cross-checks four
// oracles: the rewriting flow, the budget-capped PE-only flow, the
// budget-capped BDD engine on the same PE translation, and direct concrete
// evaluation of the EUFM correctness formula under random finite
// interpretations. Any sound disagreement fails the run; PE SAT models
// are decoded back into term-level counterexamples and disagreeing cases
// are delta-debugged into minimal reproducers (see src/fuzz/fuzz.hpp).
//
// Options:
//   --seed S          run seed (default 1); everything that lands in the
//                     corpus is deterministic in it — same seed, same bytes
//   --cases N         number of generated cases (default 100)
//   --out DIR         write DIR/corpus.json + DIR/repro_case_<id>.json for
//                     every disagreement (default fuzz-out; "" disables)
//   --replay FILE     instead of generating: replay the corpus entries in
//                     FILE and diff the oracle verdicts against the
//                     recorded ones (repeatable)
//   --max-rob N       largest generated ROB size (default 6)
//   --max-width K     largest generated issue/retire width (default 4)
//   --eval-seeds N    interpretations per case for the evaluation oracle
//                     (default 48)
//   --pe-conflicts N  SAT conflict budget of the PE-only oracle (default
//                     120000; deterministic, unlike wall clock)
//   --pe-mem MB       logical-arena budget of the PE-only oracle in MiB
//                     (default 512; deterministic)
//   --no-pe           disable the PE-only oracle entirely
//   --no-inprocess    solve the PE oracle's CNF without the inprocessing
//                     front end (the pre-simplification baseline)
//   --no-shrink       keep failing cases at their generated size
//   --total-timeout S soft wall-clock stop for the whole run, checked
//                     between cases so it never flips a verdict (0 = off)
//   --trace DIR       write trace.json + manifest.json (docs/TRACE_FORMAT.md)
//   --quiet           suppress per-case progress lines
//
// Numeric values are strict (support/flags.hpp): a sign, junk or an
// out-of-range value is a usage error.
//
// Exit code: 0 all oracles agreed (on replay: everything reproduced),
// 1 disagreement/replay mismatch, 2 usage error.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "support/flags.hpp"
#include "support/trace.hpp"
#include "velev.hpp"

using namespace velev;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nsee the header of tools/velev_fuzz.cpp for usage\n",
               msg);
  std::exit(2);
}

int replayFiles(const std::vector<std::string>& files,
                const fuzz::OracleOptions& opts, bool quiet) {
  unsigned entries = 0, mismatches = 0;
  for (const std::string& path : files) {
    std::string err;
    const std::vector<fuzz::CorpusEntry> corpus =
        fuzz::loadCorpusFile(path, &err);
    if (corpus.empty()) usage(err.empty() ? ("empty corpus: " + path).c_str()
                                          : err.c_str());
    for (const fuzz::CorpusEntry& e : corpus) {
      ++entries;
      if (const auto m = fuzz::replayEntry(e, opts); m.has_value()) {
        ++mismatches;
        std::printf("REPLAY MISMATCH [%s] %s\n", path.c_str(), m->c_str());
      } else if (!quiet) {
        std::printf("replayed entry %llu of %s: ok\n",
                    static_cast<unsigned long long>(e.c.id), path.c_str());
      }
    }
  }
  std::printf("replay: %u entries, %u mismatches\n", entries, mismatches);
  return mismatches == 0 ? 0 : 1;
}

void writeTrace(const char* traceDir, const trace::Collector& collector,
                const fuzz::FuzzOptions& fopts, const fuzz::FuzzReport& rep) {
  std::filesystem::create_directories(traceDir);
  const std::string dir = traceDir;
  if (std::ofstream os(dir + "/trace.json"); os)
    collector.writeChromeTrace(os);
  trace::ManifestData m;
  m.tool = "velev_fuzz";
  m.config = {
      {"seed", std::to_string(fopts.seed)},
      {"cases", std::to_string(fopts.cases)},
      {"max_rob_size", std::to_string(fopts.gen.maxRobSize)},
      {"max_issue_width", std::to_string(fopts.gen.maxIssueWidth)},
      {"eval_seeds", std::to_string(fopts.oracle.evalSeeds)},
  };
  m.budgetWallSeconds = fopts.totalWallSeconds;
  m.budgetMemoryBytes = fopts.oracle.peBudget.memoryBytes;
  m.budgetSatConflicts = fopts.oracle.peBudget.satConflicts;
  m.verdict = rep.disagreements == 0 ? "agreement" : "disagreement";
  m.stageSeconds = {{"total", rep.seconds}};
  if (std::ofstream os(dir + "/manifest.json"); os)
    trace::writeManifest(os, m, &collector);
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzOptions fopts;
  fopts.outDir = "fuzz-out";
  std::vector<std::string> replay;
  const char* traceDir = nullptr;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    auto count = [&](std::uint64_t lo, std::uint64_t hi) {
      return uintFlag(a, next(), lo, hi);
    };
    if (a == "--seed") fopts.seed = count(0, UINT64_MAX);
    else if (a == "--cases") fopts.cases = count(1, UINT_MAX);
    else if (a == "--out") fopts.outDir = next();
    else if (a == "--replay") replay.emplace_back(next());
    else if (a == "--max-rob") fopts.gen.maxRobSize = count(1, UINT_MAX);
    else if (a == "--max-width") fopts.gen.maxIssueWidth = count(1, UINT_MAX);
    else if (a == "--eval-seeds") fopts.oracle.evalSeeds = count(0, UINT_MAX);
    else if (a == "--pe-conflicts")
      fopts.oracle.peBudget.satConflicts = count(0, INT64_MAX);
    else if (a == "--pe-mem")
      fopts.oracle.peBudget.memoryBytes = count(1, SIZE_MAX >> 20) << 20;
    else if (a == "--no-pe") fopts.oracle.runPe = false;
    else if (a == "--no-inprocess") fopts.oracle.inprocess.enabled = false;
    else if (a == "--no-shrink") fopts.shrink = false;
    else if (a == "--total-timeout") {
      fopts.totalWallSeconds = realFlag(a, next());
      if (fopts.totalWallSeconds < 0) usage("--total-timeout must be >= 0");
    } else if (a == "--trace") traceDir = next();
    else if (a == "--quiet") quiet = true;
    else usage(("unknown option: " + a).c_str());
  }

  trace::Collector collector;
  trace::Use tracing(traceDir != nullptr ? &collector : nullptr);

  try {
    if (!replay.empty()) return replayFiles(replay, fopts.oracle, quiet);

    if (!quiet) fopts.log = &std::cout;
    const fuzz::FuzzReport rep = fuzz::runFuzz(fopts);
    std::printf(
        "fuzz: seed %llu, %u cases in %.1f s — %u with injected bugs "
        "(%u detected, %u benign), %u PE cross-checks, %u decoded "
        "counterexamples, %u disagreements%s\n",
        static_cast<unsigned long long>(fopts.seed), rep.casesRun, rep.seconds,
        rep.bugsInjected, rep.bugsDetected, rep.benignBugs, rep.peRuns,
        rep.decoded, rep.disagreements,
        rep.casesSkipped != 0 ? " (soft wall budget hit)" : "");
    if (!fopts.outDir.empty())
      std::printf("fuzz: corpus written to %s/corpus.json\n",
                  fopts.outDir.c_str());
    if (rep.disagreements != 0)
      std::printf("fuzz: ORACLE DISAGREEMENT — see %s/repro_case_*.json\n",
                  fopts.outDir.empty() ? "<no --out dir>" : fopts.outDir.c_str());
    if (traceDir != nullptr) writeTrace(traceDir, collector, fopts, rep);
    return rep.exitCode();
  } catch (const InternalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
