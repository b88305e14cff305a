// Tests for the differential fuzzing subsystem (src/fuzz): generator
// validity and determinism, counterexample decoding round-trips (both on
// hand-built formulas and on a real buggy processor), the agreement
// relation, delta-debugging shrinking, corpus serialization, and replay
// of the checked-in seed regression corpus (tests/corpus, path injected
// by CMake as VELEV_CORPUS_DIR), and the velev_fuzz command line (binary
// path injected as VELEV_FUZZ_BIN).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.hpp"
#include "models/isa.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace velev {
namespace {

using models::BugKind;

// ---- generator --------------------------------------------------------------

TEST(FuzzGen, CasesAreAlwaysBuildable) {
  Rng rng(7);
  for (unsigned i = 0; i < 300; ++i) {
    const fuzz::FuzzCase c = fuzz::generateCase(rng, i);
    EXPECT_EQ(c.id, i);
    ASSERT_GE(c.cfg.robSize, 1u);
    ASSERT_LE(c.cfg.robSize, 6u);
    ASSERT_GE(c.cfg.issueWidth, 1u);
    ASSERT_LE(c.cfg.issueWidth, c.cfg.robSize);
    if (c.bug.kind != BugKind::None) {
      EXPECT_GE(c.bug.index, fuzz::bugIndexMin(c.bug.kind));
      EXPECT_LE(c.bug.index, models::bugIndexLimit(c.bug.kind, c.cfg));
    }
    // The contract: buildOoO accepts every generated case.
    eufm::Context cx;
    const models::Isa isa = models::Isa::declare(cx);
    EXPECT_NO_THROW(models::buildOoO(cx, isa, c.cfg, c.bug));
  }
}

TEST(FuzzGen, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (unsigned i = 0; i < 64; ++i) {
    const fuzz::FuzzCase ca = fuzz::generateCase(a, i);
    const fuzz::FuzzCase cb = fuzz::generateCase(b, i);
    EXPECT_EQ(ca.seed, cb.seed);
    EXPECT_EQ(ca.cfg.robSize, cb.cfg.robSize);
    EXPECT_EQ(ca.cfg.issueWidth, cb.cfg.issueWidth);
    EXPECT_EQ(ca.bug.kind, cb.bug.kind);
    EXPECT_EQ(ca.bug.index, cb.bug.index);
  }
}

TEST(FuzzGen, NoBugPercentIsRespectedAtTheExtremes) {
  fuzz::GenOptions all;
  all.noBugPercent = 100;
  fuzz::GenOptions none;
  none.noBugPercent = 0;
  Rng rng(3);
  for (unsigned i = 0; i < 50; ++i)
    EXPECT_EQ(fuzz::generateCase(rng, i, all).bug.kind, BugKind::None);
  for (unsigned i = 0; i < 50; ++i)
    EXPECT_NE(fuzz::generateCase(rng, i, none).bug.kind, BugKind::None);
}

TEST(FuzzGen, EveryGeneratableKindAppears) {
  std::set<BugKind> seen;
  Rng rng(11);
  fuzz::GenOptions opts;
  opts.noBugPercent = 0;
  for (unsigned i = 0; i < 400; ++i)
    seen.insert(fuzz::generateCase(rng, i, opts).bug.kind);
  for (const BugKind k : fuzz::generatableBugKinds())
    EXPECT_TRUE(seen.count(k)) << models::bugKindName(k);
  EXPECT_EQ(seen.size(), fuzz::generatableBugKinds().size());
}

// ---- bug kind helpers (models) ---------------------------------------------

TEST(FuzzGen, BugKindNamesRoundTrip) {
  for (const BugKind k : fuzz::generatableBugKinds()) {
    const auto back = models::bugKindFromName(models::bugKindName(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_EQ(models::bugKindFromName("none"), BugKind::None);
  EXPECT_FALSE(models::bugKindFromName("bogus").has_value());
}

// ---- counterexample decoding ------------------------------------------------

// Hand-built round trip: translate a tiny falsifiable formula, get a SAT
// model of its negation, decode it, and check the decoded assignment is
// exactly the falsifying one.
TEST(FuzzDecode, HandBuiltFormulaRoundTrips) {
  eufm::Context cx;
  const eufm::Expr x = cx.termVar("x");
  const eufm::Expr y = cx.termVar("y");
  const eufm::Expr b = cx.boolVar("ctrl");
  // F = (x = y) -> ctrl. The equation occurs negatively in F, so it is a
  // g-equation and gets a real e_ij CNF variable.
  const eufm::Expr f = cx.mkImplies(cx.mkEq(x, y), b);
  const evc::Translation tr = evc::translate(cx, f);
  ASSERT_EQ(tr.ufRoot, f);  // no memory, no UFs: translate must not rewrite it

  std::vector<bool> model;
  ASSERT_EQ(sat::solveCnf(tr.cnf, &model), sat::Result::Sat);

  const fuzz::Counterexample cex = fuzz::decodeModel(cx, tr, model);
  // The only falsifying assignment: x = y with ctrl = false.
  ASSERT_EQ(cex.bools.size(), 1u);
  EXPECT_EQ(cex.bools[0].first, "ctrl");
  EXPECT_FALSE(cex.bools[0].second);
  ASSERT_EQ(cex.eijs.size(), 1u);
  EXPECT_TRUE(cex.eijs[0].equal);
  EXPECT_TRUE(cex.transitive);
  EXPECT_TRUE(cex.falsifiesUfRoot);
  // x and y must decode to the same scalar.
  ASSERT_EQ(cex.terms.size(), 2u);
  EXPECT_EQ(cex.terms[0].second, cex.terms[1].second);
}

TEST(FuzzDecode, EqualityClassesGetOneScalarPerClass) {
  eufm::Context cx;
  const eufm::Expr x = cx.termVar("x");
  const eufm::Expr y = cx.termVar("y");
  const eufm::Expr z = cx.termVar("z");
  // F = (x = y) /\ (y = z) -> ctrl. The only falsifying assignment sets
  // both g-equations true, so the union-find closure must merge all three
  // variables into one class with a single scalar.
  const eufm::Expr f = cx.mkImplies(
      cx.mkAnd(cx.mkEq(x, y), cx.mkEq(y, z)), cx.boolVar("ctrl"));
  const evc::Translation tr = evc::translate(cx, f);
  std::vector<bool> model;
  ASSERT_EQ(sat::solveCnf(tr.cnf, &model), sat::Result::Sat);

  const fuzz::Counterexample cex = fuzz::decodeModel(cx, tr, model);
  EXPECT_TRUE(cex.transitive);
  EXPECT_TRUE(cex.falsifiesUfRoot);
  ASSERT_EQ(cex.terms.size(), 3u);
  EXPECT_EQ(cex.terms[0].second, cex.terms[1].second);
  EXPECT_EQ(cex.terms[1].second, cex.terms[2].second);
  const auto valueOf = [&](const std::string& name) {
    for (const auto& [n, v] : cex.terms)
      if (n == name) return v;
    ADD_FAILURE() << "no decoded value for " << name;
    return std::uint64_t{0};
  };
  for (const fuzz::Counterexample::Eij& e : cex.eijs)
    EXPECT_EQ(e.equal, valueOf(e.a) == valueOf(e.b)) << e.a << " vs " << e.b;
}

// A real PE counterexample from a buggy processor must decode into a
// consistent term-level refutation that also falsifies the original
// Burch-Dill criterion under replay.
TEST(FuzzDecode, BuggyProcessorModelDecodesAndNamesTheFailure) {
  fuzz::FuzzCase c;
  c.seed = 5;
  c.cfg = {2, 1};
  c.bug = {BugKind::RetireIgnoresValidResult, 1};
  const fuzz::OracleOutcome o = fuzz::runOracles(c);
  ASSERT_EQ(o.peVerdict, core::Verdict::CounterexampleFound);
  ASSERT_TRUE(o.cex.has_value());
  EXPECT_TRUE(o.cex->transitive);
  EXPECT_TRUE(o.cex->falsifiesUfRoot);
  EXPECT_TRUE(o.cex->replayRefuted);
  // The pretty slice names the concrete interpretation and the failing
  // disjunct(s) of the correctness criterion.
  EXPECT_NE(o.cex->prettySlice.find("concrete refutation"), std::string::npos)
      << o.cex->prettySlice;
  EXPECT_NE(o.cex->prettySlice.find("m="), std::string::npos)
      << o.cex->prettySlice;
  EXPECT_FALSE(fuzz::findDisagreement(o).has_value());
}

// ---- the agreement relation -------------------------------------------------

TEST(FuzzAgreement, CorrectVersusEvalRefutedIsADisagreement) {
  fuzz::OracleOutcome o;
  o.rewriteVerdict = core::Verdict::Correct;
  o.peVerdict = core::Verdict::Skipped;
  o.evalRefuted = true;
  EXPECT_TRUE(fuzz::findDisagreement(o).has_value());

  o.rewriteVerdict = core::Verdict::RewriteMismatch;
  o.peVerdict = core::Verdict::Correct;
  EXPECT_TRUE(fuzz::findDisagreement(o).has_value());
}

TEST(FuzzAgreement, ExactFlowsDisagreeingWithEachOtherIsFlagged) {
  fuzz::OracleOutcome o;
  o.rewriteVerdict = core::Verdict::Correct;
  o.peVerdict = core::Verdict::CounterexampleFound;
  EXPECT_TRUE(fuzz::findDisagreement(o).has_value());
}

TEST(FuzzAgreement, ConservativeAndInconclusiveVerdictsNeverCount) {
  fuzz::OracleOutcome o;
  // RewriteMismatch is structural: consistent with PE Correct, PE Sat,
  // and a passing evaluation oracle.
  o.rewriteVerdict = core::Verdict::RewriteMismatch;
  for (const core::Verdict pe :
       {core::Verdict::Correct, core::Verdict::CounterexampleFound,
        core::Verdict::Skipped, core::Verdict::MemOut})
    for (const bool refuted : {false, true}) {
      o.peVerdict = pe;
      o.evalRefuted = refuted;
      if (pe == core::Verdict::Correct && refuted) continue;  // real clash
      EXPECT_FALSE(fuzz::findDisagreement(o).has_value())
          << core::verdictName(pe) << " refuted=" << refuted;
    }
  // Budget-capped PE never clashes with anything.
  o.rewriteVerdict = core::Verdict::Correct;
  o.evalRefuted = false;
  for (const core::Verdict pe :
       {core::Verdict::Inconclusive, core::Verdict::Timeout,
        core::Verdict::MemOut, core::Verdict::Skipped}) {
    o.peVerdict = pe;
    EXPECT_FALSE(fuzz::findDisagreement(o).has_value());
  }
}

TEST(FuzzAgreement, InconsistentDecodedModelIsADisagreement) {
  fuzz::OracleOutcome o;
  o.rewriteVerdict = core::Verdict::RewriteMismatch;
  o.peVerdict = core::Verdict::CounterexampleFound;
  o.evalRefuted = true;
  o.cex.emplace();
  o.cex->transitive = false;
  o.cex->falsifiesUfRoot = true;
  EXPECT_TRUE(fuzz::findDisagreement(o).has_value());
  o.cex->transitive = true;
  o.cex->falsifiesUfRoot = false;
  EXPECT_TRUE(fuzz::findDisagreement(o).has_value());
  o.cex->falsifiesUfRoot = true;
  EXPECT_FALSE(fuzz::findDisagreement(o).has_value());
}

// ---- shrinking --------------------------------------------------------------

fuzz::FuzzCase bigCase() {
  fuzz::FuzzCase c;
  c.cfg = {6, 4};
  c.bug = {BugKind::AluWrongOpcode, 5};
  return c;
}

TEST(FuzzShrink, AlwaysFailingPredicateShrinksToTheFloor) {
  const fuzz::ShrinkResult r =
      fuzz::shrinkCase(bigCase(), [](const fuzz::FuzzCase&) { return true; });
  EXPECT_EQ(r.minimal.cfg.robSize, 1u);
  EXPECT_EQ(r.minimal.cfg.issueWidth, 1u);
  EXPECT_EQ(r.minimal.bug.index, 1u);
  EXPECT_GT(r.reductions, 0u);
}

TEST(FuzzShrink, PredicateBoundIsRespected) {
  // Fails only while the ROB stays >= 4: the shrinker must stop there and
  // never return a candidate the predicate rejected.
  const fuzz::ShrinkResult r = fuzz::shrinkCase(
      bigCase(),
      [](const fuzz::FuzzCase& c) { return c.cfg.robSize >= 4; });
  EXPECT_EQ(r.minimal.cfg.robSize, 4u);
  EXPECT_EQ(r.minimal.cfg.issueWidth, 1u);
}

TEST(FuzzShrink, NeverFailingPredicateReturnsTheOriginal) {
  const fuzz::FuzzCase big = bigCase();
  const fuzz::ShrinkResult r =
      fuzz::shrinkCase(big, [](const fuzz::FuzzCase&) { return false; });
  EXPECT_EQ(r.minimal.cfg.robSize, big.cfg.robSize);
  EXPECT_EQ(r.minimal.cfg.issueWidth, big.cfg.issueWidth);
  EXPECT_EQ(r.minimal.bug.index, big.bug.index);
  EXPECT_EQ(r.reductions, 0u);
}

TEST(FuzzShrink, ShrunkCasesStayBuildable) {
  // Forwarding bugs need a preceding slice; the shrinker must respect the
  // kind's floor while minimizing.
  fuzz::FuzzCase c;
  c.cfg = {6, 3};
  c.bug = {BugKind::ForwardingWrongOperand, 6};
  const fuzz::ShrinkResult r =
      fuzz::shrinkCase(c, [](const fuzz::FuzzCase&) { return true; });
  EXPECT_GE(r.minimal.bug.index, fuzz::bugIndexMin(c.bug.kind));
  EXPECT_LE(r.minimal.bug.index,
            models::bugIndexLimit(r.minimal.bug.kind, r.minimal.cfg));
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  EXPECT_NO_THROW(models::buildOoO(cx, isa, r.minimal.cfg, r.minimal.bug));
}

TEST(FuzzShrink, RealOracleShrinkFindsTheMinimalBuggyCase) {
  // A detected retire bug stays detected all the way down to 1x1.
  fuzz::FuzzCase c;
  c.seed = 9;
  c.cfg = {4, 2};
  c.bug = {BugKind::RetireIgnoresValidResult, 2};
  fuzz::OracleOptions opts;
  opts.evalSeeds = 8;
  const auto detected = [&](const fuzz::FuzzCase& cand) {
    const fuzz::OracleOutcome o = fuzz::runOracles(cand, opts);
    return o.rewriteVerdict == core::Verdict::RewriteMismatch ||
           o.peVerdict == core::Verdict::CounterexampleFound;
  };
  ASSERT_TRUE(detected(c));
  const fuzz::ShrinkResult r = fuzz::shrinkCase(c, detected);
  EXPECT_TRUE(detected(r.minimal));
  EXPECT_EQ(r.minimal.cfg.robSize, 1u);
  EXPECT_EQ(r.minimal.cfg.issueWidth, 1u);
  EXPECT_EQ(r.minimal.bug.index, 1u);
}

// ---- corpus I/O -------------------------------------------------------------

TEST(FuzzCorpus, EntriesRoundTripThroughJson) {
  fuzz::CorpusEntry e;
  e.c.id = 3;
  e.c.seed = 0xc5fefdbul * 0x9e3779b9ul;  // exercises > 2^53 seeds
  e.c.seed |= 1ull << 63;
  e.c.cfg = {5, 2};
  e.c.bug = {BugKind::CompletionSkipsWrite, 6};
  e.rewriteVerdict = "rewrite-mismatch";
  e.failedSlice = 6;
  e.peVerdict = "skipped";
  e.evalRefuted = true;
  e.decoded = false;
  e.note = "hand-built";

  std::ostringstream os;
  fuzz::writeCorpus(os, std::span(&e, 1));
  std::string err;
  const auto doc = parseJson(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->uintAt("schema_version"),
            static_cast<std::uint64_t>(fuzz::kCorpusSchemaVersion));
  const JsonValue* entries = doc->find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->array.size(), 1u);

  const auto back = fuzz::parseCorpusEntry(entries->array[0], &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->c.id, e.c.id);
  EXPECT_EQ(back->c.seed, e.c.seed);  // bit-exact despite the JSON detour
  EXPECT_EQ(back->c.cfg.robSize, e.c.cfg.robSize);
  EXPECT_EQ(back->c.cfg.issueWidth, e.c.cfg.issueWidth);
  EXPECT_EQ(back->c.bug.kind, e.c.bug.kind);
  EXPECT_EQ(back->c.bug.index, e.c.bug.index);
  EXPECT_EQ(back->rewriteVerdict, e.rewriteVerdict);
  EXPECT_EQ(back->failedSlice, e.failedSlice);
  EXPECT_EQ(back->peVerdict, e.peVerdict);
  EXPECT_EQ(back->evalRefuted, e.evalRefuted);
  EXPECT_EQ(back->decoded, e.decoded);
  EXPECT_EQ(back->note, e.note);
}

TEST(FuzzCorpus, MalformedEntriesAreRejectedWithAReason) {
  const auto reject = [](const std::string& json) {
    std::string err;
    const auto doc = parseJson(json, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_FALSE(fuzz::parseCorpusEntry(*doc, &err).has_value());
    EXPECT_FALSE(err.empty());
  };
  reject(R"({"case_seed": "1", "rob_size": 2, "width": 4, "bug": "none"})");
  reject(R"({"case_seed": "1", "rob_size": 2, "width": 1, "bug": "what"})");
  reject(R"({"case_seed": "1", "rob_size": 2, "width": 1, "bug": "fwd",
             "bug_index": 9})");
  reject(R"({"case_seed": "xyz", "rob_size": 2, "width": 1, "bug": "none"})");
  reject(R"([1, 2, 3])");
}

// ---- the harness ------------------------------------------------------------

fuzz::FuzzOptions smokeOptions(std::uint64_t seed) {
  fuzz::FuzzOptions opts;
  opts.seed = seed;
  opts.cases = 5;
  opts.gen.maxRobSize = 3;  // keep the PE oracle cheap
  opts.oracle.evalSeeds = 8;
  opts.shrink = false;
  return opts;
}

TEST(FuzzHarness, SmokeRunAgreesAndCountsAddUp) {
  const fuzz::FuzzReport rep = fuzz::runFuzz(smokeOptions(1));
  EXPECT_EQ(rep.casesRun, 5u);
  EXPECT_EQ(rep.records.size(), 5u);
  EXPECT_EQ(rep.disagreements, 0u);
  EXPECT_EQ(rep.exitCode(), 0);
  EXPECT_EQ(rep.bugsDetected + rep.benignBugs, rep.bugsInjected);
  unsigned injected = 0;
  for (const fuzz::CaseRecord& r : rep.records)
    if (r.c.bug.kind != BugKind::None) ++injected;
  EXPECT_EQ(injected, rep.bugsInjected);
}

TEST(FuzzHarness, SameSeedYieldsByteIdenticalCorpus) {
  const auto corpusBytes = [](std::uint64_t seed) {
    const fuzz::FuzzReport rep = fuzz::runFuzz(smokeOptions(seed));
    std::vector<fuzz::CorpusEntry> entries;
    for (const fuzz::CaseRecord& r : rep.records)
      entries.push_back(fuzz::makeCorpusEntry(r.c, r.o));
    std::ostringstream os;
    fuzz::writeCorpus(os, entries);
    return os.str();
  };
  const std::string a = corpusBytes(6);
  EXPECT_EQ(a, corpusBytes(6));
  EXPECT_NE(a, corpusBytes(8));
}

// ---- seed regression corpus -------------------------------------------------

TEST(FuzzCorpusRegression, CheckedInCorporaReplayCleanly) {
  const std::filesystem::path dir = VELEV_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  unsigned files = 0, entries = 0;
  std::set<BugKind> kinds;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().extension() != ".json") continue;
    ++files;
    std::string err;
    const std::vector<fuzz::CorpusEntry> corpus =
        fuzz::loadCorpusFile(de.path().string(), &err);
    ASSERT_FALSE(corpus.empty()) << de.path() << ": " << err;
    for (const fuzz::CorpusEntry& e : corpus) {
      ++entries;
      kinds.insert(e.c.bug.kind);
      const auto mismatch = fuzz::replayEntry(e);
      EXPECT_FALSE(mismatch.has_value()) << de.path() << ": " << *mismatch;
    }
  }
  EXPECT_GE(files, 2u);
  EXPECT_GE(entries, 20u);
  // The regression corpus pins down every bug kind the generator can emit
  // (plus bug-free cases).
  for (const BugKind k : fuzz::generatableBugKinds())
    EXPECT_TRUE(kinds.count(k)) << models::bugKindName(k);
  EXPECT_TRUE(kinds.count(BugKind::None));
}

// ---- command line -----------------------------------------------------------

int runFuzzCli(const std::string& args) {
  const std::string cmd =
      std::string(VELEV_FUZZ_BIN) + " " + args + " --out '' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FuzzCli, BadNumericValuesAreUsageErrors) {
  // Each of these used to wrap through an unsigned cast (-1 -> 4294967295
  // cases or a 4-billion-wide ROB bound) or read as 0; all are rejected
  // before a single case runs.
  for (const char* args :
       {"--cases -1", "--cases 0", "--cases x", "--max-rob -1",
        "--max-width -1", "--max-width 2x", "--seed x", "--seed -1",
        "--eval-seeds x", "--pe-conflicts x", "--pe-conflicts -5",
        "--pe-mem 0", "--total-timeout x", "--no-such-flag"}) {
    SCOPED_TRACE(args);
    EXPECT_EQ(runFuzzCli(args), 2);
  }
  EXPECT_EQ(runFuzzCli("--seed 3 --cases 1 --max-rob 2 --max-width 1 --quiet"),
            0);
}

}  // namespace
}  // namespace velev
