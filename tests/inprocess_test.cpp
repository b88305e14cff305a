// Tests for the CNF inprocessing pipeline (src/sat/simplify): every pass —
// individually and composed — must preserve satisfiability (cross-checked
// against the untouched solver, brute force, and the BDD engine), Sat
// models of the simplified CNF must reconstruct to models of the ORIGINAL
// CNF, and the checked-in fuzz corpus must decode identically with the
// front end on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <vector>

#include "core/request.hpp"
#include "core/verifier.hpp"
#include "fuzz/fuzz.hpp"
#include "prop/cnf.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace velev::sat {
namespace {

using prop::Clause;
using prop::Cnf;
using prop::CnfLit;

Cnf randomCnf(Rng& rng, unsigned maxVars = 14, unsigned maxClauses = 60) {
  Cnf cnf;
  cnf.numVars = 4 + rng.below(maxVars - 3);
  const unsigned m = 4 + rng.below(maxClauses - 3);
  for (unsigned i = 0; i < m; ++i) {
    Clause c;
    const unsigned len = 1 + rng.below(4);
    for (unsigned j = 0; j < len; ++j) {
      const int v = 1 + static_cast<int>(rng.below(cnf.numVars));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  // Sprinkle in binary equivalence cycles so the substitution pass and the
  // reconstruction stack actually fire (pure random 3-SAT rarely has SCCs).
  if (cnf.numVars >= 6 && rng.coin()) {
    const int a = 1 + static_cast<int>(rng.below(cnf.numVars - 2));
    cnf.addClause({-a, a + 1});
    cnf.addClause({-(a + 1), a + 2});
    cnf.addClause({-(a + 2), a});
  }
  return cnf;
}

bool modelSatisfies(const Cnf& cnf, const std::vector<bool>& model) {
  for (const Clause& c : cnf.clauses) {
    bool sat = false;
    for (CnfLit l : c)
      sat |= (l > 0) == model[static_cast<unsigned>(std::abs(l))];
    if (!sat) return false;
  }
  return true;
}

bool bruteForceSat(const Cnf& cnf) {
  for (std::uint64_t m = 0; m < (1ull << cnf.numVars); ++m) {
    std::vector<bool> model(cnf.numVars + 1, false);
    for (unsigned v = 1; v <= cnf.numVars; ++v)
      model[v] = ((m >> (v - 1)) & 1) != 0;
    if (modelSatisfies(cnf, model)) return true;
  }
  return false;
}

// Parameters 0, 1 and 4 run one pass alone (substitute, subsume, varElim);
// 2 and 3 compose them, so the substitution and elimination steps share one
// reconstruction stack: 2 is substitute+varElim, 3 all three passes.
InprocessOptions passSet(int which) {
  InprocessOptions o;
  o.substitute = which == 0 || which == 2 || which == 3;
  o.subsume = which == 1 || which == 3;
  o.varElim = which >= 2;
  return o;
}

// ---- equisatisfiability, pass by pass ---------------------------------------

class InprocessPass : public ::testing::TestWithParam<int> {};

TEST_P(InprocessPass, PreservesSatisfiabilityAgainstUntouchedSolver) {
  Rng rng(91u + static_cast<unsigned>(GetParam()) * 7919u);
  const InprocessOptions opts = passSet(GetParam());
  for (int iter = 0; iter < 120; ++iter) {
    const Cnf cnf = randomCnf(rng);
    const SimplifyResult sr = inprocess(cnf, opts);
    const Result original = solveCnf(cnf);
    const Result simplified =
        sr.provedUnsat ? Result::Unsat : solveCnf(sr.cnf);
    EXPECT_EQ(simplified, original)
        << "pass " << GetParam() << " iter " << iter;
  }
}

TEST_P(InprocessPass, ReconstructedModelSatisfiesOriginal) {
  Rng rng(1009u + static_cast<unsigned>(GetParam()) * 104729u);
  const InprocessOptions opts = passSet(GetParam());
  unsigned satCases = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Cnf cnf = randomCnf(rng);
    SimplifyResult sr = inprocess(cnf, opts);
    if (sr.provedUnsat) continue;
    std::vector<bool> model;
    if (solveCnf(sr.cnf, &model) != Result::Sat) continue;
    ++satCases;
    sr.recon.extend(model);
    ASSERT_GE(model.size(), cnf.numVars + 1u);
    EXPECT_TRUE(modelSatisfies(cnf, model))
        << "pass " << GetParam() << " iter " << iter;
  }
  EXPECT_GT(satCases, 20u);  // the mix must actually exercise the pass
}

INSTANTIATE_TEST_SUITE_P(Passes, InprocessPass, ::testing::Range(0, 5));

// ---- equisatisfiability, full pipeline --------------------------------------

TEST(Inprocess, FullPipelineAgreesWithBruteForce) {
  Rng rng(4242);
  for (int iter = 0; iter < 120; ++iter) {
    Cnf cnf = randomCnf(rng, /*maxVars=*/10, /*maxClauses=*/40);
    const bool expect = bruteForceSat(cnf);
    const SimplifyResult sr = inprocess(cnf, {});
    const bool simplified =
        !sr.provedUnsat && solveCnf(sr.cnf) == Result::Sat;
    EXPECT_EQ(simplified, expect) << "iter " << iter;

    // And through the one-call front end, with model reconstruction.
    std::vector<bool> model;
    const Result r = solveCnfInprocessed(cnf, {}, &model);
    EXPECT_EQ(r == Result::Sat, expect) << "iter " << iter;
    if (r == Result::Sat) EXPECT_TRUE(modelSatisfies(cnf, model));
  }
}

TEST(Inprocess, EverySubsumeMaskAgreesWithBruteForce) {
  // Subsumption composed with every subset of the other passes: the one-flip
  // strengthening must never refute a satisfiable CNF, and every Sat model
  // must reconstruct onto the original variables.
  Rng rng(2005);
  for (int iter = 0; iter < 2000; ++iter) {
    const Cnf cnf = randomCnf(rng, /*maxVars=*/10, /*maxClauses=*/40);
    const bool expect = bruteForceSat(cnf);
    for (unsigned mask = 0; mask < 4; ++mask) {
      InprocessOptions o;
      o.subsume = true;
      o.substitute = (mask & 1) != 0;
      o.varElim = (mask & 2) != 0;
      SimplifyResult sr = inprocess(cnf, o);
      std::vector<bool> model;
      const bool sat =
          !sr.provedUnsat && solveCnf(sr.cnf, &model) == Result::Sat;
      if (sat) {
        sr.recon.extend(model);
        EXPECT_TRUE(modelSatisfies(cnf, model))
            << "iter " << iter << " mask " << mask;
      }
      EXPECT_EQ(sat, expect) << "iter " << iter << " mask " << mask;
    }
  }
}

TEST(Inprocess, NonAdjacentTautologyIsDropped) {
  // (-1 ∨ 4 ∨ -4) sorts to (-4, -1, 4): the complementary pair is not
  // adjacent. Kept as a live clause, the unit 1 would shrink it to the
  // tautology (-4 ∨ 4), and a one-flip self-subsumption by (2 ∨ 4) and
  // (-2 ∨ -4) would then derive the empty clause from a satisfiable CNF.
  // Checked with subsumption alone too: with every pass on, substitution
  // rewrites the clause before subsumption sees it.
  Cnf cnf;
  cnf.numVars = 4;
  cnf.addClause({-1, 4, -4});
  cnf.addClause({2, 4});
  cnf.addClause({-2, -4});
  cnf.addClause({1});
  ASSERT_TRUE(bruteForceSat(cnf));
  for (const InprocessOptions& opts : {InprocessOptions{}, passSet(1)}) {
    SimplifyResult sr = inprocess(cnf, opts);
    ASSERT_FALSE(sr.provedUnsat) << "subsume only: " << !opts.substitute;
    for (const Clause& c : sr.cnf.clauses)
      for (const CnfLit l : c)
        EXPECT_EQ(std::count(c.begin(), c.end(), -l), 0) << "literal " << l;
    std::vector<bool> model;
    ASSERT_EQ(solveCnf(sr.cnf, &model), Result::Sat);
    sr.recon.extend(model);
    EXPECT_TRUE(modelSatisfies(cnf, model));
  }
}

TEST(Inprocess, DisabledIsExactPassThrough) {
  Rng rng(7);
  InprocessOptions off;
  off.enabled = false;
  for (int iter = 0; iter < 20; ++iter) {
    const Cnf cnf = randomCnf(rng);
    const SimplifyResult sr = inprocess(cnf, off);
    ASSERT_EQ(sr.cnf.clauses.size(), cnf.clauses.size());
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i)
      EXPECT_EQ(sr.cnf.clauses[i], cnf.clauses[i]);
    EXPECT_TRUE(sr.recon.empty());
  }
}

TEST(Inprocess, PipelineActuallySimplifies) {
  // The triangle-heavy random mix must show work in the stats — otherwise
  // the equisat tests above are vacuous.
  Rng rng(31337);
  InprocessStats total;
  for (int iter = 0; iter < 60; ++iter) {
    const SimplifyResult sr = inprocess(randomCnf(rng), {});
    total.clausesRemoved += sr.stats.clausesRemoved;
    total.varsEliminated += sr.stats.varsEliminated;
    total.varsSubstituted += sr.stats.varsSubstituted;
    total.reconstructionDepth += sr.stats.reconstructionDepth;
  }
  EXPECT_GT(total.clausesRemoved, 0u);
  EXPECT_GT(total.varsEliminated, 0u);
  EXPECT_GT(total.varsSubstituted, 0u);
  EXPECT_GT(total.reconstructionDepth, 0u);
}

// ---- reconstruction stack: crafted chains -----------------------------------

TEST(Inprocess, ReconstructionResolvesChainedSubstitutionAndElimination) {
  // x1 ≡ x2 ≡ x3 (cycle), x4 functionally defined from x1 (AND gate),
  // x5 free with one positive occurrence — substitution collapses the
  // cycle, elimination resolves x4/x5 away, and the reconstructed model
  // must still satisfy every original clause.
  Cnf cnf;
  cnf.numVars = 6;
  cnf.addClause({-1, 2});
  cnf.addClause({-2, 3});
  cnf.addClause({-3, 1});
  cnf.addClause({-4, 1});  // x4 -> x1
  cnf.addClause({-4, 6});  // x4 -> x6
  cnf.addClause({4, -1, -6});
  cnf.addClause({5, 1});
  cnf.addClause({6, 2});
  SimplifyResult sr = inprocess(cnf, {});
  ASSERT_FALSE(sr.provedUnsat);
  EXPECT_GT(sr.stats.varsSubstituted + sr.stats.varsEliminated, 0u);
  std::vector<bool> model;
  ASSERT_EQ(solveCnf(sr.cnf, &model), Result::Sat);
  sr.recon.extend(model);
  ASSERT_GE(model.size(), 7u);
  EXPECT_TRUE(modelSatisfies(cnf, model));
  // The collapsed cycle really is enforced in the reconstruction.
  EXPECT_EQ(model[1], model[2]);
  EXPECT_EQ(model[2], model[3]);
}

// ---- BDD engine cross-check (within its envelope) ---------------------------

TEST(Inprocess, BddEngineAgreesWithInprocessedSatOnPipelineCell) {
  // Engine::Both runs CNF+CDCL (behind the inprocessing front end) and the
  // BDD engine under sibling budgets and raises a hard error on any
  // conclusive disagreement — a Correct verdict therefore certifies
  // cross-engine agreement with inprocessing in the loop.
  core::VerifyRequest req;
  req.robSize = 3;
  req.issueWidth = 2;
  req.engine = core::Engine::Both;
  ASSERT_TRUE(req.inprocess);
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(rep.verdict(), core::Verdict::Correct);
  EXPECT_TRUE(rep.inprocessed);
  EXPECT_GT(rep.inprocessStats.clausesBefore, 0u);
}

// ---- corpus replay through the decoder --------------------------------------

TEST(Inprocess, CorpusSeedsDecodeIdenticallyWithAndWithoutFrontEnd) {
  // One representative entry per injected-bug kind (plus a bug-free one)
  // from the checked-in regression corpus, replayed through the full
  // oracle stack — the decode sanity checks (transitivity, falsifies-UF-
  // root) run on the RECONSTRUCTED model, so a clean replay with the
  // front end enabled is a reconstruction round-trip on real processor
  // encodings. Both settings must reproduce the recorded verdicts.
  const std::filesystem::path dir = VELEV_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::map<models::BugKind, fuzz::CorpusEntry> picks;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().extension() != ".json") continue;
    std::string err;
    for (const fuzz::CorpusEntry& e :
         fuzz::loadCorpusFile(de.path().string(), &err)) {
      auto it = picks.find(e.c.bug.kind);
      // Prefer entries with a decoded counterexample: those exercise the
      // model-reconstruction path, not just the UNSAT path.
      if (it == picks.end() || (e.decoded && !it->second.decoded))
        picks.insert_or_assign(e.c.bug.kind, e);
    }
  }
  for (const models::BugKind k : fuzz::generatableBugKinds())
    ASSERT_TRUE(picks.count(k)) << models::bugKindName(k);
  ASSERT_TRUE(picks.count(models::BugKind::None));

  fuzz::OracleOptions withFrontEnd;
  ASSERT_TRUE(withFrontEnd.inprocess.enabled);
  fuzz::OracleOptions without;
  without.inprocess.enabled = false;
  unsigned decodedEntries = 0;
  for (const auto& [kind, e] : picks) {
    decodedEntries += e.decoded ? 1u : 0u;
    const auto m1 = fuzz::replayEntry(e, withFrontEnd);
    EXPECT_FALSE(m1.has_value())
        << models::bugKindName(kind) << " (inprocess on): " << *m1;
    const auto m2 = fuzz::replayEntry(e, without);
    EXPECT_FALSE(m2.has_value())
        << models::bugKindName(kind) << " (inprocess off): " << *m2;
  }
  EXPECT_GT(decodedEntries, 0u);
}

}  // namespace
}  // namespace velev::sat
