// Tests for DRAT proof emission and the independent RUP checker: UNSAT
// results of the solver must come with checkable proofs, corrupted proofs
// must be rejected, and the processor-verification pipeline's UNSAT answers
// can be certified end-to-end.
#include <gtest/gtest.h>

#include <sstream>

#include "core/diagram.hpp"
#include "evc/translate.hpp"
#include "models/spec.hpp"
#include "sat/drat.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace velev::sat {
namespace {

using prop::Clause;
using prop::Cnf;

Cnf makeCnf(unsigned vars, std::initializer_list<Clause> clauses) {
  Cnf cnf;
  cnf.numVars = vars;
  for (const auto& c : clauses) cnf.addClause(c);
  return cnf;
}

TEST(Drat, SimpleUnsatProofChecks) {
  const Cnf cnf = makeCnf(2, {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}});
  Proof proof;
  EXPECT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  EXPECT_TRUE(proof.endsWithEmptyClause());
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, LiteralEmptyClauseProofChecks) {
  const Cnf cnf = makeCnf(1, {Clause{}});
  Proof proof;
  EXPECT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, UnitConflictProofChecks) {
  const Cnf cnf = makeCnf(1, {{1}, {-1}});
  Proof proof;
  EXPECT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, PropagationChainProofChecks) {
  Cnf cnf;
  cnf.numVars = 8;
  cnf.addClause({1});
  for (int v = 1; v < 8; ++v) cnf.addClause({-v, v + 1});
  cnf.addClause({-8});
  Proof proof;
  EXPECT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, PigeonholeProofChecks) {
  for (unsigned n = 2; n <= 4; ++n) {
    Cnf cnf;
    const unsigned pigeons = n + 1;
    auto var = [&](unsigned p, unsigned h) {
      return static_cast<prop::CnfLit>(p * n + h + 1);
    };
    cnf.numVars = pigeons * n;
    for (unsigned p = 0; p < pigeons; ++p) {
      Clause c;
      for (unsigned h = 0; h < n; ++h) c.push_back(var(p, h));
      cnf.addClause(c);
    }
    for (unsigned h = 0; h < n; ++h)
      for (unsigned p1 = 0; p1 < pigeons; ++p1)
        for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
          cnf.addClause({-var(p1, h), -var(p2, h)});
    Proof proof;
    ASSERT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
    EXPECT_TRUE(checkRup(cnf, proof)) << "n=" << n;
  }
}

TEST(Drat, SatInstanceHasNoEmptyClause) {
  const Cnf cnf = makeCnf(2, {{1, 2}});
  Proof proof;
  EXPECT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Sat);
  EXPECT_FALSE(proof.endsWithEmptyClause());
  EXPECT_FALSE(checkRup(cnf, proof));
}

TEST(Drat, CorruptedProofRejected) {
  // PHP(4,3): not refutable by unit propagation alone, so a bogus unit at
  // the front of the proof is genuinely not RUP. (In tighter instances
  // almost any clause is RUP, which would make this test vacuous.)
  Cnf cnf;
  const unsigned holes = 3, pigeons = 4;
  auto var = [&](unsigned p, unsigned h) {
    return static_cast<prop::CnfLit>(p * holes + h + 1);
  };
  cnf.numVars = pigeons * holes;
  for (unsigned p = 0; p < pigeons; ++p) {
    Clause c;
    for (unsigned h = 0; h < holes; ++h) c.push_back(var(p, h));
    cnf.addClause(c);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.addClause({-var(p1, h), -var(p2, h)});

  Proof proof;
  ASSERT_EQ(solveCnf(cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  ASSERT_TRUE(checkRup(cnf, proof));
  // Inject a non-RUP addition: the unit "pigeon 0 sits in hole 0".
  Proof bad = proof;
  bad.steps.insert(bad.steps.begin(), ProofStep{false, {var(0, 0)}});
  EXPECT_FALSE(checkRup(cnf, bad));
  // Truncate the empty clause: no derivation.
  Proof truncated = proof;
  truncated.steps.pop_back();
  EXPECT_FALSE(checkRup(cnf, truncated));
}

TEST(Drat, RandomUnsatInstancesAllCertified) {
  Rng rng(2024);
  unsigned certified = 0;
  for (int iter = 0; iter < 120; ++iter) {
    Cnf cnf;
    cnf.numVars = 5 + rng.below(5);
    const unsigned m = 20 + rng.below(30);
    for (unsigned i = 0; i < m; ++i) {
      Clause c;
      const unsigned len = 1 + rng.below(3);
      for (unsigned j = 0; j < len; ++j) {
        const int v = 1 + static_cast<int>(rng.below(cnf.numVars));
        c.push_back(rng.coin() ? v : -v);
      }
      cnf.addClause(c);
    }
    Proof proof;
    if (solveCnf(cnf, nullptr, nullptr, -1, &proof) == Result::Unsat) {
      EXPECT_TRUE(checkRup(cnf, proof)) << "iter " << iter;
      ++certified;
    }
  }
  EXPECT_GT(certified, 10u);  // the mix should contain many UNSAT instances
}

TEST(Drat, DratTextFormat) {
  Proof proof;
  proof.add({1, -2});
  proof.del({3});
  proof.add({});
  std::ostringstream os;
  writeDrat(proof, os);
  EXPECT_EQ(os.str(), "1 -2 0\nd 3 0\n0\n");
}

// ---- inprocessing proofs ----------------------------------------------------

Cnf randomMixCnf(Rng& rng) {
  Cnf cnf;
  cnf.numVars = 5 + rng.below(6);
  const unsigned m = 18 + rng.below(30);
  for (unsigned i = 0; i < m; ++i) {
    Clause c;
    const unsigned len = 1 + rng.below(3);
    for (unsigned j = 0; j < len; ++j) {
      const int v = 1 + static_cast<int>(rng.below(cnf.numVars));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  // Binary cycles feed the substitution pass; chained implications feed
  // unit propagation and elimination — the proof must cover every pass's
  // steps.
  if (rng.coin()) {
    const int a = 1 + static_cast<int>(rng.below(cnf.numVars - 2));
    cnf.addClause({-a, a + 1});
    cnf.addClause({-(a + 1), a + 2});
    cnf.addClause({-(a + 2), a});
  }
  return cnf;
}

TEST(Drat, InprocessedProofsCertifyAgainstOriginalFormula) {
  // The combined proof (inprocessing derivations — elimination resolvents,
  // substituted clauses, strengthenings — then the solver's learnt
  // clauses) must RUP-check against the ORIGINAL formula.
  Rng rng(60601);
  unsigned certified = 0;
  for (int iter = 0; iter < 150; ++iter) {
    const Cnf cnf = randomMixCnf(rng);
    Proof proof;
    if (solveCnfInprocessed(cnf, {}, nullptr, nullptr, -1, &proof) !=
        Result::Unsat)
      continue;
    EXPECT_TRUE(checkRup(cnf, proof)) << "iter " << iter;
    ++certified;
  }
  EXPECT_GT(certified, 20u);
}

TEST(Drat, SubsumeOnlyProofsCertifyAgainstOriginalFormula) {
  // Subsumption alone, on UNSAT CNFs dense in binaries that share a hub
  // variable, so the one-flip self-subsumption fires. With no unit clauses
  // in the input, every strengthening counted below comes from that pass,
  // and the combined proof (its strengthened clauses, then the solver's
  // learnt ones) must RUP-check against the ORIGINAL formula.
  Rng rng(20050);
  InprocessOptions only;
  only.substitute = only.varElim = false;
  unsigned certified = 0;
  std::uint64_t strengthened = 0;
  for (int iter = 0; iter < 300; ++iter) {
    Cnf cnf;
    cnf.numVars = 5 + rng.below(4);
    const auto lit = [&](int v) { return rng.coin() ? v : -v; };
    const auto anyVar = [&] {
      return 1 + static_cast<int>(rng.below(cnf.numVars));
    };
    const int hub = anyVar();
    const unsigned m = 16 + rng.below(16);
    for (unsigned i = 0; i < m; ++i) {
      const int other = anyVar();
      if (rng.coin()) {
        if (other != hub) cnf.addClause({lit(hub), lit(other)});
      } else {
        cnf.addClause({lit(other), lit(anyVar()), lit(anyVar())});
      }
    }
    Proof proof;
    const SimplifyResult sr = inprocess(cnf, only, &proof);
    strengthened += sr.stats.clausesStrengthened;
    const Result r = sr.provedUnsat
                         ? Result::Unsat
                         : solveCnf(sr.cnf, nullptr, nullptr, -1, &proof);
    if (r != Result::Unsat) continue;
    EXPECT_EQ(solveCnf(cnf), Result::Unsat) << "iter " << iter;
    EXPECT_TRUE(checkRup(cnf, proof)) << "iter " << iter;
    ++certified;
  }
  EXPECT_GT(certified, 20u);
  EXPECT_GT(strengthened, 0u);
}

TEST(Drat, ProofWithEliminationAndSubstitutionDerivationsChecks) {
  // PHP(4,3) — UNSAT but not refutable by unit propagation alone — with
  // shadow variables equivalent to the first three pigeons (forces the
  // substitution pass) and an auxiliary variable occurring in one clause
  // only (forces bounded variable elimination). The combined proof must
  // contain both kinds of derivations and still check against the
  // ORIGINAL formula.
  Cnf cnf;
  const unsigned holes = 3, pigeons = 4;
  auto var = [&](unsigned p, unsigned h) {
    return static_cast<prop::CnfLit>(p * holes + h + 1);
  };
  for (unsigned p = 0; p < pigeons; ++p) {
    Clause c;
    for (unsigned h = 0; h < holes; ++h) c.push_back(var(p, h));
    cnf.addClause(c);
  }
  for (unsigned h = 0; h < holes; ++h)
    for (unsigned p1 = 0; p1 < pigeons; ++p1)
      for (unsigned p2 = p1 + 1; p2 < pigeons; ++p2)
        cnf.addClause({-var(p1, h), -var(p2, h)});
  cnf.numVars = pigeons * holes;
  for (int i = 1; i <= 3; ++i) {  // shadows 13..15 ≡ vars 1..3
    const int shadow = static_cast<int>(cnf.numVars) + i;
    cnf.addClause({-i, shadow});
    cnf.addClause({i, -shadow});
  }
  cnf.numVars += 3;
  cnf.addClause({static_cast<int>(cnf.numVars) + 1, 1, 2});  // BVE target
  cnf.numVars += 1;

  Proof proof;
  InprocessStats st;
  ASSERT_EQ(solveCnfInprocessed(cnf, {}, nullptr, nullptr, -1, &proof,
                                nullptr, &st),
            Result::Unsat);
  EXPECT_GT(st.varsSubstituted, 0u);
  EXPECT_GT(st.varsEliminated, 0u);
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, InprocessOnlyRefutationChecks) {
  // A formula the pipeline refutes outright (no CDCL conflict needed):
  // the inprocessing proof alone must end with {} and check.
  Cnf cnf;
  cnf.numVars = 4;
  cnf.addClause({1});
  for (int v = 1; v < 4; ++v) cnf.addClause({-v, v + 1});
  cnf.addClause({-4});
  Proof proof;
  const SimplifyResult sr = inprocess(cnf, {}, &proof);
  ASSERT_TRUE(sr.provedUnsat);
  EXPECT_TRUE(proof.endsWithEmptyClause());
  EXPECT_TRUE(checkRup(cnf, proof));
}

TEST(Drat, InprocessedProcessorProofIsCertified) {
  // End-to-end with the front end enabled: the PE-only correctness CNF of
  // a correct processor, refuted through inprocess + CDCL, certifies
  // against the untouched translation output.
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {2, 1});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  evc::TranslateOptions topts;
  topts.conservativeMemory = false;
  const evc::Translation tr = evc::translate(cx, d.correctness, topts);
  Proof proof;
  InprocessStats st;
  ASSERT_EQ(solveCnfInprocessed(tr.cnf, {}, nullptr, nullptr, -1, &proof,
                                nullptr, &st),
            Result::Unsat);
  EXPECT_GT(st.clausesBefore, st.clausesAfter);  // the front end did work
  EXPECT_TRUE(checkRup(tr.cnf, proof));
}

TEST(Drat, ProcessorVerificationIsCertified) {
  // End-to-end: the UNSAT proof of a correct processor's correctness CNF
  // (rewriting flow) checks with the independent RUP checker.
  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {2, 1});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  evc::TranslateOptions topts;
  topts.conservativeMemory = false;  // PE-only flow: the larger CNF
  const evc::Translation tr = evc::translate(cx, d.correctness, topts);
  Proof proof;
  ASSERT_EQ(solveCnf(tr.cnf, nullptr, nullptr, -1, &proof), Result::Unsat);
  EXPECT_TRUE(checkRup(tr.cnf, proof));
}

}  // namespace
}  // namespace velev::sat
