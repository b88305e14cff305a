// The BDD decision engine: unique-table canonicity under complement edges,
// garbage-collection liveness (explicit and at the gcPending() safe points),
// deterministic MemOut under a logical budget, checkValidity() against
// hand-built AIGs,
// and cross-engine agreement of core::verify() between Engine::Sat and
// Engine::Bdd on small cells.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bdd/bdd.hpp"
#include "bdd/check.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"
#include "prop/cnf.hpp"
#include "prop/prop.hpp"
#include "support/budget.hpp"

namespace velev {
namespace {

using bdd::BddManager;
using bdd::BddRef;

// ---- unique-table canonicity ----------------------------------------------

TEST(BddCanonicity, EqualFunctionsGetEqualRefs) {
  BddManager mgr;
  const BddRef a = mgr.varRef(mgr.mkVar());
  const BddRef b = mgr.varRef(mgr.mkVar());

  EXPECT_EQ(mgr.varRef(0), a);  // re-requesting a projection is a hit
  EXPECT_EQ(mgr.mkAnd(a, b), mgr.mkAnd(b, a));
  EXPECT_EQ(mgr.mkOr(a, b), mgr.mkOr(b, a));
  // De Morgan holds *structurally*, not just semantically.
  EXPECT_EQ(mgr.mkOr(a, b),
            bdd::negate(mgr.mkAnd(bdd::negate(a), bdd::negate(b))));
  // x ? y : y and x ∧ x collapse without allocating.
  EXPECT_EQ(mgr.ite(a, b, b), b);
  EXPECT_EQ(mgr.mkAnd(a, a), a);
  EXPECT_EQ(mgr.mkAnd(a, bdd::negate(a)), bdd::kFalse);
  EXPECT_EQ(mgr.mkXor(a, a), bdd::kFalse);
  EXPECT_EQ(mgr.mkXor(a, bdd::negate(a)), bdd::kTrue);
  EXPECT_TRUE(mgr.checkInvariants());
}

TEST(BddCanonicity, ComplementEdgesShareOneNodePerFunctionPair) {
  BddManager mgr;
  const BddRef a = mgr.varRef(mgr.mkVar());
  const BddRef b = mgr.varRef(mgr.mkVar());
  // f and ¬f must be the same node with the complement bit flipped.
  const BddRef f = mgr.mkAnd(a, b);
  const BddRef nf = bdd::negate(f);
  EXPECT_EQ(bdd::nodeOf(f), bdd::nodeOf(nf));
  EXPECT_NE(bdd::isComplement(f), bdd::isComplement(nf));
  EXPECT_EQ(bdd::negate(nf), f);
  // XOR and XNOR likewise share structure.
  EXPECT_EQ(bdd::nodeOf(mgr.mkXor(a, b)),
            bdd::nodeOf(bdd::negate(mgr.mkXor(a, b))));
  EXPECT_TRUE(mgr.checkInvariants());
}

TEST(BddCanonicity, EvalMatchesTruthTable) {
  BddManager mgr;
  for (int i = 0; i < 3; ++i) mgr.mkVar();
  const BddRef x = mgr.varRef(0), y = mgr.varRef(1), z = mgr.varRef(2);
  const BddRef f = mgr.ite(x, mgr.mkXor(y, z), mgr.mkOr(y, z));
  for (unsigned m = 0; m < 8; ++m) {
    const std::vector<bool> asg = {(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    const bool expect = asg[0] ? (asg[1] ^ asg[2]) : (asg[1] || asg[2]);
    EXPECT_EQ(mgr.eval(f, asg), expect) << "minterm " << m;
    EXPECT_EQ(mgr.eval(bdd::negate(f), asg), !expect) << "minterm " << m;
  }
}

// ---- garbage collection ----------------------------------------------------

TEST(BddGc, SweepsDeadKeepsProtectedAndExtraRoots) {
  BddManager mgr;
  for (int i = 0; i < 6; ++i) mgr.mkVar();
  // f: protected. g: kept alive only via extraRoots. h: dead after drop.
  BddRef f = bdd::kTrue, g = bdd::kFalse, h = bdd::kTrue;
  for (int i = 0; i < 3; ++i) {
    f = mgr.mkAnd(f, mgr.mkXor(mgr.varRef(i), mgr.varRef(i + 3)));
    g = mgr.mkOr(g, mgr.mkAnd(mgr.varRef(i), mgr.varRef(i + 3)));
    h = mgr.mkXor(h, mgr.varRef(i));
  }
  mgr.protect(f);

  const std::uint32_t before = mgr.liveNodes();
  const BddRef roots[] = {g};
  mgr.gc(roots);  // h is the only garbage
  EXPECT_LT(mgr.liveNodes(), before);
  EXPECT_TRUE(mgr.checkInvariants());

  // Both survivors still compute their functions.
  const std::vector<bool> asg = {true, false, true, true, true, true};
  const bool fExpect =
      (asg[0] ^ asg[3]) && (asg[1] ^ asg[4]) && (asg[2] ^ asg[5]);
  EXPECT_EQ(mgr.eval(f, asg), fExpect);
  EXPECT_EQ(mgr.eval(g, asg), (asg[0] && asg[3]) || (asg[1] && asg[4]) ||
                                  (asg[2] && asg[5]));

  // Dropping the extra root frees g's cone but never f's.
  const std::uint32_t withG = mgr.liveNodes();
  const std::size_t freed = mgr.gc();
  EXPECT_GT(freed, 0u);
  EXPECT_LT(mgr.liveNodes(), withG);
  EXPECT_EQ(mgr.eval(f, asg), fExpect);
  EXPECT_TRUE(mgr.checkInvariants());

  mgr.unprotect(f);
  mgr.gc();
  EXPECT_EQ(mgr.liveNodes(), 1u);  // only the terminal remains
}

/// The classic hard-order function: the comparator AND_i (x_i == y_i) is
/// linear under the interleaved order x0 y0 x1 y1 ... and exponential under
/// the separated order x0 x1 ... y0 y1 ... this builds it under the latter.
BddRef separatedComparator(BddManager& mgr, unsigned pairs) {
  for (unsigned i = 0; i < 2 * pairs; ++i) mgr.mkVar();
  BddRef f = bdd::kTrue;
  for (unsigned i = 0; i < pairs; ++i)
    f = mgr.mkAnd(f,
                  bdd::negate(mgr.mkXor(mgr.varRef(i), mgr.varRef(pairs + i))));
  return f;
}

TEST(BddGc, SafePointGcKeepsAGrowingBuildSound) {
  // The caller-side protocol of check.cpp: every intermediate but the
  // running conjunction dies at once, and the caller sweeps between
  // operations whenever gcPending() says the table has doubled.
  constexpr unsigned kPairs = 13;
  BddManager mgr;
  for (unsigned i = 0; i < 2 * kPairs; ++i) mgr.mkVar();

  BddRef f = bdd::kTrue;
  mgr.protect(f);
  for (unsigned i = 0; i < kPairs; ++i) {
    const BddRef next = mgr.mkAnd(
        f, bdd::negate(mgr.mkXor(mgr.varRef(i), mgr.varRef(kPairs + i))));
    mgr.unprotect(f);
    mgr.protect(next);
    f = next;
    if (mgr.gcPending()) {
      mgr.gc();
      EXPECT_FALSE(mgr.gcPending());
      EXPECT_TRUE(mgr.checkInvariants());
    }
  }

  EXPECT_GT(mgr.stats().gcRuns, 0u);
  EXPECT_GT(mgr.stats().nodesFreed, 0u);
  EXPECT_TRUE(mgr.checkInvariants());
  std::vector<bool> asg(2 * kPairs, true);
  EXPECT_TRUE(mgr.eval(f, asg));
  asg[3] = false;  // one mismatched pair
  EXPECT_FALSE(mgr.eval(f, asg));
  asg[kPairs + 3] = false;  // matched again
  EXPECT_TRUE(mgr.eval(f, asg));
}

// ---- deterministic resource governance --------------------------------------

TEST(BddBudget, MemOutIsDeterministicAcrossRuns) {
  auto runOnce = [](std::uint64_t* peak) {
    ResourceBudget b;
    b.memoryBytes = 200'000;
    BudgetGovernor gov(b);
    BddManager mgr;
    mgr.setBudget(&gov);
    try {
      const BddRef f = separatedComparator(mgr, 12);  // wants ~2^13 nodes
      (void)f;
      ADD_FAILURE() << "expected the 200 kB budget to trip";
    } catch (const BudgetExceeded& e) {
      EXPECT_EQ(e.kind(), BudgetKind::Memory);
    }
    *peak = mgr.stats().nodesPeak;
  };
  std::uint64_t first = 0, second = 0;
  runOnce(&first);
  runOnce(&second);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

// ---- checkValidity over hand-built AIGs -------------------------------------

TEST(BddCheck, TautologyIsValid) {
  prop::PropCtx pctx;
  const prop::PLit a = pctx.mkVar(), b = pctx.mkVar();
  const prop::PLit root = pctx.mkImplies(pctx.mkAnd(a, b), a);
  const bdd::CheckResult res = bdd::checkValidity(pctx, root, {});
  EXPECT_EQ(res.status, bdd::CheckStatus::Valid);
  EXPECT_TRUE(res.model.empty());
  EXPECT_GT(res.stats.nodesPeak, 0u);
}

TEST(BddCheck, FalsifiableModelActuallyFalsifiesTheRoot) {
  prop::PropCtx pctx;
  const prop::PLit a = pctx.mkVar(), b = pctx.mkVar(), c = pctx.mkVar();
  const prop::PLit root = pctx.mkOr(pctx.mkAnd(a, b), c);
  const bdd::CheckResult res = bdd::checkValidity(pctx, root, {});
  ASSERT_EQ(res.status, bdd::CheckStatus::Falsifiable);
  ASSERT_GE(res.model.size(), 4u);  // CNF vars 1..3 (entry 0 unused)
  const std::vector<bool> asg = {res.model[1], res.model[2], res.model[3]};
  EXPECT_FALSE(pctx.eval(root, asg));
  EXPECT_GT(res.rootNodes, 0u);
}

TEST(BddCheck, SideClausesCanCloseTheGap) {
  // root = a ∨ b is falsifiable alone (¬a ∧ ¬b), but the side clause
  // (a ∨ b) removes exactly that path: Valid. Exercises the lazy
  // conjunction round-trip.
  prop::PropCtx pctx;
  const prop::PLit a = pctx.mkVar(), b = pctx.mkVar();
  const prop::PLit root = pctx.mkOr(a, b);
  const std::vector<prop::Clause> side = {{1, 2}};
  const bdd::CheckResult res = bdd::checkValidity(pctx, root, side);
  EXPECT_EQ(res.status, bdd::CheckStatus::Valid);
}

TEST(BddCheck, SideClauseFillInVariablesReachTheModel) {
  // CNF var 7 has no AIG input: it gets a fresh BDD variable at the bottom
  // of the order, and the unit clause pins it in the returned model.
  prop::PropCtx pctx;
  const prop::PLit a = pctx.mkVar(), b = pctx.mkVar();
  const prop::PLit root = pctx.mkAnd(a, b);
  const std::vector<prop::Clause> side = {{7}};
  const bdd::CheckResult res = bdd::checkValidity(pctx, root, side);
  ASSERT_EQ(res.status, bdd::CheckStatus::Falsifiable);
  ASSERT_GE(res.model.size(), 8u);
  EXPECT_TRUE(res.model[7]);
  EXPECT_FALSE(res.model[1] && res.model[2]);
}

TEST(BddCheck, BudgetTripReportsUnknownWithMemoryKind) {
  prop::PropCtx pctx;
  // Separated comparator as an AIG: a hard order for the cone builder.
  constexpr unsigned kPairs = 12;
  std::vector<prop::PLit> xs, ys;
  for (unsigned i = 0; i < kPairs; ++i) xs.push_back(pctx.mkVar());
  for (unsigned i = 0; i < kPairs; ++i) ys.push_back(pctx.mkVar());
  prop::PLit all = prop::kTrue;
  for (unsigned i = 0; i < kPairs; ++i)
    all = pctx.mkAnd(all, pctx.mkIff(xs[i], ys[i]));

  ResourceBudget b;
  b.memoryBytes = 150'000;
  BudgetGovernor gov1(b), gov2(b);
  const bdd::CheckResult r1 =
      bdd::checkValidity(pctx, prop::negate(all), {}, &gov1);
  const bdd::CheckResult r2 =
      bdd::checkValidity(pctx, prop::negate(all), {}, &gov2);
  ASSERT_EQ(r1.status, bdd::CheckStatus::Unknown);
  EXPECT_EQ(r1.tripKind, BudgetKind::Memory);
  EXPECT_FALSE(r1.reason.empty());
  EXPECT_TRUE(r1.model.empty());
  // Logical budgets are deterministic: byte-for-byte the same trip point.
  EXPECT_EQ(r1.stats.nodesPeak, r2.stats.nodesPeak);
}

TEST(BddCheck, SafePointGcRunsOnAConeWithDeadIntermediates) {
  // Two association orders of the separated comparator: the AIG cones are
  // disjoint, so every partial conjunction of either chain is a dead
  // intermediate once its consumer is built, and together they outgrow the
  // gc floor. all -> all' is valid; all alone is falsifiable.
  constexpr unsigned kPairs = 12;
  prop::PropCtx pctx;
  std::vector<prop::PLit> xs, ys;
  for (unsigned i = 0; i < kPairs; ++i) xs.push_back(pctx.mkVar());
  for (unsigned i = 0; i < kPairs; ++i) ys.push_back(pctx.mkVar());
  prop::PLit fwd = prop::kTrue, rev = prop::kTrue;
  for (unsigned i = 0; i < kPairs; ++i) {
    fwd = pctx.mkAnd(fwd, pctx.mkIff(xs[i], ys[i]));
    const unsigned j = kPairs - 1 - i;
    rev = pctx.mkAnd(pctx.mkIff(xs[j], ys[j]), rev);
  }
  ASSERT_NE(fwd, rev);

  const bdd::CheckResult valid =
      bdd::checkValidity(pctx, pctx.mkImplies(fwd, rev), {});
  EXPECT_EQ(valid.status, bdd::CheckStatus::Valid);
  EXPECT_GT(valid.stats.gcRuns, 0u);
  EXPECT_GT(valid.stats.nodesFreed, 0u);

  const bdd::CheckResult cex = bdd::checkValidity(pctx, fwd, {});
  ASSERT_EQ(cex.status, bdd::CheckStatus::Falsifiable);
  EXPECT_GT(cex.stats.gcRuns, 0u);
  std::vector<bool> asg(2 * kPairs);
  for (unsigned v = 0; v < 2 * kPairs; ++v) asg[v] = cex.model[v + 1];
  EXPECT_FALSE(pctx.eval(fwd, asg));
}

// ---- cross-engine agreement -------------------------------------------------

TEST(BddEngine, AgreesWithSatOnSmallCells) {
  struct Cell {
    unsigned n, k;
    models::BugSpec bug;
  };
  const Cell cells[] = {
      {2, 1, {}},
      {2, 2, {}},
      {2, 1, {models::BugKind::ForwardingStaleResult, 2}},
  };
  for (const Cell& c : cells) {
    core::VerifyRequest req;
    req.robSize = c.n;
    req.issueWidth = c.k;
    req.bug = c.bug;
    req.strategy = core::Strategy::PositiveEqualityOnly;
    req.engine = core::Engine::Sat;
    const core::VerifyReport satRep = core::verify(req);
    req.engine = core::Engine::Bdd;
    const core::VerifyReport bddRep = core::verify(req);
    EXPECT_EQ(satRep.verdict(), bddRep.verdict())
        << c.n << "x" << c.k << " bug=" << static_cast<int>(c.bug.kind);
    EXPECT_GT(bddRep.bddStats.nodesPeak, 0u);
    EXPECT_EQ(bddRep.engine, core::Engine::Bdd);
  }
}

TEST(BddEngine, BothRunsBothAndCrossChecks) {
  core::VerifyRequest req;
  req.robSize = 2;
  req.issueWidth = 2;
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.engine = core::Engine::Both;

  const core::VerifyReport ok = core::verify(req);
  EXPECT_EQ(ok.verdict(), core::Verdict::Correct);
  EXPECT_GT(ok.bddStats.nodesPeak, 0u);           // BDD side genuinely ran
  EXPECT_EQ(ok.outcome.satResult, sat::Result::Unsat);  // and so did SAT

  req.issueWidth = 1;
  req.bug = {models::BugKind::ForwardingStaleResult, 2};
  const core::VerifyReport bug = core::verify(req);
  EXPECT_EQ(bug.verdict(), core::Verdict::CounterexampleFound);
  EXPECT_GT(bug.bddStats.nodesPeak, 0u);
}

}  // namespace
}  // namespace velev
