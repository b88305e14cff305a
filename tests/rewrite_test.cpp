// Tests for the rewriting-rule engine: update-chain mechanics, context
// analysis, guarded substitution, the full engine over a grid of processor
// configurations, bug detection at the exact slice, and semantic soundness
// of the removal (the proven-equal prefix states really are equal under
// random finite interpretations).
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "core/diagram.hpp"
#include "eufm/eval.hpp"
#include "models/spec.hpp"
#include "rewrite/contexts.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/subst.hpp"
#include "rewrite/update_chain.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace velev::rewrite {
namespace {

using eufm::Context;
using eufm::Expr;

class ChainTest : public ::testing::Test {
 protected:
  Context cx;
};

TEST_F(ChainTest, ExtractSingleUpdate) {
  const Expr m = cx.termVar("M");
  const Expr c = cx.boolVar("c");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  const Expr u = cx.mkIteT(c, cx.mkWrite(m, a, d), m);
  const UpdateChain chain = extractChain(cx, u);
  EXPECT_EQ(chain.base, m);
  ASSERT_EQ(chain.updates.size(), 1u);
  EXPECT_EQ(chain.updates[0].ctx, c);
  EXPECT_EQ(chain.updates[0].addr, a);
  EXPECT_EQ(chain.updates[0].data, d);
}

TEST_F(ChainTest, ExtractStacksBottomUp) {
  const Expr m = cx.termVar("M");
  Expr cur = m;
  std::vector<Expr> addrs;
  for (int i = 0; i < 4; ++i) {
    const Expr a = cx.termVar("a" + std::to_string(i));
    addrs.push_back(a);
    cur = cx.mkIteT(cx.boolVar("c" + std::to_string(i)),
                    cx.mkWrite(cur, a, cx.termVar("d" + std::to_string(i))),
                    cur);
  }
  const UpdateChain chain = extractChain(cx, cur);
  ASSERT_EQ(chain.updates.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(chain.updates[i].addr, addrs[i]);
  EXPECT_EQ(rebuildChain(cx, chain.base, chain.updates), cur);
}

TEST_F(ChainTest, NonUpdateIsBase) {
  const Expr m = cx.termVar("M");
  const Expr c = cx.boolVar("c");
  // ITE whose else-branch is not the written state: not an update.
  const Expr odd = cx.mkIteT(c, cx.mkWrite(m, cx.termVar("a"),
                                           cx.termVar("d")),
                             cx.termVar("other"));
  const UpdateChain chain = extractChain(cx, odd);
  EXPECT_TRUE(chain.updates.empty());
  EXPECT_EQ(chain.base, odd);
}

TEST_F(ChainTest, ExtractToMissingBaseThrows) {
  const Expr m = cx.termVar("M");
  EXPECT_THROW(extractChainTo(cx, m, cx.termVar("N")), InternalError);
}

TEST_F(ChainTest, ConjunctsFlattenNestedAnds) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b"), c = cx.boolVar("c");
  const auto cs = conjuncts(cx, cx.mkAnd(cx.mkAnd(a, b), c));
  EXPECT_EQ(cs.size(), 3u);
}

TEST_F(ChainTest, SyntacticImplication) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b"), c = cx.boolVar("c");
  EXPECT_TRUE(impliesSyntactic(cx, cx.mkAnd(cx.mkAnd(a, b), c),
                               cx.mkAnd(a, c)));
  EXPECT_FALSE(impliesSyntactic(cx, cx.mkAnd(a, b), cx.mkAnd(a, c)));
}

TEST_F(ChainTest, DisjointByOppositeLiteral) {
  const Expr a = cx.boolVar("a"), b = cx.boolVar("b");
  EXPECT_TRUE(disjointContexts(cx, cx.mkAnd(a, b),
                               cx.mkAnd(cx.mkNot(a), b)));
  EXPECT_FALSE(disjointContexts(cx, cx.mkAnd(a, b), b));
}

TEST_F(ChainTest, DisjointByNegatedConjunction) {
  // The paper's pattern: retire_2 = r2' & retire_1 vs !retire_1.
  const Expr v1 = cx.boolVar("v1"), v2 = cx.boolVar("v2");
  const Expr r1 = cx.mkOr(cx.mkNot(v1), cx.boolVar("vr1"));
  const Expr r2 = cx.mkAnd(cx.mkOr(cx.mkNot(v2), cx.boolVar("vr2")), r1);
  const Expr ctxRetire = cx.mkAnd(v2, r2);
  const Expr ctxFlush = cx.mkAnd(v1, cx.mkNot(r1));
  EXPECT_TRUE(disjointContexts(cx, ctxFlush, ctxRetire));
}

TEST_F(ChainTest, SubstituteShallowFoldsGuards) {
  const Expr v = cx.boolVar("v"), w = cx.boolVar("w");
  const Expr x = cx.termVar("x"), y = cx.termVar("y");
  const Expr e = cx.mkIteT(cx.mkAnd(v, w), x, y);
  BoolAssumptions assume{{v, false}};
  EXPECT_EQ(substituteShallow(cx, e, assume), y);
  BoolAssumptions assume2{{v, true}};
  EXPECT_EQ(substituteShallow(cx, e, assume2), cx.mkIteT(w, x, y));
}

TEST_F(ChainTest, SubstituteShallowKeepsReadBases) {
  const Expr m = cx.termVar("M");
  const Expr v = cx.boolVar("v");
  const Expr a = cx.termVar("a"), d = cx.termVar("d");
  // The memory argument contains an ITE guarded by v, but shallow
  // substitution must not rewrite below the read's memory argument.
  const Expr mem = cx.mkIteT(v, cx.mkWrite(m, a, d), m);
  const Expr e = cx.mkRead(mem, cx.mkIteT(v, a, d));
  BoolAssumptions assume{{v, true}};
  const Expr r = substituteShallow(cx, e, assume);
  EXPECT_EQ(r, cx.mkRead(mem, a));  // address folded, base untouched
}

TEST_F(ChainTest, SubstituteMemReplacesBase) {
  const Expr m = cx.termVar("M"), n = cx.termVar("N");
  const Expr a = cx.termVar("a");
  const Expr e = cx.mkRead(m, a);
  EXPECT_EQ(substituteMem(cx, e, m, n), cx.mkRead(n, a));
  // Other bases stay.
  const Expr other = cx.termVar("Other");
  EXPECT_EQ(substituteMem(cx, cx.mkRead(other, a), m, n),
            cx.mkRead(other, a));
}

// ---- full engine over a configuration grid -----------------------------------

struct GridParam {
  unsigned n, k;
};

class EngineGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(EngineGrid, CorrectDesignRewrites) {
  const auto [n, k] = GetParam();
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_TRUE(rw.ok) << "slice " << rw.failedSlice << ": " << rw.message;
  EXPECT_EQ(rw.updatesRemoved, k + 2 * n);

  // The rewritten implementation side carries exactly the k new-instruction
  // updates over the fresh equal state; m-th spec side carries m updates.
  const UpdateChain ic = extractChainTo(cx, rw.implRegFile, rw.equalStateVar);
  EXPECT_EQ(ic.updates.size(), k);
  for (unsigned m = 0; m <= k; ++m) {
    const UpdateChain sc =
        extractChainTo(cx, rw.specRegFile[m], rw.equalStateVar);
    EXPECT_EQ(sc.updates.size(), m);
  }

  // Semantic soundness of the removal: the prefix states proven equal by
  // the rules — the implementation state below the new-instruction updates
  // and the flushed initial state — must be equal under every sampled
  // interpretation.
  const UpdateChain full = extractChain(cx, d.implRegFile);
  const Expr implPrefix = full.updates[full.updates.size() - k].prev;
  const Expr claim = cx.mkEq(implPrefix, d.specRegFile[0]);
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    eufm::Interp in(seed, 2);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(claim)) << "n=" << n << " k=" << k
                                       << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineGrid,
    ::testing::Values(GridParam{1, 1}, GridParam{2, 1}, GridParam{2, 2},
                      GridParam{3, 1}, GridParam{3, 2}, GridParam{3, 3},
                      GridParam{4, 2}, GridParam{4, 4}, GridParam{5, 3},
                      GridParam{6, 2}, GridParam{8, 4}, GridParam{8, 8},
                      GridParam{12, 2}, GridParam{16, 8}),
    [](const auto& info) {
      return "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k);
    });

// The reassembled correctness formula over the rewritten Register File
// expressions must itself be EUFM-valid: sample it with random finite
// interpretations (the fresh equal-state variable is just another term
// variable there).
TEST_P(EngineGrid, RewrittenCorrectnessRemainsValid) {
  const auto [n, k] = GetParam();
  if (n > 8) GTEST_SKIP() << "evaluation cost";
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_TRUE(rw.ok);
  Expr c = cx.mkFalse();
  for (unsigned m = 0; m <= k; ++m)
    c = cx.mkOr(c, cx.mkAnd(cx.mkEq(d.implPc, d.specPc[m]),
                            cx.mkEq(rw.implRegFile, rw.specRegFile[m])));
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    eufm::Interp in(seed * 3 + 1, 2);
    eufm::Evaluator ev(cx, in);
    EXPECT_TRUE(ev.evalFormula(c)) << "seed " << seed;
  }
}

// Fuzz the chain utilities: random chains survive an extract/rebuild
// round-trip both structurally and semantically.
class ChainFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChainFuzz, ExtractRebuildRoundTrip) {
  Rng rng(GetParam() * 7919 + 3);
  Context cx;
  const Expr base = cx.termVar("M");
  Expr cur = base;
  const unsigned len = 1 + rng.below(12);
  for (unsigned i = 0; i < len; ++i) {
    // Contexts must be pairwise distinct between adjacent updates: with an
    // identical condition the ITE same-condition fold legitimately merges
    // the chain (processor chains always have distinct contexts per slice).
    const Expr ctx = cx.boolVar("c" + std::to_string(i));
    const Expr addr = cx.termVar("a" + std::to_string(rng.below(4)));
    const Expr data = cx.termVar("d" + std::to_string(rng.below(4)));
    cur = cx.mkIteT(ctx, cx.mkWrite(cur, addr, data), cur);
  }
  const UpdateChain chain = extractChain(cx, cur);
  EXPECT_EQ(chain.base, base);
  // Hash-consing makes the round-trip an identity on node ids.
  EXPECT_EQ(rebuildChain(cx, chain.base, chain.updates), cur);
  // And extractChainTo agrees when given the right base.
  const UpdateChain chain2 = extractChainTo(cx, cur, base);
  EXPECT_EQ(chain2.updates.size(), chain.updates.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzz, ::testing::Range(0, 20));

// ---- bug detection -------------------------------------------------------------

struct BugParam {
  models::BugKind kind;
  unsigned n, k, index;
};

class EngineBugs : public ::testing::TestWithParam<BugParam> {};

TEST_P(EngineBugs, FlagsTheBuggySlice) {
  const auto [kind, n, k, index] = GetParam();
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k}, {kind, index});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_FALSE(rw.ok) << "bug was not detected";
  // Forwarding/ALU bugs are pinpointed at their slice; structural bugs
  // (retire / completion-skip) surface at or before the affected slice.
  if (kind == models::BugKind::ForwardingWrongOperand ||
      kind == models::BugKind::ForwardingStaleResult ||
      kind == models::BugKind::AluWrongOpcode) {
    EXPECT_EQ(rw.failedSlice, index) << rw.message;
  } else {
    EXPECT_GE(rw.failedSlice, 1u);
    EXPECT_LE(rw.failedSlice, index);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EngineBugs,
    ::testing::Values(
        BugParam{models::BugKind::ForwardingWrongOperand, 8, 2, 5},
        BugParam{models::BugKind::ForwardingWrongOperand, 16, 4, 12},
        BugParam{models::BugKind::ForwardingWrongOperand, 4, 2, 2},
        BugParam{models::BugKind::ForwardingStaleResult, 8, 2, 6},
        BugParam{models::BugKind::ForwardingStaleResult, 6, 3, 4},
        BugParam{models::BugKind::AluWrongOpcode, 8, 4, 3},
        BugParam{models::BugKind::AluWrongOpcode, 5, 1, 5},
        BugParam{models::BugKind::RetireIgnoresValidResult, 6, 3, 2},
        BugParam{models::BugKind::RetireIgnoresValidResult, 4, 2, 1},
        BugParam{models::BugKind::CompletionSkipsWrite, 8, 2, 4},
        BugParam{models::BugKind::CompletionSkipsWrite, 5, 2, 5},
        // One per kind at 250x64, at the slices the perfbench `refute`
        // workload draws with seed 1 (fwd at the paper's slice 72).
        BugParam{models::BugKind::ForwardingWrongOperand, 250, 64, 72},
        BugParam{models::BugKind::ForwardingStaleResult, 250, 64, 238},
        BugParam{models::BugKind::RetireIgnoresValidResult, 250, 64, 15},
        BugParam{models::BugKind::AluWrongOpcode, 250, 64, 181},
        BugParam{models::BugKind::CompletionSkipsWrite, 250, 64, 314}),
    [](const auto& info) {
      return "kind" + std::to_string(static_cast<int>(info.param.kind)) +
             "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k) + "i" +
             std::to_string(info.param.index);
    });

// The paper's exact buggy experiment: forwarding bug in one operand of the
// 72nd instruction of a 128-entry ROB with issue width 4 — the engine must
// identify slice 72.
TEST(EngineBugsPaper, Slice72Of128) {
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(
      cx, isa, {128, 4}, {models::BugKind::ForwardingWrongOperand, 72});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  ASSERT_FALSE(rw.ok);
  EXPECT_EQ(rw.failedSlice, 72u);
}

// The forwarding bug only mis-wires operand 1 of one slice; if the buggy
// slice's two source registers are the same variable the design is
// accidentally correct — the engine must then succeed. (Checks the engine
// is not over-eager.)
TEST(EngineBugsPaper, WrongOperandBugOnSlice1IsHarmless) {
  // Slice 1 has no preceding entries, so its forwarding chain is empty and
  // the mis-wiring cannot manifest.
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(
      cx, isa, {4, 2}, {models::BugKind::ForwardingWrongOperand, 1});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const RewriteResult rw = rewriteRobUpdates(
      cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile);
  EXPECT_TRUE(rw.ok) << rw.message;
}

// ---- rule counters -----------------------------------------------------------

// The rule counters of a mid-size correct design are pinned: a faster
// matcher must fire exactly the same rules. The slice node counts only
// record what the checks intern, so they may shrink but never grow.
TEST(EngineCounters, PinnedAt64x8) {
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {64, 8});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const RewriteResult rw = rewriteRobUpdates(
        cx, isa, impl->init, impl->config, d.implRegFile, d.specRegFile, p);
    ASSERT_TRUE(rw.ok) << rw.message;
    EXPECT_EQ(rw.stats.slicesChecked, 64u);
    EXPECT_EQ(rw.stats.contextChecks, 72u);
    EXPECT_EQ(rw.stats.movesApplied, 28u);
    EXPECT_EQ(rw.stats.mergesApplied, 8u);
    EXPECT_EQ(rw.stats.forwardingMatches, 128u);
    EXPECT_EQ(rw.stats.rulesFired(), 300u);
    EXPECT_EQ(rw.updatesRemoved, 136u);
    EXPECT_LE(rw.stats.sliceNodesTotal, 323u);
    EXPECT_LE(rw.stats.sliceNodesMax, 6u);
  }
}

// ---- structural forwarding matcher -------------------------------------------

// `root` rebuilt through the smart constructors with node `from` replaced
// by `to`, memory arguments included: a one-node perturbation of a design.
Expr replaceNode(Context& cx, Expr root, Expr from, Expr to) {
  using eufm::Kind;
  std::unordered_map<Expr, Expr> map{{from, to}};
  std::vector<std::pair<Expr, bool>> stack = {{root, false}};
  while (!stack.empty()) {
    const auto [e, expanded] = stack.back();
    stack.pop_back();
    if (map.count(e)) continue;
    if (cx.args(e).empty()) {
      map.emplace(e, e);
      continue;
    }
    if (!expanded) {
      stack.emplace_back(e, true);
      for (Expr a : cx.args(e))
        if (!map.count(a)) stack.emplace_back(a, false);
      continue;
    }
    std::vector<Expr> m;
    for (Expr a : cx.args(e)) m.push_back(map.at(a));
    Expr r = eufm::kNoExpr;
    switch (cx.kind(e)) {
      case Kind::Not: r = cx.mkNot(m[0]); break;
      case Kind::And: r = cx.mkAnd(m[0], m[1]); break;
      case Kind::Or: r = cx.mkOr(m[0], m[1]); break;
      case Kind::IteF: r = cx.mkIteF(m[0], m[1], m[2]); break;
      case Kind::IteT: r = cx.mkIteT(m[0], m[1], m[2]); break;
      case Kind::Eq: r = cx.mkEq(m[0], m[1]); break;
      case Kind::Up:
      case Kind::Uf: r = cx.apply(cx.funcOf(e), m); break;
      case Kind::Read: r = cx.mkRead(m[0], m[1]); break;
      case Kind::Write: r = cx.mkWrite(m[0], m[1], m[2]); break;
      default: ADD_FAILURE() << "unexpected kind"; return root;
    }
    map.emplace(e, r);
  }
  return map.at(root);
}

// The engine matches forwarding hits Valid_j & (Dest_j = src) and the
// availability chain by node structure instead of rebuilding them through
// the hash-cons table. Perturb one level of one slice's forwarding chain
// or availability chain in a correct design — a wrong Valid_j, Dest_j,
// Result_j or ValidResult_j, or the Eq matched against the other operand's
// source — and the engine must report exactly that slice. Level 0 of the
// availability chain is the folded form Or(!hit_0, ValidResult_0), so the
// level-0 cases cover it. Parameter: worker count (0 = no pool).
class StructuralMatch : public ::testing::TestWithParam<unsigned> {};

TEST_P(StructuralMatch, RejectsEveryOneLevelPerturbation) {
  constexpr unsigned n = 12, k = 3, slice = 9;  // 0-based: slice 10 of 12
  Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, {n, k});
  auto spec = models::buildSpec(cx, isa);
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);
  const models::RobInitState& in = impl->init;
  std::unique_ptr<ThreadPool> pool;
  if (GetParam() > 0) pool = std::make_unique<ThreadPool>(GetParam());
  const auto rewrite = [&](Expr implRegFile) {
    return rewriteRobUpdates(cx, isa, in, impl->config, implRegFile,
                             d.specRegFile, pool.get());
  };
  ASSERT_TRUE(rewrite(d.implRegFile).ok);

  enum class Wrong { Valid, Dest, Source, Result, ValidResult };
  unsigned cases = 0;
  for (unsigned o = 0; o < 2; ++o) {
    const Expr src = o == 0 ? in.src1[slice] : in.src2[slice];
    const Expr other = o == 0 ? in.src2[slice] : in.src1[slice];
    // The slice's forwarding and availability chains, level by level, as
    // the model builds them (hash-consing finds the existing nodes).
    std::vector<Expr> fwd, avail;
    {
      const std::size_t before = cx.numNodes();
      Expr f = cx.mkRead(in.regFile, src), a = cx.mkTrue();
      for (unsigned j = 0; j < slice; ++j) {
        const Expr hit = cx.mkAnd(in.valid[j], cx.mkEq(in.dest[j], src));
        fwd.push_back(f = cx.mkIteT(hit, in.result[j], f));
        avail.push_back(a = cx.mkIteF(hit, in.validResult[j], a));
      }
      ASSERT_EQ(cx.numNodes(), before) << "chains are not in the design";
    }
    for (unsigned j : {0u, 4u, slice - 1}) {
      const unsigned w = j + 2;  // another entry, not the checked slice
      const Expr fwdRest = j == 0 ? cx.mkRead(in.regFile, src) : fwd[j - 1];
      const Expr availRest = j == 0 ? cx.mkTrue() : avail[j - 1];
      for (Wrong what : {Wrong::Valid, Wrong::Dest, Wrong::Source,
                         Wrong::Result, Wrong::ValidResult}) {
        const Expr hit = cx.mkAnd(
            in.valid[what == Wrong::Valid ? w : j],
            cx.mkEq(in.dest[what == Wrong::Dest ? w : j],
                    what == Wrong::Source ? other : src));
        // Result_j lives on the forwarding chain, ValidResult_j on the
        // availability chain; a wrong hit goes on each chain in turn.
        std::vector<std::pair<Expr, Expr>> edits;
        if (what != Wrong::ValidResult)
          edits.emplace_back(
              fwd[j], cx.mkIteT(hit, in.result[what == Wrong::Result ? w : j],
                                fwdRest));
        if (what != Wrong::Result)
          edits.emplace_back(
              avail[j],
              cx.mkIteF(hit,
                        in.validResult[what == Wrong::ValidResult ? w : j],
                        availRest));
        for (const auto& [from, to] : edits) {
          SCOPED_TRACE("operand " + std::to_string(o + 1) + ", level " +
                       std::to_string(j) + ", perturbation " +
                       std::to_string(static_cast<int>(what)) +
                       (from == fwd[j] ? " (forwarding)" : " (availability)"));
          ASSERT_NE(from, to);
          const RewriteResult rw =
              rewrite(replaceNode(cx, d.implRegFile, from, to));
          EXPECT_FALSE(rw.ok);
          EXPECT_EQ(rw.failedSlice, slice + 1) << rw.message;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2u * 3u * 8u);
}

INSTANTIATE_TEST_SUITE_P(Workers, StructuralMatch, ::testing::Values(0u, 4u),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("Sequential")
                                      : "Pool" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace velev::rewrite
