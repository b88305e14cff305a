// End-to-end integration tests of the verifier: both strategies on a grid
// of correct configurations, all bug kinds caught, verdict semantics,
// cross-strategy agreement, and the name-registry round trips for the
// core enums.
#include <gtest/gtest.h>

#include "core/request.hpp"
#include "core/verifier.hpp"
#include "support/names.hpp"

namespace velev::core {
namespace {

VerifyRequest makeRequest(unsigned n, unsigned k) {
  VerifyRequest req;
  req.robSize = n;
  req.issueWidth = k;
  return req;
}

struct GridParam {
  unsigned n, k;
};

class VerifyGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(VerifyGrid, BothStrategiesProveCorrectDesign) {
  const auto [n, k] = GetParam();
  {
    VerifyRequest req = makeRequest(n, k);
    req.strategy = Strategy::RewritingPlusPositiveEquality;
    const VerifyReport rep = verify(req);
    EXPECT_EQ(rep.verdict(), Verdict::Correct)
        << rep.outcome.reason << " slice " << rep.outcome.failedSlice;
    // The paper's Table 5 property: no e_ij variables after rewriting.
    EXPECT_EQ(rep.evcStats.eijVars, 0u);
    EXPECT_EQ(rep.updatesRemoved, k + 2 * n);
  }
  // PE-only blows up steeply (the phenomenon of Table 2); N=4/k=4 already
  // takes minutes, so the test grid stops at N=3 — the benches cover more.
  if (n <= 3) {
    VerifyRequest req = makeRequest(n, k);
    req.strategy = Strategy::PositiveEqualityOnly;
    const VerifyReport rep = verify(req);
    EXPECT_EQ(rep.verdict(), Verdict::Correct);
    EXPECT_GT(rep.evcStats.eijVars, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VerifyGrid,
    ::testing::Values(GridParam{1, 1}, GridParam{2, 1}, GridParam{2, 2},
                      GridParam{3, 2}, GridParam{3, 3}, GridParam{4, 1},
                      GridParam{4, 4}, GridParam{8, 2}, GridParam{10, 5},
                      GridParam{16, 16}, GridParam{24, 3}),
    [](const auto& info) {
      return "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k);
    });

struct BugCase {
  models::BugKind kind;
  unsigned n, k, index;
  bool peOnlyFindsCounterexample;  // semantically visible to the criterion?
};

class VerifyBugs : public ::testing::TestWithParam<BugCase> {};

TEST_P(VerifyBugs, RewritingFlagsBug) {
  const auto& p = GetParam();
  VerifyRequest req = makeRequest(p.n, p.k);
  req.bug = {p.kind, p.index};
  req.strategy = Strategy::RewritingPlusPositiveEquality;
  const VerifyReport rep = verify(req);
  EXPECT_EQ(rep.verdict(), Verdict::RewriteMismatch);
  EXPECT_GE(rep.outcome.failedSlice, 1u);
  EXPECT_FALSE(rep.outcome.reason.empty());
}

TEST_P(VerifyBugs, PositiveEqualityOnlyVerdict) {
  const auto& p = GetParam();
  VerifyRequest req = makeRequest(p.n, p.k);
  req.bug = {p.kind, p.index};
  req.strategy = Strategy::PositiveEqualityOnly;
  const VerifyReport rep = verify(req);
  if (p.peOnlyFindsCounterexample) {
    EXPECT_EQ(rep.verdict(), Verdict::CounterexampleFound);
  } else {
    // A completion-function defect changes the abstraction function on both
    // sides of the diagram, so the safety criterion still holds.
    EXPECT_EQ(rep.verdict(), Verdict::Correct);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, VerifyBugs,
    ::testing::Values(
        BugCase{models::BugKind::ForwardingWrongOperand, 3, 1, 3, true},
        BugCase{models::BugKind::ForwardingWrongOperand, 4, 2, 2, true},
        BugCase{models::BugKind::ForwardingStaleResult, 3, 2, 2, true},
        BugCase{models::BugKind::RetireIgnoresValidResult, 3, 2, 1, true},
        BugCase{models::BugKind::AluWrongOpcode, 3, 1, 2, true},
        // Within the retire width the skipped completion write IS a safety
        // violation (the instruction may retire-write on the implementation
        // side but never writes on the specification side)...
        BugCase{models::BugKind::CompletionSkipsWrite, 3, 2, 2, true},
        // ...outside the retire width it affects the abstraction function
        // on both sides identically and the criterion still holds.
        BugCase{models::BugKind::CompletionSkipsWrite, 3, 2, 3, false}),
    [](const auto& info) {
      return "kind" + std::to_string(static_cast<int>(info.param.kind)) +
             "N" + std::to_string(info.param.n) + "k" +
             std::to_string(info.param.k) + "i" +
             std::to_string(info.param.index);
    });

TEST(Verify, ReportTimingsPopulated) {
  const VerifyReport rep = verify(makeRequest(4, 2));
  EXPECT_GE(rep.simSeconds(), 0.0);
  EXPECT_GE(rep.totalSeconds(), rep.satSeconds());
  EXPECT_EQ(rep.outcome.satResult, sat::Result::Unsat);
  EXPECT_GT(rep.evcStats.cnfClauses, 0u);
  EXPECT_GT(rep.simStats.signalEvals, 0u);
  // Budget accounting is populated even for unbudgeted runs.
  EXPECT_GT(rep.outcome.peakArenaBytes, 0u);
  EXPECT_FALSE(rep.outcome.budgetExceeded());
}

TEST(Verify, ConflictBudgetGivesInconclusive) {
  // PE-only on a moderately sized design with a 1-conflict budget cannot
  // complete the proof.
  VerifyRequest req = makeRequest(4, 2);
  req.strategy = Strategy::PositiveEqualityOnly;
  req.satConflictBudget = 1;
  const VerifyReport rep = verify(req);
  EXPECT_EQ(rep.verdict(), Verdict::Inconclusive);
  EXPECT_FALSE(rep.outcome.budgetExceeded());
  EXPECT_FALSE(rep.outcome.reason.empty());
}

TEST(Verify, NaiveSimulationGivesSameVerdict) {
  VerifyRequest coi = makeRequest(4, 2);
  VerifyRequest naive = makeRequest(4, 2);
  naive.coneOfInfluence = false;
  const VerifyReport a = verify(coi);
  const VerifyReport b = verify(naive);
  EXPECT_EQ(a.verdict(), Verdict::Correct);
  EXPECT_EQ(b.verdict(), Verdict::Correct);
  // The naive mode must do strictly more evaluation work.
  EXPECT_GT(b.simStats.signalEvals, a.simStats.signalEvals);
}

TEST(Verify, CnfStatsIndependentOfRobSize) {
  // Table 5's headline property: after rewriting, the CNF depends only on
  // the issue width.
  const VerifyReport a = verify(makeRequest(4, 2));
  const VerifyReport b = verify(makeRequest(12, 2));
  const VerifyReport c = verify(makeRequest(24, 2));
  EXPECT_EQ(a.evcStats.cnfVars, b.evcStats.cnfVars);
  EXPECT_EQ(b.evcStats.cnfVars, c.evcStats.cnfVars);
  EXPECT_EQ(a.evcStats.cnfClauses, c.evcStats.cnfClauses);
}

TEST(Verify, PeOnlyCnfGrowsWithRobSize) {
  VerifyRequest small = makeRequest(2, 1);
  small.strategy = Strategy::PositiveEqualityOnly;
  VerifyRequest large = makeRequest(4, 1);
  large.strategy = Strategy::PositiveEqualityOnly;
  const VerifyReport a = verify(small);
  const VerifyReport b = verify(large);
  EXPECT_GT(b.evcStats.cnfVars, a.evcStats.cnfVars);
  EXPECT_GT(b.evcStats.eijVars, a.evcStats.eijVars);
}

// ---- name-registry round trips ---------------------------------------------
// Every enumerator of the core enums must round-trip through the
// support/names.hpp registry: nameOf gives a stable non-"unknown" name and
// fromName inverts it. An enumerator added without a table entry fails here.

class StrategyNames : public ::testing::TestWithParam<Strategy> {};
TEST_P(StrategyNames, RoundTrips) {
  const char* name = names::nameOf(GetParam());
  EXPECT_STRNE(name, "unknown");
  const auto back = names::fromName<Strategy>(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, GetParam());
  EXPECT_STREQ(strategyName(GetParam()), name);  // legacy wrapper agrees
}
INSTANTIATE_TEST_SUITE_P(Registry, StrategyNames,
                         ::testing::ValuesIn(names::valuesOf<Strategy>()),
                         [](const auto& info) {
                           return std::to_string(info.index);
                         });

class EngineNames : public ::testing::TestWithParam<Engine> {};
TEST_P(EngineNames, RoundTrips) {
  const char* name = names::nameOf(GetParam());
  EXPECT_STRNE(name, "unknown");
  const auto back = names::fromName<Engine>(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, GetParam());
  EXPECT_STREQ(engineName(GetParam()), name);
}
INSTANTIATE_TEST_SUITE_P(Registry, EngineNames,
                         ::testing::ValuesIn(names::valuesOf<Engine>()),
                         [](const auto& info) {
                           return std::to_string(info.index);
                         });

class VerdictNames : public ::testing::TestWithParam<Verdict> {};
TEST_P(VerdictNames, RoundTrips) {
  const char* name = names::nameOf(GetParam());
  EXPECT_STRNE(name, "unknown");
  const auto back = names::fromName<Verdict>(name);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, GetParam());
  EXPECT_STREQ(verdictName(GetParam()), name);
  // Every named verdict also has a defined exit-code mapping.
  const int code = verdictExitCode(GetParam());
  EXPECT_GE(code, 0);
  EXPECT_LE(code, 4);
}
INSTANTIATE_TEST_SUITE_P(Registry, VerdictNames,
                         ::testing::ValuesIn(names::valuesOf<Verdict>()),
                         [](const auto& info) {
                           return std::to_string(info.index);
                         });

// reportFromResponse() is the inverse of VerifyResponse::fromReport(): the
// report rebuilt from a stored response flattens to the same counter block
// and carries the same outcome, on every engine, with inprocessing on and
// off, under Positive Equality alone and on an injected-bug cell.
struct RoundTripCase {
  const char* name;
  VerifyRequest req;
};

std::vector<RoundTripCase> roundTripCases() {
  std::vector<RoundTripCase> cases;
  for (const Engine e : {Engine::Sat, Engine::Bdd, Engine::Both}) {
    VerifyRequest req = makeRequest(4, 2);
    req.engine = e;
    cases.push_back({engineName(e), req});
  }
  VerifyRequest noInprocess = makeRequest(4, 2);
  noInprocess.inprocess = false;
  cases.push_back({"no_inprocess", noInprocess});
  VerifyRequest pe = makeRequest(3, 1);
  pe.strategy = Strategy::PositiveEqualityOnly;
  cases.push_back({"pe_only", pe});
  VerifyRequest bug = makeRequest(8, 2);
  bug.bug = {models::BugKind::ForwardingWrongOperand, 3};
  cases.push_back({"bug", bug});
  return cases;
}

void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class ResponseRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ResponseRoundTrip, ReportFromResponseInvertsFromReport) {
  const VerifyRequest& req = GetParam().req;
  const VerifyReport rep = verify(req);
  const VerifyReport back =
      reportFromResponse(VerifyResponse::fromReport(req, rep, 1.5), req.engine);
  EXPECT_EQ(reportCounters(back), reportCounters(rep));
  EXPECT_EQ(back.engine, rep.engine);
  EXPECT_EQ(back.inprocessed, rep.inprocessed);
  EXPECT_EQ(back.verdict(), rep.verdict());
  EXPECT_EQ(back.outcome.reason, rep.outcome.reason);
  EXPECT_EQ(back.outcome.failedSlice, rep.outcome.failedSlice);
  EXPECT_EQ(back.outcome.seconds.sat, rep.outcome.seconds.sat);
  EXPECT_EQ(back.outcome.peakArenaBytes, rep.outcome.peakArenaBytes);
  if (req.bug.kind != models::BugKind::None) {
    EXPECT_EQ(back.verdict(), Verdict::RewriteMismatch);
    EXPECT_EQ(back.outcome.failedSlice, req.bug.index);
  }
}
INSTANTIATE_TEST_SUITE_P(Request, ResponseRoundTrip,
                         ::testing::ValuesIn(roundTripCases()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace velev::core
