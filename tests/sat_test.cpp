// Tests for the CDCL SAT solver, including a brute-force cross-check over
// randomly generated small CNFs (the solver is the last link of the
// verification chain, so its correctness is load-bearing).
#include <gtest/gtest.h>

#include "prop/cnf.hpp"
#include "sat/solver.hpp"
#include "support/rng.hpp"

namespace velev::sat {
namespace {

using prop::Clause;
using prop::Cnf;
using prop::CnfLit;

Cnf makeCnf(unsigned vars, std::initializer_list<Clause> clauses) {
  Cnf cnf;
  cnf.numVars = vars;
  for (const auto& c : clauses) cnf.addClause(c);
  return cnf;
}

TEST(Sat, EmptyCnfIsSat) {
  EXPECT_EQ(solveCnf(makeCnf(3, {})), Result::Sat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  EXPECT_EQ(solveCnf(makeCnf(1, {Clause{}})), Result::Unsat);
}

TEST(Sat, UnitClauses) {
  EXPECT_EQ(solveCnf(makeCnf(2, {{1}, {-2}})), Result::Sat);
  EXPECT_EQ(solveCnf(makeCnf(1, {{1}, {-1}})), Result::Unsat);
}

TEST(Sat, UnitPropagationChain) {
  // 1 -> 2 -> 3 -> ... -> 8, with 1 forced and !8 forced: UNSAT.
  Cnf cnf;
  cnf.numVars = 8;
  cnf.addClause({1});
  for (int v = 1; v < 8; ++v) cnf.addClause({-v, v + 1});
  cnf.addClause({-8});
  EXPECT_EQ(solveCnf(cnf), Result::Unsat);
}

TEST(Sat, TautologousClauseIgnored) {
  EXPECT_EQ(solveCnf(makeCnf(2, {{1, -1}, {2}})), Result::Sat);
}

TEST(Sat, DuplicateLiteralsHandled) {
  EXPECT_EQ(solveCnf(makeCnf(2, {{1, 1, 2}, {-1, -1}, {-2, -2, -2}})),
            Result::Unsat);
}

TEST(Sat, ModelSatisfiesFormula) {
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    Cnf cnf;
    cnf.numVars = 10;
    for (int i = 0; i < 30; ++i) {
      Clause c;
      for (int j = 0; j < 3; ++j) {
        const int v = 1 + static_cast<int>(rng.below(10));
        c.push_back(rng.coin() ? v : -v);
      }
      cnf.addClause(c);
    }
    std::vector<bool> model;
    if (solveCnf(cnf, &model) != Result::Sat) continue;
    for (const auto& c : cnf.clauses) {
      bool sat = false;
      for (CnfLit l : c)
        sat |= (l > 0) == model[static_cast<unsigned>(std::abs(l))];
      EXPECT_TRUE(sat);
    }
  }
}

TEST(Sat, PigeonholePrinciple) {
  // PHP(n+1, n): n+1 pigeons in n holes — classic small UNSAT family.
  for (unsigned n = 2; n <= 5; ++n) {
    Cnf cnf;
    const unsigned pigeons = n + 1;
    auto var = [&](unsigned p, unsigned h) {
      return static_cast<CnfLit>(p * n + h + 1);
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
    EXPECT_EQ(solveCnf(cnf), Result::Unsat) << "n=" << n;
  }
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard-ish random instance with a 1-conflict budget.
  Rng rng(7);
  Cnf cnf;
  cnf.numVars = 60;
  for (int i = 0; i < 256; ++i) {
    Clause c;
    for (int j = 0; j < 3; ++j) {
      const int v = 1 + static_cast<int>(rng.below(60));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  Stats st;
  const Result r = solveCnf(cnf, nullptr, &st, 1);
  EXPECT_TRUE(r == Result::Unknown || st.conflicts <= 1);
}

TEST(Sat, StatsArepopulated) {
  Cnf cnf = makeCnf(3, {{1, 2}, {-1, 2}, {1, -2}, {-1, -2, 3}, {-3, 1}});
  Stats st;
  solveCnf(cnf, nullptr, &st);
  EXPECT_GT(st.propagations + st.decisions, 0u);
}

TEST(Sat, XorChainUnsat) {
  // x1 XOR x2 = 1, x2 XOR x3 = 1, x1 XOR x3 = 1 is unsatisfiable (parity).
  Cnf cnf;
  cnf.numVars = 3;
  auto addXor1 = [&](int a, int b) {
    cnf.addClause({a, b});
    cnf.addClause({-a, -b});
  };
  addXor1(1, 2);
  addXor1(2, 3);
  addXor1(1, 3);
  EXPECT_EQ(solveCnf(cnf), Result::Unsat);
}

// Exhaustive brute-force cross-check over random CNFs (property test).
bool bruteForceSat(const Cnf& cnf) {
  for (std::uint64_t m = 0; m < (1ull << cnf.numVars); ++m) {
    bool ok = true;
    for (const auto& c : cnf.clauses) {
      bool cs = false;
      for (CnfLit l : c) {
        const unsigned v = static_cast<unsigned>(std::abs(l)) - 1;
        if ((l > 0) == (((m >> v) & 1) != 0)) {
          cs = true;
          break;
        }
      }
      if (!cs) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

class SatBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(SatBruteForce, AgreesWithExhaustiveSearch) {
  Rng rng(GetParam() * 1299721 + 11);
  for (int iter = 0; iter < 60; ++iter) {
    Cnf cnf;
    cnf.numVars = 4 + rng.below(9);
    const unsigned m = 2 + rng.below(45);
    for (unsigned i = 0; i < m; ++i) {
      Clause c;
      const unsigned len = 1 + rng.below(4);
      for (unsigned j = 0; j < len; ++j) {
        const int v = 1 + static_cast<int>(rng.below(cnf.numVars));
        c.push_back(rng.coin() ? v : -v);
      }
      cnf.addClause(c);
    }
    const bool expect = bruteForceSat(cnf);
    EXPECT_EQ(solveCnf(cnf) == Result::Sat, expect)
        << "param=" << GetParam() << " iter=" << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatBruteForce, ::testing::Range(0, 25));

TEST(Sat, LargeRandomInstancesTerminate) {
  // Exercises restarts and clause-database reduction (n beyond the
  // first reduce threshold).
  Rng rng(1234);
  Cnf cnf;
  cnf.numVars = 120;
  for (int i = 0; i < 511; ++i) {
    Clause c;
    for (int j = 0; j < 3; ++j) {
      const int v = 1 + static_cast<int>(rng.below(120));
      c.push_back(rng.coin() ? v : -v);
    }
    cnf.addClause(c);
  }
  Stats st;
  const Result r = solveCnf(cnf, nullptr, &st);
  EXPECT_NE(r, Result::Unknown);
}

TEST(Sat, IncrementalInterfaceRejectsAfterLevelZeroConflict) {
  Solver s;
  s.ensureVars(1);
  const prop::CnfLit pos[] = {1};
  const prop::CnfLit neg[] = {-1};
  EXPECT_TRUE(s.addClause(pos));
  EXPECT_FALSE(s.addClause(neg));
  EXPECT_EQ(s.solve(), Result::Unsat);
}

}  // namespace
}  // namespace velev::sat
