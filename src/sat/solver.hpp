// CDCL SAT solver — the stand-in for Chaff [Moskewicz et al., DAC'01] in the
// paper's tool flow. Implements the same algorithm family:
//   * two-watched-literal propagation,
//   * VSIDS-style decision heuristic (exponentially decayed activities),
//   * first-UIP conflict-driven clause learning with self-subsumption
//     minimization,
//   * non-chronological backjumping,
//   * Luby-sequence restarts with phase saving,
//   * learnt-clause database reduction keyed on LBD ("glue").
//
// The verification pipeline proves a design correct by showing the negated
// Boolean correctness formula UNSAT; a SAT answer comes with a model that
// maps back to the abstract processor's control signals (a counterexample).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "prop/cnf.hpp"
#include "sat/drat.hpp"

namespace velev {
class BudgetGovernor;
}  // namespace velev

namespace velev::sat {

enum class Result { Sat, Unsat, Unknown };

struct Options {
  double varDecay = 0.95;
  double clauseActivityDecay = 0.999;
  int lubyUnit = 512;          // conflicts per restart-unit
  int reduceBase = 2000;       // conflicts before first DB reduction
  int reduceIncrement = 300;   // growth of the reduction interval
};

struct Stats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learnts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t removedClauses = 0;
  std::uint64_t minimizedLits = 0;
};

class Solver {
 public:
  explicit Solver(Options opts = {});

  /// Add `n` fresh variables (DIMACS indices continue densely).
  void ensureVars(std::uint32_t numVars);
  std::uint32_t numVars() const { return static_cast<std::uint32_t>(nVars_); }

  /// Add a clause of DIMACS literals (±1-based). Returns false if the
  /// formula is already unsatisfiable at level 0. May be called between
  /// solve() calls: any leftover assignment from the previous call is
  /// undone first (the clause database, variable activities and saved
  /// phases are retained — that is the point of the incremental interface).
  bool addClause(std::span<const prop::CnfLit> lits);

  /// Solve; `conflictBudget < 0` means no limit.
  Result solve(std::int64_t conflictBudget = -1);

  /// False once the clause database is refuted at level 0; every later
  /// solve() returns Unsat immediately.
  bool okay() const { return okay_; }

  /// After Result::Sat: value of a DIMACS variable (1-based).
  bool modelValue(std::uint32_t dimacsVar) const;

  /// Attach a DRAT proof log (must outlive the solver; set before adding
  /// clauses). On an Unsat result the proof ends with the empty clause and
  /// can be certified with checkRup().
  void setProof(Proof* proof) { proof_ = proof; }

  /// Cooperative resource governance: solve() polls the governor once per
  /// propagation round (reporting the clause arena's logical bytes) and
  /// returns Result::Unknown when a budget is exhausted. A solver never
  /// throws mid-propagation — the caller disambiguates Unknown via
  /// BudgetGovernor::exceeded().
  void setBudget(BudgetGovernor* governor);
  BudgetGovernor* budgetGovernor() const { return budget_; }

  /// One governance poll: reports this solver's logical bytes, returns
  /// true once any budget is exceeded. Used by solve() and by solveCnf()
  /// while the clause database is being loaded.
  bool pollBudget() noexcept;

  /// Logical bytes owned by this solver (clause arena + per-variable
  /// bookkeeping + watcher lists). O(1) approximation.
  std::size_t memoryBytes() const {
    return arena_.capacity() * sizeof(std::uint32_t) +
           learntRefs_.capacity() * sizeof(CRef) +
           nVars_ * (sizeof(LBool) + sizeof(std::int8_t) +
                     sizeof(std::uint32_t) + sizeof(CRef) + sizeof(double) +
                     2 * sizeof(std::vector<Watcher>));
  }

  const Stats& stats() const { return stats_; }

 private:
  // Literal encoding: lit = var << 1 | sign (sign 1 = negated), var 0-based.
  using Lit = std::uint32_t;
  using Var = std::uint32_t;
  using CRef = std::uint32_t;
  static constexpr Lit kLitUndef = 0xffffffffu;
  static constexpr CRef kCRefUndef = 0xffffffffu;

  static Lit mkLit(Var v, bool neg) { return (v << 1) | (neg ? 1u : 0u); }
  static Lit negLit(Lit l) { return l ^ 1u; }
  static Var varOf(Lit l) { return l >> 1; }
  static bool signOf(Lit l) { return (l & 1u) != 0; }
  Lit fromDimacs(prop::CnfLit l) const {
    VELEV_CHECK(l != 0);
    const Var v = static_cast<Var>((l > 0 ? l : -l) - 1);
    VELEV_CHECK(v < nVars_);
    return mkLit(v, l < 0);
  }

  enum class LBool : std::int8_t { Undef = 0, True = 1, False = -1 };
  LBool valueLit(Lit l) const {
    const LBool v = assigns_[varOf(l)];
    if (v == LBool::Undef) return LBool::Undef;
    return (v == LBool::True) != signOf(l) ? LBool::True : LBool::False;
  }

  // ---- clause arena --------------------------------------------------------
  // Layout per clause: [size<<1 | learnt][lbd][lit0 lit1 ...]
  std::uint32_t clauseSize(CRef c) const { return arena_[c] >> 1; }
  bool clauseLearnt(CRef c) const { return (arena_[c] & 1u) != 0; }
  std::uint32_t& clauseLbd(CRef c) { return arena_[c + 1]; }
  Lit* clauseLits(CRef c) { return &arena_[c + 2]; }
  const Lit* clauseLits(CRef c) const { return &arena_[c + 2]; }
  CRef allocClause(std::span<const Lit> lits, bool learnt, std::uint32_t lbd);

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // ---- core CDCL -----------------------------------------------------------
  void attachClause(CRef c);
  void detachClause(CRef c);
  bool enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& outLearnt,
               std::uint32_t& outBtLevel, std::uint32_t& outLbd);
  bool litRedundant(Lit l, std::uint32_t abstractLevels);
  void backtrack(std::uint32_t level);
  Lit pickBranchLit();
  void reduceDb();
  std::uint32_t decisionLevel() const {
    return static_cast<std::uint32_t>(trailLim_.size());
  }
  std::uint32_t levelOf(Var v) const { return level_[v]; }

  // ---- VSIDS heap ----------------------------------------------------------
  void bumpVar(Var v);
  void decayVarActivity() { varInc_ /= opts_.varDecay; }
  void heapInsert(Var v);
  Var heapPop();
  void heapDecrease(Var v);  // activity increased -> move up
  bool heapContains(Var v) const { return heapPos_[v] != -1; }

  Options opts_;
  Stats stats_;

  std::size_t nVars_ = 0;
  std::vector<std::uint32_t> arena_;
  std::vector<CRef> learntRefs_;

  std::vector<LBool> assigns_;
  std::vector<std::int8_t> polarity_;  // phase saving (1 = last was negative)
  std::vector<std::uint32_t> level_;
  std::vector<CRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trailLim_;
  std::size_t qhead_ = 0;

  std::vector<std::vector<Watcher>> watches_;  // indexed by literal

  std::vector<double> activity_;
  double varInc_ = 1.0;
  std::vector<Var> heap_;
  std::vector<std::int32_t> heapPos_;

  std::vector<char> seen_;  // scratch for analyze()
  std::vector<Lit> analyzeToClear_;
  std::vector<Lit> analyzeStack_;

  bool okay_ = true;
  std::int64_t conflictsUntilReduce_ = 0;
  int reduceCount_ = 0;

  BudgetGovernor* budget_ = nullptr;
  int budgetSource_ = -1;
  Proof* proof_ = nullptr;
  prop::Clause toDimacs(std::span<const Lit> lits) const;
};

/// Convenience wrapper: solve a CNF; fills `model` (indexed by DIMACS var,
/// entry 0 unused) when satisfiable; logs a DRAT proof when `proof` is
/// given. With a `budget`, both the clause-loading phase and the solve
/// loop are governed; exhaustion yields Result::Unknown (never a throw).
Result solveCnf(const prop::Cnf& cnf, std::vector<bool>* model = nullptr,
                Stats* stats = nullptr, std::int64_t conflictBudget = -1,
                Proof* proof = nullptr, BudgetGovernor* budget = nullptr);

}  // namespace velev::sat
