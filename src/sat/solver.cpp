#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "support/budget.hpp"
#include "support/trace.hpp"

namespace velev::sat {

namespace {

// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
std::int64_t luby(std::int64_t x) {
  // Find the finite subsequence containing index x and its size.
  std::int64_t size = 1, seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) / 2;
    --seq;
    x %= size;
  }
  return 1LL << seq;
}

}  // namespace

Solver::Solver(Options opts) : opts_(opts) {
  conflictsUntilReduce_ = opts_.reduceBase;
}

void Solver::ensureVars(std::uint32_t numVars) {
  while (nVars_ < numVars) {
    const Var v = static_cast<Var>(nVars_++);
    assigns_.push_back(LBool::Undef);
    polarity_.push_back(1);  // default phase: negative (UNSAT-friendly)
    level_.push_back(0);
    reason_.push_back(kCRefUndef);
    activity_.push_back(0.0);
    heapPos_.push_back(-1);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heapInsert(v);
  }
}

Solver::CRef Solver::allocClause(std::span<const Lit> lits, bool learnt,
                                 std::uint32_t lbd) {
  const CRef c = static_cast<CRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 1) |
                   (learnt ? 1u : 0u));
  arena_.push_back(lbd);
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  if (learnt) learntRefs_.push_back(c);
  return c;
}

void Solver::attachClause(CRef c) {
  const Lit* ls = clauseLits(c);
  VELEV_CHECK(clauseSize(c) >= 2);
  watches_[negLit(ls[0])].push_back(Watcher{c, ls[1]});
  watches_[negLit(ls[1])].push_back(Watcher{c, ls[0]});
}

void Solver::detachClause(CRef c) {
  const Lit* ls = clauseLits(c);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[negLit(ls[i])];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

prop::Clause Solver::toDimacs(std::span<const Lit> lits) const {
  prop::Clause c;
  c.reserve(lits.size());
  for (Lit l : lits) {
    const prop::CnfLit v = static_cast<prop::CnfLit>(varOf(l)) + 1;
    c.push_back(signOf(l) ? -v : v);
  }
  return c;
}

bool Solver::addClause(std::span<const prop::CnfLit> dimacs) {
  if (!okay_) return false;
  // Incremental use: a previous solve() may have left a partial (or full)
  // assignment behind; clauses are always added at level 0.
  backtrack(0);
  // Normalize: sort, drop duplicates and false literals, detect tautology.
  std::vector<Lit> lits;
  lits.reserve(dimacs.size());
  for (prop::CnfLit dl : dimacs) lits.push_back(fromDimacs(dl));
  std::sort(lits.begin(), lits.end());
  std::vector<Lit> out;
  bool dropped = false;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == negLit(lits[i]))
      return true;  // tautology: x ∨ ¬x (adjacent after sort)
    if (i > 0 && lits[i] == lits[i - 1]) continue;
    const LBool v = valueLit(lits[i]);
    if (v == LBool::True) return true;   // already satisfied at level 0
    if (v == LBool::False) {
      dropped = true;  // falsified at level 0: drop (RUP from the units)
      continue;
    }
    out.push_back(lits[i]);
  }
  // The stored clause differs from the input: record the strengthened
  // clause in the proof (it is RUP with respect to the level-0 units).
  if (proof_ && dropped) proof_->add(toDimacs(out));
  if (out.empty()) {
    // Also reached when the input itself contained the empty clause; make
    // sure the proof still ends with an (RUP-checkable) empty clause.
    if (proof_ && !dropped) proof_->add({});
    okay_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (!enqueue(out[0], kCRefUndef)) {
      if (proof_) proof_->add({});
      okay_ = false;
      return false;
    }
    if (propagate() != kCRefUndef) {
      if (proof_) proof_->add({});
      okay_ = false;
      return false;
    }
    return true;
  }
  attachClause(allocClause(out, /*learnt=*/false, /*lbd=*/0));
  return true;
}

bool Solver::enqueue(Lit l, CRef reason) {
  const LBool v = valueLit(l);
  if (v != LBool::Undef) return v == LBool::True;
  const Var x = varOf(l);
  assigns_[x] = signOf(l) ? LBool::False : LBool::True;
  level_[x] = decisionLevel();
  reason_[x] = reason;
  trail_.push_back(l);
  return true;
}

Solver::CRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i];
      if (valueLit(w.blocker) == LBool::True) {
        ws[j++] = ws[i++];
        continue;
      }
      const CRef c = w.cref;
      Lit* ls = clauseLits(c);
      const std::uint32_t size = clauseSize(c);
      // Make ls[1] the false watched literal (= ¬p).
      const Lit notP = negLit(p);
      if (ls[0] == notP) std::swap(ls[0], ls[1]);
      // ls[1] == notP now.
      if (valueLit(ls[0]) == LBool::True) {
        ws[j++] = Watcher{c, ls[0]};
        ++i;
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (valueLit(ls[k]) != LBool::False) {
          std::swap(ls[1], ls[k]);
          watches_[negLit(ls[1])].push_back(Watcher{c, ls[0]});
          moved = true;
          break;
        }
      }
      if (moved) {
        ++i;  // watcher removed from this list
        continue;
      }
      // Unit or conflicting.
      if (valueLit(ls[0]) == LBool::False) {
        // Conflict: restore remaining watchers and return.
        while (i < n) ws[j++] = ws[i++];
        ws.resize(j);
        return c;
      }
      ws[j++] = Watcher{c, ls[0]};
      ++i;
      enqueue(ls[0], c);
    }
    ws.resize(j);
  }
  return kCRefUndef;
}

void Solver::bumpVar(Var v) {
  activity_[v] += varInc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    varInc_ *= 1e-100;
  }
  if (heapContains(v)) heapDecrease(v);
}

void Solver::analyze(CRef conflict, std::vector<Lit>& outLearnt,
                     std::uint32_t& outBtLevel, std::uint32_t& outLbd) {
  outLearnt.clear();
  outLearnt.push_back(kLitUndef);  // slot for the asserting (UIP) literal
  int counter = 0;
  Lit p = kLitUndef;
  std::size_t index = trail_.size();
  CRef reasonRef = conflict;

  // Walk the implication graph backwards to the first UIP.
  do {
    VELEV_CHECK(reasonRef != kCRefUndef);
    const Lit* ls = clauseLits(reasonRef);
    const std::uint32_t size = clauseSize(reasonRef);
    for (std::uint32_t k = (p == kLitUndef ? 0 : 1); k < size; ++k) {
      const Lit q = ls[k];
      const Var v = varOf(q);
      if (seen_[v] || levelOf(v) == 0) continue;
      seen_[v] = 1;
      analyzeToClear_.push_back(q);
      bumpVar(v);
      if (levelOf(v) >= decisionLevel()) {
        ++counter;
      } else {
        outLearnt.push_back(q);
      }
    }
    // Select the next trail literal at the current decision level.
    while (!seen_[varOf(trail_[index - 1])]) --index;
    p = trail_[--index];
    seen_[varOf(p)] = 0;
    reasonRef = reason_[varOf(p)];
    --counter;
  } while (counter > 0);
  outLearnt[0] = negLit(p);

  // Conflict-clause minimization: drop literals implied by the rest.
  std::uint32_t abstractLevels = 0;
  for (std::size_t k = 1; k < outLearnt.size(); ++k)
    abstractLevels |= 1u << (levelOf(varOf(outLearnt[k])) & 31);
  std::size_t keep = 1;
  for (std::size_t k = 1; k < outLearnt.size(); ++k) {
    const Lit q = outLearnt[k];
    if (reason_[varOf(q)] == kCRefUndef || !litRedundant(q, abstractLevels))
      outLearnt[keep++] = q;
    else
      ++stats_.minimizedLits;
  }
  outLearnt.resize(keep);

  // Find the backtrack level (second-highest level in the clause).
  outBtLevel = 0;
  if (outLearnt.size() > 1) {
    std::size_t maxIdx = 1;
    for (std::size_t k = 2; k < outLearnt.size(); ++k)
      if (levelOf(varOf(outLearnt[k])) > levelOf(varOf(outLearnt[maxIdx])))
        maxIdx = k;
    std::swap(outLearnt[1], outLearnt[maxIdx]);
    outBtLevel = levelOf(varOf(outLearnt[1]));
  }

  // LBD: number of distinct decision levels in the learnt clause.
  std::vector<std::uint32_t> levels;
  levels.reserve(outLearnt.size());
  for (Lit q : outLearnt) levels.push_back(levelOf(varOf(q)));
  std::sort(levels.begin(), levels.end());
  outLbd = static_cast<std::uint32_t>(
      std::unique(levels.begin(), levels.end()) - levels.begin());

  for (Lit q : analyzeToClear_) seen_[varOf(q)] = 0;
  analyzeToClear_.clear();
}

bool Solver::litRedundant(Lit l, std::uint32_t abstractLevels) {
  // DFS over the reason graph: `l` is redundant if every path terminates in
  // literals already in the learnt clause (seen) or at level 0.
  analyzeStack_.clear();
  analyzeStack_.push_back(l);
  const std::size_t clearTop = analyzeToClear_.size();
  while (!analyzeStack_.empty()) {
    const Lit q = analyzeStack_.back();
    analyzeStack_.pop_back();
    const CRef r = reason_[varOf(q)];
    VELEV_CHECK(r != kCRefUndef);
    const Lit* ls = clauseLits(r);
    const std::uint32_t size = clauseSize(r);
    for (std::uint32_t k = 1; k < size; ++k) {
      const Lit x = ls[k];
      const Var v = varOf(x);
      if (seen_[v] || levelOf(v) == 0) continue;
      if (reason_[v] == kCRefUndef ||
          ((1u << (levelOf(v) & 31)) & abstractLevels) == 0) {
        // Cannot be shown redundant: undo marks made during this probe.
        while (analyzeToClear_.size() > clearTop) {
          seen_[varOf(analyzeToClear_.back())] = 0;
          analyzeToClear_.pop_back();
        }
        return false;
      }
      seen_[v] = 1;
      analyzeToClear_.push_back(x);
      analyzeStack_.push_back(x);
    }
  }
  return true;
}

void Solver::backtrack(std::uint32_t btLevel) {
  if (decisionLevel() <= btLevel) return;
  const std::uint32_t bound = trailLim_[btLevel];
  for (std::size_t k = trail_.size(); k > bound; --k) {
    const Var v = varOf(trail_[k - 1]);
    polarity_[v] = static_cast<std::int8_t>(assigns_[v] == LBool::False);
    assigns_[v] = LBool::Undef;
    reason_[v] = kCRefUndef;
    if (!heapContains(v)) heapInsert(v);
  }
  trail_.resize(bound);
  trailLim_.resize(btLevel);
  qhead_ = trail_.size();
}

Solver::Lit Solver::pickBranchLit() {
  while (!heap_.empty()) {
    const Var v = heapPop();
    if (assigns_[v] == LBool::Undef)
      return mkLit(v, polarity_[v] != 0);
  }
  return kLitUndef;
}

void Solver::reduceDb() {
  // Keep the glue clauses (LBD <= 2); of the rest, remove the worse half.
  std::sort(learntRefs_.begin(), learntRefs_.end(), [&](CRef a, CRef b) {
    return clauseLbd(a) < clauseLbd(b);
  });
  std::size_t keep = learntRefs_.size() / 2;
  while (keep < learntRefs_.size() &&
         clauseLbd(learntRefs_[keep]) <= 2)
    ++keep;
  std::vector<CRef> kept(learntRefs_.begin(), learntRefs_.begin() + keep);
  for (std::size_t k = keep; k < learntRefs_.size(); ++k) {
    const CRef c = learntRefs_[k];
    // A clause that is the reason for a current assignment is locked. The
    // implied literal is always one of the two watched positions, but
    // propagation may have swapped it to position 1.
    bool locked = false;
    for (int w = 0; w < 2; ++w) {
      const Lit l = clauseLits(c)[w];
      if (valueLit(l) == LBool::True && reason_[varOf(l)] == c) {
        locked = true;
        break;
      }
    }
    if (locked) {
      kept.push_back(c);
    } else {
      if (proof_)
        proof_->del(toDimacs({clauseLits(c), clauseSize(c)}));
      detachClause(c);
      ++stats_.removedClauses;
    }
  }
  learntRefs_ = std::move(kept);
}

void Solver::setBudget(BudgetGovernor* governor) {
  budget_ = governor;
  budgetSource_ = governor != nullptr ? governor->registerSource() : -1;
}

bool Solver::pollBudget() noexcept {
  return budget_ != nullptr && budget_->poll(budgetSource_, memoryBytes());
}

Result Solver::solve(std::int64_t conflictBudget) {
  if (!okay_) return Result::Unsat;
  backtrack(0);  // a repeated call: drop the previous model
  std::int64_t restartNum = 0;
  std::int64_t conflictsLeftInRestart = luby(restartNum) * opts_.lubyUnit;
  std::vector<Lit> learnt;

  for (;;) {
    if (pollBudget()) return Result::Unknown;
    const CRef conflict = propagate();
    if (conflict != kCRefUndef) {
      ++stats_.conflicts;
      if (decisionLevel() == 0) {
        // A level-0 conflict refutes the clause database: the solver is
        // permanently Unsat.
        if (proof_) proof_->add({});
        okay_ = false;
        return Result::Unsat;
      }
      std::uint32_t btLevel, lbd;
      analyze(conflict, learnt, btLevel, lbd);
      if (proof_) proof_->add(toDimacs(learnt));
      backtrack(btLevel);
      if (learnt.size() == 1) {
        const bool ok = enqueue(learnt[0], kCRefUndef);
        VELEV_CHECK(ok);
      } else {
        const CRef c = allocClause(learnt, /*learnt=*/true, lbd);
        attachClause(c);
        const bool ok = enqueue(learnt[0], c);
        VELEV_CHECK(ok);
      }
      ++stats_.learnts;
      decayVarActivity();
      --conflictsLeftInRestart;
      if (conflictBudget >= 0 && --conflictBudget <= 0)
        return Result::Unknown;
      if (--conflictsUntilReduce_ <= 0) {
        reduceDb();
        conflictsUntilReduce_ =
            opts_.reduceBase + (++reduceCount_) * opts_.reduceIncrement;
      }
      continue;
    }
    if (conflictsLeftInRestart <= 0 && decisionLevel() > 0) {
      ++stats_.restarts;
      backtrack(0);
      ++restartNum;
      conflictsLeftInRestart = luby(restartNum) * opts_.lubyUnit;
      continue;
    }
    const Lit next = pickBranchLit();
    if (next == kLitUndef) return Result::Sat;  // complete assignment
    ++stats_.decisions;
    trailLim_.push_back(static_cast<std::uint32_t>(trail_.size()));
    const bool ok = enqueue(next, kCRefUndef);
    VELEV_CHECK(ok);
  }
}

bool Solver::modelValue(std::uint32_t dimacsVar) const {
  VELEV_CHECK(dimacsVar >= 1 && dimacsVar <= nVars_);
  return assigns_[dimacsVar - 1] == LBool::True;
}

// ---- indexed binary min-heap on -activity (max-activity at root) -----------

void Solver::heapInsert(Var v) {
  heapPos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heapDecrease(v);
}

void Solver::heapDecrease(Var v) {
  std::size_t i = static_cast<std::size_t>(heapPos_[v]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heapPos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heapPos_[v] = static_cast<std::int32_t>(i);
}

Solver::Var Solver::heapPop() {
  VELEV_CHECK(!heap_.empty());
  const Var top = heap_[0];
  heapPos_[top] = -1;
  const Var last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the moved element down.
    std::size_t i = 0;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= heap_.size()) break;
      if (child + 1 < heap_.size() &&
          activity_[heap_[child + 1]] > activity_[heap_[child]])
        ++child;
      if (activity_[heap_[child]] <= activity_[last]) break;
      heap_[i] = heap_[child];
      heapPos_[heap_[i]] = static_cast<std::int32_t>(i);
      i = child;
    }
    heap_[i] = last;
    heapPos_[last] = static_cast<std::int32_t>(i);
  }
  return top;
}

Result solveCnf(const prop::Cnf& cnf, std::vector<bool>* model, Stats* stats,
                std::int64_t conflictBudget, Proof* proof,
                BudgetGovernor* budget) {
  Solver s;
  s.setProof(proof);
  s.setBudget(budget);
  bool ok = true;
  {
    TRACE_SPAN("sat.load");
    s.ensureVars(cnf.numVars);
    std::size_t loaded = 0;
    for (const auto& c : cnf.clauses) {
      // Loading the clause database copies the whole CNF into the arena;
      // poll so an over-budget instance stops before doubling its footprint.
      if ((++loaded & 0xfffu) == 0 && s.pollBudget()) {
        if (stats) *stats = s.stats();
        return Result::Unknown;
      }
      if (!s.addClause(c)) {
        ok = false;
        break;
      }
    }
  }
  Result r;
  {
    TRACE_SPAN("sat.solve");
    r = ok ? s.solve(conflictBudget) : Result::Unsat;
  }
  if (r == Result::Sat && model) {
    model->assign(cnf.numVars + 1, false);
    for (std::uint32_t v = 1; v <= cnf.numVars; ++v)
      (*model)[v] = s.modelValue(v);
  }
  if (stats) *stats = s.stats();
  return r;
}

}  // namespace velev::sat
