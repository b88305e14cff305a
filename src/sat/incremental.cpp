#include "sat/incremental.hpp"

#include <algorithm>
#include <array>

#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/trace.hpp"

namespace velev::sat {

namespace {

// Cell variable v -> session variable 2v-1 (odd); selector for (1-based)
// call i -> session variable 2i (even).
prop::CnfLit mapLit(prop::CnfLit l) {
  const prop::CnfLit v = 2 * (l > 0 ? l : -l) - 1;
  return l > 0 ? v : -v;
}

bool sameCnf(const prop::Cnf& a, const prop::Cnf& b) {
  return a.numVars == b.numVars && a.clauses == b.clauses;
}

}  // namespace

void IncrementalSession::retireActiveSelector() {
  if (activeSelector_ == 0) return;
  // The permanent unit makes the retired call's clauses (and its selector-
  // guarded learnts) satisfied forever; purging takes them out of the watch
  // lists so later calls stop paying propagation cost for dead clauses.
  solver_.addClause(std::array<prop::CnfLit, 1>{-activeSelector_});
  solver_.purgeSatisfiedAtLevelZero();
  activeSelector_ = 0;
}

Result IncrementalSession::solveCell(const prop::Cnf& cnf,
                                     std::span<const prop::CnfLit> assumptions,
                                     std::vector<bool>* model, Stats* stats,
                                     InprocessStats* istats,
                                     std::int64_t conflictBudget) {
  TRACE_SPAN("sat.incremental.cell");
  ++calls_;
  failed_.clear();
  const Stats before = solver_.stats();

  std::vector<std::uint32_t> frozen;
  frozen.reserve(assumptions.size());
  for (const prop::CnfLit a : assumptions)
    frozen.push_back(static_cast<std::uint32_t>(a > 0 ? a : -a));
  std::sort(frozen.begin(), frozen.end());
  frozen.erase(std::unique(frozen.begin(), frozen.end()), frozen.end());

  // Identical-formula fast path: same clauses and same frozen assumption
  // variables as the still-active previous call — solve under the SAME
  // selector, so nothing is reloaded or re-simplified and the previous
  // call's learnt clauses (all guarded by this selector) stay live. The
  // frozen sets must match because the stored simplification is only
  // equisatisfiable under assumptions over variables it was told to freeze.
  const bool reuse = activeSelector_ != 0 && frozen == lastFrozen_ &&
                     sameCnf(cnf, lastCnf_);
  prop::CnfLit selector = activeSelector_;
  if (reuse) {
    ++reusedCalls_;
  } else {
    retireActiveSelector();
    selector = static_cast<prop::CnfLit>(2 * calls_);

    // Simplify in the cell's own variable space; assumption variables are
    // frozen so the simplified CNF is equisatisfiable under every
    // assumption assignment (see simplify.hpp's soundness contract).
    lastSimplified_ = inprocess(cnf, iopts_, /*proof=*/nullptr, budget_,
                                frozen);
    lastCnf_ = cnf;
    lastFrozen_ = frozen;
    if (lastSimplified_.provedUnsat) {
      if (istats != nullptr) *istats = lastSimplified_.stats;
      if (stats != nullptr) *stats = Stats{};
      return Result::Unsat;
    }

    const std::uint32_t needed = std::max<std::uint32_t>(
        2 * cnf.numVars, static_cast<std::uint32_t>(2 * calls_));
    solver_.ensureVars(needed);  // total, not a delta — grows monotonically
    for (const std::uint32_t v : frozen) solver_.freeze(2 * v - 1);

    // Load the simplified clauses under this call's activation selector.
    std::vector<prop::CnfLit> buf;
    for (const prop::Clause& c : lastSimplified_.cnf.clauses) {
      buf.clear();
      buf.reserve(c.size() + 1);
      for (const prop::CnfLit l : c) buf.push_back(mapLit(l));
      buf.push_back(-selector);
      if (!solver_.addClause(buf)) {
        // Only a genuine level-0 conflict of the SHARED database lands
        // here, and the selector guard makes that impossible for cell
        // clauses.
        VELEV_CHECK(!solver_.okay());
        return Result::Unsat;
      }
    }
    activeSelector_ = selector;
  }
  if (istats != nullptr) *istats = lastSimplified_.stats;
  if (stats != nullptr) *stats = Stats{};

  std::vector<prop::CnfLit> assume;
  assume.reserve(assumptions.size() + 1);
  assume.push_back(selector);
  for (const prop::CnfLit a : assumptions) assume.push_back(mapLit(a));
  const Result r = solver_.solve(assume, conflictBudget);

  if (r == Result::Sat && model != nullptr) {
    model->assign(cnf.numVars + 1, false);
    for (std::uint32_t v = 1; v <= cnf.numVars; ++v)
      (*model)[v] = solver_.modelValue(2 * v - 1);
    lastSimplified_.recon.extend(*model);
  }
  if (r == Result::Unsat) {
    // Map the failed-assumption clause back to cell literals; the selector
    // itself is session-internal noise to the caller.
    for (const prop::CnfLit l : solver_.failedAssumptions()) {
      const prop::CnfLit a = l > 0 ? l : -l;
      if (a % 2 == 0) continue;  // a selector literal
      const prop::CnfLit cellVar = (a + 1) / 2;
      failed_.push_back(l > 0 ? cellVar : -cellVar);
    }
  }

  if (stats != nullptr) {
    const Stats& after = solver_.stats();
    stats->decisions = after.decisions - before.decisions;
    stats->propagations = after.propagations - before.propagations;
    stats->conflicts = after.conflicts - before.conflicts;
    stats->learnts = after.learnts - before.learnts;
    stats->restarts = after.restarts - before.restarts;
    stats->removedClauses = after.removedClauses - before.removedClauses;
    stats->minimizedLits = after.minimizedLits - before.minimizedLits;
  }
  if (trace::Collector* c = trace::active()) {
    c->addCounter("sat.incremental.cells", 1);
    c->setCounter("sat.incremental.retained_learnts",
                  solver_.numLearnts());
  }
  return r;
}

std::uint64_t SolveMemo::key(const prop::Cnf& cnf,
                             const InprocessOptions& iopts,
                             std::int64_t conflictBudget) {
  std::uint64_t h = hashValues(
      {0x536f6c76654d656dULL,  // domain tag: "SolveMem"
       cnf.numVars, cnf.clauses.size(),
       static_cast<std::uint64_t>(conflictBudget),
       static_cast<std::uint64_t>(iopts.enabled),
       static_cast<std::uint64_t>(iopts.substitute),
       static_cast<std::uint64_t>(iopts.subsume),
       static_cast<std::uint64_t>(iopts.varElim),
       static_cast<std::uint64_t>(iopts.maxRounds),
       static_cast<std::uint64_t>(iopts.elimOccLimit),
       static_cast<std::uint64_t>(iopts.elimGrowth),
       static_cast<std::uint64_t>(iopts.elimBySubstitution)});
  for (const prop::Clause& c : cnf.clauses) {
    h = hashCombine(h, c.size());
    for (const prop::CnfLit l : c)
      h = hashCombine(h, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(l)));
  }
  return h;
}

const SolveMemo::Entry* SolveMemo::find(std::uint64_t key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++hits_;
  return &it->second;
}

void SolveMemo::store(std::uint64_t key, Entry entry) {
  if (entry.result == Result::Unknown) return;
  if (entries_.count(key) != 0) return;
  if (entries_.size() >= maxEntries_ && !order_.empty()) {
    entries_.erase(order_.front());
    order_.erase(order_.begin());
  }
  entries_.emplace(key, std::move(entry));
  order_.push_back(key);
}

}  // namespace velev::sat
