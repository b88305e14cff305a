#include "sat/drat.hpp"

#include <algorithm>
#include <ostream>

#include "support/check.hpp"

namespace velev::sat {

namespace {

/// A deliberately simple unit-propagation engine over a clause database
/// (counter-based; rebuilt per proof step would be too slow, so clauses are
/// scanned directly — proofs checked in the tests are small).
class RupChecker {
 public:
  explicit RupChecker(unsigned numVars) : numVars_(numVars) {}

  /// Clauses are stored normalized (sorted, duplicate literals removed):
  /// a duplicate-literal clause like (x x x) would otherwise inflate the
  /// unassigned count in isRup and never propagate as the unit it is.
  void addClause(const prop::Clause& c) { db_.push_back(normalized(c)); }

  void deleteClause(const prop::Clause& c) {
    prop::Clause key = normalized(c);
    for (std::size_t i = 0; i < db_.size(); ++i) {
      if (db_[i] == key) {
        db_[i] = db_.back();
        db_.pop_back();
        return;
      }
    }
    // Deleting a clause that is not present is harmless (the solver may
    // normalize clauses before storing them).
  }

  /// RUP check: assuming the negation of every literal of `c`, does unit
  /// propagation over the database derive a conflict?
  bool isRup(const prop::Clause& c) const {
    // assignment: 0 unset, +1 true, -1 false (indexed by variable).
    std::vector<std::int8_t> val(numVars_ + 1, 0);
    auto assign = [&](prop::CnfLit l) {  // returns false on conflict
      const unsigned v = static_cast<unsigned>(std::abs(l));
      const std::int8_t want = l > 0 ? 1 : -1;
      if (val[v] == -want) return false;
      val[v] = want;
      return true;
    };
    for (prop::CnfLit l : c)
      if (!assign(-l)) return true;  // ¬c is itself contradictory
    // Saturate unit propagation.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const prop::Clause& cl : db_) {
        prop::CnfLit unit = 0;
        bool satisfied = false;
        unsigned unassigned = 0;
        for (prop::CnfLit l : cl) {
          const unsigned v = static_cast<unsigned>(std::abs(l));
          const std::int8_t s = l > 0 ? 1 : -1;
          if (val[v] == s) {
            satisfied = true;
            break;
          }
          if (val[v] == 0) {
            ++unassigned;
            unit = l;
          }
        }
        if (satisfied) continue;
        if (unassigned == 0) return true;  // conflict derived
        if (unassigned == 1) {
          if (!assign(unit)) return true;
          changed = true;
        }
      }
    }
    return false;
  }

 private:
  static prop::Clause normalized(const prop::Clause& c) {
    prop::Clause r = c;
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
    return r;
  }

  unsigned numVars_;
  std::vector<prop::Clause> db_;
};

}  // namespace

bool checkRup(const prop::Cnf& cnf, const Proof& proof) {
  if (!proof.endsWithEmptyClause()) return false;
  RupChecker checker(cnf.numVars);
  for (const auto& c : cnf.clauses) checker.addClause(c);
  for (const ProofStep& step : proof.steps) {
    if (step.isDelete) {
      checker.deleteClause(step.clause);
      continue;
    }
    if (!checker.isRup(step.clause)) return false;
    checker.addClause(step.clause);
  }
  return true;
}

void writeDrat(const Proof& proof, std::ostream& os) {
  for (const ProofStep& step : proof.steps) {
    if (step.isDelete) os << "d ";
    for (prop::CnfLit l : step.clause) os << l << ' ';
    os << "0\n";
  }
}

}  // namespace velev::sat
