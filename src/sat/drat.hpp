// DRAT proof emission and checking.
//
// The verification flow's final answer is "the CNF is unsatisfiable" — a
// claim worth certifying independently. The solver can log a clausal proof
// (every learnt clause as an addition, database reductions as deletions,
// ending with the empty clause); `checkRup` replays the proof against the
// original formula with an independent unit-propagation engine, verifying
// each added clause by the reverse-unit-propagation (RUP) criterion. CDCL
// learnt clauses are always RUP, so the RAT case of full DRAT is not
// needed.
//
// The checker is deliberately simple (counter-based propagation, no watch
// lists): it is the trusted base, used by the test suite to certify the
// UNSAT results of the processor-verification pipeline on small
// configurations, and exposed through `sat_dimacs --proof`.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "prop/cnf.hpp"

namespace velev::sat {

struct ProofStep {
  bool isDelete = false;
  prop::Clause clause;  // empty clause = the final UNSAT derivation
};

struct Proof {
  std::vector<ProofStep> steps;

  void add(prop::Clause c) { steps.push_back({false, std::move(c)}); }
  void del(prop::Clause c) { steps.push_back({true, std::move(c)}); }
  std::size_t size() const { return steps.size(); }
  bool endsWithEmptyClause() const {
    return !steps.empty() && !steps.back().isDelete &&
           steps.back().clause.empty();
  }
};

/// Verify `proof` against `cnf`: every addition must be RUP with respect to
/// the current clause database, and the proof must derive the empty clause.
/// Returns true iff the proof certifies unsatisfiability of `cnf`.
bool checkRup(const prop::Cnf& cnf, const Proof& proof);

/// Write the proof in the standard DRAT text format (for external
/// checkers).
void writeDrat(const Proof& proof, std::ostream& os);

}  // namespace velev::sat
