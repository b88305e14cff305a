// BDD-based validity checking of a propositional correctness formula.
//
// checkValidity() builds the BDD of the *negated* validity target directly
// from the AIG (no Tseitin step) and then accounts for the side clauses
// the CNF flow appends after translation (the chordal transitivity
// constraints over the e_ij variables — without them a satisfying path
// could assign equalities non-transitively and a "counterexample" claim
// would be unsound). The clauses are conjoined *lazily*: a candidate path
// is extracted, only the clauses that path violates are AND-ed in, and the
// loop repeats — eager conjunction of every clause into a large
// falsifiable BDD is the classic blowup, while a violated-only schedule
// ends after a tiny fraction of the clauses. Valid iff the result reaches
// the false terminal; otherwise the first candidate that violates nothing
// is returned as a CNF-variable-indexed model, the exact shape
// sat::solveCnf returns, so the existing src/fuzz decode path (union-find
// over e_ij classes -> term-level counterexample) applies unchanged.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "prop/cnf.hpp"
#include "prop/prop.hpp"
#include "support/budget.hpp"

namespace velev::bdd {

enum class CheckStatus {
  Valid,        // the negated formula reduced to the false terminal
  Falsifiable,  // a satisfying path exists — `model` holds one
  Unknown,      // budget exhausted; `tripKind`/`reason` say why
};

struct CheckResult {
  CheckStatus status = CheckStatus::Unknown;
  /// Satisfying assignment indexed by CNF variable (entry 0 unused),
  /// covering the AIG inputs (CNF var i+1 = input i) and the transitivity
  /// fill-in variables; variables off the extracted path default to false.
  /// Empty unless Falsifiable.
  std::vector<bool> model;
  /// Budget trip cause (Unknown only): Memory -> MemOut, Deadline -> Timeout.
  BudgetKind tripKind = BudgetKind::None;
  std::string reason;
  /// Final BDD size of the conjoined formula (0 when Valid).
  std::uint64_t rootNodes = 0;
  /// Manager statistics at completion (nodes peak, cache hits, gc runs).
  BddStats stats;
};

/// Decide validity of `root` over `pctx`, conjoined with `sideClauses`
/// (CNF-variable literals; typically Translation::transitivityClauses()).
/// `governor` (null = ungoverned) is honored by BDD construction: node
/// allocation checkpoints the package's logical bytes (deterministic
/// MemOut) and the time stride (Timeout). Emits the bdd.build trace span
/// and the bdd.* counters documented in docs/TRACE_FORMAT.md.
CheckResult checkValidity(const prop::PropCtx& pctx, prop::PLit root,
                          std::span<const prop::Clause> sideClauses,
                          BudgetGovernor* governor = nullptr);

}  // namespace velev::bdd
