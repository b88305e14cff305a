// The four verdict sources for one fuzz case, and the agreement relation
// between them.
//
// Soundness semantics of each oracle:
//   * rewriting flow: Correct is a proof of validity. RewriteMismatch is
//     *structural* — the slice does not match the expected expression
//     shape — and carries no semantic claim (the completion-skip bug
//     mismatches although the safety criterion cannot see it). Its SAT
//     stage runs on the conservative memory model, so CounterexampleFound
//     there may in principle be an abstraction artifact; we still treat
//     "rewrite flow refutes but PE proves" as a disagreement, because on
//     this model family the conservative translation is expected to be
//     complete once rewriting succeeded (the paper's claim) and a
//     counterexample out of thin air would be exactly the kind of
//     regression the fuzzer exists to catch.
//   * PE-only flow: exact. Correct <=> valid, Sat model <=> real
//     counterexample of the safety criterion.
//   * evaluation oracle: sound refutation only (a validity can never be
//     established by sampling finitely many interpretations).
//   * BDD oracle: exact like the PE flow — it decides the very same
//     translated formula, just with ROBDDs instead of CNF+CDCL — so any
//     conclusive disagreement between the two is a propositional-back-end
//     bug by construction.
#include <sstream>

#include "bdd/check.hpp"
#include "eufm/eval.hpp"
#include "fuzz/fuzz.hpp"
#include "models/spec.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace velev::fuzz {

namespace {

bool conclusive(core::Verdict v) {
  return v == core::Verdict::Correct ||
         v == core::Verdict::CounterexampleFound ||
         v == core::Verdict::RewriteMismatch;
}

}  // namespace

bool peFeasible(const models::OoOConfig& cfg) {
  // Measured on the UNSAT (correct-design) side, the expensive one: 4x2
  // proves in ~32k conflicts, 3x3 within the default conflict budget,
  // 6x1 in a few seconds — while 4x3 already needs ~284k conflicts and
  // 6x3 runs for minutes. Everything outside this envelope is recorded as
  // Skipped and excluded from the differential.
  const unsigned n = cfg.robSize, k = cfg.issueWidth;
  return (k == 1 && n <= 6) || (k == 2 && n <= 4) || (k == 3 && n <= 3);
}

bool bddFeasible(const models::OoOConfig& cfg) {
  // Falsifiable cells dominate the cost: correct designs collapse to the
  // false terminal in milliseconds at any feasible size, and most buggy
  // cells yield a satisfying path in ~0.15 s (3x2, 4x1). The hardest ones
  // (completion:1 at 3x2 or 4x1) and every buggy 4x2 cell fill the 256 MiB
  // node-table budget in 8-9 s and end as memout, so the envelope stops at
  // the cells where a counterexample is usually reached.
  const unsigned n = cfg.robSize, k = cfg.issueWidth;
  return (k == 1 && n <= 4) || (k == 2 && n <= 3);
}

OracleOutcome runOracles(const FuzzCase& c, const OracleOptions& opts) {
  TRACE_SPAN("fuzz.case");
  OracleOutcome out;
  Timer timer;

  eufm::Context cx;
  const models::Isa isa = models::Isa::declare(cx);
  auto impl = models::buildOoO(cx, isa, c.cfg, c.bug);
  auto spec = models::buildSpec(cx, isa);

  // Oracle 1: the rewriting flow (verifyWith arms its own governor).
  {
    TRACE_SPAN("fuzz.oracle.rewrite");
    core::VerifyOptions vopts;
    vopts.strategy = core::Strategy::RewritingPlusPositiveEquality;
    vopts.budget = opts.rewriteBudget;
    const core::VerifyReport rep = core::verifyWith(cx, isa, *impl, *spec, vopts);
    out.rewriteVerdict = rep.outcome.verdict;
    out.rewriteFailedSlice = rep.outcome.failedSlice;
    out.rewriteReason = rep.outcome.reason;
  }

  // The diagram for the PE and evaluation oracles. buildDiagram() is
  // memoized by hash-consing against the verifyWith() run above, so this
  // re-simulation is cheap.
  const core::Diagram d = core::buildDiagram(cx, *impl, *spec);

  // Oracle 2: the PE-only flow, hand-rolled (rather than via verifyWith)
  // because decoding needs the Translation and the SAT model. The BDD
  // oracle (4) re-uses the same Translation, so it is built whenever either
  // back end is on; translation runs under the PE governor, and a trip
  // before the Translation exists dooms both oracles.
  std::optional<evc::Translation> tr;
  const bool wantBdd = opts.runBdd && bddFeasible(c.cfg);
  if ((opts.runPe && peFeasible(c.cfg)) || wantBdd) {
    TRACE_SPAN("fuzz.oracle.pe");
    BudgetGovernor gov(opts.peBudget);
    eufm::ScopedContextBudget attach(cx, gov);
    try {
      tr.emplace(evc::translate(cx, d.correctness, {}));
      if (opts.runPe) {
        std::vector<bool> model;
        sat::Stats stats;
        // Inprocessed solve: a Sat model comes back reconstructed over the
        // ORIGINAL CNF variables, so decodeModel() below reads primary
        // inputs exactly as it would from an untouched solver.
        const sat::Result r = sat::solveCnfInprocessed(
            tr->cnf, opts.inprocess, &model, &stats,
            opts.peBudget.satConflicts, nullptr, &gov);
        out.peConflicts = stats.conflicts;
        switch (r) {
          case sat::Result::Unsat:
            out.peVerdict = core::Verdict::Correct;
            break;
          case sat::Result::Sat:
            out.peVerdict = core::Verdict::CounterexampleFound;
            if (opts.decode)
              out.cex = decodeModel(cx, *tr, model, &d, impl.get());
            break;
          case sat::Result::Unknown:
            out.peVerdict = gov.exceeded()
                                ? (gov.exceededKind() == BudgetKind::Memory
                                       ? core::Verdict::MemOut
                                       : core::Verdict::Timeout)
                                : core::Verdict::Inconclusive;
            break;
        }
      }
    } catch (const BudgetExceeded& e) {
      const core::Verdict trip = e.kind() == BudgetKind::Memory
                                     ? core::Verdict::MemOut
                                     : core::Verdict::Timeout;
      if (opts.runPe) out.peVerdict = trip;
      if (wantBdd && !tr.has_value())
        out.bddVerdict = trip;  // translation never finished
    }
  }

  // Oracle 4: the BDD engine on the shared translation, under its own
  // deterministic logical budget (and outside the PE governor's scope, so
  // an exhausted PE budget cannot leak into BDD-side decoding).
  if (wantBdd && tr.has_value() &&
      out.bddVerdict == core::Verdict::Skipped) {
    TRACE_SPAN("fuzz.oracle.bdd");
    BudgetGovernor gov(opts.bddBudget);
    const bdd::CheckResult res = bdd::checkValidity(
        *tr->pctx, tr->validityRoot, tr->transitivityClauses(), &gov);
    out.bddPeakNodes = res.stats.nodesPeak;
    switch (res.status) {
      case bdd::CheckStatus::Valid:
        out.bddVerdict = core::Verdict::Correct;
        break;
      case bdd::CheckStatus::Falsifiable:
        out.bddVerdict = core::Verdict::CounterexampleFound;
        if (opts.decode)
          out.bddCex = decodeModel(cx, *tr, res.model, &d, impl.get());
        break;
      case bdd::CheckStatus::Unknown:
        out.bddVerdict = res.tripKind == BudgetKind::Memory
                             ? core::Verdict::MemOut
                             : core::Verdict::Timeout;
        break;
    }
  }

  // Oracle 3: concrete evaluation of the correctness formula. Sound for
  // refutation; scenarios alternate between free and pinned scheduling
  // controls (all NDExecute_i true maximizes observability — an injected
  // bug on a slice that never executes is invisible).
  {
    TRACE_SPAN("fuzz.oracle.eval");
    for (unsigned i = 0; i < opts.evalSeeds && !out.evalRefuted; ++i) {
      const std::uint64_t seed = c.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
      const std::uint64_t domain = (i % 3 == 2) ? 3 : 2;
      eufm::Interp in(seed, domain);
      if (i % 2 == 0)
        for (const eufm::Expr v : impl->init.ndExecute) in.setBool(v, true);
      eufm::Evaluator ev(cx, in);
      ++out.evalSeedsRun;
      if (!ev.evalFormula(d.correctness)) {
        out.evalRefuted = true;
        out.evalRefutingSeed = seed;
      }
    }
  }

  out.seconds = timer.seconds();
  return out;
}

std::optional<std::string> findDisagreement(const OracleOutcome& o) {
  std::ostringstream os;

  if (o.evalRefuted && o.rewriteVerdict == core::Verdict::Correct) {
    os << "rewriting flow proved the design correct but interpretation seed "
       << o.evalRefutingSeed << " falsifies the correctness formula";
    return os.str();
  }
  if (o.evalRefuted && o.peVerdict == core::Verdict::Correct) {
    os << "PE-only flow proved the design correct but interpretation seed "
       << o.evalRefutingSeed << " falsifies the correctness formula";
    return os.str();
  }
  if (conclusive(o.rewriteVerdict) && conclusive(o.peVerdict)) {
    if (o.rewriteVerdict == core::Verdict::Correct &&
        o.peVerdict == core::Verdict::CounterexampleFound) {
      os << "rewriting flow says correct, PE-only flow found a "
            "counterexample (PE Sat is exact: the design is buggy)";
      return os.str();
    }
    if (o.rewriteVerdict == core::Verdict::CounterexampleFound &&
        o.peVerdict == core::Verdict::Correct) {
      os << "rewriting flow found a (conservative-memory) counterexample "
            "but the PE-only flow proves the design correct";
      return os.str();
    }
  }
  if (o.evalRefuted && o.bddVerdict == core::Verdict::Correct) {
    os << "BDD engine proved the design correct but interpretation seed "
       << o.evalRefutingSeed << " falsifies the correctness formula";
    return os.str();
  }
  if (conclusive(o.peVerdict) && conclusive(o.bddVerdict) &&
      o.peVerdict != o.bddVerdict) {
    os << "propositional back ends disagree on the same translation: PE-only "
          "SAT says "
       << core::verdictName(o.peVerdict) << " but the BDD engine says "
       << core::verdictName(o.bddVerdict);
    return os.str();
  }
  if (conclusive(o.rewriteVerdict) && conclusive(o.bddVerdict)) {
    if (o.rewriteVerdict == core::Verdict::Correct &&
        o.bddVerdict == core::Verdict::CounterexampleFound) {
      os << "rewriting flow says correct, BDD engine found a counterexample "
            "(the BDD check is exact: the design is buggy)";
      return os.str();
    }
    if (o.rewriteVerdict == core::Verdict::CounterexampleFound &&
        o.bddVerdict == core::Verdict::Correct) {
      os << "rewriting flow found a (conservative-memory) counterexample "
            "but the BDD engine proves the design correct";
      return os.str();
    }
  }
  if (o.cex.has_value()) {
    if (!o.cex->transitive)
      return std::string(
          "decoded e_ij assignment violates transitivity — the transitivity "
          "constraints of the encoding are broken");
    if (!o.cex->falsifiesUfRoot)
      return std::string(
          "decoded SAT model does not falsify the UF-free formula it was "
          "encoded from — the propositional encoding is unsound");
  }
  if (o.bddCex.has_value()) {
    if (!o.bddCex->transitive)
      return std::string(
          "decoded BDD satisfying path violates transitivity — the "
          "transitivity clauses were not conjoined correctly");
    if (!o.bddCex->falsifiesUfRoot)
      return std::string(
          "decoded BDD satisfying path does not falsify the UF-free formula "
          "it was built from — the BDD construction is unsound");
  }
  // What never counts: RewriteMismatch (structural, conservative) in any
  // combination, and any inconclusive/budget/skipped verdict.
  return std::nullopt;
}

}  // namespace velev::fuzz
