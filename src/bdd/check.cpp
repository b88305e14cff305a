#include "bdd/check.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/trace.hpp"

namespace velev::bdd {

namespace {

constexpr BddRef kUnbuilt = 0xffffffffu;

/// Post-order of the cone of `root` over the AIG (vars and constants
/// included, each node once).
std::vector<std::uint32_t> coneTopo(const prop::PropCtx& pctx,
                                    prop::PLit root) {
  std::vector<std::uint32_t> order;
  std::vector<std::uint8_t> state(pctx.numNodes(), 0);  // 0 new, 1 open, 2 done
  std::vector<std::uint32_t> stack{prop::nodeOf(root)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (state[n] == 2) {
      stack.pop_back();
      continue;
    }
    if (!pctx.isAndNode(n)) {  // input variable or the constant node
      state[n] = 2;
      order.push_back(n);
      stack.pop_back();
      continue;
    }
    if (state[n] == 0) {
      state[n] = 1;
      for (const prop::PLit child : {pctx.andLeft(n), pctx.andRight(n)}) {
        const std::uint32_t c = prop::nodeOf(child);
        if (state[c] != 2) stack.push_back(c);
      }
    } else {
      state[n] = 2;
      order.push_back(n);
      stack.pop_back();
    }
  }
  return order;
}

/// Builds BDDs bottom-up over the AIG cone with a fanout-counted memo:
/// an entry is dropped as soon as its last consumer is built, so the gc()
/// after each node reclaims everything genuinely dead.
class ConeBuilder {
 public:
  ConeBuilder(const prop::PropCtx& pctx, BddManager& mgr)
      : pctx_(pctx), mgr_(mgr), memo_(pctx.numNodes(), kUnbuilt) {}

  BddRef build(prop::PLit root) {
    const std::vector<std::uint32_t> order = coneTopo(pctx_, root);
    std::vector<std::uint32_t> fanout(pctx_.numNodes(), 0);
    for (const std::uint32_t n : order)
      if (pctx_.isAndNode(n)) {
        ++fanout[prop::nodeOf(pctx_.andLeft(n))];
        ++fanout[prop::nodeOf(pctx_.andRight(n))];
      }
    ++fanout[prop::nodeOf(root)];  // keep the root alive throughout

    for (const std::uint32_t n : order) {
      if (n == 0) {
        memo_[n] = kFalse;  // prop node 0 is the constant FALSE
        continue;
      }
      if (pctx_.isVarNode(n)) {
        memo_[n] = mgr_.varRef(pctx_.varIndex(n));
        continue;
      }
      const prop::PLit la = pctx_.andLeft(n), lb = pctx_.andRight(n);
      memo_[n] = mgr_.mkAnd(litRef(la), litRef(lb));
      for (const prop::PLit child : {la, lb}) {
        const std::uint32_t c = prop::nodeOf(child);
        if (--fanout[c] == 0) memo_[c] = kUnbuilt;  // last consumer built
      }
      if (mgr_.gcPending()) mgr_.gc(liveRoots());
    }
    return litRef(root);
  }

 private:
  BddRef litRef(prop::PLit l) const {
    const BddRef r = memo_[prop::nodeOf(l)];
    VELEV_CHECK(r != kUnbuilt);
    return prop::isNegated(l) ? negate(r) : r;
  }

  std::vector<BddRef> liveRoots() const {
    std::vector<BddRef> roots;
    for (const BddRef r : memo_)
      if (r != kUnbuilt) roots.push_back(r);
    return roots;
  }

  const prop::PropCtx& pctx_;
  BddManager& mgr_;
  std::vector<BddRef> memo_;
};

void publishCounters(const BddManager& mgr) {
  namespace tr = velev::trace;
  if (tr::active() == nullptr) return;
  const BddStats& s = mgr.stats();
  tr::counterMax("bdd.nodes_peak", s.nodesPeak);
  tr::counterSet("bdd.cache_hits", s.cacheHits);
  tr::counterSet("bdd.cache_lookups", s.cacheLookups);
  tr::counterSet("bdd.gc_runs", s.gcRuns);
}

}  // namespace

CheckResult checkValidity(const prop::PropCtx& pctx, prop::PLit root,
                          std::span<const prop::Clause> sideClauses,
                          BudgetGovernor* governor) {
  CheckResult res;
  BddManager mgr;
  mgr.setBudget(governor);

  const unsigned numInputs = pctx.numVars();
  for (unsigned i = 0; i < numInputs; ++i) mgr.mkVar();

  // Side-clause variables beyond the AIG inputs (the transitivity fill-in
  // edges) get fresh BDD variables at the bottom of the order, on demand.
  std::unordered_map<std::uint32_t, unsigned> extraVar;  // CNF var -> BDD var
  std::vector<std::uint32_t> extraCnf;                   // inverse, dense
  auto bddVarOfCnf = [&](std::uint32_t cnfVar) -> unsigned {
    if (cnfVar - 1 < numInputs) return cnfVar - 1;
    auto [it, fresh] = extraVar.try_emplace(cnfVar, 0u);
    if (fresh) {
      it->second = mgr.mkVar();
      extraCnf.push_back(cnfVar);
    }
    return it->second;
  };

  std::uint32_t maxCnfVar = numInputs;
  for (const prop::Clause& clause : sideClauses)
    for (const prop::CnfLit lit : clause)
      maxCnfVar = std::max(
          maxCnfVar, static_cast<std::uint32_t>(lit < 0 ? -lit : lit));

  try {
    TRACE_SPAN("bdd.build");
    // The design is correct iff ¬root ∧ transitivity is unsatisfiable.
    BddRef f = kFalse;
    {
      ConeBuilder builder(pctx, mgr);
      f = negate(builder.build(root));
      mgr.protect(f);
    }

    // Lazy side-clause conjunction. Eagerly AND-ing every transitivity
    // clause into a large falsifiable BDD restructures it over and over —
    // the classic blowup. Instead: extract a candidate path, conjoin only
    // the clauses that path actually violates, repeat. Correct designs
    // collapse to the false terminal after a few rounds; falsifiable ones
    // terminate the first time a path violates nothing (typically after
    // conjoining a tiny fraction of the clauses). Each round conjoins at
    // least one new clause, so the loop is bounded by the clause count.
    std::vector<std::uint8_t> conjoined(sideClauses.size(), 0);
    for (;;) {
      if (f == kFalse) {
        res.status = CheckStatus::Valid;
        res.model.clear();  // drop the last round's candidate
        res.stats = mgr.stats();
        publishCounters(mgr);
        return res;
      }

      // Candidate model: one satisfying path of f, everything off the
      // path defaulted to false (sound: the path fixes f's value, and the
      // violation check below re-validates every pending clause against
      // exactly this extension).
      res.model.assign(maxCnfVar + 1, false);
      for (const auto& [var, value] : mgr.satOnePath(f)) {
        const std::uint32_t cnfVar =
            var < numInputs ? var + 1 : extraCnf[var - numInputs];
        res.model[cnfVar] = value;
      }

      std::vector<std::size_t> violated;
      for (std::size_t i = 0; i < sideClauses.size(); ++i) {
        if (conjoined[i]) continue;
        bool satisfied = false;
        for (const prop::CnfLit lit : sideClauses[i])
          if (lit < 0 ? !res.model[-lit] : res.model[lit]) {
            satisfied = true;
            break;
          }
        if (!satisfied) violated.push_back(i);
      }
      if (violated.empty()) {
        res.status = CheckStatus::Falsifiable;
        res.rootNodes = mgr.countNodes(f);
        res.stats = mgr.stats();
        publishCounters(mgr);
        return res;
      }

      for (const std::size_t i : violated) {
        if (f == kFalse) break;
        conjoined[i] = 1;
        BddRef c = kFalse;
        for (const prop::CnfLit lit : sideClauses[i]) {
          const unsigned v = bddVarOfCnf(
              static_cast<std::uint32_t>(lit < 0 ? -lit : lit));
          const BddRef litRef =
              lit < 0 ? negate(mgr.varRef(v)) : mgr.varRef(v);
          c = mgr.mkOr(c, litRef);
        }
        const BddRef next = mgr.mkAnd(f, c);
        mgr.unprotect(f);
        mgr.protect(next);
        f = next;
        if (mgr.gcPending()) mgr.gc();
      }
    }
  } catch (const BudgetExceeded& e) {
    res.model.clear();
    res.stats = mgr.stats();
    publishCounters(mgr);
    res.status = CheckStatus::Unknown;
    res.tripKind = e.kind();
    res.reason = e.what();
    return res;
  }
}

}  // namespace velev::bdd
