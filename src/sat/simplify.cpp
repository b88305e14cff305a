#include "sat/simplify.hpp"

#include <algorithm>

#include "support/budget.hpp"
#include "support/check.hpp"
#include "support/trace.hpp"

namespace velev::sat {

namespace {

using prop::Clause;
using prop::CnfLit;

/// The in-flight clause database. Clauses are immutable once added: every
/// strengthening/substitution kills the old index and appends a new one, so
/// occurrence lists are exact up to a liveness check and the passes never
/// chase stale pointers.
class Simplifier {
 public:
  Simplifier(const prop::Cnf& in, const InprocessOptions& opts, Proof* proof,
             BudgetGovernor* budget)
      : opts_(opts),
        proof_(proof),
        budget_(budget),
        n_(in.numVars),
        val_(in.numVars + 1, 0),
        eliminated_(in.numVars + 1, 0),
        occ_(2 * static_cast<std::size_t>(in.numVars) + 2),
        binByOther_(occ_.size(), kNoClause) {
    if (budget_ != nullptr) budgetSource_ = budget_->registerSource();
    stats_.clausesBefore = in.clauses.size();
    load(in);
  }

  SimplifyResult run() {
    TRACE_SPAN("sat.inprocess");
    propagateUnits();
    for (unsigned round = 0; round < opts_.maxRounds && !done(); ++round) {
      ++stats_.rounds;
      const std::uint64_t before = mutations_;
      if (opts_.substitute && !done()) substitutePass();
      if (opts_.subsume && !done()) subsumePass();
      if (opts_.varElim && !done()) elimPass();
      if (mutations_ == before) break;  // fixpoint
    }
    return finish();
  }

 private:
  // ---- database primitives -------------------------------------------------

  static std::size_t litIdx(CnfLit l) {
    return 2 * (static_cast<std::size_t>(std::abs(l)) - 1) + (l < 0 ? 1 : 0);
  }

  std::int8_t valueOf(CnfLit l) const {
    const std::int8_t v = val_[static_cast<std::size_t>(std::abs(l))];
    return l > 0 ? v : static_cast<std::int8_t>(-v);
  }

  /// Append a normalized (sorted, unique, tautology-free, assignment-free)
  /// clause; queues units. Does NOT emit proof steps — callers do, because
  /// whether the addition needs one depends on where the clause came from.
  std::uint32_t pushClause(Clause c) {
    const auto ci = static_cast<std::uint32_t>(db_.size());
    bytes_ += clauseBytes(c);
    if (c.size() == 1) pendingUnits_.push_back(c[0]);
    if (c.empty()) provedUnsat_ = true;
    std::uint64_t sig = 0;
    for (CnfLit l : c) {
      occ_[litIdx(l)].push_back(ci);
      sig |= std::uint64_t{1} << (litIdx(l) & 63);
    }
    db_.push_back(std::move(c));
    sig_.push_back(sig);
    live_.push_back(1);
    ++mutations_;
    return ci;
  }

  void killClause(std::uint32_t ci, bool emitDelete) {
    if (live_[ci] == 0) return;
    live_[ci] = 0;
    ++mutations_;
    // Unit clauses are never deleted from the proof: the simplified CNF
    // re-emits every level-0 unit, so the checker database must keep them.
    if (emitDelete && proof_ != nullptr && db_[ci].size() > 1)
      proof_->del(db_[ci]);
    // Nothing reads a dead clause's literals: release them, so bytes_ (the
    // budget governor's view) tracks the live database.
    bytes_ -= clauseBytes(db_[ci]);
    Clause().swap(db_[ci]);
  }

  static std::size_t clauseBytes(const Clause& c) {
    return (c.size() * 2 + 4) * sizeof(CnfLit);
  }

  /// Sort + dedupe + drop assigned-false lits. Returns false for clauses
  /// that are tautologous or satisfied at level 0 (caller skips them).
  bool normalize(Clause& c) const {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    Clause out;
    out.reserve(c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      // Tautology: sorted by signed value, l and -l need not be adjacent.
      if (std::binary_search(c.begin(), c.end(), -c[i])) return false;
      const std::int8_t v = valueOf(c[i]);
      if (v > 0) return false;  // satisfied
      if (v < 0) continue;      // falsified literal: drop
      out.push_back(c[i]);
    }
    c = std::move(out);
    return true;
  }

  void load(const prop::Cnf& in) {
    for (const Clause& orig : in.clauses) {
      if (provedUnsat_) return;
      Clause c = orig;
      if (!normalize(c)) continue;  // tautology (no proof step needed)
      // Strengthened against the level-0 units (or deduped): RUP.
      if (c.size() != orig.size() && proof_ != nullptr) proof_->add(c);
      pushClause(std::move(c));
      if (!pendingUnits_.empty()) propagateUnits();
    }
  }

  // ---- level-0 unit propagation --------------------------------------------

  void assign(CnfLit u) {
    const auto v = static_cast<std::size_t>(std::abs(u));
    const std::int8_t want = u > 0 ? 1 : -1;
    if (val_[v] == -want) {
      if (proof_ != nullptr) proof_->add({});
      provedUnsat_ = true;
      return;
    }
    if (val_[v] == want) return;
    val_[v] = want;
    ++stats_.unitsDerived;
    unitQueue_.push_back(u);
  }

  /// Saturate the level-0 assignment: kill satisfied clauses, strengthen
  /// clauses with falsified literals. Restores the invariant that every
  /// live clause has size >= 2 and mentions no assigned variable.
  void propagateUnits() {
    for (CnfLit u : pendingUnits_) assign(u);
    pendingUnits_.clear();
    while (unitHead_ < unitQueue_.size() && !provedUnsat_) {
      const CnfLit u = unitQueue_[unitHead_++];
      for (const std::uint32_t ci : occ_[litIdx(u)]) {
        if (live_[ci] == 0) continue;
        killClause(ci, /*emitDelete=*/true);
        ++stats_.clausesRemoved;
      }
      // By index: the strengthened clause no longer contains ¬u, so
      // pushClause never appends to the list walked here.
      const std::size_t ni = litIdx(-u);
      for (std::size_t k = 0, end = occ_[ni].size(); k < end; ++k) {
        const std::uint32_t ci = occ_[ni][k];
        if (live_[ci] == 0) continue;
        Clause c = db_[ci];
        if (!normalize(c)) {  // satisfied by another level-0 unit
          killClause(ci, /*emitDelete=*/true);
          ++stats_.clausesRemoved;
          continue;
        }
        stats_.litsRemoved += db_[ci].size() - c.size();
        ++stats_.clausesStrengthened;
        if (proof_ != nullptr) proof_->add(c);
        if (c.empty()) provedUnsat_ = true;
        killClause(ci, /*emitDelete=*/true);
        pushClause(std::move(c));
        if (provedUnsat_) return;
        if (!pendingUnits_.empty()) {
          for (CnfLit l : pendingUnits_) assign(l);
          pendingUnits_.clear();
        }
      }
    }
    unitQueue_.clear();
    unitHead_ = 0;
  }

  // ---- budget / work accounting --------------------------------------------

  bool done() const { return provedUnsat_ || stopped_; }

  /// Count `w` units of logical work; poll the governor periodically. On a
  /// trip the pipeline stops at the next safe point, leaving a consistent
  /// partially simplified database (inprocessing is best-effort).
  bool tick(std::uint64_t w = 1) {
    ticks_ += w;
    if (budget_ != nullptr && ticks_ >= nextPoll_) {
      nextPoll_ = ticks_ + 0x8000;
      if (budget_->poll(budgetSource_, bytes_)) stopped_ = true;
    }
    return stopped_;
  }

  // ---- pass 2: SCC equivalent-literal substitution -------------------------

  void substitutePass() {
    TRACE_SPAN("sat.inprocess.substitute");
    // Implication graph over literal nodes: binary clause (a b) gives
    // ¬a → b and ¬b → a.
    const std::size_t nodes = 2 * static_cast<std::size_t>(n_);
    std::vector<std::vector<std::uint32_t>> adj(nodes);
    for (std::size_t ci = 0; ci < db_.size(); ++ci) {
      if (live_[ci] == 0 || db_[ci].size() != 2) continue;
      const CnfLit a = db_[ci][0], b = db_[ci][1];
      adj[litIdx(-a)].push_back(static_cast<std::uint32_t>(litIdx(b)));
      adj[litIdx(-b)].push_back(static_cast<std::uint32_t>(litIdx(a)));
      if (tick(2)) return;
    }

    // Iterative Tarjan SCC.
    std::vector<std::uint32_t> comp(nodes, 0xffffffffu), low(nodes, 0),
        num(nodes, 0xffffffffu);
    std::vector<std::uint32_t> sccStack;
    std::vector<char> onStack(nodes, 0);
    std::uint32_t counter = 0, compCount = 0;
    struct Frame {
      std::uint32_t node;
      std::size_t edge;
    };
    std::vector<Frame> dfs;
    for (std::uint32_t root = 0; root < nodes; ++root) {
      if (num[root] != 0xffffffffu) continue;
      dfs.push_back({root, 0});
      num[root] = low[root] = counter++;
      sccStack.push_back(root);
      onStack[root] = 1;
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        if (f.edge < adj[f.node].size()) {
          const std::uint32_t next = adj[f.node][f.edge++];
          if (num[next] == 0xffffffffu) {
            num[next] = low[next] = counter++;
            sccStack.push_back(next);
            onStack[next] = 1;
            dfs.push_back({next, 0});
          } else if (onStack[next] != 0) {
            low[f.node] = std::min(low[f.node], num[next]);
          }
          if (tick()) return;
          continue;
        }
        if (low[f.node] == num[f.node]) {
          for (;;) {
            const std::uint32_t w = sccStack.back();
            sccStack.pop_back();
            onStack[w] = 0;
            comp[w] = compCount;
            if (w == f.node) break;
          }
          ++compCount;
        }
        const std::uint32_t child = f.node;
        dfs.pop_back();
        if (!dfs.empty())
          low[dfs.back().node] = std::min(low[dfs.back().node], low[child]);
      }
    }

    // Representative literal per SCC: lowest variable, positive before
    // negative — the first literal of the SCC in node order.
    const auto idxLit = [](std::uint32_t i) -> CnfLit {
      const auto v = static_cast<CnfLit>(i / 2 + 1);
      return (i & 1) != 0 ? -v : v;
    };
    std::vector<CnfLit> rep(compCount, 0);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const CnfLit l = idxLit(i);
      const auto v = static_cast<std::size_t>(std::abs(l));
      if (eliminated_[v] != 0 || val_[v] != 0) continue;
      CnfLit& r = rep[comp[i]];
      if (r == 0) r = l;
    }

    // x ≡ ¬x: the binary chains refute both polarities — UNSAT.
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (comp[litIdx(static_cast<CnfLit>(v))] ==
              comp[litIdx(-static_cast<CnfLit>(v))] &&
          val_[v] == 0 && eliminated_[v] == 0) {
        if (proof_ != nullptr) {
          proof_->add({-static_cast<CnfLit>(v)});
          proof_->add({static_cast<CnfLit>(v)});
          proof_->add({});
        }
        provedUnsat_ = true;
        return;
      }
    }

    // Substitution map per variable: v -> rep of the SCC of literal +v.
    std::vector<CnfLit> subst(n_ + 1, 0);
    bool any = false;
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (eliminated_[v] != 0 || val_[v] != 0) continue;
      const CnfLit r = rep[comp[litIdx(static_cast<CnfLit>(v))]];
      if (r == 0 || std::abs(r) == static_cast<CnfLit>(v)) continue;
      subst[v] = r;
      any = true;
    }
    if (!any) return;

    // Before any rewriting, materialize the DIRECT defining binaries
    // (¬v ∨ r) and (v ∨ ¬r) for every substituted pair. Each is RUP via
    // the (still fully intact) binary implication chains of the SCC. The
    // rewrites below are then RUP through these direct binaries no matter
    // in which order chain clauses get rewritten or killed — rewriting an
    // intra-SCC chain clause maps BOTH of its variables to the rep, which
    // yields a tautology and kills the clause, so a later variable's
    // chain support can otherwise disappear mid-pass. The sweep skips the
    // defining binaries (they would tautologize mid-sweep and take the
    // RUP support with them); they are deleted after all rewrites, so the
    // output CNF never contains them.
    const auto defLo = static_cast<std::uint32_t>(db_.size());
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (subst[v] == 0) continue;
      const CnfLit pv = static_cast<CnfLit>(v);
      const CnfLit r = subst[v];
      for (Clause c : {Clause{-pv, r}, Clause{pv, -r}}) {
        std::sort(c.begin(), c.end());
        if (proof_ != nullptr) proof_->add(c);
        pushClause(std::move(c));
      }
      if (tick(4)) return;
    }
    const auto defHi = static_cast<std::uint32_t>(db_.size());

    // Rewrite every clause that mentions a substituted variable.
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (subst[v] == 0) continue;
      for (const CnfLit l :
           {static_cast<CnfLit>(v), -static_cast<CnfLit>(v)}) {
        // By index: the rewritten clause no longer mentions v, so
        // pushClause never appends to the list walked here.
        const std::size_t li = litIdx(l);
        for (std::size_t k = 0, end = occ_[li].size(); k < end; ++k) {
          const std::uint32_t ci = occ_[li][k];
          if (live_[ci] == 0 || (ci >= defLo && ci < defHi)) continue;
          Clause c;
          c.reserve(db_[ci].size());
          for (const CnfLit x : db_[ci]) {
            const auto xv = static_cast<std::size_t>(std::abs(x));
            const CnfLit r = subst[xv];
            c.push_back(r == 0 ? x : (x > 0 ? r : -r));
          }
          if (tick(c.size())) return;
          if (!normalize(c)) {
            // Substituted form is a tautology (e.g. the defining binary
            // clauses themselves): the original is redundant.
            killClause(ci, /*emitDelete=*/true);
            ++stats_.clausesRemoved;
            continue;
          }
          if (proof_ != nullptr) proof_->add(c);
          killClause(ci, /*emitDelete=*/true);
          pushClause(std::move(c));
        }
      }
      recon_.pushEquivalence(v, subst[v]);
      ++stats_.varsSubstituted;
      // The variable no longer occurs anywhere: exempt it from later
      // passes exactly like an eliminated one (reconstruction defines it).
      eliminated_[v] = 1;
    }
    // Retire the defining binaries now that no rewrite needs them.
    for (std::uint32_t ci = defLo; ci < defHi; ++ci)
      killClause(ci, /*emitDelete=*/true);
    propagateUnits();
  }

  // ---- pass 3: subsumption + self-subsumption ------------------------------
  //
  // SatELite-style backward pass (Eén–Biere 2005). Each live clause c, in
  // stable size order, scans the two occurrence lists of its least-occurring
  // variable once: any d that c subsumes, or that c with one literal flipped
  // subsumes, contains that variable in some polarity.

  enum class Subsumption { None, Subsumes, Strengthens };

  /// One merge over the sorted clauses c and d. Subsumes: c ⊆ d.
  /// Strengthens: c \ {flip} ⊆ d and ¬flip ∈ d, so the resolvent
  /// d \ {¬flip} replaces d.
  static Subsumption subsumes(const Clause& c, const Clause& d,
                              CnfLit& flip) {
    flip = 0;
    auto j = d.begin();
    for (const CnfLit l : c) {
      while (j != d.end() && *j < l) ++j;
      if (j != d.end() && *j == l) {
        ++j;
        continue;
      }
      if (flip != 0 || !std::binary_search(d.begin(), d.end(), -l))
        return Subsumption::None;
      flip = l;
    }
    return flip == 0 ? Subsumption::Subsumes : Subsumption::Strengthens;
  }

  void subsumePass() {
    TRACE_SPAN("sat.inprocess.subsume");
    // Drop dead ids so the pivot choice below sees true list sizes.
    for (auto& list : occ_)
      std::erase_if(list, [this](std::uint32_t ci) { return live_[ci] == 0; });
    std::vector<std::uint32_t> order;
    order.reserve(db_.size());
    for (std::uint32_t ci = 0; ci < db_.size(); ++ci)
      if (live_[ci] != 0) order.push_back(ci);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return db_[a].size() < db_[b].size();
                     });

    Clause c;
    for (const std::uint32_t ci : order) {
      if (live_[ci] == 0) continue;  // subsumed by an earlier clause
      if (done()) return;
      c = db_[ci];  // copy: strengthening appends to db_
      const std::uint64_t sig = sig_[ci];
      CnfLit pivot = 0;
      std::size_t best = 0;
      for (const CnfLit l : c) {
        const std::size_t n = occ_[litIdx(l)].size() + occ_[litIdx(-l)].size();
        if (pivot == 0 || n < best) {
          best = n;
          pivot = l;
        }
      }
      for (const CnfLit p : {pivot, -pivot}) {
        // By index, up to the current end: a clause strengthened here can
        // not be subsumed or strengthened by c again.
        const std::size_t li = litIdx(p), end = occ_[li].size();
        for (std::size_t k = 0; k < end; ++k) {
          const std::uint32_t di = occ_[li][k];
          if (di == ci || live_[di] == 0 || db_[di].size() < c.size()) continue;
          // More than one literal of c missing from d: neither case holds.
          const std::uint64_t missing = sig & ~sig_[di];
          const bool filtered = (missing & (missing - 1)) != 0;
          if (tick(filtered ? 1 : db_[di].size())) return;
          if (filtered) continue;
          CnfLit flip = 0;
          const Subsumption r = subsumes(c, db_[di], flip);
          if (r == Subsumption::Subsumes) {
            killClause(di, /*emitDelete=*/true);
            ++stats_.clausesRemoved;
          } else if (r == Subsumption::Strengthens) {
            // The resolvent of c and d on flip is RUP from c and d.
            Clause d;
            d.reserve(db_[di].size() - 1);
            for (const CnfLit l : db_[di])
              if (l != -flip) d.push_back(l);
            ++stats_.clausesStrengthened;
            ++stats_.litsRemoved;
            if (proof_ != nullptr) proof_->add(d);
            killClause(di, /*emitDelete=*/true);
            pushClause(std::move(d));
          }
        }
      }
    }
    propagateUnits();
  }

  // ---- pass 4: bounded variable elimination --------------------------------

  /// Gate detection for elimination-by-substitution. Shape (for l = +v or
  /// -v): one definition clause D = (l ∨ m1 ∨ ... ∨ mk) plus the binaries
  /// (¬l ∨ ¬mi) for every i — the Tseitin encoding of l ↔ ¬m1∧...∧¬mk,
  /// which the AIG translation mass-produces. When such a gate exists,
  /// resolving on v only needs gate-side × non-gate-side cross products:
  /// every omitted resolvent (non-gate × non-gate) is implied by the kept
  /// ones (Eén–Biere, SatELite), so equisatisfiability, the reconstruction
  /// witness (still ALL clauses of v), and the proof protocol (kept
  /// resolvents are ordinary RUP resolvents) are unchanged. Full NiVER
  /// counting would refuse most of these variables.
  struct Gate {
    std::uint32_t def = 0;            // the long definition clause
    std::vector<std::uint32_t> bins;  // the (¬l ∨ ¬mi) binaries
    bool defOnPos = false;            // l == +v (def sits in the pos list)
  };

  bool findGate(std::uint32_t v, const std::vector<std::uint32_t>& pos,
                const std::vector<std::uint32_t>& neg, Gate& out) {
    for (const bool onPos : {true, false}) {
      const CnfLit l = onPos ? static_cast<CnfLit>(v) : -static_cast<CnfLit>(v);
      const auto& defs = onPos ? pos : neg;
      const auto& binSide = onPos ? neg : pos;
      // Index every binary (¬l ∨ o) by its other literal o. The first one
      // in list order wins; the slots are reset before returning.
      const auto other = [&](std::uint32_t ci) {
        return db_[ci][0] == -l ? db_[ci][1] : db_[ci][0];
      };
      for (const std::uint32_t ci : binSide) {
        if (db_[ci].size() != 2) continue;
        std::uint32_t& slot = binByOther_[litIdx(other(ci))];
        if (slot == kNoClause) slot = ci;
      }
      bool found = false;
      for (const std::uint32_t ci : defs) {
        if (db_[ci].size() < 3) continue;  // binaries are SCC territory
        out.bins.clear();
        found = true;
        for (const CnfLit m : db_[ci]) {
          if (m == l) continue;
          const std::uint32_t bin = binByOther_[litIdx(-m)];
          if (bin == kNoClause) {
            found = false;
            break;
          }
          out.bins.push_back(bin);
        }
        if (found) {
          out.def = ci;
          out.defOnPos = onPos;
          break;
        }
      }
      for (const std::uint32_t ci : binSide)
        if (db_[ci].size() == 2) binByOther_[litIdx(other(ci))] = kNoClause;
      if (found) return true;
    }
    return false;
  }

  void elimPass() {
    TRACE_SPAN("sat.inprocess.elim");
    for (std::uint32_t v = 1; v <= n_; ++v) {
      if (done()) return;
      if (eliminated_[v] != 0 || val_[v] != 0) continue;
      // Compact in place: earlier eliminations in this pass leave dead ids
      // behind. Nothing below adds a clause of v, so the lists stay put.
      auto& pos = occ_[litIdx(static_cast<CnfLit>(v))];
      auto& neg = occ_[litIdx(-static_cast<CnfLit>(v))];
      const auto dead = [this](std::uint32_t ci) { return live_[ci] == 0; };
      std::erase_if(pos, dead);
      std::erase_if(neg, dead);
      if (pos.empty() && neg.empty()) continue;  // unconstrained already
      if (pos.size() > opts_.elimOccLimit || neg.size() > opts_.elimOccLimit)
        continue;

      // The (pos, neg) clause pairs to resolve: the full cross product, or
      // only the gate-side × non-gate-side pairs when v is gate-defined.
      Gate gate;
      pairs_.clear();
      if (opts_.elimBySubstitution && findGate(v, pos, neg, gate)) {
        const auto isGateClause = [&](std::uint32_t ci) {
          return ci == gate.def ||
                 std::find(gate.bins.begin(), gate.bins.end(), ci) !=
                     gate.bins.end();
        };
        for (const std::uint32_t pi : pos)
          for (const std::uint32_t ni : neg) {
            const bool pg = gate.defOnPos ? pi == gate.def : isGateClause(pi);
            const bool ng = gate.defOnPos ? isGateClause(ni) : ni == gate.def;
            if (pg != ng)  // exactly one side from the gate
              pairs_.emplace_back(pi, ni);
          }
      } else {
        for (const std::uint32_t pi : pos)
          for (const std::uint32_t ni : neg) pairs_.emplace_back(pi, ni);
      }

      // All non-tautological resolvents on v over the selected pairs.
      std::vector<Clause> resolvents;
      bool tooMany = false;
      for (const auto& [pi, ni] : pairs_) {
        if (tick(db_[pi].size() + db_[ni].size())) return;
        Clause r;
        r.reserve(db_[pi].size() + db_[ni].size());
        for (const CnfLit l : db_[pi])
          if (l != static_cast<CnfLit>(v)) r.push_back(l);
        for (const CnfLit l : db_[ni])
          if (l != -static_cast<CnfLit>(v)) r.push_back(l);
        if (!normalize(r)) continue;  // tautological resolvent
        resolvents.push_back(std::move(r));
        if (resolvents.size() > pos.size() + neg.size() + opts_.elimGrowth) {
          tooMany = true;
          break;
        }
      }
      if (tooMany) continue;

      // Commit: resolvents first (each RUP against the still-present
      // parents), then remove every clause of v; the removed clauses are
      // the reconstruction witness.
      if (proof_ != nullptr)
        for (const Clause& r : resolvents) proof_->add(r);
      std::vector<Clause> witness;
      witness.reserve(pos.size() + neg.size());
      for (const std::uint32_t ci : pos) witness.push_back(db_[ci]);
      for (const std::uint32_t ci : neg) witness.push_back(db_[ci]);
      recon_.pushElimination(v, std::move(witness));
      for (const std::uint32_t ci : pos) killClause(ci, /*emitDelete=*/true);
      for (const std::uint32_t ci : neg) killClause(ci, /*emitDelete=*/true);
      stats_.clausesRemoved += pos.size() + neg.size();
      for (Clause& r : resolvents) pushClause(std::move(r));
      eliminated_[v] = 1;
      ++stats_.varsEliminated;
      if (!pendingUnits_.empty()) propagateUnits();
    }
  }

  // ---- output --------------------------------------------------------------

  SimplifyResult finish() {
    SimplifyResult out;
    out.cnf.numVars = n_;
    if (provedUnsat_) {
      // A strengthening that derives {} logs its parent's deletion after
      // it: close the proof again so a refutation alone ends with {}.
      if (proof_ != nullptr && !proof_->endsWithEmptyClause()) proof_->add({});
      out.cnf.addClause({});
      out.provedUnsat = true;
    } else {
      for (std::uint32_t v = 1; v <= n_; ++v)
        if (val_[v] != 0)
          out.cnf.addClause({val_[v] > 0 ? static_cast<CnfLit>(v)
                                         : -static_cast<CnfLit>(v)});
      for (std::size_t ci = 0; ci < db_.size(); ++ci)
        if (live_[ci] != 0) out.cnf.clauses.push_back(db_[ci]);
    }
    stats_.clausesAfter = out.cnf.clauses.size();
    stats_.reconstructionDepth = recon_.depth();
    out.stats = stats_;
    out.recon = std::move(recon_);
    if (trace::Collector* c = trace::active()) {
      c->addCounter("sat.inprocess.rounds", stats_.rounds);
      c->addCounter("sat.inprocess.clauses_before", stats_.clausesBefore);
      c->addCounter("sat.inprocess.clauses_after", stats_.clausesAfter);
      c->addCounter("sat.inprocess.clauses_removed", stats_.clausesRemoved);
      c->addCounter("sat.inprocess.clauses_strengthened",
                    stats_.clausesStrengthened);
      c->addCounter("sat.inprocess.lits_removed", stats_.litsRemoved);
      c->addCounter("sat.inprocess.vars_eliminated", stats_.varsEliminated);
      c->addCounter("sat.inprocess.vars_substituted",
                    stats_.varsSubstituted);
      c->maxCounter("sat.inprocess.reconstruction_depth",
                    stats_.reconstructionDepth);
    }
    return out;
  }

  const InprocessOptions opts_;
  Proof* proof_;
  BudgetGovernor* budget_;
  int budgetSource_ = -1;

  std::uint32_t n_;
  std::vector<Clause> db_;
  std::vector<std::uint64_t> sig_;  // literal signature per clause
  std::vector<char> live_;
  std::vector<std::int8_t> val_;
  std::vector<char> eliminated_;
  std::vector<std::vector<std::uint32_t>> occ_;

  std::vector<CnfLit> pendingUnits_;
  std::vector<CnfLit> unitQueue_;
  std::size_t unitHead_ = 0;  // next unitQueue_ entry to propagate

  // Scratch for elimPass/findGate (members to keep the allocations).
  // binByOther_: per literal index, the gate binary found for it, or
  // kNoClause; findGate leaves every slot at kNoClause.
  static constexpr std::uint32_t kNoClause = 0xffffffffu;
  std::vector<std::uint32_t> binByOther_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;

  Reconstructor recon_;
  InprocessStats stats_;
  std::uint64_t mutations_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t nextPoll_ = 0x8000;
  std::size_t bytes_ = 0;
  bool provedUnsat_ = false;
  bool stopped_ = false;
};

}  // namespace

void Reconstructor::pushEquivalence(std::uint32_t var, CnfLit rep) {
  VELEV_CHECK(rep != 0 &&
              static_cast<std::uint32_t>(std::abs(rep)) != var);
  steps_.push_back({var, rep, {}});
}

void Reconstructor::pushElimination(std::uint32_t var,
                                    std::vector<Clause> clauses) {
  steps_.push_back({var, 0, std::move(clauses)});
}

void Reconstructor::extend(std::vector<bool>& model) const {
  for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
    if (it->rep != 0) {
      const auto rv = static_cast<std::size_t>(std::abs(it->rep));
      VELEV_CHECK(rv < model.size() && it->var < model.size());
      model[it->var] = it->rep > 0 ? model[rv] : !model[rv];
      continue;
    }
    // Elimination witness: false satisfies every clause unless some clause
    // is left unsatisfied, in which case true does (all resolvents hold
    // under the model, so the polarity flip fixes every positive clause
    // without breaking a negative one).
    model[it->var] = false;
    for (const Clause& c : it->clauses) {
      bool sat = false;
      for (const CnfLit l : c) {
        const auto v = static_cast<std::size_t>(std::abs(l));
        VELEV_CHECK(v < model.size());
        if ((l > 0) == model[v]) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        model[it->var] = true;
        break;
      }
    }
  }
}

SimplifyResult inprocess(const prop::Cnf& in, const InprocessOptions& opts,
                         Proof* proof, BudgetGovernor* budget) {
  if (!opts.enabled) {
    // Exact pass-through (not even clause normalization), so --no-inprocess
    // reproduces the historical pipeline bit for bit.
    SimplifyResult out;
    out.cnf = in;
    out.stats.clausesBefore = out.stats.clausesAfter = in.clauses.size();
    return out;
  }
  Simplifier s(in, opts, proof, budget);
  return s.run();
}

Result solveCnfInprocessed(const prop::Cnf& cnf, const InprocessOptions& iopts,
                           std::vector<bool>* model, Stats* stats,
                           std::int64_t conflictBudget, Proof* proof,
                           BudgetGovernor* budget, InprocessStats* istats) {
  if (!iopts.enabled)
    return solveCnf(cnf, model, stats, conflictBudget, proof, budget);
  SimplifyResult sr = inprocess(cnf, iopts, proof, budget);
  if (istats != nullptr) *istats = sr.stats;
  // Even a provedUnsat simplification goes through solveCnf (the simplified
  // CNF contains the empty clause, so the call returns immediately): the
  // sat.solve span and the Stats are filled on every path.
  const Result r =
      solveCnf(sr.cnf, model, stats, conflictBudget, proof, budget);
  if (sr.provedUnsat) return Result::Unsat;
  if (r == Result::Sat && model != nullptr) sr.recon.extend(*model);
  return r;
}

}  // namespace velev::sat
