#include "rewrite/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <sstream>
#include <vector>

#include "eufm/shadow.hpp"
#include "rewrite/contexts.hpp"
#include "rewrite/subst.hpp"
#include "rewrite/update_chain.hpp"
#include "support/budget.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev::rewrite {

using eufm::Context;
using eufm::Expr;
using eufm::Kind;
using eufm::kNoExpr;

namespace {

/// Signals a rule mismatch at a specific slice; converted to a RewriteResult
/// by the driver (a non-conforming slice is an expected outcome — a
/// potential bug report — not an internal error).
struct SliceMismatch {
  unsigned slice;  // 1-based
  std::string what;
};

/// Rule applications fired while checking one slice. Accumulated into the
/// engine-wide RewriteStats in slice order, so the totals are independent
/// of how slices were scheduled across workers.
struct SliceTally {
  unsigned merges = 0;
  unsigned forwarding = 0;
};

/// Result of checking one slice inside its private ShadowContext.
struct SliceOutcome {
  bool done = false;  // false = skipped past an earlier failing slice
  bool ok = true;
  unsigned slice = 0;  // 1-based when !ok
  std::string message;
  std::uint64_t nodes = 0;  // shadow-local scratch interned by the check
  SliceTally tally;
};

class Engine {
 public:
  Engine(Context& cx, const models::Isa& isa,
         const models::RobInitState& init, const models::OoOConfig& cfg,
         ThreadPool* pool)
      : cx_(cx), isa_(isa), init_(init), n_(cfg.robSize),
        k_(cfg.issueWidth), pool_(pool) {}

  RewriteResult run(Expr implRegFile, std::span<const Expr> specRegFile) {
    RewriteResult res;
    try {
      {
        TRACE_SPAN("rewrite.extract");
        extract(implRegFile, specRegFile);
      }
      {
        TRACE_SPAN("rewrite.contexts");
        checkContexts();
      }
      {
        TRACE_SPAN("rewrite.movability");
        checkMovability();
      }
      {
        TRACE_SPAN("rewrite.levels");
        checkSpecLevels();
      }
      {
        TRACE_SPAN("rewrite.slices");
        runSlices();
      }
      {
        TRACE_SPAN("rewrite.rebuild");
        rebuild(res, specRegFile.size());
      }
      res.ok = true;
      res.updatesRemoved = k_ + 2 * n_;
    } catch (const SliceMismatch& m) {
      res.ok = false;
      res.failedSlice = m.slice;
      res.message = m.what;
    }
    res.stats = stats_;
    return res;
  }

 private:
  [[noreturn]] static void fail(unsigned slice0 /*0-based*/,
                                const std::string& what) {
    throw SliceMismatch{slice0 + 1, what};
  }

  // ---- extraction -----------------------------------------------------------
  void extract(Expr implRegFile, std::span<const Expr> specRegFile) {
    VELEV_CHECK(specRegFile.size() == k_ + 1);
    impl_ = extractChain(cx_, implRegFile);
    if (impl_.base != init_.regFile)
      fail(0, "implementation update chain does not reach the initial "
              "Register File state");
    if (impl_.updates.size() != k_ + n_ + k_)
      fail(0, "unexpected number of implementation updates: got " +
                  std::to_string(impl_.updates.size()) + ", expected " +
                  std::to_string(k_ + n_ + k_));
    spec0_ = extractChainTo(cx_, specRegFile[0], init_.regFile);
    if (spec0_.updates.size() != n_)
      fail(0, "unexpected number of specification-side updates: got " +
                  std::to_string(spec0_.updates.size()) + ", expected " +
                  std::to_string(n_));
    // Specification steps m = 1..k extend specRegFile[0] one update at a
    // time.
    specSteps_.clear();
    for (unsigned m = 1; m <= k_; ++m) {
      UpdateChain c = extractChainTo(cx_, specRegFile[m], specRegFile[m - 1]);
      if (c.updates.size() != 1)
        fail(0, "specification step " + std::to_string(m) +
                    " is not a single update");
      specSteps_.push_back(c.updates[0]);
    }
  }

  const Update& retireUpd(unsigned i) const { return impl_.updates[i]; }
  const Update& flushUpd(unsigned i) const { return impl_.updates[k_ + i]; }
  const Update& newUpd(unsigned j) const {
    return impl_.updates[k_ + n_ + j];
  }
  const Update& specUpd(unsigned i) const { return spec0_.updates[i]; }

  // ---- rule: context structure ----------------------------------------------
  // Splits And(Valid_i, X) -> X, where Valid_i is the known variable.
  Expr splitValid(unsigned i, Expr ctx, const char* which) {
    if (cx_.kind(ctx) != Kind::And)
      fail(i, std::string(which) + " context is not a conjunction");
    const Expr a = cx_.arg(ctx, 0), b = cx_.arg(ctx, 1);
    if (a == init_.valid[i]) return b;
    if (b == init_.valid[i]) return a;
    fail(i, std::string(which) + " context does not include Valid_i");
  }

  void checkContexts() {
    retireCond_.assign(k_, kNoExpr);
    for (unsigned i = 0; i < k_; ++i) {
      const Update& r = retireUpd(i);
      if (r.addr != init_.dest[i])
        fail(i, "retire update address is not Dest_i");
      if (r.data != init_.result[i])
        fail(i, "retire update data is not Result_i");
      retireCond_[i] = splitValid(i, r.ctx, "retire");
      ++stats_.contextChecks;
    }
    for (unsigned i = 0; i < n_; ++i) {
      const Update& f = flushUpd(i);
      if (f.addr != init_.dest[i])
        fail(i, "completion update address is not Dest_i");
      if (i < k_) {
        const Expr notRetire = splitValid(i, f.ctx, "completion");
        if (notRetire != cx_.mkNot(retireCond_[i]))
          fail(i, "completion context is not Valid_i & !retire_i");
      } else {
        if (f.ctx != init_.valid[i])
          fail(i, "completion context is not Valid_i");
      }
      const Update& s = specUpd(i);
      if (s.addr != init_.dest[i])
        fail(i, "specification update address is not Dest_i");
      if (s.ctx != init_.valid[i])
        fail(i, "specification update context is not Valid_i");
      ++stats_.contextChecks;
    }
  }

  // ---- rule: movability -------------------------------------------------------
  // The completion update of instruction i (i < k) is moved down past the
  // retire updates of later instructions; every crossed pair must have
  // syntactically disjoint contexts.
  void checkMovability() {
    for (unsigned i = 0; i < k_; ++i) {
      for (unsigned j = i + 1; j < k_; ++j) {
        if (!disjointContexts(cx_, flushUpd(i).ctx, retireUpd(j).ctx))
          fail(i, "cannot move completion update of slice " +
                      std::to_string(i + 1) + " past retire update of slice " +
                      std::to_string(j + 1) +
                      ": contexts are not provably disjoint");
        ++stats_.movesApplied;
      }
    }
  }

  // ---- per-level fact -------------------------------------------------------
  // Rule 2.1 needs, at every level j a forwarding chain passes, that the
  // specification write at level j collapses to Result_j under
  // ValidResult_j. The answer depends on j alone, not on the slice whose
  // chain reaches j, so it is settled once per level here — N substitutions
  // instead of about N²/2 — in a throwaway shadow, so nothing is interned
  // into the main context.
  void checkSpecLevels() {
    BudgetGovernor* gov = cx_.budgetGovernor();
    const int slot = gov != nullptr ? gov->registerSource() : -1;
    specCollapses_.assign(n_, 0);
    {
      eufm::ShadowContext scx(cx_, gov, slot);
      for (unsigned j = 0; j < n_; ++j) {
        // The structural hit match below relies on these being distinct
        // Boolean variables (no constructor fold can apply to them).
        VELEV_CHECK(cx_.kind(init_.valid[j]) == Kind::BoolVar &&
                    cx_.kind(init_.validResult[j]) == Kind::BoolVar &&
                    init_.valid[j] != init_.validResult[j]);
        const BoolAssumptions vr1{{init_.validResult[j], true}};
        specCollapses_[j] =
            substituteShallow(scx, specUpd(j).data, vr1) == init_.result[j];
      }
    }
    if (gov != nullptr) gov->checkpoint(slot, 0);
  }

  // ---- slice scheduling -------------------------------------------------------
  // Every slice check runs inside a private ShadowContext overlay on the
  // (frozen) main context: the scratch expressions a check interns — merged
  // ITEs, case-split substitutions — are never reused by the rebuild, so
  // they are hash-consed locally and discarded with the slice. That makes
  // the checks embarrassingly parallel (the main context is only ever read)
  // and keeps the main arena from growing by O(slices × slice-size)
  // scratch.
  //
  // Determinism: each slice starts from an identical frozen base and runs
  // an identical builder-call sequence, so its outcome, tally, and local
  // node count do not depend on worker count or scheduling. Outcomes are
  // reduced in slice order; on a mismatch the lowest failing slice wins and
  // only the slices before it contribute to the stats — exactly the
  // sequential semantics.
  void runSlices() {
    BudgetGovernor* gov = cx_.budgetGovernor();
    std::vector<SliceOutcome> out(n_);
    const unsigned jobs =
        pool_ == nullptr ? 1u : std::min<unsigned>(pool_->size(), n_);
    if (jobs <= 1) {
      const int slot = gov != nullptr ? gov->registerSource() : -1;
      for (unsigned i = 0; i < n_; ++i) {
        checkSliceOutcome(i, gov, slot, out[i]);
        if (!out[i].ok) break;  // fail fast; merge stops here anyway
      }
    } else {
      TRACE_SPAN("rewrite.parallel.slices");
      trace::counterSet("rewrite.parallel.jobs", jobs);
      trace::counterAdd("rewrite.parallel.batches", 1);
      std::atomic<unsigned> next{0};
      // Lowest failing slice seen so far; slices above it are skipped (their
      // outcomes are never consumed), slices below it are always processed.
      std::atomic<unsigned> minFail{n_};
      std::mutex errMutex;
      std::exception_ptr firstError;
      auto worker = [&] {
        const int slot = gov != nullptr ? gov->registerSource() : -1;
        try {
          for (;;) {
            const unsigned i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_) break;
            if (i > minFail.load(std::memory_order_relaxed)) continue;
            checkSliceOutcome(i, gov, slot, out[i]);
            if (!out[i].ok) {
              unsigned cur = minFail.load(std::memory_order_relaxed);
              while (i < cur &&
                     !minFail.compare_exchange_weak(
                         cur, i, std::memory_order_relaxed)) {
              }
            }
          }
        } catch (...) {
          // BudgetExceeded (the trip is sticky, siblings stop at their next
          // checkpoint) or an internal error: surface the first one.
          std::lock_guard<std::mutex> lk(errMutex);
          if (!firstError) firstError = std::current_exception();
        }
      };
      std::vector<std::future<void>> futures;
      futures.reserve(jobs);
      for (unsigned w = 0; w < jobs; ++w) futures.push_back(pool_->submit(worker));
      for (auto& f : futures) f.get();
      if (firstError) std::rethrow_exception(firstError);
    }
    for (unsigned i = 0; i < n_; ++i) {
      const SliceOutcome& o = out[i];
      if (!o.done) break;  // only reachable past a recorded failure
      if (!o.ok) throw SliceMismatch{o.slice, o.message};
      stats_.sliceNodesTotal += o.nodes;
      stats_.sliceNodesMax = std::max(stats_.sliceNodesMax, o.nodes);
      stats_.mergesApplied += o.tally.merges;
      stats_.forwardingMatches += o.tally.forwarding;
      ++stats_.slicesChecked;
    }
  }

  /// One slice, one shadow. BudgetExceeded propagates (budget exhaustion is
  /// not a rule mismatch); a SliceMismatch is recorded in the outcome.
  void checkSliceOutcome(unsigned i, BudgetGovernor* gov, int slot,
                         SliceOutcome& o) {
    if (gov != nullptr) gov->checkpoint(-1, 0);
    eufm::ShadowContext scx(cx_, gov, slot);
    o.done = true;
    try {
      checkSliceData(scx, i, o.tally);
    } catch (const SliceMismatch& m) {
      o.ok = false;
      o.slice = m.slice;
      o.message = m.what;
    }
    o.nodes = scx.localNodes();
    // Zero this worker's slot: the shadow's scratch is freed with it.
    if (gov != nullptr) gov->checkpoint(slot, 0);
  }

  // ---- rule: data equality per slice -----------------------------------------
  // Templated on the context type: checks run against a per-slice
  // ShadowContext (or, in tests, directly against a Context). All node ids
  // referenced from members (init_, retireCond_, update chains) are base
  // ids and therefore valid in every shadow.
  template <typename Cx>
  void checkSliceData(Cx& cx, unsigned i, SliceTally& tally) const {
    // Merge the retire/completion updates (within the retire width) into a
    // single update under Valid_i with data ITE(retire_i, Result_i, ...).
    const Expr implData =
        i < k_ ? cx.mkIteT(retireCond_[i], init_.result[i], flushUpd(i).data)
               : flushUpd(i).data;
    if (i < k_) ++tally.merges;
    const Expr specData = specUpd(i).data;

    // Case 1: ValidResult_i = true — both sides must collapse to Result_i.
    {
      BoolAssumptions vr1{{init_.valid[i], true}, {init_.validResult[i], true}};
      const Expr di = substituteShallow(cx, implData, vr1);
      if (di != init_.result[i])
        fail(i, "implementation data does not collapse to Result_i when "
                "ValidResult_i holds");
      const Expr ds = substituteShallow(cx, specData, vr1);
      if (ds != init_.result[i])
        fail(i, "specification data does not collapse to Result_i when "
                "ValidResult_i holds");
    }

    // Case 2: ValidResult_i = false.
    BoolAssumptions vr0{{init_.valid[i], true}, {init_.validResult[i], false}};
    const Expr di = substituteShallow(cx, implData, vr0);
    const Expr ds = substituteShallow(cx, specData, vr0);

    const Expr pPrefix = flushUpd(i).prev;               // P_i
    const Expr qPrefix = specUpd(i).prev;                // Q_i
    // Specification side: ALU(Op_i, read(Q_i, Src1_i), read(Q_i, Src2_i)).
    if (ds != aluRead(cx, i, qPrefix))
      fail(i, "specification data is not the expected ALU application over "
              "reads from the specification prefix state");

    // Implementation side: either the pure completion computation, or an
    // ITE between the regular-cycle execution and the completion.
    if (di == aluRead(cx, i, pPrefix)) return;  // rule 2.2 alone
    if (cx.kind(di) != Kind::IteT)
      fail(i, "implementation data (ValidResult_i = false) has an "
              "unexpected shape");
    const Expr execCond = cx.arg(di, 0);
    const Expr execData = cx.arg(di, 1);
    const Expr flushData = cx.arg(di, 2);
    if (flushData != aluRead(cx, i, pPrefix))
      fail(i, "completion branch is not the expected ALU application over "
              "reads from the implementation prefix state (rule 2.2)");
    checkExecBranch(cx, i, execCond, execData, tally);
  }

  /// ALU(Op_i, read(state, Src1_i), read(state, Src2_i)).
  template <typename Cx>
  Expr aluRead(Cx& cx, unsigned i, Expr state) const {
    return cx.apply(isa_.alu,
                    {init_.opcode[i], cx.mkRead(state, init_.src1[i]),
                     cx.mkRead(state, init_.src2[i])});
  }

  // Rule 2.1: the instruction executed during the single regular cycle; its
  // forwarded operands must match the specification-side reads whenever the
  // dependencies_ok conditions (conjuncts of the execute condition) hold.
  template <typename Cx>
  void checkExecBranch(Cx& cx, unsigned i, Expr execCond, Expr execData,
                       SliceTally& tally) const {
    if (cx.kind(execData) != Kind::Uf ||
        cx.funcOf(execData) != isa_.alu ||
        cx.arg(execData, 0) != init_.opcode[i])
      fail(i, "regular-cycle execution result is not an ALU application "
              "on Opcode_i");
    const auto conj = conjuncts(cx, execCond);
    for (unsigned o = 0; o < 2; ++o) {
      const Expr src = o == 0 ? init_.src1[i] : init_.src2[i];
      const Expr fwd = cx.arg(execData, o + 1);
      if (!operandJustified(cx, i, fwd, src, conj, tally))
        fail(i, "forwarded operand " + std::to_string(o + 1) +
                    " cannot be matched against the specification-side "
                    "read (rule 2.1)");
    }
  }

  // Does some conjunct of the execute condition justify fwd == read(Q_i,
  // src)? The base case (no preceding writer consulted) needs no condition.
  template <typename Cx>
  bool operandJustified(Cx& cx, unsigned i, Expr fwd, Expr src,
                        const std::vector<Expr>& conj,
                        SliceTally& tally) const {
    if (matchForwarding(cx, i, fwd, kNoExpr, src)) {
      ++tally.forwarding;
      return true;
    }
    for (Expr c : conj)
      if (matchForwarding(cx, i, fwd, c, src)) {
        ++tally.forwarding;
        return true;
      }
    return false;
  }

  // Match the forwarding chain for slice i against the specification update
  // chain, level by level from the nearest preceding entry (j = i-1) down to
  // the initial Register File. At each level:
  //   fwd = ITE(hit_j, Result_j, rest),    hit_j = Valid_j & (Dest_j = src)
  //   ok  = ITE(hit_j, ValidResult_j, okRest)   (or the folded Or-form when
  //                                              okRest is TRUE)
  // and the specification write at level j must collapse to Result_j under
  // ValidResult_j (specCollapses_) — which `ok` guarantees exactly when the
  // forwarding selects level j. `ok == kNoExpr` requires the chain to be
  // hit-free. Everything is matched by node structure; nothing is interned.
  template <typename Cx>
  bool matchForwarding(const Cx& cx, unsigned i, Expr fwd, Expr ok,
                       Expr src) const {
    for (unsigned level = i; level-- > 0;) {
      if (cx.kind(fwd) != Kind::IteT ||
          !isHit(cx, cx.arg(fwd, 0), level, src) ||
          cx.arg(fwd, 1) != init_.result[level])
        return false;
      fwd = cx.arg(fwd, 2);
      // Peel the availability chain.
      if (ok == kNoExpr) return false;
      if (cx.kind(ok) == Kind::IteF &&
          isHit(cx, cx.arg(ok, 0), level, src) &&
          cx.arg(ok, 1) == init_.validResult[level]) {
        ok = cx.arg(ok, 2);
      } else if (isFoldedAvailability(cx, ok, level, src)) {
        ok = cx.mkTrue();  // folded innermost level: ITE(hit, VR, true)
      } else {
        return false;
      }
      if (!specCollapses_[level]) return false;
    }
    return cx.kind(fwd) == Kind::Read && cx.arg(fwd, 0) == init_.regFile &&
           cx.arg(fwd, 1) == src && (ok == kNoExpr || ok == cx.mkTrue());
  }

  // Is `c` the node mkAnd(Valid_j, mkEq(Dest_j, src)) would return? Hash-
  // consing is canonical (a shadow resolves to the base node first), so it
  // is exactly when `c` has that shape: an And of Valid_j with an Eq over
  // {Dest_j, src}, or Valid_j alone when Dest_j is src (mkEq folds to
  // true). Valid_j is a Boolean variable, so no other fold applies.
  template <typename Cx>
  bool isHit(const Cx& cx, Expr c, unsigned level, Expr src) const {
    const Expr valid = init_.valid[level], dest = init_.dest[level];
    if (dest == src) return c == valid;
    if (cx.kind(c) != Kind::And) return false;
    Expr a = cx.arg(c, 0), b = cx.arg(c, 1);
    if (b == valid) std::swap(a, b);
    if (a != valid || cx.kind(b) != Kind::Eq) return false;
    const Expr l = cx.arg(b, 0), r = cx.arg(b, 1);
    return (l == dest && r == src) || (l == src && r == dest);
  }

  // Is `ok` the node mkOr(mkNot(hit_j), ValidResult_j) would return? hit_j
  // is an And or Valid_j and ValidResult_j a different Boolean variable, so
  // neither constructor folds: it is an Or of ValidResult_j with Not(hit_j).
  template <typename Cx>
  bool isFoldedAvailability(const Cx& cx, Expr ok, unsigned level,
                            Expr src) const {
    if (cx.kind(ok) != Kind::Or) return false;
    const Expr vr = init_.validResult[level];
    Expr neg = cx.arg(ok, 0), other = cx.arg(ok, 1);
    if (neg == vr) std::swap(neg, other);
    return other == vr && cx.kind(neg) == Kind::Not &&
           isHit(cx, cx.arg(neg, 0), level, src);
  }

  // ---- removal and reconstruction (Fig. 2.b) ----------------------------------
  void rebuild(RewriteResult& res, std::size_t numSpec) {
    res.equalStateVar = cx_.freshTermVar("RegFile_equal_state");

    // Implementation side: the k updates of the newly fetched instructions,
    // re-based onto the common equal state.
    Expr cur = res.equalStateVar;
    for (unsigned j = 0; j < k_; ++j) {
      const Update& u = newUpd(j);
      const Expr data = substituteMem(cx_, u.data, u.prev, cur);
      const Expr ctx = substituteMem(cx_, u.ctx, u.prev, cur);
      cur = cx_.mkIteT(ctx, cx_.mkWrite(cur, u.addr, data), cur);
    }
    res.implRegFile = cur;

    // Specification side: m = 0 is the equal state itself; each further
    // step re-bases one specification update.
    res.specRegFile.assign(numSpec, kNoExpr);
    res.specRegFile[0] = res.equalStateVar;
    cur = res.equalStateVar;
    for (unsigned m = 1; m < numSpec; ++m) {
      const Update& u = specSteps_[m - 1];
      const Expr data = substituteMem(cx_, u.data, u.prev, cur);
      const Expr ctx = substituteMem(cx_, u.ctx, u.prev, cur);
      cur = cx_.mkIteT(ctx, cx_.mkWrite(cur, u.addr, data), cur);
      res.specRegFile[m] = cur;
    }
  }

  Context& cx_;
  const models::Isa& isa_;
  const models::RobInitState& init_;
  const unsigned n_;
  const unsigned k_;
  ThreadPool* pool_;

  UpdateChain impl_;
  UpdateChain spec0_;
  std::vector<Update> specSteps_;
  std::vector<Expr> retireCond_;  // retire_i, split out of the contexts
  std::vector<char> specCollapses_;  // per level: see checkSpecLevels()
  RewriteStats stats_;
};

}  // namespace

RewriteResult rewriteRobUpdates(Context& cx, const models::Isa& isa,
                                const models::RobInitState& init,
                                const models::OoOConfig& cfg,
                                Expr implRegFile,
                                std::span<const Expr> specRegFile,
                                ThreadPool* pool) {
  Engine engine(cx, isa, init, cfg, pool);
  return engine.run(implRegFile, specRegFile);
}

}  // namespace velev::rewrite
