// ShadowContext — a read-through hash-consing overlay on a frozen Context.
//
// The rewrite slice checks (Sect. 6) intern scratch expressions — the
// merged retire/completion ITEs and the case-split substitution results —
// that the final rebuild never reuses. A ShadowContext gives each slice
// (and, when the slice loop is parallelized, each worker) a private arena
// for that scratch:
//
//   * every id below `base().numNodes()` denotes the base context's node,
//     read through const accessors only (the base must not be mutated while
//     any shadow over it is alive — the one-Context-per-cell rule extended
//     to "one frozen base, many read-only overlays");
//   * new structure is hash-consed locally with ids starting at
//     `base().numNodes()`, so shadow ids and base ids share one address
//     space and compare directly;
//   * construction is canonical in exactly the same way as in Context: a
//     structurally built expression resolves to the base node when all its
//     arguments do (the builders probe the base table first via
//     Context::find), and can never collide with a base node otherwise —
//     so equality checks against base-held expressions are exact.
//
// Discarding the shadow discards the scratch; repeated slice checks no
// longer grow the main arena. Budgeting goes through the shared
// BudgetGovernor using a caller-provided per-worker source slot.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "eufm/expr.hpp"

namespace velev {
class BudgetGovernor;
}  // namespace velev

namespace velev::eufm {

class ShadowContext {
 public:
  /// `base` must outlive the shadow and stay frozen (no interning) while
  /// the shadow is in use. `governor`/`source` wire the overlay into the
  /// shared budget; `source` is typically one registered slot per worker,
  /// zeroed by the worker between slices.
  explicit ShadowContext(const Context& base, BudgetGovernor* governor = nullptr,
                         int source = -1)
      : base_(base), baseN_(static_cast<Expr>(base.numNodes())),
        budget_(governor), budgetSource_(source) {
    table_.assign(256, kNoExpr);
  }
  ShadowContext(const ShadowContext&) = delete;
  ShadowContext& operator=(const ShadowContext&) = delete;

  const Context& base() const { return base_; }

  // ---- Constants (always base nodes) ---------------------------------------
  Expr mkTrue() const { return base_.mkTrue(); }
  Expr mkFalse() const { return base_.mkFalse(); }

  // ---- Accessors (transparent across the base/local split) -----------------
  Kind kind(Expr e) const {
    return e < baseN_ ? base_.kind(e) : nodes_[e - baseN_].kind;
  }
  Sort sort(Expr e) const { return sortOf(kind(e)); }
  bool isFormula(Expr e) const { return sort(e) == Sort::Formula; }
  bool isTerm(Expr e) const { return sort(e) == Sort::Term; }
  bool isVar(Expr e) const {
    const Kind k = kind(e);
    return k == Kind::BoolVar || k == Kind::TermVar;
  }
  bool isIte(Expr e) const {
    const Kind k = kind(e);
    return k == Kind::IteF || k == Kind::IteT;
  }
  std::span<const Expr> args(Expr e) const {
    if (e < baseN_) return base_.args(e);
    const Node& n = nodes_[e - baseN_];
    return {argPool_.data() + n.argsOfs, n.nargs};
  }
  Expr arg(Expr e, unsigned i) const {
    if (e < baseN_) return base_.arg(e, i);
    const Node& n = nodes_[e - baseN_];
    VELEV_CHECK(i < n.nargs);
    return argPool_[n.argsOfs + i];
  }
  FuncId funcOf(Expr e) const {
    if (e < baseN_) return base_.funcOf(e);
    const Kind k = kind(e);
    VELEV_CHECK(k == Kind::Uf || k == Kind::Up);
    return nodes_[e - baseN_].sym;
  }

  /// Total visible nodes (base + local) and the local scratch alone.
  std::size_t numNodes() const { return baseN_ + nodes_.size(); }
  std::size_t localNodes() const { return nodes_.size(); }

  /// Logical bytes owned by the overlay itself (what a worker reports to
  /// the governor; the base's bytes are reported by its own source).
  std::size_t memoryBytes() const {
    return nodes_.capacity() * sizeof(Node) +
           argPool_.capacity() * sizeof(Expr) +
           table_.capacity() * sizeof(Expr);
  }

  // ---- Builders (mirror Context's canonicalization exactly) ----------------
  // Keep these in lock-step with Context::mk*: the parallel slice checker's
  // determinism argument needs identical folding on both sides of the
  // base/local split.
  Expr apply(FuncId f, std::span<const Expr> args);
  Expr apply(FuncId f, std::initializer_list<Expr> args) {
    return apply(f, std::span<const Expr>(args.begin(), args.size()));
  }
  Expr mkNot(Expr f);
  Expr mkAnd(Expr a, Expr b);
  Expr mkOr(Expr a, Expr b);
  Expr mkAnd(std::span<const Expr> fs);
  Expr mkOr(std::span<const Expr> fs);
  Expr mkImplies(Expr a, Expr b) { return mkOr(mkNot(a), b); }
  Expr mkIff(Expr a, Expr b) { return mkIteF(a, b, mkNot(b)); }
  Expr mkEq(Expr lhs, Expr rhs);
  Expr mkIteF(Expr c, Expr t, Expr e);
  Expr mkIteT(Expr c, Expr t, Expr e);
  Expr mkRead(Expr mem, Expr addr);
  Expr mkWrite(Expr mem, Expr addr, Expr data);

 private:
  Expr intern(Kind k, std::uint32_t sym, std::span<const Expr> args);
  void growTable();
  std::uint64_t localHash(Kind k, std::uint32_t sym,
                          std::span<const Expr> args) const;
  bool localEquals(std::uint32_t localIdx, Kind k, std::uint32_t sym,
                   std::span<const Expr> args) const;

  const Context& base_;
  const Expr baseN_;

  std::vector<Node> nodes_;    // local nodes; id = baseN_ + index
  std::vector<Expr> argPool_;  // local argument pool (ids may point anywhere)
  std::vector<Expr> table_;    // open addressing over LOCAL ids only
  std::size_t tableCount_ = 0;

  BudgetGovernor* budget_ = nullptr;
  int budgetSource_ = -1;
  std::uint32_t budgetTick_ = 0;
};

}  // namespace velev::eufm
