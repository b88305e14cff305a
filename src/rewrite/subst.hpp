// Guarded substitution utilities for the rewriting rules.
//
// `substituteShallow` replaces Boolean variables by constants (the
// ValidResult case split of Sect. 6) and rebuilds through the smart
// constructors, so guarded structure collapses (e.g. an execute condition
// containing ¬ValidResult_i folds to false when ValidResult_i := true).
// Crucially it does NOT descend into the memory argument of `read`: the
// prefix Register File states referenced by completion-function reads are
// handled by the prefix-correspondence argument, not by substitution — and
// leaving them untouched keeps the per-slice cost proportional to the slice,
// not to the whole formula.
//
// `substituteMem` replaces one specific memory-state subterm (a proven-equal
// prefix) by a fresh variable, again without descending into deeper read
// bases.
//
// Both are templated on the context type: the slice checks run them against
// a per-slice eufm::ShadowContext overlay (scratch discarded after the
// slice), while the rebuild phase runs substituteMem on the real Context.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "eufm/expr.hpp"

namespace velev::rewrite {

/// Assumptions for the case split: Boolean variable -> constant value.
using BoolAssumptions = std::unordered_map<eufm::Expr, bool>;

namespace detail {

/// Flat open-addressing Expr -> Expr map for one rebuild (linear probing,
/// kNoExpr marks an empty slot). A rebuild touches a handful to a few
/// hundred nodes, so one contiguous table beats node-based hashing.
class ExprMap {
 public:
  ExprMap() : slots_(64, {eufm::kNoExpr, eufm::kNoExpr}) {}

  /// The image of `key`, or kNoExpr if it has none yet.
  eufm::Expr find(eufm::Expr key) const {
    for (std::size_t s = slot(key);; s = (s + 1) & mask()) {
      if (slots_[s].first == key) return slots_[s].second;
      if (slots_[s].first == eufm::kNoExpr) return eufm::kNoExpr;
    }
  }
  bool contains(eufm::Expr key) const { return find(key) != eufm::kNoExpr; }

  /// Insert a new key (callers never re-insert one).
  void insert(eufm::Expr key, eufm::Expr value) {
    if (2 * (count_ + 1) > slots_.size()) grow();
    std::size_t s = slot(key);
    while (slots_[s].first != eufm::kNoExpr) s = (s + 1) & mask();
    slots_[s] = {key, value};
    ++count_;
  }

 private:
  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t slot(eufm::Expr key) const {
    return static_cast<std::size_t>(key * 0x9e3779b1u) & mask();
  }
  void grow() {
    std::vector<std::pair<eufm::Expr, eufm::Expr>> old(
        2 * slots_.size(), {eufm::kNoExpr, eufm::kNoExpr});
    old.swap(slots_);
    for (const auto& [k, v] : old) {
      if (k == eufm::kNoExpr) continue;
      std::size_t s = slot(k);
      while (slots_[s].first != eufm::kNoExpr) s = (s + 1) & mask();
      slots_[s] = {k, v};
    }
  }

  std::vector<std::pair<eufm::Expr, eufm::Expr>> slots_;
  std::size_t count_ = 0;
};

// Iterative postorder rebuild. Memory arguments of read/write are not
// traversed; they are transformed atomically by `memArg` (identity by
// default), which keeps the cost proportional to the data expression, not
// to the prefix memory states it reads from.
//
// A node none of whose mapped children changed is its own image: the smart
// constructors are deterministic in their arguments and every node was
// built by them, so re-applying one to a node's own arguments returns the
// node. Skipping that call leaves the result exact and interns nothing.
template <typename Cx, typename LeafFn, typename MemFn>
eufm::Expr rebuildFiltered(Cx& cx, eufm::Expr root, LeafFn&& leaf,
                           MemFn&& memArg) {
  using eufm::Expr;
  using eufm::Kind;
  ExprMap map;
  std::vector<std::pair<Expr, bool>> stack = {{root, false}};
  std::vector<Expr> mapped;
  while (!stack.empty()) {
    auto [e, expanded] = stack.back();
    stack.pop_back();
    if (map.contains(e)) continue;
    const Kind k = cx.kind(e);
    const bool memFirst = k == Kind::Read || k == Kind::Write;
    if (!expanded) {
      const Expr direct = leaf(e);
      if (direct != eufm::kNoExpr) {
        map.insert(e, direct);
        continue;
      }
      stack.emplace_back(e, true);
      const auto args = cx.args(e);
      for (std::size_t i = memFirst ? 1 : 0; i < args.size(); ++i)
        if (!map.contains(args[i])) stack.emplace_back(args[i], false);
      continue;
    }
    mapped.clear();
    bool changed = false;
    const auto args = cx.args(e);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const Expr m = memFirst && i == 0 ? memArg(args[i]) : map.find(args[i]);
      changed |= m != args[i];
      mapped.push_back(m);
    }
    Expr r = e;
    if (changed) {
      switch (k) {
        case Kind::Not: r = cx.mkNot(mapped[0]); break;
        case Kind::And: r = cx.mkAnd(mapped[0], mapped[1]); break;
        case Kind::Or: r = cx.mkOr(mapped[0], mapped[1]); break;
        case Kind::IteF: r = cx.mkIteF(mapped[0], mapped[1], mapped[2]); break;
        case Kind::IteT: r = cx.mkIteT(mapped[0], mapped[1], mapped[2]); break;
        case Kind::Eq: r = cx.mkEq(mapped[0], mapped[1]); break;
        case Kind::Up:
        case Kind::Uf: r = cx.apply(cx.funcOf(e), mapped); break;
        case Kind::Read: r = cx.mkRead(mapped[0], mapped[1]); break;
        case Kind::Write:
          r = cx.mkWrite(mapped[0], mapped[1], mapped[2]);
          break;
        default:
          VELEV_UNREACHABLE("unhandled kind in rebuild");
      }
    }
    map.insert(e, r);
  }
  return map.find(root);
}

template <typename Cx>
eufm::Expr keepLeaves(const Cx& cx, eufm::Expr e) {
  using eufm::Kind;
  switch (cx.kind(e)) {
    case Kind::True:
    case Kind::False:
    case Kind::TermVar:
    case Kind::BoolVar:
      return e;
    default:
      return eufm::kNoExpr;  // recurse
  }
}

}  // namespace detail

/// Rebuild `e` under `assume`, folding constants; read/write memory
/// arguments are kept verbatim.
template <typename Cx>
eufm::Expr substituteShallow(Cx& cx, eufm::Expr root,
                             const BoolAssumptions& assume) {
  using eufm::Expr;
  using eufm::Kind;
  return detail::rebuildFiltered(
      cx, root,
      [&](Expr e) -> Expr {
        if (cx.kind(e) == Kind::BoolVar) {
          auto it = assume.find(e);
          if (it != assume.end())
            return it->second ? cx.mkTrue() : cx.mkFalse();
          return e;
        }
        return detail::keepLeaves(cx, e);
      },
      [](Expr mem) { return mem; });
}

/// Rebuild `e` with every occurrence of memory state `from` replaced by
/// `to`; traversal does not descend below `from` and treats read/write
/// memory arguments other than `from` verbatim.
eufm::Expr substituteMem(eufm::Context& cx, eufm::Expr e, eufm::Expr from,
                         eufm::Expr to);

}  // namespace velev::rewrite
