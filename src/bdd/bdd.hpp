// Shared reduced ordered BDDs (ROBDDs) with complement edges: the second
// propositional decision engine, beside CNF + SAT.
//
// The method's lineage explicitly compares BDD-based and SAT-based
// evaluation of the same e_ij-encoded correctness formulas (Bryant–German–
// Velev; Bryant–Velev, "Boolean Satisfiability with Transitivity
// Constraints"), so the repository carries a from-scratch BDD package as a
// genuinely independent implementation: `core::Engine::Both` runs it beside
// the SAT flow and treats any verdict disagreement as a hard error.
//
// Representation (Brace–Rudell–Bryant):
//   * a BddRef packs (node index << 1) | complement, so negation is free;
//   * node 0 is the single TRUE terminal — kTrue = 0 and kFalse = 1 (note
//     this is the *opposite* polarity convention from prop::PLit, whose
//     node 0 is FALSE);
//   * only the else (lo) edge of a node may be complemented; the then (hi)
//     edge is always regular. Consequence: every regular ref evaluates to 1
//     under the all-ones assignment.
//
// Facilities: per-variable unique subtables (canonicity), ITE with a lossy
// computed-table cache, and protect()/unprotect() roots with mark-and-sweep
// garbage collection. The variable order is fixed: a variable's level is
// its index, so callers choose the order by the sequence of mkVar() calls.
// GC never runs inside an ITE — callers run it at their own safe points
// (between operations) once gcPending() says the table has doubled since
// the last sweep.
//
// Resource governance mirrors prop::PropCtx: attach a BudgetGovernor and
// node allocation checkpoints the package's logical bytes on a stride —
// deterministic MemOut on an arena budget, Timeout on a deadline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace velev {
class BudgetGovernor;
}  // namespace velev

namespace velev::bdd {

/// (node index << 1) | complement. Node 0 is the TRUE terminal.
using BddRef = std::uint32_t;

constexpr BddRef kTrue = 0;
constexpr BddRef kFalse = 1;

constexpr BddRef negate(BddRef r) { return r ^ 1u; }
constexpr std::uint32_t nodeOf(BddRef r) { return r >> 1; }
constexpr bool isComplement(BddRef r) { return (r & 1u) != 0; }

/// Lifetime statistics of one manager (monotone; survive GC).
struct BddStats {
  std::uint64_t nodesPeak = 0;     // high-water mark of live node count
  std::uint64_t cacheLookups = 0;  // computed-table probes
  std::uint64_t cacheHits = 0;
  std::uint64_t gcRuns = 0;
  std::uint64_t nodesFreed = 0;    // nodes reclaimed across all GC runs
};

class BddManager {
 public:
  BddManager();
  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;

  // ---- variables -----------------------------------------------------------
  /// Allocate a fresh variable, appended at the bottom of the order.
  /// Returns its index (dense, 0-based), which is also its level.
  unsigned mkVar();
  unsigned numVars() const { return static_cast<unsigned>(subtables_.size()); }
  /// Projection function of variable v.
  BddRef varRef(unsigned v);

  // ---- construction --------------------------------------------------------
  BddRef ite(BddRef f, BddRef g, BddRef h);
  BddRef mkAnd(BddRef a, BddRef b) { return ite(a, b, kFalse); }
  BddRef mkOr(BddRef a, BddRef b) { return ite(a, kTrue, b); }
  BddRef mkXor(BddRef a, BddRef b) { return ite(a, negate(b), b); }

  // ---- structure -----------------------------------------------------------
  bool isTerminal(BddRef r) const { return nodeOf(r) == 0; }
  unsigned varOf(BddRef r) const { return nodes_[nodeOf(r)].var; }
  /// Stored cofactors of the *positive* node (complement of r not applied).
  BddRef lo(BddRef r) const { return nodes_[nodeOf(r)].lo; }
  BddRef hi(BddRef r) const { return nodes_[nodeOf(r)].hi; }

  /// Evaluate under a full assignment indexed by variable index.
  bool eval(BddRef r, const std::vector<bool>& assignment) const;
  /// One path to TRUE as (variable, value) pairs; r must not be kFalse.
  /// Variables not on the path are unconstrained.
  std::vector<std::pair<unsigned, bool>> satOnePath(BddRef r) const;
  /// Nodes in the cone of r (the terminal excluded).
  std::uint64_t countNodes(BddRef r) const;

  // ---- garbage collection --------------------------------------------------
  /// Reference-counted external roots: a protected ref (and its cone)
  /// survives gc().
  void protect(BddRef r);
  void unprotect(BddRef r);
  /// Mark-and-sweep from the protected roots plus `extraRoots` (a caller's
  /// transient memo table, cheaper than protecting every entry); returns
  /// nodes freed. The computed cache is cleared (it may reference swept
  /// nodes). Every ref the caller still holds must be protected or listed
  /// in extraRoots.
  std::size_t gc(std::span<const BddRef> extraRoots = {});
  /// Has the table grown enough to warrant a gc() at the caller's next safe
  /// point? True once the node count reaches twice the live count after
  /// the last gc (floor kGcFloor), so back-to-back gcs always have at least
  /// half the table dead to reclaim. Callers with a transient memo table
  /// check this before materializing the extra-roots vector.
  bool gcPending() const {
    return liveNodes_ >= std::max<std::uint64_t>(
                             kGcFloor, std::uint64_t{lastGcLive_} * 2);
  }

  // ---- resource governance -------------------------------------------------
  /// Attach (or with nullptr, detach) a governor; node allocation then
  /// checkpoints this package's logical bytes on a stride. A budget trip
  /// unwinds as BudgetExceeded out of the ite() in flight; the manager
  /// stays consistent (fully linked nodes only, dead ones await GC).
  void setBudget(BudgetGovernor* governor);
  BudgetGovernor* budgetGovernor() const { return budget_; }
  /// Logical bytes owned by this manager (node arena + subtable buckets +
  /// computed cache). O(numVars).
  std::size_t memoryBytes() const;

  std::uint32_t liveNodes() const { return liveNodes_; }
  const BddStats& stats() const { return stats_; }

  /// Debug/test hook: walk every live node and re-check the structural
  /// invariants (regular hi edge, lo != hi, children strictly below,
  /// subtable membership and uniqueness). Throws InternalError on a
  /// violation; returns true otherwise.
  bool checkInvariants() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kTerminalVar = 0xffffffffu;
  static constexpr std::uint32_t kFreeVar = 0xfffffffeu;
  static constexpr std::uint32_t kGcFloor = 1u << 14;  // see gcPending()

  struct Node {
    std::uint32_t var = kTerminalVar;
    BddRef lo = kTrue;
    BddRef hi = kTrue;
    std::uint32_t next = kNil;  // unique-subtable bucket chain / free list
  };

  /// Per-variable unique table: open chaining on (lo, hi).
  struct SubTable {
    std::vector<std::uint32_t> buckets;  // node indices, kNil-terminated
    std::uint32_t count = 0;             // nodes currently labeled this var
  };

  struct CacheEntry {
    BddRef f = kNil, g = kNil, h = kNil, result = kNil;
  };

  /// Top variable of r. The terminal carries kTerminalVar, larger than any
  /// variable index, so it sits below every level.
  unsigned topVar(BddRef r) const { return nodes_[nodeOf(r)].var; }

  /// Reduced, canonical (var, lo, hi) node — handles the lo == hi collapse
  /// and pushes a complemented hi edge onto the result ref.
  BddRef mkNode(unsigned var, BddRef lo, BddRef hi);
  /// Hash-cons (var, lo, hi) with a regular hi edge.
  std::uint32_t intern(unsigned var, BddRef lo, BddRef hi);
  std::uint32_t allocNode();
  void growBuckets(SubTable& t);
  static std::size_t hashPair(BddRef lo, BddRef hi) {
    std::uint64_t x = (static_cast<std::uint64_t>(lo) << 32) | hi;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }

  /// Cofactor of f with respect to variable v.
  BddRef cofactor(BddRef f, unsigned v, bool value) const;

  void markCone(BddRef r, std::vector<std::uint8_t>& marks) const;
  void clearCache();
  void maybeGrowCache();
  void budgetCheckpoint();

  std::vector<Node> nodes_;
  std::vector<SubTable> subtables_;     // by variable index
  std::uint32_t freeHead_ = kNil;
  std::uint32_t liveNodes_ = 1;         // the terminal
  std::vector<CacheEntry> cache_;       // direct-mapped, lossy
  std::unordered_map<std::uint32_t, std::uint32_t> protected_;  // node -> count

  std::uint32_t lastGcLive_ = 1;        // live count after the last gc

  BudgetGovernor* budget_ = nullptr;
  int budgetSource_ = -1;
  std::uint32_t budgetTick_ = 0;

  BddStats stats_;
};

}  // namespace velev::bdd
