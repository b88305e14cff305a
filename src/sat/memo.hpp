// Content-addressed memo of finished SAT solves — the one solve-reuse path.
//
// The memo recognizes BIT-IDENTICAL formulas and replays the finished
// result outright. The paper's Table 5 size-independence makes this the
// dominant effect for the serve batching lane: the rewritten correctness
// formula's CNF does not depend on the ROB size at a fixed issue width, so
// one solve serves a whole column of (N, k) requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "prop/cnf.hpp"
#include "sat/simplify.hpp"
#include "sat/solver.hpp"

namespace velev::sat {

/// Content-addressed memo of FINISHED solves: key = strong hash of the
/// exact CNF (variable count, clause list) plus the solve-relevant options
/// (inprocessing configuration, conflict budget). A hit replays the stored
/// Result and the per-call Stats/InprocessStats exactly as the original
/// fresh solve produced them — the solver is deterministic, so an
/// identical CNF under identical options would reproduce them bit for bit;
/// the memo just skips the work. This is what makes serve's batched
/// responses verdict- AND counter-identical to fresh single-request
/// verifies.
///
/// Only conclusive results are stored (never Unknown — a budget or
/// conflict-budget trip is a property of the run, not of the formula).
/// Bounded FIFO capacity; single-threaded by design (one memo per worker
/// process / per batch executor).
class SolveMemo {
 public:
  struct Entry {
    Result result = Result::Unknown;
    Stats stats;
    InprocessStats inprocessStats;
    bool inprocessed = false;
  };

  explicit SolveMemo(std::size_t maxEntries = 256)
      : maxEntries_(maxEntries == 0 ? 1 : maxEntries) {}

  /// Hash the exact formula + the options that could change the answer or
  /// the effort counters.
  static std::uint64_t key(const prop::Cnf& cnf, const InprocessOptions& iopts,
                           std::int64_t conflictBudget);

  /// nullptr on a miss; the pointer is invalidated by the next store().
  const Entry* find(std::uint64_t key) const;

  /// Remember one finished solve (Unknown results are refused).
  void store(std::uint64_t key, Entry entry);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }

 private:
  const std::size_t maxEntries_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::vector<std::uint64_t> order_;  // FIFO eviction ring
  mutable std::uint64_t hits_ = 0;
};

}  // namespace velev::sat
