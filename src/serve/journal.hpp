// Append-only on-disk journal of the velev_serve ResultCache.
//
// Purpose: a daemon restart keeps its warm set. Every cacheable fulfill is
// appended as an immutable SEGMENT file (support/atomic_file.hpp, shared
// with the grid checkpoint: a .tmp sibling renamed into place only once the
// whole write succeeded), and startup replays every readable segment into
// ResultCache::seed(). The unit of durability is the segment: a corrupt or
// truncated segment — a daemon killed mid-write or a failed write never
// leaves one, but a torn disk might — is skipped
// wholesale and its entries simply degrade to cold cache misses. Nothing
// ever fails loudly on load; the journal is an optimization, not a store
// of record.
//
// SEGMENT FORMAT (schema-versioned; docs/SERVICE.md):
//   {"version": 1,
//    "git_describe": "<trace::gitDescribe() of the writer>",
//    "entries": [{"key": "<16 hex digits>", "response": {...}}, ...]}
// Keys are VerifyRequest::cacheKey() in hex — they already fold in the
// code version, and the git_describe header double-checks it: a segment
// written by a different binary is skipped entirely (its keys could never
// match anyway). Responses are verbatim schema-v1 VerifyResponse objects;
// strict parsing applies, so a response from a future schema degrades to
// cold instead of being misread.
//
// POLICY: wall-clock Timeout verdicts and error responses are never
// persisted — enforced both on append() and (belt and braces) on load().
// Everything the in-memory cache may store, the journal may store.
//
// One segment per append keeps appends atomic without a write-ahead log;
// when the directory accumulates more than `compactThreshold` segments,
// the journal folds every live entry into one fresh segment and deletes
// the rest (under the same lock, so concurrent appends serialize behind
// it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/request.hpp"

namespace velev::serve {

class CacheJournal {
 public:
  /// Bump on any breaking segment-format change; document the migration in
  /// docs/SERVICE.md.
  static constexpr int kJournalSchemaVersion = 1;

  struct Options {
    std::string dir;                    // created if missing
    std::size_t compactThreshold = 64;  // fold segments beyond this count
  };

  struct LoadStats {
    std::size_t segments = 0;         // segment files seen
    std::size_t skippedSegments = 0;  // unreadable/corrupt/stale ones
    std::size_t entries = 0;          // responses restored
    std::size_t skippedEntries = 0;   // bad/uncacheable entries dropped
  };

  explicit CacheJournal(Options opts);

  /// Replay the directory: every readable, version- and git-matching
  /// segment contributes its entries (later segments win on duplicate
  /// keys). Also primes the in-memory live set that compaction rewrites.
  std::vector<std::pair<std::uint64_t, core::VerifyResponse>> load(
      LoadStats* stats = nullptr);

  /// Durably append one cacheable response as its own atomic segment.
  /// Timeout verdicts and error responses are refused (no-op). Thread-safe.
  void append(std::uint64_t key, const core::VerifyResponse& resp);

  /// Segment files currently on disk (after the last append/compact).
  std::size_t segmentCount() const;

 private:
  bool writeSegmentLocked(
      const std::vector<std::pair<std::uint64_t, core::VerifyResponse>>&
          entries);
  void compactLocked();

  Options opts_;
  mutable std::mutex mutex_;
  std::uint64_t nextSegment_ = 1;
  std::size_t segmentsOnDisk_ = 0;
  /// Every live (key, response) pair — what a compaction rewrites.
  std::vector<std::pair<std::uint64_t, core::VerifyResponse>> live_;
};

}  // namespace velev::serve
