// The one on-disk store of finished verification results: an append-only
// directory of VerifyResponse segments, keyed by VerifyRequest::cacheKey().
//
// Two callers share it. The grid runner (GridRunOptions::checkpointPath)
// appends one record per finished verifyCell attempt and restores them on
// resume; velev_serve (ServerOptions::cacheDir) appends every cacheable
// fulfill and seeds its ResultCache from the store at startup.
//
// Every append is one immutable SEGMENT file, written through
// replaceFileAtomically() (support/atomic_file.hpp: a .tmp sibling renamed
// into place only once the whole write succeeded), and load() replays
// every readable segment. The unit of durability is the segment: a corrupt
// or truncated segment — a killed writer or a failed write never leaves
// one, but a torn disk might — is skipped wholesale and its entries simply
// degrade to cold misses. Nothing ever fails loudly on load; the store is
// an optimization, not a store of record.
//
// SEGMENT FORMAT (schema-versioned; docs/SCALING.md):
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
// POLICY: the store keeps whatever its caller appends, except error
// responses (refused on append and dropped on load). Which verdicts are
// worth keeping is the caller's decision: the grid keeps every verdict it
// finished, timeouts included; velev_serve appends no timeout and skips
// timeout records when it seeds its cache.
//
// One segment per append keeps appends atomic without a write-ahead log;
// when the directory accumulates more than `compactThreshold` segments,
// the store folds every live entry into one fresh segment and deletes the
// rest (under the same lock, so concurrent appends serialize behind it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/request.hpp"

namespace velev::core {

class ResultStore {
 public:
  /// Bump on any breaking segment-format change; document the migration in
  /// docs/SCALING.md.
  static constexpr int kSchemaVersion = 1;

  struct Options {
    std::string dir;                    // created if missing
    std::size_t compactThreshold = 64;  // fold segments beyond this count
  };

  struct LoadStats {
    std::size_t segments = 0;         // segment files seen
    std::size_t skippedSegments = 0;  // unreadable/corrupt/stale ones
    std::size_t entries = 0;          // responses restored
    std::size_t skippedEntries = 0;   // malformed/error entries dropped
  };

  explicit ResultStore(Options opts);

  /// Replay the directory: every readable, version- and git-matching
  /// segment contributes its entries (later segments win on duplicate
  /// keys). Also primes the segment numbering and the in-memory live set
  /// that compaction rewrites, so call it once before the first append().
  std::vector<std::pair<std::uint64_t, VerifyResponse>> load(
      LoadStats* stats = nullptr);

  /// Durably append one response as its own atomic segment. Error
  /// responses are refused (no-op). Returns true when the segment reached
  /// disk. Thread-safe.
  bool append(std::uint64_t key, const VerifyResponse& resp);

  /// Segment files currently on disk (after the last append/compact).
  std::size_t segmentCount() const;

 private:
  bool writeSegmentLocked(
      const std::vector<std::pair<std::uint64_t, VerifyResponse>>& entries);
  void compactLocked();

  Options opts_;
  mutable std::mutex mutex_;
  std::uint64_t nextSegment_ = 1;
  std::size_t segmentsOnDisk_ = 0;
  /// Every live (key, response) pair — what a compaction rewrites.
  std::vector<std::pair<std::uint64_t, VerifyResponse>> live_;
};

}  // namespace velev::core
