// The serializable request/response surface of the verification pipeline.
//
// core::VerifyRequest is the single, schema-versioned description of "one
// verification cell": processor configuration (ROB size, issue width,
// injected bug), strategy, decision engine, UF scheme, resource budget and
// the pipeline toggles that used to travel as scattered VerifyOptions +
// N/width + CLI-flag plumbing. One VerifyRequest round-trips through JSON
// (support/json.hpp), so the same value drives
//
//   * the in-process API          verify(const VerifyRequest&)
//   * the grid runner             runGrid(std::span<const VerifyRequest>,..)
//   * the velev_verify CLI        (flags -> request; --connect sends it)
//   * the velev_serve daemon      (newline-delimited requests on a socket)
//   * the replay bench            bench/serve_replay.cpp
//
// core::VerifyResponse is the matching wire answer: the full
// VerifyReport::Outcome (verdict, reason, failed slice, stage seconds,
// resource accounting) plus the canonical paper-aligned counter block
// (core::reportCounters) and the shared exit-code mapping.
//
// SCHEMA DISCIPLINE (kRequestSchemaVersion / kResponseSchemaVersion = 1):
//   * every message carries "version"; parsing rejects missing or
//     mismatched versions (no silent forward compatibility);
//   * parsing rejects unknown fields — a typo'd option must fail loudly,
//     not silently verify the default configuration;
//   * all fields except "version" are optional with the documented
//     defaults, and enum-valued fields use the stable names of the
//     support/names.hpp registry ("rw+pe", "sat", "fwd", ...).
// The wire format is documented in docs/SERVICE.md.
//
// CACHE KEY: cacheKey() hashes the canonical JSON encoding of everything
// that determines the result (id excluded) together with
// trace::gitDescribe(), so the velev_serve result cache is content
// addressed: same cell + same code => same key; any semantic field or a
// rebuilt binary changes it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/verifier.hpp"
#include "support/json.hpp"

namespace velev::core {

/// Version of the VerifyRequest JSON schema (the "version" field). Bump on
/// any breaking change and document the migration in docs/SERVICE.md.
constexpr int kRequestSchemaVersion = 1;

/// Version of the VerifyResponse JSON schema.
constexpr int kResponseSchemaVersion = 1;

struct VerifyRequest {
  /// Client-chosen request id, echoed verbatim in the response so clients
  /// can pipeline requests on one connection. Not part of the cache key.
  std::uint64_t id = 0;

  // -- the verification cell --------------------------------------------------
  unsigned robSize = 8;      // "rob_size"
  unsigned issueWidth = 2;   // "issue_width"
  models::BugSpec bug;       // "bug_kind" / "bug_index"

  // -- how to verify it -------------------------------------------------------
  Strategy strategy = Strategy::RewritingPlusPositiveEquality;  // "strategy"
  Engine engine = Engine::Sat;                                  // "engine"
  evc::UfScheme ufScheme = evc::UfScheme::NestedIte;            // "uf_scheme"
  bool skipSat = false;          // "skip_sat": stop after translation
  bool coneOfInfluence = true;   // "cone_of_influence"
  bool inprocess = true;         // "inprocess": SAT simplification front end

  // -- resource budget (ResourceBudget semantics) -----------------------------
  double timeoutSeconds = 0;          // "timeout_seconds"; <= 0 unlimited
  std::uint64_t memoryBudgetBytes = 0;  // "memory_budget_bytes"; 0 unlimited
  std::int64_t satConflictBudget = -1;  // "sat_conflict_budget"; <0 unlimited

  models::OoOConfig config() const { return {robSize, issueWidth}; }

  ResourceBudget budget() const {
    ResourceBudget b;
    b.wallSeconds = timeoutSeconds;
    b.memoryBytes = static_cast<std::size_t>(memoryBudgetBytes);
    b.satConflicts = satConflictBudget;
    return b;
  }

  /// Expand into the low-level options struct verifyWith() consumes. The
  /// expansion is total: every VerifyRequest field lands in the options.
  VerifyOptions options() const;

  /// Sanity-check field ranges (robSize >= 1, 1 <= issueWidth <= robSize,
  /// bug index within models::bugIndexLimit). Returns nullopt when valid,
  /// else a one-line diagnostic.
  std::optional<std::string> validate() const;

  // -- JSON -------------------------------------------------------------------
  /// Emit as a JSON object. `includeId` excludes the id for canonical
  /// (cache-key) encodings. Fields equal to their defaults are emitted
  /// anyway — the canonical form is explicit, which keeps cache keys stable
  /// against default changes.
  void writeJson(JsonWriter& w, bool includeId = true) const;
  std::string toJson(bool includeId = true) const;

  /// Parse one request object. Rejects missing/mismatched "version",
  /// unknown fields, unknown enum names and out-of-range values; on
  /// failure returns nullopt with a one-line reason in `error`.
  static std::optional<VerifyRequest> fromJson(const JsonValue& v,
                                               std::string* error = nullptr);
  static std::optional<VerifyRequest> parse(std::string_view text,
                                            std::string* error = nullptr);

  // -- content addressing -----------------------------------------------------
  /// 64-bit content hash of the canonical JSON (id excluded) mixed with
  /// trace::gitDescribe() — the velev_serve cache key.
  std::uint64_t cacheKey() const;
  /// cacheKey() as 16 lower-case hex digits (the wire "cache_key" field).
  std::string cacheKeyHex() const;

  friend bool operator==(const VerifyRequest& a, const VerifyRequest& b) {
    return a.toJson() == b.toJson();
  }
};

struct VerifyResponse {
  std::uint64_t id = 0;     // echo of VerifyRequest::id
  /// Non-empty => the request failed before verification (parse error,
  /// validation error, server shutting down). Only version/id/error/
  /// exitCode are meaningful then; exitCode is 2 (usage error).
  std::string error;
  /// True when this answer came from the result cache or coalesced onto an
  /// already-running identical job instead of a fresh verification.
  bool cached = false;
  std::string cacheKey;     // VerifyRequest::cacheKeyHex() of the request

  Verdict verdict = Verdict::Inconclusive;
  std::string reason;       // budget-trip / mismatch text; may be empty
  unsigned failedSlice = 0; // RewriteMismatch only
  int exitCode = 3;         // core::verdictExitCode(verdict), or 2 on error

  double wallSeconds = 0;   // server-side end-to-end wall time of the job
  StageSeconds seconds;
  std::uint64_t peakArenaBytes = 0;
  std::uint64_t rssHighWaterKb = 0;
  /// Canonical paper-aligned counter block (core::reportCounters).
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  /// Flatten a finished report into the wire answer.
  static VerifyResponse fromReport(const VerifyRequest& req,
                                   const VerifyReport& rep,
                                   double wallSeconds);
  /// The error answer (exitCode 2).
  static VerifyResponse makeError(std::uint64_t id, std::string message);

  void writeJson(JsonWriter& w) const;
  std::string toJson() const;
  static std::optional<VerifyResponse> fromJson(const JsonValue& v,
                                                std::string* error = nullptr);
  static std::optional<VerifyResponse> parse(std::string_view text,
                                             std::string* error = nullptr);
};

/// Inverse of VerifyResponse::fromReport(): rebuild the report a stored
/// response was flattened from, typed stat sub-structs included, so a
/// restored result answers the same questions a fresh one does.
/// reportCounters() of the result equals the response's counter block
/// (derived counters are recomputed from their restored terms). `engine`
/// comes from the request, which the response's cache key covers.
VerifyReport reportFromResponse(const VerifyResponse& resp, Engine engine);

/// Verify the cell a request describes — the primary entry point of the
/// library since the velev_serve API redesign. `memo` optionally consults a
/// content-addressed solve memo first (the serve worker's batching lane —
/// identical CNFs replay one finished solve, stats and all); it is never
/// part of the serialized request.
VerifyReport verify(const VerifyRequest& req, sat::SolveMemo* memo = nullptr);

}  // namespace velev::core
