// Zero-cost-when-off tracing and metrics for the verification pipeline.
//
// The paper's headline claims are quantitative — Table 2's five orders of
// magnitude, Table 3's p-/g-term and e_ij counts, Table 5's rewrite
// statistics — so the pipeline must be able to say where time and memory go
// *inside* the TLSim -> EUFM -> EVC -> SAT flow, not just per run. This
// header provides:
//
//   * hierarchical spans — RAII guards (`TRACE_SPAN("translate.encode")`)
//     that record a named, nested wall-clock interval on the thread's
//     active Collector;
//   * named counters — `TRACE_COUNTER("evc.eij_vars", n)` accumulates,
//     `trace::counterSet` overwrites (for gauges like node counts);
//   * three sinks on Collector: a Chrome-trace JSON event stream
//     (chrome://tracing / Perfetto), a human-readable stage-time tree, and
//     a structured per-run manifest (writeManifest — schema documented in
//     docs/TRACE_FORMAT.md, versioned by kManifestSchemaVersion).
//
// ACTIVATION MODEL: tracing is attached per *thread*, not globally. A
// `trace::Use use(&collector);` scope makes `collector` the calling
// thread's sink; everything the pipeline records on that thread between
// construction and destruction lands there. This fits the grid runner's
// one-Context-per-cell ownership rule: each cell attaches its own
// Collector inside its worker task, so concurrent cells never share a
// sink and per-cell manifests stay exact. Collector itself is thread-safe
// (one mutex; spans are stage-grained, never per-node).
//
// ZERO-COST-WHEN-OFF: with no Collector attached, TRACE_SPAN and
// TRACE_COUNTER cost one thread-local pointer read and a predictable
// branch. Nothing allocates, nothing locks. The instrumented hot paths are
// stage boundaries and per-cycle/per-slice loops, never per-expression
// interning; bench/speedup_headline guards the < 2 % regression budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace velev::trace {

class Collector;

namespace detail {
/// Per-thread trace attachment. `depth` tracks live span nesting so events
/// carry their hierarchy level even under thread interleaving.
struct ThreadState {
  Collector* collector = nullptr;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
};
/// constinit: initialized at load time, so every access is a plain
/// thread-local read with no lazy-init wrapper call across translation
/// units (which UBSan reports as a null member access).
extern thread_local constinit ThreadState tlsState;
}  // namespace detail

/// The Collector attached to the calling thread, or nullptr (tracing off).
inline Collector* active() noexcept { return detail::tlsState.collector; }

/// One completed span: a named wall-clock interval on one thread, with its
/// nesting depth at the time it was opened. Times are microseconds since
/// the Collector's construction.
struct SpanEvent {
  const char* name;     // static string supplied to TRACE_SPAN
  std::uint32_t tid;    // dense per-Collector thread id (attach order)
  std::uint32_t depth;  // nesting level within the thread (0 = outermost)
  std::uint64_t startUs;
  std::uint64_t durUs;
  std::uint64_t seq;    // global append order (close order)
};

/// Thread-safe sink for spans and counters, and the owner of the three
/// output formats. Create one per traced run (one per grid cell), attach
/// it with trace::Use, and write the sinks after the run completes.
class Collector {
 public:
  Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // ---- recording (thread-safe) --------------------------------------------
  void addCounter(std::string_view name, std::uint64_t delta);
  /// Overwrite (last writer wins) — for gauges like "eufm.nodes".
  void setCounter(std::string_view name, std::uint64_t value);
  /// Keep the maximum seen — for high-water gauges.
  void maxCounter(std::string_view name, std::uint64_t value);

  // ---- inspection ----------------------------------------------------------
  std::uint64_t counter(std::string_view name) const;
  std::map<std::string, std::uint64_t> counters() const;
  std::vector<SpanEvent> spans() const;
  unsigned threadsSeen() const;

  /// Microseconds since this Collector was constructed.
  std::uint64_t nowUs() const;

  // ---- sinks ---------------------------------------------------------------
  /// Chrome trace-event JSON ({"traceEvents": [...]}), loadable in
  /// chrome://tracing and https://ui.perfetto.dev. Spans become complete
  /// ("ph":"X") events; final counter values become one counter ("ph":"C")
  /// sample each at the end of the timeline.
  void writeChromeTrace(std::ostream& os) const;

  /// Human-readable stage-time tree: spans aggregated by hierarchical path
  /// (merged across threads, with invocation counts), then the counters.
  void writeStageTree(std::ostream& os) const;

 private:
  friend class Span;
  friend class Use;

  std::uint32_t registerThread();
  void record(const char* name, std::uint32_t tid, std::uint32_t depth,
              std::uint64_t startUs, std::uint64_t durUs);

  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanEvent> spans_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::uint32_t nextTid_ = 0;
  std::uint64_t nextSeq_ = 0;
};

/// RAII attachment of a Collector to the calling thread. Restores the
/// previous attachment (usually none) on destruction, so scopes nest.
/// Passing nullptr is a no-op scope — convenient for forwarding a parent
/// thread's possibly-absent collector into worker threads.
class Use {
 public:
  explicit Use(Collector* c) : saved_(detail::tlsState) {
    if (c == nullptr) return;
    // Re-attaching the thread's current collector keeps its tid and depth,
    // so spans keep nesting under a nested Use on the same thread.
    if (detail::tlsState.collector == c) return;
    detail::tlsState.collector = c;
    detail::tlsState.tid = c->registerThread();
    detail::tlsState.depth = 0;
  }
  ~Use() { detail::tlsState = saved_; }
  Use(const Use&) = delete;
  Use& operator=(const Use&) = delete;

 private:
  detail::ThreadState saved_;
};

/// RAII span guard; use via TRACE_SPAN. `name` must be a static string
/// (it is stored by pointer — no allocation on the recording path).
class Span {
 public:
  explicit Span(const char* name) {
    Collector* c = active();
    if (c == nullptr) return;
    c_ = c;
    name_ = name;
    startUs_ = c->nowUs();
    depth_ = detail::tlsState.depth++;
  }
  ~Span() {
    if (c_ == nullptr) return;
    --detail::tlsState.depth;
    c_->record(name_, detail::tlsState.tid, depth_, startUs_,
               c_->nowUs() - startUs_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Collector* c_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t startUs_ = 0;
  std::uint32_t depth_ = 0;
};

inline void counterAdd(const char* name, std::uint64_t delta) {
  if (Collector* c = active()) c->addCounter(name, delta);
}
inline void counterSet(const char* name, std::uint64_t value) {
  if (Collector* c = active()) c->setCounter(name, value);
}
inline void counterMax(const char* name, std::uint64_t value) {
  if (Collector* c = active()) c->maxCounter(name, value);
}

// ---- run manifests ----------------------------------------------------------

/// Version of the manifest.json schema (the "schema_version" field).
/// Bump on any breaking change and document the migration in
/// docs/TRACE_FORMAT.md.
constexpr int kManifestSchemaVersion = 1;

/// `git describe --always --dirty` of the tree this binary was configured
/// from ("unknown" outside a git checkout) — baked in at configure time so
/// every manifest records its provenance.
const char* gitDescribe();

/// Everything a per-run manifest records besides the live trace counters.
/// support/ cannot name core::Verdict or the model configs, so the caller
/// flattens them into strings/numbers; core::cellManifestData() does this
/// for verification cells.
struct ManifestData {
  std::string tool;                   // e.g. "velev_verify", a bench name
  /// Free-form configuration block ("rob_size": "8", "strategy": ...);
  /// numeric-looking values are emitted as JSON numbers.
  std::vector<std::pair<std::string, std::string>> config;
  double budgetWallSeconds = 0;       // 0 = unlimited
  std::uint64_t budgetMemoryBytes = 0;
  std::int64_t budgetSatConflicts = -1;
  std::string verdict;
  std::string reason;                 // omitted when empty
  std::vector<std::pair<std::string, double>> stageSeconds;
  std::uint64_t peakArenaBytes = 0;
  std::uint64_t rssHighWaterKb = 0;
  /// Paper-aligned counter block (core::reportCounters). Merged with the
  /// collector's live counters; on a name collision these values win.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Write the versioned per-run manifest. `collector` may be null (manifest
/// without a live trace, e.g. from the benches); when given, its counters
/// are merged under "counters" and its span total under "traced_threads".
void writeManifest(std::ostream& os, const ManifestData& m,
                   const Collector* collector);

}  // namespace velev::trace

// Span/counter convenience macros. TRACE_SPAN opens a scope-long span on
// the thread's active collector; both compile to a thread-local read and a
// branch when tracing is off.
#define VELEV_TRACE_CAT2(a, b) a##b
#define VELEV_TRACE_CAT(a, b) VELEV_TRACE_CAT2(a, b)
#define TRACE_SPAN(name) \
  ::velev::trace::Span VELEV_TRACE_CAT(velevTraceSpan_, __LINE__)(name)
#define TRACE_COUNTER(name, delta) ::velev::trace::counterAdd(name, delta)
