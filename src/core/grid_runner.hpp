// Parallel grid runner: fan the Burch–Dill verification of independent
// (ROB size, issue width) configurations out across cores.
//
// The paper's evaluation (Tables 1-5) is a grid of configurations that are
// completely independent of each other — embarrassingly parallel. Each grid
// cell is one pool task that builds its OWN `eufm::Context`, its own
// processor models, and runs the full verify() pipeline inside the task.
//
// THREAD-OWNERSHIP RULE: one ExprContext per verification cell. The EUFM
// context (hash-consing table, string interner) and the prop/CNF contexts
// derived from it are unsynchronized by design — sharing or cross-thread
// interning is a data race. The grid runner never passes expressions
// between cells; the only shared state is the results vector, written at
// disjoint indices and read after all futures are joined, and the
// checkpoint store, which serializes appends on its own mutex. Results are
// returned in input order, so a parallel run is observationally identical
// to the sequential one (up to wall-clock fields).
//
// The one sanctioned exception lives *inside* a cell: with cellJobs > 1 a
// cell's own workers read the cell's (frozen) context through per-worker
// eufm::ShadowContext overlays — reads of an unmutated context are safe,
// and each overlay's scratch nodes are thread-private. See
// docs/SCALING.md.
//
// RESOURCE ISOLATION: each cell gets its own BudgetGovernor (armed inside
// verify()), and the memory budget governs the cell's *logical* arena
// bytes, not process RSS — so one cell tripping MemOut cannot perturb a
// sibling's verdict, no matter how the cells are scheduled.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/request.hpp"
#include "core/verifier.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev::core {

struct GridCell {
  unsigned robSize = 8;
  unsigned issueWidth = 2;
  models::BugSpec bug;  // default: no injected defect
};

struct GridCellResult {
  GridCell cell;
  VerifyReport report;
  double wallSeconds = 0;       // end-to-end wall time of this cell
  std::size_t memHighWaterKb = 0;  // process RSS high-water after the cell
  bool skipped = false;         // cancelled before the cell started
  bool fellBack = false;        // FallbackPolicy retried this cell
  /// When fellBack: the verdict of the original (pre-retry) attempt.
  Verdict firstVerdict = Verdict::Inconclusive;
  /// Restored from the checkpoint store instead of re-verified (resume
  /// mode). The report is reportFromResponse() of the stored record: the
  /// recorded verdict, seconds and counters, typed sub-structs rebuilt
  /// from the counter block.
  bool restored = false;
};

/// What to do with a cell whose first attempt exhausted its budget.
enum class FallbackPolicy {
  None,
  /// PE-only cell hit Timeout/MemOut => retry it once with
  /// RewritingPlusPositiveEquality — the paper's headline comparison: the
  /// configurations that exhaust 4 GB under Positive Equality alone verify
  /// in seconds once the rewriting rules delete the ROB updates.
  RetryWithRewriting,
};

/// Scheduling knobs of a grid run. Everything about WHAT to verify lives in
/// the per-cell VerifyRequests (so a grid may mix strategies, engines and
/// budgets); this struct only says HOW to run them.
struct GridRunOptions {
  /// Worker threads across cells; 1 = run in the calling thread. Every
  /// cell solves on its own fresh solver, so verdicts and counters are
  /// identical for any value.
  unsigned jobs = 1;
  FallbackPolicy fallback = FallbackPolicy::None;
  /// When non-empty: each cell attaches its own trace::Collector (the
  /// one-Collector-per-cell analogue of the one-Context-per-cell rule) and
  /// the runner writes `cell_<index>_<N>x<K>.trace.json` plus
  /// `cell_<index>_<N>x<K>.manifest.json` into this directory, then one
  /// merged `manifest.json` summing stage times and counters over the grid.
  /// The directory is created if missing.
  std::string traceDir;
  /// When non-empty: a core::ResultStore directory (created if missing;
  /// schema in docs/SCALING.md). Every finished verifyCell attempt appends
  /// one VerifyResponse segment keyed by its request's cacheKey(), so a
  /// fallback cell leaves two records: the PE-only attempt and its
  /// rewriting retry. A sweep killed mid-run loses at most the cells in
  /// flight. A regular file at this path (a pre-store checkpoint) restores
  /// nothing and is replaced by the store.
  std::string checkpointPath;
  /// With `resume`: cells whose records are all in the store are not
  /// re-verified — their results are restored (GridCellResult::restored)
  /// and the run continues with the unfinished cells only. A store written
  /// by a different binary (the cache key mixes in trace::gitDescribe())
  /// simply matches nothing. Skipped cells are never recorded, so a
  /// cancelled sweep resumes them too.
  bool resume = false;
  /// Worker threads *inside* each cell (VerifyOptions::jobs): parallel
  /// rewrite slice checks and CNF build. Orthogonal to `jobs`, which fans
  /// out across cells — the paper-scale sweep runs few huge cells, so it
  /// wants jobs = 1 and cellJobs = cores.
  unsigned cellJobs = 1;
};

/// Verify every request of `requests`; results come back in input order.
/// Each request carries its own strategy/engine/budget, so heterogeneous
/// grids (the velev_serve replay mix) run through the same scheduler as the
/// paper's homogeneous tables. With jobs > 1, cells run on a work-stealing
/// pool. Cancelling `cancel` stops the cells that have not started yet
/// (marked skipped, verdict Verdict::Skipped); running cells finish
/// normally.
std::vector<GridCellResult> runGrid(std::span<const VerifyRequest> requests,
                                    const GridRunOptions& opts,
                                    CancelToken* cancel = nullptr);

/// Cross product of sizes × widths, dropping the impossible cells
/// (width > size) exactly as the paper's tables print a dash for them.
std::vector<GridCell> makeGrid(std::span<const unsigned> sizes,
                               std::span<const unsigned> widths);

/// Request-valued makeGrid(): the sizes × widths cross product stamped
/// onto copies of `base` (which supplies strategy, engine, budget, bug and
/// the pipeline toggles).
std::vector<VerifyRequest> makeGridRequests(std::span<const unsigned> sizes,
                                            std::span<const unsigned> widths,
                                            const VerifyRequest& base = {});

/// Flatten one finished cell into the manifest fields: tool name, config
/// block (rob_size, issue_width, strategy, …), budget, verdict/reason,
/// stage seconds and the canonical reportCounters() block. Shared by the
/// grid runner's per-cell manifests and velev_verify's single-run one.
trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyOptions& opts,
                                     std::string_view tool = "velev_verify");

/// As above, for a request-driven run.
trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyRequest& req,
                                     std::string_view tool = "velev_verify");

}  // namespace velev::core
