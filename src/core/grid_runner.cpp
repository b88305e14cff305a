#include "core/grid_runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <unordered_map>

#include "core/result_store.hpp"
#include "support/mem.hpp"
#include "support/timer.hpp"

namespace velev::core {

namespace {

GridCell cellOf(const VerifyRequest& req) {
  return GridCell{req.robSize, req.issueWidth, req.bug};
}

/// File stem shared by the two per-cell output files.
std::string cellFileStem(const GridCell& cell, std::size_t index) {
  return "cell_" + std::to_string(index) + "_" +
         std::to_string(cell.robSize) + "x" +
         std::to_string(cell.issueWidth);
}

/// Write the two per-cell trace artifacts. Each worker writes only its own
/// cell's files (distinct names), so no cross-thread coordination needed.
void writeCellTrace(const std::string& dir, std::size_t index,
                    const GridCellResult& res, const VerifyRequest& req,
                    const trace::Collector& collector) {
  const std::string stem = dir + "/" + cellFileStem(res.cell, index);
  if (std::ofstream os(stem + ".trace.json"); os)
    collector.writeChromeTrace(os);
  if (std::ofstream os(stem + ".manifest.json"); os)
    trace::writeManifest(os, cellManifestData(res, req, "velev_grid"),
                         &collector);
}

GridCellResult skippedCell(const GridCell& cell) {
  GridCellResult res;
  res.cell = cell;
  res.skipped = true;
  res.report.outcome.verdict = Verdict::Skipped;
  res.report.outcome.reason = "cancelled before the cell started";
  return res;
}

/// Whether FallbackPolicy retries a cell whose first attempt ended in
/// `first`, and the request that retry verifies.
bool retries(const GridRunOptions& opts, const VerifyRequest& req,
             Verdict first) {
  return opts.fallback == FallbackPolicy::RetryWithRewriting &&
         (first == Verdict::Timeout || first == Verdict::MemOut) &&
         req.strategy == Strategy::PositiveEqualityOnly;
}

VerifyRequest retryRequest(VerifyRequest req) {
  req.strategy = Strategy::RewritingPlusPositiveEquality;
  return req;
}

using StoreRecords = std::unordered_map<std::uint64_t, VerifyResponse>;

/// Rebuild a finished cell from the store (resume path): the record of
/// its first attempt and, when that attempt ran out of budget and the
/// fallback policy retries it, the record of the retry. Nullopt when any
/// of them is missing — the whole cell then re-runs.
std::optional<GridCellResult> restoredCell(const VerifyRequest& req,
                                           const GridRunOptions& opts,
                                           const StoreRecords& records) {
  auto it = records.find(req.cacheKey());
  if (it == records.end()) return std::nullopt;
  GridCellResult res;
  res.cell = cellOf(req);
  res.restored = true;
  if (retries(opts, req, it->second.verdict)) {
    res.fellBack = true;
    res.firstVerdict = it->second.verdict;
    res.wallSeconds = it->second.wallSeconds;
    it = records.find(retryRequest(req).cacheKey());
    if (it == records.end()) return std::nullopt;
  }
  const VerifyResponse& last = it->second;
  res.wallSeconds += last.wallSeconds;
  res.memHighWaterKb = last.rssHighWaterKb;
  res.report = reportFromResponse(last, req.engine);
  return res;
}

/// Called once per finished verifyCell attempt: the grid's store hook.
using RecordAttempt = std::function<void(const VerifyRequest&,
                                         const VerifyReport&, double)>;

GridCellResult runCell(const VerifyRequest& req, const GridRunOptions& opts,
                       std::size_t index, const RecordAttempt& record) {
  GridCellResult res;
  res.cell = cellOf(req);
  Timer t;
  // One Collector per cell, mirroring the one-Context-per-cell rule: the
  // attachment is thread-local, so concurrent cells never share a sink.
  trace::Collector collector;
  const bool traced = !opts.traceDir.empty();
  {
    trace::Use tracing(traced ? &collector : nullptr);
    // verifyCell() builds a fresh eufm::Context and arms a fresh
    // BudgetGovernor for this cell (the one-context-per-cell ownership
    // rule; see the header), so budgets are strictly per cell.
    auto attempt = [&](const VerifyRequest& r) {
      Timer at;
      VerifyOptions vopts = r.options();
      // Intra-cell parallelism: semantically invisible (identical verdicts
      // and counters), so layering it on here never perturbs a record.
      if (opts.cellJobs > 1) vopts.jobs = opts.cellJobs;
      VerifyReport rep = verifyCell(r.config(), r.bug, vopts);
      record(r, rep, at.seconds());
      return rep;
    };
    res.report = attempt(req);
    if (retries(opts, req, res.report.outcome.verdict)) {
      res.fellBack = true;
      res.firstVerdict = res.report.outcome.verdict;
      res.report = attempt(retryRequest(req));
    }
  }

  res.wallSeconds = t.seconds();
  res.memHighWaterKb = rssHighWaterKb();
  if (traced) writeCellTrace(opts.traceDir, index, res, req, collector);
  return res;
}

/// Config-block value over a possibly heterogeneous grid: the shared name
/// when every request agrees, "mixed" otherwise.
template <class Get>
std::string sharedOrMixed(std::span<const VerifyRequest> reqs, Get get) {
  if (reqs.empty()) return "none";
  const std::string first = get(reqs.front());
  for (const VerifyRequest& r : reqs.subspan(1))
    if (get(r) != first) return "mixed";
  return first;
}

/// The whole-grid roll-up: per-stage seconds and counters summed over the
/// cells, verdict "correct" only if every non-skipped cell is.
void writeGridManifest(const std::string& dir, const GridRunOptions& opts,
                       std::span<const VerifyRequest> reqs,
                       std::span<const GridCellResult> results,
                       const trace::Collector* gridCollector = nullptr) {
  trace::ManifestData m;
  m.tool = "velev_grid";
  m.config.emplace_back("cells", std::to_string(results.size()));
  m.config.emplace_back("jobs", std::to_string(opts.jobs));
  if (opts.cellJobs > 1)
    m.config.emplace_back("cell_jobs", std::to_string(opts.cellJobs));
  if (!opts.checkpointPath.empty()) {
    m.config.emplace_back("checkpoint", opts.checkpointPath);
    m.config.emplace_back("resume", opts.resume ? "true" : "false");
  }
  m.config.emplace_back("strategy",
                        sharedOrMixed(reqs, [](const VerifyRequest& r) {
                          return std::string(strategyName(r.strategy));
                        }));
  m.config.emplace_back("engine",
                        sharedOrMixed(reqs, [](const VerifyRequest& r) {
                          return std::string(engineName(r.engine));
                        }));
  m.config.emplace_back(
      "fallback", opts.fallback == FallbackPolicy::RetryWithRewriting
                      ? "retry-with-rewriting"
                      : "none");
  m.config.emplace_back("inprocess",
                        sharedOrMixed(reqs, [](const VerifyRequest& r) {
                          return std::string(r.inprocess ? "true" : "false");
                        }));
  if (!reqs.empty()) {
    // Budget block: the shared budget on homogeneous grids; the first
    // request's on mixed ones (the per-cell manifests carry the exact
    // values).
    const ResourceBudget b = reqs.front().budget();
    m.budgetWallSeconds = b.wallSeconds;
    m.budgetMemoryBytes = b.memoryBytes;
    m.budgetSatConflicts = b.satConflicts;
  }

  StageSeconds total;
  std::map<std::string, std::uint64_t> counters;
  if (!opts.checkpointPath.empty()) {
    std::uint64_t restored = 0;
    for (const GridCellResult& r : results) restored += r.restored ? 1 : 0;
    counters["grid.checkpoint.restored"] = restored;
  }
  Verdict worst = Verdict::Correct;
  for (const GridCellResult& r : results) {
    const StageSeconds& s = r.report.outcome.seconds;
    total.sim += s.sim;
    total.rewrite += s.rewrite;
    total.translate += s.translate;
    total.sat += s.sat;
    total.bdd += s.bdd;
    m.peakArenaBytes =
        std::max(m.peakArenaBytes,
                 static_cast<std::uint64_t>(r.report.outcome.peakArenaBytes));
    m.rssHighWaterKb =
        std::max(m.rssHighWaterKb,
                 static_cast<std::uint64_t>(r.report.outcome.rssHighWaterKb));
    for (const auto& [name, value] : reportCounters(r.report))
      counters[name] += value;
    if (r.report.outcome.verdict != Verdict::Correct &&
        worst == Verdict::Correct)
      worst = r.report.outcome.verdict;
  }
  m.verdict = verdictName(worst);
  m.stageSeconds = {{"sim", total.sim},
                    {"rewrite", total.rewrite},
                    {"translate", total.translate},
                    {"sat", total.sat},
                    {"bdd", total.bdd}};
  m.counters.assign(counters.begin(), counters.end());
  if (std::ofstream os(dir + "/manifest.json"); os)
    trace::writeManifest(os, m, gridCollector);
}

}  // namespace

std::vector<GridCellResult> runGrid(std::span<const VerifyRequest> reqs,
                                    const GridRunOptions& opts,
                                    CancelToken* cancel) {
  std::vector<GridCellResult> results(reqs.size());
  const bool traced = !opts.traceDir.empty();
  if (traced) std::filesystem::create_directories(opts.traceDir);

  // Grid-level collector: store I/O happens outside any cell's collector
  // scope, so the store.* spans and grid.checkpoint.* counters get their
  // own sink, folded into the merged manifest below.
  trace::Collector gridCollector;
  trace::Collector* const gridSink = traced ? &gridCollector : nullptr;

  // Every finished attempt is appended under its own request's cache key
  // (request fields + gitDescribe, never the grid index) — conclusive,
  // budget-tripped or mismatch alike. Skipped cells are never recorded, so
  // a cancelled sweep resumes exactly them.
  std::optional<ResultStore> store;
  if (!opts.checkpointPath.empty()) {
    trace::Use use(gridSink);
    // A pre-store checkpoint file at the path restores nothing (its keys
    // could not match this binary anyway) and makes way for the store.
    if (std::filesystem::is_regular_file(opts.checkpointPath))
      std::filesystem::remove(opts.checkpointPath);
    store.emplace(ResultStore::Options{opts.checkpointPath});
    StoreRecords records;
    for (auto& [key, resp] : store->load()) records[key] = std::move(resp);
    if (opts.resume) {
      std::uint64_t restored = 0;
      for (std::size_t i = 0; i < reqs.size(); ++i)
        if (auto res = restoredCell(reqs[i], opts, records)) {
          results[i] = std::move(*res);
          ++restored;
        }
      trace::counterSet("grid.checkpoint.restored", restored);
    }
  }
  const RecordAttempt record = [&](const VerifyRequest& r,
                                   const VerifyReport& rep, double seconds) {
    if (!store.has_value()) return;
    trace::Use use(gridSink);
    if (store->append(r.cacheKey(),
                      VerifyResponse::fromReport(r, rep, seconds)))
      trace::counterAdd("grid.checkpoint.saves", 1);
  };

  if (opts.jobs <= 1) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (results[i].restored) continue;
      if (cancel != nullptr && cancel->cancelled())
        results[i] = skippedCell(cellOf(reqs[i]));
      else
        results[i] = runCell(reqs[i], opts, i, record);
    }
  } else {
    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(
        opts.jobs, std::max<std::size_t>(1, reqs.size())));
    ThreadPool pool(workers);
    const CancelToken token = cancel != nullptr ? *cancel : CancelToken();
    std::vector<std::pair<std::size_t, std::future<void>>> done;
    done.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (results[i].restored) continue;
      done.emplace_back(i, pool.submit(token, [&, i] {
        results[i] = runCell(reqs[i], opts, i, record);
      }));
    }
    for (auto& [i, f] : done) {
      try {
        f.get();
      } catch (const CancelledError&) {
        results[i] = skippedCell(cellOf(reqs[i]));
      }
    }
  }
  if (traced)
    writeGridManifest(opts.traceDir, opts, reqs, results, &gridCollector);
  return results;
}

trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyOptions& opts,
                                     std::string_view tool) {
  trace::ManifestData m;
  m.tool = std::string(tool);
  m.config.emplace_back("rob_size", std::to_string(res.cell.robSize));
  m.config.emplace_back("issue_width", std::to_string(res.cell.issueWidth));
  m.config.emplace_back("strategy", strategyName(opts.strategy));
  m.config.emplace_back("engine", engineName(opts.engine));
  m.config.emplace_back("uf_scheme", evc::ufSchemeName(opts.ufScheme));
  if (res.cell.bug.kind != models::BugKind::None) {
    m.config.emplace_back(
        "bug_kind",
        std::to_string(static_cast<unsigned>(res.cell.bug.kind)));
    m.config.emplace_back("bug_index", std::to_string(res.cell.bug.index));
  }
  if (res.fellBack)
    m.config.emplace_back("first_verdict", verdictName(res.firstVerdict));
  m.budgetWallSeconds = opts.budget.wallSeconds;
  m.budgetMemoryBytes = opts.budget.memoryBytes;
  m.budgetSatConflicts = opts.budget.satConflicts;
  m.verdict = verdictName(res.report.outcome.verdict);
  m.reason = res.report.outcome.reason;
  const StageSeconds& s = res.report.outcome.seconds;
  m.stageSeconds = {{"sim", s.sim},
                    {"rewrite", s.rewrite},
                    {"translate", s.translate},
                    {"sat", s.sat},
                    {"bdd", s.bdd}};
  m.peakArenaBytes = res.report.outcome.peakArenaBytes;
  m.rssHighWaterKb = res.report.outcome.rssHighWaterKb;
  m.counters = reportCounters(res.report);
  return m;
}

trace::ManifestData cellManifestData(const GridCellResult& res,
                                     const VerifyRequest& req,
                                     std::string_view tool) {
  return cellManifestData(res, req.options(), tool);
}

std::vector<GridCell> makeGrid(std::span<const unsigned> sizes,
                               std::span<const unsigned> widths) {
  std::vector<GridCell> cells;
  cells.reserve(sizes.size() * widths.size());
  for (unsigned n : sizes)
    for (unsigned k : widths)
      if (k >= 1 && k <= n) cells.push_back(GridCell{n, k, {}});
  return cells;
}

std::vector<VerifyRequest> makeGridRequests(std::span<const unsigned> sizes,
                                            std::span<const unsigned> widths,
                                            const VerifyRequest& base) {
  std::vector<VerifyRequest> reqs;
  reqs.reserve(sizes.size() * widths.size());
  for (unsigned n : sizes)
    for (unsigned k : widths)
      if (k >= 1 && k <= n) {
        VerifyRequest r = base;
        r.robSize = n;
        r.issueWidth = k;
        reqs.push_back(r);
      }
  return reqs;
}

}  // namespace velev::core
