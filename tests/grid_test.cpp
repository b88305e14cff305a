// Tests for the parallel grid runner: parallel runs must be
// observationally identical to sequential runs (same verdicts, same
// counters, input order preserved), cancellation must stop queued cells,
// the checkpoint store must survive resume and failed saves and restore
// fallback cells from their two records, and
// makeGrid/makeGridRequests must drop impossible configurations.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/result_store.hpp"
#include "file_size_limit.hpp"

namespace velev::core {
namespace {

/// Fresh checkpoint store directory under the system temp dir; removed up
/// front so a crashed previous run cannot leak records into this one.
std::string checkpointPath(const char* name) {
  const std::string p = (std::filesystem::temp_directory_path() /
                         (std::string("velev_grid_test_") + name + ".store"))
                            .string();
  std::filesystem::remove_all(p);
  return p;
}

/// Every record in the store at `dir`, as a fresh reader sees it.
std::vector<std::pair<std::uint64_t, VerifyResponse>> storeRecords(
    const std::string& dir) {
  ResultStore store(ResultStore::Options{dir});
  return store.load();
}

TEST(Grid, MakeGridDropsImpossibleCells) {
  const std::vector<unsigned> sizes = {2, 4};
  const std::vector<unsigned> widths = {1, 2, 4};
  const auto cells = makeGrid(sizes, widths);
  // 2x4 is impossible (width > size): 2x1 2x2 4x1 4x2 4x4 remain.
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0].robSize, 2u);
  EXPECT_EQ(cells[0].issueWidth, 1u);
  EXPECT_EQ(cells.back().robSize, 4u);
  EXPECT_EQ(cells.back().issueWidth, 4u);
}

TEST(Grid, MakeGridRequestsStampsBaseOntoEveryCell) {
  const std::vector<unsigned> sizes = {2, 4};
  const std::vector<unsigned> widths = {1, 2, 4};
  VerifyRequest base;
  base.strategy = Strategy::PositiveEqualityOnly;
  base.skipSat = true;
  base.satConflictBudget = 123;
  const auto reqs = makeGridRequests(sizes, widths, base);
  // Same cross product as makeGrid, impossible cells dropped.
  ASSERT_EQ(reqs.size(), 5u);
  EXPECT_EQ(reqs[0].robSize, 2u);
  EXPECT_EQ(reqs[0].issueWidth, 1u);
  EXPECT_EQ(reqs.back().robSize, 4u);
  EXPECT_EQ(reqs.back().issueWidth, 4u);
  for (const VerifyRequest& r : reqs) {
    EXPECT_EQ(r.strategy, Strategy::PositiveEqualityOnly);
    EXPECT_TRUE(r.skipSat);
    EXPECT_EQ(r.satConflictBudget, 123);
  }
}

TEST(Grid, ParallelVerdictsIdenticalToSequential) {
  // Every cell solves on its own fresh solver, so the worker count — across
  // cells (jobs) or inside one cell (cellJobs) — must change nothing but
  // wall time: same verdicts and the same full counter block per cell.
  std::vector<VerifyRequest> cells = makeGridRequests(
      std::vector<unsigned>{2, 3, 4}, std::vector<unsigned>{1, 2});
  // PE-only cells: the e_ij + transitivity encoding, mostly CDCL.
  for (const auto& [n, k] : {std::pair{3u, 1u}, {3u, 2u}, {4u, 2u}}) {
    VerifyRequest pe;
    pe.robSize = n;
    pe.issueWidth = k;
    pe.strategy = Strategy::PositiveEqualityOnly;
    cells.push_back(pe);
  }

  GridRunOptions seq;
  seq.jobs = 1;
  const auto sequential = runGrid(cells, seq);

  GridRunOptions par;
  par.jobs = 3;
  GridRunOptions intra;
  intra.cellJobs = 2;
  ASSERT_EQ(sequential.size(), cells.size());
  for (const GridRunOptions& opts : {par, intra}) {
    const auto other = runGrid(cells, opts);
    ASSERT_EQ(other.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "jobs " << opts.jobs << " cellJobs " << opts.cellJobs
                   << " cell " << i);
      // Input order preserved on both paths.
      EXPECT_EQ(sequential[i].cell.robSize, cells[i].robSize);
      EXPECT_EQ(other[i].cell.robSize, cells[i].robSize);
      EXPECT_EQ(other[i].cell.issueWidth, cells[i].issueWidth);
      EXPECT_EQ(sequential[i].report.verdict(), Verdict::Correct);
      EXPECT_EQ(other[i].report.verdict(), sequential[i].report.verdict());
      EXPECT_EQ(reportCounters(other[i].report),
                reportCounters(sequential[i].report));
      EXPECT_FALSE(other[i].skipped);
      EXPECT_GT(other[i].memHighWaterKb, 0u);
    }
  }
}

TEST(Grid, HeterogeneousRequestsKeepPerCellOptions) {
  // The request-based grid may mix strategies and budgets per cell — each
  // cell must be judged under ITS options, not the first cell's.
  std::vector<VerifyRequest> reqs(2);
  reqs[0].robSize = 3;
  reqs[0].issueWidth = 1;
  reqs[0].strategy = Strategy::RewritingPlusPositiveEquality;
  reqs[1].robSize = 3;
  reqs[1].issueWidth = 1;
  reqs[1].strategy = Strategy::PositiveEqualityOnly;
  GridRunOptions opts;
  opts.jobs = 2;
  const auto results = runGrid(reqs, opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].report.verdict(), Verdict::Correct);
  EXPECT_EQ(results[1].report.verdict(), Verdict::Correct);
  // PE-only skips the rewriting stage, so its e_ij/CNF encoding is the
  // bigger one — the two cells must not share one translation.
  EXPECT_GT(results[1].report.evcStats.cnfVars,
            results[0].report.evcStats.cnfVars);
}

TEST(Grid, BuggyCellReportsMismatchUnderParallelRun) {
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{4, 8}, std::vector<unsigned>{2});
  cells[1].bug.kind = models::BugKind::ForwardingWrongOperand;
  cells[1].bug.index = 2;
  GridRunOptions opts;
  opts.jobs = 2;
  const auto results = runGrid(cells, opts);
  EXPECT_EQ(results[0].report.verdict(), Verdict::Correct);
  EXPECT_EQ(results[1].report.verdict(), Verdict::RewriteMismatch);
  EXPECT_EQ(results[1].report.outcome.failedSlice, 2u);
}

TEST(Grid, CancelledBeforeRunSkipsEveryCell) {
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3, 4},
                                      std::vector<unsigned>{1});
  CancelToken token;
  token.cancel();
  for (unsigned jobs : {1u, 2u}) {
    GridRunOptions opts;
    opts.jobs = jobs;
    const auto results = runGrid(cells, opts, &token);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_TRUE(results[i].skipped) << "jobs " << jobs << " cell " << i;
      EXPECT_EQ(results[i].cell.robSize, cells[i].robSize);
      // Skipped cells carry their own verdict, not an Inconclusive alias.
      EXPECT_EQ(results[i].report.verdict(), Verdict::Skipped);
      EXPECT_FALSE(results[i].report.outcome.reason.empty());
    }
  }
}

TEST(Grid, CheckpointResumeRestoresEveryFinishedCell) {
  // Round trip: a full sweep with a checkpoint, then the same sweep with
  // --resume, must restore every cell — same verdict and the exact
  // paper-aligned counter set (reportCounters is the flatten,
  // checkpoint restore is its inverse).
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3},
                                      std::vector<unsigned>{1, 2});
  const std::string path = checkpointPath("roundtrip");

  GridRunOptions first;
  first.checkpointPath = path;
  first.jobs = 3;  // concurrent appends from the pool workers
  const auto baseline = runGrid(cells, first);
  ASSERT_EQ(storeRecords(path).size(), cells.size());

  GridRunOptions second;
  second.checkpointPath = path;
  second.resume = true;
  const auto resumed = runGrid(cells, second);

  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_FALSE(baseline[i].restored) << "cell " << i;
    EXPECT_TRUE(resumed[i].restored) << "cell " << i;
    EXPECT_EQ(resumed[i].cell.robSize, cells[i].robSize);
    EXPECT_EQ(resumed[i].report.verdict(), baseline[i].report.verdict());
    EXPECT_EQ(reportCounters(resumed[i].report),
              reportCounters(baseline[i].report))
        << "cell " << i;
  }
  std::filesystem::remove_all(path);
}

TEST(Grid, ResumeVerifiesOnlyUnfinishedCells) {
  // A killed sweep leaves a prefix in the checkpoint; resuming over the
  // full request list must restore exactly that prefix and verify the
  // rest. Records are keyed by the request's content (cacheKey), not by
  // grid position — the resumed list is deliberately reversed to prove
  // it.
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3, 4},
                                      std::vector<unsigned>{1});
  ASSERT_EQ(cells.size(), 3u);
  const std::string path = checkpointPath("prefix");

  const std::vector<VerifyRequest> prefix(cells.begin(), cells.begin() + 2);
  GridRunOptions first;
  first.checkpointPath = path;
  runGrid(prefix, first);

  std::vector<VerifyRequest> reversed(cells.rbegin(), cells.rend());
  GridRunOptions second;
  second.checkpointPath = path;
  second.resume = true;
  const auto full = runGrid(reversed, second);

  ASSERT_EQ(full.size(), 3u);
  EXPECT_FALSE(full[0].restored);  // ROB 4: never checkpointed
  EXPECT_TRUE(full[1].restored);   // ROB 3
  EXPECT_TRUE(full[2].restored);   // ROB 2
  for (const GridCellResult& r : full)
    EXPECT_EQ(r.report.verdict(), Verdict::Correct);
  std::filesystem::remove_all(path);
}

TEST(Grid, CheckpointRestoresInjectedBugVerdict) {
  // Failure verdicts are results too: a RewriteMismatch recorded in the
  // checkpoint comes back with its failed slice, not as a re-run.
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{4}, std::vector<unsigned>{2});
  cells[0].bug.kind = models::BugKind::ForwardingWrongOperand;
  cells[0].bug.index = 2;
  const std::string path = checkpointPath("bug");

  GridRunOptions opts;
  opts.checkpointPath = path;
  runGrid(cells, opts);

  opts.resume = true;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_EQ(resumed[0].report.verdict(), Verdict::RewriteMismatch);
  EXPECT_EQ(resumed[0].report.outcome.failedSlice, 2u);
  std::filesystem::remove_all(path);
}

TEST(Grid, FallbackCellResumesFromItsTwoRecords) {
  // Each verifyCell attempt is its own record under its own request's key:
  // a PE-only cell that hits memout and the rewriting retry that verifies
  // it. Resume finds both and rebuilds fellBack/firstVerdict from them.
  VerifyRequest rw;
  rw.robSize = 16;
  rw.issueWidth = 2;
  const VerifyReport rwRep = verify(rw);
  ASSERT_EQ(rwRep.verdict(), Verdict::Correct);

  VerifyRequest pe = rw;
  pe.strategy = Strategy::PositiveEqualityOnly;
  pe.memoryBudgetBytes = rwRep.outcome.peakArenaBytes * 2;
  const std::vector<VerifyRequest> cells = {pe};
  const std::string path = checkpointPath("fallback");
  GridRunOptions opts;
  opts.fallback = FallbackPolicy::RetryWithRewriting;
  opts.checkpointPath = path;
  const auto fresh = runGrid(cells, opts);
  ASSERT_EQ(fresh.size(), 1u);
  ASSERT_TRUE(fresh[0].fellBack);
  ASSERT_EQ(fresh[0].firstVerdict, Verdict::MemOut);

  VerifyRequest retry = pe;
  retry.strategy = Strategy::RewritingPlusPositiveEquality;
  const auto records = storeRecords(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].first, pe.cacheKey());
  EXPECT_EQ(records[0].second.verdict, Verdict::MemOut);
  EXPECT_EQ(records[1].first, retry.cacheKey());
  EXPECT_EQ(records[1].second.verdict, Verdict::Correct);

  opts.resume = true;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_TRUE(resumed[0].fellBack);
  EXPECT_EQ(resumed[0].firstVerdict, Verdict::MemOut);
  EXPECT_EQ(resumed[0].report.verdict(), Verdict::Correct);
  EXPECT_EQ(reportCounters(resumed[0].report),
            reportCounters(fresh[0].report));

  // Without the fallback policy the same store restores the PE-only
  // attempt as it stands: a memout, no retry.
  opts.fallback = FallbackPolicy::None;
  const auto plain = runGrid(cells, opts);
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_TRUE(plain[0].restored);
  EXPECT_FALSE(plain[0].fellBack);
  EXPECT_EQ(plain[0].report.verdict(), Verdict::MemOut);
  std::filesystem::remove_all(path);
}

TEST(Grid, CheckpointWithRetiredCounterRestoresCleanly) {
  // Records written before failed-literal probing was removed from the
  // SAT front end carry its sat.inprocess.failed_literals counter. Resume
  // ignores the unknown key: the cell comes back restored, with its
  // verdict and every counter the current report knows about.
  const auto cells =
      makeGridRequests(std::vector<unsigned>{3}, std::vector<unsigned>{1});
  const std::string path = checkpointPath("retired");

  GridRunOptions opts;
  opts.checkpointPath = path;
  const auto baseline = runGrid(cells, opts);
  ASSERT_EQ(baseline.size(), 1u);
  ASSERT_TRUE(baseline[0].report.inprocessed);

  // Re-append the cell's record with the retired counter in its block: the
  // later segment wins on resume.
  {
    ResultStore store(ResultStore::Options{path});
    auto records = store.load();
    ASSERT_EQ(records.size(), 1u);
    VerifyResponse& resp = records[0].second;
    resp.counters.emplace_back("sat.inprocess.failed_literals", 2);
    ASSERT_TRUE(store.append(records[0].first, resp));
  }

  opts.resume = true;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_EQ(resumed[0].report.verdict(), baseline[0].report.verdict());
  const auto counters = reportCounters(resumed[0].report);
  EXPECT_EQ(counters, reportCounters(baseline[0].report));
  for (const auto& [name, value] : counters)
    EXPECT_NE(name, "sat.inprocess.failed_literals");
  std::filesystem::remove_all(path);
}

TEST(Grid, BddCheckpointWithRetiredReorderCounterRestoresCleanly) {
  // Records written while the BDD engine still reordered variables carry its
  // bdd.reorderings counter. Resume ignores the unknown key: the cell comes
  // back restored with its verdict and the current bdd.* counters.
  VerifyRequest base;
  base.strategy = Strategy::PositiveEqualityOnly;
  base.engine = Engine::Bdd;
  const auto cells = makeGridRequests(std::vector<unsigned>{2},
                                      std::vector<unsigned>{1}, base);
  const std::string path = checkpointPath("retired_bdd");

  GridRunOptions opts;
  opts.checkpointPath = path;
  const auto baseline = runGrid(cells, opts);
  ASSERT_EQ(baseline.size(), 1u);
  ASSERT_GT(baseline[0].report.bddStats.nodesPeak, 0u);

  {
    ResultStore store(ResultStore::Options{path});
    auto records = store.load();
    ASSERT_EQ(records.size(), 1u);
    VerifyResponse& resp = records[0].second;
    resp.counters.emplace_back("bdd.reorderings", 3);
    ASSERT_TRUE(store.append(records[0].first, resp));
  }

  opts.resume = true;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_EQ(resumed[0].report.verdict(), baseline[0].report.verdict());
  EXPECT_EQ(resumed[0].report.engine, Engine::Bdd);
  const auto counters = reportCounters(resumed[0].report);
  EXPECT_EQ(counters, reportCounters(baseline[0].report));
  for (const auto& [name, value] : counters)
    EXPECT_NE(name, "bdd.reorderings");
  std::filesystem::remove_all(path);
}

TEST(Grid, CheckpointWithoutResumeRerunsEveryCell) {
  // checkpointPath alone only *writes*; restoring is opt-in via resume,
  // so a deliberate re-verification is still possible.
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  const std::string path = checkpointPath("noresume");

  GridRunOptions opts;
  opts.checkpointPath = path;
  runGrid(cells, opts);
  const auto again = runGrid(cells, opts);  // resume still false
  ASSERT_EQ(again.size(), 1u);
  EXPECT_FALSE(again[0].restored);
  EXPECT_EQ(again[0].report.verdict(), Verdict::Correct);
  std::filesystem::remove_all(path);
}

TEST(Grid, ChangedRequestIsNotRestored) {
  // The checkpoint key hashes the whole request: the same grid cell under
  // a different strategy is a different verification and must re-run.
  std::vector<VerifyRequest> cells =
      makeGridRequests(std::vector<unsigned>{3}, std::vector<unsigned>{1});
  const std::string path = checkpointPath("changed");

  GridRunOptions opts;
  opts.checkpointPath = path;
  runGrid(cells, opts);

  cells[0].strategy = Strategy::PositiveEqualityOnly;
  opts.resume = true;
  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_FALSE(resumed[0].restored);
  EXPECT_EQ(resumed[0].report.verdict(), Verdict::Correct);
  std::filesystem::remove_all(path);
}

TEST(Grid, CorruptCheckpointDegradesToFullRun) {
  // A truncated, malformed, or future-versioned store segment must never
  // fail the sweep — it degrades to a full re-run, whose records land in
  // fresh segments next to it.
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  for (const char* body :
       {"not json at all", "{\"version\": 99, \"entries\": []}",
        "{\"version\": 1, \"entries\": \"oops\"}"}) {
    const std::string path = checkpointPath("corrupt");
    std::filesystem::create_directories(path);
    std::ofstream(std::filesystem::path(path) / "seg-1.json") << body;
    GridRunOptions opts;
    opts.checkpointPath = path;
    opts.resume = true;
    const auto results = runGrid(cells, opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].restored) << body;
    EXPECT_EQ(results[0].report.verdict(), Verdict::Correct);
    EXPECT_EQ(storeRecords(path).size(), 1u) << body;
    std::filesystem::remove_all(path);
  }
}

TEST(Grid, PreStoreCheckpointFileDegradesToFullRun) {
  // A checkpoint.json written before the result store existed sits where
  // the store directory goes. It restores nothing (its keys could not
  // match this binary anyway) and is replaced by a loadable store.
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  const std::string path = checkpointPath("pre_store");
  std::ofstream(path) << "{\"version\": 1, \"tool\": \"velev_grid\", "
                         "\"cells\": [{\"key\": \""
                      << cells[0].cacheKeyHex()
                      << "\", \"verdict\": \"correct\"}]}";
  GridRunOptions opts;
  opts.checkpointPath = path;
  opts.resume = true;
  const auto fresh = runGrid(cells, opts);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_FALSE(fresh[0].restored);
  EXPECT_EQ(fresh[0].report.verdict(), Verdict::Correct);
  EXPECT_TRUE(std::filesystem::is_directory(path));
  EXPECT_EQ(storeRecords(path).size(), 1u);

  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  std::filesystem::remove_all(path);
}

TEST(Grid, FailedCheckpointSaveKeepsPreviousFile) {
  // An append that fails part-way (here: a file-size limit, as on a full
  // disk) must leave the previous complete segments in place and no torn
  // one behind.
  const auto cells = makeGridRequests(std::vector<unsigned>{2, 3},
                                      std::vector<unsigned>{1});
  const std::string path = checkpointPath("failed_save");
  GridRunOptions opts;
  opts.checkpointPath = path;
  runGrid(cells, opts);
  std::uintmax_t segSize = 0;
  for (const auto& e : std::filesystem::directory_iterator(path))
    segSize = std::max(segSize, e.file_size());

  // One more cell on top of the two recorded ones: its segment cannot be
  // written under the limit.
  std::vector<VerifyRequest> more = cells;
  more.push_back(makeGridRequests(std::vector<unsigned>{4},
                                  std::vector<unsigned>{1})[0]);
  opts.resume = true;  // jobs 1, cellJobs 1: the forked child stays
                       // single-threaded
  ASSERT_TRUE(test::runWithFileSizeLimit(segSize / 2,
                                         [&] { runGrid(more, opts); }));
  for (const auto& e : std::filesystem::directory_iterator(path))
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  EXPECT_EQ(storeRecords(path).size(), cells.size());

  const auto resumed = runGrid(cells, opts);
  ASSERT_EQ(resumed.size(), cells.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_TRUE(resumed[i].restored) << "cell " << i;
    EXPECT_EQ(resumed[i].report.verdict(), Verdict::Correct);
  }
  std::filesystem::remove_all(path);
}

TEST(Grid, ResumeWithMissingCheckpointIsFreshRun) {
  const auto cells =
      makeGridRequests(std::vector<unsigned>{2}, std::vector<unsigned>{1});
  const std::string path = checkpointPath("missing");  // removed, never made
  GridRunOptions opts;
  opts.checkpointPath = path;
  opts.resume = true;
  const auto results = runGrid(cells, opts);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].restored);
  EXPECT_EQ(results[0].report.verdict(), Verdict::Correct);
  EXPECT_EQ(storeRecords(path).size(), 1u);  // fresh records were written
  std::filesystem::remove_all(path);
}

TEST(Grid, EmptyGridIsFine) {
  GridRunOptions opts;
  opts.jobs = 4;
  EXPECT_TRUE(runGrid({}, opts).empty());
}

}  // namespace
}  // namespace velev::core
