// perfbench_driver — one workload of the perfbench benchmark, in one process.
//
//   perfbench_driver --workload diagonal --seed 1 --seconds 30 --trace 0
//                    [--spawn-time T] [--trace-out FILE] [--setup-only]
//                    [--smallest] [--flip-expected]
//
// A closed loop with one client: the workload's cells are submitted one at a
// time, each as a core::VerifyRequest through core::runGrid (one cell in
// flight, cellJobs = min(4, cores)), and the next cell is sent only after
// the previous verdict is back. Passes over the cell list repeat until
// --seconds is used up; every pass is timed, and the medians are reported.
//
// --trace 1 first runs one timed pass, then repeats a traced pass that
// calls each layer's public function in verifyWith()'s order and times it
// from outside (models -> tlsim -> rewrite -> evc -> sat -> eufm). The
// traced pipeline must reproduce the timed run's verdict and full
// core::reportCounters() block for every cell, or the run fails.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics ({name: {value, unit}}) and setup_s. Any violation (wrong verdict,
// Table 5 size dependence, a counter that does not repeat, traced-run
// drift) is printed to stderr and sets correct = false and exit code 1.
// perfbench/run.py builds this program and wraps it; see perfbench/README.md.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/request.hpp"
#include "core/verifier.hpp"
#include "models/spec.hpp"
#include "support/mem.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace {

using namespace velev;
using core::Strategy;
using core::Verdict;
using models::BugKind;
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

// A cell that takes longer than this is a failed cell (verdict timeout),
// never a hung run: the largest cell takes about 5 s on a 4-core x86 box.
constexpr double kCellTimeoutSeconds = 30;
// No new cell starts after this many seconds, so even a badly regressed
// build finishes a run in about three minutes at most.
constexpr double kRunDeadlineSeconds = 140;
constexpr double kMiB = 1024.0 * 1024.0;

double monotonicNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workloads -------------------------------------------------------------

struct Cell {
  core::VerifyRequest req;
  Verdict expected = Verdict::Correct;
};

Cell makeCell(unsigned n, unsigned k, Strategy s, BugKind kind = BugKind::None,
              unsigned index = 1) {
  Cell c;
  c.req.robSize = n;
  c.req.issueWidth = k;
  c.req.strategy = s;
  c.req.bug = {kind, index};
  c.req.timeoutSeconds = kCellTimeoutSeconds;
  if (kind == BugKind::None) c.expected = Verdict::Correct;
  else if (s == Strategy::RewritingPlusPositiveEquality)
    c.expected = Verdict::RewriteMismatch;
  else
    c.expected = Verdict::CounterexampleFound;
  return c;
}

/// Uniform draw in [lo, hi] from the workload seed (mt19937_64 output is
/// fixed by the standard, so the same seed gives the same cells anywhere).
unsigned draw(std::mt19937_64& rng, unsigned lo, unsigned hi) {
  return lo + static_cast<unsigned>(rng() % (hi - lo + 1));
}

/// Seeded bug slice, among the slices where the defect is observable. Two
/// placements leave the design correct (checked over every slice of the
/// Table 2 configurations and sampled on 128x32 and 250x64): a forwarding
/// bug in slice 1, which has no older ROB entry to forward from, and a
/// completion bug in slice N, the last fully instantiated entry.
unsigned bugSlice(std::mt19937_64& rng, BugKind kind, unsigned n, unsigned k) {
  const unsigned limit = models::bugIndexLimit(kind, {n, k});
  switch (kind) {
    case BugKind::ForwardingWrongOperand:
    case BugKind::ForwardingStaleResult:
      return draw(rng, 2, limit);
    case BugKind::CompletionSkipsWrite: {
      const unsigned i = draw(rng, 1, limit - 1);
      return i < n ? i : i + 1;
    }
    default:
      return draw(rng, 1, limit);
  }
}

std::optional<std::vector<Cell>> makeWorkload(std::string_view name,
                                              std::uint64_t seed) {
  constexpr Strategy kRw = Strategy::RewritingPlusPositiveEquality;
  constexpr Strategy kPe = Strategy::PositiveEqualityOnly;
  std::mt19937_64 rng(seed);
  std::vector<Cell> cells;
  if (name == "diagonal") {
    for (auto [n, k] : {std::pair{16u, 4u}, {32u, 8u}, {64u, 16u},
                        {128u, 32u}, {250u, 64u}, {500u, 64u}})
      cells.push_back(makeCell(n, k, kRw));
  } else if (name == "deep_rob") {
    cells.push_back(makeCell(1000, 16, kRw));
    cells.push_back(makeCell(1000, 32, kRw));
  } else if (name == "pe_only") {
    for (auto [n, k] : {std::pair{4u, 1u}, {4u, 2u}, {5u, 2u}, {6u, 1u},
                        {6u, 2u}})
      cells.push_back(makeCell(n, k, kPe));
  } else if (name == "refute") {
    // Rewriting: the paper's Sect. 7.2 forwarding bug at slice 72, then the
    // other four kinds on 250x64. PE-only: one kind per Table 2
    // configuration. The seed picks the slices only, so the mix of work
    // stays the same from seed to seed.
    cells.push_back(
        makeCell(128, 32, kRw, BugKind::ForwardingWrongOperand, 72));
    for (BugKind kind :
         {BugKind::ForwardingStaleResult, BugKind::RetireIgnoresValidResult,
          BugKind::AluWrongOpcode, BugKind::CompletionSkipsWrite})
      cells.push_back(makeCell(250, 64, kRw, kind,
                               bugSlice(rng, kind, 250, 64)));
    for (auto [n, k, kind] :
         {std::tuple{4u, 1u, BugKind::ForwardingWrongOperand},
          {4u, 2u, BugKind::ForwardingStaleResult},
          {5u, 2u, BugKind::RetireIgnoresValidResult},
          {6u, 1u, BugKind::AluWrongOpcode},
          {6u, 2u, BugKind::CompletionSkipsWrite}})
      cells.push_back(makeCell(n, k, kPe, kind, bugSlice(rng, kind, n, k)));
  } else {
    return std::nullopt;
  }
  // The seed also picks the submission order (Fisher-Yates).
  for (std::size_t i = cells.size(); i > 1; --i)
    std::swap(cells[i - 1],
              cells[draw(rng, 0, static_cast<unsigned>(i - 1))]);
  for (std::size_t i = 0; i < cells.size(); ++i) cells[i].req.id = i;
  return cells;
}

std::string cellName(const core::VerifyRequest& r) {
  std::string s = std::to_string(r.robSize) + "x" +
                  std::to_string(r.issueWidth) + " " +
                  core::strategyName(r.strategy);
  if (r.bug.kind != BugKind::None)
    s += std::string(" ") + models::bugKindName(r.bug.kind) + ":" +
         std::to_string(r.bug.index);
  return s;
}

// ---- checks ----------------------------------------------------------------

struct CellRecord {
  Verdict verdict = Verdict::Inconclusive;
  Counters counters;
  std::uint64_t peakArenaBytes = 0;
};

class Checker {
 public:
  explicit Checker(const std::vector<Cell>& cells) : cells_(cells) {}

  /// Verdict gate + exact repetition of the counter block across passes.
  void record(std::size_t i, const CellRecord& r, const char* pass) {
    ++attempted_;
    const Cell& c = cells_[i];
    if (r.verdict != c.expected) {
      ++failed_;
      violation(std::string(pass) + " " + cellName(c.req) + ": verdict " +
                core::verdictName(r.verdict) + ", expected " +
                core::verdictName(c.expected));
    }
    auto [it, fresh] = first_.try_emplace(i, r);
    if (!fresh) {
      if (it->second.verdict != r.verdict)
        violation(std::string(pass) + " " + cellName(c.req) +
                  ": verdict differs from the first run of the cell");
      if (it->second.counters != r.counters)
        violation(std::string(pass) + " " + cellName(c.req) + ": counter " +
                  firstDifference(it->second.counters, r.counters) +
                  " differs from the first run of the cell");
    }
  }

  /// Table 5: correct rewriting cells of equal width have the same CNF.
  void checkTable5() {
    std::map<unsigned, std::pair<std::size_t, Counters>> byWidth;
    for (const auto& [i, r] : first_) {
      const core::VerifyRequest& q = cells_[i].req;
      if (q.strategy != Strategy::RewritingPlusPositiveEquality ||
          q.bug.kind != BugKind::None || r.verdict != Verdict::Correct)
        continue;
      Counters cnf = {{"cnf.vars", counter(r.counters, "cnf.vars")},
                      {"cnf.clauses", counter(r.counters, "cnf.clauses")}};
      auto [it, fresh] = byWidth.try_emplace(q.issueWidth, i, cnf);
      if (!fresh && it->second.second != cnf)
        violation("Table 5: " + cellName(q) + " and " +
                  cellName(cells_[it->second.first].req) +
                  " differ in cnf.vars/cnf.clauses");
    }
  }

  void violation(const std::string& msg) {
    std::fprintf(stderr, "perfbench: VIOLATION %s\n", msg.c_str());
    ++violations_;
  }

  static std::uint64_t counter(const Counters& cs, std::string_view name) {
    for (const auto& [n, v] : cs)
      if (n == name) return v;
    return 0;
  }

  static std::string firstDifference(const Counters& a, const Counters& b) {
    for (std::size_t j = 0; j < std::min(a.size(), b.size()); ++j)
      if (a[j] != b[j])
        return a[j].first + " (" + std::to_string(a[j].second) + " vs " +
               std::to_string(b[j].second) + ")";
    return "set (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " entries)";
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool passed() const { return violations_ == 0; }

 private:
  const std::vector<Cell>& cells_;
  std::map<std::size_t, CellRecord> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t violations_ = 0;
};

// ---- timed run -------------------------------------------------------------

unsigned cellJobs() { return std::min(4u, ThreadPool::hardwareThreads()); }

CellRecord runTimedCell(const core::VerifyRequest& req) {
  core::GridRunOptions gopts;
  gopts.jobs = 1;
  gopts.cellJobs = cellJobs();
  const std::vector<core::GridCellResult> res =
      core::runGrid(std::span<const core::VerifyRequest>(&req, 1), gopts);
  const core::VerifyReport& rep = res.front().report;
  return {rep.verdict(), core::reportCounters(rep),
          rep.outcome.peakArenaBytes};
}

struct PassTotals {
  double wall = 0;
  double cpu = 0;
  std::uint64_t peakArenaBytes = 0;
  bool complete = true;  // false when the run deadline cut the pass short
};

// ---- traced run ------------------------------------------------------------

struct SpanRecord {
  std::size_t cell;
  std::string name;  // layer span ("tlsim.busy") or "cell"
  double start;      // seconds since the traced run began
  double dur;
  long parent;       // index of the cell span, -1 for a cell span
};

/// One traced pass, summed over its cells: seconds by span name (plus the
/// CPU seconds "rewrite.cpu" and "evc.cpu" and the program's own
/// "sat.inprocess.subsume" span), and work counts by metric name.
struct LayerTotals {
  std::map<std::string, double> seconds;
  std::map<std::string, std::uint64_t> counts;
  double cellWall = 0;
};

template <class V>
double lookup(const std::map<std::string, V>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : static_cast<double>(it->second);
}

class Tracer {
 public:
  Tracer() : epoch_(monotonicNow()) {}

  /// Open the span of one cell; layer spans opened until closeCell() are
  /// its children.
  void openCell(std::size_t cell) {
    cell_ = cell;
    cellSpan_ = static_cast<long>(spans_.size());
    spans_.push_back({cell, "cell", monotonicNow() - epoch_, 0, -1});
    layerSum_ = 0;
  }

  /// Time `f` as the layer span `name` of the open cell.
  template <class F>
  auto layer(const char* name, LayerTotals& t, F&& f) {
    const double start = monotonicNow();
    struct Close {
      Tracer& tr;
      const char* name;
      LayerTotals& t;
      double start;
      ~Close() {
        const double dur = monotonicNow() - start;
        tr.spans_.push_back(
            {tr.cell_, name, start - tr.epoch_, dur, tr.cellSpan_});
        t.seconds[name] += dur;
        tr.layerSum_ += dur;
      }
    } close{*this, name, t, start};
    return f();
  }

  /// Close the cell span; the part of it no layer span covers is the
  /// core glue (core.unattributed), returned.
  double closeCell(LayerTotals& t) {
    SpanRecord& c = spans_[static_cast<std::size_t>(cellSpan_)];
    c.dur = monotonicNow() - epoch_ - c.start;
    t.cellWall += c.dur;
    t.seconds["core.unattributed"] += c.dur - layerSum_;
    return c.dur - layerSum_;
  }

  void write(const std::string& path, const std::vector<Cell>& cells) const {
    std::ofstream os(path);
    os << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"start_s\": %.9f, \"dur_s\": %.9f, \"parent\": %ld}",
                    s.start, s.dur, s.parent);
      os << "  {\"id\": " << i << ", \"cell\": \""
         << cellName(cells[s.cell].req) << "\", \"name\": \"" << s.name
         << "\", " << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
  }

 private:
  double epoch_;
  std::vector<SpanRecord> spans_;
  std::size_t cell_ = 0;
  long cellSpan_ = -1;
  double layerSum_ = 0;
};

Verdict budgetVerdict(BudgetKind kind) {
  return kind == BudgetKind::Memory ? Verdict::MemOut : Verdict::Timeout;
}

/// One cell through the layers' public functions, in verifyWith()'s order
/// (SAT engine, no checkpoint, memo or incremental session). Fills a
/// VerifyReport the same way verifyWith() does, so core::reportCounters()
/// of the result is comparable with the timed run's.
CellRecord runTracedCell(const core::VerifyRequest& req, Tracer& tr,
                         LayerTotals& t) {
  core::VerifyOptions opts = req.options();
  opts.jobs = cellJobs();
  core::VerifyReport rep;
  rep.engine = opts.engine;

  trace::Collector collector;  // reads the program's own SAT spans
  trace::Use tracing(&collector);

  auto cx = std::make_unique<eufm::Context>();
  std::unique_ptr<models::OoOProcessor> impl;
  std::unique_ptr<models::SpecProcessor> spec;
  models::Isa isa;
  tr.layer("models.build", t, [&] {
    isa = models::Isa::declare(*cx);
    impl = models::buildOoO(*cx, isa, req.config(), req.bug);
    spec = models::buildSpec(*cx, isa);
  });

  BudgetGovernor gov(opts.budget);
  cx->setBudget(&gov);
  std::unique_ptr<ThreadPool> pool;
  if (opts.jobs > 1) pool = std::make_unique<ThreadPool>(opts.jobs);
  std::optional<evc::Translation> translation;

  auto scan = [&] {
    return tr.layer("eufm.scan", t, [&] { return core::scanContext(*cx); });
  };
  try {
    const core::Diagram d = tr.layer("tlsim.busy", t, [&] {
      return core::buildDiagram(*cx, *impl, *spec, opts.sim);
    });
    rep.simStats = d.implSimStats;
    t.counts["tlsim.signal_evals"] +=
        d.implSimStats.signalEvals + d.flushSimStats.signalEvals;
    t.counts["eufm.sim_nodes"] += scan().nodes;

    eufm::Expr correctness = d.correctness;
    evc::TranslateOptions topts;
    topts.ufScheme = opts.ufScheme;
    topts.pool = pool.get();
    // The PE-only strategy skips the stage; its span still records the
    // (near-zero) time of the skipped stage, so every workload reports it.
    const double rwCpu0 = cpuSeconds();
    using Rewritten = std::optional<rewrite::RewriteResult>;
    const Rewritten rw = tr.layer("rewrite.busy", t, [&]() -> Rewritten {
      if (opts.strategy != Strategy::RewritingPlusPositiveEquality)
        return std::nullopt;
      return rewrite::rewriteRobUpdates(*cx, isa, impl->init, impl->config,
                                        d.implRegFile, d.specRegFile,
                                        pool.get());
    });
    t.seconds["rewrite.cpu"] += cpuSeconds() - rwCpu0;
    t.counts["eufm.rewrite_nodes"] += scan().nodes;
    const bool mismatch = rw && !rw->ok;
    if (rw) {
      rep.rewriteStats = rw->stats;
      if (mismatch) {
        rep.outcome.failedSlice = rw->failedSlice;
        rep.outcome.verdict = Verdict::RewriteMismatch;
      } else {
        // Re-assemble the correctness formula from the rewritten Register
        // File expressions, as verifyWith() does.
        rep.updatesRemoved = rw->updatesRemoved;
        eufm::Expr c = cx->mkFalse();
        for (unsigned m = 0; m < d.specPc.size(); ++m) {
          const eufm::Expr eqPc = cx->mkEq(d.implPc, d.specPc[m]);
          const eufm::Expr eqRf = cx->mkEq(rw->implRegFile, rw->specRegFile[m]);
          c = cx->mkOr(c, cx->mkAnd(eqPc, eqRf));
        }
        correctness = c;
        topts.conservativeMemory = true;
      }
    }

    if (!mismatch) {
      const double cpu0 = cpuSeconds();
      translation.emplace(tr.layer("evc.busy", t, [&] {
        return evc::translate(*cx, correctness, topts);
      }));
      t.seconds["evc.cpu"] += cpuSeconds() - cpu0;
      rep.evcStats = translation->stats;

      // sat::solveCnfInprocessed(), split at its two calls.
      sat::SimplifyResult sr;
      if (opts.inprocess.enabled) {
        sr = tr.layer("sat.inprocess", t, [&] {
          return sat::inprocess(translation->cnf, opts.inprocess, nullptr,
                                &gov);
        });
        rep.inprocessStats = sr.stats;
        rep.inprocessed = true;
      }
      rep.outcome.satResult = tr.layer("sat.solve", t, [&] {
        return sat::solveCnf(opts.inprocess.enabled ? sr.cnf : translation->cnf,
                             nullptr, &rep.satStats, opts.budget.satConflicts,
                             nullptr, &gov);
      });
      if (sr.provedUnsat) rep.outcome.satResult = sat::Result::Unsat;
      switch (rep.outcome.satResult) {
        case sat::Result::Unsat:
          rep.outcome.verdict = Verdict::Correct;
          break;
        case sat::Result::Sat:
          rep.outcome.verdict = Verdict::CounterexampleFound;
          break;
        case sat::Result::Unknown:
          rep.outcome.verdict = gov.exceeded()
                                    ? budgetVerdict(gov.exceededKind())
                                    : Verdict::Inconclusive;
          break;
      }
    }
  } catch (const BudgetExceeded& e) {
    rep.outcome.verdict = budgetVerdict(e.kind());
  }
  rep.outcome.peakArenaBytes = gov.peakArenaBytes();
  rep.cxStats = scan();

  using Count = std::pair<const char*, std::uint64_t>;
  for (const auto& [name, n] : std::initializer_list<Count>{
           {"rewrite.rules_fired", rep.rewriteStats.rulesFired()},
           {"rewrite.updates_removed", rep.updatesRemoved},
           {"rewrite.slices_checked", rep.rewriteStats.slicesChecked},
           {"cnf.vars", rep.evcStats.cnfVars},
           {"cnf.clauses", rep.evcStats.cnfClauses},
           {"evc.eij_vars", rep.evcStats.eijVars},
           {"evc.transitivity_clauses", rep.evcStats.transitivity.clauses},
           {"sat.inprocess.clauses_before", rep.inprocessStats.clausesBefore},
           {"sat.inprocess.clauses_after", rep.inprocessStats.clausesAfter},
           {"sat.conflicts", rep.satStats.conflicts},
           {"sat.propagations", rep.satStats.propagations},
           {"eufm.nodes", rep.cxStats.nodes},
           {"eufm.arena_bytes", rep.cxStats.arenaBytes}})
    t.counts[name] += n;
  for (const trace::SpanEvent& s : collector.spans())
    if (std::string_view(s.name) == "sat.inprocess.subsume")
      t.seconds["sat.inprocess.subsume"] += 1e-6 * static_cast<double>(s.durUs);

  // Teardown in verify()'s order: the stage results and the pool first
  // (glue), then the models and the EUFM context with its arena.
  translation.reset();
  pool.reset();
  cx->setBudget(nullptr);
  tr.layer("eufm.teardown", t, [&] {
    spec.reset();
    impl.reset();
    cx.reset();
  });
  return {rep.verdict(), core::reportCounters(rep),
          rep.outcome.peakArenaBytes};
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics, double setup) {
  auto quoted = [](std::string_view s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  };
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " +
           buf + ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  std::snprintf(buf, sizeof buf, "%.17g", setup);
  out += std::string("}, \"setup_s\": ") + buf + "}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "diagonal|deep_rob|pe_only|refute --seed N --seconds S "
               "--trace 0|1 [--spawn-time T] [--trace-out FILE] "
               "[--setup-only] [--smallest] [--flip-expected]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const double start = monotonicNow();
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  double spawnTime = start;
  std::string traceOut;
  bool setupOnly = false, smallest = false, flipExpected = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--setup-only") setupOnly = true;
    else if (a == "--smallest") smallest = true;
    else if (a == "--flip-expected") flipExpected = true;
    else if ((a == "--workload" || a == "--seed" || a == "--seconds" ||
              a == "--trace" || a == "--spawn-time" || a == "--trace-out") &&
             (v = next()) != nullptr) {
      char* end = nullptr;
      if (a == "--workload") workload = v;
      else if (a == "--trace-out") traceOut = v;
      else if (a == "--seed") seed = std::strtoull(v, &end, 10);
      else if (a == "--trace") traced = std::string_view(v) == "1";
      else if (a == "--seconds") seconds = std::strtod(v, &end);
      else spawnTime = std::strtod(v, &end);
      if (end != nullptr && *end != '\0') return usage("bad number");
    } else {
      return usage(("bad argument: " + std::string(a)).c_str());
    }
  }

  std::optional<std::vector<Cell>> made = makeWorkload(workload, seed);
  if (!made) return usage("unknown workload");
  std::vector<Cell> cells = std::move(*made);
  for (const Cell& c : cells)
    if (auto err = c.req.validate()) return usage(err->c_str());
  if (smallest) {
    // The cheapest cell: fewest ROB entries, then the narrowest.
    auto size = [](const Cell& c) {
      return std::pair(c.req.robSize, c.req.issueWidth);
    };
    auto it = std::min_element(
        cells.begin(), cells.end(),
        [&](const Cell& a, const Cell& b) { return size(a) < size(b); });
    cells = {*it};
  }
  if (flipExpected)
    cells.front().expected = cells.front().expected == Verdict::Correct
                                 ? Verdict::CounterexampleFound
                                 : Verdict::Correct;
  Checker check(cells);

  // setup_s: process start (the caller's spawn time) to the first request.
  const double setup = monotonicNow() - spawnTime;
  if (setupOnly) {
    printResult(true, 1, 0, {}, setup);
    return 0;
  }
  for (const Cell& c : cells)
    std::fprintf(stderr, "perfbench: cell %s, expected %s\n",
                 cellName(c.req).c_str(), core::verdictName(c.expected));

  // One timed pass: every cell, closed loop, through runGrid.
  auto timedPass = [&](const char* label) {
    PassTotals p;
    const double cpu0 = cpuSeconds();
    const double t0 = monotonicNow();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (monotonicNow() - start > kRunDeadlineSeconds) {
        check.violation("run deadline reached before " +
                        cellName(cells[i].req));
        p.complete = false;
        break;
      }
      const CellRecord r = runTimedCell(cells[i].req);
      check.record(i, r, label);
      p.peakArenaBytes = std::max(p.peakArenaBytes, r.peakArenaBytes);
    }
    p.wall = monotonicNow() - t0;
    p.cpu = cpuSeconds() - cpu0;
    return p;
  };
  // Passes repeat while another one still fits in --seconds.
  auto fits = [&](double t0, double lastPass) {
    return monotonicNow() - t0 + lastPass <= seconds;
  };

  std::vector<Metric> metrics;
  const double runStart = monotonicNow();
  std::vector<PassTotals> timed = {timedPass("timed")};
  if (!traced) {
    while (timed.back().complete && fits(runStart, timed.back().wall))
      timed.push_back(timedPass("timed"));
    std::vector<double> walls, cpus;
    std::uint64_t peakArena = 0;
    for (const PassTotals& p : timed) {
      walls.push_back(p.wall);
      cpus.push_back(p.cpu);
      peakArena = std::max(peakArena, p.peakArenaBytes);
    }
    check.checkTable5();
    const double okRatio = 1.0 - static_cast<double>(check.failed()) /
                                     static_cast<double>(check.attempted());
    metrics = {
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"peak_rss_mb", static_cast<double>(rssHighWaterKb()) / 1024.0, "MiB"},
        {"peak_arena_mb", static_cast<double>(peakArena) / kMiB, "MiB"},
        {"ok_ratio", okRatio, "ratio"},
    };
    std::fprintf(stderr, "perfbench: %zu timed passes, wall s:", timed.size());
    for (double w : walls) std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr, "\n");
  } else {
    Tracer tracer;
    std::vector<LayerTotals> passes;
    do {
      LayerTotals t;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (monotonicNow() - start > kRunDeadlineSeconds) {
          check.violation("run deadline reached before traced " +
                          cellName(cells[i].req));
          break;
        }
        tracer.openCell(i);
        const CellRecord r = runTracedCell(cells[i].req, tracer, t);
        // Layer spans are disjoint children of the cell span, so the glue
        // left over can never be negative.
        if (tracer.closeCell(t) < 0)
          check.violation("traced " + cellName(cells[i].req) +
                          ": layer spans overlap");
        // Drift guard: record() compares the verdict and the counter block
        // with the timed pass, which went through core::runGrid.
        check.record(i, r, "traced");
      }
      passes.push_back(std::move(t));
    } while (fits(runStart, passes.back().cellWall));
    check.checkTable5();

    // Times are medians over the traced passes; counts repeat exactly, so
    // the first pass gives them.
    auto sec = [&](const char* name) {
      std::vector<double> v;
      for (const LayerTotals& t : passes) v.push_back(lookup(t.seconds, name));
      return median(v);
    };
    auto cnt = [&](const char* name) {
      return lookup(passes.front().counts, name);
    };
    std::vector<double> walls;
    for (const LayerTotals& t : passes) walls.push_back(t.cellWall);
    const double cellWall = median(walls);
    const double clausesBefore = cnt("sat.inprocess.clauses_before");
    metrics = {
        {"models.build_s", sec("models.build"), "s"},
        {"tlsim.busy_s", sec("tlsim.busy"), "s"},
        {"tlsim.signal_evals", cnt("tlsim.signal_evals"), "count"},
        {"tlsim.ns_per_eval",
         1e9 * sec("tlsim.busy") / std::max(1.0, cnt("tlsim.signal_evals")),
         "ns"},
        {"rewrite.busy_s", sec("rewrite.busy"), "s"},
        {"rewrite.cpu_s", sec("rewrite.cpu"), "s"},
        {"rewrite.parallelism", sec("rewrite.cpu") / sec("rewrite.busy"),
         "ratio"},
        {"rewrite.rules_fired", cnt("rewrite.rules_fired"), "count"},
        {"rewrite.updates_removed", cnt("rewrite.updates_removed"), "count"},
        {"rewrite.slices_checked", cnt("rewrite.slices_checked"), "count"},
        {"evc.busy_s", sec("evc.busy"), "s"},
        {"evc.cpu_s", sec("evc.cpu"), "s"},
        {"cnf.vars", cnt("cnf.vars"), "count"},
        {"cnf.clauses", cnt("cnf.clauses"), "count"},
        {"evc.eij_vars", cnt("evc.eij_vars"), "count"},
        {"evc.transitivity_clauses", cnt("evc.transitivity_clauses"), "count"},
        {"sat.inprocess_s", sec("sat.inprocess"), "s"},
        {"sat.inprocess.subsume_s", sec("sat.inprocess.subsume"), "s"},
        {"sat.inprocess.clauses_after", cnt("sat.inprocess.clauses_after"),
         "count"},
        {"sat.inprocess.useful_ratio",
         clausesBefore == 0
             ? 0.0
             : 1.0 - cnt("sat.inprocess.clauses_after") / clausesBefore,
         "ratio"},
        {"sat.solve_s", sec("sat.solve"), "s"},
        {"sat.conflicts", cnt("sat.conflicts"), "count"},
        {"sat.propagations", cnt("sat.propagations"), "count"},
        {"sat.props_per_s", cnt("sat.propagations") / sec("sat.solve"), "1/s"},
        {"eufm.nodes", cnt("eufm.nodes"), "count"},
        {"eufm.arena_mb", cnt("eufm.arena_bytes") / kMiB, "MiB"},
        {"eufm.sim_nodes", cnt("eufm.sim_nodes"), "count"},
        {"eufm.rewrite_nodes", cnt("eufm.rewrite_nodes"), "count"},
        {"eufm.scan_s", sec("eufm.scan"), "s"},
        {"eufm.teardown_s", sec("eufm.teardown"), "s"},
        {"core.unattributed_s", sec("core.unattributed"), "s"},
        {"trace.cell_wall_s", cellWall, "s"},
        {"trace.overhead_s", cellWall - timed.front().wall, "s"},
    };
    std::fprintf(stderr, "perfbench: 1 timed and %zu traced passes\n",
                 passes.size());
    if (!traceOut.empty()) tracer.write(traceOut, cells);
  }

  const bool correct = check.passed();
  printResult(correct, check.attempted(), check.failed(), metrics, setup);
  return correct ? 0 : 1;
}
