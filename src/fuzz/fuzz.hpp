// Differential fuzzing of the verification pipeline.
//
// The repository has four independent ways to judge one (OoOConfig,
// BugSpec) case:
//
//   1. the rewriting flow (Strategy::RewritingPlusPositiveEquality) — the
//      paper's contribution; structurally pinpoints a non-conforming slice;
//   2. the PE-only flow (Strategy::PositiveEqualityOnly) — exact for the
//      safety criterion but exponential in the ROB size, so it is budget-
//      capped and only attempted on small configurations;
//   3. direct concrete evaluation of the EUFM correctness formula under
//      random finite interpretations (eufm/eval) — the semantic ground
//      truth, sound for refutation only;
//   4. the BDD decision engine (bdd/check) on the same PE translation —
//      exact like oracle 2 but with a completely different propositional
//      back end (shared ROBDDs instead of Tseitin CNF + CDCL).
//
// The fuzzer generates seeded random cases, runs all four oracles, and
// flags any *sound* disagreement (see findDisagreement() for the exact
// agreement relation — RewriteMismatch is a conservative structural
// verdict and never counts as a claim of semantic invalidity). A PE-only
// SAT model is decoded back through the e_ij/control-variable encoding
// into a term-level counterexample and cross-checked against the EUFM
// formula it refutes, which keeps the whole translation stack
// (classification, UF elimination, e_ij encoding, transitivity, Tseitin)
// honest. Disagreeing cases are shrunk by delta-debugging into minimal
// reproducers and written as replayable JSON corpus entries.
//
// Everything is deterministic from FuzzOptions::seed: budgets are logical
// (SAT conflicts, arena bytes), never wall-clock, so the same seed
// reproduces byte-identical corpus output on any machine.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/diagram.hpp"
#include "core/verifier.hpp"
#include "evc/translate.hpp"
#include "models/ooo.hpp"
#include "support/budget.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace velev::fuzz {

// ---- case generation --------------------------------------------------------

struct GenOptions {
  unsigned minRobSize = 1;
  unsigned maxRobSize = 6;
  unsigned maxIssueWidth = 4;  // clamped to the drawn ROB size
  /// Probability (percent) that a case carries no injected bug — the
  /// agreement between "correct" verdicts is what guards soundness.
  unsigned noBugPercent = 35;
};

/// One randomized verification case. `seed` drives the evaluation oracle
/// (and nothing else), so a corpus entry replays without the generator.
struct FuzzCase {
  std::uint64_t id = 0;    // ordinal within the fuzz run
  std::uint64_t seed = 0;  // per-case seed for the evaluation oracle
  models::OoOConfig cfg;
  models::BugSpec bug;
};

/// The bug kinds the generator can emit (everything but BugKind::None).
std::span<const models::BugKind> generatableBugKinds();

/// Lowest 1-based slice at which this bug kind is worth injecting. The
/// forwarding bugs are structurally harmless at slice 1 (there is no
/// preceding entry to forward from — rewrite_test pins this down), so the
/// generator starts them at slice 2.
unsigned bugIndexMin(models::BugKind k);

/// Draw one case. Always yields a config/bug pair buildOoO() accepts.
FuzzCase generateCase(Rng& rng, std::uint64_t id, const GenOptions& opts = {});

// ---- counterexample decoding (evc/encode inverse) ---------------------------

/// A SAT model of the translated (negated) correctness formula, decoded
/// back to the EUFM level: control-variable truth values, e_ij equalities,
/// and a scalar assignment for the g-term variables derived from the
/// union-find closure of the e_ij = true pairs.
struct Counterexample {
  /// EUFM Boolean variables by name (original control signals plus the
  /// fresh Boolean variables UF elimination introduced), sorted by name.
  std::vector<std::pair<std::string, bool>> bools;
  struct Eij {
    std::string a, b;   // term-variable names, a < b
    bool equal = false;  // the model's e_ij value
  };
  std::vector<Eij> eijs;
  /// Term variables named by the e_ij graph -> scalar value, one distinct
  /// value per union-find class (sorted by name).
  std::vector<std::pair<std::string, std::uint64_t>> terms;

  /// False iff the e_ij assignment violates transitivity — that would mean
  /// the transitivity constraints of the encoding are broken.
  bool transitive = true;
  /// The decoded assignment falsifies the UF-free formula the encoder
  /// consumed (Translation::ufRoot). Must hold for every Sat model; a
  /// violation is a translation bug and counts as a disagreement.
  bool falsifiesUfRoot = false;

  /// Concrete refutation of the *original* correctness formula found by
  /// replaying the decoded control signals over random term seeds: which
  /// interpretation, and which disjunct m of the Burch-Dill criterion
  /// fails (PC out of sync, RF out of sync, or both). replaySeed is
  /// meaningful only when replayRefuted.
  bool replayRefuted = false;
  std::uint64_t replaySeed = 0;
  std::uint64_t replayDomain = 0;
  /// Human-readable failing-slice summary (control schedule + the failing
  /// disjuncts); empty when the replay found no concrete refutation.
  std::string prettySlice;
};

/// CNF variable (1-based DIMACS index) of a propositional input literal of
/// the translation — the model index Counterexample decoding reads.
std::uint32_t cnfVarOf(const evc::Translation& tr, prop::PLit lit);

/// Decode `model` (indexed by CNF variable, entry 0 unused — the shape
/// sat::solveCnf returns). When `diagram`/`impl` are given, the decoded
/// control signals are replayed against the original correctness formula
/// to name the failing disjunct (fills replay*/prettySlice).
Counterexample decodeModel(eufm::Context& cx, const evc::Translation& tr,
                           const std::vector<bool>& model,
                           const core::Diagram* diagram = nullptr,
                           const models::OoOProcessor* impl = nullptr);

// ---- the four oracles -------------------------------------------------------

struct OracleOptions {
  /// Budget for the rewriting flow (unlimited by default — it is
  /// polynomial and fast at fuzzable sizes).
  ResourceBudget rewriteBudget;
  /// Budget for the PE-only flow. Keep the wall-clock field at 0 and govern
  /// by SAT conflicts + arena bytes: logical budgets are deterministic, so
  /// verdicts (and therefore corpus bytes) reproduce across machines.
  ResourceBudget peBudget = peDefaultBudget();
  /// Budget for the BDD oracle. Logical only (node-table bytes, no wall
  /// clock) for the same determinism reason; a trip records MemOut and the
  /// case drops out of the BDD differential.
  ResourceBudget bddBudget = bddDefaultBudget();
  /// Interpretations tried by the evaluation oracle (half of them pin every
  /// NDExecute_i to true, which maximizes bug observability).
  unsigned evalSeeds = 48;
  bool runPe = true;      // master switch for the PE oracle
  bool runBdd = true;     // master switch for the BDD oracle
  bool decode = true;     // decode PE Sat models / BDD satisfying paths
  /// Inprocessing front end of the PE oracle's SAT stage. Enabled by
  /// default: every Sat model is reconstructed onto the original CNF
  /// variables before decoding, so the decode sanity checks (transitivity,
  /// falsifies-UF-root) double as a reconstruction round-trip oracle. The
  /// deterministic tick caps keep budget-capped verdicts (and therefore
  /// corpus bytes) machine-independent.
  sat::InprocessOptions inprocess;
  static ResourceBudget peDefaultBudget() {
    ResourceBudget b;
    b.satConflicts = 120000;          // > the 4x2 UNSAT proof (~32k conflicts)
    b.memoryBytes = 512u << 20;       // logical arena bytes, deterministic
    return b;
  }
  static ResourceBudget bddDefaultBudget() {
    ResourceBudget b;
    b.memoryBytes = 256u << 20;       // BDD node table + cache, deterministic
    return b;
  }
};

/// Is the PE-only flow worth attempting on this configuration? The CNF
/// blows up with N and k (Table 2); outside this envelope the PE oracle is
/// recorded as skipped and excluded from the differential.
bool peFeasible(const models::OoOConfig& cfg);

/// Is the BDD oracle worth attempting? Strictly inside peFeasible(): on
/// falsifiable formulas the fixed-order BDD can fill its node-table budget
/// (8-9 s to memout at 256 MiB) where the SAT side takes milliseconds, so
/// the fuzzer cross-checks only the cells where the BDD usually decides,
/// and records everything larger as Skipped.
bool bddFeasible(const models::OoOConfig& cfg);

/// What every oracle said about one case.
struct OracleOutcome {
  core::Verdict rewriteVerdict = core::Verdict::Inconclusive;
  unsigned rewriteFailedSlice = 0;   // RewriteMismatch only
  std::string rewriteReason;

  core::Verdict peVerdict = core::Verdict::Skipped;
  std::uint64_t peConflicts = 0;

  /// The BDD oracle shares the PE translation (bddFeasible() envelope);
  /// Skipped when the case is outside it or runBdd is off.
  core::Verdict bddVerdict = core::Verdict::Skipped;
  std::uint64_t bddPeakNodes = 0;

  bool evalRefuted = false;          // some interpretation falsified the case
  std::uint64_t evalRefutingSeed = 0;
  unsigned evalSeedsRun = 0;

  std::optional<Counterexample> cex;     // decoded PE Sat model
  std::optional<Counterexample> bddCex;  // decoded BDD satisfying path
  double seconds = 0;                    // wall time (never serialized)
};

/// Run all four oracles on one case (fresh Context per call — the
/// one-Context-per-cell rule applies to fuzz cases too).
OracleOutcome runOracles(const FuzzCase& c, const OracleOptions& opts = {});

/// The agreement relation. Returns a description of the first *sound*
/// disagreement, or nullopt when the outcome is consistent:
///   * a flow claiming Correct while the evaluation oracle refutes;
///   * the rewriting flow claiming Correct while PE finds a counterexample
///     (PE Sat is exact, not conservative);
///   * the PE flow claiming Correct while the rewriting flow's SAT stage
///     found a counterexample;
///   * the BDD and PE verdicts disagreeing while both are conclusive (both
///     are exact deciders of the same formula);
///   * the BDD oracle claiming Correct while the rewriting flow refutes
///     (mirror of the PE clause);
///   * a decoded PE model or BDD path that violates transitivity or fails
///     to falsify the formula it came from (a broken encoding).
/// RewriteMismatch is conservative/structural and agrees with anything;
/// Inconclusive/Timeout/MemOut/Skipped verdicts are excluded.
std::optional<std::string> findDisagreement(const OracleOutcome& o);

// ---- shrinking --------------------------------------------------------------

/// Does a candidate case still exhibit the behaviour being minimized?
using ReproPredicate = std::function<bool(const FuzzCase&)>;

struct ShrinkResult {
  FuzzCase minimal;
  unsigned attempts = 0;    // predicate evaluations
  unsigned reductions = 0;  // accepted shrink steps
};

/// Greedy deterministic delta-debugging over (robSize, issueWidth,
/// bug.index): repeatedly tries halving/decrementing each dimension
/// (keeping the case well-formed) and keeps any candidate for which
/// `stillFails` holds, until a fixpoint or `maxAttempts`.
ShrinkResult shrinkCase(const FuzzCase& failing,
                        const ReproPredicate& stillFails,
                        unsigned maxAttempts = 64);

// ---- corpus I/O -------------------------------------------------------------

constexpr int kCorpusSchemaVersion = 1;

/// One replayable corpus entry: the case plus the verdicts recorded when
/// it was created — replay re-runs the oracles and diffs against these.
struct CorpusEntry {
  FuzzCase c;
  std::string rewriteVerdict;     // core::verdictName()
  unsigned failedSlice = 0;       // RewriteMismatch only
  std::string peVerdict;          // core::verdictName()
  /// core::verdictName(), or "" on entries written before the BDD oracle
  /// existed — the field is serialized only when non-empty and replay only
  /// diffs it when both sides are conclusive.
  std::string bddVerdict;
  bool evalRefuted = false;
  bool decoded = false;           // a consistent counterexample was decoded
  std::string note;               // free-form (disagreement text on repros)
};

/// Fill a CorpusEntry's expectation fields from an oracle outcome.
CorpusEntry makeCorpusEntry(const FuzzCase& c, const OracleOutcome& o);

/// Deterministic JSON ({"schema_version":1,"entries":[...]}): identical
/// entries yield identical bytes.
void writeCorpus(std::ostream& os, std::span<const CorpusEntry> entries);

/// Parse one entry object; nullopt + *err on malformed input.
std::optional<CorpusEntry> parseCorpusEntry(const JsonValue& v,
                                            std::string* err = nullptr);

/// Load a corpus document (or a bare entry object) from a file.
std::vector<CorpusEntry> loadCorpusFile(const std::string& path,
                                        std::string* err = nullptr);

/// Re-run the oracles on a corpus entry and diff against its recorded
/// expectations. Returns the first mismatch, nullopt when it reproduces.
/// Budget-capped verdicts (inconclusive/timeout/memout/skipped) on either
/// side of the PE comparison are not diffed — they are machine-dependent
/// only when the caller overrides the deterministic default budgets.
std::optional<std::string> replayEntry(const CorpusEntry& e,
                                       const OracleOptions& opts = {});

// ---- the harness ------------------------------------------------------------

struct FuzzOptions {
  std::uint64_t seed = 1;
  unsigned cases = 100;
  GenOptions gen;
  OracleOptions oracle;
  bool shrink = true;        // delta-debug disagreeing cases
  /// Directory for corpus.json + repro_case_<id>.json ("" = don't write).
  std::string outDir;
  /// Soft wall-clock stop for the whole run, checked *between* cases so it
  /// never changes a verdict (0 = unlimited). Cases not run are reported.
  double totalWallSeconds = 0;
  std::ostream* log = nullptr;  // per-case progress lines (null = silent)
};

struct CaseRecord {
  FuzzCase c;
  OracleOutcome o;
  std::optional<std::string> disagreement;
  std::optional<ShrinkResult> shrunk;  // only for disagreeing cases
};

struct FuzzReport {
  std::vector<CaseRecord> records;
  unsigned casesRun = 0;
  unsigned casesSkipped = 0;     // totalWallSeconds stopped the run early
  unsigned disagreements = 0;
  unsigned bugsInjected = 0;
  unsigned bugsDetected = 0;     // rewrite mismatch or PE counterexample
  unsigned benignBugs = 0;       // injected but semantically invisible
  unsigned peRuns = 0;           // cases where the PE oracle concluded
  unsigned bddRuns = 0;          // cases where the BDD oracle concluded
  unsigned decoded = 0;          // consistent decoded counterexamples
  double seconds = 0;

  /// 0 = all oracles agreed, 1 = at least one disagreement.
  int exitCode() const { return disagreements == 0 ? 0 : 1; }
};

/// Run the whole fuzz campaign: generate, cross-check, decode, shrink,
/// and (when outDir is set) write corpus.json plus one repro file per
/// disagreement. Emits fuzz.* trace counters on the attached collector.
FuzzReport runFuzz(const FuzzOptions& opts);

}  // namespace velev::fuzz
