#include "core/request.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>

#include "support/hash.hpp"
#include "support/trace.hpp"

namespace velev::core {

VerifyOptions VerifyRequest::options() const {
  VerifyOptions opts;
  opts.strategy = strategy;
  opts.engine = engine;
  opts.sim.coneOfInfluence = coneOfInfluence;
  opts.budget = budget();
  opts.skipSat = skipSat;
  opts.ufScheme = ufScheme;
  opts.inprocess.enabled = inprocess;
  return opts;
}

std::optional<std::string> VerifyRequest::validate() const {
  if (robSize < 1) return "rob_size must be >= 1";
  if (issueWidth < 1 || issueWidth > robSize)
    return "need 1 <= issue_width <= rob_size";
  if (bug.kind != models::BugKind::None) {
    const unsigned limit = models::bugIndexLimit(bug.kind, config());
    if (bug.index < 1 || bug.index > limit)
      return "bug_index out of range for " +
             std::string(models::bugKindName(bug.kind)) + " (1.." +
             std::to_string(limit) + ")";
  }
  return std::nullopt;
}

void VerifyRequest::writeJson(JsonWriter& w, bool includeId) const {
  w.beginObject();
  w.kv("version", kRequestSchemaVersion);
  if (includeId) w.kv("id", id);
  w.kv("rob_size", robSize);
  w.kv("issue_width", issueWidth);
  w.kv("bug_kind", models::bugKindName(bug.kind));
  w.kv("bug_index", bug.index);
  w.kv("strategy", strategyName(strategy));
  w.kv("engine", engineName(engine));
  w.kv("uf_scheme", evc::ufSchemeName(ufScheme));
  w.kv("skip_sat", skipSat);
  w.kv("cone_of_influence", coneOfInfluence);
  w.kv("inprocess", inprocess);
  w.kv("timeout_seconds", timeoutSeconds);
  w.kv("memory_budget_bytes", memoryBudgetBytes);
  w.kv("sat_conflict_budget", satConflictBudget);
  w.endObject();
}

std::string VerifyRequest::toJson(bool includeId) const {
  std::ostringstream os;
  JsonWriter w(os);
  writeJson(w, includeId);
  return os.str();
}

namespace {

/// Strict field cursor over one JSON object: every member must be consumed
/// by exactly one `take` call, or finish() reports it as unknown.
class FieldReader {
 public:
  explicit FieldReader(const JsonValue& v) : v_(v) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  void fail(std::string msg) {
    if (error_.empty()) error_ = std::move(msg);
  }

  const JsonValue* take(std::string_view key) {
    consumed_.emplace_back(key);
    return v_.find(key);
  }

  void takeUint(std::string_view key, std::uint64_t* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isNumber() || f->number < 0)
      return fail("field '" + std::string(key) +
                  "' must be a non-negative number");
    *out = static_cast<std::uint64_t>(f->number);
  }

  void takeInt(std::string_view key, std::int64_t* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isNumber())
      return fail("field '" + std::string(key) + "' must be a number");
    *out = static_cast<std::int64_t>(f->number);
  }

  void takeDouble(std::string_view key, double* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isNumber())
      return fail("field '" + std::string(key) + "' must be a number");
    *out = f->number;
  }

  void takeBool(std::string_view key, bool* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isBool())
      return fail("field '" + std::string(key) + "' must be a boolean");
    *out = f->boolean;
  }

  void takeString(std::string_view key, std::string* out) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isString())
      return fail("field '" + std::string(key) + "' must be a string");
    *out = f->string;
  }

  /// Enum field through a *FromName() inverse.
  template <class E, class FromName>
  void takeEnum(std::string_view key, E* out, FromName fromName) {
    const JsonValue* f = take(key);
    if (f == nullptr) return;
    if (!f->isString())
      return fail("field '" + std::string(key) + "' must be a string");
    const auto parsed = fromName(f->string);
    if (!parsed.has_value())
      return fail("unknown " + std::string(key) + ": '" + f->string + "'");
    *out = *parsed;
  }

  /// After all takes: any member not consumed is an unknown field.
  void finish() {
    if (!error_.empty()) return;
    for (const auto& [key, value] : v_.object) {
      (void)value;
      bool known = false;
      for (const std::string& c : consumed_)
        if (c == key) { known = true; break; }
      if (!known) return fail("unknown field '" + key + "'");
    }
  }

 private:
  const JsonValue& v_;
  std::vector<std::string> consumed_;
  std::string error_;
};

bool checkVersion(FieldReader& r, int expected, const char* what) {
  std::int64_t version = 0;
  const JsonValue* f = r.take("version");
  if (f == nullptr || !f->isNumber()) {
    r.fail(std::string(what) + " is missing the 'version' field");
    return false;
  }
  version = static_cast<std::int64_t>(f->number);
  if (version != expected) {
    r.fail("unsupported " + std::string(what) + " version " +
           std::to_string(version) + " (this build speaks version " +
           std::to_string(expected) + ")");
    return false;
  }
  return true;
}

std::optional<JsonValue> parseObject(std::string_view text,
                                     std::string* error) {
  std::string parseError;
  std::optional<JsonValue> v = parseJson(text, &parseError);
  if (!v.has_value()) {
    if (error != nullptr) *error = "malformed JSON: " + parseError;
    return std::nullopt;
  }
  if (!v->isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::optional<VerifyRequest> VerifyRequest::fromJson(const JsonValue& v,
                                                     std::string* error) {
  if (!v.isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  FieldReader r(v);
  VerifyRequest req;
  if (checkVersion(r, kRequestSchemaVersion, "request")) {
    r.takeUint("id", &req.id);
    std::uint64_t robSize = req.robSize, issueWidth = req.issueWidth;
    r.takeUint("rob_size", &robSize);
    r.takeUint("issue_width", &issueWidth);
    req.robSize = static_cast<unsigned>(robSize);
    req.issueWidth = static_cast<unsigned>(issueWidth);
    r.takeEnum("bug_kind", &req.bug.kind, models::bugKindFromName);
    std::uint64_t bugIndex = req.bug.index;
    r.takeUint("bug_index", &bugIndex);
    req.bug.index = static_cast<unsigned>(bugIndex);
    r.takeEnum("strategy", &req.strategy, strategyFromName);
    r.takeEnum("engine", &req.engine, engineFromName);
    r.takeEnum("uf_scheme", &req.ufScheme, evc::ufSchemeFromName);
    r.takeBool("skip_sat", &req.skipSat);
    r.takeBool("cone_of_influence", &req.coneOfInfluence);
    r.takeBool("inprocess", &req.inprocess);
    r.takeDouble("timeout_seconds", &req.timeoutSeconds);
    r.takeUint("memory_budget_bytes", &req.memoryBudgetBytes);
    r.takeInt("sat_conflict_budget", &req.satConflictBudget);
    r.finish();
  }
  if (r.ok()) {
    if (std::optional<std::string> invalid = req.validate();
        invalid.has_value()) {
      if (error != nullptr) *error = *invalid;
      return std::nullopt;
    }
    return req;
  }
  if (error != nullptr) *error = r.error();
  return std::nullopt;
}

std::optional<VerifyRequest> VerifyRequest::parse(std::string_view text,
                                                  std::string* error) {
  const std::optional<JsonValue> v = parseObject(text, error);
  if (!v.has_value()) return std::nullopt;
  return fromJson(*v, error);
}

std::uint64_t VerifyRequest::cacheKey() const {
  // Hash the canonical (id-free) JSON together with the code version: a
  // rebuilt binary must never serve a stale cached verdict.
  std::uint64_t h = 0x76656c65765f7221ULL;  // "velev_r!"
  for (const char c : toJson(/*includeId=*/false))
    h = hashCombine(h, static_cast<unsigned char>(c));
  for (const char* p = trace::gitDescribe(); *p != '\0'; ++p)
    h = hashCombine(h, static_cast<unsigned char>(*p));
  return h;
}

std::string VerifyRequest::cacheKeyHex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, cacheKey());
  return buf;
}

VerifyResponse VerifyResponse::fromReport(const VerifyRequest& req,
                                          const VerifyReport& rep,
                                          double wallSeconds) {
  VerifyResponse resp;
  resp.id = req.id;
  resp.cacheKey = req.cacheKeyHex();
  resp.verdict = rep.outcome.verdict;
  resp.reason = rep.outcome.reason;
  resp.failedSlice = rep.outcome.failedSlice;
  resp.exitCode = verdictExitCode(rep.outcome.verdict);
  resp.wallSeconds = wallSeconds;
  resp.seconds = rep.outcome.seconds;
  resp.peakArenaBytes = rep.outcome.peakArenaBytes;
  resp.rssHighWaterKb = rep.outcome.rssHighWaterKb;
  resp.counters = reportCounters(rep);
  return resp;
}

VerifyReport reportFromResponse(const VerifyResponse& resp, Engine engine) {
  VerifyReport rep;
  rep.engine = engine;
  rep.outcome.verdict = resp.verdict;
  rep.outcome.reason = resp.reason;
  rep.outcome.failedSlice = resp.failedSlice;
  rep.outcome.seconds = resp.seconds;
  rep.outcome.peakArenaBytes = resp.peakArenaBytes;
  rep.outcome.rssHighWaterKb = resp.rssHighWaterKb;

  const std::map<std::string, std::uint64_t> c(resp.counters.begin(),
                                               resp.counters.end());
  auto u64 = [&](const char* k) {
    auto it = c.find(k);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  auto u32 = [&](const char* k) { return static_cast<unsigned>(u64(k)); };
  rep.simStats.cycles = u64("tlsim.cycles");
  rep.simStats.signalEvals = u64("tlsim.signal_evals");
  rep.cxStats.nodes = u64("eufm.nodes");
  rep.cxStats.memoryReads = u64("eufm.memory_reads");
  rep.cxStats.memoryWrites = u64("eufm.memory_writes");
  rep.cxStats.arenaBytes = u64("eufm.arena_bytes");
  rep.updatesRemoved = u32("rewrite.updates_removed");
  rewrite::RewriteStats& rw = rep.rewriteStats;
  rw.slicesChecked = u32("rewrite.slices_checked");
  rw.contextChecks = u32("rewrite.context_checks");
  rw.movesApplied = u32("rewrite.moves_applied");
  rw.mergesApplied = u32("rewrite.merges_applied");
  rw.forwardingMatches = u32("rewrite.forwarding_matches");
  rw.sliceNodesTotal = u64("rewrite.slice_nodes_total");
  rw.sliceNodesMax = u64("rewrite.slice_nodes_max");
  evc::TranslationStats& ev = rep.evcStats;
  ev.eijVars = u32("evc.eij_vars");
  ev.otherPrimaryVars = u32("evc.other_primary_vars");
  ev.pEquations = u32("evc.p_equations");
  ev.gEquations = u32("evc.g_equations");
  ev.gVars = u32("evc.g_vars");
  ev.memoryEquations = u32("evc.memory_equations");
  ev.freshTermVars = u32("evc.fresh_term_vars");
  ev.freshBoolVars = u32("evc.fresh_bool_vars");
  ev.transitivity.fillInEdges = u32("evc.transitivity_fill_in_edges");
  ev.transitivity.triangles = u32("evc.transitivity_triangles");
  ev.transitivity.clauses = u32("evc.transitivity_clauses");
  ev.cnfVars = u64("cnf.vars");
  ev.cnfClauses = u64("cnf.clauses");
  sat::Stats& sa = rep.satStats;
  sa.decisions = u64("sat.decisions");
  sa.propagations = u64("sat.propagations");
  sa.conflicts = u64("sat.conflicts");
  sa.learnts = u64("sat.learnts");
  sa.restarts = u64("sat.restarts");
  // The sat.inprocess.* block's presence restores `inprocessed`; the bdd.*
  // block is keyed off the engine.
  if (c.count("sat.inprocess.rounds") != 0) {
    rep.inprocessed = true;
    sat::InprocessStats& ip = rep.inprocessStats;
    ip.rounds = u64("sat.inprocess.rounds");
    ip.clausesBefore = u64("sat.inprocess.clauses_before");
    ip.clausesAfter = u64("sat.inprocess.clauses_after");
    ip.clausesRemoved = u64("sat.inprocess.clauses_removed");
    ip.clausesStrengthened = u64("sat.inprocess.clauses_strengthened");
    ip.litsRemoved = u64("sat.inprocess.lits_removed");
    ip.varsEliminated = u64("sat.inprocess.vars_eliminated");
    ip.varsSubstituted = u64("sat.inprocess.vars_substituted");
    ip.reconstructionDepth = u64("sat.inprocess.reconstruction_depth");
  }
  if (engine != Engine::Sat) {
    bdd::BddStats& bs = rep.bddStats;
    bs.nodesPeak = u64("bdd.nodes_peak");
    bs.cacheHits = u64("bdd.cache_hits");
    bs.cacheLookups = u64("bdd.cache_lookups");
    bs.reorderings = u64("bdd.reorderings");
    bs.gcRuns = u64("bdd.gc_runs");
  }
  return rep;
}

VerifyResponse VerifyResponse::makeError(std::uint64_t id,
                                         std::string message) {
  VerifyResponse resp;
  resp.id = id;
  resp.error = std::move(message);
  resp.exitCode = 2;
  return resp;
}

void VerifyResponse::writeJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("version", kResponseSchemaVersion);
  w.kv("id", id);
  if (!error.empty()) {
    w.kv("error", error);
    w.kv("exit_code", exitCode);
    w.endObject();
    return;
  }
  w.kv("cached", cached);
  w.kv("cache_key", cacheKey);
  w.kv("verdict", verdictName(verdict));
  if (!reason.empty()) w.kv("reason", reason);
  if (failedSlice != 0) w.kv("failed_slice", failedSlice);
  w.kv("exit_code", exitCode);
  w.kv("wall_seconds", wallSeconds);
  w.key("stage_seconds");
  w.beginObject();
  w.kv("sim", seconds.sim);
  w.kv("rewrite", seconds.rewrite);
  w.kv("translate", seconds.translate);
  w.kv("sat", seconds.sat);
  w.kv("bdd", seconds.bdd);
  w.endObject();
  w.kv("peak_arena_bytes", peakArenaBytes);
  w.kv("rss_high_water_kb", rssHighWaterKb);
  w.key("counters");
  w.beginObject();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.endObject();
  w.endObject();
}

std::string VerifyResponse::toJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  writeJson(w);
  return os.str();
}

std::optional<VerifyResponse> VerifyResponse::fromJson(const JsonValue& v,
                                                       std::string* error) {
  if (!v.isObject()) {
    if (error != nullptr) *error = "expected a JSON object";
    return std::nullopt;
  }
  FieldReader r(v);
  VerifyResponse resp;
  if (checkVersion(r, kResponseSchemaVersion, "response")) {
    r.takeUint("id", &resp.id);
    r.takeString("error", &resp.error);
    r.takeBool("cached", &resp.cached);
    r.takeString("cache_key", &resp.cacheKey);
    r.takeEnum("verdict", &resp.verdict, verdictFromName);
    r.takeString("reason", &resp.reason);
    std::uint64_t failedSlice = 0;
    r.takeUint("failed_slice", &failedSlice);
    resp.failedSlice = static_cast<unsigned>(failedSlice);
    std::int64_t exitCode = resp.exitCode;
    r.takeInt("exit_code", &exitCode);
    resp.exitCode = static_cast<int>(exitCode);
    r.takeDouble("wall_seconds", &resp.wallSeconds);
    if (const JsonValue* stages = r.take("stage_seconds");
        stages != nullptr) {
      if (!stages->isObject())
        r.fail("field 'stage_seconds' must be an object");
      else {
        resp.seconds.sim = stages->numberAt("sim");
        resp.seconds.rewrite = stages->numberAt("rewrite");
        resp.seconds.translate = stages->numberAt("translate");
        resp.seconds.sat = stages->numberAt("sat");
        resp.seconds.bdd = stages->numberAt("bdd");
      }
    }
    r.takeUint("peak_arena_bytes", &resp.peakArenaBytes);
    r.takeUint("rss_high_water_kb", &resp.rssHighWaterKb);
    if (const JsonValue* counters = r.take("counters"); counters != nullptr) {
      if (!counters->isObject())
        r.fail("field 'counters' must be an object");
      else
        for (const auto& [name, value] : counters->object)
          resp.counters.emplace_back(
              name, value.isNumber() && value.number >= 0
                        ? static_cast<std::uint64_t>(value.number)
                        : 0);
    }
    r.finish();
  }
  if (r.ok()) return resp;
  if (error != nullptr) *error = r.error();
  return std::nullopt;
}

std::optional<VerifyResponse> VerifyResponse::parse(std::string_view text,
                                                    std::string* error) {
  const std::optional<JsonValue> v = parseObject(text, error);
  if (!v.has_value()) return std::nullopt;
  return fromJson(*v, error);
}

VerifyReport verify(const VerifyRequest& req, sat::SolveMemo* memo) {
  VerifyOptions opts = req.options();
  opts.satMemo = memo;
  return verifyCell(req.config(), req.bug, opts);
}

}  // namespace velev::core
