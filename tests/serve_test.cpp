// Tests for the velev_serve surface: the schema-versioned
// VerifyRequest/VerifyResponse JSON round trip (strict parsing — unknown
// fields, bad versions and unknown enum names are rejected), the
// content-addressed ResultCache (hit/owner/joined, coalescing, LRU, the
// uncacheable-Timeout policy), the persistent cache journal on the shared
// core::ResultStore, the in-process VerifyServer (caching,
// coalescing under concurrency, budget verdicts and their exit codes,
// malformed-line handling, control ops) and the socket client against a
// live server — cached answers must be identical to a fresh in-process
// verification.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/grid_runner.hpp"
#include "core/request.hpp"
#include "core/result_store.hpp"
#include "file_size_limit.hpp"
#include "sat/memo.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "support/json.hpp"
#include "support/timer.hpp"

namespace velev {
namespace {

core::VerifyRequest smallRequest(std::uint64_t id = 1) {
  core::VerifyRequest req;
  req.id = id;
  req.robSize = 3;
  req.issueWidth = 2;
  return req;
}

/// Fresh (empty) scratch directory under the system temp dir.
std::string freshDir(const char* name) {
  const auto p = std::filesystem::temp_directory_path() /
                 (std::string("velev_serve_test_") + name + "_" +
                  std::to_string(::getpid()));
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

/// Poll `pred` (1 ms cadence) until true or the deadline passes.
bool waitFor(const std::function<bool()>& pred, double seconds = 20) {
  Timer t;
  while (t.seconds() < seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// PIDs of our direct children running in `--worker` mode (Linux /proc).
std::vector<pid_t> workerPids() {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc", ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream cmdline(it->path() / "cmdline");
    std::string args((std::istreambuf_iterator<char>(cmdline)),
                     std::istreambuf_iterator<char>());
    if (args.find("--worker") == std::string::npos) continue;
    std::ifstream stat(it->path() / "stat");
    pid_t pid = 0, ppid = 0;
    std::string comm, state;
    stat >> pid >> comm >> state >> ppid;
    if (stat && ppid == ::getpid()) pids.push_back(pid);
  }
  return pids;
}

// ---- request schema ---------------------------------------------------------

TEST(ServeRequest, JsonRoundTripPreservesEveryField) {
  core::VerifyRequest req;
  req.id = 42;
  req.robSize = 16;
  req.issueWidth = 4;
  req.bug = {models::BugKind::ForwardingWrongOperand, 7};
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.engine = core::Engine::Both;
  req.ufScheme = evc::UfScheme::Ackermann;
  req.skipSat = true;
  req.coneOfInfluence = false;
  req.inprocess = false;
  req.timeoutSeconds = 12.5;
  req.memoryBudgetBytes = 1 << 20;
  req.satConflictBudget = 9999;

  std::string err;
  const auto back = core::VerifyRequest::parse(req.toJson(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, req);
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->bug.kind, models::BugKind::ForwardingWrongOperand);
  EXPECT_EQ(back->bug.index, 7u);
  EXPECT_EQ(back->satConflictBudget, 9999);
}

TEST(ServeRequest, DefaultsRoundTripAndFieldsAreOptional) {
  // All fields except "version" are optional: the minimal object is the
  // default request.
  std::string err;
  const auto req = core::VerifyRequest::parse("{\"version\": 1}", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(*req, core::VerifyRequest{});
}

TEST(ServeRequest, RejectsUnknownField) {
  std::string err;
  const auto req = core::VerifyRequest::parse(
      "{\"version\": 1, \"rob_size\": 2, \"bogus_knob\": true}", &err);
  EXPECT_FALSE(req.has_value());
  EXPECT_NE(err.find("bogus_knob"), std::string::npos) << err;
}

TEST(ServeRequest, RejectsMissingOrMismatchedVersion) {
  std::string err;
  EXPECT_FALSE(core::VerifyRequest::parse("{\"rob_size\": 2}", &err)
                   .has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
  EXPECT_FALSE(
      core::VerifyRequest::parse("{\"version\": 999}", &err).has_value());
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(ServeRequest, RejectsUnknownEnumNames) {
  std::string err;
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"strategy\": \"telepathy\"}", &err)
                   .has_value());
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"engine\": \"abacus\"}", &err)
                   .has_value());
  EXPECT_FALSE(core::VerifyRequest::parse(
                   "{\"version\": 1, \"bug_kind\": \"gremlin\"}", &err)
                   .has_value());
}

TEST(ServeRequest, ValidateRejectsOutOfRangeValues) {
  core::VerifyRequest req;
  req.robSize = 0;
  EXPECT_TRUE(req.validate().has_value());
  req = {};
  req.robSize = 2;
  req.issueWidth = 4;  // width > size
  EXPECT_TRUE(req.validate().has_value());
  req = {};
  req.bug = {models::BugKind::ForwardingWrongOperand, 100000};
  EXPECT_TRUE(req.validate().has_value());
  EXPECT_FALSE(smallRequest().validate().has_value());
}

TEST(ServeRequest, CacheKeyIgnoresIdButTracksSemantics) {
  core::VerifyRequest a = smallRequest(1);
  core::VerifyRequest b = smallRequest(2);
  EXPECT_EQ(a.cacheKey(), b.cacheKey());  // id is not content
  b.robSize = 4;
  EXPECT_NE(a.cacheKey(), b.cacheKey());
  core::VerifyRequest c = smallRequest(1);
  c.inprocess = false;
  EXPECT_NE(a.cacheKey(), c.cacheKey());
  EXPECT_EQ(a.cacheKeyHex().size(), 16u);
}

// ---- response schema --------------------------------------------------------

TEST(ServeResponse, JsonRoundTrip) {
  core::VerifyResponse resp;
  resp.id = 7;
  resp.cached = true;
  resp.cacheKey = "00deadbeef00cafe";
  resp.verdict = core::Verdict::RewriteMismatch;
  resp.reason = "slice 3 does not conform";
  resp.failedSlice = 3;
  resp.exitCode = 1;
  resp.wallSeconds = 0.25;
  resp.seconds.sim = 0.1;
  resp.seconds.sat = 0.05;
  resp.peakArenaBytes = 12345;
  resp.rssHighWaterKb = 6789;
  resp.counters = {{"sat.conflicts", 11}, {"tlsim.cycles", 5}};

  std::string err;
  const auto back = core::VerifyResponse::parse(resp.toJson(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->id, 7u);
  EXPECT_TRUE(back->cached);
  EXPECT_EQ(back->cacheKey, "00deadbeef00cafe");
  EXPECT_EQ(back->verdict, core::Verdict::RewriteMismatch);
  EXPECT_EQ(back->failedSlice, 3u);
  EXPECT_EQ(back->exitCode, 1);
  EXPECT_DOUBLE_EQ(back->seconds.sim, 0.1);
  EXPECT_EQ(back->counters, resp.counters);
}

TEST(ServeResponse, ErrorResponseRoundTrip) {
  const core::VerifyResponse err = core::VerifyResponse::makeError(9, "nope");
  EXPECT_EQ(err.exitCode, 2);
  std::string perr;
  const auto back = core::VerifyResponse::parse(err.toJson(), &perr);
  ASSERT_TRUE(back.has_value()) << perr;
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->error, "nope");
  EXPECT_EQ(back->exitCode, 2);
}

TEST(ServeResponse, CompactJsonIsOneWireLine) {
  const core::VerifyRequest req = smallRequest();
  const std::string wire = compactJson(req.toJson());
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  std::string err;
  const auto back = core::VerifyRequest::parse(wire, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, req);
}

// ---- result cache -----------------------------------------------------------

TEST(ServeCache, OwnerFulfillThenHit) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Owner);

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Correct;
  cache.fulfill(1, resp, /*cacheable=*/true);

  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(out.verdict, core::Verdict::Correct);
  EXPECT_TRUE(out.cached);  // hits are marked as cache copies

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServeCache, JoinersCoalesceOntoOneOwner) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  ASSERT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Owner);

  std::vector<core::VerifyResponse> delivered;
  for (int i = 0; i < 3; ++i) {
    const auto claim = cache.claim(
        5, &out, [&](const core::VerifyResponse& r) { delivered.push_back(r); });
    EXPECT_EQ(claim, serve::ResultCache::Claim::Joined);
  }
  EXPECT_TRUE(delivered.empty());  // nothing fires before fulfill

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Correct;
  cache.fulfill(5, resp, true);

  ASSERT_EQ(delivered.size(), 3u);
  for (const auto& r : delivered) {
    EXPECT_EQ(r.verdict, core::Verdict::Correct);
    EXPECT_TRUE(r.cached);  // joiners' answers came from a job they didn't run
  }
  EXPECT_EQ(cache.stats().coalesced, 3u);
}

TEST(ServeCache, UncacheableFulfillWakesWaitersButStoresNothing) {
  serve::ResultCache cache(8);
  core::VerifyResponse out;
  ASSERT_EQ(cache.claim(9, &out, nullptr), serve::ResultCache::Claim::Owner);
  int fired = 0;
  ASSERT_EQ(cache.claim(9, &out,
                        [&](const core::VerifyResponse&) { ++fired; }),
            serve::ResultCache::Claim::Joined);

  core::VerifyResponse resp;
  resp.verdict = core::Verdict::Timeout;  // the daemon's uncacheable verdict
  cache.fulfill(9, resp, /*cacheable=*/false);

  EXPECT_EQ(fired, 1);
  EXPECT_EQ(cache.stats().entries, 0u);  // no entry left behind
  // The next claim starts a fresh computation.
  EXPECT_EQ(cache.claim(9, &out, nullptr), serve::ResultCache::Claim::Owner);
  cache.abandon(9, resp);
}

TEST(ServeCache, LruEvictsOldestReadyEntry) {
  serve::ResultCache cache(2);
  core::VerifyResponse out, resp;
  resp.verdict = core::Verdict::Correct;
  for (std::uint64_t key : {1, 2, 3}) {
    ASSERT_EQ(cache.claim(key, &out, nullptr),
              serve::ResultCache::Claim::Owner);
    cache.fulfill(key, resp, true);
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  // Key 1 was least recently used; 2 and 3 survive.
  EXPECT_EQ(cache.claim(1, &out, nullptr), serve::ResultCache::Claim::Owner);
  cache.abandon(1, resp);
  EXPECT_EQ(cache.claim(2, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(cache.claim(3, &out, nullptr), serve::ResultCache::Claim::Hit);
}

// ---- in-process server ------------------------------------------------------

core::VerifyResponse handle(serve::VerifyServer& server,
                            const core::VerifyRequest& req) {
  std::string err;
  const auto resp =
      core::VerifyResponse::parse(server.handleLine(compactJson(req.toJson())),
                                  &err);
  EXPECT_TRUE(resp.has_value()) << err;
  return resp.value_or(core::VerifyResponse{});
}

TEST(ServeServer, VerifiesCachesAndAnswersIdentically) {
  serve::VerifyServer server({});
  const core::VerifyRequest req = smallRequest();

  const core::VerifyResponse fresh = handle(server, req);
  EXPECT_TRUE(fresh.error.empty()) << fresh.error;
  EXPECT_FALSE(fresh.cached);
  EXPECT_EQ(fresh.verdict, core::Verdict::Correct);
  EXPECT_EQ(fresh.exitCode, 0);
  EXPECT_EQ(fresh.cacheKey, req.cacheKeyHex());
  EXPECT_FALSE(fresh.counters.empty());

  const core::VerifyResponse hit = handle(server, req);
  EXPECT_TRUE(hit.cached);
  // The cached answer is the SAME result: verdict and the full canonical
  // counter block byte-identical to the fresh verification.
  EXPECT_EQ(hit.verdict, fresh.verdict);
  EXPECT_EQ(hit.counters, fresh.counters);
  EXPECT_EQ(hit.peakArenaBytes, fresh.peakArenaBytes);

  // And both match a fresh in-process core::verify of the same request.
  const core::VerifyReport rep = core::verify(req);
  EXPECT_EQ(fresh.verdict, rep.verdict());
  EXPECT_EQ(fresh.counters, core::reportCounters(rep));

  const auto cs = server.cacheStats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits, 1u);
}

TEST(ServeServer, ResponseIdEchoesRequestId) {
  serve::VerifyServer server({});
  EXPECT_EQ(handle(server, smallRequest(11)).id, 11u);
  EXPECT_EQ(handle(server, smallRequest(22)).id, 22u);  // cache hit, new id
}

TEST(ServeServer, ConcurrentIdenticalRequestsShareOneJob) {
  serve::ServerOptions opts;
  opts.jobs = 4;
  serve::VerifyServer server(opts);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<core::VerifyResponse> resps(kClients);
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back(
        [&, i] { resps[i] = handle(server, smallRequest(i + 1)); });
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(resps[i].error.empty()) << resps[i].error;
    EXPECT_EQ(resps[i].verdict, core::Verdict::Correct);
    EXPECT_EQ(resps[i].id, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(resps[i].counters, resps[0].counters);
  }
  // All clients asked for one cell: exactly one miss ran a job; everyone
  // else coalesced onto it or hit the finished entry.
  const auto cs = server.cacheStats();
  EXPECT_EQ(cs.misses, 1u);
  EXPECT_EQ(cs.hits + cs.coalesced, kClients - 1u);
}

TEST(ServeServer, BudgetVerdictsCarryExitCodes) {
  serve::VerifyServer server({});

  core::VerifyRequest timeout = smallRequest();
  timeout.strategy = core::Strategy::PositiveEqualityOnly;
  timeout.timeoutSeconds = 1e-9;
  const core::VerifyResponse t = handle(server, timeout);
  EXPECT_EQ(t.verdict, core::Verdict::Timeout);
  EXPECT_EQ(t.exitCode, 4);
  EXPECT_FALSE(t.reason.empty());

  // Wall-clock timeouts are nondeterministic and must NOT be cached: the
  // identical request runs again, fresh.
  const core::VerifyResponse t2 = handle(server, timeout);
  EXPECT_FALSE(t2.cached);
  EXPECT_EQ(server.cacheStats().entries, 0u);

  // MemOut trips on deterministic logical-arena accounting, so it IS
  // cacheable.
  core::VerifyRequest memout = smallRequest();
  memout.strategy = core::Strategy::PositiveEqualityOnly;
  memout.memoryBudgetBytes = 1000;
  const core::VerifyResponse m = handle(server, memout);
  EXPECT_EQ(m.verdict, core::Verdict::MemOut);
  EXPECT_EQ(m.exitCode, 4);
  const core::VerifyResponse m2 = handle(server, memout);
  EXPECT_TRUE(m2.cached);
  EXPECT_EQ(m2.verdict, core::Verdict::MemOut);
}

TEST(ServeServer, AdmissionCapsClampRequestBudgets) {
  serve::ServerOptions opts;
  opts.maxTimeoutSeconds = 1e-9;  // every admitted request gets this cap
  serve::VerifyServer server(opts);
  core::VerifyRequest req = smallRequest();
  req.strategy = core::Strategy::PositiveEqualityOnly;
  req.timeoutSeconds = 0;  // asks for unlimited; the cap clamps it
  const core::VerifyResponse resp = handle(server, req);
  EXPECT_EQ(resp.verdict, core::Verdict::Timeout);
  EXPECT_EQ(resp.exitCode, 4);
}

TEST(ServeServer, MalformedAndInvalidLinesGetErrorResponses) {
  serve::VerifyServer server({});

  std::string err;
  auto resp = core::VerifyResponse::parse(server.handleLine("not json"), &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(resp->exitCode, 2);

  // The id is salvaged from an otherwise-invalid request so the client can
  // still match the error to its request.
  resp = core::VerifyResponse::parse(
      server.handleLine(
          "{\"version\": 1, \"id\": 77, \"bogus_field\": true}"),
      &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_EQ(resp->id, 77u);
  EXPECT_FALSE(resp->error.empty());

  // Semantic validation failures answer the same way.
  resp = core::VerifyResponse::parse(
      server.handleLine("{\"version\": 1, \"id\": 5, \"rob_size\": 0}"),
      &err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_EQ(resp->id, 5u);
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(resp->exitCode, 2);
}

TEST(ServeServer, ControlOpsAnswerInline) {
  serve::VerifyServer server({});
  std::string err;

  const auto ping = parseJson(server.handleLine("{\"op\": \"ping\"}"), &err);
  ASSERT_TRUE(ping.has_value()) << err;
  ASSERT_NE(ping->find("ok"), nullptr);
  EXPECT_TRUE(ping->find("ok")->boolean);

  handle(server, smallRequest());
  const auto stats = parseJson(server.handleLine("{\"op\": \"stats\"}"), &err);
  ASSERT_TRUE(stats.has_value()) << err;
  const JsonValue* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->uintAt("serve.requests"), 1u);
  EXPECT_EQ(counters->uintAt("serve.cache.misses"), 1u);

  const auto bad = parseJson(server.handleLine("{\"op\": \"dance\"}"), &err);
  ASSERT_TRUE(bad.has_value()) << err;
  ASSERT_NE(bad->find("ok"), nullptr);
  EXPECT_FALSE(bad->find("ok")->boolean);
}

// ---- socket client against a live server ------------------------------------

TEST(ServeSocket, ClientRoundTripMatchesInProcessVerify) {
  const std::string path =
      "/tmp/velev_serve_test_" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions opts;
  opts.unixSocketPath = path;
  opts.jobs = 2;
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;

  {
    auto client = serve::Client::connect("unix:" + path, &err);
    ASSERT_TRUE(client.has_value()) << err;

    core::VerifyRequest req = smallRequest(31);
    req.bug = {models::BugKind::ForwardingWrongOperand, 2};
    const auto resp = client->roundTrip(req, &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->id, 31u);
    EXPECT_FALSE(resp->cached);
    EXPECT_EQ(resp->verdict, core::Verdict::RewriteMismatch);
    EXPECT_EQ(resp->failedSlice, 2u);
    EXPECT_EQ(resp->exitCode, 1);

    // Same request again: a cache hit over the wire, same content as a
    // fresh in-process verification.
    const auto hit = client->roundTrip(req, &err);
    ASSERT_TRUE(hit.has_value()) << err;
    EXPECT_TRUE(hit->cached);
    EXPECT_EQ(hit->verdict, resp->verdict);
    EXPECT_EQ(hit->counters, resp->counters);

    const core::VerifyReport rep = core::verify(req);
    EXPECT_EQ(hit->verdict, rep.verdict());
    EXPECT_EQ(hit->counters, core::reportCounters(rep));
  }
  server.stop();
}

TEST(ServeSocket, EphemeralTcpPortServesRequests) {
  serve::ServerOptions opts;
  opts.tcpPort = 0;  // kernel-assigned loopback port
  serve::VerifyServer server(opts);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_GT(server.tcpPort(), 0);

  {
    auto client = serve::Client::connect(
        "127.0.0.1:" + std::to_string(server.tcpPort()), &err);
    ASSERT_TRUE(client.has_value()) << err;
    const auto resp = client->roundTrip(smallRequest(3), &err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_EQ(resp->verdict, core::Verdict::Correct);
    EXPECT_EQ(resp->id, 3u);
  }
  server.stop();
}

// ---- per-worker solve memo --------------------------------------------------

TEST(ServeMemo, ReplaysStoredResultAndStats) {
  prop::Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({1, 2});
  cnf.addClause({-1});
  const std::uint64_t k =
      sat::SolveMemo::key(cnf, sat::InprocessOptions{}, -1);

  sat::SolveMemo memo;
  EXPECT_EQ(memo.find(k), nullptr);

  sat::SolveMemo::Entry e;
  e.result = sat::Result::Sat;
  e.stats.decisions = 7;
  e.stats.conflicts = 3;
  e.inprocessed = true;
  memo.store(k, e);

  const auto* hit = memo.find(k);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->result, sat::Result::Sat);
  EXPECT_EQ(hit->stats.decisions, 7u);
  EXPECT_EQ(hit->stats.conflicts, 3u);
  EXPECT_TRUE(hit->inprocessed);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ServeMemo, RefusesUnknownAndEvictsFifo) {
  sat::SolveMemo memo(2);

  // Unknown results (budget-tripped solves) are never memoized.
  memo.store(1, {});
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_EQ(memo.size(), 0u);

  sat::SolveMemo::Entry e;
  e.result = sat::Result::Unsat;
  memo.store(1, e);
  memo.store(2, e);
  memo.store(3, e);  // FIFO: evicts key 1
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.find(1), nullptr);
  EXPECT_NE(memo.find(2), nullptr);
  EXPECT_NE(memo.find(3), nullptr);
}

TEST(ServeMemo, KeyTracksCnfOptionsAndBudget) {
  prop::Cnf cnf;
  cnf.numVars = 2;
  cnf.addClause({1, -2});
  const std::uint64_t base =
      sat::SolveMemo::key(cnf, sat::InprocessOptions{}, -1);

  prop::Cnf bigger = cnf;
  bigger.addClause({2});
  EXPECT_NE(sat::SolveMemo::key(bigger, sat::InprocessOptions{}, -1), base);

  sat::InprocessOptions off;
  off.enabled = false;
  EXPECT_NE(sat::SolveMemo::key(cnf, off, -1), base);

  EXPECT_NE(sat::SolveMemo::key(cnf, sat::InprocessOptions{}, 100), base);
}

TEST(ServeMemo, VerifyWithMemoMatchesFreshVerify) {
  // The batching lane's correctness hinges on this: a memo-served solve is
  // bit-identical to a fresh one — verdict AND the canonical counters.
  const core::VerifyRequest req = smallRequest();
  const core::VerifyReport plain = core::verify(req);

  sat::SolveMemo memo;
  const core::VerifyReport first = core::verify(req, &memo);
  const core::VerifyReport second = core::verify(req, &memo);
  EXPECT_GE(memo.hits(), 1u);

  EXPECT_EQ(first.verdict(), plain.verdict());
  EXPECT_EQ(core::reportCounters(first), core::reportCounters(plain));
  EXPECT_EQ(second.verdict(), plain.verdict());
  EXPECT_EQ(core::reportCounters(second), core::reportCounters(plain));
}

// ---- persistent cache journal (core::ResultStore) ---------------------------

core::VerifyResponse cacheableResponse(std::uint64_t id,
                                       std::uint64_t counterValue) {
  core::VerifyResponse r;
  r.id = id;
  r.verdict = core::Verdict::Correct;
  r.exitCode = 0;
  r.counters = {{"slices", counterValue}};
  return r;
}

TEST(ServeJournal, RoundTripAcrossRestart) {
  core::ResultStore::Options jo;
  jo.dir = freshDir("journal_rt");
  {
    core::ResultStore j(jo);
    j.append(10, cacheableResponse(1, 4));
    j.append(20, cacheableResponse(2, 8));
    EXPECT_EQ(j.segmentCount(), 2u);
  }

  // "Restart": a fresh instance replays the directory.
  core::ResultStore j2(jo);
  core::ResultStore::LoadStats ls;
  const auto entries = j2.load(&ls);
  EXPECT_EQ(ls.segments, 2u);
  EXPECT_EQ(ls.skippedSegments, 0u);
  EXPECT_EQ(ls.skippedEntries, 0u);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, 10u);
  EXPECT_EQ(entries[0].second.counters, cacheableResponse(1, 4).counters);
  EXPECT_EQ(entries[1].first, 20u);

  // Later segments win on duplicate keys.
  j2.append(10, cacheableResponse(3, 99));
  core::ResultStore j3(jo);
  const auto again = j3.load();
  ASSERT_EQ(again.size(), 2u);
  for (const auto& [key, resp] : again) {
    if (key == 10) {
      EXPECT_EQ(resp.counters, cacheableResponse(3, 99).counters);
    }
  }
}

TEST(ServeJournal, TimeoutAndErrorNeverPersisted) {
  // The store refuses error responses itself. Timeouts are the serving
  // path's policy: the daemon never appends one (a grid run may store
  // them; see ServePersist.GridTimeoutRecordIsNotSeeded).
  core::ResultStore::Options jo;
  jo.dir = freshDir("journal_policy");
  {
    core::ResultStore j(jo);
    EXPECT_FALSE(j.append(2, core::VerifyResponse::makeError(2, "boom")));
    EXPECT_EQ(j.segmentCount(), 0u);
  }
  {
    serve::ServerOptions opts;
    opts.cacheDir = jo.dir;
    serve::VerifyServer server(opts);
    core::VerifyRequest timeout = smallRequest();
    timeout.strategy = core::Strategy::PositiveEqualityOnly;
    timeout.timeoutSeconds = 1e-9;
    EXPECT_EQ(handle(server, timeout).verdict, core::Verdict::Timeout);
    server.stop();
  }

  core::ResultStore j2(jo);
  core::ResultStore::LoadStats ls;
  EXPECT_TRUE(j2.load(&ls).empty());
  EXPECT_EQ(ls.segments, 0u);
}

TEST(ServeJournal, CorruptSegmentsDegradeToCold) {
  core::ResultStore::Options jo;
  jo.dir = freshDir("journal_corrupt");
  {
    core::ResultStore j(jo);
    j.append(10, cacheableResponse(1, 4));
    j.append(20, cacheableResponse(2, 8));
  }
  // Tear the first segment (torn-disk simulation) ...
  { std::ofstream(std::filesystem::path(jo.dir) / "seg-1.json",
                  std::ios::trunc)
        << "{\"version\": 1, \"git_desc"; }
  // ... and plant a segment written by a "different binary".
  { std::ofstream(std::filesystem::path(jo.dir) / "seg-7.json")
        << "{\"version\": 1, \"git_describe\": \"some-other-build\", "
           "\"entries\": [{\"key\": \"000000000000002a\", \"response\": "
        << cacheableResponse(9, 1).toJson() << "}]}"; }

  core::ResultStore j2(jo);
  core::ResultStore::LoadStats ls;
  const auto entries = j2.load(&ls);
  EXPECT_EQ(ls.segments, 3u);
  EXPECT_EQ(ls.skippedSegments, 2u);  // torn + stale-binary, never an error
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, 20u);
}

TEST(ServeJournal, CompactionFoldsSegments) {
  core::ResultStore::Options jo;
  jo.dir = freshDir("journal_compact");
  jo.compactThreshold = 2;
  core::ResultStore j(jo);
  for (std::uint64_t key = 1; key <= 4; ++key)
    j.append(key, cacheableResponse(key, key * 10));
  // Appends beyond the threshold fold every live entry into one segment.
  EXPECT_LE(j.segmentCount(), 2u);

  core::ResultStore j2(jo);
  core::ResultStore::LoadStats ls;
  const auto entries = j2.load(&ls);
  EXPECT_EQ(ls.skippedSegments, 0u);
  ASSERT_EQ(entries.size(), 4u);
  for (const auto& [key, resp] : entries)
    EXPECT_EQ(resp.counters,
              cacheableResponse(key, key * 10).counters);
}

TEST(ServeJournal, FailedCompactionKeepsSegments) {
  // A compaction fold that fails part-way (a file-size limit, as on a full
  // disk) must not be renamed into place, and the segments it would have
  // replaced must stay: a restart still restores every entry.
  core::ResultStore::Options jo;
  jo.dir = freshDir("journal_failed_fold");
  jo.compactThreshold = 4;
  {
    core::ResultStore j(jo);
    for (std::uint64_t key = 1; key <= 4; ++key)
      j.append(key, cacheableResponse(key, key * 10));
    ASSERT_EQ(j.segmentCount(), 4u);
  }
  std::uintmax_t segSize = 0;
  for (const auto& e : std::filesystem::directory_iterator(jo.dir))
    segSize = std::max(segSize, e.file_size());

  // The fifth append fits on its own, then crosses the threshold; the fold
  // of all five entries does not fit.
  ASSERT_TRUE(test::runWithFileSizeLimit(2 * segSize, [&] {
    core::ResultStore j(jo);
    j.load();
    j.append(5, cacheableResponse(5, 50));
  }));

  core::ResultStore j2(jo);
  core::ResultStore::LoadStats ls;
  const auto entries = j2.load(&ls);
  EXPECT_EQ(ls.skippedSegments, 0u);
  ASSERT_EQ(entries.size(), 5u);
  for (const auto& [key, resp] : entries)
    EXPECT_EQ(resp.counters, cacheableResponse(key, key * 10).counters);
}

TEST(ServeJournal, SeedPopulatesCacheWithoutTouchingTraffic) {
  serve::ResultCache cache(8);
  cache.seed(5, cacheableResponse(1, 4));
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 0u);  // seeding is startup, not traffic
  EXPECT_EQ(s.misses, 0u);

  core::VerifyResponse out;
  EXPECT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.verdict, core::Verdict::Correct);
  EXPECT_EQ(out.counters, cacheableResponse(1, 4).counters);

  // Duplicate seed is a no-op: the existing entry wins.
  cache.seed(5, cacheableResponse(2, 999));
  EXPECT_EQ(cache.claim(5, &out, nullptr), serve::ResultCache::Claim::Hit);
  EXPECT_EQ(out.counters, cacheableResponse(1, 4).counters);
}

TEST(ServePersist, WarmRestartServesFromJournal) {
  const std::string dir = freshDir("persist");
  const core::VerifyRequest req = smallRequest();
  core::VerifyRequest timeout = smallRequest(2);
  timeout.strategy = core::Strategy::PositiveEqualityOnly;
  timeout.timeoutSeconds = 1e-9;

  core::VerifyResponse fresh;
  {
    serve::ServerOptions opts;
    opts.cacheDir = dir;
    serve::VerifyServer a(opts);
    fresh = handle(a, req);
    EXPECT_TRUE(fresh.error.empty()) << fresh.error;
    EXPECT_EQ(fresh.verdict, core::Verdict::Correct);
    EXPECT_EQ(handle(a, timeout).verdict, core::Verdict::Timeout);
    a.stop();
  }

  serve::ServerOptions opts;
  opts.cacheDir = dir;
  serve::VerifyServer b(opts);
  EXPECT_GE(b.collector().counter("serve.journal.restored"), 1u);

  // The warm answer IS the persisted result: cached, verdict and counters
  // identical to the pre-restart fresh verification.
  const core::VerifyResponse warm = handle(b, req);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.verdict, fresh.verdict);
  EXPECT_EQ(warm.counters, fresh.counters);
  const auto cs = b.cacheStats();
  EXPECT_EQ(cs.hits, 1u);
  EXPECT_EQ(cs.misses, 0u);

  // The Timeout verdict was never persisted: after the restart its cell
  // runs fresh.
  timeout.id = 3;
  EXPECT_FALSE(handle(b, timeout).cached);
}

TEST(ServePersist, GridTimeoutRecordIsNotSeeded) {
  // One store, two policies: a grid run keeps the timeout verdicts it
  // finished (resume restores them), but serving never replays one.
  const std::string dir = freshDir("grid_timeout");
  core::VerifyRequest timeout = smallRequest();
  timeout.strategy = core::Strategy::PositiveEqualityOnly;
  timeout.timeoutSeconds = 1e-9;
  const std::vector<core::VerifyRequest> cells = {timeout};
  core::GridRunOptions gopts;
  gopts.checkpointPath = dir;
  ASSERT_EQ(core::runGrid(cells, gopts)[0].report.verdict(),
            core::Verdict::Timeout);
  gopts.resume = true;
  const auto resumed = core::runGrid(cells, gopts);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_TRUE(resumed[0].restored);
  EXPECT_EQ(resumed[0].report.verdict(), core::Verdict::Timeout);

  serve::ServerOptions opts;
  opts.cacheDir = dir;
  serve::VerifyServer server(opts);
  EXPECT_EQ(server.collector().counter("serve.journal.restored"), 0u);
  EXPECT_EQ(server.collector().counter("serve.journal.skipped_entries"), 1u);
  EXPECT_EQ(server.cacheStats().entries, 0u);
  const core::VerifyResponse resp = handle(server, timeout);
  EXPECT_EQ(resp.verdict, core::Verdict::Timeout);
  EXPECT_FALSE(resp.cached);
  server.stop();
}

// ---- worker pool: fault injection -------------------------------------------

TEST(ServePool, CrashHookRequestIsRetriedOnSibling) {
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.workerExecutable = VELEV_SERVE_BIN;
  opts.workerCrashAfter = 1;  // slot 0 dies before answering its first job
  serve::VerifyServer server(opts);

  // The first request lands on the crashing worker, which _exit()s
  // mid-job; the supervisor retries it on the sibling. The client sees a
  // normal answer, never an error and never a hang.
  const core::VerifyResponse resp = handle(server, smallRequest());
  EXPECT_TRUE(resp.error.empty()) << resp.error;
  EXPECT_EQ(resp.verdict, core::Verdict::Correct);
  EXPECT_GE(server.collector().counter("serve.worker.crashes"), 1u);
  EXPECT_GE(server.collector().counter("serve.pool.retries"), 1u);

  // Cache integrity across the crash: the retried result was cached and is
  // identical to a fresh in-process verification.
  const core::VerifyReport rep = core::verify(smallRequest());
  EXPECT_EQ(resp.verdict, rep.verdict());
  EXPECT_EQ(resp.counters, core::reportCounters(rep));
  const core::VerifyResponse hit = handle(server, smallRequest(2));
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.counters, resp.counters);
}

TEST(ServePool, SigkilledWorkerMidSolveRecovers) {
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.workerExecutable = VELEV_SERVE_BIN;
  serve::VerifyServer server(opts);
  ASSERT_TRUE(waitFor([] { return workerPids().size() >= 2; }));

  constexpr int kJobs = 6;
  std::vector<std::thread> clients;
  std::vector<core::VerifyResponse> resps(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    core::VerifyRequest req = smallRequest(i + 1);
    req.robSize = 8 + static_cast<unsigned>(i);  // six distinct cells
    clients.emplace_back([&, req, i] { resps[i] = handle(server, req); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto pids = workerPids();
  ASSERT_FALSE(pids.empty());
  ASSERT_EQ(::kill(pids.front(), SIGKILL), 0);

  for (auto& t : clients) t.join();
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_TRUE(resps[i].error.empty()) << resps[i].error;
    EXPECT_EQ(resps[i].verdict, core::Verdict::Correct);
  }
  EXPECT_TRUE(waitFor([&] {
    return server.collector().counter("serve.worker.crashes") >= 1;
  }));
  EXPECT_TRUE(waitFor([&] {
    return server.collector().counter("serve.worker.respawns") >= 1;
  }));
}

TEST(ServePool, RetriesExhaustedAnswerErrorNeverHang) {
  serve::WorkerPoolOptions po;
  po.executable = VELEV_SERVE_BIN;
  po.workers = 1;
  po.maxRetries = 0;  // one crash is terminal for the request...
  po.crashAfter = 1;
  serve::WorkerPool pool(po);
  std::string err;
  ASSERT_TRUE(pool.start(&err)) << err;

  std::promise<core::VerifyResponse> p1;
  auto f1 = p1.get_future();
  pool.submit(smallRequest(),
              [&](const core::VerifyResponse& r) { p1.set_value(r); });
  ASSERT_EQ(f1.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);  // never a hung client
  const core::VerifyResponse r1 = f1.get();
  EXPECT_FALSE(r1.error.empty());
  EXPECT_EQ(r1.exitCode, 2);

  // ... but not for the slot: it respawns (without the crash hook) and the
  // next request succeeds.
  std::promise<core::VerifyResponse> p2;
  auto f2 = p2.get_future();
  pool.submit(smallRequest(2),
              [&](const core::VerifyResponse& r) { p2.set_value(r); });
  ASSERT_EQ(f2.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const core::VerifyResponse r2 = f2.get();
  EXPECT_TRUE(r2.error.empty()) << r2.error;
  EXPECT_EQ(r2.verdict, core::Verdict::Correct);

  pool.stop();
  const auto s = pool.stats();
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_GE(s.respawns, 1u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(ServePool, BatchedResponsesMatchFreshSingleRequestVerifies) {
  // One worker, batching on: occupy the worker with a slow job from a
  // different lane, pile three same-lane requests (identical cell modulo
  // ROB size — the paper's Table 5 column) into the queue, and check that
  // every answer is verdict+counter identical to a fresh single-request
  // verification. The equivalence gate holds on every attempt; the
  // batches>=1 observation is timing-dependent, so the scenario retries
  // with a fresh server until a batch is seen.
  bool sawBatch = false;
  for (int attempt = 0; attempt < 5 && !sawBatch; ++attempt) {
    serve::ServerOptions opts;
    opts.workers = 1;
    opts.batch = true;
    opts.workerExecutable = VELEV_SERVE_BIN;
    serve::VerifyServer server(opts);

    core::VerifyRequest slow = smallRequest(99);
    slow.robSize = 16;
    slow.engine = core::Engine::Both;  // different lane, slower job
    core::VerifyResponse slowResp;
    std::thread occupier([&] { slowResp = handle(server, slow); });
    waitFor([&] { return server.collector().counter("serve.jobs") >= 1; });

    constexpr int kLane = 3;
    std::vector<std::thread> clients;
    std::vector<core::VerifyResponse> resps(kLane);
    for (int i = 0; i < kLane; ++i) {
      core::VerifyRequest req = smallRequest(i + 1);
      req.robSize = 2 + static_cast<unsigned>(i);
      clients.emplace_back([&, req, i] { resps[i] = handle(server, req); });
    }
    for (auto& t : clients) t.join();
    occupier.join();
    EXPECT_TRUE(slowResp.error.empty()) << slowResp.error;

    for (int i = 0; i < kLane; ++i) {
      core::VerifyRequest req = smallRequest(i + 1);
      req.robSize = 2 + static_cast<unsigned>(i);
      const core::VerifyReport rep = core::verify(req);
      EXPECT_TRUE(resps[i].error.empty()) << resps[i].error;
      EXPECT_EQ(resps[i].verdict, rep.verdict());
      EXPECT_EQ(resps[i].counters, core::reportCounters(rep));
    }

    std::string err;
    const auto stats = parseJson(server.handleLine("{\"op\": \"stats\"}"));
    ASSERT_TRUE(stats.has_value());
    const JsonValue* counters = stats->find("counters");
    ASSERT_NE(counters, nullptr);
    sawBatch = counters->uintAt("serve.pool.batches_total") >= 1;
    if (sawBatch) {
      EXPECT_GE(counters->uintAt("serve.pool.batched_requests_total"), 2u);
    }
  }
  EXPECT_TRUE(sawBatch);
}

// ---- live-load admission control --------------------------------------------

TEST(ServeAdmission, QueueDepthCapRejectsUnderLoad) {
  // Timing-dependent (the slow job must still be pending when the probe
  // arrives), so the cell grows until the rejection is observed.
  bool rejected = false;
  for (unsigned rob : {32u, 64u, 128u, 256u, 512u}) {
    serve::ServerOptions opts;
    opts.jobs = 1;
    opts.maxQueueDepth = 1;
    serve::VerifyServer server(opts);

    core::VerifyRequest slow = smallRequest(1);
    slow.robSize = rob;
    slow.issueWidth = 4;
    core::VerifyResponse slowResp;
    std::thread t([&] { slowResp = handle(server, slow); });
    waitFor([&] { return server.collector().counter("serve.jobs") >= 1; });

    const core::VerifyResponse probe = handle(server, smallRequest(2));
    t.join();
    EXPECT_TRUE(slowResp.error.empty()) << slowResp.error;

    if (!probe.error.empty()) {
      rejected = true;
      EXPECT_NE(probe.error.find("admission"), std::string::npos)
          << probe.error;
      EXPECT_EQ(probe.exitCode, 2);
      EXPECT_GE(server.collector().counter("serve.admission.rejected"), 1u);
      // Nothing is permanently unservable: with the backlog drained, the
      // same cell is admitted and verified.
      const core::VerifyResponse again = handle(server, smallRequest(3));
      EXPECT_TRUE(again.error.empty()) << again.error;
      EXPECT_EQ(again.verdict, core::Verdict::Correct);
      break;
    }
  }
  EXPECT_TRUE(rejected);
}

TEST(ServeAdmission, PendingSecondsCapRejectsOverCommittedBudgets) {
  bool rejected = false;
  for (unsigned rob : {32u, 64u, 128u, 256u, 512u}) {
    serve::ServerOptions opts;
    opts.jobs = 2;
    opts.maxPendingSeconds = 5;
    serve::VerifyServer server(opts);

    // Admitted on an empty backlog (always admits), committing 4 of the
    // 5-second budget while it runs.
    core::VerifyRequest slow = smallRequest(1);
    slow.robSize = rob;
    slow.issueWidth = 4;
    slow.timeoutSeconds = 4;
    core::VerifyResponse slowResp;
    std::thread t([&] { slowResp = handle(server, slow); });
    waitFor([&] { return server.collector().counter("serve.jobs") >= 1; });

    // 4 + 2 > 5: over budget, rejected.
    core::VerifyRequest big = smallRequest(2);
    big.robSize = 4;
    big.timeoutSeconds = 2;
    const core::VerifyResponse probe = handle(server, big);

    if (!probe.error.empty()) {
      rejected = true;
      EXPECT_NE(probe.error.find("admission"), std::string::npos)
          << probe.error;
      // 4 + 0.5 <= 5: a cheaper request still fits.
      core::VerifyRequest small = smallRequest(3);
      small.timeoutSeconds = 0.5;
      const core::VerifyResponse ok = handle(server, small);
      EXPECT_TRUE(ok.error.empty()) << ok.error;
      t.join();
      break;
    }
    t.join();
  }
  EXPECT_TRUE(rejected);
}

}  // namespace
}  // namespace velev
