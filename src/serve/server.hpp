// VerifyServer: the long-lived verification service behind velev_serve.
//
// WIRE PROTOCOL (documented in docs/SERVICE.md): newline-delimited JSON.
// Each line a client sends is either
//   * a core::VerifyRequest object ("version": 1, rob_size, strategy, ...)
//     — answered, eventually, with one core::VerifyResponse line carrying
//     the same "id"; or
//   * a control op: {"op": "ping"} | {"op": "stats"} | {"op": "shutdown"}
//     — answered immediately with a one-line {"ok": true, ...} object.
// Malformed or invalid lines get an error response ({"error": ..., with
// exit_code 2}) and never tear the connection down. Responses to
// pipelined requests may arrive out of order; match them by "id".
//
// EXECUTION MODEL: requests are validated and admission-clamped on the
// connection's reader thread, then scheduled as jobs. With workers == 0
// the jobs run in-process on a work-stealing verification pool
// (support/thread_pool.hpp); with workers > 0 they are shipped to a
// supervised pool of worker PROCESSES (serve/supervisor.hpp) so a
// verification that aborts or is SIGKILLed costs one worker, never the
// daemon — the supervisor retries in-flight requests on a sibling and
// respawns the slot. Either way each job builds its own eufm::Context and
// arms its own BudgetGovernor from the request's budget (the grid
// runner's one-Context-per-cell rule) — a budget-exhausted job degrades
// into a timeout/memout verdict in the response, exactly like the CLI.
// Results route through the content-addressed ResultCache: identical
// in-flight requests coalesce onto one running job (waiter callbacks, not
// blocking futures — pool workers never wait on sibling jobs), and
// finished results are served as cache hits. Wall-clock Timeout verdicts
// are never cached: whether a deadline trips depends on machine load, so
// freezing one would replay a nondeterministic answer forever.
//
// PERSISTENCE: with cacheDir set, every cacheable result is also appended
// to a core::ResultStore directory (the cache journal) and replayed into
// the cache at construction — a restarted daemon keeps its warm set (same
// binary only; the store is version-checked). Timeout records, which a
// grid run may have written into the same store, are skipped on replay.
//
// ADMISSION: beyond the static budget clamps, maxQueueDepth /
// maxPendingSeconds reject NEW work (cache misses about to become jobs)
// when the live backlog is too deep — hits and coalesced joiners are free
// and always served. A rejected request gets an immediate error response;
// nothing is silently dropped.
//
// OBSERVABILITY: the server owns one thread-safe trace::Collector; every
// job runs under it (TRACE_SPAN "serve.job") and the request/cache flow
// counts serve.* counters (names in docs/TRACE_FORMAT.md). The "stats" op
// reports them plus the cache statistics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/result_store.hpp"
#include "serve/cache.hpp"
#include "serve/supervisor.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace velev::serve {

struct ServerOptions {
  /// Unix-domain listening socket path; empty = no unix listener. An
  /// existing file at the path is unlinked (the daemon owns its socket).
  std::string unixSocketPath;
  /// TCP port on 127.0.0.1; -1 = no TCP listener, 0 = ephemeral (read the
  /// bound port back with tcpPort()).
  int tcpPort = -1;
  /// Verification pool workers (clamped to >= 1).
  unsigned jobs = 1;
  /// Result-cache capacity (ready entries; LRU beyond this).
  std::size_t cacheMaxEntries = 1024;
  /// Admission caps, folded into every request BEFORE the cache lookup so
  /// the clamped request is what gets keyed and verified: when > 0, a
  /// request asking for more (or for no limit) is clamped down. 0 = no cap.
  double maxTimeoutSeconds = 0;
  std::uint64_t maxMemoryBudgetBytes = 0;

  /// Worker PROCESSES. 0 = verify in-process on the thread pool (the
  /// pre-shard behaviour); > 0 = ship jobs to a supervised pool of
  /// `workerExecutable --worker` processes (crash isolation + retry).
  unsigned workers = 0;
  /// Binary to spawn as a worker; normally the daemon's own executable
  /// (/proc/self/exe). Required when workers > 0.
  std::string workerExecutable;
  /// Batching lane: group compatible queued requests (same cell modulo
  /// ROB size) onto one worker dispatch. Only meaningful with workers > 0.
  bool batch = false;
  std::size_t maxBatch = 8;
  /// TEST HOOK, forwarded to WorkerPoolOptions::crashAfter.
  int workerCrashAfter = 0;

  /// Persistent-cache directory (core/result_store.hpp); empty =
  /// memory-only.
  std::string cacheDir;

  /// Live-load admission (0 = unlimited): reject a new job when this many
  /// are already queued or running...
  std::size_t maxQueueDepth = 0;
  /// ... or when the wall budgets of queued+running jobs already sum past
  /// this (requests with no timeout count 0 seconds but still count depth).
  double maxPendingSeconds = 0;
};

class VerifyServer {
 public:
  explicit VerifyServer(ServerOptions opts);
  ~VerifyServer();  // stop()s

  VerifyServer(const VerifyServer&) = delete;
  VerifyServer& operator=(const VerifyServer&) = delete;

  /// Bind + listen on the configured sockets and start the accept loop.
  /// Returns false (with a reason) when no listener could be set up.
  /// Optional: handleLine() works without start() for in-process use.
  bool start(std::string* error = nullptr);

  /// Tear down: stop accepting, drain connection readers, drain the job
  /// pool (in-flight verifications finish and answer), close connections.
  /// Idempotent; also called by the destructor.
  void stop();

  /// The TCP port actually bound (after start()); -1 without a TCP
  /// listener. With tcpPort=0 this is the kernel-assigned ephemeral port.
  int tcpPort() const { return boundTcpPort_; }

  const ServerOptions& options() const { return opts_; }

  /// Process one request line synchronously and return the one-line JSON
  /// response — the in-process entry the tests and the replay bench drive
  /// (it is exactly what a connection reader does, minus the socket).
  /// Blocks until the job finishes; never call it from a pool worker.
  std::string handleLine(const std::string& line);

  /// Flag the server to shut down (the "shutdown" op calls this). The
  /// daemon's main thread observes it via waitForShutdown() and then
  /// calls stop() — the server never joins its own threads from a
  /// connection thread.
  void requestShutdown();

  /// Block until requestShutdown() is called.
  void waitForShutdown();

  ResultCache::Stats cacheStats() const { return cache_.stats(); }

  /// The server-lifetime collector (serve.* spans and counters).
  const trace::Collector& collector() const { return collector_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex writeMutex;
    std::thread reader;
    std::atomic<bool> open{true};
  };

  /// Async core: clamp, key, claim, maybe schedule. `done` fires exactly
  /// once with the response (possibly on another thread).
  void submit(core::VerifyRequest req, ResultCache::Waiter done);

  /// Run one verification job (in-process pool thread): verify, then
  /// completeJob().
  void runJob(const core::VerifyRequest& req, std::uint64_t key,
              ResultCache::Waiter done);

  /// Owner-job epilogue, shared by the in-process and worker paths:
  /// release admission, settle the cache (fulfill or abandon), persist to
  /// the journal when cacheable, answer the owner. Fires exactly once per
  /// admitted job.
  void completeJob(const core::VerifyRequest& req, std::uint64_t key,
                   const core::VerifyResponse& resp,
                   const ResultCache::Waiter& done);

  /// Live-load admission for a new Owner job; false = reject (the caller
  /// answers with an error and abandons the cache claim).
  bool admitJob(const core::VerifyRequest& req);
  void releaseJob(const core::VerifyRequest& req);

  /// Dispatch one wire line: control op (returns the response inline) or
  /// verify request (answers through `done`; returns empty string).
  std::string dispatchLine(const std::string& line, ResultCache::Waiter done);

  std::string controlResponse(const std::string& op);

  void acceptLoop();
  void readerLoop(Connection* conn);
  void writeLine(Connection* conn, const std::string& line);

  ServerOptions opts_;
  ResultCache cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<core::ResultStore> journal_;
  std::unique_ptr<WorkerPool> workerPool_;
  /// Non-empty when workers > 0 was requested but the pool could not be
  /// started: start() fails with it, and submits answer it as an error.
  std::string poolError_;
  trace::Collector collector_;

  std::mutex admissionMutex_;
  std::size_t pendingJobs_ = 0;     // admitted, not yet completed
  double pendingSeconds_ = 0;       // their summed effective wall budgets

  int unixFd_ = -1;
  int tcpFd_ = -1;
  int boundTcpPort_ = -1;
  std::thread acceptThread_;
  std::atomic<bool> stopAccept_{false};
  /// Set once connection readers are drained; submits turn into shutdown
  /// errors from then on (nothing may be queued behind a draining pool).
  std::atomic<bool> stopJobs_{false};
  std::atomic<bool> stopped_{false};

  std::mutex connMutex_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ = false;
};

}  // namespace velev::serve
