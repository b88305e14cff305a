#include "serve/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <sstream>
#include <utility>

#include "support/timer.hpp"

namespace velev::serve {

namespace {

/// Bind + listen a unix-domain socket, unlinking any stale file first.
int listenUnix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + path;
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr)
      *error = "bind/listen " + path + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bind + listen on 127.0.0.1:`port` (0 = ephemeral); reports the bound
/// port through `boundPort`.
int listenTcp(int port, int* boundPort, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error != nullptr)
      *error = "bind/listen 127.0.0.1:" + std::to_string(port) + ": " +
               std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    *boundPort = ntohs(bound.sin_port);
  return fd;
}

/// Salvage the "id" of a line that failed to parse as a request, so the
/// error response still routes to the right pipelined request.
std::uint64_t salvageId(const std::string& line) {
  std::string err;
  const std::optional<JsonValue> v = parseJson(line, &err);
  return v.has_value() && v->isObject() ? v->uintAt("id") : 0;
}

std::string wire(const core::VerifyResponse& resp) {
  return compactJson(resp.toJson());
}

}  // namespace

VerifyServer::VerifyServer(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cacheMaxEntries),
      pool_(std::make_unique<ThreadPool>(opts_.jobs == 0 ? 1 : opts_.jobs)) {
  if (!opts_.cacheDir.empty()) {
    journal_ = std::make_unique<core::ResultStore>(
        core::ResultStore::Options{opts_.cacheDir});
    core::ResultStore::LoadStats ls;
    std::uint64_t restored = 0;
    for (const auto& [key, resp] : journal_->load(&ls)) {
      // Serving never replays a timeout, whoever stored it (see
      // completeJob).
      if (resp.verdict == core::Verdict::Timeout) {
        ++ls.skippedEntries;
        continue;
      }
      cache_.seed(key, resp);
      ++restored;
    }
    collector_.addCounter("serve.journal.restored", restored);
    collector_.addCounter("serve.journal.segments", ls.segments);
    collector_.addCounter("serve.journal.skipped_segments",
                          ls.skippedSegments);
    collector_.addCounter("serve.journal.skipped_entries", ls.skippedEntries);
  }
  if (opts_.workers > 0) {
    WorkerPoolOptions po;
    po.executable = opts_.workerExecutable;
    po.workers = opts_.workers;
    po.batch = opts_.batch;
    po.maxBatch = opts_.maxBatch;
    po.crashAfter = opts_.workerCrashAfter;
    po.collector = &collector_;
    auto pool = std::make_unique<WorkerPool>(std::move(po));
    std::string err;
    if (pool->start(&err))
      workerPool_ = std::move(pool);
    else
      poolError_ = err;
  }
}

VerifyServer::~VerifyServer() { stop(); }

bool VerifyServer::start(std::string* error) {
  if (!poolError_.empty()) {
    // Fail fast: a daemon that was asked for worker processes but could
    // not spawn any is misconfigured, not degraded.
    if (error != nullptr) *error = poolError_;
    return false;
  }
  if (opts_.unixSocketPath.empty() && opts_.tcpPort < 0) {
    if (error != nullptr)
      *error = "no listener configured (need a unix socket path or a TCP "
               "port)";
    return false;
  }
  if (!opts_.unixSocketPath.empty()) {
    unixFd_ = listenUnix(opts_.unixSocketPath, error);
    if (unixFd_ < 0) return false;
  }
  if (opts_.tcpPort >= 0) {
    tcpFd_ = listenTcp(opts_.tcpPort, &boundTcpPort_, error);
    if (tcpFd_ < 0) {
      if (unixFd_ >= 0) {
        ::close(unixFd_);
        ::unlink(opts_.unixSocketPath.c_str());
        unixFd_ = -1;
      }
      return false;
    }
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void VerifyServer::stop() {
  if (stopped_.exchange(true)) return;

  // 1. Stop accepting: flag the loop, close the listeners (poll wakes on
  //    the closed fds or the 200 ms tick), join.
  stopAccept_.store(true);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (unixFd_ >= 0) {
    ::close(unixFd_);
    ::unlink(opts_.unixSocketPath.c_str());
    unixFd_ = -1;
  }
  if (tcpFd_ >= 0) {
    ::close(tcpFd_);
    tcpFd_ = -1;
  }

  // 2. Drain the readers: shut the read side, so each reader finishes the
  //    lines it already buffered (submitting their jobs) and exits.
  {
    std::lock_guard<std::mutex> lk(connMutex_);
    for (auto& conn : conns_)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  for (auto& conn : conns_)
    if (conn->reader.joinable()) conn->reader.join();

  // 3. Drain the pools: every scheduled job finishes and its response is
  //    written to the (still-open) connections. New submits are refused
  //    from here on — nothing may queue behind a draining pool.
  stopJobs_.store(true);
  if (workerPool_ != nullptr) workerPool_->stop();
  pool_.reset();

  // 4. Now the connections are quiescent; close them.
  for (auto& conn : conns_) {
    conn->open.store(false);
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }

  requestShutdown();  // release any waitForShutdown() caller
}

void VerifyServer::requestShutdown() {
  {
    std::lock_guard<std::mutex> lk(shutdownMutex_);
    shutdownRequested_ = true;
  }
  shutdownCv_.notify_all();
}

void VerifyServer::waitForShutdown() {
  std::unique_lock<std::mutex> lk(shutdownMutex_);
  shutdownCv_.wait(lk, [this] { return shutdownRequested_; });
}

void VerifyServer::submit(core::VerifyRequest req, ResultCache::Waiter done) {
  // Admission caps: clamp BEFORE keying, so the cache is addressed by the
  // work the server actually performs.
  if (opts_.maxTimeoutSeconds > 0 &&
      (req.timeoutSeconds <= 0 || req.timeoutSeconds > opts_.maxTimeoutSeconds))
    req.timeoutSeconds = opts_.maxTimeoutSeconds;
  if (opts_.maxMemoryBudgetBytes > 0 &&
      (req.memoryBudgetBytes == 0 ||
       req.memoryBudgetBytes > opts_.maxMemoryBudgetBytes))
    req.memoryBudgetBytes = opts_.maxMemoryBudgetBytes;

  if (stopJobs_.load()) {
    done(core::VerifyResponse::makeError(req.id, "server shutting down"));
    return;
  }

  const std::uint64_t key = req.cacheKey();
  const std::uint64_t id = req.id;
  core::VerifyResponse hit;
  // A joiner's stored callback re-stamps its own request id — the owner
  // computed under a different one.
  ResultCache::Waiter joined = [done, id](const core::VerifyResponse& resp) {
    core::VerifyResponse copy = resp;
    copy.id = id;
    done(copy);
  };
  switch (cache_.claim(key, &hit, std::move(joined))) {
    case ResultCache::Claim::Hit:
      collector_.addCounter("serve.cache.hit", 1);
      hit.id = id;
      done(hit);
      return;
    case ResultCache::Claim::Joined:
      collector_.addCounter("serve.cache.coalesced", 1);
      return;  // the owner's fulfill answers us
    case ResultCache::Claim::Owner:
      collector_.addCounter("serve.cache.miss", 1);
      break;
  }

  // This miss is about to become a job: consult the live load. Hits and
  // coalesced joiners never get here — they are always free.
  if (!admitJob(req)) {
    collector_.addCounter("serve.admission.rejected", 1);
    const core::VerifyResponse resp = core::VerifyResponse::makeError(
        id, "admission control: server overloaded, retry later");
    cache_.abandon(key, resp);
    done(resp);
    return;
  }
  collector_.addCounter("serve.jobs", 1);

  if (workerPool_ != nullptr) {
    workerPool_->submit(req,
                        [this, req, key, done](const core::VerifyResponse& r) {
                          completeJob(req, key, r, done);
                        });
    return;
  }
  if (!poolError_.empty()) {
    // workers were requested but the pool never started (and the caller
    // drove handleLine() without start(), which would have failed fast).
    completeJob(req, key, core::VerifyResponse::makeError(id, poolError_),
                done);
    return;
  }
  pool_->submit([this, req, key, done] { runJob(req, key, done); });
}

bool VerifyServer::admitJob(const core::VerifyRequest& req) {
  const double eff = req.timeoutSeconds > 0 ? req.timeoutSeconds : 0;
  std::lock_guard<std::mutex> lk(admissionMutex_);
  // A backlog of zero always admits, so no single request can be
  // permanently unservable however large its budget.
  if (pendingJobs_ > 0) {
    if (opts_.maxQueueDepth > 0 && pendingJobs_ >= opts_.maxQueueDepth)
      return false;
    if (opts_.maxPendingSeconds > 0 &&
        pendingSeconds_ + eff > opts_.maxPendingSeconds)
      return false;
  }
  ++pendingJobs_;
  pendingSeconds_ += eff;
  return true;
}

void VerifyServer::releaseJob(const core::VerifyRequest& req) {
  const double eff = req.timeoutSeconds > 0 ? req.timeoutSeconds : 0;
  std::lock_guard<std::mutex> lk(admissionMutex_);
  if (pendingJobs_ > 0) --pendingJobs_;
  pendingSeconds_ = std::max(0.0, pendingSeconds_ - eff);
}

void VerifyServer::runJob(const core::VerifyRequest& req, std::uint64_t key,
                          ResultCache::Waiter done) {
  try {
    core::VerifyReport rep;
    Timer t;
    {
      // The server-lifetime collector is thread-safe; attaching it here
      // gives every job a serve.job span (and the verify.* sub-spans).
      trace::Use tracing(&collector_);
      TRACE_SPAN("serve.job");
      rep = core::verify(req);
    }
    completeJob(req, key,
                core::VerifyResponse::fromReport(req, rep, t.seconds()), done);
  } catch (const std::exception& e) {
    completeJob(req, key, core::VerifyResponse::makeError(req.id, e.what()),
                done);
  }
}

void VerifyServer::completeJob(const core::VerifyRequest& req,
                               std::uint64_t key,
                               const core::VerifyResponse& resp,
                               const ResultCache::Waiter& done) {
  releaseJob(req);
  if (!resp.error.empty()) {
    // Worker crash past its retry budget, shutdown, or a thrown
    // verification error: wake the joiners with the error, store nothing.
    collector_.addCounter("serve.jobs.failed", 1);
    cache_.abandon(key, resp);
    done(resp);
    return;
  }
  // Never cache a wall-clock timeout: whether the deadline tripped is a
  // property of machine load, not of the cell — replaying it from the
  // cache would freeze a nondeterministic answer. Memout (logical arena
  // bytes) and conflict-budget inconclusives are deterministic and
  // cacheable.
  const bool cacheable = resp.verdict != core::Verdict::Timeout;
  cache_.fulfill(key, resp, cacheable);
  // The journal keeps the same policy: it only ever sees cacheable results.
  if (cacheable && journal_ != nullptr) journal_->append(key, resp);
  done(resp);  // the owner's own answer is the fresh one (cached=false)
}

std::string VerifyServer::controlResponse(const std::string& op) {
  collector_.addCounter("serve.control", 1);
  std::ostringstream os;
  JsonWriter w(os);
  if (op == "ping") {
    w.beginObject();
    w.kv("ok", true);
    w.kv("op", op);
    w.kv("version", core::kResponseSchemaVersion);
    w.endObject();
  } else if (op == "stats") {
    const ResultCache::Stats cs = cache_.stats();
    w.beginObject();
    w.kv("ok", true);
    w.kv("op", op);
    w.key("counters");
    w.beginObject();
    for (const auto& [name, value] : collector_.counters()) w.kv(name, value);
    // The cache's own statistics are authoritative gauges.
    w.kv("serve.cache.hits", cs.hits);
    w.kv("serve.cache.misses", cs.misses);
    w.kv("serve.cache.coalesced_total", cs.coalesced);
    w.kv("serve.cache.entries", cs.entries);
    w.kv("serve.cache.inflight", cs.inflight);
    w.kv("serve.cache.evictions", cs.evictions);
    if (workerPool_ != nullptr) {
      const WorkerPool::Stats ps = workerPool_->stats();
      w.kv("serve.pool.workers_alive", ps.aliveWorkers);
      w.kv("serve.pool.queued", ps.queued);
      w.kv("serve.pool.inflight", ps.inflight);
      w.kv("serve.pool.dispatched", ps.dispatched);
      w.kv("serve.pool.crashes_total", ps.crashes);
      w.kv("serve.pool.respawns_total", ps.respawns);
      w.kv("serve.pool.retries_total", ps.retries);
      w.kv("serve.pool.failed_total", ps.failed);
      w.kv("serve.pool.batches_total", ps.batches);
      w.kv("serve.pool.batched_requests_total", ps.batchedRequests);
    }
    if (journal_ != nullptr)
      w.kv("serve.journal.segments_on_disk",
           static_cast<std::uint64_t>(journal_->segmentCount()));
    w.endObject();
    w.endObject();
  } else if (op == "shutdown") {
    w.beginObject();
    w.kv("ok", true);
    w.kv("op", op);
    w.endObject();
    requestShutdown();
  } else {
    w.beginObject();
    w.kv("ok", false);
    w.kv("error", "unknown op: " + op);
    w.endObject();
  }
  return compactJson(os.str());
}

std::string VerifyServer::dispatchLine(const std::string& line,
                                       ResultCache::Waiter done) {
  std::string err;
  const std::optional<JsonValue> v = parseJson(line, &err);
  if (v.has_value() && v->isObject())
    if (const JsonValue* op = v->find("op"); op != nullptr && op->isString())
      return controlResponse(op->string);

  collector_.addCounter("serve.requests", 1);
  std::optional<core::VerifyRequest> req;
  if (!v.has_value()) {
    err = "malformed JSON: " + err;
  } else {
    req = core::VerifyRequest::fromJson(*v, &err);
  }
  if (!req.has_value()) {
    collector_.addCounter("serve.requests.bad", 1);
    done(core::VerifyResponse::makeError(salvageId(line), err));
    return {};
  }
  submit(*req, std::move(done));
  return {};
}

std::string VerifyServer::handleLine(const std::string& line) {
  // The synchronous face of dispatchLine(): park the response in a
  // promise. Safe from any thread that is not a pool worker (a worker
  // waiting here on a coalesced sibling would deadlock a full pool).
  auto promise = std::make_shared<std::promise<core::VerifyResponse>>();
  std::future<core::VerifyResponse> future = promise->get_future();
  const std::string direct = dispatchLine(
      line, [promise](const core::VerifyResponse& resp) {
        promise->set_value(resp);
      });
  if (!direct.empty()) return direct;
  return wire(future.get());
}

void VerifyServer::acceptLoop() {
  while (!stopAccept_.load()) {
    pollfd fds[2];
    nfds_t n = 0;
    if (unixFd_ >= 0) fds[n++] = pollfd{unixFd_, POLLIN, 0};
    if (tcpFd_ >= 0) fds[n++] = pollfd{tcpFd_, POLLIN, 0};
    if (n == 0) return;
    const int r = ::poll(fds, n, 200);  // tick so the stop flag is seen
    if (r <= 0) continue;
    for (nfds_t i = 0; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) continue;
      collector_.addCounter("serve.connections", 1);
      auto conn = std::make_unique<Connection>();
      conn->fd = cfd;
      Connection* raw = conn.get();
      conn->reader = std::thread([this, raw] { readerLoop(raw); });
      std::lock_guard<std::mutex> lk(connMutex_);
      conns_.push_back(std::move(conn));
    }
  }
}

void VerifyServer::readerLoop(Connection* conn) {
  std::string pending;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // EOF, error, or SHUT_RD from stop()
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string line = pending.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      // Requests answer asynchronously (pipelining + cross-connection
      // coalescing); control ops answer inline.
      const std::string direct = dispatchLine(
          line, [this, conn](const core::VerifyResponse& resp) {
            writeLine(conn, wire(resp));
          });
      if (!direct.empty()) writeLine(conn, direct);
    }
    pending.erase(0, start);
  }
}

void VerifyServer::writeLine(Connection* conn, const std::string& line) {
  if (!conn->open.load()) return;
  std::lock_guard<std::mutex> lk(conn->writeMutex);
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a client that hung up must surface as an error here,
    // not as a process-wide SIGPIPE.
    const ssize_t n = ::send(conn->fd, framed.data() + off,
                             framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      conn->open.store(false);
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace velev::serve
