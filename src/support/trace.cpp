#include "support/trace.hpp"

#include <algorithm>
#include <cinttypes>

#include "support/json.hpp"

namespace velev::trace {

namespace detail {
thread_local constinit ThreadState tlsState;
}  // namespace detail

Collector::Collector() : epoch_(Clock::now()) {}

std::uint64_t Collector::nowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch_)
          .count());
}

std::uint32_t Collector::registerThread() {
  std::lock_guard<std::mutex> lock(mu_);
  return nextTid_++;
}

void Collector::record(const char* name, std::uint32_t tid,
                       std::uint32_t depth, std::uint64_t startUs,
                       std::uint64_t durUs) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanEvent{name, tid, depth, startUs, durUs, nextSeq_++});
}

void Collector::addCounter(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), delta);
  else
    it->second += delta;
}

void Collector::setCounter(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), value);
  else
    it->second = value;
}

void Collector::maxCounter(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    counters_.emplace(std::string(name), value);
  else
    it->second = std::max(it->second, value);
}

std::uint64_t Collector::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t> Collector::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {counters_.begin(), counters_.end()};
}

std::vector<SpanEvent> Collector::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

unsigned Collector::threadsSeen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nextTid_;
}

void Collector::writeChromeTrace(std::ostream& os) const {
  std::vector<SpanEvent> spans;
  std::map<std::string, std::uint64_t> counters;
  std::uint32_t threads = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
    counters = {counters_.begin(), counters_.end()};
    threads = nextTid_;
  }
  std::uint64_t endUs = 0;
  for (const SpanEvent& s : spans)
    endUs = std::max(endUs, s.startUs + s.durUs);

  JsonWriter w(os);
  w.beginObject();
  w.key("traceEvents");
  w.beginArray();
  // Metadata: process / thread names, so Perfetto labels the tracks.
  w.beginObject();
  w.kv("name", "process_name");
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.key("args");
  w.beginObject();
  w.kv("name", "velev");
  w.endObject();
  w.endObject();
  for (std::uint32_t t = 0; t < threads; ++t) {
    w.beginObject();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("tid", t);
    w.key("args");
    w.beginObject();
    w.kv("name", "trace-thread-" + std::to_string(t));
    w.endObject();
    w.endObject();
  }
  for (const SpanEvent& s : spans) {
    w.beginObject();
    w.kv("name", s.name);
    w.kv("cat", "velev");
    w.kv("ph", "X");
    w.kv("ts", s.startUs);
    w.kv("dur", s.durUs);
    w.kv("pid", 1);
    w.kv("tid", s.tid);
    w.endObject();
  }
  // Final counter values as one counter sample each at the end of the
  // timeline (Perfetto renders them as counter tracks).
  for (const auto& [name, value] : counters) {
    w.beginObject();
    w.kv("name", name);
    w.kv("cat", "velev");
    w.kv("ph", "C");
    w.kv("ts", endUs);
    w.kv("pid", 1);
    w.key("args");
    w.beginObject();
    w.kv("value", value);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.kv("displayTimeUnit", "ms");
  w.endObject();
}

namespace {

/// Aggregation node of the stage tree: spans merged by hierarchical path
/// (across threads), keeping invocation count, total time, and insertion
/// order (so the tree prints in first-seen order, which matches pipeline
/// order on the main thread).
struct TreeNode {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t totalUs = 0;
  std::vector<std::size_t> children;  // indices into the node pool
};

std::size_t childOf(std::vector<TreeNode>& pool, std::size_t parent,
                    const char* name) {
  for (std::size_t c : pool[parent].children)
    if (pool[c].name == name) return c;
  pool.push_back(TreeNode{name, 0, 0, {}});
  pool[parent].children.push_back(pool.size() - 1);
  return pool.size() - 1;
}

void printTree(std::ostream& os, const std::vector<TreeNode>& pool,
               std::size_t node, unsigned indent) {
  const TreeNode& n = pool[node];
  if (indent > 0) {  // the root is synthetic
    char buf[160];
    std::string label(2 * (indent - 1), ' ');
    label += n.name;
    std::snprintf(buf, sizeof buf, "  %-40s %10.3f s", label.c_str(),
                  static_cast<double>(n.totalUs) / 1e6);
    os << buf;
    if (n.count > 1) os << "  (x" << n.count << ")";
    os << '\n';
  }
  for (std::size_t c : n.children) printTree(os, pool, c, indent + 1);
}

}  // namespace

void Collector::writeStageTree(std::ostream& os) const {
  std::vector<SpanEvent> spans = this->spans();
  const std::map<std::string, std::uint64_t> counters = this->counters();

  // Rebuild each thread's nesting from the interval structure (a child is
  // fully contained in its parent), then merge threads by path.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.startUs != b.startUs) return a.startUs < b.startUs;
                     if (a.depth != b.depth) return a.depth < b.depth;
                     return a.seq < b.seq;
                   });
  std::vector<TreeNode> pool;
  pool.push_back(TreeNode{"", 0, 0, {}});  // synthetic root
  std::vector<std::size_t> stack;          // current path, as pool indices
  std::vector<std::uint64_t> stackEnd;     // matching span end times
  std::uint32_t curTid = 0;
  for (const SpanEvent& s : spans) {
    if (stack.empty() || s.tid != curTid) {
      stack.clear();
      stackEnd.clear();
      curTid = s.tid;
    }
    while (!stack.empty() && s.startUs >= stackEnd.back()) {
      stack.pop_back();
      stackEnd.pop_back();
    }
    const std::size_t parent = stack.empty() ? 0 : stack.back();
    const std::size_t node = childOf(pool, parent, s.name);
    pool[node].count += 1;
    pool[node].totalUs += s.durUs;
    stack.push_back(node);
    stackEnd.push_back(s.startUs + s.durUs);
  }

  os << "-- trace: stage tree (wall seconds, merged across "
     << threadsSeen() << " thread" << (threadsSeen() == 1 ? "" : "s")
     << ") --\n";
  printTree(os, pool, 0, 0);
  if (!counters.empty()) {
    os << "-- trace: counters --\n";
    for (const auto& [name, value] : counters) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "  %-42s %12" PRIu64 "\n", name.c_str(),
                    value);
      os << buf;
    }
  }
}

// ---- manifests --------------------------------------------------------------

const char* gitDescribe() {
#ifdef VELEV_GIT_DESCRIBE
  return VELEV_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

/// The config block stores values as strings; emit plain integers as JSON
/// numbers so downstream tooling gets typed fields.
bool looksNumeric(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = s[0] == '-' ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i)
    if (s[i] < '0' || s[i] > '9') return false;
  return true;
}

}  // namespace

void writeManifest(std::ostream& os, const ManifestData& m,
                   const Collector* collector) {
  // Merge: live trace counters first, the explicit (report-derived) block
  // second — the report values are authoritative on a name collision.
  std::map<std::string, std::uint64_t> counters;
  if (collector != nullptr) counters = collector->counters();
  for (const auto& [name, value] : m.counters) counters[name] = value;

  JsonWriter w(os);
  w.beginObject();
  w.kv("schema_version", kManifestSchemaVersion);
  w.kv("tool", m.tool);
  w.kv("git_describe", gitDescribe());
  w.key("config");
  w.beginObject();
  for (const auto& [key, value] : m.config) {
    if (looksNumeric(value))
      w.kv(key, static_cast<std::int64_t>(std::stoll(value)));
    else
      w.kv(key, value);
  }
  w.endObject();
  w.key("budget");
  w.beginObject();
  w.kv("wall_seconds", m.budgetWallSeconds);
  w.kv("memory_bytes", m.budgetMemoryBytes);
  w.kv("sat_conflicts", m.budgetSatConflicts);
  w.endObject();
  w.kv("verdict", m.verdict);
  if (!m.reason.empty()) w.kv("reason", m.reason);
  w.key("stage_seconds");
  w.beginObject();
  for (const auto& [stage, seconds] : m.stageSeconds) w.kv(stage, seconds);
  w.endObject();
  w.kv("peak_arena_bytes", m.peakArenaBytes);
  w.kv("rss_high_water_kb", m.rssHighWaterKb);
  if (collector != nullptr)
    w.kv("traced_threads",
         static_cast<std::uint64_t>(collector->threadsSeen()));
  w.key("counters");
  w.beginObject();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.endObject();
  w.endObject();
}

}  // namespace velev::trace
