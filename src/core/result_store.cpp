#include "core/result_store.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace velev::core {

namespace fs = std::filesystem;

namespace {

std::string keyHex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, key);
  return buf;
}

bool parseKeyHex(std::string_view hex, std::uint64_t* key) {
  const char* end = hex.data() + hex.size();
  const auto [at, ec] = std::from_chars(hex.data(), end, *key, 16);
  return hex.size() == 16 && ec == std::errc() && at == end;
}

bool segmentNumber(const fs::path& p, std::uint64_t* n) {
  const std::string name = p.filename().string();
  if (name.size() < 10 || name.compare(0, 4, "seg-") != 0 ||
      name.compare(name.size() - 5, 5, ".json") != 0)
    return false;
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < name.size() - 5; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  *n = v;
  return true;
}

}  // namespace

ResultStore::ResultStore(Options opts) : opts_(std::move(opts)) {
  if (opts_.compactThreshold < 2) opts_.compactThreshold = 2;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);  // load()/append() cope if this failed
}

std::vector<std::pair<std::uint64_t, VerifyResponse>> ResultStore::load(
    LoadStats* stats) {
  TRACE_SPAN("store.load");
  std::lock_guard<std::mutex> lk(mutex_);
  LoadStats ls;

  std::vector<std::pair<std::uint64_t, fs::path>> segments;
  std::error_code ec;
  for (fs::directory_iterator it(opts_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::uint64_t n = 0;
    if (segmentNumber(it->path(), &n)) segments.emplace_back(n, it->path());
  }
  std::sort(segments.begin(), segments.end());

  std::vector<std::pair<std::uint64_t, VerifyResponse>> out;
  // Later segments win on duplicate keys: index of each key in `out`.
  std::unordered_map<std::uint64_t, std::size_t> index;

  for (const auto& [number, path] : segments) {
    ++ls.segments;
    segmentsOnDisk_ = ls.segments;
    nextSegment_ = std::max(nextSegment_, number + 1);

    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::optional<JsonValue> v = parseJson(text.str());
    // Corrupt, truncated, wrong-version or stale-binary segments degrade
    // to cold entries — skipped wholesale, never an error.
    const JsonValue* entries =
        in && v.has_value() && v->isObject() ? v->find("entries") : nullptr;
    if (entries == nullptr || !entries->isArray() ||
        v->uintAt("version") != kSchemaVersion ||
        v->stringAt("git_describe") != trace::gitDescribe()) {
      ++ls.skippedSegments;
      continue;
    }
    for (const JsonValue& e : entries->array) {
      std::uint64_t key = 0;
      const JsonValue* respJson = e.find("response");
      std::optional<VerifyResponse> resp;
      if (e.isObject() && parseKeyHex(e.stringAt("key"), &key) &&
          respJson != nullptr)
        resp = VerifyResponse::fromJson(*respJson);
      if (!resp.has_value() || !resp->error.empty()) {
        ++ls.skippedEntries;
        continue;
      }
      ++ls.entries;
      if (const auto it = index.find(key); it != index.end()) {
        out[it->second].second = *resp;
      } else {
        index.emplace(key, out.size());
        out.emplace_back(key, *resp);
      }
    }
  }
  live_ = out;
  if (stats != nullptr) *stats = ls;
  return out;
}

bool ResultStore::writeSegmentLocked(
    const std::vector<std::pair<std::uint64_t, VerifyResponse>>& entries) {
  const fs::path final =
      fs::path(opts_.dir) / ("seg-" + std::to_string(nextSegment_) + ".json");
  const bool written = replaceFileAtomically(final, [&](std::ostream& out) {
    JsonWriter w(out);
    w.beginObject();
    w.kv("version", kSchemaVersion);
    w.kv("git_describe", trace::gitDescribe());
    w.key("entries");
    w.beginArray();
    for (const auto& [key, resp] : entries) {
      w.beginObject();
      w.kv("key", keyHex(key));
      w.key("response");
      resp.writeJson(w);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  });
  if (!written) return false;
  ++nextSegment_;
  ++segmentsOnDisk_;
  return true;
}

bool ResultStore::append(std::uint64_t key, const VerifyResponse& resp) {
  if (!resp.error.empty()) return false;
  TRACE_SPAN("store.append");
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = std::find_if(live_.begin(), live_.end(),
                               [&](const auto& e) { return e.first == key; });
  if (it != live_.end())
    it->second = resp;
  else
    live_.emplace_back(key, resp);
  if (!writeSegmentLocked({{key, resp}})) return false;
  if (segmentsOnDisk_ > opts_.compactThreshold) compactLocked();
  return true;
}

void ResultStore::compactLocked() {
  // Fold every live entry into one fresh segment, then delete the older
  // ones. The fold is written (and atomically renamed) FIRST, so a crash
  // between the two steps only leaves redundant segments behind.
  const std::uint64_t foldNumber = nextSegment_;
  if (!writeSegmentLocked(live_)) return;
  std::error_code ec;
  for (fs::directory_iterator it(opts_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::uint64_t n = 0;
    if (segmentNumber(it->path(), &n) && n < foldNumber) {
      std::error_code rec;
      fs::remove(it->path(), rec);
    }
  }
  segmentsOnDisk_ = 1;
}

std::size_t ResultStore::segmentCount() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return segmentsOnDisk_;
}

}  // namespace velev::core
