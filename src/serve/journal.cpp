#include "serve/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "support/atomic_file.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace velev::serve {

namespace fs = std::filesystem;

namespace {

std::string keyHex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

bool parseKeyHex(std::string_view hex, std::uint64_t* key) {
  if (hex.size() != 16) return false;
  std::uint64_t k = 0;
  for (const char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    k = (k << 4) | static_cast<std::uint64_t>(d);
  }
  *key = k;
  return true;
}

/// The daemon's cacheability policy, re-checked at the persistence
/// boundary: errors and wall-clock Timeouts never reach disk.
bool persistable(const core::VerifyResponse& resp) {
  return resp.error.empty() && resp.verdict != core::Verdict::Timeout;
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

CacheJournal::CacheJournal(Options opts) : opts_(std::move(opts)) {
  if (opts_.compactThreshold < 2) opts_.compactThreshold = 2;
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);  // load()/append() cope if this failed
}

std::vector<std::pair<std::uint64_t, core::VerifyResponse>> CacheJournal::load(
    LoadStats* stats) {
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

  live_.clear();
  std::vector<std::pair<std::uint64_t, core::VerifyResponse>> out;
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
    if (!in || !v.has_value() || !v->isObject() ||
        v->uintAt("version") != kJournalSchemaVersion ||
        v->stringAt("git_describe") != trace::gitDescribe()) {
      ++ls.skippedSegments;
      continue;
    }
    const JsonValue* entries = v->find("entries");
    if (entries == nullptr || !entries->isArray()) {
      ++ls.skippedSegments;
      continue;
    }
    for (const JsonValue& e : entries->array) {
      std::uint64_t key = 0;
      const JsonValue* respJson = e.find("response");
      std::optional<core::VerifyResponse> resp;
      if (e.isObject() && parseKeyHex(e.stringAt("key"), &key) &&
          respJson != nullptr)
        resp = core::VerifyResponse::fromJson(*respJson);
      if (!resp.has_value() || !persistable(*resp)) {
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

bool CacheJournal::writeSegmentLocked(
    const std::vector<std::pair<std::uint64_t, core::VerifyResponse>>&
        entries) {
  const fs::path final =
      fs::path(opts_.dir) / ("seg-" + std::to_string(nextSegment_) + ".json");
  const bool written = replaceFileAtomically(final, [&](std::ostream& out) {
    JsonWriter w(out);
    w.beginObject();
    w.kv("version", kJournalSchemaVersion);
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

void CacheJournal::append(std::uint64_t key,
                          const core::VerifyResponse& resp) {
  if (!persistable(resp)) return;
  std::lock_guard<std::mutex> lk(mutex_);
  bool replaced = false;
  for (auto& [k, r] : live_)
    if (k == key) {
      r = resp;
      replaced = true;
      break;
    }
  if (!replaced) live_.emplace_back(key, resp);
  if (!writeSegmentLocked({{key, resp}})) return;
  if (segmentsOnDisk_ > opts_.compactThreshold) compactLocked();
}

void CacheJournal::compactLocked() {
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

std::size_t CacheJournal::segmentCount() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return segmentsOnDisk_;
}

}  // namespace velev::serve
