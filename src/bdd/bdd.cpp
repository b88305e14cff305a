#include "bdd/bdd.hpp"

#include <algorithm>

#include "support/budget.hpp"

namespace velev::bdd {

namespace {

constexpr std::size_t kInitialCacheSize = 1u << 12;  // entries, power of two

}  // namespace

BddManager::BddManager() {
  nodes_.push_back(Node{});  // node 0: the TRUE terminal
  cache_.resize(kInitialCacheSize);
}

unsigned BddManager::mkVar() {
  const unsigned v = numVars();
  subtables_.emplace_back();
  subtables_.back().buckets.assign(4, kNil);
  return v;
}

BddRef BddManager::varRef(unsigned v) {
  VELEV_CHECK(v < numVars());
  return mkNode(v, kFalse, kTrue);
}

// ---- unique table -----------------------------------------------------------

std::uint32_t BddManager::allocNode() {
  budgetCheckpoint();
  std::uint32_t n;
  if (freeHead_ != kNil) {
    n = freeHead_;
    freeHead_ = nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  ++liveNodes_;
  stats_.nodesPeak = std::max<std::uint64_t>(stats_.nodesPeak, liveNodes_);
  return n;
}

void BddManager::growBuckets(SubTable& t) {
  std::vector<std::uint32_t> old = std::move(t.buckets);
  t.buckets.assign(old.size() * 2, kNil);
  const std::size_t mask = t.buckets.size() - 1;
  for (std::uint32_t head : old) {
    while (head != kNil) {
      const std::uint32_t next = nodes_[head].next;
      const std::size_t b = hashPair(nodes_[head].lo, nodes_[head].hi) & mask;
      nodes_[head].next = t.buckets[b];
      t.buckets[b] = head;
      head = next;
    }
  }
}

std::uint32_t BddManager::intern(unsigned var, BddRef lo, BddRef hi) {
  VELEV_CHECK(!isComplement(hi));
  SubTable& t = subtables_[var];
  std::size_t b = hashPair(lo, hi) & (t.buckets.size() - 1);
  for (std::uint32_t n = t.buckets[b]; n != kNil; n = nodes_[n].next)
    if (nodes_[n].lo == lo && nodes_[n].hi == hi) return n;

  const std::uint32_t n = allocNode();
  if (t.count >= t.buckets.size() - t.buckets.size() / 4) {
    growBuckets(t);
    b = hashPair(lo, hi) & (t.buckets.size() - 1);
  }
  nodes_[n] = Node{var, lo, hi, t.buckets[b]};
  t.buckets[b] = n;
  ++t.count;
  maybeGrowCache();
  return n;
}

BddRef BddManager::mkNode(unsigned var, BddRef lo, BddRef hi) {
  if (lo == hi) return lo;
  // Canonical form: the hi edge must be regular. A complemented hi edge is
  // pushed onto the node's own ref: (v ? ¬a : b) == ¬(v ? a : ¬b).
  if (isComplement(hi))
    return negate(intern(var, negate(lo), negate(hi)) << 1);
  return intern(var, lo, hi) << 1;
}

// ---- ITE --------------------------------------------------------------------

BddRef BddManager::cofactor(BddRef f, unsigned v, bool value) const {
  const Node& n = nodes_[nodeOf(f)];
  if (n.var != v) return f;
  const BddRef child = value ? n.hi : n.lo;
  return isComplement(f) ? negate(child) : child;
}

BddRef BddManager::ite(BddRef f, BddRef g, BddRef h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return negate(f);
  if (f == g) g = kTrue;
  else if (f == negate(g)) g = kFalse;
  if (f == h) h = kFalse;
  else if (f == negate(h)) h = kTrue;
  if (g == kTrue && h == kFalse) return f;
  if (g == kFalse && h == kTrue) return negate(f);

  // Normalize for the cache: regular f (swap branches), then regular g
  // (complement the result) — the two rules that keep ITE canonical under
  // complement edges.
  if (isComplement(f)) {
    f = negate(f);
    std::swap(g, h);
  }
  bool complementResult = false;
  if (isComplement(g)) {
    complementResult = true;
    g = negate(g);
    h = negate(h);
  }

  ++stats_.cacheLookups;
  const std::size_t slot =
      (hashPair(f, g) ^ hashPair(h, 0x9e3779b9u)) & (cache_.size() - 1);
  {
    const CacheEntry& e = cache_[slot];
    if (e.f == f && e.g == g && e.h == h) {
      ++stats_.cacheHits;
      return complementResult ? negate(e.result) : e.result;
    }
  }

  const unsigned v = std::min({topVar(f), topVar(g), topVar(h)});
  VELEV_CHECK(v != kTerminalVar);
  const BddRef r0 = ite(cofactor(f, v, false), cofactor(g, v, false),
                        cofactor(h, v, false));
  const BddRef r1 = ite(cofactor(f, v, true), cofactor(g, v, true),
                        cofactor(h, v, true));
  const BddRef r = mkNode(v, r0, r1);

  cache_[slot] = CacheEntry{f, g, h, r};
  return complementResult ? negate(r) : r;
}

void BddManager::clearCache() {
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
}

void BddManager::maybeGrowCache() {
  // Keep the lossy cache proportioned to the node count; stale entries are
  // dropped (they are only ever an optimization).
  if (liveNodes_ < cache_.size() * 4) return;
  cache_.assign(cache_.size() * 2, CacheEntry{});
}

// ---- evaluation and paths ---------------------------------------------------

bool BddManager::eval(BddRef r, const std::vector<bool>& assignment) const {
  bool complement = false;
  while (nodeOf(r) != 0) {
    complement ^= isComplement(r);
    const Node& n = nodes_[nodeOf(r)];
    VELEV_CHECK(n.var < assignment.size());
    r = assignment[n.var] ? n.hi : n.lo;
  }
  return !(complement ^ isComplement(r));
}

std::vector<std::pair<unsigned, bool>> BddManager::satOnePath(BddRef r) const {
  VELEV_CHECK_MSG(r != kFalse, "satOnePath on the false terminal");
  std::vector<std::pair<unsigned, bool>> path;
  bool complement = false;
  while (nodeOf(r) != 0) {
    complement ^= isComplement(r);
    const Node& n = nodes_[nodeOf(r)];
    // Take the hi branch unless it is the (parity-adjusted) false terminal.
    // Both branches cannot be false: the node would be constant and hence
    // reduced away.
    const bool hiFalse =
        nodeOf(n.hi) == 0 && (complement ^ isComplement(n.hi));
    const bool value = !hiFalse;
    path.emplace_back(n.var, value);
    r = value ? n.hi : n.lo;
  }
  VELEV_CHECK(!(complement ^ isComplement(r)));
  return path;
}

std::uint64_t BddManager::countNodes(BddRef r) const {
  std::vector<std::uint8_t> marks(nodes_.size(), 0);
  markCone(r, marks);
  std::uint64_t n = 0;
  for (std::size_t i = 1; i < marks.size(); ++i) n += marks[i];
  return n;
}

// ---- garbage collection -----------------------------------------------------

void BddManager::protect(BddRef r) { ++protected_[nodeOf(r)]; }

void BddManager::unprotect(BddRef r) {
  auto it = protected_.find(nodeOf(r));
  VELEV_CHECK_MSG(it != protected_.end(), "unprotect of an unprotected ref");
  if (--it->second == 0) protected_.erase(it);
}

void BddManager::markCone(BddRef r, std::vector<std::uint8_t>& marks) const {
  std::vector<std::uint32_t> stack{nodeOf(r)};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (marks[n]) continue;
    marks[n] = 1;
    if (n == 0) continue;
    stack.push_back(nodeOf(nodes_[n].lo));
    stack.push_back(nodeOf(nodes_[n].hi));
  }
}

std::size_t BddManager::gc(std::span<const BddRef> extraRoots) {
  ++stats_.gcRuns;
  std::vector<std::uint8_t> marks(nodes_.size(), 0);
  marks[0] = 1;
  for (const auto& [node, count] : protected_) markCone(node << 1, marks);
  for (const BddRef r : extraRoots) markCone(r, marks);

  std::size_t freed = 0;
  for (unsigned v = 0; v < numVars(); ++v) {
    SubTable& t = subtables_[v];
    for (std::uint32_t& head : t.buckets) {
      std::uint32_t* link = &head;
      while (*link != kNil) {
        const std::uint32_t n = *link;
        if (marks[n]) {
          link = &nodes_[n].next;
          continue;
        }
        *link = nodes_[n].next;
        nodes_[n] = Node{kFreeVar, kTrue, kTrue, freeHead_};
        freeHead_ = n;
        --t.count;
        --liveNodes_;
        ++freed;
      }
    }
  }
  stats_.nodesFreed += freed;
  lastGcLive_ = liveNodes_;
  // Cached triples may name swept nodes; results are function-level, so
  // only liveness forces the flush.
  clearCache();
  return freed;
}

// ---- resources --------------------------------------------------------------

void BddManager::setBudget(BudgetGovernor* governor) {
  budget_ = governor;
  budgetSource_ = governor != nullptr ? governor->registerSource() : -1;
  budgetTick_ = 0;
}

std::size_t BddManager::memoryBytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(Node) +
                      cache_.capacity() * sizeof(CacheEntry);
  for (const SubTable& t : subtables_)
    bytes += t.buckets.capacity() * sizeof(std::uint32_t);
  return bytes;
}

void BddManager::budgetCheckpoint() {
  if (budget_ == nullptr) return;
  if ((++budgetTick_ & 0xffu) != 0) return;
  budget_->checkpoint(budgetSource_, memoryBytes());
}

// ---- invariants -------------------------------------------------------------

bool BddManager::checkInvariants() const {
  VELEV_CHECK(nodes_[0].var == kTerminalVar);
  std::uint32_t live = 1;
  for (unsigned v = 0; v < numVars(); ++v) {
    const SubTable& t = subtables_[v];
    std::uint32_t count = 0;
    for (const std::uint32_t head : t.buckets) {
      for (std::uint32_t n = head; n != kNil; n = nodes_[n].next) {
        const Node& node = nodes_[n];
        VELEV_CHECK_MSG(node.var == v, "node in the wrong subtable");
        VELEV_CHECK_MSG(!isComplement(node.hi), "complemented hi edge");
        VELEV_CHECK_MSG(node.lo != node.hi, "unreduced node");
        VELEV_CHECK_MSG(topVar(node.lo) > v, "lo child not strictly below");
        VELEV_CHECK_MSG(topVar(node.hi) > v, "hi child not strictly below");
        // Uniqueness: the first bucket entry with this shape must be n.
        const std::size_t b =
            hashPair(node.lo, node.hi) & (t.buckets.size() - 1);
        std::uint32_t first = t.buckets[b];
        while (nodes_[first].lo != node.lo || nodes_[first].hi != node.hi)
          first = nodes_[first].next;
        VELEV_CHECK_MSG(first == n, "duplicate (var, lo, hi) node");
        ++count;
      }
    }
    VELEV_CHECK_MSG(count == t.count, "subtable count out of sync");
    live += count;
  }
  VELEV_CHECK_MSG(live == liveNodes_, "liveNodes_ out of sync");
  return true;
}

}  // namespace velev::bdd
