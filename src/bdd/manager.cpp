#include "bdd/manager.hpp"

#include <algorithm>

#include "util/failpoint.hpp"
#include "util/hash.hpp"

namespace cmc::bdd {

// ---------------------------------------------------------------------------
// Bdd handle
// ---------------------------------------------------------------------------

Bdd::Bdd(Manager* mgr, NodeIndex idx) noexcept : mgr_(mgr), idx_(idx) {
  if (mgr_ != nullptr) mgr_->incRef(idx_);
}

Bdd::Bdd(const Bdd& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  if (mgr_ != nullptr) mgr_->incRef(idx_);
}

Bdd::Bdd(Bdd&& other) noexcept : mgr_(other.mgr_), idx_(other.idx_) {
  other.mgr_ = nullptr;
  other.idx_ = kNilNode;
}

Bdd& Bdd::operator=(const Bdd& other) noexcept {
  if (this == &other) return *this;
  if (other.mgr_ != nullptr) other.mgr_->incRef(other.idx_);
  if (mgr_ != nullptr) mgr_->decRef(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  return *this;
}

Bdd& Bdd::operator=(Bdd&& other) noexcept {
  if (this == &other) return *this;
  if (mgr_ != nullptr) mgr_->decRef(idx_);
  mgr_ = other.mgr_;
  idx_ = other.idx_;
  other.mgr_ = nullptr;
  other.idx_ = kNilNode;
  return *this;
}

Bdd::~Bdd() {
  if (mgr_ != nullptr) mgr_->decRef(idx_);
}

// ---------------------------------------------------------------------------
// Manager construction
// ---------------------------------------------------------------------------

namespace {

std::size_t roundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Manager::Manager(std::size_t initialCapacity, std::size_t cacheSize) {
  nodes_.reserve(std::max<std::size_t>(initialCapacity, 64));
  // Terminals.  Their `refs` stay pinned at 1 so GC never reclaims them.
  nodes_.push_back(Node{kTerminalLevel, kFalseNode, kFalseNode, kNilNode, 1});
  nodes_.push_back(Node{kTerminalLevel, kTrueNode, kTrueNode, kNilNode, 1});
  stats_.liveNodes = 2;
  stats_.peakNodes = 2;

  uniqueBuckets_.assign(roundUpPow2(std::max<std::size_t>(initialCapacity, 64)),
                        kNilNode);
  cache_.assign(roundUpPow2(std::max<std::size_t>(cacheSize, 1024)),
                CacheEntry{});
  gcThreshold_ = std::max<std::uint64_t>(initialCapacity, 4096);
}

std::uint32_t Manager::newVar() {
  const std::uint32_t var = numVars_++;
  varToLevel_.push_back(var);  // new variables start at the bottom level
  levelToVar_.push_back(var);
  return var;
}

std::uint32_t Manager::ensureVars(std::uint32_t n) {
  while (numVars_ < n) newVar();
  return numVars_;
}

Bdd Manager::bddVar(std::uint32_t var) {
  ensureVars(var + 1);
  return Bdd(this, mk(var, kFalseNode, kTrueNode));
}

Bdd Manager::bddNVar(std::uint32_t var) {
  ensureVars(var + 1);
  return Bdd(this, mk(var, kTrueNode, kFalseNode));
}

Bdd Manager::cube(const std::vector<std::uint32_t>& vars) {
  std::vector<std::uint32_t> sorted = vars;
  for (std::uint32_t v : sorted) ensureVars(v + 1);
  // Build bottom-up (deepest level first) so every mk() call is canonical.
  std::sort(sorted.begin(), sorted.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return varToLevel_[a] > varToLevel_[b];
            });
  NodeIndex acc = kTrueNode;
  for (std::uint32_t v : sorted) {
    acc = mk(v, kFalseNode, acc);
  }
  return Bdd(this, acc);
}

// ---------------------------------------------------------------------------
// Reference counting
// ---------------------------------------------------------------------------

void Manager::incRef(NodeIndex i) noexcept { ++nodes_[i].refs; }

void Manager::decRef(NodeIndex i) noexcept {
  CMC_ASSERT(nodes_[i].refs > 0);
  --nodes_[i].refs;
}

// ---------------------------------------------------------------------------
// Unique table and node allocation
// ---------------------------------------------------------------------------

NodeIndex Manager::mk(std::uint32_t var, NodeIndex low, NodeIndex high) {
  if (low == high) return low;  // reduction rule
  ++stats_.uniqueLookups;
  const std::size_t mask = uniqueBuckets_.size() - 1;
  std::size_t bucket = hash3(var, low, high) & mask;
  for (NodeIndex i = uniqueBuckets_[bucket]; i != kNilNode;
       i = nodes_[i].next) {
    const Node& n = nodes_[i];
    if (n.var == var && n.low == low && n.high == high) return i;
  }
  NodeIndex i = allocateNode();
  // allocateNode may have grown/rehashed the table; recompute the bucket.
  bucket = hash3(var, low, high) & (uniqueBuckets_.size() - 1);
  Node& n = nodes_[i];
  n.var = var;
  n.low = low;
  n.high = high;
  n.refs = 0;
  n.next = uniqueBuckets_[bucket];
  uniqueBuckets_[bucket] = i;
  return i;
}

NodeIndex Manager::allocateNode() {
  // NOTE: no GC here.  A collection is only safe between operations (nodes
  // created mid-recursion carry no external references yet); maybeGc() is
  // called from the top-level entry points in ops.cpp.
  // The failpoint fires before any state changes, so an injected
  // allocation failure leaves the manager fully consistent (the exception
  // unwinds through the ops recursion like a real allocation error would).
  CMC_FAILPOINT("bdd.alloc_node");
  ++stats_.nodesAllocatedTotal;
  if (freeList_ != kNilNode) {
    NodeIndex i = freeList_;
    freeList_ = nodes_[i].next;
    --freeCount_;
    ++stats_.liveNodes;
    stats_.peakNodes = std::max(stats_.peakNodes, stats_.liveNodes);
    return i;
  }
  NodeIndex i = static_cast<NodeIndex>(nodes_.size());
  CMC_ASSERT(i != kNilNode);
  // Poisoned until mk() fills it in, so the rehash below skips it: chained
  // there as well as by mk(), the node would splice two bucket chains and
  // lose nodes from the table (or loop, when both buckets coincide).
  nodes_.push_back(Node{kTerminalLevel, kNilNode, kNilNode, kNilNode, 0});
  ++stats_.liveNodes;
  stats_.peakNodes = std::max(stats_.peakNodes, stats_.liveNodes);
  if (nodes_.size() > uniqueBuckets_.size()) {
    rehashUniqueTable(uniqueBuckets_.size() * 2);
  }
  return i;
}

void Manager::rehashUniqueTable(std::size_t buckets) {
  uniqueBuckets_.assign(buckets, kNilNode);
  const std::size_t mask = buckets - 1;
  // Re-chain every live internal node.  Free-list nodes carry the poisoned
  // label var == kTerminalLevel (with index >= 2), so the label test alone
  // skips them — and because only live nodes are re-chained, the free-list
  // links (which share `next`) survive the rebuild untouched.
  for (NodeIndex i = 2; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.var == kTerminalLevel) continue;
    const std::size_t bucket = hash3(n.var, n.low, n.high) & mask;
    n.next = uniqueBuckets_[bucket];
    uniqueBuckets_[bucket] = i;
  }
}

// ---------------------------------------------------------------------------
// Garbage collection: mark from externally referenced nodes, sweep the rest.
// ---------------------------------------------------------------------------

void Manager::maybeGc() {
  if (stats_.liveNodes < gcThreshold_) return;
  const std::uint64_t before = stats_.liveNodes;
  collectGarbage();
  // If the collection was unproductive, raise the threshold so we do not
  // thrash: the classic 25% rule.
  if (stats_.liveNodes > before - before / 4) {
    gcThreshold_ *= 2;
  }
}

void Manager::collectGarbage() {
  ++stats_.gcRuns;
  marks_.assign(nodes_.size(), false);
  marks_[kFalseNode] = true;
  marks_[kTrueNode] = true;

  std::vector<NodeIndex> stack;
  for (NodeIndex i = 2; i < nodes_.size(); ++i) {
    if (nodes_[i].refs > 0 && !marks_[i]) {
      stack.push_back(i);
      marks_[i] = true;
    }
  }
  while (!stack.empty()) {
    NodeIndex i = stack.back();
    stack.pop_back();
    const Node& n = nodes_[i];
    if (!marks_[n.low]) {
      marks_[n.low] = true;
      if (n.low >= 2) stack.push_back(n.low);
    }
    if (!marks_[n.high]) {
      marks_[n.high] = true;
      if (n.high >= 2) stack.push_back(n.high);
    }
  }

  // Sweep: everything unmarked (and not already free, i.e. not already
  // poisoned) joins the free list.
  std::uint64_t reclaimed = 0;
  for (NodeIndex i = 2; i < nodes_.size(); ++i) {
    if (!marks_[i] && nodes_[i].var != kTerminalLevel) {
      nodes_[i].var = kTerminalLevel;  // poison
      nodes_[i].next = freeList_;
      freeList_ = i;
      ++freeCount_;
      ++reclaimed;
    }
  }
  stats_.gcReclaimed += reclaimed;
  stats_.liveNodes -= reclaimed;

  // Dead nodes may still sit in unique-table chains; rebuild the table.
  rehashUniqueTable(uniqueBuckets_.size());
  // Cached results may reference dead nodes; drop them all.
  clearCache();
}

// ---------------------------------------------------------------------------
// Computed table
// ---------------------------------------------------------------------------

bool Manager::cacheLookup(std::uint32_t op, NodeIndex f, NodeIndex g,
                          NodeIndex h, NodeIndex* out) {
  ++stats_.cacheLookups;
  const std::uint64_t tag =
      mix64((std::uint64_t{op} << 58) ^ (std::uint64_t{f} << 40) ^
            (std::uint64_t{g} << 20) ^ h) ^
      ((std::uint64_t{f} << 32) | g);
  const CacheEntry& e = cache_[tag & (cache_.size() - 1)];
  if (e.tag == tag) {
    ++stats_.cacheHits;
    *out = e.result;
    return true;
  }
  return false;
}

void Manager::cacheInsert(std::uint32_t op, NodeIndex f, NodeIndex g,
                          NodeIndex h, NodeIndex result) {
  const std::uint64_t tag =
      mix64((std::uint64_t{op} << 58) ^ (std::uint64_t{f} << 40) ^
            (std::uint64_t{g} << 20) ^ h) ^
      ((std::uint64_t{f} << 32) | g);
  CacheEntry& e = cache_[tag & (cache_.size() - 1)];
  e.tag = tag;
  e.result = result;
}

void Manager::clearCache() {
  for (CacheEntry& e : cache_) e = CacheEntry{};
}

}  // namespace cmc::bdd
