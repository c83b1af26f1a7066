// A from-scratch ROBDD package (the paper used SMV's BDD engine; this is our
// substitute for it, with the same observable counters: total nodes
// allocated, live nodes, and per-function DAG sizes).
//
// Design notes
//  - Nodes live in one contiguous arena indexed by 32-bit handles; the
//    terminals FALSE and TRUE are indices 0 and 1.  The arena grows (and
//    moves) inside mk(), so code that allocates keeps node indices or
//    copies, never references into the arena, across the call.
//  - Reduction (no node with low==high) and sharing (hash-consed unique
//    table) are maintained by mk(); every operation goes through mk(), so
//    every Bdd is canonical: f == g  iff  index(f) == index(g).
//  - External references are counted per node (Bdd handles); garbage
//    collection is mark-and-sweep from externally referenced nodes and is
//    triggered by allocation pressure.
//  - One Manager is single-threaded by design.  Parallel verification gives
//    each worker its own Manager (see service::VerificationService); this
//    is the standard approach for BDD-based checkers since managers share
//    nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace cmc::bdd {

class Manager;

using NodeIndex = std::uint32_t;

inline constexpr NodeIndex kFalseNode = 0;
inline constexpr NodeIndex kTrueNode = 1;
inline constexpr NodeIndex kNilNode = 0xffffffffu;
inline constexpr std::uint32_t kTerminalLevel = 0xffffffffu;

/// RAII handle to a BDD node.  Copying bumps the node's external reference
/// count; destruction releases it.  A default-constructed handle is "null"
/// and must not be passed to operations (isNull() distinguishes it).
class Bdd {
 public:
  Bdd() noexcept = default;
  Bdd(Manager* mgr, NodeIndex idx) noexcept;
  Bdd(const Bdd& other) noexcept;
  Bdd(Bdd&& other) noexcept;
  Bdd& operator=(const Bdd& other) noexcept;
  Bdd& operator=(Bdd&& other) noexcept;
  ~Bdd();

  bool isNull() const noexcept { return mgr_ == nullptr; }
  bool isTrue() const noexcept { return idx_ == kTrueNode && mgr_ != nullptr; }
  bool isFalse() const noexcept {
    return idx_ == kFalseNode && mgr_ != nullptr;
  }
  bool isTerminal() const noexcept { return isTrue() || isFalse(); }

  NodeIndex index() const noexcept { return idx_; }
  Manager* manager() const noexcept { return mgr_; }

  /// Canonicity makes structural equality semantic equivalence.
  friend bool operator==(const Bdd& a, const Bdd& b) noexcept {
    return a.mgr_ == b.mgr_ && a.idx_ == b.idx_;
  }
  friend bool operator!=(const Bdd& a, const Bdd& b) noexcept {
    return !(a == b);
  }

  // Boolean connectives (defined in ops.cpp via the manager).
  Bdd operator&(const Bdd& rhs) const;
  Bdd operator|(const Bdd& rhs) const;
  Bdd operator^(const Bdd& rhs) const;
  Bdd operator!() const;
  /// Logical implication: (*this) -> rhs.
  Bdd implies(const Bdd& rhs) const;
  /// Logical equivalence: (*this) <-> rhs.
  Bdd iff(const Bdd& rhs) const;
  /// Set difference: (*this) & !rhs.
  Bdd diff(const Bdd& rhs) const;

  Bdd& operator&=(const Bdd& rhs) { return *this = *this & rhs; }
  Bdd& operator|=(const Bdd& rhs) { return *this = *this | rhs; }
  Bdd& operator^=(const Bdd& rhs) { return *this = *this ^ rhs; }

  /// True iff this function is a subset of rhs (this -> rhs is valid).
  bool subsetOf(const Bdd& rhs) const;

 private:
  Manager* mgr_ = nullptr;
  NodeIndex idx_ = kNilNode;
};

/// Counters mirrored from the paper's SMV resource reports (Figs. 7/10/15/17
/// print "BDD nodes allocated" and "BDD nodes representing transition
/// relation"); we expose the same quantities.
struct ManagerStats {
  std::uint64_t nodesAllocatedTotal = 0;  ///< monotonic; never reset by GC
  std::uint64_t liveNodes = 0;            ///< currently reachable nodes
  std::uint64_t peakNodes = 0;            ///< high-water mark of live nodes
  std::uint64_t gcRuns = 0;
  std::uint64_t gcReclaimed = 0;
  std::uint64_t levelSwaps = 0;
  std::uint64_t reorderings = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t uniqueLookups = 0;
};

class Manager {
 public:
  /// `initialCapacity` pre-sizes the node arena; the manager grows on demand.
  explicit Manager(std::size_t initialCapacity = 1 << 12,
                   std::size_t cacheSize = 1 << 14);

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // ---- Variables ---------------------------------------------------------

  /// Allocate the next variable (initially level == id; dynamic reordering
  /// may change the level, never the id).
  std::uint32_t newVar();
  /// Ensure at least `n` variables exist; returns the current count.
  std::uint32_t ensureVars(std::uint32_t n);
  std::uint32_t varCount() const noexcept { return numVars_; }

  /// Current level of a variable id / variable id at a level.
  std::uint32_t levelOfVar(std::uint32_t var) const {
    return varToLevel_[var];
  }
  std::uint32_t varAtLevel(std::uint32_t level) const {
    return levelToVar_[level];
  }
  /// The full order, outermost first (variable ids by level).
  std::vector<std::uint32_t> currentOrder() const { return levelToVar_; }

  // ---- Dynamic reordering (Rudell sifting; reorder.cpp) -------------------

  /// Swap the variables at `level` and `level + 1` in place.  External Bdd
  /// handles stay valid (node indices are preserved).  Returns the node
  /// delta (created - freed is not tracked; call collectGarbage() to drop
  /// orphans).
  void swapAdjacentLevels(std::uint32_t level);

  /// Sift one variable to its locally optimal level.  Returns the live
  /// node count after placement.
  std::uint64_t siftVariable(std::uint32_t var);

  /// Full sifting pass over all variables (largest support first).
  /// Returns the live node count after reordering.
  std::uint64_t reorderSift();

  // ---- Leaf/literal constructors -----------------------------------------

  Bdd bddTrue() { return Bdd(this, kTrueNode); }
  Bdd bddFalse() { return Bdd(this, kFalseNode); }
  Bdd bddVar(std::uint32_t var);   ///< the function "var"
  Bdd bddNVar(std::uint32_t var);  ///< the function "!var"
  /// Positive cube over `vars` (conjunction of the variables).
  Bdd cube(const std::vector<std::uint32_t>& vars);

  // ---- Core operations (ops.cpp) -----------------------------------------

  Bdd ite(const Bdd& f, const Bdd& g, const Bdd& h);
  Bdd andOp(const Bdd& f, const Bdd& g);
  Bdd orOp(const Bdd& f, const Bdd& g);
  Bdd xorOp(const Bdd& f, const Bdd& g);
  Bdd notOp(const Bdd& f);

  /// Existential quantification of the variables of `cube` out of `f`.
  Bdd exists(const Bdd& f, const Bdd& cube);
  /// Universal quantification (dual of exists).
  Bdd forall(const Bdd& f, const Bdd& cube);
  /// Relational product: exists(cube, f & g) computed in one pass.  This is
  /// the workhorse of image/preimage computation in the symbolic checker.
  Bdd andExists(const Bdd& f, const Bdd& g, const Bdd& cube);

  /// Register a variable permutation (perm[v] = image of v); returns an id
  /// usable with permute().  Permutations are cached per id.
  std::uint32_t registerPermutation(std::vector<std::uint32_t> perm);
  /// Rename variables of f according to the registered permutation.
  Bdd permute(const Bdd& f, std::uint32_t permId);

  // ---- Inspection ---------------------------------------------------------

  /// Number of distinct internal nodes in f's DAG (terminals excluded),
  /// matching SMV's per-function node counts.
  std::uint64_t dagSize(const Bdd& f) const;
  /// Combined DAG size of several functions (shared nodes counted once).
  std::uint64_t dagSize(const std::vector<Bdd>& fs) const;
  /// Variables f depends on, ascending.
  std::vector<std::uint32_t> support(const Bdd& f) const;
  /// Number of satisfying assignments over `nvars` variables.
  double satCount(const Bdd& f, std::uint32_t nvars) const;
  /// One satisfying assignment; entry v is 0, 1, or -1 (don't care).
  /// Requires f != false.
  std::vector<std::int8_t> pickCube(const Bdd& f) const;
  /// Evaluate under a full assignment (index = variable).
  bool eval(const Bdd& f, const std::vector<bool>& assignment) const;

  const ManagerStats& stats() const noexcept { return stats_; }
  std::uint64_t liveNodeCount() const noexcept { return stats_.liveNodes; }

  /// Restart the peak-live-nodes high-water mark from the current live
  /// count, making `stats().peakNodes` a per-phase measurement (used by
  /// Checker::check for its per-check accounting).
  void resetPeakNodes() noexcept { stats_.peakNodes = stats_.liveNodes; }

  /// Force a garbage collection now (normally automatic).
  void collectGarbage();

  /// Override the live-node count at which automatic GC triggers.  Low
  /// values make `stats().peakNodes` track genuinely *reachable* nodes —
  /// dead intermediates are swept before they inflate the high-water mark —
  /// at the cost of frequent collections (the 25% rule still raises the
  /// threshold when a sweep is unproductive).  Meant for measurement runs;
  /// the default is sized for speed.
  void setGcThreshold(std::uint64_t threshold) noexcept {
    gcThreshold_ = threshold < 64 ? 64 : threshold;
  }
  /// The current auto-GC trigger.  The 25% rule raises it silently after an
  /// unproductive sweep, so callers running allocation bursts they intend
  /// to clean up themselves (e.g. the engine-choice probe) save and restore
  /// it around the burst.
  std::uint64_t gcThreshold() const noexcept { return gcThreshold_; }

  // ---- Internal node access (io.cpp and ops.cpp) --------------------------

  struct Node {
    std::uint32_t var;  ///< level, or kTerminalLevel for terminals
    NodeIndex low;
    NodeIndex high;
    NodeIndex next;      ///< unique-table chain / free list link
    std::uint32_t refs;  ///< external reference count
  };

  const Node& node(NodeIndex i) const { return nodes_[i]; }
  /// Size of the node arena (terminals + live + free slots).  An importer
  /// sizes its translation map from this; a worker manager pre-sized with
  /// the source's arena never rehashes during the import.
  std::size_t arenaSize() const noexcept { return nodes_.size(); }
  /// Level of a node (kTerminalLevel for terminals and free nodes).
  std::uint32_t levelOf(NodeIndex i) const {
    const std::uint32_t var = nodes_[i].var;
    return var == kTerminalLevel ? kTerminalLevel : varToLevel_[var];
  }

  void incRef(NodeIndex i) noexcept;
  void decRef(NodeIndex i) noexcept;

 private:
  friend class Bdd;
  /// Cross-manager import (io.cpp) drives mk() directly so the copied DAG
  /// is hash-consed into this manager without going through ite().
  friend class Importer;

  /// Find-or-create the node (var, low, high), applying the reduction rule.
  NodeIndex mk(std::uint32_t var, NodeIndex low, NodeIndex high);
  NodeIndex allocateNode();
  void rehashUniqueTable(std::size_t buckets);
  void maybeGc();

  NodeIndex iteRec(NodeIndex f, NodeIndex g, NodeIndex h);
  NodeIndex existsRec(NodeIndex f, NodeIndex cube);
  NodeIndex andExistsRec(NodeIndex f, NodeIndex g, NodeIndex cube);
  NodeIndex permuteRec(NodeIndex f, std::uint32_t permId);

  // Computed-table plumbing (ops.cpp).
  struct CacheEntry {
    std::uint64_t tag = ~0ull;  ///< mix of (op,f,g,h); ~0 = empty
    NodeIndex result = kNilNode;
  };
  bool cacheLookup(std::uint32_t op, NodeIndex f, NodeIndex g, NodeIndex h,
                   NodeIndex* out);
  void cacheInsert(std::uint32_t op, NodeIndex f, NodeIndex g, NodeIndex h,
                   NodeIndex result);
  void clearCache();

  std::vector<Node> nodes_;
  std::vector<NodeIndex> uniqueBuckets_;  ///< size is a power of two
  NodeIndex freeList_ = kNilNode;
  std::uint64_t freeCount_ = 0;
  std::uint64_t gcThreshold_;

  std::vector<CacheEntry> cache_;  ///< direct-mapped, power-of-two size

  std::vector<std::vector<std::uint32_t>> permutations_;

  std::uint32_t numVars_ = 0;
  std::vector<std::uint32_t> varToLevel_;
  std::vector<std::uint32_t> levelToVar_;
  ManagerStats stats_;

  // Scratch marks for GC / dagSize (sized lazily to nodes_.size()).
  mutable std::vector<bool> marks_;
};

}  // namespace cmc::bdd
