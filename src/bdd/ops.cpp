// Core BDD operations: ITE, quantification, relational product, renaming,
// model counting and inspection.  All recursion is structural over canonical
// nodes and memoized through the manager's computed table.
#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "bdd/manager.hpp"

namespace cmc::bdd {

namespace {

// Computed-table operation codes.  Permutations encode their id into the
// third key slot, so a single code suffices for all of them.
enum Op : std::uint32_t {
  kOpIte = 1,
  kOpExists = 2,
  kOpAndExists = 3,
  kOpPermute = 4,
};

}  // namespace

// ---------------------------------------------------------------------------
// Bdd operator sugar
// ---------------------------------------------------------------------------

Bdd Bdd::operator&(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->andOp(*this, rhs);
}

Bdd Bdd::operator|(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->orOp(*this, rhs);
}

Bdd Bdd::operator^(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->xorOp(*this, rhs);
}

Bdd Bdd::operator!() const {
  CMC_ASSERT(!isNull());
  return mgr_->notOp(*this);
}

Bdd Bdd::implies(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(*this, rhs, mgr_->bddTrue());
}

Bdd Bdd::iff(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(*this, rhs, mgr_->notOp(rhs));
}

Bdd Bdd::diff(const Bdd& rhs) const {
  CMC_ASSERT(!isNull() && mgr_ == rhs.mgr_);
  return mgr_->ite(rhs, mgr_->bddFalse(), *this);
}

bool Bdd::subsetOf(const Bdd& rhs) const {
  return diff(rhs).isFalse();
}

// ---------------------------------------------------------------------------
// ITE and derived connectives
// ---------------------------------------------------------------------------

Bdd Manager::ite(const Bdd& f, const Bdd& g, const Bdd& h) {
  CMC_ASSERT(!f.isNull() && !g.isNull() && !h.isNull());
  maybeGc();
  return Bdd(this, iteRec(f.index(), g.index(), h.index()));
}

Bdd Manager::andOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), g.index(), kFalseNode));
}

Bdd Manager::orOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), kTrueNode, g.index()));
}

Bdd Manager::xorOp(const Bdd& f, const Bdd& g) {
  maybeGc();
  NodeIndex ng = iteRec(g.index(), kFalseNode, kTrueNode);
  return Bdd(this, iteRec(f.index(), ng, g.index()));
}

Bdd Manager::notOp(const Bdd& f) {
  maybeGc();
  return Bdd(this, iteRec(f.index(), kFalseNode, kTrueNode));
}

NodeIndex Manager::iteRec(NodeIndex f, NodeIndex g, NodeIndex h) {
  // Terminal cases.
  if (f == kTrueNode) return g;
  if (f == kFalseNode) return h;
  if (g == h) return g;
  if (g == kTrueNode && h == kFalseNode) return f;

  NodeIndex cached;
  if (cacheLookup(kOpIte, f, g, h, &cached)) return cached;

  const std::uint32_t lf = levelOf(f);
  const std::uint32_t lg = levelOf(g);
  const std::uint32_t lh = levelOf(h);
  const std::uint32_t top = std::min({lf, lg, lh});

  const NodeIndex f0 = lf == top ? nodes_[f].low : f;
  const NodeIndex f1 = lf == top ? nodes_[f].high : f;
  const NodeIndex g0 = lg == top ? nodes_[g].low : g;
  const NodeIndex g1 = lg == top ? nodes_[g].high : g;
  const NodeIndex h0 = lh == top ? nodes_[h].low : h;
  const NodeIndex h1 = lh == top ? nodes_[h].high : h;

  const NodeIndex low = iteRec(f0, g0, h0);
  const NodeIndex high = iteRec(f1, g1, h1);
  const NodeIndex result = mk(levelToVar_[top], low, high);
  cacheInsert(kOpIte, f, g, h, result);
  return result;
}

// ---------------------------------------------------------------------------
// Quantification
// ---------------------------------------------------------------------------

Bdd Manager::exists(const Bdd& f, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !cube.isNull());
  maybeGc();
  return Bdd(this, existsRec(f.index(), cube.index()));
}

Bdd Manager::forall(const Bdd& f, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !cube.isNull());
  maybeGc();
  NodeIndex nf = iteRec(f.index(), kFalseNode, kTrueNode);
  NodeIndex ex = existsRec(nf, cube.index());
  return Bdd(this, iteRec(ex, kFalseNode, kTrueNode));
}

NodeIndex Manager::existsRec(NodeIndex f, NodeIndex cube) {
  if (f == kTrueNode || f == kFalseNode) return f;
  // Skip quantified variables above f's top variable.
  while (cube != kTrueNode && levelOf(cube) < levelOf(f)) {
    cube = nodes_[cube].high;
  }
  if (cube == kTrueNode) return f;

  NodeIndex cached;
  if (cacheLookup(kOpExists, f, cube, 0, &cached)) return cached;

  // A copy, not a reference: the recursion allocates, and an arena that
  // grows on the way would leave a reference into the freed buffer.
  const Node nf = nodes_[f];
  NodeIndex result;
  if (nf.var == nodes_[cube].var) {
    const NodeIndex low = existsRec(nf.low, nodes_[cube].high);
    if (low == kTrueNode) {
      result = kTrueNode;  // early cutoff: or(true, _) == true
    } else {
      const NodeIndex high = existsRec(nf.high, nodes_[cube].high);
      result = iteRec(low, kTrueNode, high);
    }
  } else {
    result = mk(nf.var, existsRec(nf.low, cube), existsRec(nf.high, cube));
  }
  cacheInsert(kOpExists, f, cube, 0, result);
  return result;
}

Bdd Manager::andExists(const Bdd& f, const Bdd& g, const Bdd& cube) {
  CMC_ASSERT(!f.isNull() && !g.isNull() && !cube.isNull());
  maybeGc();
  return Bdd(this, andExistsRec(f.index(), g.index(), cube.index()));
}

NodeIndex Manager::andExistsRec(NodeIndex f, NodeIndex g, NodeIndex cube) {
  if (f == kFalseNode || g == kFalseNode) return kFalseNode;
  if (f == kTrueNode && g == kTrueNode) return kTrueNode;
  if (cube == kTrueNode) return iteRec(f, g, kFalseNode);
  if (f == kTrueNode) return existsRec(g, cube);
  if (g == kTrueNode) return existsRec(f, cube);

  const std::uint32_t top = std::min(levelOf(f), levelOf(g));
  while (cube != kTrueNode && levelOf(cube) < top) {
    cube = nodes_[cube].high;
  }
  if (cube == kTrueNode) return iteRec(f, g, kFalseNode);

  NodeIndex cached;
  if (cacheLookup(kOpAndExists, f, g, cube, &cached)) return cached;

  const NodeIndex f0 = levelOf(f) == top ? nodes_[f].low : f;
  const NodeIndex f1 = levelOf(f) == top ? nodes_[f].high : f;
  const NodeIndex g0 = levelOf(g) == top ? nodes_[g].low : g;
  const NodeIndex g1 = levelOf(g) == top ? nodes_[g].high : g;

  NodeIndex result;
  if (levelOf(cube) == top) {
    const NodeIndex rest = nodes_[cube].high;
    const NodeIndex low = andExistsRec(f0, g0, rest);
    if (low == kTrueNode) {
      result = kTrueNode;
    } else {
      const NodeIndex high = andExistsRec(f1, g1, rest);
      result = iteRec(low, kTrueNode, high);
    }
  } else {
    result = mk(levelToVar_[top], andExistsRec(f0, g0, cube),
                andExistsRec(f1, g1, cube));
  }
  cacheInsert(kOpAndExists, f, g, cube, result);
  return result;
}

// ---------------------------------------------------------------------------
// Variable renaming
// ---------------------------------------------------------------------------

std::uint32_t Manager::registerPermutation(std::vector<std::uint32_t> perm) {
  for (std::uint32_t v : perm) ensureVars(v + 1);
  permutations_.push_back(std::move(perm));
  return static_cast<std::uint32_t>(permutations_.size() - 1);
}

Bdd Manager::permute(const Bdd& f, std::uint32_t permId) {
  CMC_ASSERT(!f.isNull() && permId < permutations_.size());
  maybeGc();
  return Bdd(this, permuteRec(f.index(), permId));
}

NodeIndex Manager::permuteRec(NodeIndex f, std::uint32_t permId) {
  if (f == kTrueNode || f == kFalseNode) return f;
  NodeIndex cached;
  if (cacheLookup(kOpPermute, f, permId, 0, &cached)) return cached;

  const Node n = nodes_[f];  // a copy, as in existsRec
  const std::vector<std::uint32_t>& perm = permutations_[permId];
  const std::uint32_t target =
      n.var < perm.size() ? perm[n.var] : n.var;

  const NodeIndex low = permuteRec(n.low, permId);
  const NodeIndex high = permuteRec(n.high, permId);
  // The permuted variable may land out of order relative to low/high, so
  // rebuild with ITE on the renamed variable rather than mk().
  const NodeIndex var = mk(target, kFalseNode, kTrueNode);
  const NodeIndex result = iteRec(var, high, low);
  cacheInsert(kOpPermute, f, permId, 0, result);
  return result;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

std::uint64_t Manager::dagSize(const Bdd& f) const {
  return dagSize(std::vector<Bdd>{f});
}

std::uint64_t Manager::dagSize(const std::vector<Bdd>& fs) const {
  // Scratch-marks walk: the reset is one memset of arena/8 bytes and each
  // edge costs a bit test, an order of magnitude cheaper than hashing
  // every visited node — dagSize sits on the engine chooser's probe path,
  // where it runs against intermediate products thousands of nodes wide.
  // Uses the same mutable scratch as GC, so the usual manager rule holds:
  // not concurrently callable (see the snapshot-sharing contract).
  marks_.assign(nodes_.size(), false);
  std::vector<NodeIndex> stack;
  for (const Bdd& f : fs) {
    if (f.isNull() || f.index() < 2) continue;
    if (!marks_[f.index()]) {
      marks_[f.index()] = true;
      stack.push_back(f.index());
    }
  }
  std::uint64_t count = 0;
  while (!stack.empty()) {
    const NodeIndex i = stack.back();
    stack.pop_back();
    ++count;
    const Node& n = nodes_[i];
    if (n.low >= 2 && !marks_[n.low]) {
      marks_[n.low] = true;
      stack.push_back(n.low);
    }
    if (n.high >= 2 && !marks_[n.high]) {
      marks_[n.high] = true;
      stack.push_back(n.high);
    }
  }
  return count;
}

std::vector<std::uint32_t> Manager::support(const Bdd& f) const {
  // The scratch-marks walk of dagSize: a bit per node instead of a hash
  // set, and a flag per variable.
  std::vector<std::uint32_t> out;
  if (f.isNull() || f.index() < 2) return out;
  marks_.assign(nodes_.size(), false);
  std::vector<char> seenVar(numVars_, 0);
  std::vector<NodeIndex> stack{f.index()};
  marks_[f.index()] = true;
  while (!stack.empty()) {
    const NodeIndex i = stack.back();
    stack.pop_back();
    const Node& n = nodes_[i];
    if (!seenVar[n.var]) {
      seenVar[n.var] = 1;
      out.push_back(n.var);
    }
    for (const NodeIndex child : {n.low, n.high}) {
      if (child >= 2 && !marks_[child]) {
        marks_[child] = true;
        stack.push_back(child);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Manager::satCount(const Bdd& f, std::uint32_t nvars) const {
  CMC_ASSERT(!f.isNull());
  std::unordered_map<NodeIndex, double> memo;
  // count(i): satisfying assignments over variables strictly below level(i),
  // where level(terminal) = nvars.
  auto levelOfIdx = [&](NodeIndex i) -> std::uint32_t {
    return i < 2 ? nvars : levelOf(i);
  };
  auto rec = [&](auto&& self, NodeIndex i) -> double {
    if (i == kFalseNode) return 0.0;
    if (i == kTrueNode) return 1.0;
    auto it = memo.find(i);
    if (it != memo.end()) return it->second;
    const double cl = self(self, nodes_[i].low) *
                      std::exp2(levelOfIdx(nodes_[i].low) - levelOf(i) - 1);
    const double ch = self(self, nodes_[i].high) *
                      std::exp2(levelOfIdx(nodes_[i].high) - levelOf(i) - 1);
    const double c = cl + ch;
    memo.emplace(i, c);
    return c;
  };
  return rec(rec, f.index()) * std::exp2(levelOfIdx(f.index()));
}

std::vector<std::int8_t> Manager::pickCube(const Bdd& f) const {
  CMC_ASSERT(!f.isNull() && !f.isFalse());
  std::vector<std::int8_t> cube(numVars_, -1);
  NodeIndex i = f.index();
  while (i >= 2) {
    const Node& n = nodes_[i];
    if (n.low != kFalseNode) {
      cube[n.var] = 0;
      i = n.low;
    } else {
      cube[n.var] = 1;
      i = n.high;
    }
  }
  return cube;
}

bool Manager::eval(const Bdd& f, const std::vector<bool>& assignment) const {
  CMC_ASSERT(!f.isNull());
  NodeIndex i = f.index();
  while (i >= 2) {
    const Node& n = nodes_[i];
    CMC_ASSERT(n.var < assignment.size());
    i = assignment[n.var] ? n.high : n.low;
  }
  return i == kTrueNode;
}

}  // namespace cmc::bdd
