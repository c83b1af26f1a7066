#include "bdd/io.hpp"

#include <sstream>
#include <unordered_set>

namespace cmc::bdd {

namespace {

std::string varLabel(std::uint32_t var,
                     const std::vector<std::string>& varNames) {
  if (var < varNames.size() && !varNames[var].empty()) return varNames[var];
  return std::string("x").append(std::to_string(var));
}

}  // namespace

std::string toDot(const Manager& mgr, const Bdd& f,
                  const std::vector<std::string>& varNames) {
  std::ostringstream out;
  out << "digraph bdd {\n";
  out << "  node [shape=circle];\n";
  out << "  t0 [label=\"0\", shape=box];\n";
  out << "  t1 [label=\"1\", shape=box];\n";

  std::unordered_set<NodeIndex> seen;
  std::vector<NodeIndex> stack;
  if (!f.isNull() && f.index() >= 2) {
    stack.push_back(f.index());
    seen.insert(f.index());
  } else if (!f.isNull()) {
    out << "  root -> t" << (f.isTrue() ? 1 : 0) << ";\n";
  }
  auto nodeName = [](NodeIndex i) -> std::string {
    if (i == kFalseNode) return "t0";
    if (i == kTrueNode) return "t1";
    return std::string("n").append(std::to_string(i));
  };
  while (!stack.empty()) {
    const NodeIndex i = stack.back();
    stack.pop_back();
    const Manager::Node& n = mgr.node(i);
    out << "  n" << i << " [label=\"" << varLabel(n.var, varNames) << "\"];\n";
    out << "  n" << i << " -> " << nodeName(n.low) << " [style=dashed];\n";
    out << "  n" << i << " -> " << nodeName(n.high) << ";\n";
    if (n.low >= 2 && seen.insert(n.low).second) stack.push_back(n.low);
    if (n.high >= 2 && seen.insert(n.high).second) stack.push_back(n.high);
  }
  out << "}\n";
  return out.str();
}

std::string cubeToString(const std::vector<std::int8_t>& cube,
                         const std::vector<std::string>& varNames) {
  std::ostringstream out;
  bool first = true;
  for (std::size_t v = 0; v < cube.size(); ++v) {
    if (cube[v] < 0) continue;
    if (!first) out << ' ';
    first = false;
    out << varLabel(static_cast<std::uint32_t>(v), varNames) << '='
        << static_cast<int>(cube[v]);
  }
  return out.str();
}

std::string resourceReport(const Manager& mgr, std::uint64_t transNodes,
                           std::uint64_t extraParts, double userSeconds) {
  std::ostringstream out;
  out << "resources used:\n";
  out << "user time: " << userSeconds << " s\n";
  out << "BDD nodes allocated: " << mgr.stats().nodesAllocatedTotal << "\n";
  out << "BDD nodes representing transition relation: " << transNodes << " + "
      << extraParts << "\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// Cross-manager import
// ---------------------------------------------------------------------------

Importer::Importer(Manager& dst, const Manager& src) : dst_(dst), src_(src) {
  dst_.ensureVars(src_.varCount());
  // The structural fast path needs every source variable to sit at the same
  // level in both managers: then a source node's children are below it in
  // the destination order too, and mk() recreates the identical shape.
  sameOrder_ = true;
  for (std::uint32_t v = 0; v < src_.varCount(); ++v) {
    if (src_.levelOfVar(v) != dst_.levelOfVar(v)) {
      sameOrder_ = false;
      break;
    }
  }
  map_.assign(src_.arenaSize(), kNilNode);
}

void Importer::pin(NodeIndex srcIdx, NodeIndex dstIdx) {
  map_[srcIdx] = dstIdx;
  ++translated_;
  // Hold an external reference so a destination-side GC between imports
  // (mk() never collects, but ite() on the reordered path and the caller's
  // own ops may) cannot sweep a node the map still points at.
  pins_.emplace_back(&dst_, dstIdx);
}

Bdd Importer::import(const Bdd& f) {
  CMC_ASSERT(!f.isNull());
  CMC_ASSERT(f.manager() == &src_);
  return importIndex(f.index());
}

Bdd Importer::importIndex(NodeIndex root) {
  if (&dst_ == &src_) return Bdd(&dst_, root);  // degenerate self-import
  // A single-threaded source may have grown since construction (or the
  // last import); concurrent consumers see a frozen source, so this
  // resize is a no-op for them.
  if (src_.arenaSize() > map_.size()) map_.resize(src_.arenaSize(), kNilNode);
  const NodeIndex out =
      sameOrder_ ? copySameOrder(root) : copyReordered(root);
  return Bdd(&dst_, out);
}

NodeIndex Importer::copySameOrder(NodeIndex root) {
  if (root < 2) return root;  // terminals coincide by construction
  if (map_[root] != kNilNode) return map_[root];
  // Iterative post-order DFS: a node is emitted once both children are
  // translated, so every emission is one canonical mk() with ready
  // operands and the subgraph lands in (reverse) DFS order in the arena.
  std::vector<NodeIndex> stack{root};
  while (!stack.empty()) {
    const NodeIndex i = stack.back();
    if (map_[i] != kNilNode) {
      stack.pop_back();
      continue;
    }
    const Manager::Node& n = src_.node(i);
    bool ready = true;
    if (n.low >= 2 && map_[n.low] == kNilNode) {
      stack.push_back(n.low);
      ready = false;
    }
    if (n.high >= 2 && map_[n.high] == kNilNode) {
      stack.push_back(n.high);
      ready = false;
    }
    if (!ready) continue;
    const NodeIndex low = n.low < 2 ? n.low : map_[n.low];
    const NodeIndex high = n.high < 2 ? n.high : map_[n.high];
    pin(i, dst_.mk(n.var, low, high));
    stack.pop_back();
  }
  return map_[root];
}

NodeIndex Importer::copyReordered(NodeIndex i) {
  if (i < 2) return i;
  if (map_[i] != kNilNode) return map_[i];
  const Manager::Node& n = src_.node(i);
  // Children first, then recombine under the destination's order.  The
  // intermediate handles keep the children referenced across the ite()
  // (which may GC).
  const Bdd low(&dst_, copyReordered(n.low));
  const Bdd high(&dst_, copyReordered(n.high));
  const Bdd out = dst_.ite(dst_.bddVar(n.var), high, low);
  pin(i, out.index());
  return out.index();
}

}  // namespace cmc::bdd
