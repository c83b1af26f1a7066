#include "comp/proof.hpp"

#include <algorithm>
#include <sstream>

#include "util/common.hpp"
#include "util/json.hpp"

namespace cmc::comp {

std::size_t ProofTree::add(ProofNode::Kind kind, std::string description,
                           bool ok, std::vector<std::size_t> children) {
  for (std::size_t child : children) {
    CMC_ASSERT(child < nodes_.size());
  }
  nodes_.push_back(
      ProofNode{kind, std::move(description), ok, std::move(children)});
  return nodes_.size() - 1;
}

bool ProofTree::valid() const {
  return std::all_of(nodes_.begin(), nodes_.end(),
                     [](const ProofNode& n) { return n.ok; });
}

std::size_t ProofTree::modelCheckCount() const {
  return static_cast<std::size_t>(
      std::count_if(nodes_.begin(), nodes_.end(), [](const ProofNode& n) {
        return n.kind == ProofNode::Kind::ModelCheck;
      }));
}

namespace {

const char* kindTag(ProofNode::Kind kind) {
  switch (kind) {
    case ProofNode::Kind::ModelCheck:
      return "[check]";
    case ProofNode::Kind::RuleApplication:
      return "[rule] ";
    case ProofNode::Kind::Classification:
      return "[class]";
    case ProofNode::Kind::Conclusion:
      return "[concl]";
    case ProofNode::Kind::Note:
      return "[note] ";
  }
  return "[?]    ";
}

}  // namespace

std::string ProofTree::render() const {
  // Roots: nodes that no other node references.
  std::vector<bool> referenced(nodes_.size(), false);
  for (const ProofNode& n : nodes_) {
    for (std::size_t child : n.children) referenced[child] = true;
  }
  std::ostringstream out;
  auto renderNode = [&](auto&& self, std::size_t id, int depth) -> void {
    const ProofNode& n = nodes_[id];
    for (int i = 0; i < depth; ++i) out << "  ";
    out << kindTag(n.kind) << ' ' << (n.ok ? "ok  " : "FAIL") << ' '
        << n.description << '\n';
    for (std::size_t child : n.children) self(self, child, depth + 1);
  };
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (!referenced[id]) renderNode(renderNode, id, 0);
  }
  return out.str();
}

namespace {

/// A DOT label: quotes and backslashes escaped, newlines as left-justified
/// line breaks.
std::string dotEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\l";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const char* kindName(ProofNode::Kind kind) {
  switch (kind) {
    case ProofNode::Kind::ModelCheck: return "model-check";
    case ProofNode::Kind::RuleApplication: return "rule";
    case ProofNode::Kind::Classification: return "classification";
    case ProofNode::Kind::Conclusion: return "conclusion";
    case ProofNode::Kind::Note: return "note";
  }
  return "?";
}

}  // namespace

std::string ProofTree::toDot() const {
  std::ostringstream out;
  out << "digraph proof {\n";
  out << "  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const ProofNode& n = nodes_[id];
    std::string label = n.description;
    if (label.size() > 70) label = label.substr(0, 67) + "...";
    out << "  n" << id << " [label=\"" << kindName(n.kind) << ": "
        << dotEscape(label) << "\""
        << (n.ok ? "" : ", color=red, fontcolor=red") << "];\n";
    for (std::size_t child : n.children) {
      out << "  n" << child << " -> n" << id << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string ProofTree::toJson() const {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const ProofNode& n = nodes_[id];
    out << "  {\"id\": " << id << ", \"kind\": \"" << kindName(n.kind)
        << "\", \"ok\": " << (n.ok ? "true" : "false")
        << ", \"description\": \"" << util::jsonEscape(n.description)
        << "\", \"children\": [";
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i != 0) out << ", ";
      out << n.children[i];
    }
    out << "]}" << (id + 1 < nodes_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.str();
}

}  // namespace cmc::comp
