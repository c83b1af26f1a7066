#include "smv/ast.hpp"

#include <sstream>

#include "util/common.hpp"

namespace cmc::smv {

namespace {

ExprPtr make(ExprKind kind, std::string text = {},
             std::vector<ExprPtr> args = {},
             std::vector<CaseBranch> branches = {}) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->text = std::move(text);
  e->args = std::move(args);
  e->branches = std::move(branches);
  return e;
}

}  // namespace

ExprPtr mkValue(std::string text) { return make(ExprKind::Value, std::move(text)); }
ExprPtr mkVarRef(std::string name) {
  return make(ExprKind::VarRef, std::move(name));
}
ExprPtr mkNextRef(std::string name) {
  return make(ExprKind::NextRef, std::move(name));
}

ExprPtr mkUnary(ExprKind kind, ExprPtr a) {
  CMC_ASSERT(kind == ExprKind::Not);
  return make(kind, {}, {std::move(a)});
}

ExprPtr mkBinary(ExprKind kind, ExprPtr a, ExprPtr b) {
  return make(kind, {}, {std::move(a), std::move(b)});
}

ExprPtr mkSet(std::vector<ExprPtr> elems) {
  return make(ExprKind::SetLiteral, {}, std::move(elems));
}

ExprPtr mkCase(std::vector<CaseBranch> branches) {
  return make(ExprKind::Case, {}, {}, std::move(branches));
}

std::string toString(const ExprPtr& e) {
  CMC_ASSERT(e != nullptr);
  std::ostringstream out;
  switch (e->kind) {
    case ExprKind::Value:
    case ExprKind::VarRef:
      out << e->text;
      break;
    case ExprKind::NextRef:
      out << "next(" << e->text << ")";
      break;
    case ExprKind::Not:
      out << "!(" << toString(e->args[0]) << ")";
      break;
    case ExprKind::And:
      out << "(" << toString(e->args[0]) << " & " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::Or:
      out << "(" << toString(e->args[0]) << " | " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::Implies:
      out << "(" << toString(e->args[0]) << " -> " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::Iff:
      out << "(" << toString(e->args[0]) << " <-> " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::Eq:
      out << "(" << toString(e->args[0]) << " = " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::Neq:
      out << "(" << toString(e->args[0]) << " != " << toString(e->args[1])
          << ")";
      break;
    case ExprKind::SetLiteral: {
      out << "{";
      for (std::size_t i = 0; i < e->args.size(); ++i) {
        if (i != 0) out << ", ";
        out << toString(e->args[i]);
      }
      out << "}";
      break;
    }
    case ExprKind::Case: {
      out << "case ";
      for (const CaseBranch& b : e->branches) {
        out << toString(b.cond) << " : " << toString(b.value) << "; ";
      }
      out << "esac";
      break;
    }
  }
  return out.str();
}

std::vector<std::string> TypeDecl::expandedValues() const {
  switch (kind) {
    case Kind::Bool:
      return {"0", "1"};
    case Kind::Enum:
      return values;
    case Kind::Range: {
      std::vector<std::string> out;
      for (long v = lo; v <= hi; ++v) out.push_back(std::to_string(v));
      return out;
    }
  }
  throw Error("expandedValues: unreachable");
}

bool TypeDecl::operator==(const TypeDecl& other) const {
  return expandedValues() == other.expandedValues() &&
         (kind == Kind::Bool) == (other.kind == Kind::Bool);
}

}  // namespace cmc::smv
