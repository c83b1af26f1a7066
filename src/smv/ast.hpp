// AST for the SMV subset the paper uses (Figs. 5, 6, 8, 9, 12, 13, 14, 16):
//   MODULE main
//   VAR      x : boolean;  y : {a, b, c};  z : 0..3;
//   DEFINE   d := expr;
//   ASSIGN   init(x) := expr;  next(x) := expr | case c1 : e1; ... esac;
//   INIT     expr
//   TRANS    expr            (may mention next(v))
//   FAIRNESS expr
//   SPEC     ctl-formula
//
// Value expressions may be variable references, literal symbols/numbers,
// nondeterministic sets {e1, ..., en}, case/esac chains, and the boolean
// connectives !, &, |, ->, <->, =, !=.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ctl/formula.hpp"

namespace cmc::smv {

enum class ExprKind {
  Value,    ///< literal symbol or number (text)
  VarRef,   ///< current-state variable (text = name)
  NextRef,  ///< next(var) — TRANS constraints only (text = name)
  Not,
  And,
  Or,
  Implies,
  Iff,
  Eq,
  Neq,
  SetLiteral,  ///< {e1, ..., en}
  Case,        ///< case c1 : v1; ...; esac (first match wins)
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct CaseBranch {
  ExprPtr cond;
  ExprPtr value;
};

struct Expr {
  ExprKind kind;
  std::string text;                 ///< Value / VarRef / NextRef payload
  std::vector<ExprPtr> args;        ///< operands or set elements
  std::vector<CaseBranch> branches; ///< Case only
};

ExprPtr mkValue(std::string text);
ExprPtr mkVarRef(std::string name);
ExprPtr mkNextRef(std::string name);
ExprPtr mkUnary(ExprKind kind, ExprPtr a);
ExprPtr mkBinary(ExprKind kind, ExprPtr a, ExprPtr b);
ExprPtr mkSet(std::vector<ExprPtr> elems);
ExprPtr mkCase(std::vector<CaseBranch> branches);

/// Render an expression in SMV syntax (round-trips the grammar above).
std::string toString(const ExprPtr& e);

struct TypeDecl {
  enum class Kind { Bool, Enum, Range };
  Kind kind = Kind::Bool;
  std::vector<std::string> values;  ///< Enum members
  long lo = 0, hi = 0;              ///< Range bounds (inclusive)

  /// The value list after range expansion; booleans give {"0","1"}.
  std::vector<std::string> expandedValues() const;
  bool operator==(const TypeDecl& other) const;
};

struct VarDecl {
  std::string name;
  TypeDecl type;
};

struct Assign {
  enum class Kind { Init, Next };
  Kind kind = Kind::Next;
  std::string var;
  ExprPtr expr;
};

struct Define {
  std::string name;
  ExprPtr expr;
};

struct Module {
  std::string name = "main";
  std::vector<VarDecl> vars;
  std::vector<Define> defines;
  std::vector<Assign> assigns;
  std::vector<ExprPtr> initConstraints;   ///< INIT sections
  std::vector<ExprPtr> transConstraints;  ///< TRANS sections
  std::vector<ctl::FormulaPtr> specs;     ///< SPEC sections
  std::vector<ctl::FormulaPtr> fairness;  ///< FAIRNESS sections
};

}  // namespace cmc::smv
