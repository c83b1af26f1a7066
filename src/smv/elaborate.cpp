#include "smv/elaborate.hpp"

#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "smv/parser.hpp"
#include "symbolic/partition.hpp"
#include "util/failpoint.hpp"

namespace cmc::smv {

using symbolic::Context;
using symbolic::VarId;

namespace {

/// The operands of the maximal chain of `e->kind` (And or Or) rooted at
/// `e`, left to right: the parser's left-deep `a & b & c` gives {a, b, c}.
std::vector<const ExprPtr*> chainOperands(const ExprPtr& e) {
  std::vector<const ExprPtr*> out;
  std::vector<const ExprPtr*> stack{&e};
  while (!stack.empty()) {
    const ExprPtr& x = *stack.back();
    stack.pop_back();
    if (x->kind == e->kind) {
      stack.push_back(&x->args[1]);
      stack.push_back(&x->args[0]);
    } else {
      out.push_back(&x);
    }
  }
  return out;
}

class Elaborator {
 public:
  Elaborator(Context& ctx, const Module& mod) : ctx_(ctx), mod_(mod) {
    // One hashed index per module: a scan of the declarations per
    // identifier made elaboration quadratic in the module's width.  The
    // first declaration of a name wins.
    varIndex_.reserve(mod.vars.size());
    for (std::size_t i = 0; i < mod.vars.size(); ++i) {
      varIndex_.emplace(mod.vars[i].name, i);
    }
    for (const Define& d : mod.defines) {
      if (varIndex_.count(d.name) != 0) {
        throw ModelError("'" + d.name + "' is both a VAR and a DEFINE");
      }
      if (!defines_.emplace(d.name, d.expr).second) {
        throw ModelError("duplicate DEFINE: " + d.name);
      }
    }
  }

  ElaboratedModule run() {
    declareVariables();

    // One relation conjunct per variable (its next() assignment) plus one
    // per TRANS constraint, kept as a list: makeSystem stores them as a
    // conjunctively partitioned track, so the checker's early-quantification
    // schedule sees per-variable structure instead of one conjoined BDD.
    std::vector<bdd::Bdd> conjuncts;
    std::set<std::string> nextAssigned;
    std::set<std::string> initAssigned;
    for (const Assign& a : mod_.assigns) {
      const VarId target = moduleVar(a.var);
      if (target < 0) {
        throw ModelError("assignment to undeclared variable: " + a.var);
      }
      auto& seen =
          a.kind == Assign::Kind::Next ? nextAssigned : initAssigned;
      if (!seen.insert(a.var).second) {
        throw ModelError("duplicate assignment to " + a.var);
      }
      if (a.kind == Assign::Kind::Next) {
        conjuncts.push_back(
            assignRelation(target, /*targetNext=*/true, a.expr));
      }
    }
    // TRANS constraints (may mention next()).
    for (const ExprPtr& t : mod_.transConstraints) {
      conjuncts.push_back(boolBdd(t, /*allowNext=*/true));
    }

    ElaboratedModule out;
    out.sys = symbolic::makeSystem(ctx_, mod_.name, varIds_,
                                   std::move(conjuncts));

    // Initial condition as a formula (restriction index, paper §2.2).
    std::vector<ctl::FormulaPtr> initParts;
    for (const Assign& a : mod_.assigns) {
      if (a.kind == Assign::Kind::Init) {
        initParts.push_back(initFormulaFor(a.var, a.expr));
      }
    }
    for (const ExprPtr& c : mod_.initConstraints) {
      initParts.push_back(exprToCtlRec(c));
    }
    out.initFormula = initParts.empty() ? ctl::mkTrue() : ctl::conj(initParts);

    out.fairness = mod_.fairness;

    ctl::Restriction r;
    r.init = out.initFormula;
    r.fairness = out.fairness.empty()
                     ? std::vector<ctl::FormulaPtr>{ctl::mkTrue()}
                     : out.fairness;
    for (std::size_t i = 0; i < mod_.specs.size(); ++i) {
      out.specs.push_back(ctl::Spec{
          mod_.name + ".SPEC" + std::to_string(i + 1), r, mod_.specs[i]});
    }
    return out;
  }

  ctl::FormulaPtr exprToCtlPublic(const ExprPtr& e) { return exprToCtlRec(e); }

  // ---- Declarations -------------------------------------------------------

  /// Declare the module's variables in the context (shared ones are
  /// resolved); every lookup below needs this first.
  void declareVariables() {
    for (const VarDecl& v : mod_.vars) {
      const std::vector<std::string> values = v.type.expandedValues();
      if (ctx_.hasVar(v.name)) {
        // Shared variable: domains must agree exactly.
        const symbolic::Variable& existing =
            ctx_.variable(ctx_.varId(v.name));
        if (existing.values != values) {
          throw ModelError("shared variable '" + v.name +
                           "' redeclared with a different domain");
        }
        varIds_.push_back(ctx_.varId(v.name));
      } else if (v.type.kind == TypeDecl::Kind::Bool) {
        varIds_.push_back(ctx_.addBoolVar(v.name));
      } else {
        varIds_.push_back(ctx_.addEnumVar(v.name, values));
      }
    }
  }

 private:
  /// The id of the module's variable `name`, or -1 when the module
  /// declares none (another module's variables are not in scope).
  VarId moduleVar(std::string_view name) const {
    const auto it = varIndex_.find(name);
    return it == varIndex_.end() ? -1 : varIds_[it->second];
  }

  // ---- Define expansion ---------------------------------------------------

  const ExprPtr* lookupDefine(const std::string& name) {
    auto it = defines_.find(name);
    return it == defines_.end() ? nullptr : &it->second;
  }

  /// Guard against recursive DEFINEs while expanding `name`.
  class ExpandGuard {
   public:
    ExpandGuard(std::set<std::string>& active, const std::string& name)
        : active_(active), name_(name) {
      if (!active_.insert(name).second) {
        throw ModelError("recursive DEFINE: " + name);
      }
    }
    ~ExpandGuard() { active_.erase(name_); }

   private:
    std::set<std::string>& active_;
    std::string name_;
  };

  // ---- Terms --------------------------------------------------------------

  struct Term {
    bool isVar = false;
    VarId var = -1;
    bool next = false;
    std::string literal;  ///< when !isVar
  };

  /// Classify an equality operand.  Defines are expanded first; an
  /// identifier that is not a variable or define is an enum literal.
  Term termOf(const ExprPtr& e, bool allowNext) {
    switch (e->kind) {
      case ExprKind::Value:
        return Term{false, -1, false, e->text};
      case ExprKind::VarRef: {
        if (const ExprPtr* def = lookupDefine(e->text)) {
          ExpandGuard guard(expanding_, e->text);
          return termOf(*def, allowNext);
        }
        if (const VarId id = moduleVar(e->text); id >= 0) {
          return Term{true, id, false, {}};
        }
        return Term{false, -1, false, e->text};
      }
      case ExprKind::NextRef: {
        if (!allowNext) {
          throw ModelError("next(" + e->text +
                           ") is only allowed in TRANS constraints");
        }
        const VarId id = moduleVar(e->text);
        if (id < 0) {
          throw ModelError("next() of undeclared variable: " + e->text);
        }
        return Term{true, id, true, {}};
      }
      default:
        throw ModelError(
            "expected a variable or value in comparison, got: " +
            toString(e));
    }
  }

  bdd::Bdd eqBdd(const Term& a, const Term& b) {
    bdd::Manager& mgr = ctx_.mgr();
    if (a.isVar && b.isVar) {
      const symbolic::Variable& va = ctx_.variable(a.var);
      const symbolic::Variable& vb = ctx_.variable(b.var);
      bdd::Bdd acc = mgr.bddFalse();
      for (const std::string& val : va.values) {
        if (!vb.hasValue(val)) continue;
        acc |= ctx_.varEq(a.var, val, a.next) & ctx_.varEq(b.var, val, b.next);
      }
      return acc;
    }
    if (a.isVar || b.isVar) {
      const Term& var = a.isVar ? a : b;
      const Term& lit = a.isVar ? b : a;
      const symbolic::Variable& v = ctx_.variable(var.var);
      if (!v.hasValue(lit.literal)) {
        throw ModelError("variable '" + v.name + "' has no value '" +
                         lit.literal + "'");
      }
      return ctx_.varEq(var.var, lit.literal, var.next);
    }
    return a.literal == b.literal ? mgr.bddTrue() : mgr.bddFalse();
  }

  // ---- Boolean expressions ------------------------------------------------

  bdd::Bdd boolBdd(const ExprPtr& e, bool allowNext) {
    bdd::Manager& mgr = ctx_.mgr();
    switch (e->kind) {
      case ExprKind::Value:
        if (e->text == "1" || e->text == "TRUE") return mgr.bddTrue();
        if (e->text == "0" || e->text == "FALSE") return mgr.bddFalse();
        throw ModelError("'" + e->text + "' is not a boolean value");
      case ExprKind::VarRef: {
        if (const ExprPtr* def = lookupDefine(e->text)) {
          ExpandGuard guard(expanding_, e->text);
          return boolBdd(*def, allowNext);
        }
        const VarId id = moduleVar(e->text);
        if (id < 0) {
          throw ModelError("unknown identifier in boolean context: " +
                           e->text);
        }
        if (!ctx_.variable(id).isBool) {
          throw ModelError("variable '" + e->text +
                           "' is not boolean; compare it with '='");
        }
        return ctx_.varEqIndex(id, 1, false);
      }
      case ExprKind::NextRef: {
        if (!allowNext) {
          throw ModelError("next(" + e->text +
                           ") is only allowed in TRANS constraints");
        }
        const VarId id = ctx_.varId(e->text);
        if (!ctx_.variable(id).isBool) {
          throw ModelError("next(" + e->text +
                           ") of non-boolean variable in boolean context");
        }
        return ctx_.varEqIndex(id, 1, true);
      }
      case ExprKind::Not:
        return !boolBdd(e->args[0], allowNext);
      case ExprKind::And:
      case ExprKind::Or: {
        // A chain folds as a balanced tree: a left fold drags the whole
        // accumulated BDD through every step, which made a module whose
        // guards disjoin one atom per client quadratic in its width.  The
        // operands are evaluated left to right, so the first error
        // reported is the leftmost operand's.
        std::vector<bdd::Bdd> operands;
        for (const ExprPtr* x : chainOperands(e)) {
          operands.push_back(boolBdd(*x, allowNext));
        }
        return symbolic::foldBalanced(mgr,
                                      e->kind == ExprKind::And
                                          ? symbolic::FoldOp::And
                                          : symbolic::FoldOp::Or,
                                      std::move(operands));
      }
      case ExprKind::Implies:
        return boolBdd(e->args[0], allowNext)
            .implies(boolBdd(e->args[1], allowNext));
      case ExprKind::Iff:
        return boolBdd(e->args[0], allowNext)
            .iff(boolBdd(e->args[1], allowNext));
      case ExprKind::Eq:
        return eqBdd(termOf(e->args[0], allowNext),
                     termOf(e->args[1], allowNext));
      case ExprKind::Neq:
        return !eqBdd(termOf(e->args[0], allowNext),
                      termOf(e->args[1], allowNext));
      case ExprKind::Case: {
        // Boolean-valued case; must be exhaustive (use a `1 :` default).
        bdd::Bdd pending = mgr.bddTrue();
        bdd::Bdd acc = mgr.bddFalse();
        for (const CaseBranch& b : e->branches) {
          const bdd::Bdd guard = boolBdd(b.cond, allowNext) & pending;
          acc |= guard & boolBdd(b.value, allowNext);
          pending = pending.diff(guard);
        }
        if (!pending.isFalse()) {
          throw ModelError(
              "boolean case expression is not exhaustive; add a '1 :' "
              "default branch");
        }
        return acc;
      }
      case ExprKind::SetLiteral:
        throw ModelError("set literal in boolean context: " + toString(e));
    }
    throw Error("boolBdd: unreachable");
  }

  // ---- Assignment relations -----------------------------------------------

  /// Relation over (current state, target column of `target`) stating
  /// "target takes one of the values of `e` evaluated now".
  bdd::Bdd assignRelation(VarId target, bool targetNext, const ExprPtr& e) {
    bdd::Manager& mgr = ctx_.mgr();
    const symbolic::Variable& tv = ctx_.variable(target);
    switch (e->kind) {
      case ExprKind::Value: {
        if (!tv.hasValue(e->text)) {
          throw ModelError("variable '" + tv.name + "' has no value '" +
                           e->text + "'");
        }
        return ctx_.varEq(target, e->text, targetNext);
      }
      case ExprKind::VarRef: {
        if (const ExprPtr* def = lookupDefine(e->text)) {
          ExpandGuard guard(expanding_, e->text);
          return assignRelation(target, targetNext, *def);
        }
        if (const VarId source = moduleVar(e->text); source >= 0) {
          // Copy: target' = source (over the source's domain).
          const symbolic::Variable& sv = ctx_.variable(source);
          bdd::Bdd acc = mgr.bddFalse();
          for (const std::string& val : sv.values) {
            if (!tv.hasValue(val)) {
              throw ModelError("assigning '" + sv.name + "' to '" + tv.name +
                               "': value '" + val +
                               "' is outside the target's domain");
            }
            acc |= ctx_.varEq(source, val, false) &
                   ctx_.varEq(target, val, targetNext);
          }
          return acc;
        }
        // Enum literal.
        if (!tv.hasValue(e->text)) {
          throw ModelError("variable '" + tv.name + "' has no value '" +
                           e->text + "'");
        }
        return ctx_.varEq(target, e->text, targetNext);
      }
      case ExprKind::SetLiteral: {
        bdd::Bdd acc = mgr.bddFalse();
        for (const ExprPtr& elem : e->args) {
          acc |= assignRelation(target, targetNext, elem);
        }
        return acc;
      }
      case ExprKind::Case: {
        bdd::Bdd pending = mgr.bddTrue();
        bdd::Bdd acc = mgr.bddFalse();
        for (const CaseBranch& b : e->branches) {
          const bdd::Bdd guard = boolBdd(b.cond, /*allowNext=*/false) & pending;
          acc |= guard & assignRelation(target, targetNext, b.value);
          pending = pending.diff(guard);
        }
        // Falling through every branch leaves the target unconstrained.
        acc |= pending & ctx_.domain(target, targetNext);
        return acc;
      }
      default: {
        // Boolean-valued expression assigned to a boolean variable.
        if (!tv.isBool) {
          throw ModelError("boolean expression assigned to non-boolean '" +
                           tv.name + "'");
        }
        const bdd::Bdd b = boolBdd(e, /*allowNext=*/false);
        return (ctx_.varEqIndex(target, 1, targetNext) & b) |
               (ctx_.varEqIndex(target, 0, targetNext) & !b);
      }
    }
  }

  // ---- Initial-condition formulas -----------------------------------------

  ctl::FormulaPtr initFormulaFor(const std::string& varName,
                                 const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::Value:
        return ctl::eq(varName, e->text);
      case ExprKind::VarRef: {
        if (const ExprPtr* def = lookupDefine(e->text)) {
          ExpandGuard guard(expanding_, e->text);
          return initFormulaFor(varName, *def);
        }
        if (const VarId source = moduleVar(e->text); source >= 0) {
          // var = var as a disjunction over the source's values.
          const symbolic::Variable& sv = ctx_.variable(source);
          std::vector<ctl::FormulaPtr> parts;
          for (const std::string& val : sv.values) {
            parts.push_back(ctl::mkAnd(ctl::eq(e->text, val),
                                       ctl::eq(varName, val)));
          }
          return ctl::disj(parts);
        }
        return ctl::eq(varName, e->text);
      }
      case ExprKind::SetLiteral: {
        std::vector<ctl::FormulaPtr> parts;
        for (const ExprPtr& elem : e->args) {
          parts.push_back(initFormulaFor(varName, elem));
        }
        return ctl::disj(parts);
      }
      default:
        // Boolean expression: var <-> expr.
        return ctl::mkIff(ctl::atom(varName), exprToCtlRec(e));
    }
  }

  ctl::FormulaPtr exprToCtlRec(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::Value:
        if (e->text == "1" || e->text == "TRUE") return ctl::mkTrue();
        if (e->text == "0" || e->text == "FALSE") return ctl::mkFalse();
        throw ModelError("'" + e->text + "' is not propositional");
      case ExprKind::VarRef: {
        if (const ExprPtr* def = lookupDefine(e->text)) {
          ExpandGuard guard(expanding_, e->text);
          return exprToCtlRec(*def);
        }
        return ctl::atom(e->text);
      }
      case ExprKind::Not:
        return ctl::mkNot(exprToCtlRec(e->args[0]));
      case ExprKind::And:
        return ctl::mkAnd(exprToCtlRec(e->args[0]), exprToCtlRec(e->args[1]));
      case ExprKind::Or:
        return ctl::mkOr(exprToCtlRec(e->args[0]), exprToCtlRec(e->args[1]));
      case ExprKind::Implies:
        return ctl::mkImplies(exprToCtlRec(e->args[0]),
                              exprToCtlRec(e->args[1]));
      case ExprKind::Iff:
        return ctl::mkIff(exprToCtlRec(e->args[0]), exprToCtlRec(e->args[1]));
      case ExprKind::Eq:
      case ExprKind::Neq: {
        const ExprPtr& a = e->args[0];
        const ExprPtr& b = e->args[1];
        auto leafText = [&](const ExprPtr& x) -> std::string {
          if (x->kind == ExprKind::Value || x->kind == ExprKind::VarRef) {
            return x->text;
          }
          throw ModelError("comparison operand is not a variable or value: " +
                           toString(x));
        };
        ctl::FormulaPtr cmp;
        const VarId aVar =
            a->kind == ExprKind::VarRef ? moduleVar(a->text) : -1;
        const bool aIsVar = aVar >= 0;
        const bool bIsVar =
            b->kind == ExprKind::VarRef && moduleVar(b->text) >= 0;
        if (aIsVar && bIsVar) {
          const symbolic::Variable& sv = ctx_.variable(aVar);
          std::vector<ctl::FormulaPtr> parts;
          for (const std::string& val : sv.values) {
            parts.push_back(ctl::mkAnd(ctl::eq(a->text, val),
                                       ctl::eq(b->text, val)));
          }
          cmp = ctl::disj(parts);
        } else if (aIsVar) {
          cmp = ctl::eq(a->text, leafText(b));
        } else if (bIsVar) {
          cmp = ctl::eq(b->text, leafText(a));
        } else {
          cmp = leafText(a) == leafText(b) ? ctl::mkTrue() : ctl::mkFalse();
        }
        return e->kind == ExprKind::Eq ? cmp : ctl::mkNot(cmp);
      }
      case ExprKind::NextRef:
        throw ModelError("next() is not allowed in propositional formulas");
      case ExprKind::SetLiteral:
        throw ModelError("set literal is not propositional: " + toString(e));
      case ExprKind::Case: {
        std::vector<ctl::FormulaPtr> parts;
        ctl::FormulaPtr pending = ctl::mkTrue();
        for (const CaseBranch& b : e->branches) {
          const ctl::FormulaPtr guard =
              ctl::mkAnd(pending, exprToCtlRec(b.cond));
          parts.push_back(ctl::mkAnd(guard, exprToCtlRec(b.value)));
          pending = ctl::mkAnd(pending, ctl::mkNot(exprToCtlRec(b.cond)));
        }
        return ctl::disj(parts);
      }
    }
    throw Error("exprToCtlRec: unreachable");
  }

  Context& ctx_;
  const Module& mod_;
  std::map<std::string, ExprPtr> defines_;
  std::set<std::string> expanding_;
  /// Module variable name -> its position in mod_.vars (and in varIds_).
  std::unordered_map<std::string_view, std::size_t> varIndex_;
  std::vector<VarId> varIds_;  ///< parallel to mod_.vars once declared
};

}  // namespace

ElaboratedModule elaborate(Context& ctx, const Module& mod) {
  return Elaborator(ctx, mod).run();
}

ElaboratedModule elaborateText(Context& ctx, std::string_view text) {
  const Module mod = parseModule(text);
  return elaborate(ctx, mod);
}

std::vector<ElaboratedModule> elaborateProgram(
    Context& ctx, const std::vector<Module>& modules) {
  CMC_FAILPOINT("smv.elaborate");
  std::vector<ElaboratedModule> out;
  out.reserve(modules.size());
  for (const Module& mod : modules) out.push_back(elaborate(ctx, mod));
  return out;
}

std::vector<ElaboratedModule> elaborateProgram(Context& ctx,
                                               std::string_view text) {
  return elaborateProgram(ctx, parseProgram(text));
}

ctl::FormulaPtr exprToCtl(const Module& mod, const ExprPtr& expr) {
  // A throwaway context supplies variable domains for var=var comparisons;
  // the translation itself is syntactic.
  symbolic::Context ctx;
  Elaborator el(ctx, mod);
  el.declareVariables();
  return el.exprToCtlPublic(expr);
}

}  // namespace cmc::smv
