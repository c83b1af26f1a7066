// Elaboration: smv::Module → symbolic::SymbolicSystem (+ init formula,
// fairness, specs).  This performs the paper's §3.4 reduction automatically:
// every finite-domain variable becomes ⌈log₂ m⌉ boolean atoms, and every
// ASSIGN/INIT/TRANS clause becomes a BDD over those atoms.
//
// Semantics of the subset:
//  - `next(v) := e`  constrains v' to the value(s) of e in the current
//    state; sets {a,b} and case branches are nondeterministic choice.
//    A case that falls through all branches leaves v' unconstrained (the
//    models in the paper always end with a `1 : v;` default).
//  - Variables with no next() assignment are free inputs (any next value) —
//    e.g. `failure` and `validFile` in the AFS models.
//  - `init(v) := e` and INIT sections build the initial-condition *formula*
//    returned in `initFormula`; per the paper (§2.2) initial conditions are
//    part of the restriction index, not of the system.
//  - Variables already declared in the context are shared (this is how the
//    paper models client/server communication through the variable `r`);
//    re-declaration with a different domain is an error.
#pragma once

#include <string_view>

#include "smv/ast.hpp"
#include "symbolic/system.hpp"

namespace cmc::smv {

struct ElaboratedModule {
  symbolic::SymbolicSystem sys;
  /// Conjunction of all init()/INIT conditions (TRUE if none).
  ctl::FormulaPtr initFormula;
  /// FAIRNESS constraints in declaration order.
  std::vector<ctl::FormulaPtr> fairness;
  /// SPEC sections, each wrapped with the module's restriction index
  /// r = (initFormula, fairness) — matching SMV's check-at-initial-states
  /// semantics under the declared fairness.
  std::vector<ctl::Spec> specs;
};

/// Elaborate a parsed module into `ctx`.
ElaboratedModule elaborate(symbolic::Context& ctx, const Module& mod);

/// Parse + elaborate in one step (first module of the text).
ElaboratedModule elaborateText(symbolic::Context& ctx, std::string_view text);

/// Elaborate every module of a parsed program into the shared context
/// (components communicate through identically named variables).
std::vector<ElaboratedModule> elaborateProgram(
    symbolic::Context& ctx, const std::vector<Module>& modules);

/// Parse + elaborate every module of a multi-module file.
std::vector<ElaboratedModule> elaborateProgram(symbolic::Context& ctx,
                                               std::string_view text);

/// Convert a propositional SMV expression to a CTL formula ("var=value"
/// atoms).  Throws ModelError on non-propositional input.
ctl::FormulaPtr exprToCtl(const Module& mod, const ExprPtr& expr);

}  // namespace cmc::smv
