// CTL abstract syntax (paper §2.1) and the restriction index r = (I, F)
// (paper §2.2): an initial-condition formula plus a set of fairness
// constraints that must hold infinitely often along every fair path.
//
// Formulas are immutable trees shared through shared_ptr<const Formula>.
// Atoms are strings; a checker resolves them against its model: a bare name
// is an atomic proposition / boolean variable, and "var=value" compares a
// finite-domain variable with one of its declared values (the boolean
// encoding of §3.4 happens inside the symbolic checker).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace cmc::ctl {

enum class Op {
  True,
  False,
  Atom,
  Not,
  And,
  Or,
  Implies,
  Iff,
  EX,
  AX,
  EF,
  AF,
  EG,
  AG,
  EU,  ///< E[lhs U rhs]
  AU,  ///< A[lhs U rhs]
};

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

class Formula {
 public:
  Formula(Op op, std::string atom, FormulaPtr lhs, FormulaPtr rhs)
      : op_(op), atom_(std::move(atom)), lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  Op op() const noexcept { return op_; }
  /// Atom text ("x" or "var=value"); empty unless op() == Op::Atom.
  const std::string& atom() const noexcept { return atom_; }
  const FormulaPtr& lhs() const noexcept { return lhs_; }
  const FormulaPtr& rhs() const noexcept { return rhs_; }

 private:
  Op op_;
  std::string atom_;
  FormulaPtr lhs_;
  FormulaPtr rhs_;
};

// ---- Constructors ----------------------------------------------------------

FormulaPtr mkTrue();
FormulaPtr mkFalse();
/// Bare atomic proposition `name` (boolean variable).
FormulaPtr atom(const std::string& name);
/// Comparison atom `var = value` for finite-domain variables.
FormulaPtr eq(const std::string& var, const std::string& value);
/// Sugar for !(var = value).
FormulaPtr neq(const std::string& var, const std::string& value);
FormulaPtr mkNot(FormulaPtr f);
FormulaPtr mkAnd(FormulaPtr a, FormulaPtr b);
FormulaPtr mkOr(FormulaPtr a, FormulaPtr b);
FormulaPtr mkImplies(FormulaPtr a, FormulaPtr b);
FormulaPtr mkIff(FormulaPtr a, FormulaPtr b);
FormulaPtr EX(FormulaPtr f);
FormulaPtr AX(FormulaPtr f);
FormulaPtr EF(FormulaPtr f);
FormulaPtr AF(FormulaPtr f);
FormulaPtr EG(FormulaPtr f);
FormulaPtr AG(FormulaPtr f);
FormulaPtr EU(FormulaPtr a, FormulaPtr b);
FormulaPtr AU(FormulaPtr a, FormulaPtr b);
/// N-ary conjunction/disjunction (empty list = true/false respectively).
FormulaPtr conj(const std::vector<FormulaPtr>& fs);
FormulaPtr disj(const std::vector<FormulaPtr>& fs);

// ---- Inspection ------------------------------------------------------------

/// True iff f contains no temporal operator (a boolean combination of atoms;
/// the "propositional formulas" of the paper's rules).
bool isPropositional(const FormulaPtr& f);

/// The operands of the maximal chain of f's operator (And or Or) rooted at
/// f, left to right, whatever its nesting: conj({a, b, c}) gives {a, b, c}.
/// Evaluators fold them balanced; the tree itself stays as built.
std::vector<FormulaPtr> chainOperands(const FormulaPtr& f);

/// Structural equality (atoms compared textually).
bool equal(const FormulaPtr& a, const FormulaPtr& b);

/// SMV-like rendering, fully parenthesized only where required.
std::string toString(const FormulaPtr& f);

/// All atom texts occurring in f.
std::set<std::string> collectAtoms(const FormulaPtr& f);

/// All variable names occurring in f's atoms (the `var` part of "var=value",
/// or the atom itself for bare atoms).
std::set<std::string> collectVariables(const FormulaPtr& f);

/// Rewrite the derived operators EF/AF/EG/AG into the base fragment
/// {atoms, !, &, E/A X, E/A U} exactly per the paper's definitional rules:
///   AFg = A(true U g)        EFg = E(true U g)
///   AGf = !E(true U !f)      EGf = !A(true U !f)
/// (with ∨, ⇒, ⇔ expanded through ¬/∧).  Used by tests to validate that the
/// checkers agree with the definitional semantics.
FormulaPtr desugar(const FormulaPtr& f);

// ---- Restriction index -----------------------------------------------------

/// Paper §2.2: M ⊨_r f with r = (I, F) means f holds (quantifying over
/// F-fair paths only) in every state satisfying I.
struct Restriction {
  FormulaPtr init;                   ///< initial condition I
  std::vector<FormulaPtr> fairness;  ///< fairness constraints F

  /// The special case (true, {true}) written ⊨ in the paper.
  static Restriction trivial();

  /// r with an extra fairness constraint appended.
  Restriction withFairness(FormulaPtr f) const;
  /// r with the initial condition strengthened to init & i.
  Restriction withInit(FormulaPtr i) const;

  /// True for (true, {true}) (or an empty fairness list).
  bool isTrivial() const;

  std::string toString() const;
};

/// A named property under a restriction — the unit of specification
/// throughout the library (e.g. "Srv1", "Afs1").
struct Spec {
  std::string name;
  Restriction r;
  FormulaPtr f;
};

}  // namespace cmc::ctl
