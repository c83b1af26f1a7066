// Syntactic classification of CTL specs as universal / existential
// compositional properties, per the paper's Rules 1-3:
//
//   Rule 1: a propositional f under r = (I, {true}) is existential.
//   Rule 2: p ⇒ AX q (p, q propositional) is universal.
//   Rule 3: p ⇒ EX q is existential.
//
// Rules 2 and 3 are proven for the unrestricted ⊨.  They also apply under
// r = (I, {true}) with I propositional: with trivial fairness,
// ⊨_(I,{true}) p ⇒ AX q says (I ∧ p) ⇒ AX q in every state, which is Rule 2's
// shape with the propositional antecedent I ∧ p (docs/THEORY.md).  A
// temporal INIT, or any fairness constraint other than TRUE, leaves them
// Unknown (Lemma 11 adds fairness after composition instead).
//
// Conjunctions classify as the strongest class all conjuncts admit
// (existential ∧ existential = existential; anything ∧ universal = universal
// provided each conjunct is at least universal).  The classifier is
// deliberately conservative: "Unknown" means no rule applies, not that the
// property is non-compositional.
#pragma once

#include "comp/property.hpp"
#include "ctl/formula.hpp"

namespace cmc::comp {

/// Classify `spec` (formula + restriction index).
PropertyClass classify(const ctl::Spec& spec);
PropertyClass classify(const ctl::Restriction& r, const ctl::FormulaPtr& f);

/// True iff the Rule 2 premises of `spec` hold exactly when the composition
/// of the (reflexive) components satisfies it: `spec` is Universal and no
/// conjunct is Rule 3's p ⇒ EX q.  The composed relation is the union of
/// the components' framed relations (Lemma 1) and AX over a union is the
/// conjunction of AX over each part, so a failing premise then refutes
/// the composition.  A failing premise of any other spec says nothing
/// about it.
bool premisesAreExact(const ctl::Spec& spec);

/// Shape matcher: f ≡ p ⇒ AX q with propositional p, q.
bool matchImpliesAX(const ctl::FormulaPtr& f, ctl::FormulaPtr* p,
                    ctl::FormulaPtr* q);
/// Shape matcher: f ≡ p ⇒ EX q with propositional p, q.
bool matchImpliesEX(const ctl::FormulaPtr& f, ctl::FormulaPtr* p,
                    ctl::FormulaPtr* q);

/// Split a conjunction into its top-level conjuncts.
std::vector<ctl::FormulaPtr> conjuncts(const ctl::FormulaPtr& f);

}  // namespace cmc::comp
