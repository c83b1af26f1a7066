// Symbolic interleaving composition (paper §3.1), the BDD counterpart of
// kripke::compose:
//   T* = (T_M ∧ frame(Σ*−Σ_M)) ∨ (T_M' ∧ frame(Σ*−Σ_M')) ∨ Id(Σ*)
// over the union alphabet, where frame(S) pins the variables of S and
// Id(Σ*) is the global stutter (the "smallest *reflexive* relation").
#pragma once

#include "symbolic/system.hpp"

namespace cmc::symbolic {

/// M ∘ M'.  Both systems must share the same Context.
SymbolicSystem compose(const SymbolicSystem& m, const SymbolicSystem& mp);

/// Expansion M ∘ (Σ', I) over additional variables (paper §3.2).
SymbolicSystem expand(const SymbolicSystem& m,
                      const std::vector<VarId>& extraVars);

/// M₁ ∘ … ∘ Mₙ in one pass: exactly the left fold ((M₁ ∘ M₂) ∘ M₃) ∘ …,
/// track for track and conjunct for conjunct (∘ is associative, Lemma 1),
/// with each variable's frame conjunct built once.  A single system is
/// returned unchanged.
SymbolicSystem composeAll(const std::vector<SymbolicSystem>& systems);

/// Semantic equality of two systems over the same context: same alphabet
/// and the same transition-relation BDD (canonical, so BDD equality is
/// semantic equality).  Used by the lemma validators.
bool sameBehavior(const SymbolicSystem& a, const SymbolicSystem& b);

}  // namespace cmc::symbolic
