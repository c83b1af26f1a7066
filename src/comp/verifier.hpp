// The compositional verifier: turns a spec for a composed system into
// per-component model-checking obligations using the property classes, and
// discharges guarantees properties (paper §3.3, applied in §4.2.3/§4.3.4).
//
// Verification strategy for a spec S on M₁ ∘ … ∘ Mₙ:
//  - classify(S) == Universal:    check S on the expansion of *every*
//    component (Lemma 5 makes the expansion the right object); conclude S
//    for the composition (Rule 2).  A component whose alphabet misses the
//    variables of every AX body leaves those bodies unchanged, so its
//    premise is the propositional I ⇒ S[AX q := q] (Lemmas 6 and 8/9): one
//    validity check covers every such component (frame discharge).
//  - classify(S) == Existential:  check S on the expansion of *some*
//    component; conclude for the composition (Rules 1/3).
//  - Unknown: optionally fall back to a direct (non-compositional) check on
//    the composed system.  The proof tree labels this honestly so the
//    certificate shows which steps were compositional.
//
// No expansion is built.  Each component's premises run on one checker
// over its reflexive closure, which primes only the component's own bits:
// a variable of S outside the alphabet keeps its value across a step,
// which is its frame in the expansion (Checker::holdsOnExpansion).
//
// The verifier discharges its obligations one after another in the
// caller's Context.  Independent obligations fan out across cores as jobs
// of service::VerificationService, whose workers each own a BDD manager
// (managers are single-threaded); `cmc check --compose` runs the
// per-component checks of §4.3.4 that way for the §5 claim of linear cost
// in the number of components.
//
// A verifier is meant to be kept: the service's worker keeps one per
// composed target and runs every composed obligation of its job on it, so
// the components, their premise checkers, the composition and the composed
// checker are built once per worker, not once per spec.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comp/classify.hpp"
#include "comp/proof.hpp"
#include "comp/property.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"

namespace cmc::comp {

class CompositionalVerifier {
 public:
  explicit CompositionalVerifier(symbolic::Context& ctx,
                                 symbolic::CheckerOptions opts = {})
      : ctx_(ctx), checkerOpts_(std::move(opts)) {}
  /// The composed checker's cancel hook calls back into this verifier.
  CompositionalVerifier(const CompositionalVerifier&) = delete;
  CompositionalVerifier& operator=(const CompositionalVerifier&) = delete;

  /// Preimage-engine options used for every obligation this verifier
  /// discharges (partitioned vs monolithic, clustering threshold, cancel
  /// hook).  The composed checker survives a change of the hook alone; a
  /// change of engine or threshold drops it.
  void setCheckerOptions(symbolic::CheckerOptions opts);
  const symbolic::CheckerOptions& checkerOptions() const noexcept {
    return checkerOpts_;
  }

  /// Register a component (copied; cheap — BDD handles).
  void addComponent(symbolic::SymbolicSystem sys);

  std::size_t componentCount() const noexcept { return components_.size(); }
  const symbolic::SymbolicSystem& component(std::size_t i) const {
    return components_.at(i);
  }

  /// The full composition M₁ ∘ … ∘ Mₙ (built lazily, cached).
  const symbolic::SymbolicSystem& composed();

  /// Use `sys`, a composition built elsewhere (the service imports the
  /// job snapshot's), instead of composing the registered components.
  /// Throws ModelError unless `sys` lives in this verifier's context and
  /// its alphabet is the union of the components'.  Adding a component
  /// afterwards drops it, like the lazily built one.
  void adoptComposed(symbolic::SymbolicSystem sys);

  /// The checker over composed() that every global-fallback check runs
  /// on, built on first use and kept until the composition, the engine or
  /// the clustering threshold changes.  Its cancel hook forwards to
  /// checkerOptions().cancelCheck as it is at each poll, so a kept checker
  /// honors whatever hook the current caller installed.  Under the
  /// monolithic engine the composition keeps the product its first
  /// preimage materializes.
  symbolic::Checker& composedChecker();

  /// Best-effort counterexample to `spec` on the composition (see
  /// symbolic::Checker::counterexampleText), searched on the kept checker:
  /// the monolithic relation a trace materializes is dropped again, so the
  /// kept composition stays as built or adopted.
  std::string counterexample(const ctl::Spec& spec);

  /// Wall time this verifier spent building the composition (when it
  /// composed it itself) and checkers — everything but the checks — so a
  /// caller can split its own timing into setup and checks.
  double setupSeconds() const noexcept { return setupSeconds_; }

  /// Preimages run so far by the checkers the verifier keeps (premise and
  /// composed), and those whose cone left part of every track out.  A
  /// caller measures a span of checks by the difference, taken after its
  /// setCheckerOptions: a checker that an engine change rebuilds counts
  /// from zero again.
  std::uint64_t preimageCount() const noexcept;
  std::uint64_t conePreimageCount() const noexcept;

  /// Verify `spec` on the composition compositionally where the classifier
  /// allows; returns the verdict and records every step in `proof`.  A
  /// false Universal verdict refutes the composition when
  /// premisesAreExact(spec); a false Existential one need not.
  bool verify(const ctl::Spec& spec, ProofTree& proof,
              bool allowGlobalFallback = true);

  /// Discharge guarantee `g`: verify every lhs spec (compositionally when
  /// possible), then record the rhs as conclusions.  Returns true iff the
  /// lhs was fully discharged; the concluded rhs specs are appended to
  /// `*conclusions` when non-null.
  bool discharge(const Guarantee& g, ProofTree& proof,
                 std::vector<ctl::Spec>* conclusions = nullptr,
                 bool allowGlobalFallback = true);

  /// The invariance argument the paper uses for (Afs1) and (Afs1')
  /// (§4.2.3, §4.3.4): given propositional init, inv, and target with
  ///   (a) init ⇒ inv            (propositional validity),
  ///   (b) inv ⇒ AX inv          (universal — checked per component),
  ///   (c) inv ⇒ target          (propositional validity),
  /// conclude  composition ⊨_(init,{true}) AG target.
  bool verifyInvariance(const ctl::FormulaPtr& init,
                        const ctl::FormulaPtr& inv,
                        const ctl::FormulaPtr& target, ProofTree& proof,
                        const std::string& name);

 private:
  /// A propositional INIT as the verifier uses it: its states, its
  /// variables and their domain, evaluated once per verifier (afs2(n)'s
  /// server INIT has 3n+1 atoms, and every premise of a server spec reads
  /// it).
  struct InitFacts {
    ctl::FormulaPtr formula;
    bdd::Bdd states;
    std::vector<symbolic::VarId> vars;
    bdd::Bdd domain;  ///< Context::domainAll(vars)
  };

  /// Keep `sys` as the composition, with a checker built on first use.
  void keepComposed(symbolic::SymbolicSystem sys);
  /// The checker over component i's reflexive closure that decides its
  /// premises, kept like the composed one.  The first premise builds every
  /// component's.
  symbolic::Checker& premiseChecker(std::size_t i);
  /// Component i's premise for `spec`: `spec` on its expansion over the
  /// spec's variables outside its alphabet.
  bool premiseHolds(std::size_t i, const ctl::Spec& spec);
  const InitFacts& initFacts(const ctl::FormulaPtr& init);
  /// The variables of `f`, sorted, through the context's name table.
  std::vector<symbolic::VarId> varsOf(const ctl::FormulaPtr& f) const;
  std::vector<symbolic::VarId> unionVars() const;

  symbolic::Context& ctx_;
  symbolic::CheckerOptions checkerOpts_;
  std::vector<symbolic::SymbolicSystem> components_;
  /// Lazy, parallel to components_.
  std::vector<std::unique_ptr<symbolic::KeptChecker>> premises_;
  std::vector<InitFacts> inits_;
  /// The composition and the checker over it.
  std::optional<symbolic::KeptChecker> composed_;
  double setupSeconds_ = 0.0;
};

}  // namespace cmc::comp
