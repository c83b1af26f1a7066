#include "comp/verifier.hpp"

#include <algorithm>
#include <iterator>

#include "symbolic/prop.hpp"
#include "util/timer.hpp"

namespace cmc::comp {

namespace {

/// Adds the wall time of its scope to a verifier's setup total.
class SetupClock {
 public:
  explicit SetupClock(double& total) : total_(total) {}
  ~SetupClock() { total_ += timer_.seconds(); }
  SetupClock(const SetupClock&) = delete;
  SetupClock& operator=(const SetupClock&) = delete;

 private:
  double& total_;
  WallTimer timer_;
};

/// The formulas after the next-step operator of `f`'s Rule 2/3 conjuncts.
std::vector<ctl::FormulaPtr> nextStepBodies(const ctl::FormulaPtr& f) {
  std::vector<ctl::FormulaPtr> bodies;
  for (const ctl::FormulaPtr& c : conjuncts(f)) {
    ctl::FormulaPtr q;
    if (matchImpliesAX(c, nullptr, &q) || matchImpliesEX(c, nullptr, &q)) {
      bodies.push_back(std::move(q));
    }
  }
  return bodies;
}

/// `f` with each Rule 2/3 conjunct p ⇒ AX q or p ⇒ EX q replaced by p ⇒ q.
/// On a reflexive component that leaves q's variables unchanged both
/// conjuncts say exactly that: every successor agrees with its state on q,
/// and the stutter step is one (Lemmas 6 and 8/9).
ctl::FormulaPtr withBodiesUnchanged(const ctl::FormulaPtr& f) {
  std::vector<ctl::FormulaPtr> parts;
  for (const ctl::FormulaPtr& c : conjuncts(f)) {
    ctl::FormulaPtr p;
    ctl::FormulaPtr q;
    const bool step =
        matchImpliesAX(c, &p, &q) || matchImpliesEX(c, &p, &q);
    parts.push_back(step ? ctl::mkImplies(p, q) : c);
  }
  return ctl::conj(parts);
}

/// True iff `sys`'s alphabet holds one of `vars`.
bool touches(const symbolic::SymbolicSystem& sys,
             const std::vector<symbolic::VarId>& vars) {
  return std::any_of(vars.begin(), vars.end(), [&sys](symbolic::VarId v) {
    return std::binary_search(sys.vars.begin(), sys.vars.end(), v);
  });
}

/// The name a premise carries in the proof: the component's expansion is
/// what it decides.
std::string premiseName(const symbolic::SymbolicSystem& component) {
  return component.name + " (expanded)";
}

}  // namespace

void CompositionalVerifier::setCheckerOptions(symbolic::CheckerOptions opts) {
  checkerOpts_ = std::move(opts);
  if (composed_.has_value()) composed_->setOptions(checkerOpts_);
  for (const std::unique_ptr<symbolic::KeptChecker>& kept : premises_) {
    if (kept != nullptr) kept->setOptions(checkerOpts_);
  }
}

void CompositionalVerifier::addComponent(symbolic::SymbolicSystem sys) {
  CMC_ASSERT(sys.ctx == &ctx_);
  components_.push_back(std::move(sys));
  // A checker permutes only the bits its context had when it was built.
  for (std::unique_ptr<symbolic::KeptChecker>& kept : premises_) kept.reset();
  premises_.emplace_back();
  composed_.reset();
}

void CompositionalVerifier::keepComposed(symbolic::SymbolicSystem sys) {
  composed_.reset();
  composed_.emplace(std::move(sys));
  composed_->setOptions(checkerOpts_);
}

std::vector<symbolic::VarId> CompositionalVerifier::unionVars() const {
  std::vector<symbolic::VarId> all;
  for (const symbolic::SymbolicSystem& sys : components_) {
    all.insert(all.end(), sys.vars.begin(), sys.vars.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<symbolic::VarId> CompositionalVerifier::varsOf(
    const ctl::FormulaPtr& f) const {
  std::vector<symbolic::VarId> vars;
  for (const std::string& name : ctl::collectVariables(f)) {
    vars.push_back(ctx_.varId(name));
  }
  std::sort(vars.begin(), vars.end());
  return vars;
}

const symbolic::SymbolicSystem& CompositionalVerifier::composed() {
  if (!composed_.has_value()) {
    if (components_.empty()) {
      throw ModelError("no components registered");
    }
    const SetupClock clock(setupSeconds_);
    keepComposed(symbolic::composeAll(components_));
  }
  return composed_->system();
}

symbolic::Checker& CompositionalVerifier::composedChecker() {
  composed();
  if (!composed_->built()) {
    const SetupClock clock(setupSeconds_);
    composed_->checker();
  }
  return composed_->checker();
}

std::string CompositionalVerifier::counterexample(const ctl::Spec& spec) {
  composed();
  return composed_->counterexample(spec);
}

void CompositionalVerifier::adoptComposed(symbolic::SymbolicSystem sys) {
  if (sys.ctx != &ctx_) {
    throw ModelError("adoptComposed: '" + sys.name +
                     "' lives in another symbolic context");
  }
  if (components_.empty() || sys.vars != unionVars()) {
    throw ModelError("adoptComposed: the alphabet of '" + sys.name +
                     "' is not the union of the components' alphabets");
  }
  keepComposed(std::move(sys));
}

std::uint64_t CompositionalVerifier::preimageCount() const noexcept {
  std::uint64_t n = composed_.has_value() ? composed_->preimageCount() : 0;
  for (const std::unique_ptr<symbolic::KeptChecker>& kept : premises_) {
    if (kept != nullptr) n += kept->preimageCount();
  }
  return n;
}

std::uint64_t CompositionalVerifier::conePreimageCount() const noexcept {
  std::uint64_t n =
      composed_.has_value() ? composed_->conePreimageCount() : 0;
  for (const std::unique_ptr<symbolic::KeptChecker>& kept : premises_) {
    if (kept != nullptr) n += kept->conePreimageCount();
  }
  return n;
}

symbolic::Checker& CompositionalVerifier::premiseChecker(std::size_t i) {
  if (premises_.at(i) == nullptr || !premises_[i]->built()) {
    // All at once: a kept verifier then builds nothing after its first
    // premise, so a warm attempt's setup stays empty.
    const SetupClock clock(setupSeconds_);
    for (std::size_t j = 0; j < components_.size(); ++j) {
      std::unique_ptr<symbolic::KeptChecker>& kept = premises_[j];
      if (kept == nullptr) {
        // Every expansion stutters (compose adds Id), so a premise is
        // decided on the component's reflexive closure.
        symbolic::SymbolicSystem sys = components_[j];
        if (!sys.stuttersByConstruction()) symbolic::addReflexive(sys);
        kept = std::make_unique<symbolic::KeptChecker>(std::move(sys));
        kept->setOptions(checkerOpts_);
      }
      kept->checker();
    }
  }
  return premises_[i]->checker();
}

const CompositionalVerifier::InitFacts& CompositionalVerifier::initFacts(
    const ctl::FormulaPtr& init) {
  // Every trivial INIT shares one entry: verifyInvariance makes a fresh
  // TRUE per call.
  const ctl::FormulaPtr key =
      init != nullptr && init->op() != ctl::Op::True ? init : nullptr;
  for (const InitFacts& facts : inits_) {
    if (facts.formula == key) return facts;
  }
  InitFacts facts;
  facts.formula = key;
  if (key == nullptr) {
    facts.states = ctx_.mgr().bddTrue();
  } else {
    facts.states = symbolic::propositionalBdd(ctx_, key);
    facts.vars = varsOf(key);
  }
  facts.domain = ctx_.domainAll(facts.vars);
  inits_.push_back(std::move(facts));
  return inits_.back();
}

bool CompositionalVerifier::premiseHolds(std::size_t i,
                                         const ctl::Spec& spec) {
  symbolic::Checker& checker = premiseChecker(i);
  // Rules 1-3 admit only trivial fairness, so the INIT and the formula
  // name every variable the premise reads.  The INIT's domain may cover
  // some of the alphabet too, whose domain the checker conjoins anyway.
  const std::vector<symbolic::VarId> vars = varsOf(spec.f);
  std::vector<symbolic::VarId> foreign;
  std::set_difference(vars.begin(), vars.end(), components_[i].vars.begin(),
                      components_[i].vars.end(), std::back_inserter(foreign));
  return checker.holdsOnExpansion(
      spec.r, spec.f,
      initFacts(spec.r.init).domain & ctx_.domainAll(foreign));
}

bool CompositionalVerifier::verify(const ctl::Spec& spec, ProofTree& proof,
                                   bool allowGlobalFallback) {
  if (components_.empty()) {
    throw ModelError("no components registered");
  }
  const PropertyClass cls = classify(spec);
  const std::size_t clsNode = proof.add(
      ProofNode::Kind::Classification,
      spec.name + " : " + ctl::toString(spec.f) + " is " + toString(cls),
      true);

  switch (cls) {
    case PropertyClass::Universal: {
      // Rule 2 on the components that can change a next-step body; the
      // rest share one propositional premise (frame discharge).
      const std::vector<symbolic::VarId> bodyVars =
          varsOf(ctl::conj(nextStepBodies(spec.f)));
      std::vector<std::size_t> checks{clsNode};
      std::size_t framed = 0;
      bool all = true;
      for (std::size_t i = 0; i < components_.size(); ++i) {
        if (!touches(components_[i], bodyVars)) {
          ++framed;
          continue;
        }
        const bool ok = premiseHolds(i, spec);
        checks.push_back(proof.add(
            ProofNode::Kind::ModelCheck,
            premiseName(components_[i]) + " |= " + ctl::toString(spec.f),
            ok));
        all = all && ok;
      }
      if (framed > 0) {
        // Like every check, the discharge honors an exhausted budget.
        if (checkerOpts_.cancelCheck) checkerOpts_.cancelCheck();
        const ctl::FormulaPtr unchanged = withBodiesUnchanged(spec.f);
        const InitFacts& init = initFacts(spec.r.init);
        const bdd::Bdd bad = init.states & init.domain &
                             !symbolic::propositionalBdd(ctx_, unchanged);
        const bool ok =
            (bad & ctx_.domainAll(varsOf(unchanged))).isFalse();
        checks.push_back(proof.add(
            ProofNode::Kind::RuleApplication,
            std::to_string(framed) + " of " +
                std::to_string(components_.size()) +
                " components leave every next-step body unchanged (frame "
                "discharge, Lemmas 6 and 8/9): INIT => (" +
                ctl::toString(unchanged) + ") is propositionally valid",
            ok));
        all = all && ok;
      }
      proof.add(ProofNode::Kind::Conclusion,
                "composition |= " + spec.name + " (universal, Rule 2)", all,
                std::move(checks));
      return all;
    }
    case PropertyClass::Existential: {
      // Find one component whose expansion satisfies the spec.
      for (std::size_t i = 0; i < components_.size(); ++i) {
        if (premiseHolds(i, spec)) {
          const std::size_t check = proof.add(
              ProofNode::Kind::ModelCheck,
              premiseName(components_[i]) + " |= " + ctl::toString(spec.f),
              true);
          proof.add(
              ProofNode::Kind::Conclusion,
              "composition |= " + spec.name + " (existential, Rules 1/3)",
              true, {clsNode, check});
          return true;
        }
      }
      proof.add(ProofNode::Kind::Conclusion,
                "no component satisfies existential spec " + spec.name,
                false, {clsNode});
      return false;
    }
    case PropertyClass::Unknown: {
      if (!allowGlobalFallback) {
        proof.add(ProofNode::Kind::Conclusion,
                  spec.name + " is not compositional by Rules 1-3 and the "
                              "global fallback is disabled",
                  false, {clsNode});
        return false;
      }
      const bool ok = composedChecker().holds(spec.r, spec.f);
      const std::size_t check =
          proof.add(ProofNode::Kind::ModelCheck,
                    "composed system |= " + ctl::toString(spec.f) +
                        "  (direct, non-compositional)",
                    ok);
      proof.add(ProofNode::Kind::Conclusion,
                "composition |= " + spec.name + " (global check)", ok,
                {clsNode, check});
      return ok;
    }
  }
  throw Error("verify: unreachable");
}

bool CompositionalVerifier::discharge(const Guarantee& g, ProofTree& proof,
                                      std::vector<ctl::Spec>* conclusions,
                                      bool allowGlobalFallback) {
  std::vector<std::size_t> lhsNodes;
  bool all = true;
  for (const ctl::Spec& spec : g.lhs) {
    const bool ok = verify(spec, proof, allowGlobalFallback);
    all = all && ok;
    lhsNodes.push_back(proof.size() - 1);  // the Conclusion verify() added
  }
  proof.add(ProofNode::Kind::RuleApplication,
            "discharge left side of " + g.name + " (" + g.derivedBy + ")",
            all, std::move(lhsNodes));
  if (!all) return false;
  for (const ctl::Spec& spec : g.rhs) {
    proof.add(ProofNode::Kind::Conclusion,
              "composition |= " + spec.name + " under " + spec.r.toString() +
                  " : " + ctl::toString(spec.f),
              true, {proof.size() - 1});
    if (conclusions != nullptr) conclusions->push_back(spec);
  }
  return true;
}

bool CompositionalVerifier::verifyInvariance(const ctl::FormulaPtr& init,
                                             const ctl::FormulaPtr& inv,
                                             const ctl::FormulaPtr& target,
                                             ProofTree& proof,
                                             const std::string& name) {
  if (!ctl::isPropositional(init) || !ctl::isPropositional(inv) ||
      !ctl::isPropositional(target)) {
    throw ModelError("verifyInvariance requires propositional formulas");
  }
  const std::vector<symbolic::VarId> all = unionVars();

  const bool baseOk = propositionallyValid(ctx_, all, ctl::mkImplies(init, inv));
  const std::size_t baseNode =
      proof.add(ProofNode::Kind::RuleApplication,
                name + ": init => inv is propositionally valid", baseOk);

  const ctl::Spec step{
      name + ".step",
      ctl::Restriction{ctl::mkTrue(), {ctl::mkTrue()}},
      ctl::mkImplies(inv, ctl::AX(inv))};
  const bool stepOk = verify(step, proof, /*allowGlobalFallback=*/false);
  const std::size_t stepNode = proof.size() - 1;

  const bool implOk =
      propositionallyValid(ctx_, all, ctl::mkImplies(inv, target));
  const std::size_t implNode =
      proof.add(ProofNode::Kind::RuleApplication,
                name + ": inv => target is propositionally valid", implOk);

  const bool ok = baseOk && stepOk && implOk;
  proof.add(ProofNode::Kind::Conclusion,
            "composition |=_(init,{true}) AG " + ctl::toString(target) +
                "  [" + name + ", invariance]",
            ok, {baseNode, stepNode, implNode});
  return ok;
}

}  // namespace cmc::comp
