#include "comp/verifier.hpp"

#include <algorithm>

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

}  // namespace

void CompositionalVerifier::setCheckerOptions(symbolic::CheckerOptions opts) {
  checkerOpts_ = std::move(opts);
  if (composed_.has_value()) composed_->setOptions(checkerOpts_);
}

void CompositionalVerifier::addComponent(symbolic::SymbolicSystem sys) {
  CMC_ASSERT(sys.ctx == &ctx_);
  components_.push_back(std::move(sys));
  expansions_.emplace_back();
  expansionBuilt_.push_back(false);
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

const symbolic::SymbolicSystem& CompositionalVerifier::expansion(
    std::size_t i) {
  CMC_ASSERT(i < components_.size());
  if (!expansionBuilt_[i]) {
    const SetupClock clock(setupSeconds_);
    std::vector<symbolic::VarId> extra;
    const std::vector<symbolic::VarId> all = unionVars();
    std::set_difference(all.begin(), all.end(), components_[i].vars.begin(),
                        components_[i].vars.end(), std::back_inserter(extra));
    expansions_[i] = symbolic::expand(components_[i], extra);
    expansions_[i].name = components_[i].name + " (expanded)";
    expansionBuilt_[i] = true;
  }
  return expansions_[i];
}

symbolic::Checker CompositionalVerifier::checkerFor(
    const symbolic::SymbolicSystem& sys) {
  const SetupClock clock(setupSeconds_);
  return symbolic::Checker(sys, checkerOpts_);
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
      std::vector<std::size_t> checks{clsNode};
      bool all = true;
      for (std::size_t i = 0; i < components_.size(); ++i) {
        const bool ok = checkerFor(expansion(i)).holds(spec.r, spec.f);
        checks.push_back(proof.add(
            ProofNode::Kind::ModelCheck,
            expansion(i).name + " |= " + ctl::toString(spec.f), ok));
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
        if (checkerFor(expansion(i)).holds(spec.r, spec.f)) {
          const std::size_t check = proof.add(
              ProofNode::Kind::ModelCheck,
              expansion(i).name + " |= " + ctl::toString(spec.f), true);
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
