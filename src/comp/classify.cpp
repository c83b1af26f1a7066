#include "comp/classify.hpp"

#include <algorithm>

namespace cmc::comp {

using ctl::FormulaPtr;
using ctl::Op;

std::vector<FormulaPtr> conjuncts(const FormulaPtr& f) {
  std::vector<FormulaPtr> out;
  std::vector<FormulaPtr> stack{f};
  while (!stack.empty()) {
    FormulaPtr cur = stack.back();
    stack.pop_back();
    if (cur->op() == Op::And) {
      stack.push_back(cur->rhs());
      stack.push_back(cur->lhs());
    } else {
      out.push_back(cur);
    }
  }
  return out;
}

bool matchImpliesAX(const FormulaPtr& f, FormulaPtr* p, FormulaPtr* q) {
  if (f->op() != Op::Implies) return false;
  const FormulaPtr& rhs = f->rhs();
  if (rhs->op() != Op::AX) return false;
  if (!ctl::isPropositional(f->lhs()) || !ctl::isPropositional(rhs->lhs())) {
    return false;
  }
  if (p != nullptr) *p = f->lhs();
  if (q != nullptr) *q = rhs->lhs();
  return true;
}

bool matchImpliesEX(const FormulaPtr& f, FormulaPtr* p, FormulaPtr* q) {
  if (f->op() != Op::Implies) return false;
  const FormulaPtr& rhs = f->rhs();
  if (rhs->op() != Op::EX) return false;
  if (!ctl::isPropositional(f->lhs()) || !ctl::isPropositional(rhs->lhs())) {
    return false;
  }
  if (p != nullptr) *p = f->lhs();
  if (q != nullptr) *q = rhs->lhs();
  return true;
}

namespace {

/// Fairness is trivial when every constraint is TRUE.
bool trivialFairness(const ctl::Restriction& r) {
  for (const FormulaPtr& f : r.fairness) {
    if (f->op() != Op::True) return false;
  }
  return true;
}

/// The INITs Rules 2 and 3 admit: none, or a propositional one.
bool propositionalInit(const ctl::Restriction& r) {
  return r.init == nullptr || ctl::isPropositional(r.init);
}

PropertyClass classifyOne(const ctl::Restriction& r, const FormulaPtr& f) {
  // Rule 1: propositional under (I, {true}).
  if (ctl::isPropositional(f) && trivialFairness(r)) {
    return PropertyClass::Existential;
  }
  // Rules 2/3 under (I, {true}) with I propositional: the restriction only
  // strengthens the antecedent to I ∧ p.  Fairness is introduced on the
  // composed system afterwards (Lemma 11), never through these rules.
  if (!propositionalInit(r) || !trivialFairness(r)) {
    return PropertyClass::Unknown;
  }
  if (matchImpliesAX(f, nullptr, nullptr)) {
    return PropertyClass::Universal;
  }
  if (matchImpliesEX(f, nullptr, nullptr)) {
    return PropertyClass::Existential;
  }
  return PropertyClass::Unknown;
}

}  // namespace

PropertyClass classify(const ctl::Restriction& r, const FormulaPtr& f) {
  PropertyClass result = PropertyClass::Existential;
  for (const FormulaPtr& part : conjuncts(f)) {
    switch (classifyOne(r, part)) {
      case PropertyClass::Existential:
        break;  // keeps the current class
      case PropertyClass::Universal:
        if (result == PropertyClass::Existential) {
          result = PropertyClass::Universal;
        }
        break;
      case PropertyClass::Unknown:
        return PropertyClass::Unknown;
    }
  }
  return result;
}

PropertyClass classify(const ctl::Spec& spec) {
  return classify(spec.r, spec.f);
}

bool premisesAreExact(const ctl::Spec& spec) {
  if (classify(spec) != PropertyClass::Universal) return false;
  const std::vector<FormulaPtr> parts = conjuncts(spec.f);
  return std::none_of(parts.begin(), parts.end(), [](const FormulaPtr& c) {
    return matchImpliesEX(c, nullptr, nullptr);
  });
}

}  // namespace cmc::comp
