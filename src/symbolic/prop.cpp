#include "symbolic/prop.hpp"

#include "symbolic/partition.hpp"

namespace cmc::symbolic {

bdd::Bdd propositionalBdd(Context& ctx, const ctl::FormulaPtr& f) {
  CMC_ASSERT(f != nullptr);
  switch (f->op()) {
    case ctl::Op::True:
      return ctx.mgr().bddTrue();
    case ctl::Op::False:
      return ctx.mgr().bddFalse();
    case ctl::Op::Atom:
      return ctx.atomBdd(f->atom());
    case ctl::Op::Not:
      return !propositionalBdd(ctx, f->lhs());
    case ctl::Op::And:
    case ctl::Op::Or: {
      // A chain folds balanced, as in the checker.
      std::vector<bdd::Bdd> operands;
      for (const ctl::FormulaPtr& g : ctl::chainOperands(f)) {
        operands.push_back(propositionalBdd(ctx, g));
      }
      return foldBalanced(ctx.mgr(),
                          f->op() == ctl::Op::And ? FoldOp::And : FoldOp::Or,
                          std::move(operands));
    }
    case ctl::Op::Implies:
      return propositionalBdd(ctx, f->lhs())
          .implies(propositionalBdd(ctx, f->rhs()));
    case ctl::Op::Iff:
      return propositionalBdd(ctx, f->lhs())
          .iff(propositionalBdd(ctx, f->rhs()));
    default:
      throw ModelError("propositionalBdd: temporal operator in " +
                       ctl::toString(f));
  }
}

bool propositionallyValid(Context& ctx, const std::vector<VarId>& vars,
                          const ctl::FormulaPtr& f) {
  const bdd::Bdd domain = ctx.domainAll(vars, false);
  return (domain & !propositionalBdd(ctx, f)).isFalse();
}

}  // namespace cmc::symbolic
