#include "symbolic/checker.hpp"

#include <algorithm>
#include <iterator>

#include "bdd/io.hpp"
#include "symbolic/trace.hpp"
#include "util/timer.hpp"

namespace cmc::symbolic {

using ctl::FormulaPtr;
using ctl::Op;

const char* toString(CancelReason reason) noexcept {
  switch (reason) {
    case CancelReason::Deadline: return "deadline";
    case CancelReason::NodeBudget: return "node-budget";
    case CancelReason::External: return "external";
  }
  return "unknown";
}

bool takesCone(const SymbolicSystem& sys) noexcept {
  return !sys.partition.empty() && sys.vars.size() < sys.ctx->varCount();
}

Checker::Checker(const SymbolicSystem& sys, CheckerOptions opts)
    : sys_(sys),
      opts_(opts),
      domain_(sys.stateDomain()),
      nextVars_(sys.ctx->nextCube(sys.vars)),
      swapPerm_(sys.ctx->swapPermutation(sys.vars)),
      stutters_(sys.stuttersByConstruction()),
      cone_(takesCone(sys)) {
  CMC_ASSERT(sys.ctx != nullptr);
  Context& ctx = *sys.ctx;
  // When the system's alphabet covers the whole context (every composed
  // system) and a track's frame conjuncts are tagged, the frames are
  // handled by *substitution* instead of by folding (see below).  A
  // component checker in a shared context takes the cone path instead,
  // under either engine: a monolithic attempt imports the partition too.
  // Either way only the alphabet's bits are primed, so a variable outside
  // the alphabet keeps its current value across a step: that is its frame
  // in the system's expansion over it (see holdsOnExpansion).
  if (sys.partition.empty() || (!cone_ && !opts_.usePartitionedTrans)) {
    return;
  }
  partitioned_ = opts_.usePartitionedTrans;
  bdd::Manager& mgr = ctx.mgr();

  // Generic fold: every next-state bit of the alphabet is quantified.
  std::vector<std::uint32_t> quantVars;
  for (VarId v : sys.vars) {
    for (std::uint32_t bit : ctx.variable(v).bits) {
      quantVars.push_back(Context::bddVarOf(bit, /*next=*/true));
    }
  }
  std::sort(quantVars.begin(), quantVars.end());

  tracks_.reserve(sys.partition.tracks.size());
  if (cone_) {
    varDomain_.resize(ctx.varCount());
    for (VarId v : sys.vars) {
      for (std::uint32_t bit : ctx.variable(v).bits) {
        const std::uint32_t current = Context::bddVarOf(bit, /*next=*/false);
        if (current >= varOfBit_.size()) varOfBit_.resize(current + 1, -1);
        varOfBit_[current] = v;
      }
      const bdd::Bdd dom = ctx.domain(v);
      if (!dom.isTrue()) varDomain_[v] = dom;
    }
    for (const PartitionedRelation& t : sys.partition.tracks) {
      tracks_.push_back(TrackPre{swapPerm_, /*local=*/false,
                                 PreimageSchedule::withCone(mgr, t, quantVars)});
    }
    return;
  }

  // Substitution: each frame conjunct satisfies
  // ∃v'. (v'=v ∧ dom) ∧ X' = dom(v) ∧ X[v'↦v], so the track's preimage is
  // dom(framed) ∧ ∃V'_owned (core ∧ partial-swap(X))  and the frame BDDs
  // never enter the fold.  The stutter track degenerates to dom(Σ) ∧ X —
  // core empty, nothing owned.
  for (const PartitionedRelation& t : sys.partition.tracks) {
    if (t.framesTagged()) {
      std::vector<VarId> framed = t.frameVars();
      std::sort(framed.begin(), framed.end());
      std::vector<VarId> owned;
      std::set_difference(sys.vars.begin(), sys.vars.end(), framed.begin(),
                          framed.end(), std::back_inserter(owned));
      std::vector<std::uint32_t> quant;
      for (VarId v : owned) {
        for (std::uint32_t bit : ctx.variable(v).bits) {
          quant.push_back(Context::bddVarOf(bit, /*next=*/true));
        }
      }
      std::sort(quant.begin(), quant.end());
      PartitionedRelation core = t.core();
      core.clusterGreedy(opts_.clusterThreshold);
      tracks_.push_back(TrackPre{ctx.swapPermutation(owned), /*local=*/true,
                                 PreimageSchedule(mgr, std::move(core), quant)});
    } else {
      PartitionedRelation track = t;
      track.clusterGreedy(opts_.clusterThreshold);
      tracks_.push_back(
          TrackPre{swapPerm_, /*local=*/false,
                   PreimageSchedule(mgr, std::move(track), quantVars)});
    }
  }
}

bdd::Bdd Checker::preE(const bdd::Bdd& target) {
  pollCancel();
  ++preimages_;
  bdd::Manager& mgr = sys_.ctx->mgr();
  if (cone_) {
    // Every track through its cone, under either engine.
    const bdd::Bdd primed = mgr.permute(target, swapPerm_);
    bdd::Bdd out = mgr.bddFalse();
    bool narrow = true;
    for (const TrackPre& t : tracks_) {
      bool trackNarrow = false;
      out |= t.schedule.relProduct(primed, &trackNarrow);
      narrow = narrow && trackNarrow;
    }
    if (narrow) ++conePreimages_;
    return out;
  }
  if (!partitioned_) {
    const bdd::Bdd primed = mgr.permute(target, swapPerm_);
    return mgr.andExists(sys_.transBdd(), primed, nextVars_);
  }
  // Preimage distributes over the disjunctive tracks; each track folds
  // its core clusters with early quantification over a partially swapped
  // target and never materializes the monolithic relation.  Local
  // contributions are disjoined first and restricted to the state domain
  // once (see TrackPre).
  bdd::Bdd out = mgr.bddFalse();
  bdd::Bdd localAcc = mgr.bddFalse();
  for (const TrackPre& t : tracks_) {
    const bdd::Bdd pre = t.schedule.relProduct(mgr.permute(target, t.permId));
    (t.local ? localAcc : out) |= pre;
  }
  if (!localAcc.isFalse()) out |= localAcc & domain_;
  return out;
}

bdd::Bdd Checker::preFair(const bdd::Bdd& target, const bdd::Bdd& fair) {
  if (!cone_ || fair != domain_) return preE(target & fair);
  // Only the domains of the target's own variables: the rest of domain_
  // cannot change the preimage, since every track carries dom ∧ dom' for
  // the system's variables, and would widen the cone to every variable.
  bdd::Bdd narrowed = target;
  VarId last = -1;
  for (std::uint32_t bit : sys_.ctx->mgr().support(target)) {
    const VarId v = bit < varOfBit_.size() ? varOfBit_[bit] : -1;
    if (v < 0 || v == last) continue;
    last = v;
    if (!varDomain_[v].isNull()) narrowed &= varDomain_[v];
  }
  return preE(narrowed);
}

bdd::Bdd Checker::untilE(const bdd::Bdd& f, const bdd::Bdd& g) {
  // lfp Q. g ∨ (f ∧ EX Q)
  bdd::Bdd q = g;
  for (;;) {
    pollCancel();
    bdd::Bdd next = q | (f & preE(q));
    if (next == q) return q;
    q = std::move(next);
  }
}

bdd::Bdd Checker::fairEG(const bdd::Bdd& region,
                         const std::vector<bdd::Bdd>& fairIn) {
  // νZ. region ∧ ⋀_F EX E[region U (Z ∧ F)]; no constraints degenerates to
  // plain EG via the single constraint {true}.
  std::vector<bdd::Bdd> fair = fairIn;
  if (fair.empty()) fair.push_back(sys_.ctx->mgr().bddTrue());
  bdd::Bdd z = region;
  for (;;) {
    pollCancel();
    bdd::Bdd next = z;
    for (const bdd::Bdd& fc : fair) {
      next &= region & preE(untilE(region, next & fc));
    }
    if (next == z) return z;
    z = std::move(next);
  }
}

std::vector<bdd::Bdd> Checker::fairSets(
    const std::vector<ctl::FormulaPtr>& fairness) {
  std::vector<bdd::Bdd> sets;
  const bdd::Bdd all = sys_.ctx->mgr().bddTrue();
  for (const FormulaPtr& fc : fairness) sets.push_back(satRec(fc, {}, all));
  return sets;
}

bdd::Bdd Checker::fairRegion(const std::vector<bdd::Bdd>& fairSets) {
  bdd::Manager& mgr = sys_.ctx->mgr();
  if (fairSets.empty()) return mgr.bddTrue();
  const bool trivial =
      std::all_of(fairSets.begin(), fairSets.end(),
                  [](const bdd::Bdd& fc) { return fc.isTrue(); });
  if (!trivial) return fairEG(mgr.bddTrue(), fairSets);
  if (trivialFair_.isNull()) {
    // EG true.  On a system that stutters by construction every valid
    // state has its self-loop, so it lies on an infinite path.  On any
    // total system — preE(true) is the domain — every valid state has a
    // successor, which is valid again (T ⊆ dom'), so νZ. EX Z stops at
    // the domain.  Both engines confine preimages to the domain, so the
    // fixpoint is exactly domain_ either way.
    trivialFair_ = stutters_ || preE(mgr.bddTrue()) == domain_
                       ? domain_
                       : fairEG(mgr.bddTrue(), fairSets);
  }
  return trivialFair_;
}

bdd::Bdd Checker::fairStates(const std::vector<ctl::FormulaPtr>& fairness) {
  return fairRegion(fairSets(fairness));
}

bdd::Bdd Checker::sat(const ctl::FormulaPtr& f,
                      const std::vector<ctl::FormulaPtr>& fairness) {
  const std::vector<bdd::Bdd> sets = fairSets(fairness);
  return satRec(f, sets, fairRegion(sets));
}

bdd::Bdd Checker::satRec(const ctl::FormulaPtr& f,
                         const std::vector<bdd::Bdd>& fairSets,
                         const bdd::Bdd& fair) {
  CMC_ASSERT(f != nullptr);
  bdd::Manager& mgr = sys_.ctx->mgr();
  switch (f->op()) {
    case Op::True:
      return mgr.bddTrue();
    case Op::False:
      return mgr.bddFalse();
    case Op::Atom:
      return sys_.ctx->atomBdd(f->atom());
    case Op::Not:
      return !satRec(f->lhs(), fairSets, fair);
    case Op::And:
    case Op::Or: {
      // A chain (a wide module's INIT conjoins hundreds of atoms) folds
      // balanced, its operands evaluated left to right.
      std::vector<bdd::Bdd> operands;
      for (const FormulaPtr& g : ctl::chainOperands(f)) {
        operands.push_back(satRec(g, fairSets, fair));
      }
      return foldBalanced(mgr, f->op() == Op::And ? FoldOp::And : FoldOp::Or,
                          std::move(operands));
    }
    case Op::Implies:
      return satRec(f->lhs(), fairSets, fair)
          .implies(satRec(f->rhs(), fairSets, fair));
    case Op::Iff:
      return satRec(f->lhs(), fairSets, fair)
          .iff(satRec(f->rhs(), fairSets, fair));
    case Op::EX:
      return preFair(satRec(f->lhs(), fairSets, fair), fair);
    case Op::AX:
      return !preFair(!satRec(f->lhs(), fairSets, fair), fair);
    case Op::EU:
      return untilE(satRec(f->lhs(), fairSets, fair),
                    satRec(f->rhs(), fairSets, fair) & fair);
    case Op::EF:
      return untilE(mgr.bddTrue(),
                    satRec(f->lhs(), fairSets, fair) & fair);
    case Op::EG:
      return fairEG(satRec(f->lhs(), fairSets, fair), fairSets);
    case Op::AF:
      return !fairEG(!satRec(f->lhs(), fairSets, fair), fairSets);
    case Op::AG:
      return !untilE(mgr.bddTrue(),
                     (!satRec(f->lhs(), fairSets, fair)) & fair);
    case Op::AU: {
      // A[f U g] = !(E[!g U (!f & !g)] | EG !g), fair throughout.
      const bdd::Bdd sf = satRec(f->lhs(), fairSets, fair);
      const bdd::Bdd sg = satRec(f->rhs(), fairSets, fair);
      const bdd::Bdd ng = !sg;
      const bdd::Bdd part1 = untilE(ng, ((!sf) & ng) & fair);
      const bdd::Bdd part2 = fairEG(ng, fairSets);
      return !(part1 | part2);
    }
  }
  throw Error("satRec: unreachable");
}

bdd::Bdd Checker::initStates(const FormulaPtr& init,
                              const std::vector<bdd::Bdd>& fairSets,
                              const bdd::Bdd& fair) {
  if (init == initFormula_) return initStates_;
  bdd::Bdd states = satRec(init, fairSets, fair);
  if (ctl::isPropositional(init)) {
    initFormula_ = init;
    initStates_ = states;
  }
  return states;
}

bdd::Bdd Checker::violations(const ctl::Restriction& r,
                             const ctl::FormulaPtr& f) {
  // A check that runs no fixpoint (propositional spec, free fair region)
  // must still honor an exhausted budget.
  pollCancel();
  const FormulaPtr init = r.init != nullptr ? r.init : ctl::mkTrue();
  const std::vector<bdd::Bdd> sets = fairSets(r.fairness);
  const bdd::Bdd fair = fairRegion(sets);
  const bdd::Bdd satInit = initStates(init, sets, fair);
  const bdd::Bdd satF = satRec(f, sets, fair);
  return domain_ & satInit & !satF;
}

bool Checker::holds(const ctl::Restriction& r, const ctl::FormulaPtr& f) {
  return violations(r, f).isFalse();
}

bool Checker::holds(const ctl::Spec& spec) { return holds(spec.r, spec.f); }

bool Checker::holdsOnExpansion(const ctl::Restriction& r,
                               const ctl::FormulaPtr& f,
                               const bdd::Bdd& foreignDomain) {
  return (violations(r, f) & foreignDomain).isFalse();
}

CheckResult Checker::check(const ctl::Spec& spec) {
  bdd::Manager& mgr = sys_.ctx->mgr();
  mgr.resetPeakNodes();
  const std::uint64_t lookupsBefore = mgr.stats().cacheLookups;
  const std::uint64_t hitsBefore = mgr.stats().cacheHits;
  WallTimer timer;
  CheckResult result;
  result.holds = holds(spec.r, spec.f);
  result.seconds = timer.seconds();
  const bdd::ManagerStats& stats = mgr.stats();
  result.bddNodesAllocated = stats.nodesAllocatedTotal;
  result.transNodes = sys_.transNodeCount();
  result.peakLiveNodes = stats.peakNodes;
  const std::uint64_t lookups = stats.cacheLookups - lookupsBefore;
  result.cacheHitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(stats.cacheHits - hitsBefore) /
                         static_cast<double>(lookups);
  result.usedPartition = usesPartition();
  result.clusterThreshold = opts_.clusterThreshold;
  result.specText = ctl::toString(spec.f);
  result.specName = spec.name;
  return result;
}

bool Checker::holdsReachable(const ctl::Restriction& r,
                             const ctl::FormulaPtr& f) {
  const FormulaPtr init = r.init != nullptr ? r.init : ctl::mkTrue();
  TraceBuilder builder(sys_);
  const std::vector<bdd::Bdd> sets = fairSets(r.fairness);
  const bdd::Bdd fair = fairRegion(sets);
  const bdd::Bdd satInit = initStates(init, sets, fair);
  const bdd::Bdd reach = builder.reachable(satInit & domain_);
  const bdd::Bdd satF = satRec(f, sets, fair);
  return (reach & satInit & !satF).isFalse();
}

std::optional<std::string> Checker::counterexampleTrace(
    const ctl::Restriction& r, const ctl::FormulaPtr& f) {
  if (f->op() != ctl::Op::AG || !ctl::isPropositional(f->lhs())) {
    return std::nullopt;
  }
  const FormulaPtr init = r.init != nullptr ? r.init : ctl::mkTrue();
  TraceBuilder builder(sys_);
  const std::vector<bdd::Bdd> sets = fairSets(r.fairness);
  const bdd::Bdd region = fairRegion(sets);
  const bdd::Bdd good = satRec(f->lhs(), sets, region);
  const bdd::Bdd initSet = initStates(init, sets, region) & domain_;

  bool trivialFairness = true;
  for (const FormulaPtr& fc : r.fairness) {
    trivialFairness = trivialFairness && fc->op() == ctl::Op::True;
  }
  if (trivialFairness) {
    const std::optional<Trace> trace = builder.agCounterexample(initSet, good);
    if (!trace.has_value()) return std::nullopt;
    return trace->toString();
  }

  // Under a nontrivial fairness restriction a violation of AG good is a
  // *fair* path reaching ¬good, so the bad state must admit a fair
  // continuation (lie in the Emerson-Lei fixpoint) and the trace is a
  // lasso whose cycle visits every fairness constraint.
  const bdd::Bdd fair = fairEG(domain_, sets);
  const bdd::Bdd bad = (!good) & fair;
  const std::optional<Trace> prefix =
      builder.path(initSet, bad, sys_.ctx->mgr().bddTrue());
  if (!prefix.has_value()) return std::nullopt;
  const std::optional<Trace> lasso =
      builder.fairLasso(builder.stateBdd(prefix->states.back()), fair, sets);
  if (!lasso.has_value()) return std::nullopt;
  Trace full = *prefix;
  // lasso->states[0] re-picks the prefix endpoint (a singleton set).
  for (std::size_t i = 1; i < lasso->states.size(); ++i) {
    full.states.push_back(lasso->states[i]);
  }
  full.loopIndex = prefix->states.size() - 1 + *lasso->loopIndex;
  return full.toString();
}

std::string Checker::counterexampleText(const ctl::Spec& spec) {
  try {
    if (const auto trace = counterexampleTrace(spec.r, spec.f)) return *trace;
    if (const auto witness = violationWitness(spec.r, spec.f)) {
      return "violating state: " + *witness;
    }
  } catch (const CancelledError&) {
  }
  return "";
}

std::optional<std::string> Checker::violationWitness(
    const ctl::Restriction& r, const ctl::FormulaPtr& f) {
  const bdd::Bdd bad = violations(r, f);
  if (bad.isFalse()) return std::nullopt;
  bdd::Manager& mgr = sys_.ctx->mgr();
  const std::vector<std::int8_t> cube = mgr.pickCube(bad);
  return bdd::cubeToString(cube, sys_.ctx->bddVarNames());
}

void KeptChecker::setOptions(CheckerOptions opts) {
  if (opts.usePartitionedTrans != opts_.usePartitionedTrans ||
      opts.clusterThreshold != opts_.clusterThreshold) {
    checker_.reset();
  }
  opts_ = std::move(opts);
}

Checker& KeptChecker::checker() {
  if (checker_ == nullptr) {
    CheckerOptions opts = opts_;
    opts.cancelCheck = [this] {
      if (opts_.cancelCheck) opts_.cancelCheck();
    };
    checker_ = std::make_unique<Checker>(sys_, std::move(opts));
  }
  return *checker_;
}

std::string KeptChecker::counterexample(const ctl::Spec& spec) {
  const bool materialized = sys_.transMaterialized();
  std::string text = checker().counterexampleText(spec);
  // The trace search materializes the relation; a kept system keeps only
  // what it started with.
  if (!materialized) sys_.monolithic_ = bdd::Bdd();
  return text;
}

}  // namespace cmc::symbolic
