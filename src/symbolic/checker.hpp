// BDD-based fair-CTL model checker — the library's SMV substitute.
//
// Path quantifiers are computed with preimage fixpoints over the
// transition relation; fairness uses the Emerson-Lei greatest fixpoint
//   EG_fair S = νZ. S ∧ ⋀_{F∈fairness} EX E[S U (Z ∧ F)]
// exactly mirroring the explicit checker (the two are cross-validated by
// the property-based tests).
//
// Preimages run, by default, over the system's *partitioned* transition
// relation (symbolic/partition.hpp): each interleaving track is clustered
// up to a node threshold and folded with an early-quantification schedule,
// and the per-track preimages are disjoined.  The monolithic relation is
// never materialized on this path.  CheckerOptions selects the path and
// the clustering threshold; results are BDD-identical either way (asserted
// by the cross-validation tests).  A component system — one whose alphabet
// does not cover its context — takes the cone-of-influence path under
// both engines: every target folds only the conjuncts that constrain the
// next state of the variables it reads (PreimageSchedule::withCone), and
// neither engine clusters or materializes the relation for its preimages.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ctl/formula.hpp"
#include "symbolic/system.hpp"

namespace cmc::symbolic {

/// Why a cooperative cancellation fired (service layer verdict mapping:
/// Deadline → Timeout, NodeBudget → MemoryOut).
enum class CancelReason { Deadline, NodeBudget, External };

const char* toString(CancelReason reason) noexcept;

/// Thrown out of the checker's fixpoint loops by
/// CheckerOptions::cancelCheck when an obligation exhausts its resource
/// budget.  The checker itself never constructs one; it only guarantees the
/// hook is polled often enough (on entry to every check, before every
/// preimage and on every fixpoint iteration) that a blown-up check aborts
/// promptly instead of hanging.
class CancelledError : public Error {
 public:
  CancelledError(CancelReason reason, const std::string& what)
      : Error(what), reason_(reason) {}

  CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

/// Tuning knobs for the checker's preimage engine.
struct CheckerOptions {
  /// Fold preimages over the partitioned relation (early quantification)
  /// instead of one andExists against the monolithic BDD.
  bool usePartitionedTrans = true;
  /// Greedy clustering threshold in BDD nodes; conjuncts are merged while
  /// the cluster stays within it.  0 collapses each track to one cluster.
  /// Cone schedules (component systems) fold unclustered conjuncts.
  std::uint64_t clusterThreshold = 1024;
  /// Cooperative cancellation hook.  When set, it is polled on entry to
  /// every holds()/violations() — so an exhausted budget binds even on a
  /// check that runs no fixpoint — before every preimage and on every
  /// untilE/fairEG fixpoint iteration; throwing
  /// (conventionally CancelledError) aborts the check.  The hook runs on
  /// the checking thread, so it may inspect the system's BDD manager
  /// (e.g. liveNodeCount() against a budget) without synchronization.
  std::function<void()> cancelCheck;
};

/// True iff a Checker on `sys` folds every preimage through the cone of
/// influence, under either engine: the system has a partition and its
/// alphabet is smaller than its context (a component in a shared context).
/// Such a checker never reads the monolithic relation for a preimage — only
/// a counterexample trace does — so nothing need probe or materialize it
/// before a check.
bool takesCone(const SymbolicSystem& sys) noexcept;

/// Result of one ⊨_r check with the resource data the paper's figures
/// report (verdict, wall time, BDD counters).
struct CheckResult {
  bool holds = false;
  double seconds = 0.0;
  std::uint64_t bddNodesAllocated = 0;  ///< manager total at end of check
  std::uint64_t transNodes = 0;         ///< node count of the transition rel.
  std::uint64_t peakLiveNodes = 0;      ///< high-water live nodes this check
  double cacheHitRate = 0.0;            ///< computed-table hits/lookups
  bool usedPartition = false;           ///< preimages ran partitioned
  /// CheckerOptions::clusterThreshold the check ran under (also recorded
  /// for monolithic runs, where it has no effect).
  std::uint64_t clusterThreshold = 0;
  std::string specText;
  std::string specName;
};

class Checker {
 public:
  explicit Checker(const SymbolicSystem& sys, CheckerOptions opts = {});
  /// The checker keeps a reference to the system; binding a temporary
  /// would dangle, so it is rejected at compile time.
  explicit Checker(SymbolicSystem&&) = delete;

  /// States satisfying f, path quantifiers over `fairness`-fair paths.
  /// The result is a BDD over the current bits of the system's variables.
  bdd::Bdd sat(const ctl::FormulaPtr& f,
               const std::vector<ctl::FormulaPtr>& fairness);

  /// States from which a fair path exists (EG_fair true); everything when
  /// `fairness` is empty.  When every constraint is TRUE and the system
  /// stutters by construction (SymbolicSystem::stuttersByConstruction)
  /// this is exactly the state domain, returned without a preimage; on any
  /// other total system (preE(true) is the domain) it is the domain after
  /// that one preimage.  Either way it is computed once per checker.
  bdd::Bdd fairStates(const std::vector<ctl::FormulaPtr>& fairness);

  /// The paper's M ⊨_r f.
  bool holds(const ctl::Restriction& r, const ctl::FormulaPtr& f);
  bool holds(const ctl::Spec& spec);

  /// M ∘ (E, I) ⊨_r f, the expansion of M over E (paper §3.2), where E are
  /// the variables of r and f outside M's alphabet and `foreignDomain`
  /// holds their valid encodings (Context::domainAll; constraining
  /// alphabet variables to theirs as well changes nothing).  No expansion
  /// is built: the checker primes only the alphabet's bits, so every
  /// variable of E keeps its value across a step — its frame in the
  /// expansion, since ∃v'. (v' = v ∧ dom) ∧ X' is the substitution
  /// v' ↦ v.  By Lemma 5 the verdict is also the expansion's over any
  /// larger alphabet.  M must stutter, as every expansion does.  Without
  /// foreign variables this is holds().
  bool holdsOnExpansion(const ctl::Restriction& r, const ctl::FormulaPtr& f,
                        const bdd::Bdd& foreignDomain);

  /// Like holds() but with resource accounting (for the Fig. 7/10/15/17
  /// reproduction): per-check peak live nodes and computed-table hit rate
  /// on top of the allocation totals.
  CheckResult check(const ctl::Spec& spec);

  /// A human-readable description of one violating state, if any.
  std::optional<std::string> violationWitness(const ctl::Restriction& r,
                                              const ctl::FormulaPtr& f);

  /// SMV-style semantics: like holds(), but quantifying only over states
  /// reachable from r.init (the paper instead checks all states satisfying
  /// I — see §2.2; this variant exists for comparison and for models whose
  /// unreachable corner states are irrelevant).
  bool holdsReachable(const ctl::Restriction& r, const ctl::FormulaPtr& f);

  /// For a failing spec of shape AG good (good propositional) return a
  /// shortest concrete trace from an init-state to a violation; nullopt if
  /// the spec holds or has a different shape.  Under a nontrivial fairness
  /// restriction the violation must lie on a fair path, so the trace is a
  /// *fair lasso*: a finite prefix to the violating state followed by a
  /// cycle that visits every fairness constraint (rendered with the
  /// "-- loop starts here --" marker).
  std::optional<std::string> counterexampleTrace(const ctl::Restriction& r,
                                                 const ctl::FormulaPtr& f);

  /// Best-effort counterexample for a spec already found to fail: its
  /// counterexampleTrace(), else one violating state ("violating state:
  /// …").  Empty when there is neither, or when the cancel hook fires
  /// during the search — the verdict is decided either way.
  std::string counterexampleText(const ctl::Spec& spec);

  /// States with at least one successor under the partitioned (or
  /// monolithic) relation — exposed for the partition tests.
  bdd::Bdd preE(const bdd::Bdd& target);

  const SymbolicSystem& system() const noexcept { return sys_; }
  const CheckerOptions& options() const noexcept { return opts_; }
  /// True iff the checker runs the partitioned engine (a component
  /// checker folds through the cone under either engine).
  bool usesPartition() const noexcept { return partitioned_; }
  /// True iff preimages fold through the cone of influence (component
  /// systems, under either engine).
  bool usesCone() const noexcept { return cone_; }

  /// Running totals since construction: preE calls, and those whose cone
  /// left part of every track out (the target read only some of the
  /// variables' next states).  A caller measures a span of checks by the
  /// difference.
  std::uint64_t preimageCount() const noexcept { return preimages_; }
  std::uint64_t conePreimageCount() const noexcept { return conePreimages_; }

 private:
  /// Invoke opts_.cancelCheck if set (see CheckerOptions::cancelCheck).
  void pollCancel() {
    if (opts_.cancelCheck) opts_.cancelCheck();
  }

  /// preE(target ∧ fair).  On the cone path, when the fair region is the
  /// state domain, only the domains of the target's own variables are
  /// conjoined, so the target keeps its narrow support for the cone.
  bdd::Bdd preFair(const bdd::Bdd& target, const bdd::Bdd& fair);
  bdd::Bdd untilE(const bdd::Bdd& f, const bdd::Bdd& g);
  bdd::Bdd fairEG(const bdd::Bdd& region, const std::vector<bdd::Bdd>& fair);
  /// The fairness constraints evaluated as state sets.
  std::vector<bdd::Bdd> fairSets(const std::vector<ctl::FormulaPtr>& fairness);
  /// The fair region for evaluated constraints — the one place sat,
  /// fairStates and violations get it from (see fairStates()).
  bdd::Bdd fairRegion(const std::vector<bdd::Bdd>& fairSets);
  bdd::Bdd satRec(const ctl::FormulaPtr& f,
                  const std::vector<bdd::Bdd>& fairSets,
                  const bdd::Bdd& fair);
  /// sat(init) for a restriction's initial condition.  Every spec of a
  /// module shares its INIT formula, so a propositional one is evaluated
  /// once per checker: afs2(64)'s server INIT conjoins 193 atoms, and
  /// folding them allocates about 30,000 nodes per evaluation.
  bdd::Bdd initStates(const ctl::FormulaPtr& init,
                      const std::vector<bdd::Bdd>& fairSets,
                      const bdd::Bdd& fair);
  bdd::Bdd violations(const ctl::Restriction& r, const ctl::FormulaPtr& f);

  const SymbolicSystem& sys_;
  CheckerOptions opts_;
  bdd::Bdd domain_;     ///< valid current-state encodings
  bdd::Bdd nextVars_;   ///< quantification cube for preimages
  std::uint32_t swapPerm_;  ///< current <-> next over the alphabet's bits
  bool stutters_;       ///< sys.stuttersByConstruction()

  /// One preimage operator per partition track.  When the track's frame
  /// conjuncts are tagged with their variables and the system covers the
  /// context (`local`), the frames are never folded: the schedule holds
  /// only the *core* conjuncts and permId is the partial swap over the
  /// track's owned variables (∃v'. v'=v ∧ dom ∧ X' is the substitution
  /// v'↦v).  The framed variables' domain constraint is NOT applied per
  /// track: every track carries its component's domain conjuncts (the
  /// system invariant), so the local contributions can be disjoined first
  /// and restricted to `domain_` once.  A non-local track uses the full
  /// swap and folds the whole track, frames included.  On the cone path
  /// every track is non-local and its schedule is a cone schedule.
  struct TrackPre {
    std::uint32_t permId;
    bool local;
    PreimageSchedule schedule;
  };
  /// Empty on the monolithic path, unless that path takes the cone.
  std::vector<TrackPre> tracks_;
  bool partitioned_ = false;
  bool cone_ = false;
  /// Cone path: the alphabet variable of each current-state BDD variable
  /// (-1 for none), and each variable's domain (null when it is true).
  std::vector<VarId> varOfBit_;
  std::vector<bdd::Bdd> varDomain_;
  /// EG true, once computed (see fairStates()).
  bdd::Bdd trivialFair_;
  /// The last propositional initial condition and its states.
  ctl::FormulaPtr initFormula_;
  bdd::Bdd initStates_;
  std::uint64_t preimages_ = 0;
  std::uint64_t conePreimages_ = 0;
};

/// A checker kept across checks that each bring their own budget: the
/// system and the Checker built on it (schedules, projections, the fair
/// region and INIT states its restriction gives) survive from one check to
/// the next, while the cancel hook polled is always the one most recently
/// set.  A change of engine or clustering threshold rebuilds the checker.
class KeptChecker {
 public:
  explicit KeptChecker(SymbolicSystem sys) : sys_(std::move(sys)) {}
  /// The checker's cancel hook calls back into this object.
  KeptChecker(const KeptChecker&) = delete;
  KeptChecker& operator=(const KeptChecker&) = delete;

  /// Options for the checks from here on; the checker survives a change of
  /// the hook alone.
  void setOptions(CheckerOptions opts);
  /// The checker, built on first use after construction or an engine or
  /// threshold change.
  Checker& checker();
  /// True iff checker() would return without building one.
  bool built() const noexcept { return checker_ != nullptr; }
  /// Checker::counterexampleText on the kept checker.  The monolithic
  /// relation the trace search materializes is dropped again unless the
  /// system had it before, so the kept system stays as it was.
  std::string counterexample(const ctl::Spec& spec);

  const SymbolicSystem& system() const noexcept { return sys_; }

  /// The checker's running preimage totals (Checker::preimageCount and
  /// conePreimageCount); 0 while none is built.
  std::uint64_t preimageCount() const noexcept {
    return checker_ != nullptr ? checker_->preimageCount() : 0;
  }
  std::uint64_t conePreimageCount() const noexcept {
    return checker_ != nullptr ? checker_->conePreimageCount() : 0;
  }

 private:
  SymbolicSystem sys_;
  CheckerOptions opts_;
  std::unique_ptr<Checker> checker_;
};

}  // namespace cmc::symbolic
