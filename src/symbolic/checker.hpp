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
// by the cross-validation tests).
#pragma once

#include <functional>
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
  /// this is exactly the state domain, returned without a preimage.
  bdd::Bdd fairStates(const std::vector<ctl::FormulaPtr>& fairness);

  /// The paper's M ⊨_r f.
  bool holds(const ctl::Restriction& r, const ctl::FormulaPtr& f);
  bool holds(const ctl::Spec& spec);

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
  /// True iff preimages fold over the partition schedules.
  bool usesPartition() const noexcept { return partitioned_; }

 private:
  /// Invoke opts_.cancelCheck if set (see CheckerOptions::cancelCheck).
  void pollCancel() {
    if (opts_.cancelCheck) opts_.cancelCheck();
  }

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
  bdd::Bdd violations(const ctl::Restriction& r, const ctl::FormulaPtr& f);

  const SymbolicSystem& sys_;
  CheckerOptions opts_;
  bdd::Bdd domain_;     ///< valid current-state encodings
  bdd::Bdd nextVars_;   ///< quantification cube for preimages
  std::uint32_t swapPerm_;
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
  /// swap and folds the whole track, frames included.
  struct TrackPre {
    std::uint32_t permId;
    bool local;
    PreimageSchedule schedule;
  };
  std::vector<TrackPre> tracks_;  ///< empty on the monolithic path
  bool partitioned_ = false;
};

}  // namespace cmc::symbolic
