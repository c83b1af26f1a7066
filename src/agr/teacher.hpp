// The service-backed teacher for assume-guarantee learning (agr layer).
//
// Every oracle query is answered by composing the G1 components with a
// synthetic environment module (agr/assumption.hpp) and submitting the
// result to the ordinary VerificationService as a factory job.  A query is
// therefore a first-class obligation: it is elaborated into a snapshot,
// fingerprinted (with the assumption digest folded in), served from the
// obligation cache on a warm rerun, budgeted, and cancellable — the
// learner gets the whole service stack for free.
//
// Query kinds:
//  - pairSafe(a, b): does P survive one environment step a→b from any
//    I-state?  Composes G1 with the single-step module; memoized, so L*'s
//    repeated table fills cost one service query per *distinct* pair.
//  - baseSafe(): do G1's own moves (and the global stutter) preserve P?
//    Checked once up front; a failure here is independent of any
//    assumption.
//  - member(w): the L* membership oracle — all adjacent pairs of w safe.
//  - premise1(A): ⟨A⟩ G1 ⟨P⟩ — the real soundness gate, exercising the
//    assumption→SMV bridge.
//
// Budget-exhausted queries (Timeout/MemoryOut/Inconclusive/...) return
// Undecided; the engine then abandons learning for this spec and falls
// back to the direct composed check, so a starved oracle can never turn
// into a wrong verdict.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agr/assumption.hpp"
#include "agr/learner.hpp"
#include "service/scheduler.hpp"

namespace cmc::agr {

/// A composed spec in the shape the learning rules handle: a conjunction
/// of propositional conjuncts and one-step conjuncts p ⇒ AX q, under a
/// restriction with propositional init and no (nontrivial) fairness.
struct LearnableSpec {
  ctl::Spec spec;       ///< the original spec (name, r, f)
  std::size_t owner;    ///< index of the module that declared it
  /// The p ⇒ AX q conjuncts, as (p, q).
  std::vector<std::pair<ctl::FormulaPtr, ctl::FormulaPtr>> steps;
  /// The propositional conjuncts.
  std::vector<ctl::FormulaPtr> props;
};

/// Decompose `spec` into the learnable shape, or nullopt (with a reason)
/// when learning must refuse: non-propositional init, nontrivial fairness,
/// or a conjunct that is neither propositional nor p ⇒ AX q.
std::optional<LearnableSpec> decomposeLearnable(const ctl::Spec& spec,
                                                std::size_t owner,
                                                std::string* reason);

enum class QueryVerdict { Safe, Unsafe, Undecided };

class Teacher {
 public:
  struct Stats {
    std::size_t membershipQueries = 0;  ///< words asked by the learner
    std::size_t pairQueries = 0;        ///< distinct pair-safety service jobs
    std::size_t candidateQueries = 0;   ///< premise-1 service jobs
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheInserts = 0;
  };

  /// `modules` is the whole parsed program (factory lambdas share it);
  /// `g1` indexes the component group carrying the spec; `options` is the
  /// job configuration queries run under (compose and learn already
  /// cleared by the engine).  `trace` may be null.
  Teacher(service::VerificationService& svc,
          std::shared_ptr<const std::vector<smv::Module>> modules,
          std::vector<std::size_t> g1, Alphabet alphabet, LearnableSpec spec,
          service::JobOptions options, std::string jobName,
          service::RunTrace* trace);

  /// G1's own moves and the global stutter preserve P from every I-state.
  QueryVerdict baseSafe();
  /// P survives the single environment step a→b (memoized).
  QueryVerdict pairSafe(std::size_t a, std::size_t b);
  /// L* membership: every adjacent pair of `w` is safe.
  QueryVerdict member(const Word& w);
  /// ⟨A⟩ G1 ⟨P⟩ through the assumption→SMV bridge.
  QueryVerdict premise1(const Assumption& assumption);

  const Stats& stats() const noexcept { return stats_; }
  const Alphabet& alphabet() const noexcept { return alphabet_; }
  const LearnableSpec& spec() const noexcept { return spec_; }

 private:
  /// Run one factory query: G1 (+ optional environment module) composed,
  /// checked against the spec under r = (I, {}).
  service::Verdict runQuery(const std::string& kind,
                            std::optional<smv::Module> environment,
                            const std::string& digest);

  service::VerificationService& svc_;
  std::shared_ptr<const std::vector<smv::Module>> modules_;
  std::vector<std::size_t> g1_;
  Alphabet alphabet_;
  LearnableSpec spec_;
  service::JobOptions options_;
  std::string jobName_;
  service::RunTrace* trace_;

  Stats stats_;
  std::map<std::pair<std::size_t, std::size_t>, QueryVerdict> pairMemo_;
  std::optional<QueryVerdict> baseMemo_;
};

}  // namespace cmc::agr
