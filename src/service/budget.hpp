// The resource governor (service layer): a cooperative cancellation token
// that turns an ObligationLimits into a CheckerOptions::cancelCheck hook.
//
// The checker polls the token on entry to every check, before every
// preimage and on every fixpoint iteration; the token throws
// symbolic::CancelledError with the exhausted dimension (Deadline or
// NodeBudget), which the scheduler maps to the Timeout / MemoryOut
// verdicts.  This is the only mechanism by which a
// blown-up BDD stops an obligation — there is no thread killing, so a
// manager is never left in a broken state.
#pragma once

#include "bdd/manager.hpp"
#include "service/job.hpp"
#include "symbolic/checker.hpp"
#include "util/timer.hpp"

namespace cmc::service {

class BudgetToken {
 public:
  /// The token reads (and, over budget, garbage-collects) `mgr`, so it must
  /// be used on the thread that owns the manager — which is automatic, as
  /// the checker invokes the hook on the checking thread.
  BudgetToken(bdd::Manager& mgr, ObligationLimits limits)
      : mgr_(&mgr), limits_(limits) {}

  /// Throws symbolic::CancelledError when a limit is exhausted.  The node
  /// budget is checked against *live* nodes after a forced collection, so
  /// dead intermediates never cause a spurious MemoryOut.
  void check();

  /// The CheckerOptions::cancelCheck adapter.
  void operator()() { check(); }

  double elapsedSeconds() const { return timer_.seconds(); }
  const ObligationLimits& limits() const noexcept { return limits_; }

 private:
  bdd::Manager* mgr_;
  ObligationLimits limits_;
  WallTimer timer_;
};

}  // namespace cmc::service
