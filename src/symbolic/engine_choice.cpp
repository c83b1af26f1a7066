#include "symbolic/engine_choice.hpp"

#include <algorithm>
#include <string>

namespace cmc::symbolic {

const char* toString(EngineMode m) noexcept {
  switch (m) {
    case EngineMode::Auto:
      return "auto";
    case EngineMode::Partitioned:
      return "partitioned";
    case EngineMode::Monolithic:
      return "monolithic";
  }
  return "auto";
}

bool engineModeFromString(std::string_view text, EngineMode* out) noexcept {
  if (text == "auto") {
    *out = EngineMode::Auto;
    return true;
  }
  if (text == "partitioned") {
    *out = EngineMode::Partitioned;
    return true;
  }
  if (text == "monolithic") {
    *out = EngineMode::Monolithic;
    return true;
  }
  return false;
}

EngineChoice chooseEngine(const SymbolicSystem& sys) {
  CMC_ASSERT(sys.ctx != nullptr);
  bdd::Manager& mgr = sys.ctx->mgr();

  EngineChoice c;
  c.conjuncts = sys.partition.conjunctCount();
  c.partitionNodes = sys.partition.nodeCount(mgr);
  c.capNodes = std::max(kProbeFloorNodes, kProbeFactor * c.partitionNodes);

  if (sys.transMaterialized()) {
    // Someone already paid for the product (leaf systems build it eagerly);
    // just compare the measured sizes.
    c.monolithicNodes = mgr.dagSize(sys.monolithic_);
    c.usePartitioned = c.monolithicNodes > c.capNodes;
    c.reason = c.usePartitioned
                   ? "materialized monolithic relation exceeds cap"
                   : "materialized monolithic relation within cap";
    return c;
  }

  // Capped incremental probe: fold the product conjunct by conjunct and
  // bail out when an intermediate crosses the cap.  dagSize() is a full
  // DAG walk (mark + unmark), so walking after *every* conjunct costs as
  // much as the materialization itself on models whose product stays
  // small — exactly the models where auto must match forced-monolithic
  // wall clock.  The manager's O(1) allocation counter is the trigger
  // instead: walk only once the probe has allocated another cap's worth
  // of nodes since the last walk, and once at the end.  A completing
  // probe therefore does O(allocations / cap) walks, and an aborting one
  // still stops within O(cap) allocations of the crossing.
  c.probed = true;
  // The probe is an allocation burst on the caller's manager.  Mid-probe
  // auto-GC is unproductive (the accumulators are externally referenced),
  // so the 25% rule can double the auto-GC threshold — repeatedly — and an
  // abort leaves the dead intermediates in the live-node count until the
  // next sweep.  Both distort BudgetToken's live-node recheck on
  // tight-budget jobs into spurious MemoryOut/Inconclusive verdicts, so
  // the threshold is pinned across the probe and every non-caching exit
  // sweeps the probe's allocations before returning.
  const std::uint64_t savedGcThreshold = mgr.gcThreshold();
  std::uint64_t lastWalkAlloc = mgr.stats().nodesAllocatedTotal;
  const auto abortsProbe = [&](const bdd::Bdd& f) {
    if (mgr.stats().nodesAllocatedTotal - lastWalkAlloc <= c.capNodes) {
      return false;
    }
    lastWalkAlloc = mgr.stats().nodesAllocatedTotal;
    return mgr.dagSize(f) > c.capNodes;
  };
  bool aborted = false;
  bdd::Bdd acc = mgr.bddFalse();
  for (const PartitionedRelation& track : sys.partition.tracks) {
    bdd::Bdd prod = mgr.bddTrue();
    for (const Conjunct& cj : track.conjuncts()) {
      prod &= cj.rel;
      if (abortsProbe(prod)) {
        c.monolithicNodes = mgr.dagSize(prod);  // lower bound at abort
        aborted = true;
        break;
      }
    }
    if (aborted) break;
    acc |= prod;
    if (abortsProbe(acc)) {
      c.monolithicNodes = mgr.dagSize(acc);
      aborted = true;
      break;
    }
  }
  if (aborted) {
    c.probeAborted = true;
    c.usePartitioned = true;
    c.reason = "monolithic probe exceeded cap; keeping partition";
    acc = bdd::Bdd();  // release before the sweep so the nodes actually die
    mgr.setGcThreshold(savedGcThreshold);
    mgr.collectGarbage();
    return c;
  }

  // The sparse trigger can let a product complete past the cap (it is a
  // rate limiter, not the measurement); the final walk is authoritative.
  c.monolithicNodes = mgr.dagSize(acc);
  if (c.monolithicNodes > c.capNodes) {
    c.usePartitioned = true;
    c.reason = "completed monolithic product exceeds cap; keeping partition";
    acc = bdd::Bdd();
    mgr.setGcThreshold(savedGcThreshold);
    mgr.collectGarbage();
    return c;
  }
  c.usePartitioned = false;
  c.reason = "monolithic product fits within cap";
  // The probe just *is* the materialization — cache it so transBdd() and a
  // worker importing this system reuse it instead of rebuilding.  The
  // cached product keeps its intermediates' survivors live, so no forced
  // sweep here: the next natural collection reclaims the rest.
  sys.monolithic_ = std::move(acc);
  mgr.setGcThreshold(savedGcThreshold);
  return c;
}

}  // namespace cmc::symbolic
