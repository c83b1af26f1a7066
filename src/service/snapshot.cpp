#include "service/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "comp/classify.hpp"
#include "service/obligation_cache.hpp"
#include "smv/fingerprint.hpp"
#include "smv/parser.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "util/timer.hpp"

namespace cmc::service {

std::vector<ObligationRef> enumerateObligations(const ElaborationSnapshot& snap,
                                                const JobOptions& options) {
  const auto fingerprintFor = [&](std::size_t i, std::size_t j,
                                  bool composed) -> std::string {
    if (snap.canon.empty()) return "";
    return obligationFingerprint(snap.canon, i, composed,
                                 snap.modules[i].specs[j], options);
  };
  std::vector<ObligationRef> refs;
  for (std::size_t i = 0; i < snap.modules.size(); ++i) {
    for (std::size_t j = 0; j < snap.modules[i].specs.size(); ++j) {
      ObligationRef r;
      r.moduleIndex = i;
      r.specIndex = j;
      r.target = snap.modules[i].sys.name;
      r.specName = snap.modules[i].specs[j].name;
      r.specText = ctl::toString(snap.modules[i].specs[j].f);
      r.id = r.target + "/" + r.specName;
      r.fingerprint = fingerprintFor(i, j, /*composed=*/false);
      refs.push_back(std::move(r));
    }
  }
  if (options.compose && snap.modules.size() > 1) {
    for (std::size_t i = 0; i < snap.modules.size(); ++i) {
      for (std::size_t j = 0; j < snap.modules[i].specs.size(); ++j) {
        ObligationRef r;
        r.composed = true;
        r.moduleIndex = i;
        r.specIndex = j;
        r.target = "composed";
        r.specName = snap.modules[i].specs[j].name;
        r.specText = ctl::toString(snap.modules[i].specs[j].f);
        r.id = r.target + "/" + r.specName;
        r.fingerprint = fingerprintFor(i, j, /*composed=*/true);
        refs.push_back(std::move(r));
      }
    }
  }
  return refs;
}

bool composes(const std::vector<smv::ElaboratedModule>& modules) {
  if (modules.size() < 2) return false;
  return std::any_of(
      modules.begin(), modules.end(), [](const smv::ElaboratedModule& mod) {
        return std::any_of(mod.specs.begin(), mod.specs.end(),
                           [](const ctl::Spec& spec) {
                             return comp::classify(spec) ==
                                    comp::PropertyClass::Unknown;
                           });
      });
}

SnapshotResult buildSnapshot(const VerificationJob& job, bool wantCanon) {
  SnapshotResult result;
  try {
    auto snap = std::make_shared<ElaborationSnapshot>();
    snap->ctx = std::make_unique<symbolic::Context>(1 << 14);
    symbolic::Context& ctx = *snap->ctx;

    WallTimer timer;
    if (job.factory) {
      snap->modules = job.factory(ctx);
    } else {
      const std::vector<smv::Module> parsed = smv::parseProgram(job.smvText);
      snap->parseSeconds = timer.seconds();
      timer.reset();
      snap->modules = smv::elaborateProgram(ctx, parsed);
    }
    snap->elaborateSeconds = timer.seconds();
    if (snap->modules.empty()) {
      throw ModelError("job '" + job.name + "' has no modules");
    }

    // Canonical serializations are best-effort: a failure leaves the job
    // uncached (replay then falls back to the identity key).
    if (wantCanon) {
      WallTimer canonTimer;
      try {
        snap->canon.reserve(snap->modules.size());
        for (const smv::ElaboratedModule& mod : snap->modules) {
          snap->canon.push_back(smv::canonicalModule(ctx, mod));
        }
      } catch (const std::exception&) {
        snap->canon.clear();
      }
      snap->canonSeconds = canonTimer.seconds();
    }

    // The composition exactly as composed obligations check it:
    // reflexive-closed components folded with ∘.  Built before the module
    // probes cache their products, which addReflexive would then widen.
    const bool composedObligations =
        job.options.compose && snap->modules.size() > 1;
    if (composedObligations && composes(snap->modules)) {
      WallTimer composeTimer;
      std::vector<symbolic::SymbolicSystem> parts;
      parts.reserve(snap->modules.size());
      for (const smv::ElaboratedModule& mod : snap->modules) {
        symbolic::SymbolicSystem sys = mod.sys;
        symbolic::addReflexive(sys);
        parts.push_back(std::move(sys));
      }
      snap->composed = symbolic::composeAll(parts);
      snap->composeSeconds = composeTimer.seconds();
    }

    snap->moduleChoice.resize(snap->modules.size());
    if (job.options.engine == symbolic::EngineMode::Auto) {
      WallTimer probeTimer;
      // A module whose checker takes the cone reads no product, so only
      // one that covers the context (a single-module program) is probed.
      const bool probes =
          snap->composed.has_value() ||
          std::any_of(snap->modules.begin(), snap->modules.end(),
                      [](const smv::ElaboratedModule& mod) {
                        return !symbolic::takesCone(mod.sys);
                      });
      // chooseEngine restores the GC threshold it finds.  Once a cached
      // product holds the live count above that threshold, every later
      // probe would open with a full collection that frees nothing; keep
      // the trigger above the live count instead.  Elaboration's garbage
      // goes first when anything is probed, or it would inflate that
      // trigger and with it the arena the probes grow.  The sweep at
      // freeze collects whatever the probes leave behind.
      bdd::Manager& mgr = ctx.mgr();
      if (probes) mgr.collectGarbage();
      const auto probe = [&mgr](const symbolic::SymbolicSystem& sys) {
        if (mgr.gcThreshold() < 2 * mgr.liveNodeCount()) {
          mgr.setGcThreshold(2 * mgr.liveNodeCount());
        }
        return symbolic::chooseEngine(sys);
      };
      for (std::size_t i = 0; i < snap->modules.size(); ++i) {
        const symbolic::SymbolicSystem& sys = snap->modules[i].sys;
        symbolic::EngineChoice& choice = snap->moduleChoice[i];
        if (!symbolic::takesCone(sys)) {
          choice = probe(sys);
          continue;
        }
        choice.conjuncts = sys.partition.conjunctCount();
        choice.partitionNodes = sys.partition.nodeCount(mgr);
        choice.reason =
            "component checker folds every preimage through its target's "
            "cone; no product probed";
      }
      if (snap->composed.has_value()) {
        // A completed probe caches its product in the composition, which
        // composed attempts on the monolithic engine then import.
        snap->composedChoice = probe(*snap->composed);
      } else if (composedObligations) {
        snap->composedChoice.reason =
            "Rules 1-3 decide every composed spec on the components; no "
            "composition built or probed";
      }
      if (probes) snap->probeSeconds = probeTimer.seconds();
    }

    // Final sweep: drop probe and composition intermediates, count what
    // each module's import copies, then freeze.  From here on the manager
    // is immutable — importers rely on stable node indices.
    ctx.mgr().collectGarbage();
    snap->liveNodes = ctx.mgr().liveNodeCount();
    snap->nodesAllocated = ctx.mgr().stats().nodesAllocatedTotal;
    snap->gcRuns = ctx.mgr().stats().gcRuns;
    snap->moduleNodes.reserve(snap->modules.size());
    for (const smv::ElaboratedModule& mod : snap->modules) {
      std::vector<bdd::Bdd> rels;
      for (const symbolic::PartitionedRelation& t : mod.sys.partition.tracks) {
        for (const symbolic::Conjunct& c : t.conjuncts()) rels.push_back(c.rel);
      }
      if (mod.sys.transMaterialized()) rels.push_back(mod.sys.monolithic_);
      snap->moduleNodes.push_back(ctx.mgr().dagSize(rels));
    }

    result.snapshot = std::move(snap);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception during elaboration";
  }
  return result;
}

smv::ElaboratedModule importModule(symbolic::Context& dst, bdd::Importer& imp,
                                   const smv::ElaboratedModule& src,
                                   bool wantMonolithic) {
  smv::ElaboratedModule out;
  out.sys = symbolic::importSystem(dst, imp, src.sys, wantMonolithic);
  // Formula trees are context-free and shared_ptr-held with atomic
  // refcounts: share, don't copy.
  out.initFormula = src.initFormula;
  out.fairness = src.fairness;
  out.specs = src.specs;
  return out;
}

}  // namespace cmc::service
