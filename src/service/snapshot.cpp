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
  // Every fingerprint is finished from a copy of a key state hashed once:
  // the target part by the snapshot, a restriction once per run of specs
  // that share it.  An elaborated module's specs all share one; checking
  // each run keeps every key sound whatever restrictions the specs carry.
  // Each spec's formula is rendered once for its component and composed
  // refs.
  const bool keyed = !snap.modulePrefix.empty();
  std::vector<ObligationRef> refs;
  std::vector<StableHash128> composedKeys;  // per component ref
  for (std::size_t i = 0; i < snap.modules.size(); ++i) {
    const ctl::Restriction* hashed = nullptr;
    StableHash128 moduleKey;
    StableHash128 composedKey;
    for (std::size_t j = 0; j < snap.modules[i].specs.size(); ++j) {
      const ctl::Spec& spec = snap.modules[i].specs[j];
      if (keyed && (hashed == nullptr || hashed->init != spec.r.init ||
                    hashed->fairness != spec.r.fairness)) {
        const std::string restriction = spec.r.toString();
        moduleKey = snap.modulePrefix[i];
        addRestriction(moduleKey, restriction);
        if (snap.composedPrefix) {
          composedKey = *snap.composedPrefix;
          addRestriction(composedKey, restriction);
        }
        hashed = &spec.r;
      }
      ObligationRef r;
      r.moduleIndex = i;
      r.specIndex = j;
      r.target = snap.modules[i].sys.name;
      r.specName = spec.name;
      r.specText = ctl::toString(spec.f);
      r.id = r.target + "/" + r.specName;
      if (keyed) {
        r.fingerprint = finishFingerprint(moduleKey, r.specText, options);
      }
      composedKeys.push_back(composedKey);
      refs.push_back(std::move(r));
    }
  }
  if (options.compose && snap.modules.size() > 1) {
    const std::size_t components = refs.size();
    refs.reserve(2 * components);
    for (std::size_t k = 0; k < components; ++k) {
      ObligationRef r = refs[k];
      r.composed = true;
      r.target = "composed";
      r.id = r.target + "/" + r.specName;
      r.fingerprint =
          snap.composedPrefix
              ? finishFingerprint(composedKeys[k], r.specText, options)
              : "";
      refs.push_back(std::move(r));
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
    const std::vector<smv::Module> parsed = smv::parseProgram(job.smvText);
    snap->parseSeconds = timer.seconds();
    timer.reset();
    snap->modules = smv::elaborateProgram(ctx, parsed);
    snap->elaborateSeconds = timer.seconds();
    if (snap->modules.empty()) {
      throw ModelError("job '" + job.name + "' has no modules");
    }

    const bool composedObligations =
        job.options.compose && snap->modules.size() > 1;
    // Each canonical serialization is hashed into the key prefixes once and
    // dropped.  Best-effort: a failure leaves the job uncached (replay then
    // falls back to the identity key).
    if (wantCanon) {
      WallTimer canonTimer;
      try {
        snap->modulePrefix.reserve(snap->modules.size());
        if (composedObligations) snap->composedPrefix = fingerprintPrefix(true);
        for (const smv::ElaboratedModule& mod : snap->modules) {
          const std::string canon = smv::canonicalModule(ctx, mod);
          addCanon(snap->modulePrefix.emplace_back(fingerprintPrefix(false)),
                   canon);
          if (snap->composedPrefix) addCanon(*snap->composedPrefix, canon);
        }
      } catch (const std::exception&) {
        snap->modulePrefix.clear();
        snap->composedPrefix.reset();
      }
      snap->canonSeconds = canonTimer.seconds();
    }

    // The composition exactly as composed obligations check it:
    // reflexive-closed components folded with ∘.  Built before the module
    // probes cache their products, which addReflexive would then widen.
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
