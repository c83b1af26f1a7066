#include "service/snapshot.hpp"

#include <utility>

#include "service/obligation_cache.hpp"
#include "smv/fingerprint.hpp"
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

SnapshotResult buildSnapshot(const VerificationJob& job, bool wantCanon) {
  SnapshotResult result;
  try {
    auto snap = std::make_shared<ElaborationSnapshot>();
    snap->ctx = std::make_unique<symbolic::Context>(1 << 14);
    symbolic::Context& ctx = *snap->ctx;

    WallTimer elaborateTimer;
    snap->modules = job.factory ? job.factory(ctx)
                                : smv::elaborateProgram(ctx, job.smvText);
    if (snap->modules.empty()) {
      throw ModelError("job '" + job.name + "' has no modules");
    }
    snap->elaborateSeconds = elaborateTimer.seconds();

    // Canonical serializations are best-effort: a failure leaves the job
    // uncached (replay then falls back to the identity key).
    if (wantCanon) {
      try {
        snap->canon.reserve(snap->modules.size());
        for (const smv::ElaboratedModule& mod : snap->modules) {
          snap->canon.push_back(smv::canonicalModule(ctx, mod));
        }
      } catch (const std::exception&) {
        snap->canon.clear();
      }
    }

    snap->moduleChoice.resize(snap->modules.size());
    if (job.options.engine == symbolic::EngineMode::Auto) {
      for (std::size_t i = 0; i < snap->modules.size(); ++i) {
        snap->moduleChoice[i] = symbolic::chooseEngine(snap->modules[i].sys);
      }
      if (job.options.compose && snap->modules.size() > 1) {
        // Probe the composition the way composed obligations build it:
        // reflexive-closed components folded with ∘.  The temporary's
        // nodes die in the collection below; only the decision survives.
        std::vector<symbolic::SymbolicSystem> parts;
        parts.reserve(snap->modules.size());
        for (const smv::ElaboratedModule& mod : snap->modules) {
          symbolic::SymbolicSystem sys = mod.sys;
          symbolic::addReflexive(sys);
          parts.push_back(std::move(sys));
        }
        const symbolic::SymbolicSystem composed =
            symbolic::composeAll(parts);
        snap->composedChoice = symbolic::chooseEngine(composed);
        snap->hasComposedChoice = true;
      }
    }

    // Final sweep: drop probe intermediates, then freeze.  From here on the
    // manager is immutable — importers rely on stable node indices.
    ctx.mgr().collectGarbage();
    snap->liveNodes = ctx.mgr().liveNodeCount();

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
