// Tests for cross-manager BDD import (bdd::Importer), snapshot-backed
// system transfer (symbolic::importSystem), the adaptive engine chooser
// and its probe's GC hygiene, and the service-level snapshot sharing they
// enable.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bdd/io.hpp"
#include "service/budget.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/engine_choice.hpp"
#include "symbolic/system.hpp"

namespace cmc {
namespace {

namespace fs = std::filesystem;

/// A function with shared structure over the first six variables; built
/// identically in any manager that knows them, so cross-manager equality
/// reduces to handle equality (canonicity).
bdd::Bdd sampleFunction(bdd::Manager& m) {
  const bdd::Bdd x0 = m.bddVar(0), x1 = m.bddVar(1), x2 = m.bddVar(2);
  const bdd::Bdd x3 = m.bddVar(3), x4 = m.bddVar(4), x5 = m.bddVar(5);
  return ((x0 & x1) | (x2 ^ x3)) & (x4.implies(x5) | (x1 & x5));
}

TEST(Importer, SameOrderCopyIsStructurallyIdentical) {
  bdd::Manager src;
  src.ensureVars(6);
  const bdd::Bdd f = sampleFunction(src);

  bdd::Manager dst;
  bdd::Importer imp(dst, src);
  EXPECT_TRUE(imp.sameOrder());
  const bdd::Bdd g = imp.import(f);

  // Canonicity: the import must coincide with building the function
  // natively, node for node.
  EXPECT_EQ(g, sampleFunction(dst));
  EXPECT_EQ(dst.dagSize(g), src.dagSize(f));
  EXPECT_GT(imp.translatedCount(), 0u);
}

TEST(Importer, TerminalsAndSelfImportShortcut) {
  bdd::Manager src;
  src.ensureVars(2);
  bdd::Manager dst;
  bdd::Importer imp(dst, src);
  EXPECT_EQ(imp.import(src.bddTrue()), dst.bddTrue());
  EXPECT_EQ(imp.import(src.bddFalse()), dst.bddFalse());

  // Importing into the source manager itself is the identity.
  bdd::Importer self(src, src);
  const bdd::Bdd v = src.bddVar(1);
  EXPECT_EQ(self.import(v), v);
}

TEST(Importer, SharedSubgraphsStayShared) {
  bdd::Manager src;
  src.ensureVars(4);
  // The shared part must sit *below* the distinguishing variables to
  // survive canonicalization: both roots branch into the same (x2 & x3)
  // subgraph.
  const bdd::Bdd h = src.bddVar(2) & src.bddVar(3);
  const bdd::Bdd f = src.bddVar(0) | h;
  const bdd::Bdd g = src.bddVar(1) & h;

  bdd::Manager dst;
  bdd::Importer imp(dst, src);
  const bdd::Bdd fi = imp.import(f);
  const bdd::Bdd gi = imp.import(g);
  // The shared (x2 & x3) subgraph is translated once, not per root.
  EXPECT_LT(imp.translatedCount(), src.dagSize(f) + src.dagSize(g));

  // Re-importing a translated root is a map lookup returning the same
  // canonical handle.
  const std::size_t before = imp.translatedCount();
  EXPECT_EQ(imp.import(f), fi);
  EXPECT_EQ(imp.translatedCount(), before);
  EXPECT_EQ(gi, dst.bddVar(1) & dst.bddVar(2) & dst.bddVar(3));
}

TEST(Importer, PermutedDestinationOrderPreservesSemantics) {
  bdd::Manager src;
  src.ensureVars(6);
  const bdd::Bdd f = sampleFunction(src);

  // A destination whose level order genuinely differs from the source's.
  bdd::Manager dst;
  dst.ensureVars(6);
  dst.swapAdjacentLevels(0);
  dst.swapAdjacentLevels(2);
  dst.swapAdjacentLevels(1);

  bdd::Importer imp(dst, src);
  EXPECT_FALSE(imp.sameOrder());
  const bdd::Bdd g = imp.import(f);
  // Canonical in dst's order, so equality with the native build is both
  // structural and semantic.
  EXPECT_EQ(g, sampleFunction(dst));
}

TEST(Importer, SiftedSourcePreservesSemantics) {
  bdd::Manager src;
  src.ensureVars(6);
  const bdd::Bdd f = sampleFunction(src);
  src.reorderSift();  // permute the *source* order before exporting

  bdd::Manager dst;
  bdd::Importer imp(dst, src);
  const bdd::Bdd g = imp.import(f);
  EXPECT_EQ(g, sampleFunction(dst));
}

TEST(Importer, AdoptedContextVariablesLineUpWithImports) {
  symbolic::Context src;
  const symbolic::VarId s = src.addEnumVar("s", {"a", "b", "c"});
  const symbolic::VarId t = src.addBoolVar("t");

  symbolic::Context dst;
  dst.adoptVariablesFrom(src);
  ASSERT_EQ(dst.varCount(), src.varCount());
  EXPECT_EQ(dst.bitCount(), src.bitCount());
  EXPECT_EQ(dst.variable(s).bits, src.variable(s).bits);

  // Encodings built in the adopted context coincide with imports of the
  // source's encodings — the precondition snapshot workers rely on.
  bdd::Importer imp(dst.mgr(), src.mgr());
  EXPECT_TRUE(imp.sameOrder());
  EXPECT_EQ(imp.import(src.varEq(s, "b")), dst.varEq(s, "b"));
  EXPECT_EQ(imp.import(src.varEq(t, "1", /*next=*/true)),
            dst.varEq(t, "1", /*next=*/true));
}

const char* kTwoModuleSmv = R"(
MODULE left
VAR x : {on, off};
ASSIGN next(x) := case x = on : off; 1 : on; esac;
SPEC AG (x = on | x = off)
MODULE right
VAR y : {p, q, r};
ASSIGN next(y) := case y = p : q; y = q : r; 1 : p; esac;
SPEC AG (EF (y = r))
)";

TEST(ImportSystem, ImportedCompositionChecksIdentically) {
  symbolic::Context src;
  std::vector<smv::ElaboratedModule> mods =
      smv::elaborateProgram(src, kTwoModuleSmv);
  ASSERT_EQ(mods.size(), 2u);
  std::vector<symbolic::SymbolicSystem> parts;
  for (smv::ElaboratedModule& m : mods) {
    symbolic::addReflexive(m.sys);  // tags frame conjuncts on the tracks
    parts.push_back(m.sys);
  }
  const symbolic::SymbolicSystem composed = symbolic::composeAll(parts);

  symbolic::Context dst;
  dst.adoptVariablesFrom(src);
  bdd::Importer imp(dst.mgr(), src.mgr());
  const symbolic::SymbolicSystem copy =
      symbolic::importSystem(dst, imp, composed, /*wantMonolithic=*/false);

  EXPECT_EQ(copy.vars, composed.vars);
  EXPECT_EQ(copy.partition.conjunctCount(), composed.partition.conjunctCount());
  EXPECT_EQ(copy.transNodeCount(), composed.transNodeCount());

  // Both copies decide every spec identically, under either engine.
  for (const smv::ElaboratedModule& m : mods) {
    for (const ctl::Spec& spec : m.specs) {
      for (bool partitioned : {true, false}) {
        symbolic::CheckerOptions copts;
        copts.usePartitionedTrans = partitioned;
        symbolic::Checker orig(composed, copts);
        symbolic::Checker imported(copy, copts);
        EXPECT_EQ(orig.holds(spec), imported.holds(spec))
            << spec.name << " partitioned=" << partitioned;
      }
    }
  }
}

TEST(EngineChoice, ModeStringsRoundTrip) {
  using symbolic::EngineMode;
  EngineMode m = EngineMode::Auto;
  EXPECT_TRUE(symbolic::engineModeFromString("partitioned", &m));
  EXPECT_EQ(m, EngineMode::Partitioned);
  EXPECT_TRUE(symbolic::engineModeFromString("monolithic", &m));
  EXPECT_EQ(m, EngineMode::Monolithic);
  EXPECT_TRUE(symbolic::engineModeFromString("auto", &m));
  EXPECT_EQ(m, EngineMode::Auto);
  EXPECT_FALSE(symbolic::engineModeFromString("quantum", &m));
  // Engine names that no longer exist are ordinary unknowns.
  EXPECT_FALSE(symbolic::engineModeFromString("bes", &m));
  EXPECT_FALSE(symbolic::engineModeFromString("race", &m));
  EXPECT_STREQ(symbolic::toString(EngineMode::Auto), "auto");
}

TEST(EngineChoice, SmallProductCompletesProbeAndCaches) {
  symbolic::Context ctx;
  smv::ElaboratedModule mod = smv::elaborateText(ctx, R"(
MODULE tiny
VAR s : {a, b};
ASSIGN next(s) := case s = a : b; 1 : a; esac;
SPEC AG (s = a | s = b)
)");
  ASSERT_FALSE(mod.sys.transMaterialized());
  const symbolic::EngineChoice c = symbolic::chooseEngine(mod.sys);
  EXPECT_TRUE(c.probed);
  EXPECT_FALSE(c.probeAborted);
  EXPECT_FALSE(c.usePartitioned);  // a two-state product always fits
  EXPECT_GT(c.capNodes, 0u);
  EXPECT_GT(c.monolithicNodes, 0u);
  EXPECT_FALSE(c.reason.empty());
  // The probe's product is cached, not thrown away.
  EXPECT_TRUE(mod.sys.transMaterialized());
}

/// Sweep every shipped model: EngineMode::Auto must agree verdict-for-
/// verdict with both forced engines.  This is the chooser's correctness
/// contract — it may only ever change performance.
TEST(EngineChoice, AutoMatchesForcedEnginesOnAllModels) {
  const fs::path dir(CMC_MODELS_DIR);
  ASSERT_TRUE(fs::exists(dir));
  std::size_t models = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".smv") continue;
    ++models;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();

    std::map<symbolic::EngineMode, std::map<std::string, service::Verdict>>
        verdicts;
    for (symbolic::EngineMode mode :
         {symbolic::EngineMode::Auto, symbolic::EngineMode::Partitioned,
          symbolic::EngineMode::Monolithic}) {
      service::ServiceOptions sopts;
      sopts.threads = 2;
      sopts.cacheEnabled = false;  // no cross-engine sharing of verdicts
      service::VerificationService svc(sopts);
      service::VerificationJob job;
      job.name = entry.path().stem().string();
      job.smvText = text.str();
      job.options.engine = mode;
      const service::JobReport report = svc.run(job);
      for (const service::ObligationOutcome& o : report.obligations) {
        verdicts[mode][o.id] = o.verdict;
        if (mode == symbolic::EngineMode::Auto) {
          // Every auto-resolved obligation records how it resolved.
          EXPECT_FALSE(o.engineChoiceJson.empty()) << job.name << " " << o.id;
        }
      }
    }
    EXPECT_EQ(verdicts[symbolic::EngineMode::Auto],
              verdicts[symbolic::EngineMode::Partitioned])
        << entry.path();
    EXPECT_EQ(verdicts[symbolic::EngineMode::Auto],
              verdicts[symbolic::EngineMode::Monolithic])
        << entry.path();
  }
  EXPECT_GT(models, 0u);
}

// chooseEngine's materialization probe must not leak its allocation burst
// into the caller's GC policy or live-node count: a tight BudgetToken
// checked right after a probe used to see the probe's dead intermediates
// and report a spurious MemoryOut.

TEST(EngineProbe, RestoresGcThresholdAndSweepsAbortedProbes) {
  // The composed AFS-2 system is the documented blow-up case: the probe
  // aborts at the cap, so every allocation it made is garbage.
  std::ifstream in(fs::path(CMC_MODELS_DIR) / "afs2_composed.smv");
  std::stringstream text;
  text << in.rdbuf();
  symbolic::Context ctx(1 << 16);
  const std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, text.str());
  std::vector<symbolic::SymbolicSystem> parts;
  for (const smv::ElaboratedModule& mod : modules) {
    symbolic::SymbolicSystem sys = mod.sys;
    symbolic::addReflexive(sys);
    parts.push_back(std::move(sys));
  }
  const symbolic::SymbolicSystem composed = symbolic::composeAll(parts);

  ctx.mgr().setGcThreshold(256);
  ctx.mgr().collectGarbage();
  const std::uint64_t liveBefore = ctx.mgr().liveNodeCount();

  const symbolic::EngineChoice choice = symbolic::chooseEngine(composed);
  EXPECT_TRUE(choice.probed);
  EXPECT_TRUE(choice.probeAborted);
  EXPECT_TRUE(choice.usePartitioned);

  // The probe's auto-GC doubling is rolled back...
  EXPECT_EQ(ctx.mgr().gcThreshold(), 256u);
  // ...and its dead intermediates are swept before returning, so a
  // live-node budget recheck sees the pre-probe footprint.
  EXPECT_LE(ctx.mgr().liveNodeCount(), liveBefore);

  // A BudgetToken sized to the model (plus slack) stays usable: the probe
  // must not have consumed the budget.
  service::ObligationLimits limits;
  limits.nodeBudget = liveBefore + 4096;
  service::BudgetToken token(ctx.mgr(), limits);
  EXPECT_NO_THROW(token.check());
}

TEST(EngineProbe, CompletingProbeCachesTheProductAndRestoresThreshold) {
  symbolic::Context ctx(1 << 16);
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)");
  ctx.mgr().setGcThreshold(256);
  const symbolic::EngineChoice choice = symbolic::chooseEngine(mod.sys);
  EXPECT_TRUE(choice.probed);
  EXPECT_FALSE(choice.usePartitioned);
  EXPECT_EQ(ctx.mgr().gcThreshold(), 256u);
  // The probe's product is cached, so deciding again is probe-free.
  EXPECT_TRUE(mod.sys.transMaterialized());
  const symbolic::EngineChoice again = symbolic::chooseEngine(mod.sys);
  EXPECT_FALSE(again.probed);
  EXPECT_FALSE(again.usePartitioned);
}

TEST(Snapshot, BuildOnceImportPerWorker) {
  service::VerificationJob job;
  job.name = "two";
  job.smvText = kTwoModuleSmv;
  const service::SnapshotResult r =
      service::buildSnapshot(job, /*wantCanon=*/true);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_NE(r.snapshot, nullptr);
  const service::ElaborationSnapshot& snap = *r.snapshot;
  ASSERT_EQ(snap.modules.size(), 2u);
  EXPECT_EQ(snap.canon.size(), 2u);
  EXPECT_GT(snap.liveNodes, 0u);

  // A worker-style consumer: adopted layout, pre-sized context, imported
  // module — must decide the module's specs like the snapshot's own copy.
  symbolic::Context worker(service::workerArenaCapacity(snap.liveNodes),
                           service::workerCacheCapacity(snap.liveNodes));
  worker.adoptVariablesFrom(*snap.ctx);
  bdd::Importer imp(worker.mgr(), snap.ctx->mgr());
  const smv::ElaboratedModule local = service::importModule(
      worker, imp, snap.modules.front(), /*wantMonolithic=*/false);
  ASSERT_FALSE(local.specs.empty());
  symbolic::Checker checker(local.sys);
  EXPECT_TRUE(checker.holds(local.specs.front()));
  // Arena pre-sizing: the import alone can never outgrow the arena.
  EXPECT_LE(worker.mgr().liveNodeCount(),
            service::workerArenaCapacity(snap.liveNodes));
}

TEST(Snapshot, ServiceMemoizesSnapshotsAcrossRuns) {
  service::MetricsRegistry metrics;
  service::ServiceOptions sopts;
  sopts.threads = 2;
  sopts.metrics = &metrics;
  service::VerificationService svc(sopts);

  service::VerificationJob job;
  job.name = "memo";
  job.smvText = kTwoModuleSmv;
  const service::JobReport first = svc.run(job);
  EXPECT_EQ(first.verdict, service::Verdict::Holds);
  EXPECT_EQ(metrics.counterValue("snapshot_builds"), 1u);

  // A warm resubmission of the same text reuses the memoized snapshot.
  const service::JobReport second = svc.run(job);
  EXPECT_EQ(second.verdict, service::Verdict::Holds);
  EXPECT_EQ(metrics.counterValue("snapshot_builds"), 1u);
  EXPECT_GE(metrics.counterValue("snapshot_reuses"), 1u);
}

TEST(Snapshot, PhaseTimersLandInReportAndTrace) {
  service::ServiceOptions sopts;
  sopts.threads = 2;
  service::VerificationService svc(sopts);
  service::VerificationJob job;
  job.name = "timers";
  job.smvText = kTwoModuleSmv;
  job.options.engine = symbolic::EngineMode::Auto;
  service::RunTrace trace;
  const service::JobReport report = svc.run(job, &trace);

  ASSERT_FALSE(report.obligations.empty());
  for (const service::ObligationOutcome& o : report.obligations) {
    ASSERT_FALSE(o.attempts.empty());
    // Snapshot-backed attempts import instead of re-elaborating.
    EXPECT_EQ(o.attempts.front().elaborateMs, 0.0);
    EXPECT_GE(o.attempts.front().importMs, 0.0);
    EXPECT_GE(o.attempts.front().fixpointMs, 0.0);
    EXPECT_FALSE(o.engineChoiceJson.empty());
  }
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"import_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"fixpoint_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"engine_choice\""), std::string::npos);
  EXPECT_GE(trace.countContaining("\"event\": \"snapshot\""), 1u);
  EXPECT_GE(trace.countContaining("\"event\": \"engine_choice\""), 1u);
}

}  // namespace
}  // namespace cmc
