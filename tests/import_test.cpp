// Tests for cross-manager BDD import (bdd::Importer), snapshot-backed
// system transfer (symbolic::importSystem), the adaptive engine chooser
// and its probe's GC hygiene, and the service-level snapshot sharing they
// enable.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
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
#include "test_util.hpp"

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

/// Two components sharing `s`, each with a variable of its own and one
/// spec that fails: neither covers the context, and the consumer reads the
/// producer's variable, so its cone takes in a bit it does not own.
const char* kFailingComponentsSmv = R"(
MODULE producer
VAR s : {idle, busy, done};
    ready : boolean;
ASSIGN
  init(s) := idle;
  next(s) := case s = idle : busy; s = busy : done; 1 : s; esac;
  next(ready) := s = busy;
SPEC AG (s = idle | s = busy)
SPEC AG (EF (s = done))
MODULE consumer
VAR s : {idle, busy, done};
    seen : boolean;
ASSIGN
  init(seen) := 0;
  next(seen) := case s = done : 1; 1 : seen; esac;
SPEC AG (!seen)
SPEC AG (seen -> AX seen)
)";

TEST(EngineChoice, FailingComponentSpecsAgreeUnderEveryEngine) {
  // No shipped model has a failing component spec.  Under auto neither
  // component is probed and neither snapshot module holds a product, so a
  // failing spec's trace materializes the relation within its own attempt:
  // verdicts and counterexamples must be those of the forced engines.
  std::map<symbolic::EngineMode,
           std::map<std::string, std::pair<service::Verdict, std::string>>>
      outcomes;
  for (symbolic::EngineMode mode :
       {symbolic::EngineMode::Auto, symbolic::EngineMode::Partitioned,
        symbolic::EngineMode::Monolithic}) {
    service::ServiceOptions sopts;
    sopts.threads = 2;
    sopts.cacheEnabled = false;
    service::VerificationService svc(sopts);
    service::VerificationJob job;
    job.name = "failing";
    job.smvText = kFailingComponentsSmv;
    job.options.engine = mode;
    const service::JobReport report = svc.run(job);
    for (const service::ObligationOutcome& o : report.obligations) {
      outcomes[mode][o.id] = {o.verdict, o.counterexample};
      if (mode == symbolic::EngineMode::Auto) {
        EXPECT_NE(o.engineChoiceJson.find("\"probed\": false"),
                  std::string::npos)
            << o.id << " " << o.engineChoiceJson;
      }
    }
  }
  const auto& autoOutcomes = outcomes[symbolic::EngineMode::Auto];
  ASSERT_EQ(autoOutcomes.size(), 4u);
  std::size_t fails = 0;
  for (const auto& [id, outcome] : autoOutcomes) {
    if (outcome.first != service::Verdict::Fails) continue;
    ++fails;
    EXPECT_FALSE(outcome.second.empty()) << id;
  }
  EXPECT_EQ(fails, 2u);
  EXPECT_EQ(autoOutcomes, outcomes[symbolic::EngineMode::Partitioned]);
  EXPECT_EQ(autoOutcomes, outcomes[symbolic::EngineMode::Monolithic]);
}

/// The engine probe with every product a left fold, conjunct by conjunct
/// and track by track, but chooseEngine's cap, rate-limited walk,
/// GC-threshold restore, sweeps and cached product: the reference the
/// balanced probe's decisions are pinned to.
symbolic::EngineChoice leftFoldProbe(const symbolic::SymbolicSystem& sys) {
  bdd::Manager& mgr = sys.ctx->mgr();
  symbolic::EngineChoice c;
  const std::uint64_t cap =
      std::max(symbolic::kProbeFloorNodes,
               symbolic::kProbeFactor * sys.partition.nodeCount(mgr));
  c.capNodes = cap;
  if (sys.transMaterialized()) {
    c.monolithicNodes = mgr.dagSize(sys.transBdd());
    c.usePartitioned = *c.monolithicNodes > cap;
    return c;
  }
  c.probed = true;
  const std::uint64_t savedGcThreshold = mgr.gcThreshold();
  std::uint64_t lastWalk = mgr.stats().nodesAllocatedTotal;
  const auto crosses = [&](const bdd::Bdd& f) {
    if (mgr.stats().nodesAllocatedTotal - lastWalk <= cap) return false;
    lastWalk = mgr.stats().nodesAllocatedTotal;
    return mgr.dagSize(f) > cap;
  };
  bdd::Bdd acc = mgr.bddFalse();
  for (const symbolic::PartitionedRelation& track : sys.partition.tracks) {
    bdd::Bdd prod = mgr.bddTrue();
    for (const symbolic::Conjunct& cj : track.conjuncts()) {
      prod &= cj.rel;
      c.probeAborted = c.probeAborted || crosses(prod);
      if (c.probeAborted) break;
    }
    if (!c.probeAborted) c.probeAborted = crosses(acc |= prod);
    if (c.probeAborted) break;
  }
  if (!c.probeAborted) c.monolithicNodes = mgr.dagSize(acc);
  c.usePartitioned = c.probeAborted || *c.monolithicNodes > cap;
  if (c.usePartitioned) {
    acc = bdd::Bdd();
    mgr.setGcThreshold(savedGcThreshold);
    mgr.collectGarbage();
  } else {
    sys.monolithic_ = acc;
    mgr.setGcThreshold(savedGcThreshold);
  }
  return c;
}

/// Every shipped model, in models/ and models/gen/.
std::vector<fs::path> shippedModels() {
  std::vector<fs::path> paths;
  for (const fs::path& dir : {fs::path(CMC_MODELS_DIR),
                              fs::path(CMC_MODELS_DIR) / "gen"}) {
    for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".smv") paths.push_back(entry.path());
    }
  }
  return paths;
}

std::string readText(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A compose job's systems as its snapshot builds them, elaborated into
/// `ctx`: the modules, then their composition when there are several.
struct ComposeSystems {
  std::vector<smv::ElaboratedModule> modules;
  std::optional<symbolic::SymbolicSystem> composed;
};

ComposeSystems elaborateForCompose(symbolic::Context& ctx,
                                   const std::string& text) {
  ComposeSystems out;
  out.modules = smv::elaborateProgram(ctx, text);
  if (out.modules.size() > 1) {
    std::vector<symbolic::SymbolicSystem> parts;
    for (const smv::ElaboratedModule& mod : out.modules) {
      symbolic::SymbolicSystem sys = mod.sys;
      symbolic::addReflexive(sys);
      parts.push_back(std::move(sys));
    }
    out.composed = symbolic::composeAll(parts);
  }
  return out;
}

/// A spec outside Rules 1-3, appended to a model's last module: its
/// composed obligation takes the global check, so a compose job of the
/// model composes and probes the composition.
constexpr const char* kGlobalSpec = "SPEC AG TRUE\n";

TEST(EngineChoice, BalancedProbeDecidesLikeALeftFoldOnEveryModel) {
  // Every module and composition of the shipped models, probed by
  // chooseEngine on a fresh elaboration, against the left fold run in the
  // same order on an identical, separate context.  The snapshot of the
  // same compose job with kGlobalSpec appended probes exactly the
  // composition and the modules that cover the context, and decides those
  // as chooseEngine does.  Without it, the snapshot composes and probes
  // the composition only when some composed spec is outside Rules 1-3.
  std::size_t systems = 0, aborted = 0, completed = 0, probedModules = 0;
  for (const fs::path& path : shippedModels()) {
    const std::string text = readText(path);
    symbolic::Context balancedCtx(1 << 14), leftCtx(1 << 14);
    const ComposeSystems balanced = elaborateForCompose(balancedCtx, text);
    const ComposeSystems left = elaborateForCompose(leftCtx, text);
    ASSERT_EQ(balanced.modules.size(), left.modules.size());
    std::vector<std::pair<std::string, symbolic::EngineChoice>> got, want;
    for (std::size_t i = 0; i < balanced.modules.size(); ++i) {
      got.emplace_back(balanced.modules[i].sys.name,
                       symbolic::chooseEngine(balanced.modules[i].sys));
      want.emplace_back(left.modules[i].sys.name,
                        leftFoldProbe(left.modules[i].sys));
    }
    if (balanced.composed.has_value()) {
      got.emplace_back("composed", symbolic::chooseEngine(*balanced.composed));
      want.emplace_back("composed", leftFoldProbe(*left.composed));
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      const symbolic::EngineChoice& g = got[i].second;
      const symbolic::EngineChoice& w = want[i].second;
      SCOPED_TRACE(path.filename().string() + " " + want[i].first);
      EXPECT_EQ(g.usePartitioned, w.usePartitioned);
      EXPECT_EQ(g.probed, w.probed);
      EXPECT_EQ(g.probeAborted, w.probeAborted);
      EXPECT_EQ(g.capNodes, w.capNodes);
      EXPECT_EQ(g.monolithicNodes, w.monolithicNodes);  // unset on abort
      ++systems;
      aborted += w.probeAborted ? 1 : 0;
      completed += w.probed && !w.probeAborted ? 1 : 0;
    }

    service::VerificationJob job;
    job.name = path.stem().string();
    job.smvText = text;
    job.options.engine = symbolic::EngineMode::Auto;
    job.options.compose = true;
    const service::SnapshotResult plain =
        service::buildSnapshot(job, /*wantCanon=*/false);
    ASSERT_NE(plain.snapshot, nullptr) << path << ": " << plain.error;
    const bool composes = service::composes(balanced.modules);
    EXPECT_EQ(plain.snapshot->composed.has_value(), composes) << path;
    EXPECT_EQ(plain.snapshot->composedChoice.probed, composes) << path;

    job.smvText = text + kGlobalSpec;
    const service::SnapshotResult sr =
        service::buildSnapshot(job, /*wantCanon=*/false);
    ASSERT_NE(sr.snapshot, nullptr) << path << ": " << sr.error;
    const service::ElaborationSnapshot& snap = *sr.snapshot;
    ASSERT_EQ(snap.modules.size(), balanced.modules.size());
    for (std::size_t i = 0; i < snap.modules.size(); ++i) {
      SCOPED_TRACE(path.filename().string() + " " + got[i].first);
      const symbolic::EngineChoice& c = snap.moduleChoice[i];
      const bool covers = !symbolic::takesCone(balanced.modules[i].sys);
      EXPECT_EQ(symbolic::takesCone(snap.modules[i].sys), !covers);
      EXPECT_EQ(c.probed, covers);
      if (covers) {
        EXPECT_EQ(c.usePartitioned, got[i].second.usePartitioned);
      }
      probedModules += c.probed ? 1 : 0;
    }
    if (balanced.composed.has_value()) {
      EXPECT_TRUE(snap.composedChoice.probed) << path;
      EXPECT_EQ(snap.composedChoice.usePartitioned,
                got.back().second.usePartitioned)
          << path;
    }
  }
  EXPECT_GE(systems, 40u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_GT(probedModules, 0u);  // the single-module programs
}

TEST(EngineChoice, AnAbortedProbeRecordsNoProductSize) {
  // The partial product an aborted probe catches crossing the cap depends
  // on what the manager held before the probe, so the choice leaves the
  // product's size out of the report and the trace; probe_aborted,
  // cap_nodes and the reason explain it.  A completed probe records it.
  for (const auto& [file, aborts] :
       {std::pair{"afs2_3.smv", true}, std::pair{"ring_8.smv", false}}) {
    SCOPED_TRACE(file);
    service::ServiceOptions sopts;
    sopts.threads = 2;
    sopts.cacheEnabled = false;
    service::VerificationService svc(sopts);
    service::VerificationJob job;
    job.name = file;
    // Only a composed spec outside Rules 1-3 makes the job probe.
    job.smvText =
        readText(fs::path(CMC_MODELS_DIR) / "gen" / file) + kGlobalSpec;
    job.options.engine = symbolic::EngineMode::Auto;
    job.options.compose = true;
    service::RunTrace trace;
    const service::JobReport report = svc.run(job, &trace);
    std::size_t reported = 0, traced = 0;
    const auto expectChoice = [aborts = aborts](const std::string& choice) {
      EXPECT_NE(choice.find(aborts ? "\"probe_aborted\": true"
                                   : "\"probe_aborted\": false"),
                std::string::npos)
          << choice;
      EXPECT_EQ(choice.find("\"monolithic_nodes\"") != std::string::npos,
                !aborts)
          << choice;
      EXPECT_NE(choice.find("\"cap_nodes\""), std::string::npos) << choice;
    };
    for (const service::ObligationOutcome& o : report.obligations) {
      if (o.id.rfind("composed/", 0) != 0) continue;
      expectChoice(o.engineChoiceJson);
      ++reported;
    }
    for (const std::string& line : trace.lines()) {
      if (line.find("\"event\": \"engine_choice\"") == std::string::npos ||
          line.find("\"obligation\": \"composed/") == std::string::npos) {
        continue;
      }
      expectChoice(line);
      ++traced;
    }
    EXPECT_GT(reported, 0u);
    EXPECT_GT(traced, 0u);
  }
}

TEST(ComposedCorpus, EveryVerdictMatchesTheDirectComposedCheck) {
  // Each composed obligation of every shipped model, as the service
  // decides it (compose, engine auto: Rules 1-3 on the components where
  // they apply), against a direct Checker over composeAll of the
  // reflexive closures.  The corpus's one failing premise is the server's
  // for afs1client.SPEC1, and Rule 2 decides that spec Fails.
  std::size_t compared = 0;
  std::size_t fails = 0;
  for (const fs::path& path : shippedModels()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = readText(path);
    symbolic::Context ctx(1 << 14);
    const ComposeSystems direct = elaborateForCompose(ctx, text);
    if (!direct.composed.has_value()) continue;
    symbolic::Checker checker(*direct.composed);

    service::ServiceOptions sopts;
    sopts.threads = 2;
    sopts.cacheEnabled = false;
    service::VerificationService svc(sopts);
    service::VerificationJob job;
    job.name = path.stem().string();
    job.smvText = text;
    job.options.engine = symbolic::EngineMode::Auto;
    job.options.compose = true;
    const service::JobReport report = svc.run(job);
    std::map<std::string, const service::ObligationOutcome*> byId;
    for (const service::ObligationOutcome& o : report.obligations) {
      byId[o.id] = &o;
    }
    for (const smv::ElaboratedModule& mod : direct.modules) {
      for (const ctl::Spec& spec : mod.specs) {
        const auto it = byId.find("composed/" + spec.name);
        ASSERT_NE(it, byId.end()) << spec.name;
        const service::ObligationOutcome& o = *it->second;
        const bool holds = checker.holds(spec);
        EXPECT_EQ(o.verdict,
                  holds ? service::Verdict::Holds : service::Verdict::Fails)
            << o.id << " (" << o.rule << ")";
        ++compared;
        if (!holds) {
          ++fails;
          EXPECT_EQ(o.id, "composed/afs1client.SPEC1");
          EXPECT_EQ(o.rule, "universal (Rule 2)");
          EXPECT_FALSE(o.counterexample.empty());
        }
      }
    }
  }
  EXPECT_GE(compared, 100u);
  EXPECT_EQ(fails, 1u);
}

TEST(Snapshot, ComponentOnlySnapshotsHoldNoProduct) {
  // Under auto, no component of afs2(8) or ring(8) is probed and none
  // carries a product: each module's import is its partition alone.
  for (const char* name : {"afs2_8.smv", "ring_8.smv"}) {
    SCOPED_TRACE(name);
    service::VerificationJob job;
    job.name = name;
    job.smvText = readText(fs::path(CMC_MODELS_DIR) / "gen" / name);
    job.options.engine = symbolic::EngineMode::Auto;
    const service::SnapshotResult sr =
        service::buildSnapshot(job, /*wantCanon=*/false);
    ASSERT_NE(sr.snapshot, nullptr) << sr.error;
    const service::ElaborationSnapshot& snap = *sr.snapshot;
    ASSERT_GT(snap.modules.size(), 1u);
    for (std::size_t i = 0; i < snap.modules.size(); ++i) {
      SCOPED_TRACE(snap.modules[i].sys.name);
      EXPECT_FALSE(snap.modules[i].sys.transMaterialized());
      const symbolic::EngineChoice& c = snap.moduleChoice[i];
      EXPECT_FALSE(c.probed);
      EXPECT_TRUE(c.usePartitioned);
      EXPECT_FALSE(c.monolithicNodes.has_value());
      EXPECT_FALSE(c.capNodes.has_value());
      EXPECT_NE(c.reason.find("cone"), std::string::npos) << c.reason;
      // What the module's import copies is its partition, counted once.
      EXPECT_EQ(c.partitionNodes, snap.moduleNodes[i]);
      EXPECT_EQ(c.conjuncts, snap.modules[i].sys.partition.conjunctCount());
    }
  }

  // A single-module program covers its context and is still probed; its
  // small product completes and is kept for a monolithic import.
  service::VerificationJob single;
  single.name = "single";
  single.smvText = R"(
MODULE tiny
VAR s : {a, b};
ASSIGN next(s) := case s = a : b; 1 : a; esac;
SPEC AG (s = a | s = b)
)";
  single.options.engine = symbolic::EngineMode::Auto;
  const service::SnapshotResult sr =
      service::buildSnapshot(single, /*wantCanon=*/false);
  ASSERT_NE(sr.snapshot, nullptr) << sr.error;
  const symbolic::EngineChoice& c = sr.snapshot->moduleChoice.front();
  EXPECT_TRUE(c.probed);
  EXPECT_FALSE(c.usePartitioned);
  EXPECT_TRUE(c.capNodes.has_value());
  EXPECT_TRUE(sr.snapshot->modules.front().sys.transMaterialized());
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
  EXPECT_EQ(snap.modulePrefix.size(), 2u);
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

/// The "snapshot" events of `trace`, parsed.
std::vector<util::JsonValue> snapshotEvents(const service::RunTrace& trace) {
  std::vector<util::JsonValue> events;
  for (const std::string& line : trace.lines()) {
    if (line.find("\"event\": \"snapshot\"") == std::string::npos) continue;
    events.push_back(test::parsedJson(line));
  }
  return events;
}

/// A snapshot event says whether the memo served it.  A built snapshot
/// carries its phases and its manager's counters; a reused one ran none of
/// them for this job, so it carries only its size.
void expectSnapshotEvent(const util::JsonValue& event, bool reused) {
  bool wasReused = !reused;
  EXPECT_TRUE(event.req("reused", &wasReused));
  EXPECT_EQ(wasReused, reused);
  for (const char* field : {"live_nodes", "modules"}) {
    EXPECT_NE(event.find(field), nullptr) << field;
  }
  for (const char* field : {"parse_ms", "elaborate_ms", "canon_ms",
                            "nodes_allocated", "gc_runs"}) {
    EXPECT_EQ(event.find(field) != nullptr, !reused) << field;
  }
  for (const char* field : {"probe_ms", "compose_ms"}) {
    EXPECT_EQ(event.find(field), nullptr) << field;
  }
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
  service::RunTrace firstTrace;
  const service::JobReport first = svc.run(job, &firstTrace);
  EXPECT_EQ(first.verdict, service::Verdict::Holds);
  EXPECT_EQ(metrics.counterValue("snapshot_builds"), 1u);
  std::vector<util::JsonValue> events = snapshotEvents(firstTrace);
  ASSERT_EQ(events.size(), 1u);
  expectSnapshotEvent(events[0], /*reused=*/false);

  // A warm resubmission of the same text reuses the memoized snapshot, and
  // its trace repeats none of the build's phases.
  service::RunTrace secondTrace;
  const service::JobReport second = svc.run(job, &secondTrace);
  EXPECT_EQ(second.verdict, service::Verdict::Holds);
  EXPECT_EQ(metrics.counterValue("snapshot_builds"), 1u);
  EXPECT_EQ(metrics.counterValue("snapshot_reuses"), 1u);
  events = snapshotEvents(secondTrace);
  ASSERT_EQ(events.size(), 1u);
  expectSnapshotEvent(events[0], /*reused=*/true);

  // In one batch on a fresh service, the first job builds and a later job
  // with the same memo key reuses that build.
  service::VerificationService fresh(sopts);
  service::VerificationJob again = job;
  again.name = "memo-again";
  service::RunTrace batchTrace;
  const std::vector<service::JobReport> reports =
      fresh.runBatch({job, again}, &batchTrace);
  for (const service::JobReport& r : reports) {
    EXPECT_EQ(r.verdict, service::Verdict::Holds) << r.job;
  }
  EXPECT_EQ(metrics.counterValue("snapshot_builds"), 2u);
  EXPECT_EQ(metrics.counterValue("snapshot_reuses"), 2u);
  events = snapshotEvents(batchTrace);
  ASSERT_EQ(events.size(), 2u);
  expectSnapshotEvent(events[0], /*reused=*/false);
  expectSnapshotEvent(events[1], /*reused=*/true);
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
  // The snapshot event splits the snapshot's own wall time by phase and
  // carries its manager's counters.  A phase that did not run is left out:
  // both modules take the cone and the job does not compose, so nothing
  // was probed or composed.
  const auto expectSnapshotFields = [](const service::RunTrace& t,
                                       bool probed, bool composed,
                                       bool canon = true) {
    std::size_t events = 0;
    for (const std::string& line : t.lines()) {
      if (line.find("\"event\": \"snapshot\"") == std::string::npos) continue;
      ++events;
      for (const char* field : {"\"parse_ms\"", "\"elaborate_ms\"",
                                "\"nodes_allocated\"", "\"gc_runs\""}) {
        EXPECT_NE(line.find(field), std::string::npos) << field;
      }
      EXPECT_EQ(line.find("\"canon_ms\"") != std::string::npos, canon)
          << line;
      EXPECT_EQ(line.find("\"probe_ms\"") != std::string::npos, probed)
          << line;
      EXPECT_EQ(line.find("\"compose_ms\"") != std::string::npos, composed)
          << line;
    }
    EXPECT_EQ(events, 1u);
  };
  expectSnapshotFields(trace, /*probed=*/false, /*composed=*/false);

  // Without a cache or journal nothing is serialized or fingerprinted, so
  // canon_ms is left out rather than read as 0.
  service::ServiceOptions uncachedOpts = sopts;
  uncachedOpts.cacheEnabled = false;
  service::VerificationService uncached(uncachedOpts);
  service::RunTrace uncachedTrace;
  uncached.run(job, &uncachedTrace);
  expectSnapshotFields(uncachedTrace, /*probed=*/false, /*composed=*/false,
                       /*canon=*/false);

  // A compose job whose composed specs take the global check composes and
  // probes the composition, and says how long each took.
  job.name = "timers-composed";
  job.options.compose = true;
  service::RunTrace composedTrace;
  svc.run(job, &composedTrace);
  expectSnapshotFields(composedTrace, /*probed=*/true, /*composed=*/true);

  // Under a fixed engine the composition is built but not probed.
  job.name = "timers-partitioned";
  job.options.engine = symbolic::EngineMode::Partitioned;
  service::RunTrace fixedTrace;
  svc.run(job, &fixedTrace);
  expectSnapshotFields(fixedTrace, /*probed=*/false, /*composed=*/true);
}

TEST(Snapshot, TextJobsTimeTheirParseAndCountTheirNodes) {
  // Every snapshot times its parse apart from its elaboration, and counts
  // what its manager allocated and collected, the final sweep included.
  service::VerificationJob text;
  text.name = "text";
  text.smvText = kTwoModuleSmv;
  text.options.engine = symbolic::EngineMode::Auto;
  service::VerificationJob probing = text;
  probing.name = "probing";
  probing.options.compose = true;
  for (const service::VerificationJob* job : {&text, &probing}) {
    SCOPED_TRACE(job->name);
    const service::SnapshotResult built =
        service::buildSnapshot(*job, /*wantCanon=*/false);
    ASSERT_NE(built.snapshot, nullptr) << built.error;
    const service::ElaborationSnapshot& snap = *built.snapshot;
    EXPECT_GT(snap.parseSeconds, 0.0);
    EXPECT_GE(snap.nodesAllocated, snap.liveNodes);
    // Both modules take the cone, so a component-only job probes nothing
    // and collects once, at freeze; the compose job probes the
    // composition and collects before the probes as well.
    EXPECT_EQ(snap.gcRuns, job == &probing ? 2u : 1u);

    service::ServiceOptions sopts;
    sopts.threads = 2;
    service::VerificationService svc(sopts);
    service::RunTrace trace;
    EXPECT_EQ(svc.run(*job, &trace).verdict, service::Verdict::Holds);
    ASSERT_EQ(trace.countContaining("\"event\": \"snapshot\""), 1u);
    for (const std::string& line : trace.lines()) {
      if (line.find("\"event\": \"snapshot\"") == std::string::npos) continue;
      for (const char* field :
           {"\"parse_ms\"", "\"nodes_allocated\"", "\"gc_runs\""}) {
        EXPECT_NE(line.find(field), std::string::npos) << field;
      }
    }
  }
}

}  // namespace
}  // namespace cmc
