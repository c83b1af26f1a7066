// Tests for the AFS case studies: the figure-faithful component checks
// (Figures 5-10 and 12-17), the state graphs of Figures 4 and 11, the full
// mechanized deductions of §4.2.3 / §4.3.4, and mutation tests showing the
// machinery refuses broken models.
#include <gtest/gtest.h>

#include "afs/afs1.hpp"
#include "afs/afs2.hpp"
#include "afs/smv_sources.hpp"
#include "afs/verify_afs1.hpp"
#include "afs/verify_afs2.hpp"
#include "comp/rules.hpp"
#include "comp/verifier.hpp"
#include "ctl/parser.hpp"
#include "gen/modelgen.hpp"
#include "smv/parser.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"

namespace cmc::afs {
namespace {

// ---- Figure-faithful component checks (the paper's Figures 7 and 10) --------

TEST(Afs1Figures, ServerSpecsAllTrue) {
  symbolic::Context ctx;
  const smv::ElaboratedModule server =
      smv::elaborateText(ctx, afs1ServerSmv());
  EXPECT_EQ(server.specs.size(), 5u);  // Srv1-Srv5
  symbolic::Checker checker(server.sys);
  for (const ctl::Spec& spec : server.specs) {
    EXPECT_TRUE(checker.holds(spec)) << spec.name << ": "
                                     << ctl::toString(spec.f);
  }
}

TEST(Afs1Figures, ClientSpecsAllTrue) {
  symbolic::Context ctx;
  const smv::ElaboratedModule client =
      smv::elaborateText(ctx, afs1ClientSmv());
  EXPECT_EQ(client.specs.size(), 6u);  // Cli1, Cli2 (x2), Cli3, Cli4, Cli5
  symbolic::Checker checker(client.sys);
  for (const ctl::Spec& spec : client.specs) {
    EXPECT_TRUE(checker.holds(spec)) << spec.name << ": "
                                     << ctl::toString(spec.f);
  }
}

// ---- Figure 4: the AFS-1 state transition graphs ----------------------------

TEST(Afs1Figures, ClientGraphMatchesFigure4) {
  symbolic::Context ctx;
  const smv::ElaboratedModule client =
      smv::elaborateText(ctx, afs1ClientSmv());
  const symbolic::ExplicitImage image =
      symbolic::explicitFromSymbolic(client.sys);
  kripke::ExplicitChecker checker(image.sys, image.semantics);
  auto holds = [&](const char* text) {
    return checker.holds(ctl::Restriction::trivial(), ctl::parse(text));
  };
  // The protocol transitions of Figure 4 (client side), as AX facts on the
  // deterministic client model.
  EXPECT_TRUE(holds("belief=nofile & r=null -> AX (belief=nofile & r=fetch)"));
  EXPECT_TRUE(holds("belief=nofile & r=val -> AX (belief=valid & r=val)"));
  EXPECT_TRUE(
      holds("belief=suspect & r=null -> AX (belief=suspect & r=validate)"));
  EXPECT_TRUE(
      holds("belief=suspect & r=inval -> AX (belief=nofile & r=null)"));
  EXPECT_TRUE(holds("belief=suspect & r=val -> AX (belief=valid & r=val)"));
  // And the states the client leaves untouched (the server moves there).
  EXPECT_TRUE(holds("belief=nofile & r=fetch -> AX (belief=nofile & r=fetch)"));
  EXPECT_TRUE(
      holds("belief=suspect & r=validate -> AX (belief=suspect & r=validate)"));
}

TEST(Afs1Figures, ServerGraphMatchesFigure4) {
  symbolic::Context ctx;
  const smv::ElaboratedModule server =
      smv::elaborateText(ctx, afs1ServerSmv());
  const symbolic::ExplicitImage image =
      symbolic::explicitFromSymbolic(server.sys);
  kripke::ExplicitChecker checker(image.sys, image.semantics);
  auto holds = [&](const char* text) {
    return checker.holds(ctl::Restriction::trivial(), ctl::parse(text));
  };
  EXPECT_TRUE(holds("belief=none & r=fetch -> AX (belief=valid & r=val)"));
  EXPECT_TRUE(holds(
      "belief=none & r=validate & validFile=1 -> AX (belief=valid & r=val)"));
  EXPECT_TRUE(holds("belief=none & r=validate & validFile=0 -> "
                    "AX (belief=invalid & r=inval)"));
  EXPECT_TRUE(holds("belief=invalid & r=fetch -> AX (belief=valid & r=val)"));
  EXPECT_TRUE(holds("belief=valid & r=fetch -> AX (belief=valid & r=val)"));
  // The server never touches a state whose request is a response already.
  EXPECT_TRUE(holds("r=val -> AX r=val"));
  EXPECT_TRUE(holds("r=inval -> AX r=inval"));
}

// ---- AFS-2 component checks (Figures 15 and 17) ------------------------------

/// Module `index` of gen::afs2Model(2) elaborated alone: 0 is the server,
/// i is client i.
smv::ElaboratedModule afs2Module(symbolic::Context& ctx, std::size_t index) {
  return smv::elaborate(ctx, smv::parseProgram(gen::afs2Model(2)).at(index));
}

// The figures check every state; ctl::Restriction::trivial() keeps the
// generator's INIT from narrowing them.

TEST(Afs2Figures, ServerSpecsAllTrue) {
  symbolic::Context ctx;
  const smv::ElaboratedModule server = afs2Module(ctx, 0);
  EXPECT_EQ(server.specs.size(), 4u);  // Srv1, Srv2 per client
  symbolic::Checker checker(server.sys);
  for (const ctl::Spec& spec : server.specs) {
    EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(), spec.f))
        << spec.name << ": " << ctl::toString(spec.f);
  }
}

TEST(Afs2Figures, ClientSpecsAllTrue) {
  symbolic::Context ctx;
  const smv::ElaboratedModule client = afs2Module(ctx, 1);
  EXPECT_EQ(client.specs.size(), 1u);  // Cli1
  symbolic::Checker checker(client.sys);
  EXPECT_TRUE(
      checker.holds(ctl::Restriction::trivial(), client.specs.at(0).f));
}

TEST(Afs2Figures, BddSizeOrderingMatchesPaper) {
  // The paper reports AFS-2 transition relations much larger than AFS-1's
  // (1145+6 vs 43+7 for the server).  Absolute numbers differ; the ordering
  // must not.
  symbolic::Context ctx1;
  const smv::ElaboratedModule afs1Server =
      smv::elaborateText(ctx1, afs1ServerSmv());
  symbolic::Context ctx2;
  const smv::ElaboratedModule afs2Server = afs2Module(ctx2, 0);
  EXPECT_GT(afs2Server.sys.transNodeCount(),
            afs1Server.sys.transNodeCount());
}

// ---- The resource rows of EXPERIMENTS.md (Figures 7, 10, 15, 17) ---------------

/// One figure row as bench::printFigureReport measures it: every spec
/// checked on one checker, then the context's allocated nodes and the
/// transition relation's nodes + alphabet size.  Counts are deterministic.
struct FigureRow {
  std::uint64_t nodesAllocated;
  std::uint64_t transNodes;
  std::size_t vars;
};

FigureRow figureRow(symbolic::Context& ctx, const smv::ElaboratedModule& mod,
                    bool allStates) {
  symbolic::Checker checker(mod.sys);
  for (ctl::Spec spec : mod.specs) {
    if (allStates) spec.r = ctl::Restriction::trivial();
    EXPECT_TRUE(checker.check(spec).holds) << spec.name;
  }
  return {ctx.mgr().stats().nodesAllocatedTotal, mod.sys.transNodeCount(),
          mod.sys.vars.size()};
}

TEST(FigureRows, CountersMatchExperiments) {
  // bench_afs1 / bench_afs2 print these rows; EXPERIMENTS.md quotes them.
  // A drift here means the table is stale.
  const auto expectRow = [](const char* figure, const FigureRow& row,
                            std::uint64_t nodes, std::uint64_t trans,
                            std::size_t vars) {
    EXPECT_EQ(row.nodesAllocated, nodes) << figure;
    EXPECT_EQ(row.transNodes, trans) << figure;
    EXPECT_EQ(row.vars, vars) << figure;
  };
  {
    symbolic::Context ctx;
    const auto server = smv::elaborateText(ctx, afs1ServerSmv());
    expectRow("Fig. 7", figureRow(ctx, server, false), 464, 71, 3);
  }
  {
    symbolic::Context ctx;
    const auto client = smv::elaborateText(ctx, afs1ClientSmv());
    expectRow("Fig. 10", figureRow(ctx, client, false), 400, 54, 2);
  }
  const std::vector<smv::Module> afs2 = smv::parseProgram(gen::afs2Model(2));
  {
    symbolic::Context ctx(1 << 14);
    const auto server = smv::elaborate(ctx, afs2.at(0));
    expectRow("Fig. 15", figureRow(ctx, server, true), 1232, 130, 11);
  }
  {
    symbolic::Context ctx;
    const auto client = smv::elaborate(ctx, afs2.at(1));
    expectRow("Fig. 17", figureRow(ctx, client, true), 498, 82, 5);
  }
}

// ---- Full deductions ---------------------------------------------------------

TEST(Afs1Verification, FullDeductionSucceeds) {
  const Afs1Report report = verifyAfs1(/*crossCheck=*/true);
  EXPECT_TRUE(report.safety);
  EXPECT_TRUE(report.liveness);
  EXPECT_TRUE(report.safetyCrossCheck);
  EXPECT_TRUE(report.livenessCrossCheck);
  EXPECT_TRUE(report.proof.valid());
  EXPECT_GE(report.componentChecks, 16u);  // 7 rules × 2-3 checks + safety
}

TEST(Afs2Verification, SafetyScalesLinearly) {
  for (int n = 1; n <= 8; ++n) {
    const Afs2Report report = verifyAfs2(n, /*crossCheck=*/n <= 2);
    EXPECT_TRUE(report.safety) << "n=" << n;
    EXPECT_TRUE(report.proof.valid()) << "n=" << n;
    if (n <= 2) {
      EXPECT_TRUE(report.safetyCrossCheck) << "n=" << n;
    }
    // One check of the universal step property per component: the server
    // and each of the n clients.
    EXPECT_EQ(report.componentChecks, static_cast<std::size_t>(n) + 1)
        << "n=" << n;
  }
}

// ---- Mutation tests: broken models must be refused ---------------------------

TEST(Afs1Mutation, ClientThatTrustsBlindlyBreaksTheInvariantStep) {
  // A client that switches to `valid` on inval responses violates the
  // invariant-step obligation on its expansion, so the compositional
  // safety proof must fail.
  symbolic::Context ctx;
  const smv::ElaboratedModule server =
      smv::elaborateText(ctx, afs1ServerQualifiedSmv());
  const std::string brokenClient = R"(
MODULE brokenclient
VAR
  r : {null, fetch, validate, val, inval};
  Client.belief : {valid, suspect, nofile};
ASSIGN
  next(Client.belief) :=
    case
      (Client.belief = nofile) & (r = val) : valid;
      (Client.belief = suspect) & (r = inval) : valid;  -- BUG
      1 : Client.belief;
    esac;
  next(r) :=
    case
      (Client.belief = nofile) & (r = null) : fetch;
      (Client.belief = suspect) & (r = null) : validate;
      1 : r;
    esac;
)";
  smv::ElaboratedModule client = smv::elaborateText(ctx, brokenClient);
  symbolic::SymbolicSystem serverSys = server.sys;
  symbolic::SymbolicSystem clientSys = client.sys;
  symbolic::addReflexive(serverSys);
  symbolic::addReflexive(clientSys);

  comp::CompositionalVerifier verifier(ctx);
  verifier.addComponent(serverSys);
  verifier.addComponent(clientSys);
  comp::ProofTree proof;
  EXPECT_FALSE(verifier.verifyInvariance(afs1Init(), afs1Invariant(),
                                         afs1Target(), proof, "Afs1"));
  EXPECT_FALSE(proof.valid());
}

TEST(Afs1Mutation, ServerThatSkipsFetchBreaksTheLivenessPremise) {
  // Remove the server's fetch response: the Rule 4 premise
  // (nofile ∧ fetch) ⇒ EX (nofile ∧ val) fails on the server expansion.
  symbolic::Context ctx;
  const std::string lazyServer = R"(
MODULE lazyserver
VAR
  Server.belief : {none, invalid, valid};
  r : {null, fetch, validate, val, inval};
  validFile : boolean;
ASSIGN
  next(validFile) := validFile;
  next(Server.belief) := Server.belief;
  next(r) := r;  -- never answers
)";
  const smv::ElaboratedModule server = smv::elaborateText(ctx, lazyServer);
  const smv::ElaboratedModule client =
      smv::elaborateText(ctx, afs1ClientQualifiedSmv());
  symbolic::SymbolicSystem serverSys = server.sys;
  symbolic::addReflexive(serverSys);
  symbolic::SymbolicSystem serverExp =
      symbolic::expand(serverSys, client.sys.vars);
  symbolic::Checker checker(serverExp);
  comp::ProofTree proof;
  const auto g = comp::deriveRule4(
      checker,
      ctl::parse("Client.belief=nofile & r=fetch"),
      ctl::parse("Client.belief=nofile & r=val"), proof);
  EXPECT_FALSE(g.has_value());
  EXPECT_FALSE(proof.valid());
}

TEST(Afs2Mutation, ForgettingTheTimeStampBreaksSafety) {
  // A server that invalidates on update but forgets to reset time_i lets a
  // client believe a stale copy with time_i=1 — the expansion check must
  // catch it.  (This is exactly the transmission-delay subtlety §4.3
  // introduces time_i for.)
  symbolic::Context ctx;
  std::string broken = gen::afs2Model(2);
  // Remove the update branch from next(time1) only.
  // The ": 0" form of the update guard occurs only in the time1 block
  // (belief1 uses ": nocall", response1 uses ": inval").
  const std::string needle =
      "(Server.belief1 = valid) & ((request2 = update)) : 0;";
  const std::size_t pos = broken.find(needle);
  ASSERT_NE(pos, std::string::npos);
  ASSERT_EQ(broken.find(needle, pos + 1), std::string::npos);
  broken.erase(pos, needle.size());

  comp::CompositionalVerifier verifier(ctx);
  for (smv::ElaboratedModule& mod : smv::elaborateProgram(ctx, broken)) {
    symbolic::addReflexive(mod.sys);
    verifier.addComponent(mod.sys);
  }
  ASSERT_EQ(verifier.componentCount(), 3u);  // the server and two clients
  comp::ProofTree proof;
  EXPECT_FALSE(verifier.verifyInvariance(afs2Init(2), afs2Invariant(2),
                                         afs2Target(2), proof, "Afs1'"));
}

// ---- Formula constructors ----------------------------------------------------

TEST(AfsFormulas, ShapesAndNames) {
  EXPECT_TRUE(ctl::isPropositional(afs1Init()));
  EXPECT_TRUE(ctl::isPropositional(afs1Invariant()));
  const ctl::Spec safety = afs1SafetySpec();
  EXPECT_EQ(safety.f->op(), ctl::Op::AG);
  EXPECT_EQ(safety.name, "Afs1");
  EXPECT_TRUE(ctl::isPropositional(afs2Init(3)));
  EXPECT_TRUE(ctl::isPropositional(afs2Invariant(3)));
  // Per-client formulas mention the right indices.
  const auto atoms = ctl::collectVariables(afs2InvariantFor(2));
  EXPECT_TRUE(atoms.count("Client2.belief") == 1);
  EXPECT_TRUE(atoms.count("Server.belief2") == 1);
  EXPECT_TRUE(atoms.count("time2") == 1);
}

TEST(AfsBuilders, RejectBadArguments) {
  symbolic::Context ctx;
  EXPECT_THROW(buildAfs2(ctx, 0), ModelError);
}

}  // namespace
}  // namespace cmc::afs

namespace cmc::afs {
namespace {

TEST(Afs1Oracle, ComposedSystemAgreesWithExplicitChecker) {
  // The composed AFS-1 system is small enough (10 bits = 1024 encoded
  // states) for the explicit oracle: every paper-relevant verdict must
  // agree between the two checkers on the full composition.
  symbolic::Context ctx;
  Afs1Components comps = buildAfs1(ctx, /*reflexive=*/true);
  const symbolic::SymbolicSystem whole =
      symbolic::compose(comps.server.sys, comps.client.sys);
  symbolic::Checker symbolicChecker(whole);
  const symbolic::ExplicitImage image = symbolic::explicitFromSymbolic(whole);
  kripke::ExplicitChecker explicitChecker(image.sys, image.semantics);

  ctl::Restriction r;
  r.init = afs1Init();
  r.fairness = {ctl::mkTrue()};
  const std::vector<ctl::FormulaPtr> formulas = {
      ctl::AG(afs1Target()),
      ctl::AG(afs1Invariant()),
      ctl::parse("EF Client.belief=valid"),
      ctl::parse("AF Client.belief=valid"),  // false without fairness
      ctl::parse("r=fetch -> AX (r=fetch | r=val)"),
      ctl::parse("E[r=null U r=fetch]"),
      ctl::parse("AG (r=val -> Server.belief=valid)"),
  };
  for (const ctl::FormulaPtr& f : formulas) {
    EXPECT_EQ(symbolicChecker.holds(r, f), explicitChecker.holds(r, f))
        << ctl::toString(f);
  }
  // And under the fairness set that makes the liveness true.
  ctl::Restriction fair = r;
  fair.fairness = {
      ctl::parse("!(Client.belief=nofile & r=null) | r=fetch"),
      ctl::parse("!(Client.belief=nofile & r=fetch) | r=val"),
      ctl::parse("!(Client.belief=nofile & r=val) | Client.belief=valid"),
      ctl::parse("!(Client.belief=suspect & r=null) | r=validate"),
      ctl::parse("!(Client.belief=suspect & Server.belief=none & r=validate)"
                 " | r=val | r=inval"),
      ctl::parse("!(Client.belief=suspect & r=val) | Client.belief=valid"),
      ctl::parse("!(Client.belief=suspect & r=inval) | r=null"),
  };
  const ctl::FormulaPtr liveness = ctl::parse("AF Client.belief=valid");
  EXPECT_EQ(symbolicChecker.holds(fair, liveness),
            explicitChecker.holds(fair, liveness));
}

}  // namespace
}  // namespace cmc::afs
