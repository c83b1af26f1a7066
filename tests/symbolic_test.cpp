// Tests for the symbolic substrate: variable encodings (paper §3.4,
// Fig. 3), symbolic systems/composition, and — most importantly — agreement
// between the symbolic and explicit checkers on random models and formulas.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <sstream>

#include "abp/abp.hpp"
#include "afs/afs1.hpp"
#include "afs/afs2.hpp"
#include "ctl/parser.hpp"
#include "gen/modelgen.hpp"
#include "ring/token_ring.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"
#include "symbolic/partition.hpp"
#include "symbolic/prop.hpp"
#include "test_util.hpp"

namespace cmc::symbolic {
namespace {

using ctl::parse;

TEST(VarTable, BooleanEncoding) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  EXPECT_TRUE(ctx.variable(x).isBool);
  EXPECT_EQ(ctx.variable(x).bits.size(), 1u);
  EXPECT_EQ(ctx.bitCount(), 1u);
  EXPECT_EQ(ctx.varEq(x, "1"), ctx.mgr().bddVar(0));
  EXPECT_EQ(ctx.varEq(x, "0"), ctx.mgr().bddNVar(0));
  EXPECT_EQ(ctx.varEq(x, "TRUE"), ctx.mgr().bddVar(0));
  EXPECT_TRUE(ctx.domain(x).isTrue());
}

TEST(VarTable, EnumEncodingMatchesFigure3) {
  // Figure 3: x ∈ {0,1,2,3} maps to two booleans x0, x1.
  Context ctx;
  const VarId x = ctx.addEnumVar("x", {"0", "1", "2", "3"});
  EXPECT_EQ(ctx.variable(x).bits.size(), 2u);
  // Value 2 = binary 10: bit0 = 0, bit1 = 1.
  const bdd::Bdd enc = ctx.varEq(x, "2");
  EXPECT_EQ(enc, ctx.mgr().bddNVar(0) & ctx.mgr().bddVar(2));
  // Power-of-two domain needs no constraint.
  EXPECT_TRUE(ctx.domain(x).isTrue());
  // The propositional formula (x < 2) of §3.4 maps to !x1.
  const bdd::Bdd lessThan2 = ctx.varEq(x, "0") | ctx.varEq(x, "1");
  EXPECT_EQ(lessThan2, !ctx.mgr().bddVar(2));
}

TEST(VarTable, NonPowerOfTwoDomainConstraint) {
  Context ctx;
  const VarId b = ctx.addEnumVar("belief", {"none", "invalid", "valid"});
  EXPECT_EQ(ctx.variable(b).bits.size(), 2u);
  const bdd::Bdd dom = ctx.domain(b);
  EXPECT_FALSE(dom.isTrue());
  // Exactly three of the four encodings are valid.
  EXPECT_DOUBLE_EQ(ctx.mgr().satCount(dom, 4), 3.0 * 4);  // 2 free next bits
}

TEST(VarTable, ErrorsAndLookups) {
  Context ctx;
  ctx.addBoolVar("x");
  EXPECT_THROW(ctx.addBoolVar("x"), ModelError);
  EXPECT_THROW(ctx.varId("nope"), ModelError);
  EXPECT_THROW(ctx.addEnumVar("e", {}), ModelError);
  const VarId e = ctx.addEnumVar("e", {"a", "b"});
  EXPECT_THROW(ctx.varEq(e, "zzz"), ModelError);
  EXPECT_THROW(ctx.atomBdd("e"), ModelError);  // bare non-boolean atom
  EXPECT_NO_THROW(ctx.atomBdd("e=a"));
  EXPECT_NO_THROW(ctx.atomBdd("x"));
}

TEST(VarTable, FrameAndCubes) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  const VarId y = ctx.addEnumVar("y", {"a", "b", "c"});
  const bdd::Bdd frame = ctx.frameAll({x, y});
  // frame keeps each bit equal: evaluate a few assignments.
  // Bits: x:bit0 (vars 0,1), y:bits1,2 (vars 2,3,4,5).
  bdd::Manager& mgr = ctx.mgr();
  std::vector<bool> a(6, false);
  EXPECT_TRUE(mgr.eval(frame, a));
  a[0] = true;  // x=1 now, x'=0
  EXPECT_FALSE(mgr.eval(frame, a));
  a[1] = true;  // x'=1 too
  EXPECT_TRUE(mgr.eval(frame, a));
  const bdd::Bdd cc = ctx.currentCube({x, y});
  EXPECT_EQ(mgr.support(cc), (std::vector<std::uint32_t>{0, 2, 4}));
  const bdd::Bdd nc = ctx.nextCube({x, y});
  EXPECT_EQ(mgr.support(nc), (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(SymbolicSystem, MakeSystemValidatesSupport) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  const VarId y = ctx.addBoolVar("y");
  const bdd::Bdd mentionsY = ctx.varEq(y, "1");
  EXPECT_THROW(makeSystem(ctx, "bad", {x}, mentionsY), ModelError);
  EXPECT_NO_THROW(makeSystem(ctx, "ok", {x, y}, mentionsY));

  // Both overloads name the first BDD variable outside the alphabet.
  const VarId e = ctx.addEnumVar("e", {"a", "b", "c"});  // bits 2, 3
  // Declared after the systems' own variables: its BDD variables (8 and
  // 9) lie past the end of the alphabet's bitmap.
  const VarId late = ctx.addBoolVar("late");
  const auto rejects = [](const std::function<void()>& build,
                          const std::string& system, std::uint32_t bddVar) {
    try {
      build();
      ADD_FAILURE() << system << " was accepted";
    } catch (const ModelError& err) {
      EXPECT_EQ(std::string(err.what()),
                "system '" + system +
                    "': transition relation mentions a variable outside "
                    "its alphabet (BDD var " +
                    std::to_string(bddVar) + ")");
    }
  };
  const bdd::Bdd lateNext = ctx.varEq(late, "1", /*next=*/true);
  const bdd::Bdd eNow = ctx.varEq(e, "b");
  rejects([&] { makeSystem(ctx, "one", {e, y}, lateNext); }, "one", 9);
  rejects([&] { makeSystem(ctx, "list", {e, y}, {eNow, lateNext & eNow}); },
          "list", 9);
  // Inside the bitmap, but outside this alphabet.
  rejects([&] { makeSystem(ctx, "gap", {e}, {eNow, mentionsY}); }, "gap", 2);
  rejects([&] { makeSystem(ctx, "gapOne", {x, late}, mentionsY); }, "gapOne",
          2);

  // Within the alphabet both columns pass, and each conjunct keeps the
  // support the check computed.
  const bdd::Bdd step = eNow & ctx.varEq(late, "0", /*next=*/true) &
                        ctx.varEq(y, "1", /*next=*/true);
  EXPECT_NO_THROW(makeSystem(ctx, "okOne", {e, y, late}, step));
  const SymbolicSystem ok = makeSystem(ctx, "okList", {late, e, y},
                                       {step, lateNext, ctx.mgr().bddTrue()});
  for (const Conjunct& c : ok.partition.tracks.front().conjuncts()) {
    EXPECT_EQ(c.support, ctx.mgr().support(c.rel));
  }
  EXPECT_EQ(ok.partition.tracks.front().size(), 3u);  // true dropped, + dom(e)
}

TEST(SymbolicSystem, IdentityAndReflexivity) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  SymbolicSystem id = identitySystem(ctx, {x});
  EXPECT_TRUE(id.isReflexive());
  EXPECT_TRUE(id.isTotal());
  // A system that can only flip x is not reflexive until closed.
  const bdd::Bdd flip =
      ctx.varEq(x, "1").iff(!ctx.varEq(x, "1", /*next=*/true));
  SymbolicSystem flipper = makeSystem(ctx, "flip", {x}, flip);
  EXPECT_FALSE(flipper.isReflexive());
  EXPECT_TRUE(flipper.isTotal());
  addReflexive(flipper);
  EXPECT_TRUE(flipper.isReflexive());
}

TEST(SymbolicComposition, MatchesExplicitComposition) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
    kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
    kripke::ExplicitSystem eb({"b", "c"});
    ebRaw.forEachTransition(
        [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });

    Context ctx;
    SymbolicSystem sa = symbolicFromExplicit(ctx, ea, "A");
    SymbolicSystem sb = symbolicFromExplicit(ctx, eb, "B");
    const SymbolicSystem sc = compose(sa, sb);
    const kripke::ExplicitSystem expected = kripke::compose(ea, eb);
    const ExplicitImage image = explicitFromSymbolic(sc);
    EXPECT_TRUE(image.sys.sameBehavior(expected)) << "trial " << trial;
  }
}

TEST(SymbolicComposition, LemmasHoldSymbolically) {
  std::mt19937 rng(5);
  Context ctx;
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
  SymbolicSystem a = symbolicFromExplicit(ctx, ea, "A");
  SymbolicSystem b = symbolicFromExplicit(ctx, eb, "B");

  // Lemma 1 (canonical BDDs make this pure equality).
  EXPECT_TRUE(sameBehavior(compose(a, b), compose(b, a)));
  // Lemma 3.
  EXPECT_TRUE(sameBehavior(compose(a, identitySystem(ctx, a.vars)), a));
  // Lemma 4.
  EXPECT_TRUE(sameBehavior(
      compose(a, b),
      compose(expand(a, b.vars), expand(b, a.vars))));
}

TEST(SymbolicChecker, SimpleTemporalProperties) {
  // Two-variable handshake: req flips on, then ack follows.
  Context ctx;
  const VarId req = ctx.addBoolVar("req");
  const VarId ack = ctx.addBoolVar("ack");
  bdd::Manager& mgr = ctx.mgr();
  const bdd::Bdd reqNow = ctx.varEq(req, "1");
  const bdd::Bdd reqNext = ctx.varEq(req, "1", true);
  const bdd::Bdd ackNow = ctx.varEq(ack, "1");
  const bdd::Bdd ackNext = ctx.varEq(ack, "1", true);

  // Transitions: idle->req, req->req+ack, req+ack->idle, plus stutter.
  const bdd::Bdd t1 = (!reqNow) & (!ackNow) & reqNext & (!ackNext);
  const bdd::Bdd t2 = reqNow & (!ackNow) & reqNext & ackNext;
  const bdd::Bdd t3 = reqNow & ackNow & (!reqNext) & (!ackNext);
  SymbolicSystem sys =
      makeSystem(ctx, "handshake", {req, ack}, t1 | t2 | t3);
  addReflexive(sys);
  Checker checker(sys);

  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(),
                            parse("req & ack -> EX (!req & !ack)")));
  // The paper's ⊨ quantifies over *all* states, so the unreachable state
  // (!req & ack) falsifies this even though every run avoids it.
  EXPECT_FALSE(checker.holds(ctl::Restriction::trivial(),
                             parse("ack -> req")));
  EXPECT_FALSE(checker.holds(ctl::Restriction::trivial(),
                             parse("req -> AX ack")));
  EXPECT_TRUE(checker.holds(ctl::Restriction::trivial(), parse("EF ack")));
  // Fairness forces progress out of stuttering.
  ctl::Restriction r;
  r.init = parse("!req & !ack");
  r.fairness = {parse("ack | !req & !ack")};
  // Under that fairness alone the run may cycle; EF ack still holds.
  EXPECT_TRUE(checker.holds(r, parse("EF ack")));
  (void)mgr;
}

TEST(SymbolicChecker, WitnessForViolation) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  SymbolicSystem sys = identitySystem(ctx, {x});
  Checker checker(sys);
  const auto witness =
      checker.violationWitness(ctl::Restriction::trivial(), parse("x"));
  ASSERT_TRUE(witness.has_value());
  EXPECT_NE(witness->find("x=0"), std::string::npos);
  EXPECT_FALSE(checker
                   .violationWitness(ctl::Restriction::trivial(),
                                     parse("x | !x"))
                   .has_value());
}

TEST(SymbolicChecker, CheckResultCounters) {
  Context ctx;
  const VarId x = ctx.addBoolVar("x");
  SymbolicSystem sys = identitySystem(ctx, {x});
  Checker checker(sys);
  const CheckResult result = checker.check(
      ctl::Spec{"t", ctl::Restriction::trivial(), parse("x -> AX x")});
  EXPECT_TRUE(result.holds);
  EXPECT_GT(result.bddNodesAllocated, 0u);
  EXPECT_GT(result.transNodes, 0u);
  EXPECT_EQ(result.specName, "t");
}

TEST(Prop, ValidityOverDomains) {
  Context ctx;
  ctx.addEnumVar("belief", {"none", "invalid", "valid"});
  const VarId b = ctx.varId("belief");
  // belief takes one of its three values — valid over the domain.
  EXPECT_TRUE(propositionallyValid(
      ctx, {b},
      parse("belief=none | belief=invalid | belief=valid")));
  EXPECT_FALSE(propositionallyValid(ctx, {b}, parse("belief=none")));
  EXPECT_THROW(propositionalBdd(ctx, parse("AX belief=none")), ModelError);
}

// ---- Partitioned transition relations --------------------------------------

TEST(Partition, ClusterGreedyPreservesProductAndRespectsThreshold) {
  Context ctx;
  std::vector<VarId> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(ctx.addEnumVar("v" + std::to_string(i),
                                  {"a", "b", "c"}));
  }
  PartitionedRelation track;
  for (VarId v : vars) track.append(frameConjunct(ctx, v));
  const bdd::Bdd product = track.product(ctx.mgr());
  ASSERT_EQ(track.size(), 4u);

  PartitionedRelation merged = track;
  merged.clusterGreedy(/*nodeThreshold=*/0);  // collapse to one cluster
  EXPECT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.product(ctx.mgr()), product);

  std::uint64_t maxOriginal = 0;
  for (const Conjunct& c : track.conjuncts()) {
    maxOriginal = std::max(maxOriginal, ctx.mgr().dagSize(c.rel));
  }
  PartitionedRelation capped = track;
  capped.clusterGreedy(/*nodeThreshold=*/8);
  EXPECT_GE(capped.size(), 1u);
  EXPECT_LE(capped.size(), track.size());
  EXPECT_EQ(capped.product(ctx.mgr()), product);
  // A cluster is either an original conjunct or a merge that fit under the
  // threshold — it never exceeds both bounds at once.
  for (const Conjunct& c : capped.conjuncts()) {
    EXPECT_LE(ctx.mgr().dagSize(c.rel), std::max<std::uint64_t>(8, maxOriginal));
  }

  PartitionedRelation roomy = track;
  roomy.clusterGreedy(/*nodeThreshold=*/1 << 20);
  EXPECT_EQ(roomy.size(), 1u);  // everything fits in one cluster
  EXPECT_EQ(roomy.product(ctx.mgr()), product);
}

TEST(Partition, BalancedProductIsTheLeftFoldsNode) {
  // Random conjunct lists over 10 variables — empty, single, odd and even
  // lengths, repeats, and operands built from one another so the lists
  // share subgraphs.  Canonicity makes "same function" mean "same node".
  std::mt19937 rng(23);
  bdd::Manager mgr;
  const auto literal = [&] {
    const bdd::Bdd v = mgr.bddVar(static_cast<std::uint32_t>(rng() % 10));
    return rng() % 2 == 0 ? v : !v;
  };
  std::vector<bdd::Bdd> pool;
  for (int i = 0; i < 12; ++i) {
    bdd::Bdd f = mgr.bddFalse();
    for (int cube = 0; cube < 3; ++cube) f |= literal() & literal() & literal();
    pool.push_back(f);
  }
  for (int i = 0; i < 12; ++i) {
    pool.push_back(pool[rng() % pool.size()] ^ pool[rng() % pool.size()]);
  }
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = static_cast<std::size_t>(trial % 12);
    std::vector<bdd::Bdd> conjuncts;
    for (std::size_t k = 0; k < n; ++k) {
      conjuncts.push_back(pool[rng() % pool.size()]);
    }
    bdd::Bdd fold = mgr.bddTrue();
    for (const bdd::Bdd& c : conjuncts) fold &= c;
    std::size_t intermediates = 0;
    const bdd::Bdd tree =
        foldBalanced(mgr, FoldOp::And, conjuncts, [&](const bdd::Bdd& f) {
          EXPECT_FALSE(f.isNull());
          ++intermediates;
          return false;
        });
    EXPECT_EQ(tree, fold) << n << " conjuncts";
    EXPECT_EQ(intermediates, n == 0 ? 0 : n - 1);  // one per conjunction
    // The same helper disjoins; an empty disjunction is false.
    bdd::Bdd disjunction = mgr.bddFalse();
    for (const bdd::Bdd& c : conjuncts) disjunction |= c;
    EXPECT_EQ(foldBalanced(mgr, FoldOp::Or, conjuncts), disjunction)
        << n << " disjuncts";
  }
  // Stopping abandons the tree.
  EXPECT_TRUE(foldBalanced(mgr, FoldOp::And, {pool[0], pool[1], pool[2]},
                           [](const bdd::Bdd&) { return true; })
                  .isNull());
}

TEST(Partition, BalancedServerProductAllocatesAFractionOfTheFold) {
  // afs2(16)'s server track: 96 conjuncts.  The fold drags the growing
  // product through every step; the tree conjoins neighbours that share
  // support.  Allocation counts are deterministic.
  std::ifstream in(std::filesystem::path(CMC_MODELS_DIR) / "gen" /
                   "afs2_16.smv");
  std::stringstream text;
  text << in.rdbuf();
  const auto serverProduct = [&](bool balanced, std::uint64_t* allocated,
                                 std::uint64_t* nodes) {
    Context ctx(1 << 14);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, text.str());
    const SymbolicSystem& server = modules.front().sys;
    ASSERT_NE(server.name.find("server"), std::string::npos);
    ASSERT_EQ(server.partition.tracks.size(), 1u);
    ASSERT_FALSE(server.transMaterialized());
    const std::uint64_t before = ctx.mgr().stats().nodesAllocatedTotal;
    bdd::Bdd product = ctx.mgr().bddTrue();
    if (balanced) {
      product = server.transBdd();
    } else {
      for (const Conjunct& c : server.partition.tracks.front().conjuncts()) {
        product &= c.rel;
      }
    }
    *allocated = ctx.mgr().stats().nodesAllocatedTotal - before;
    *nodes = ctx.mgr().dagSize(product);
  };
  std::uint64_t treeAllocated = 0, treeNodes = 0;
  std::uint64_t foldAllocated = 0, foldNodes = 0;
  serverProduct(true, &treeAllocated, &treeNodes);
  serverProduct(false, &foldAllocated, &foldNodes);
  EXPECT_EQ(treeNodes, foldNodes);
  EXPECT_LE(treeAllocated, 25000u);
  EXPECT_GE(foldAllocated, 10 * treeAllocated);
}

TEST(Partition, ScheduleMatchesAndExists) {
  // exists(next bits, track ∧ target') computed by the schedule must be the
  // same BDD as the single-pass andExists against the product.
  std::mt19937 rng(11);
  Context ctx;
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
  SymbolicSystem a = symbolicFromExplicit(ctx, ea, "A");
  SymbolicSystem b = symbolicFromExplicit(ctx, eb, "B");
  const SymbolicSystem c = compose(a, b);

  bdd::Manager& mgr = ctx.mgr();
  std::vector<std::uint32_t> quantVars;
  for (VarId v : c.vars) {
    for (std::uint32_t bit : ctx.variable(v).bits) {
      quantVars.push_back(Context::bddVarOf(bit, true));
    }
  }
  const bdd::Bdd nextCube = ctx.nextCube(c.vars);
  for (const PartitionedRelation& track : c.partition.tracks) {
    const PreimageSchedule schedule(mgr, track, quantVars);
    const bdd::Bdd product = track.product(mgr);
    // A handful of targets, including constants.
    const bdd::Bdd targets[] = {
        mgr.bddTrue(), mgr.bddFalse(),
        mgr.permute(ctx.atomBdd("a"), ctx.swapPermutation()),
        mgr.permute(ctx.atomBdd("a") | !ctx.atomBdd("c"),
                    ctx.swapPermutation())};
    for (const bdd::Bdd& target : targets) {
      EXPECT_EQ(schedule.relProduct(target),
                mgr.andExists(product, target, nextCube));
    }
  }
}

TEST(Partition, ComposeKeepsConjunctsAndMonolithicAgrees) {
  Context ctx;
  abp::AbpComponents comps = abp::buildAbp(ctx);
  const SymbolicSystem whole =
      composeAll({comps.sender.sys, comps.msgChannel.sys,
                  comps.receiver.sys, comps.ackChannel.sys});
  // 4 component tracks + the stutter track; composition did not conjoin.
  EXPECT_EQ(whole.partition.tracks.size(), 5u);
  EXPECT_TRUE(whole.partition.hasStutterTrack());
  EXPECT_FALSE(whole.transMaterialized());
  // Every component track carries per-variable frame conjuncts.
  for (const PartitionedRelation& t : whole.partition.tracks) {
    if (!t.frameOnly()) {
      EXPECT_GT(t.size(), 1u);
    }
  }
  // The lazily materialized monolithic relation equals the eager formula.
  const bdd::Bdd lazily = whole.transBdd();
  EXPECT_TRUE(whole.transMaterialized());
  EXPECT_EQ(lazily, whole.partition.monolithic(ctx.mgr()));
}

/// Cross-validation: partitioned and monolithic checking must produce
/// *identical BDDs* (canonicity makes semantic equality node equality) on
/// every shipped model/spec pair.
void expectPartitionedMatchesMonolithic(
    Context& ctx, const SymbolicSystem& sys,
    const std::vector<ctl::Spec>& specs) {
  CheckerOptions mono;
  mono.usePartitionedTrans = false;
  Checker monolithic(sys, mono);
  ASSERT_FALSE(monolithic.usesPartition());

  for (const std::uint64_t threshold : {std::uint64_t{0},
                                        std::uint64_t{64},
                                        std::uint64_t{1024}}) {
    CheckerOptions part;
    part.clusterThreshold = threshold;
    Checker partitioned(sys, part);
    ASSERT_TRUE(partitioned.usesPartition());

    // preE agreement on a few non-trivial targets.
    const bdd::Bdd someTarget = sys.stateDomain();
    EXPECT_EQ(partitioned.preE(someTarget), monolithic.preE(someTarget));
    EXPECT_EQ(partitioned.preE(ctx.mgr().bddFalse()),
              monolithic.preE(ctx.mgr().bddFalse()));

    for (const ctl::Spec& spec : specs) {
      // sat() agreement (drives untilE/fairEG through both preE paths) for
      // the spec's own fairness set.
      EXPECT_EQ(partitioned.sat(spec.f, spec.r.fairness),
                monolithic.sat(spec.f, spec.r.fairness))
          << sys.name << " |= " << ctl::toString(spec.f) << " (threshold "
          << threshold << ")";
      EXPECT_EQ(partitioned.holds(spec), monolithic.holds(spec));
      EXPECT_EQ(partitioned.preE(partitioned.sat(spec.f, spec.r.fairness)),
                monolithic.preE(monolithic.sat(spec.f, spec.r.fairness)));
    }
  }
}

TEST(PartitionCrossValidation, Abp) {
  Context ctx(1 << 16);
  abp::AbpComponents comps = abp::buildAbp(ctx);
  const SymbolicSystem whole =
      composeAll({comps.sender.sys, comps.msgChannel.sys,
                  comps.receiver.sys, comps.ackChannel.sys});
  std::vector<ctl::Spec> specs;
  ctl::Spec safety;
  safety.name = "abp.safety";
  safety.r = ctl::Restriction{abp::abpInit(), {ctl::mkTrue()}};
  safety.f = ctl::AG(abp::abpTarget());
  specs.push_back(safety);
  // A fair spec exercises fairEG through both paths (the liveness setup of
  // verifyAbp: no perpetual loss, no perpetual starvation).
  ctl::Spec live;
  live.name = "abp.live";
  live.r = ctl::Restriction{
      abp::abpInit(),
      {ctl::mkOr(ctl::eq("delivered", "d0"), ctl::eq("msg", "m0")),
       ctl::mkOr(ctl::eq("delivered", "d0"), ctl::eq("ack", "a0"))}};
  live.f = ctl::AF(ctl::eq("delivered", "d0"));
  specs.push_back(live);
  expectPartitionedMatchesMonolithic(ctx, whole, specs);
}

TEST(PartitionCrossValidation, Afs1) {
  Context ctx(1 << 16);
  afs::Afs1Components comps = afs::buildAfs1(ctx);
  const SymbolicSystem whole = compose(comps.server.sys, comps.client.sys);
  std::vector<ctl::Spec> specs{afs::afs1SafetySpec()};
  // Include the shipped per-component specs (they mention only component
  // variables but are well-formed over the composition's context).
  for (const ctl::Spec& s : comps.server.specs) specs.push_back(s);
  for (const ctl::Spec& s : comps.client.specs) specs.push_back(s);
  expectPartitionedMatchesMonolithic(ctx, whole, specs);
}

TEST(PartitionCrossValidation, TokenRing3) {
  Context ctx(1 << 16);
  ring::RingComponents comps = ring::buildRing(ctx, 3);
  std::vector<SymbolicSystem> systems;
  for (const smv::ElaboratedModule& mod : comps.stations) {
    systems.push_back(mod.sys);
  }
  const SymbolicSystem whole = composeAll(systems);
  std::vector<ctl::Spec> specs;
  ctl::Spec mutex;
  mutex.name = "ring3.mutex";
  mutex.r = ctl::Restriction{ring::ringInit(3), {ctl::mkTrue()}};
  mutex.f = ctl::AG(ring::mutualExclusion(3));
  specs.push_back(mutex);
  ctl::Spec live;
  live.name = "ring3.live";
  live.r = ctl::Restriction{ring::ringInit(3), {ring::tokenExactlyAt(0, 3)}};
  live.f = ctl::EF(ctl::eq("st0", "cs"));
  specs.push_back(live);
  for (const smv::ElaboratedModule& mod : comps.stations) {
    for (const ctl::Spec& s : mod.specs) specs.push_back(s);
  }
  expectPartitionedMatchesMonolithic(ctx, whole, specs);
}

TEST(PartitionCrossValidation, RandomComposedSystems) {
  std::mt19937 rng(123);
  for (int trial = 0; trial < 5; ++trial) {
    Context ctx;
    kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
    kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
    kripke::ExplicitSystem eb({"b", "c"});
    ebRaw.forEachTransition(
        [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
    SymbolicSystem a = symbolicFromExplicit(ctx, ea, "A");
    SymbolicSystem b = symbolicFromExplicit(ctx, eb, "B");
    const SymbolicSystem c = compose(a, b);
    std::vector<ctl::Spec> specs;
    for (int i = 0; i < 4; ++i) {
      ctl::Spec s;
      s.name = "rand" + std::to_string(i);
      s.r = ctl::Restriction::trivial();
      if (i % 2 == 1) {
        s.r.fairness = {test::randomPropositional(rng, {"a", "b", "c"}, 2)};
      }
      s.f = test::randomFormula(rng, {"a", "b", "c"}, 3);
      specs.push_back(std::move(s));
    }
    expectPartitionedMatchesMonolithic(ctx, c, specs);
  }
}

TEST(PartitionCrossValidation, ReorderThenCheckAgreesOnAllShippedModels) {
  // For every model under models/: elaborate, sift the variable order
  // (Manager::reorderSift), then cross-validate partitioned preimages
  // against the monolithic relation at several cluster thresholds.  Sifting
  // permutes levels in place, so the PreimageSchedule built afterwards must
  // quantify by *level*, not by variable id — this sweep pins that down on
  // every shipped model, per module and on the composition.
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(CMC_MODELS_DIR)) {
    if (entry.path().extension() == ".smv") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty()) << "no models in " << CMC_MODELS_DIR;

  for (const fs::path& path : paths) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();

    Context ctx(1 << 16);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, buffer.str());
    ASSERT_FALSE(modules.empty());
    ctx.mgr().reorderSift();

    for (const smv::ElaboratedModule& mod : modules) {
      if (mod.specs.empty()) continue;
      expectPartitionedMatchesMonolithic(ctx, mod.sys, mod.specs);
    }
    if (modules.size() > 1) {
      std::vector<SymbolicSystem> systems;
      for (const smv::ElaboratedModule& mod : modules) {
        systems.push_back(mod.sys);
      }
      const SymbolicSystem whole = composeAll(systems);
      std::vector<ctl::Spec> specs;
      for (const smv::ElaboratedModule& mod : modules) {
        for (const ctl::Spec& s : mod.specs) specs.push_back(s);
      }
      expectPartitionedMatchesMonolithic(ctx, whole, specs);
    }
  }
}

TEST(PartitionCrossValidation, CheckResultAccounting) {
  Context ctx(1 << 16);
  ring::RingComponents comps = ring::buildRing(ctx, 3);
  std::vector<SymbolicSystem> systems;
  for (const smv::ElaboratedModule& mod : comps.stations) {
    systems.push_back(mod.sys);
  }
  const SymbolicSystem whole = composeAll(systems);
  ctl::Spec mutex;
  mutex.name = "ring3.mutex";
  mutex.r = ctl::Restriction{ring::ringInit(3), {ctl::mkTrue()}};
  mutex.f = ctl::AG(ring::mutualExclusion(3));

  Checker partitioned(whole);
  const CheckResult result = partitioned.check(mutex);
  EXPECT_TRUE(result.holds);
  EXPECT_TRUE(result.usedPartition);
  EXPECT_GT(result.peakLiveNodes, 0u);
  EXPECT_GT(result.cacheHitRate, 0.0);
  EXPECT_LE(result.cacheHitRate, 1.0);
  EXPECT_GT(result.transNodes, 0u);
  // The partitioned check never materialized the monolithic relation.
  EXPECT_FALSE(whole.transMaterialized());
}

// ---- EG true from the stutter track -----------------------------------------

/// νZ. EX Z through the public preimage: EG true computed the long way.
bdd::Bdd egTrueByFixpoint(Checker& checker) {
  bdd::Bdd z = checker.system().ctx->mgr().bddTrue();
  for (;;) {
    bdd::Bdd next = checker.preE(z);
    if (next == z) return z;
    z = std::move(next);
  }
}

/// On both engines fairStates({TRUE}) must equal the fixpoint; `stutters`
/// says whether `sys` takes the shortcut (and so gets exactly its domain).
void expectFairStatesExact(const SymbolicSystem& sys, bool stutters) {
  EXPECT_EQ(sys.stuttersByConstruction(), stutters) << sys.name;
  for (bool partitioned : {true, false}) {
    CheckerOptions opts;
    opts.usePartitionedTrans = partitioned;
    Checker checker(sys, opts);
    const bdd::Bdd fair = checker.fairStates({ctl::mkTrue()});
    EXPECT_EQ(fair, egTrueByFixpoint(checker))
        << sys.name << " partitioned=" << partitioned;
    if (stutters) {
      EXPECT_EQ(fair, sys.stateDomain()) << sys.name;
    }
  }
}

/// The reflexive closures of `modules`' systems — what composed
/// obligations compose.
std::vector<SymbolicSystem> reflexiveParts(
    const std::vector<smv::ElaboratedModule>& modules) {
  std::vector<SymbolicSystem> parts;
  for (const smv::ElaboratedModule& mod : modules) {
    SymbolicSystem sys = mod.sys;
    addReflexive(sys);
    parts.push_back(std::move(sys));
  }
  return parts;
}

/// Reference binary ∘, as a left fold applies it at each step: both
/// systems' non-stutter tracks copied and extended by freshly built frame
/// conjuncts (each support walked again), then Id(Σ*).
SymbolicSystem binaryCompose(const SymbolicSystem& m,
                             const SymbolicSystem& mp) {
  Context& ctx = *m.ctx;
  SymbolicSystem sys;
  sys.ctx = &ctx;
  sys.name = m.name + " o " + mp.name;
  std::set_union(m.vars.begin(), m.vars.end(), mp.vars.begin(), mp.vars.end(),
                 std::back_inserter(sys.vars));
  for (const SymbolicSystem* part : {&m, &mp}) {
    std::vector<VarId> extra;
    std::set_difference(sys.vars.begin(), sys.vars.end(), part->vars.begin(),
                        part->vars.end(), std::back_inserter(extra));
    for (const PartitionedRelation& t : part->partition.tracks) {
      if (t.frameOnly()) continue;
      PartitionedRelation extended = t;
      for (VarId v : extra) extended.appendFrame(frameConjunct(ctx, v), v);
      sys.partition.tracks.push_back(std::move(extended));
    }
  }
  sys.partition.tracks.push_back(stutterTrack(ctx, sys.vars));
  return sys;
}

SymbolicSystem leftFold(const std::vector<SymbolicSystem>& parts) {
  SymbolicSystem acc = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    acc = binaryCompose(acc, parts[i]);
  }
  return acc;
}

/// The first structural difference between two systems, or "" when there
/// is none: name, alphabet, materialized relation, stutter by
/// construction, track order, each track's frameOnly flag and frameVars,
/// and each conjunct's node, support and frame tag.  Nodes compare by
/// index: within one context that is the same node, and across two
/// contexts built alike it is the same allocation history.
std::string structureDiff(const SymbolicSystem& got,
                          const SymbolicSystem& want) {
  if (got.name != want.name) return "name " + got.name;
  if (got.vars != want.vars) return "vars";
  if (got.transMaterialized() != want.transMaterialized() ||
      got.monolithic_.index() != want.monolithic_.index()) {
    return "monolithic relation";
  }
  if (got.stuttersByConstruction() != want.stuttersByConstruction()) {
    return "stuttersByConstruction";
  }
  const std::vector<PartitionedRelation>& g = got.partition.tracks;
  const std::vector<PartitionedRelation>& w = want.partition.tracks;
  if (g.size() != w.size()) return "track count " + std::to_string(g.size());
  for (std::size_t t = 0; t < w.size(); ++t) {
    const std::string track = "track " + std::to_string(t);
    if (g[t].frameOnly() != w[t].frameOnly()) return track + " frameOnly";
    if (g[t].frameVars() != w[t].frameVars()) return track + " frameVars";
    if (g[t].size() != w[t].size()) return track + " size";
    for (std::size_t k = 0; k < w[t].size(); ++k) {
      const Conjunct& gc = g[t].conjuncts()[k];
      const Conjunct& wc = w[t].conjuncts()[k];
      const std::string conjunct = track + " conjunct " + std::to_string(k);
      if (gc.rel.index() != wc.rel.index()) return conjunct + " relation";
      if (gc.support != wc.support) return conjunct + " support";
      if (gc.isFrame != wc.isFrame) return conjunct + " frame tag";
    }
  }
  return "";
}

/// Every shipped program (models/ and models/gen/) plus genmodel's ring(64)
/// and afs2(16), by name.
std::vector<std::pair<std::string, std::string>> compositionPrograms() {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> programs{
      {"ring(64)", gen::ringModel(64)}, {"afs2(16)", gen::afs2Model(16)}};
  const fs::path models(CMC_MODELS_DIR);
  for (const fs::path& dir : {models, models / "gen"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() != ".smv") continue;
      std::ifstream in(entry.path());
      std::stringstream text;
      text << in.rdbuf();
      programs.emplace_back(entry.path().filename().string(), text.str());
    }
  }
  return programs;
}

TEST(Composition, OnePassIsTheLeftFold) {
  std::size_t programs = 0, multiModule = 0;
  for (const auto& [name, text] : compositionPrograms()) {
    SCOPED_TRACE(name);
    ++programs;
    Context ctx(1 << 14), foldCtx(1 << 14);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, text);
    const std::vector<smv::ElaboratedModule> foldModules =
        smv::elaborateProgram(foldCtx, text);
    multiModule += modules.size() > 1 ? 1 : 0;

    // The modules themselves, before any reflexive closure built their
    // frames, in two contexts elaborated alike: the pass builds the frames
    // the fold built, in the fold's order, so both allocate the same
    // nodes at the same indices.
    std::vector<SymbolicSystem> raw, foldRaw;
    for (const smv::ElaboratedModule& mod : modules) raw.push_back(mod.sys);
    for (const smv::ElaboratedModule& mod : foldModules) {
      foldRaw.push_back(mod.sys);
    }
    EXPECT_EQ(structureDiff(composeAll(raw), leftFold(foldRaw)), "");
    EXPECT_EQ(ctx.mgr().stats().nodesAllocatedTotal,
              foldCtx.mgr().stats().nodesAllocatedTotal);
    EXPECT_EQ(ctx.mgr().stats().gcRuns, foldCtx.mgr().stats().gcRuns);

    // The reflexive closures, as composed obligations compose them; every
    // neighbouring pair both ways round; each module expanded over the
    // union.
    const std::vector<SymbolicSystem> parts = reflexiveParts(modules);
    const SymbolicSystem whole = composeAll(parts);
    EXPECT_EQ(structureDiff(whole, leftFold(parts)), "");
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      const SymbolicSystem& a = parts[i];
      const SymbolicSystem& b = parts[i + 1];
      EXPECT_EQ(structureDiff(compose(a, b), binaryCompose(a, b)), "") << i;
      EXPECT_EQ(structureDiff(compose(b, a), binaryCompose(b, a)), "") << i;
    }
    for (const SymbolicSystem& part : parts) {
      SymbolicSystem want =
          binaryCompose(part, identitySystem(ctx, whole.vars));
      want.name = part.name + " (expanded)";
      EXPECT_EQ(structureDiff(expand(part, whole.vars), want), "")
          << part.name;
    }
  }
  EXPECT_EQ(programs, 17u);
  EXPECT_GE(multiModule, 10u);
}

TEST(Composition, WorkIsLinearInComponents) {
  // Op-cache lookups, not time: they repeat exactly, so host noise cannot
  // flip this.  A left fold of binary ∘, which re-frames every track built
  // so far at every step, makes 28,954 lookups on ring(32) and 117,773 on
  // ring(64).
  std::map<std::size_t, std::uint64_t> lookups;
  for (std::size_t n : {32, 64}) {
    SCOPED_TRACE(n);
    Context ctx(1 << 14);
    const std::vector<SymbolicSystem> parts =
        reflexiveParts(smv::elaborateProgram(ctx, gen::ringModel(n)));
    const std::uint64_t before = ctx.mgr().stats().cacheLookups;
    const SymbolicSystem whole = composeAll(parts);
    lookups[n] = ctx.mgr().stats().cacheLookups - before;
    EXPECT_LE(lookups[n], 16 * whole.vars.size());
  }
  EXPECT_LE(2 * lookups[64], 5 * lookups[32]);  // at most 2.5 times
}

TEST(StutterShortcut, FairRegionIsExactOnEveryCompositionAndExpansion) {
  namespace fs = std::filesystem;
  const fs::path models(CMC_MODELS_DIR);
  std::vector<fs::path> paths{models / "gen" / "afs2_3.smv",
                              models / "gen" / "ring_3.smv"};
  for (const auto& entry : fs::directory_iterator(models)) {
    if (entry.path().extension() == ".smv") paths.push_back(entry.path());
  }
  std::size_t programs = 0;
  for (const fs::path& path : paths) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    Context ctx(1 << 16);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, buffer.str());
    if (modules.size() < 2) continue;
    ++programs;
    const std::vector<SymbolicSystem> parts = reflexiveParts(modules);
    const SymbolicSystem whole = composeAll(parts);
    expectFairStatesExact(whole, /*stutters=*/true);
    for (const SymbolicSystem& part : parts) {
      std::vector<VarId> extra;
      std::set_difference(whole.vars.begin(), whole.vars.end(),
                          part.vars.begin(), part.vars.end(),
                          std::back_inserter(extra));
      expectFairStatesExact(expand(part, extra), /*stutters=*/true);
    }
  }
  EXPECT_EQ(programs, 6u);
}

/// `dead` deadlocks in x = c, so EG true is a strict subset of its domain.
const char* kDeadlockSmv = R"(
MODULE dead
VAR x : {a, b, c};
TRANS (x = a & next(x) = b) | (x = b & next(x) = b)
MODULE toggle
VAR y : boolean;
ASSIGN next(y) := !y;
)";

TEST(StutterShortcut, SystemsWithoutAFullStutterTrackTakeTheFixpoint) {
  Context ctx;
  const std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, kDeadlockSmv);
  ASSERT_EQ(modules.size(), 2u);

  // A raw elaborated module carries no stutter track, and `dead` is not
  // total either: the fixpoint runs past its first preimage.
  const SymbolicSystem& dead = modules.front().sys;
  expectFairStatesExact(dead, /*stutters=*/false);
  Checker deadChecker(dead);
  EXPECT_NE(deadChecker.fairStates({ctl::mkTrue()}), dead.stateDomain());
  EXPECT_GT(deadChecker.preimageCount(), 1u);

  // A composition whose frame-only track misses one variable.
  SymbolicSystem whole = composeAll(reflexiveParts(modules));
  ASSERT_TRUE(whole.stuttersByConstruction());
  for (PartitionedRelation& t : whole.partition.tracks) {
    if (!t.frameOnly()) continue;
    const std::vector<VarId> fewer(whole.vars.begin(), whole.vars.end() - 1);
    t = stutterTrack(ctx, fewer);
  }
  whole.name = "composition with a short stutter track";
  expectFairStatesExact(whole, /*stutters=*/false);
}

/// The text of every model under models/ and models/gen/.
std::vector<std::pair<std::string, std::string>> shippedPrograms() {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const fs::path& dir : {fs::path(CMC_MODELS_DIR),
                              fs::path(CMC_MODELS_DIR) / "gen"}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".smv") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, std::string>> programs;
  for (const fs::path& path : paths) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    programs.emplace_back(path.filename().string(), buffer.str());
  }
  return programs;
}

/// Elaborate `text`, then declare one more variable, so that no module
/// covers its context: every module is a component and takes the cone.
std::vector<smv::ElaboratedModule> componentsOf(Context& ctx,
                                                const std::string& text) {
  std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, text);
  ctx.addBoolVar("outside_every_module");
  return modules;
}

TEST(StutterShortcut, TotalComponentsGetTheirDomainFromOnePreimage) {
  // preE(true) is the domain on a total system, so EG true is the domain
  // after that one preimage — node for node what the fixpoint returns —
  // and a second request costs none.
  std::size_t total = 0;
  for (const auto& [name, text] : shippedPrograms()) {
    SCOPED_TRACE(name);
    Context ctx(1 << 16);
    for (const smv::ElaboratedModule& mod : componentsOf(ctx, text)) {
      if (!mod.sys.isTotal()) continue;
      ++total;
      for (const bool partitioned : {true, false}) {
        CheckerOptions opts;
        opts.usePartitionedTrans = partitioned;
        Checker checker(mod.sys, opts);
        const bdd::Bdd fair = checker.fairStates({ctl::mkTrue()});
        EXPECT_EQ(checker.fairStates({ctl::mkTrue(), ctl::mkTrue()}), fair);
        EXPECT_EQ(checker.preimageCount(), 1u) << mod.sys.name;
        EXPECT_EQ(fair, mod.sys.stateDomain()) << mod.sys.name;
        // sat(EG true) under no fairness is fairEG(true, {true}).
        EXPECT_EQ(fair, checker.sat(ctl::EG(ctl::mkTrue()), {}))
            << mod.sys.name;
      }
    }
  }
  EXPECT_GE(total, 60u);
}

// ---- Cone-of-influence preimages ---------------------------------------------

/// A predicate over `count` of `sys`'s variables picked at random: a value
/// test per variable, possibly negated, joined by random ∧/∨.
bdd::Bdd randomTarget(Context& ctx, const SymbolicSystem& sys,
                      std::mt19937& rng, std::size_t count) {
  std::vector<VarId> vars = sys.vars;
  std::shuffle(vars.begin(), vars.end(), rng);
  vars.resize(std::min(count, vars.size()));
  bdd::Bdd target;
  for (VarId v : vars) {
    bdd::Bdd lit = ctx.varEqIndex(v, rng() % ctx.variable(v).values.size());
    if (rng() % 2 == 0) lit = !lit;
    if (target.isNull()) {
      target = lit;
    } else {
      target = rng() % 2 == 0 ? target & lit : target | lit;
    }
  }
  return target.isNull() ? ctx.mgr().bddTrue() : target;
}

/// preE on `target` under a partitioned and a monolithic checker must be
/// andExists(T, target', next) computed directly, where only the
/// alphabet's bits are primed: a variable outside it keeps its value.
/// Returns whether the target's cone left some group out.
bool expectConeExact(Context& ctx, const SymbolicSystem& sys, Checker& part,
                     Checker& mono, const bdd::Bdd& target) {
  bdd::Manager& mgr = ctx.mgr();
  const bdd::Bdd expected = mgr.andExists(
      sys.transBdd(), mgr.permute(target, ctx.swapPermutation(sys.vars)),
      ctx.nextCube(sys.vars));
  const std::uint64_t cone0 = part.conePreimageCount();
  const std::uint64_t monoCone0 = mono.conePreimageCount();
  EXPECT_EQ(part.preE(target), expected) << sys.name;
  EXPECT_EQ(mono.preE(target), expected) << sys.name;
  const bool narrow = part.conePreimageCount() > cone0;
  EXPECT_EQ(mono.conePreimageCount() > monoCone0, narrow) << sys.name;
  return narrow;
}

/// Narrow (one variable) and wide (every variable) random targets on both
/// engines; returns how many narrow ones left some group out.
std::size_t expectConeExactOnRandomTargets(Context& ctx,
                                           const SymbolicSystem& sys,
                                           std::mt19937& rng) {
  CheckerOptions monolithic;
  monolithic.usePartitionedTrans = false;
  Checker part(sys);
  Checker mono(sys, monolithic);
  EXPECT_TRUE(part.usesCone() && mono.usesCone()) << sys.name;
  EXPECT_TRUE(part.usesPartition() && !mono.usesPartition()) << sys.name;
  std::size_t narrowSkipped = 0;
  for (int i = 0; i < 12; ++i) {
    const bool narrow = i % 2 == 0;
    const bdd::Bdd target =
        randomTarget(ctx, sys, rng, narrow ? 1 : sys.vars.size());
    if (expectConeExact(ctx, sys, part, mono, target) && narrow) {
      ++narrowSkipped;
    }
  }
  return narrowSkipped;
}

TEST(ConePreimage, ExactOnEveryShippedModuleAndRandomSystem) {
  std::mt19937 rng(2027);
  std::size_t modules = 0;
  std::size_t narrowSkipped = 0;
  for (const auto& [name, text] : shippedPrograms()) {
    SCOPED_TRACE(name);
    Context ctx(1 << 16);
    for (const smv::ElaboratedModule& mod : componentsOf(ctx, text)) {
      ++modules;
      narrowSkipped += expectConeExactOnRandomTargets(ctx, mod.sys, rng);
    }
  }
  EXPECT_GE(modules, 70u);
  // Most one-variable targets touch one group of many.
  EXPECT_GE(narrowSkipped, 3 * modules);

  // The components of PartitionCrossValidation.RandomComposedSystems.
  std::mt19937 systems(123);
  for (int trial = 0; trial < 5; ++trial) {
    Context ctx;
    kripke::ExplicitSystem ea = test::randomSystem(systems, 2);
    kripke::ExplicitSystem ebRaw = test::randomSystem(systems, 2);
    kripke::ExplicitSystem eb({"b", "c"});
    ebRaw.forEachTransition(
        [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
    const SymbolicSystem a = symbolicFromExplicit(ctx, ea, "A");
    const SymbolicSystem b = symbolicFromExplicit(ctx, eb, "B");
    expectConeExactOnRandomTargets(ctx, a, rng);
    expectConeExactOnRandomTargets(ctx, b, rng);
  }
}

/// `tied`'s TRANS constraints share next(x) and next(y), so those two
/// conjuncts and x's domain form one group; z's assignment and domain form
/// the other.  `watch` keeps `tied` a component.
const char* kTiedSmv = R"(
MODULE tied
VAR
  x : {a, b, c};
  y : boolean;
  z : {p, q, r};
TRANS next(x) = a -> next(y)
TRANS next(y) -> next(x) != c
ASSIGN next(z) := case z = p : q; z = q : r; 1 : p; esac;
MODULE watch
VAR w : boolean;
ASSIGN next(w) := !w;
)";

TEST(ConePreimage, TargetsOfOneGroupFoldOnlyThatGroup) {
  Context ctx;
  const std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, kTiedSmv);
  const SymbolicSystem& tied = modules.front().sys;
  ASSERT_EQ(tied.partition.tracks.size(), 1u);
  ASSERT_EQ(tied.partition.tracks.front().size(), 5u);  // 2 TRANS, z, 2 doms
  CheckerOptions monolithic;
  monolithic.usePartitionedTrans = false;
  Checker part(tied);
  Checker mono(tied, monolithic);
  const auto is = [&ctx](const char* var, const char* value) {
    return ctx.varEq(ctx.varId(var), value);
  };
  const bdd::Bdd y = ctx.atomBdd("y");
  // One group of two: the cone.
  EXPECT_TRUE(expectConeExact(ctx, tied, part, mono, is("x", "a")));
  EXPECT_TRUE(expectConeExact(ctx, tied, part, mono, y & !is("x", "c")));
  EXPECT_TRUE(expectConeExact(ctx, tied, part, mono, is("z", "r")));
  // None: the projection alone.  `w` is foreign to `tied`, so it is held
  // at its current value, not primed.
  EXPECT_TRUE(expectConeExact(ctx, tied, part, mono, ctx.mgr().bddTrue()));
  EXPECT_TRUE(expectConeExact(ctx, tied, part, mono, ctx.atomBdd("w")));
  EXPECT_EQ(part.preE(ctx.atomBdd("w")),
            ctx.atomBdd("w") & part.preE(ctx.mgr().bddTrue()));
  // Both groups: every conjunct folds, on either engine.
  EXPECT_FALSE(expectConeExact(ctx, tied, part, mono,
                               is("x", "b") | is("z", "q")));
  EXPECT_EQ(part.preimageCount(), 8u);
  EXPECT_EQ(part.conePreimageCount(), 7u);
  EXPECT_EQ(mono.conePreimageCount(), 5u);
}

// ---- Kept checkers ------------------------------------------------------------

/// `relay` with one failing spec, whose counterexample takes three steps;
/// `watch` keeps it a component.
const char* kRelaySmv = R"(
MODULE relay
VAR s : {idle, req, busy, done};
INIT s = idle
ASSIGN next(s) := case s = idle : req; s = req : busy; s = busy : done; 1 : idle; esac;
SPEC AG (s = busy -> AX (s = done))
SPEC AG (s != done)
MODULE watch
VAR w : boolean;
ASSIGN next(w) := !w;
)";

TEST(KeptChecker, OneCheckerServesEveryCheckUntilTheEngineOrThresholdChanges) {
  Context ctx;
  const std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, kRelaySmv);
  const ctl::Spec& holds = modules.front().specs.at(0);
  KeptChecker kept(modules.front().sys);
  CheckerOptions opts;
  int firstPolls = 0;
  int secondPolls = 0;
  opts.cancelCheck = [&firstPolls] { ++firstPolls; };
  kept.setOptions(opts);
  EXPECT_TRUE(kept.checker().holds(holds));
  const std::uint64_t preimages = kept.checker().preimageCount();
  EXPECT_GT(preimages, 0u);
  EXPECT_GT(firstPolls, 0);

  // A new hook alone: the same checker (its running total goes on) polls
  // only the new hook, and a throwing one cancels just that check.
  opts.cancelCheck = [&secondPolls] { ++secondPolls; };
  kept.setOptions(opts);
  const int firstPollsBefore = firstPolls;
  EXPECT_TRUE(kept.checker().holds(holds));
  EXPECT_EQ(firstPolls, firstPollsBefore);
  EXPECT_GT(secondPolls, 0);
  EXPECT_GT(kept.checker().preimageCount(), preimages);
  opts.cancelCheck = [] {
    throw CancelledError(CancelReason::External, "stop");
  };
  kept.setOptions(opts);
  EXPECT_THROW(kept.checker().holds(holds), CancelledError);
  opts.cancelCheck = nullptr;
  kept.setOptions(opts);
  EXPECT_TRUE(kept.checker().holds(holds));
  EXPECT_GT(kept.checker().preimageCount(), preimages);

  // An engine change, then a threshold change: a new checker each time.
  opts.usePartitionedTrans = false;
  kept.setOptions(opts);
  EXPECT_EQ(kept.checker().preimageCount(), 0u);
  EXPECT_FALSE(kept.checker().usesPartition());
  EXPECT_TRUE(kept.checker().holds(holds));
  opts.clusterThreshold = 64;
  kept.setOptions(opts);
  EXPECT_EQ(kept.checker().preimageCount(), 0u);
  EXPECT_EQ(kept.checker().options().clusterThreshold, 64u);
  EXPECT_TRUE(kept.checker().holds(holds));
}

TEST(KeptChecker, CounterexamplesLeaveTheKeptSystemUnmaterialized) {
  Context ctx;
  const std::vector<smv::ElaboratedModule> modules =
      smv::elaborateProgram(ctx, kRelaySmv);
  const ctl::Spec& fails = modules.front().specs.at(1);
  KeptChecker kept(modules.front().sys);
  ASSERT_FALSE(kept.system().transMaterialized());
  EXPECT_FALSE(kept.checker().holds(fails));
  const std::string trace = kept.counterexample(fails);
  EXPECT_NE(trace.find("state 3: s = done"), std::string::npos) << trace;
  EXPECT_FALSE(kept.system().transMaterialized());
  const SymbolicSystem copy = modules.front().sys;
  EXPECT_EQ(trace, Checker(copy).counterexampleText(fails));
}

/// `pipe`'s three variables form three groups.  SPEC1's EX target reads
/// all of them, SPEC2 fails (c = q after four steps), SPEC3's AX target
/// reads c alone; `watch` keeps `pipe` a component.
const char* kPipeSmv = R"(
MODULE pipe
VAR
  a : {x, y, z};
  b : boolean;
  c : {p, q};
INIT a = x & !b & c = p
ASSIGN
  next(a) := case a = x : y; a = y : z; 1 : x; esac;
  next(b) := a = z;
  next(c) := case b : q; 1 : p; esac;
SPEC AG (a = z & !b -> EX (b & a = x & c = p))
SPEC AG !(c = q)
SPEC AG (b -> AX (c = q))
MODULE watch
VAR w : boolean;
ASSIGN next(w) := !w;
)";

TEST(KeptChecker, HoldsWhatAFreshCheckerHoldsWhateverRanBefore) {
  // A node budget counts live nodes after a collection.  After a wide
  // spec, a failing one and its counterexample, a kept checker's manager
  // holds exactly the nodes of a fresh one that checked only the narrow
  // spec, so a budget binds a warm check as it binds a fresh one.
  for (const bool partitioned : {true, false}) {
    SCOPED_TRACE(partitioned ? "partitioned" : "monolithic");
    CheckerOptions opts;
    opts.usePartitionedTrans = partitioned;

    Context warmCtx;
    const std::vector<smv::ElaboratedModule> warmModules =
        smv::elaborateProgram(warmCtx, kPipeSmv);
    const std::vector<ctl::Spec>& specs = warmModules.front().specs;
    KeptChecker warm(warmModules.front().sys);
    warm.setOptions(opts);
    EXPECT_TRUE(warm.checker().holds(specs.at(0)));
    // The wide target's cone is the whole relation.
    EXPECT_LT(warm.checker().conePreimageCount(),
              warm.checker().preimageCount());
    EXPECT_FALSE(warm.checker().holds(specs.at(1)));
    EXPECT_NE(warm.counterexample(specs.at(1)).find("c = q"),
              std::string::npos);
    EXPECT_TRUE(warm.checker().holds(specs.at(2)));
    EXPECT_FALSE(warm.system().transMaterialized());
    warmCtx.mgr().collectGarbage();

    Context freshCtx;
    const std::vector<smv::ElaboratedModule> freshModules =
        smv::elaborateProgram(freshCtx, kPipeSmv);
    KeptChecker fresh(freshModules.front().sys);
    fresh.setOptions(opts);
    EXPECT_TRUE(fresh.checker().holds(freshModules.front().specs.at(2)));
    freshCtx.mgr().collectGarbage();

    EXPECT_EQ(warmCtx.mgr().liveNodeCount(), freshCtx.mgr().liveNodeCount());
  }
}

// ---- The oracle test: symbolic vs explicit on random models ----------------

class CheckerAgreement : public ::testing::TestWithParam<int> {};

TEST_P(CheckerAgreement, RandomSystemsAndFormulas) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 13);
  kripke::ExplicitSystem es = test::randomSystem(rng, 3);
  kripke::ExplicitChecker explicitChecker(es);

  Context ctx;
  SymbolicSystem ss = symbolicFromExplicit(ctx, es, "random");
  Checker symbolicChecker(ss);

  for (int i = 0; i < 6; ++i) {
    const ctl::FormulaPtr f = test::randomFormula(rng, es.atoms(), 3);
    // Random fairness: none, or one constraint.
    std::vector<ctl::FormulaPtr> fairness;
    if (i % 2 == 1) {
      fairness.push_back(test::randomPropositional(rng, es.atoms(), 2));
    }
    const kripke::StateSet expected = explicitChecker.sat(f, fairness);
    const bdd::Bdd actual = symbolicChecker.sat(f, fairness);
    for (kripke::State s = 0; s < es.stateCount(); ++s) {
      EXPECT_EQ(test::symbolicSetHolds(ss, actual, es, s), expected[s])
          << "state " << es.stateToString(s) << " formula "
          << ctl::toString(f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerAgreement, ::testing::Range(0, 30));

}  // namespace
}  // namespace cmc::symbolic
