// Tests for the compositional theory: classification (Rules 1-3), rule
// derivation (Rules 4-5), proof trees, the verifier and the leads-to
// ledger.  Includes soundness property tests that validate the rules
// against brute-force composition, and mutation tests checking that broken
// premises are refused.
#include <gtest/gtest.h>

#include "comp/classify.hpp"
#include "comp/leadsto.hpp"
#include "comp/rules.hpp"
#include "comp/verifier.hpp"
#include "ctl/parser.hpp"
#include "symbolic/encode.hpp"
#include "test_util.hpp"

namespace cmc::comp {
namespace {

using ctl::parse;
using ctl::Restriction;

Restriction trivial() { return Restriction::trivial(); }

// ---- Classification ---------------------------------------------------------

TEST(Classify, Rule1PropositionalIsExistential) {
  EXPECT_EQ(classify(trivial(), parse("p -> q | r")),
            PropertyClass::Existential);
  Restriction withInit = trivial().withInit(parse("p"));
  EXPECT_EQ(classify(withInit, parse("!q")), PropertyClass::Existential);
  // Nontrivial fairness disables Rule 1.
  Restriction withFair = trivial().withFairness(parse("p"));
  EXPECT_EQ(classify(withFair, parse("p")), PropertyClass::Unknown);
}

TEST(Classify, Rule2AXIsUniversal) {
  EXPECT_EQ(classify(trivial(), parse("p -> AX (p | q)")),
            PropertyClass::Universal);
  EXPECT_EQ(classify(trivial(), parse("p & q -> AX !q")),
            PropertyClass::Universal);
  // Non-propositional operands disqualify.
  EXPECT_EQ(classify(trivial(), parse("EX p -> AX q")),
            PropertyClass::Unknown);
  EXPECT_EQ(classify(trivial(), parse("p -> AX AX q")),
            PropertyClass::Unknown);
  // A propositional INIT only strengthens the antecedent to INIT & p.
  EXPECT_EQ(classify(trivial().withInit(parse("p")), parse("p -> AX q")),
            PropertyClass::Universal);
  // A temporal INIT, or fairness other than TRUE, still disables Rule 2.
  EXPECT_EQ(classify(trivial().withInit(parse("EF p")), parse("p -> AX q")),
            PropertyClass::Unknown);
  EXPECT_EQ(classify(trivial().withFairness(parse("p")), parse("p -> AX q")),
            PropertyClass::Unknown);
  EXPECT_EQ(classify(trivial().withInit(parse("p")).withFairness(parse("q")),
                     parse("p -> AX q")),
            PropertyClass::Unknown);
}

TEST(Classify, Rule3EXIsExistential) {
  EXPECT_EQ(classify(trivial(), parse("p -> EX q")),
            PropertyClass::Existential);
  EXPECT_EQ(classify(trivial(), parse("p -> EX EX q")),
            PropertyClass::Unknown);
}

TEST(Classify, ConjunctionsTakeTheWeakestClass) {
  // existential & existential = existential.
  EXPECT_EQ(classify(trivial(), parse("(p -> EX q) & (q -> EX p)")),
            PropertyClass::Existential);
  // universal & existential = universal.
  EXPECT_EQ(classify(trivial(), parse("(p -> AX q) & (q -> EX p)")),
            PropertyClass::Universal);
  // anything with an unclassifiable conjunct is unknown.
  EXPECT_EQ(classify(trivial(), parse("(p -> AX q) & AG p")),
            PropertyClass::Unknown);
}

TEST(Classify, NestedConjunctionsClassifyLikeTheirFlattening) {
  // Grouping must not matter: conjuncts() flattens nested & chains, so
  // ((a & b) & c) and (a & (b & c)) take the same class.
  const char* flat = "(p -> AX q) & (q -> EX p) & (p | q)";
  const char* leftNested = "((p -> AX q) & (q -> EX p)) & (p | q)";
  const char* rightNested = "(p -> AX q) & ((q -> EX p) & (p | q))";
  const PropertyClass want = classify(trivial(), parse(flat));
  EXPECT_EQ(want, PropertyClass::Universal);
  EXPECT_EQ(classify(trivial(), parse(leftNested)), want);
  EXPECT_EQ(classify(trivial(), parse(rightNested)), want);
}

TEST(Classify, UnknownConjunctPoisonsEitherSide) {
  // Unknown ∧ universal = Unknown regardless of conjunct order: one
  // unclassifiable conjunct makes the whole conjunction undischargeable.
  EXPECT_EQ(classify(trivial(), parse("AG p & (p -> AX q)")),
            PropertyClass::Unknown);
  EXPECT_EQ(classify(trivial(), parse("(p -> AX q) & AG p")),
            PropertyClass::Unknown);
  // Even buried in a nested group.
  EXPECT_EQ(classify(trivial(), parse("(p -> AX q) & ((q -> EX p) & AG p)")),
            PropertyClass::Unknown);
}

TEST(Classify, DuplicateConjunctsDoNotChangeTheClass) {
  EXPECT_EQ(classify(trivial(), parse("(p -> AX q) & (p -> AX q)")),
            classify(trivial(), parse("p -> AX q")));
  EXPECT_EQ(classify(trivial(), parse("(p -> EX q) & (p -> EX q)")),
            PropertyClass::Existential);
  // Idempotence under an odd mix: duplicating a universal conjunct in a
  // universal & existential conjunction keeps the conjunction universal.
  EXPECT_EQ(
      classify(trivial(),
               parse("(p -> AX q) & (q -> EX p) & (p -> AX q)")),
      PropertyClass::Universal);
}

TEST(Classify, ShapeMatchers) {
  ctl::FormulaPtr p, q;
  EXPECT_TRUE(matchImpliesAX(parse("a & b -> AX (a | c)"), &p, &q));
  EXPECT_TRUE(ctl::equal(p, parse("a & b")));
  EXPECT_TRUE(ctl::equal(q, parse("a | c")));
  EXPECT_FALSE(matchImpliesAX(parse("a -> EX b"), nullptr, nullptr));
  EXPECT_TRUE(matchImpliesEX(parse("a -> EX b"), &p, &q));
  EXPECT_EQ(conjuncts(parse("a & b & c")).size(), 3u);
  EXPECT_EQ(conjuncts(parse("a | b")).size(), 1u);
}

// ---- Proof trees ------------------------------------------------------------

TEST(ProofTree, ValidityAndRendering) {
  ProofTree proof;
  const std::size_t a =
      proof.add(ProofNode::Kind::ModelCheck, "M |= f", true);
  const std::size_t b =
      proof.add(ProofNode::Kind::ModelCheck, "M' |= f", true);
  proof.add(ProofNode::Kind::Conclusion, "M o M' |= f", true, {a, b});
  EXPECT_TRUE(proof.valid());
  EXPECT_EQ(proof.modelCheckCount(), 2u);
  const std::string text = proof.render();
  EXPECT_NE(text.find("M o M' |= f"), std::string::npos);
  EXPECT_NE(text.find("[check]"), std::string::npos);

  proof.add(ProofNode::Kind::ModelCheck, "M |= g", false);
  EXPECT_FALSE(proof.valid());
  EXPECT_NE(proof.render().find("FAIL"), std::string::npos);
}

// ---- Rule derivation --------------------------------------------------------

/// One-variable "progress" component: p-states can always step to q.
/// Atoms: p (stage), q (done).  States: {p}, {q} (+junk combos).
symbolic::SymbolicSystem progressSystem(symbolic::Context& ctx) {
  const symbolic::VarId p = ctx.addBoolVar("p");
  const symbolic::VarId q = ctx.addBoolVar("q");
  // Transition: (p & !q) -> (!p & q), plus global stutter.
  const bdd::Bdd move = ctx.varEq(p, "1") & ctx.varEq(q, "0") &
                        ctx.varEq(p, "0", true) & ctx.varEq(q, "1", true);
  symbolic::SymbolicSystem sys =
      symbolic::makeSystem(ctx, "progress", {p, q}, move);
  symbolic::addReflexive(sys);
  return sys;
}

TEST(Rules, Rule4DerivesGuarantee) {
  symbolic::Context ctx;
  symbolic::SymbolicSystem sys = progressSystem(ctx);
  symbolic::Checker checker(sys);
  ProofTree proof;
  const auto g = deriveRule4(checker, parse("p & !q"), parse("q"), proof);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->derivedBy, "Rule 4");
  ASSERT_EQ(g->lhs.size(), 1u);
  ASSERT_EQ(g->rhs.size(), 2u);
  EXPECT_TRUE(ctl::equal(g->lhs[0].f,
                         parse("p & !q -> AX (p & !q | q)")));
  EXPECT_TRUE(ctl::equal(g->rhs[0].f, parse("p & !q -> A[p & !q U q]")));
  // The restriction carries the fairness constraint ¬p ∨ q.
  ASSERT_EQ(g->rhs[0].r.fairness.size(), 1u);
  EXPECT_TRUE(
      ctl::equal(g->rhs[0].r.fairness[0], parse("!(p & !q) | q")));
  EXPECT_TRUE(proof.valid());
}

TEST(Rules, Rule4RefusesBrokenPremise) {
  symbolic::Context ctx;
  // A system whose p-states CANNOT reach q: only stuttering.
  const symbolic::VarId p = ctx.addBoolVar("p");
  const symbolic::VarId q = ctx.addBoolVar("q");
  symbolic::SymbolicSystem sys = symbolic::identitySystem(ctx, {p, q});
  symbolic::Checker checker(sys);
  ProofTree proof;
  const auto g = deriveRule4(checker, parse("p & !q"), parse("q"), proof);
  EXPECT_FALSE(g.has_value());
  EXPECT_FALSE(proof.valid());  // the failed premise is recorded
}

TEST(Rules, Rule4RejectsNonPropositional) {
  symbolic::Context ctx;
  symbolic::SymbolicSystem sys = progressSystem(ctx);
  symbolic::Checker checker(sys);
  ProofTree proof;
  EXPECT_THROW(deriveRule4(checker, parse("EX p"), parse("q"), proof),
               ModelError);
}

TEST(Rules, Rule5NeedsOnlyOneHelpfulDisjunct) {
  symbolic::Context ctx;
  symbolic::SymbolicSystem sys = progressSystem(ctx);
  symbolic::Checker checker(sys);
  ProofTree proof;
  // p = p1 ∨ p2 with p1 = (p & !q) helpful, p2 = (!p & !q) not.
  const std::vector<ctl::FormulaPtr> ps = {parse("p & !q"),
                                           parse("!p & !q")};
  const auto g = deriveRule5(checker, ps, 0, parse("q"), proof);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->derivedBy, "Rule 5");
  // lhs: AX step plus one EF obligation per disjunct.
  EXPECT_EQ(g->lhs.size(), 1u + ps.size());
  // Bad helpful index: premise fails.
  ProofTree proof2;
  const auto g2 = deriveRule5(checker, ps, 1, parse("q"), proof2);
  EXPECT_FALSE(g2.has_value());
  EXPECT_THROW(deriveRule5(checker, {}, 0, parse("q"), proof),
               ModelError);
}

// ---- Verifier ---------------------------------------------------------------

/// Builds two tiny one-atom components in a shared context: `left` flips a,
/// `right` flips b; both reflexive.
struct TwoComponents {
  symbolic::Context ctx;
  symbolic::SymbolicSystem left;
  symbolic::SymbolicSystem right;

  TwoComponents() {
    const symbolic::VarId a = ctx.addBoolVar("a");
    const symbolic::VarId b = ctx.addBoolVar("b");
    // left: a:=1 when !a (latch), stutter otherwise.
    const bdd::Bdd setA = ctx.varEq(a, "0") & ctx.varEq(a, "1", true);
    left = symbolic::makeSystem(ctx, "left", {a}, setA);
    symbolic::addReflexive(left);
    const bdd::Bdd setB = ctx.varEq(b, "0") & ctx.varEq(b, "1", true);
    right = symbolic::makeSystem(ctx, "right", {b}, setB);
    symbolic::addReflexive(right);
  }
};

TEST(Verifier, UniversalSpecCheckedOnEveryComponent) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  ProofTree proof;
  // A latch never unsets: a -> AX a holds in both expansions.  `right`
  // never changes a, so its premise is a -> a, discharged by the frame
  // instead of a model check.
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"latchA", trivial(), parse("a -> AX a")}, proof));
  EXPECT_EQ(proof.modelCheckCount(), 1u);
  const auto discharges = [&proof] {
    std::size_t n = 0;
    for (std::size_t id = 0; id < proof.size(); ++id) {
      const ProofNode& node = proof.node(id);
      if (node.kind == ProofNode::Kind::RuleApplication &&
          node.description.find("frame discharge") != std::string::npos) {
        EXPECT_TRUE(node.ok) << node.description;
        EXPECT_NE(node.description.find("1 of 2 components"),
                  std::string::npos)
            << node.description;
        ++n;
      }
    }
    return n;
  };
  EXPECT_EQ(discharges(), 1u);
  // b -> AX b also universal; a&b -> AX (a&b) follows on the composition.
  // Both components touch a & b, so both are checked.
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"latchAB", trivial(), parse("a & b -> AX (a & b)")}, proof));
  EXPECT_EQ(proof.modelCheckCount(), 3u);
  EXPECT_EQ(discharges(), 1u);
  EXPECT_TRUE(proof.valid());
}

TEST(Verifier, ExistentialSpecNeedsOneComponent) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  ProofTree proof;
  // Only `left` provides !a -> EX a; the conclusion still lifts.
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"canSetA", trivial(), parse("!a -> EX a")}, proof));
  EXPECT_TRUE(proof.valid());
}

TEST(Verifier, UnknownFallsBackToGlobalCheckOnlyIfAllowed) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  ProofTree proof;
  const ctl::Spec spec{"eventually", trivial(), parse("EF (a & b)")};
  EXPECT_TRUE(verifier.verify(spec, proof, /*allowGlobalFallback=*/true));
  ProofTree proof2;
  EXPECT_FALSE(verifier.verify(spec, proof2, /*allowGlobalFallback=*/false));
  EXPECT_FALSE(proof2.valid());
}

TEST(Verifier, AdoptedCompositionMustSpanTheComponents) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  // Only a composition over the union alphabet is accepted.
  EXPECT_THROW(verifier.adoptComposed(tc.left), ModelError);
  symbolic::Context other;
  EXPECT_THROW(verifier.adoptComposed(symbolic::identitySystem(
                   other, {other.addBoolVar("a"), other.addBoolVar("b")})),
               ModelError);

  const symbolic::SymbolicSystem both = symbolic::compose(tc.left, tc.right);
  verifier.adoptComposed(both);
  EXPECT_EQ(verifier.composed().name, both.name);
  ProofTree proof;
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"eventually", trivial(), parse("EF (a & b)")}, proof));
  EXPECT_TRUE(proof.valid());
}

TEST(Verifier, KeepsItsComposedCheckerUntilTheCompositionOrEngineChanges) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  // A global-fallback spec: it runs on the composed checker.
  const ctl::Spec meet{"meet", trivial(), parse("EF (a & b)")};
  ProofTree proof;

  const symbolic::Checker* kept = &verifier.composedChecker();
  const double built = verifier.setupSeconds();
  EXPECT_GT(built, 0.0);
  EXPECT_TRUE(verifier.verify(meet, proof));
  EXPECT_TRUE(verifier.verify(meet, proof));
  EXPECT_EQ(&verifier.composedChecker(), kept);
  EXPECT_EQ(verifier.setupSeconds(), built);  // nothing was rebuilt

  // A new cancel hook alone keeps the checker, which polls that hook.
  symbolic::CheckerOptions opts = verifier.checkerOptions();
  int polls = 0;
  opts.cancelCheck = [&polls] { ++polls; };
  verifier.setCheckerOptions(opts);
  EXPECT_EQ(&verifier.composedChecker(), kept);
  EXPECT_TRUE(verifier.verify(meet, proof));
  EXPECT_GT(polls, 0);
  opts.cancelCheck = nullptr;
  verifier.setCheckerOptions(opts);
  polls = 0;
  EXPECT_TRUE(verifier.verify(meet, proof));
  EXPECT_EQ(polls, 0);
  EXPECT_EQ(verifier.setupSeconds(), built);

  // Another engine or threshold: a new checker with the new options.
  opts.usePartitionedTrans = false;
  verifier.setCheckerOptions(opts);
  EXPECT_FALSE(verifier.composedChecker().usesPartition());
  EXPECT_GT(verifier.setupSeconds(), built);
  opts.usePartitionedTrans = true;
  opts.clusterThreshold = 7;
  verifier.setCheckerOptions(opts);
  EXPECT_TRUE(verifier.composedChecker().usesPartition());
  EXPECT_EQ(verifier.composedChecker().options().clusterThreshold, 7u);
  EXPECT_TRUE(verifier.verify(meet, proof));

  // A new composition: only stuttering, so a and b never meet.  A checker
  // left over the old one would still say they do.
  verifier.adoptComposed(symbolic::identitySystem(
      tc.ctx, verifier.composed().vars, "stutter only"));
  EXPECT_EQ(&verifier.composedChecker().system(), &verifier.composed());
  EXPECT_FALSE(verifier.verify(meet, proof));

  // A new component drops the adopted composition and its checker: the
  // verifier composes all three and a and b meet again.
  const symbolic::VarId c = tc.ctx.addBoolVar("c");
  symbolic::SymbolicSystem third = symbolic::makeSystem(
      tc.ctx, "third", {c}, tc.ctx.varEq(c, "0") & tc.ctx.varEq(c, "1", true));
  symbolic::addReflexive(third);
  verifier.addComponent(std::move(third));
  EXPECT_TRUE(verifier.verify(meet, proof));
  EXPECT_EQ(verifier.composedChecker().system().vars.size(), 3u);
}

TEST(Verifier, CounterexampleLeavesTheKeptCompositionAsAdopted) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);  // partitioned engine
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  verifier.adoptComposed(symbolic::compose(tc.left, tc.right));
  const ctl::Spec apart{"apart", Restriction{parse("!a & !b"), {}},
                        parse("AG !(a & b)")};
  ProofTree proof;
  EXPECT_FALSE(verifier.verify(apart, proof));
  EXPECT_FALSE(verifier.composed().transMaterialized());

  // The trace search walks the monolithic relation — of a copy.
  const std::string trace = verifier.counterexample(apart);
  EXPECT_NE(trace.find("state 2"), std::string::npos) << trace;
  EXPECT_FALSE(verifier.composed().transMaterialized());
  const symbolic::SymbolicSystem reference =
      symbolic::compose(tc.left, tc.right);
  symbolic::Checker direct(reference);
  EXPECT_EQ(trace, direct.counterexampleText(apart));
  EXPECT_TRUE(reference.transMaterialized());
}

TEST(Verifier, FailingUniversalSpecIsReported) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  ProofTree proof;
  // a -> AX !a is false in the left component (the latch holds a).
  EXPECT_FALSE(verifier.verify(
      ctl::Spec{"bogus", trivial(), parse("a -> AX !a")}, proof));
  EXPECT_FALSE(proof.valid());
}

TEST(Verifier, InvarianceRule) {
  TwoComponents tc;
  CompositionalVerifier verifier(tc.ctx);
  verifier.addComponent(tc.left);
  verifier.addComponent(tc.right);
  ProofTree proof;
  // Invariant: a | !a (trivial) proves AG(true-ish target a -> a).
  EXPECT_TRUE(verifier.verifyInvariance(parse("a"), parse("a"),
                                        parse("a | b"), proof, "inv"));
  // Broken base case: init !a does not imply inv a.
  ProofTree proof2;
  EXPECT_FALSE(verifier.verifyInvariance(parse("!a"), parse("a"),
                                         parse("a"), proof2, "inv2"));
}

TEST(Verifier, DischargeGuarantee) {
  symbolic::Context ctx;
  symbolic::SymbolicSystem sys = progressSystem(ctx);
  CompositionalVerifier verifier(ctx);
  verifier.addComponent(sys);
  symbolic::Checker checker(sys);
  ProofTree proof;
  const auto g = deriveRule4(checker, parse("p & !q"), parse("q"), proof);
  ASSERT_TRUE(g.has_value());
  std::vector<ctl::Spec> conclusions;
  EXPECT_TRUE(verifier.discharge(*g, proof, &conclusions));
  ASSERT_EQ(conclusions.size(), 2u);
  // The concluded A-until actually holds on the (single-component)
  // composition.
  symbolic::Checker composed(verifier.composed());
  EXPECT_TRUE(composed.holds(conclusions[0]));
  EXPECT_TRUE(composed.holds(conclusions[1]));
}

// ---- Rule soundness against brute force -------------------------------------

class RuleSoundness : public ::testing::TestWithParam<int> {
 protected:
  std::mt19937 rng{static_cast<unsigned>(GetParam()) * 31337 + 7};
};

TEST_P(RuleSoundness, Rule2UniversalHolds) {
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
  const std::vector<std::string> unionAtoms = {"a", "b", "c"};
  const kripke::ExplicitSystem expA = kripke::expand(ea, {"c"});
  const kripke::ExplicitSystem expB = kripke::expand(eb, {"a"});
  const kripke::ExplicitSystem whole = kripke::compose(ea, eb);
  kripke::ExplicitChecker ca(expA);
  kripke::ExplicitChecker cb(expB);
  kripke::ExplicitChecker cw(whole);
  for (int i = 0; i < 4; ++i) {
    const ctl::FormulaPtr p = test::randomPropositional(rng, unionAtoms, 2);
    const ctl::FormulaPtr q = test::randomPropositional(rng, unionAtoms, 2);
    const ctl::FormulaPtr spec = ctl::mkImplies(p, ctl::AX(q));
    if (ca.holds(trivial(), spec) && cb.holds(trivial(), spec)) {
      EXPECT_TRUE(cw.holds(trivial(), spec)) << ctl::toString(spec);
    }
  }
}

TEST_P(RuleSoundness, Rule2WithInitIsExact) {
  // Three reflexive components: A over {a, b}, B over {b, c}, C over {d}.
  // Every q mentions c, which is foreign to A (held across A's steps), and
  // none mentions d, so C's premise is discharged by its frame.  Under a
  // propositional INIT and trivial fairness, the three premises hold
  // exactly when the composition satisfies p -> AX q.
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
  kripke::ExplicitSystem ecRaw = test::randomSystem(rng, 1);
  kripke::ExplicitSystem ec({"d"});
  ecRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { ec.addTransition(s, t); });
  const std::vector<std::string> allAtoms = {"a", "b", "c", "d"};
  const std::vector<std::string> bodyAtoms = {"a", "b", "c"};
  const kripke::ExplicitSystem expA = kripke::expand(ea, {"c", "d"});
  const kripke::ExplicitSystem expB = kripke::expand(eb, {"a", "d"});
  const kripke::ExplicitSystem expC = kripke::expand(ec, {"a", "b", "c"});
  const kripke::ExplicitSystem whole =
      kripke::compose(kripke::compose(ea, eb), ec);
  kripke::ExplicitChecker ca(expA);
  kripke::ExplicitChecker cb(expB);
  kripke::ExplicitChecker cc(expC);
  kripke::ExplicitChecker cw(whole);

  symbolic::Context ctx;
  CompositionalVerifier verifier(ctx);
  verifier.addComponent(symbolic::symbolicFromExplicit(ctx, ea, "A"));
  verifier.addComponent(symbolic::symbolicFromExplicit(ctx, eb, "B"));
  verifier.addComponent(symbolic::symbolicFromExplicit(ctx, ec, "C"));
  for (int i = 0; i < 6; ++i) {
    const ctl::FormulaPtr init =
        test::randomPropositional(rng, allAtoms, 2);
    const ctl::FormulaPtr p = test::randomPropositional(rng, allAtoms, 2);
    const ctl::FormulaPtr q =
        i % 2 == 0
            ? ctl::mkOr(test::randomPropositional(rng, bodyAtoms, 2),
                        ctl::atom("c"))
            : ctl::mkAnd(test::randomPropositional(rng, bodyAtoms, 2),
                         ctl::mkNot(ctl::atom("c")));
    const ctl::Spec spec{"step", Restriction{init, {ctl::mkTrue()}},
                         ctl::mkImplies(p, ctl::AX(q))};
    ASSERT_EQ(classify(spec), PropertyClass::Universal);
    ASSERT_TRUE(premisesAreExact(spec));
    const bool premises =
        ca.holds(spec.r, spec.f) && cb.holds(spec.r, spec.f) &&
        cc.holds(spec.r, spec.f);
    const bool composed = cw.holds(spec.r, spec.f);
    const std::string what =
        ctl::toString(init) + " : " + ctl::toString(spec.f);
    EXPECT_EQ(premises, composed) << what;
    ProofTree proof;
    EXPECT_EQ(verifier.verify(spec, proof, /*allowGlobalFallback=*/false),
              composed)
        << what;
    // B is checked, and A when q reads a or b; the other premises are the
    // frame discharge (C's always).
    const std::set<std::string> read = ctl::collectVariables(q);
    const bool checksA = read.count("a") > 0 || read.count("b") > 0;
    EXPECT_EQ(proof.modelCheckCount(), checksA ? 2u : 1u) << what;
  }
}

TEST_P(RuleSoundness, Rule3ExistentialHolds) {
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });
  const std::vector<std::string> unionAtoms = {"a", "b", "c"};
  const kripke::ExplicitSystem expA = kripke::expand(ea, {"c"});
  const kripke::ExplicitSystem whole = kripke::compose(ea, eb);
  kripke::ExplicitChecker ca(expA);
  kripke::ExplicitChecker cw(whole);
  for (int i = 0; i < 4; ++i) {
    const ctl::FormulaPtr p = test::randomPropositional(rng, unionAtoms, 2);
    const ctl::FormulaPtr q = test::randomPropositional(rng, unionAtoms, 2);
    const ctl::FormulaPtr spec = ctl::mkImplies(p, ctl::EX(q));
    if (ca.holds(trivial(), spec)) {
      EXPECT_TRUE(cw.holds(trivial(), spec)) << ctl::toString(spec);
    }
  }
}

TEST_P(RuleSoundness, Rule1PropositionalLifts) {
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb = test::randomSystem(rng, 2);
  const kripke::ExplicitSystem whole = kripke::compose(ea, eb);
  kripke::ExplicitChecker ca(ea);
  kripke::ExplicitChecker cw(whole);
  for (int i = 0; i < 4; ++i) {
    const ctl::FormulaPtr inner =
        test::randomPropositional(rng, ea.atoms(), 2);
    const ctl::FormulaPtr init = test::randomPropositional(rng, ea.atoms(), 2);
    Restriction r;
    r.init = init;
    r.fairness = {ctl::mkTrue()};
    if (ca.holds(r, inner)) {
      EXPECT_TRUE(cw.holds(r, inner))
          << ctl::toString(init) << " : " << ctl::toString(inner);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleSoundness, ::testing::Range(0, 15));

// ---- Leads-to ledger --------------------------------------------------------

TEST(LeadsTo, ChainAndCaseSplit) {
  symbolic::Context ctx;
  ctx.addEnumVar("s", {"s0", "s1", "s2"});
  ProofTree proof;
  LeadsToLedger ledger(ctx, {ctx.varId("s")}, proof);

  ctl::Spec step1{"step1",
                  trivial().withFairness(parse("!(s=s0) | s=s1")),
                  parse("s=s0 -> A[s=s0 U s=s1]")};
  ctl::Spec step2{"step2",
                  trivial().withFairness(parse("!(s=s1) | s=s2")),
                  parse("s=s1 -> A[s=s1 U s=s2]")};
  const auto f1 = ledger.fromAU(step1);
  const auto f2 = ledger.fromAU(step2);
  const auto chained = ledger.chain(f1, f2);
  EXPECT_TRUE(ctl::equal(ledger.from(chained), parse("s=s0")));
  EXPECT_TRUE(ctl::equal(ledger.to(chained), parse("s=s2")));
  EXPECT_EQ(ledger.fairness(chained).size(), 3u);  // TRUE + two constraints
  EXPECT_TRUE(ledger.valid());

  const auto split = ledger.caseSplit(parse("s=s0 | s=s1"), parse("s=s2"),
                                      {chained, f2});
  EXPECT_TRUE(ledger.valid());
  const ctl::Spec conclusion =
      ledger.concludeAF(split, parse("s=s0"), "goal");
  EXPECT_TRUE(ctl::equal(conclusion.f, parse("AF s=s2")));
  EXPECT_TRUE(ledger.valid());
}

TEST(LeadsTo, InvalidSideConditionsAreCaught) {
  symbolic::Context ctx;
  ctx.addBoolVar("x");
  ctx.addBoolVar("y");
  ProofTree proof;
  LeadsToLedger ledger(ctx, {ctx.varId("x"), ctx.varId("y")}, proof);
  const auto f1 = ledger.fromAU(ctl::Spec{
      "s", trivial(), parse("x -> A[x U y]")});
  // Chain whose link does not hold: y does not imply !x.
  const auto f2 = ledger.fromAU(ctl::Spec{
      "t", trivial(), parse("!x -> A[!x U x & y]")});
  ledger.chain(f1, f2);
  EXPECT_FALSE(ledger.valid());
  EXPECT_FALSE(proof.valid());
}

TEST(LeadsTo, RejectsWrongShape) {
  symbolic::Context ctx;
  ctx.addBoolVar("x");
  ProofTree proof;
  LeadsToLedger ledger(ctx, {ctx.varId("x")}, proof);
  EXPECT_THROW(
      ledger.fromAU(ctl::Spec{"bad", trivial(), parse("x -> AF x")}),
      ModelError);
  EXPECT_THROW(
      ledger.fromAU(ctl::Spec{"bad2", trivial(), parse("x -> A[!x U x]")}),
      ModelError);
}

}  // namespace
}  // namespace cmc::comp

namespace cmc::comp {
namespace {

TEST(ProofExport, DotAndJson) {
  ProofTree proof;
  const std::size_t a =
      proof.add(ProofNode::Kind::ModelCheck, "M |= \"f\"", true);
  proof.add(ProofNode::Kind::Conclusion, "conclusion", false, {a});
  const std::string dot = proof.toDot();
  EXPECT_NE(dot.find("digraph proof"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
  EXPECT_NE(dot.find("\\\"f\\\""), std::string::npos);  // escaped quotes
  const std::string json = proof.toJson();
  EXPECT_NE(json.find("\"kind\": \"model-check\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"children\": [0]"), std::string::npos);
}

}  // namespace
}  // namespace cmc::comp

namespace cmc::comp {
namespace {

// Rule 4 end-to-end soundness on random systems: derive the guarantee on a
// random component, discharge its left side on a random composition, and
// confirm the concluded A-until property on the composed system by direct
// model checking.  This exercises the whole pipeline the AFS/ring case
// studies rely on, with no hand-picked regions.
class Rule4Soundness : public ::testing::TestWithParam<int> {};

TEST_P(Rule4Soundness, DischargedGuaranteesHoldOnTheComposition) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 65537 + 11);
  // Two random reflexive components over overlapping alphabets.
  kripke::ExplicitSystem ea = test::randomSystem(rng, 2);
  kripke::ExplicitSystem ebRaw = test::randomSystem(rng, 2);
  kripke::ExplicitSystem eb({"b", "c"});
  ebRaw.forEachTransition(
      [&](kripke::State s, kripke::State t) { eb.addTransition(s, t); });

  symbolic::Context ctx;
  symbolic::SymbolicSystem sa = symbolic::symbolicFromExplicit(ctx, ea, "A");
  symbolic::SymbolicSystem sb = symbolic::symbolicFromExplicit(ctx, eb, "B");

  CompositionalVerifier verifier(ctx);
  verifier.addComponent(sa);
  verifier.addComponent(sb);
  symbolic::Checker composedChecker(verifier.composed());

  const std::vector<std::string> unionAtoms = {"a", "b", "c"};
  const symbolic::SymbolicSystem expA = symbolic::expand(sa, sb.vars);
  symbolic::Checker expChecker(expA);

  int derived = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const ctl::FormulaPtr p = test::randomPropositional(rng, unionAtoms, 2);
    const ctl::FormulaPtr q = test::randomPropositional(rng, unionAtoms, 2);
    ProofTree proof;
    const auto g = deriveRule4(expChecker, p, q, proof);
    if (!g.has_value()) continue;  // premise fails; nothing to check
    std::vector<ctl::Spec> conclusions;
    if (!verifier.discharge(*g, proof, &conclusions,
                            /*allowGlobalFallback=*/false)) {
      continue;  // lhs not universal-dischargeable for this p, q
    }
    ++derived;
    for (const ctl::Spec& spec : conclusions) {
      EXPECT_TRUE(composedChecker.holds(spec))
          << "rule 4 conclusion violated: " << ctl::toString(spec.f)
          << " under " << spec.r.toString();
    }
  }
  // Most seeds derive at least one guarantee (p := anything with q ⊇ p
  // often works since components are reflexive); tolerate barren seeds.
  SUCCEED() << derived << " guarantees checked";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Rule4Soundness, ::testing::Range(0, 12));

}  // namespace
}  // namespace cmc::comp
