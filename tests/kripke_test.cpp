// Tests for explicit systems, composition (including the paper's Figure 1
// example), and the explicit fair-CTL checker.
#include <gtest/gtest.h>

#include "ctl/parser.hpp"
#include "kripke/composition.hpp"
#include "kripke/explicit_checker.hpp"
#include "kripke/explicit_system.hpp"

namespace cmc::kripke {
namespace {

using ctl::parse;

TEST(ExplicitSystem, BasicConstruction) {
  ExplicitSystem sys({"a", "b"});
  EXPECT_EQ(sys.atomCount(), 2u);
  EXPECT_EQ(sys.stateCount(), 4u);
  EXPECT_EQ(sys.atomIndex("b"), 1u);
  EXPECT_TRUE(sys.hasAtom("a"));
  EXPECT_FALSE(sys.hasAtom("c"));
  EXPECT_THROW(sys.atomIndex("zzz"), ModelError);
  EXPECT_THROW(ExplicitSystem({"a", "a"}), ModelError);
}

TEST(ExplicitSystem, StateHelpers) {
  ExplicitSystem sys({"a", "b", "c"});
  const State s = sys.stateOf({"a", "c"});
  EXPECT_EQ(s, 0b101u);
  EXPECT_EQ(sys.stateToString(s), "{a, c}");
  EXPECT_EQ(sys.stateToString(0), "{}");
}

TEST(ExplicitSystem, TransitionsAndReflexivity) {
  ExplicitSystem sys({"a"});
  sys.addTransition(0, 1);
  EXPECT_TRUE(sys.hasTransition(0, 1));
  EXPECT_FALSE(sys.hasTransition(1, 0));
  EXPECT_FALSE(sys.isReflexive());
  EXPECT_FALSE(sys.isTotal());  // state 1 has no successor
  sys.makeReflexive();
  EXPECT_TRUE(sys.isReflexive());
  EXPECT_TRUE(sys.isTotal());
  EXPECT_EQ(sys.successors(0), (std::vector<State>{0, 1}));
}

TEST(ExplicitSystem, SameBehaviorIsOrderIndependent) {
  ExplicitSystem a({"x", "y"});
  a.addTransition(a.stateOf({"x"}), a.stateOf({"x", "y"}));
  a.makeReflexive();
  ExplicitSystem b({"y", "x"});
  b.addTransition(b.stateOf({"x"}), b.stateOf({"x", "y"}));
  b.makeReflexive();
  EXPECT_TRUE(a.sameBehavior(b));
  b.addTransition(b.stateOf({"y"}), b.stateOf({}));
  EXPECT_FALSE(a.sameBehavior(b));
}

// ---- The paper's Figure 1 composition example -------------------------------
//
// M  = ({x}, {(∅,{x}), ({x},∅), ({x},{x}), (∅,∅)})
// M' = ({y}, {(∅,{y}), ({y},∅), ({y},{y}), (∅,∅)})
// M∘M' over {x,y} has the 16 transitions listed in the paper.

ExplicitSystem figure1M() {
  ExplicitSystem m({"x"});
  m.addTransition(0, 1);
  m.addTransition(1, 0);
  m.addTransition(1, 1);
  m.addTransition(0, 0);
  return m;
}

ExplicitSystem figure1Mp() {
  ExplicitSystem mp({"y"});
  mp.addTransition(0, 1);
  mp.addTransition(1, 0);
  mp.addTransition(1, 1);
  mp.addTransition(0, 0);
  return mp;
}

TEST(Composition, Figure1Example) {
  const ExplicitSystem whole = compose(figure1M(), figure1Mp());
  EXPECT_EQ(whole.atomCount(), 2u);
  const State none = whole.stateOf({});
  const State x = whole.stateOf({"x"});
  const State y = whole.stateOf({"y"});
  const State xy = whole.stateOf({"x", "y"});
  // The paper's R* (Figure 1), transcribing each pair.
  const std::vector<std::pair<State, State>> expected = {
      {none, x}, {x, none}, {y, xy},   {xy, y},   {none, y}, {y, none},
      {x, xy},   {xy, x},   {none, none}, {x, x}, {y, y},    {xy, xy},
  };
  for (const auto& [from, to] : expected) {
    EXPECT_TRUE(whole.hasTransition(from, to))
        << whole.stateToString(from) << " -> " << whole.stateToString(to);
  }
  EXPECT_EQ(whole.transitionCount(), expected.size());
  // No diagonal moves (both atoms flipping at once): interleaving.
  EXPECT_FALSE(whole.hasTransition(none, xy));
  EXPECT_FALSE(whole.hasTransition(xy, none));
  EXPECT_FALSE(whole.hasTransition(x, y));
  EXPECT_FALSE(whole.hasTransition(y, x));
}

TEST(Composition, AlphabetGuard) {
  std::vector<std::string> many;
  for (int i = 0; i < 15; ++i) {
    many.push_back(std::string("p").append(std::to_string(i)));
  }
  ExplicitSystem big(many);
  ExplicitSystem other({"q0", "q1", "q2", "q3", "q4", "q5", "q6"});
  EXPECT_THROW(compose(big, other), ModelError);
}

TEST(Composition, ExpansionNeverModifiesForeignAtoms) {
  ExplicitSystem m({"a"});
  m.addTransition(0, 1);
  m.makeReflexive();
  const ExplicitSystem exp = expand(m, {"b"});
  EXPECT_EQ(exp.atomCount(), 2u);
  exp.forEachTransition([&](State from, State to) {
    const std::size_t bBit = exp.atomIndex("b");
    EXPECT_EQ((from >> bBit) & 1u, (to >> bBit) & 1u)
        << "expansion changed a foreign atom";
  });
}

// ---- Explicit checker -------------------------------------------------------

/// Three-state chain over atoms {p, q}: s0={p} -> s1={} -> s2={q}, with
/// reflexive closure; useful for simple temporal checks.
ExplicitSystem chainSystem() {
  ExplicitSystem sys({"p", "q"});
  const State s0 = sys.stateOf({"p"});
  const State s1 = sys.stateOf({});
  const State s2 = sys.stateOf({"q"});
  sys.addTransition(s0, s1);
  sys.addTransition(s1, s2);
  sys.addTransition(s2, s2);
  sys.makeReflexive();
  return sys;
}

TEST(ExplicitChecker, PropositionalAndBooleanOps) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  const StateSet satP = checker.sat(parse("p"), {});
  EXPECT_TRUE(satP[sys.stateOf({"p"})]);
  EXPECT_FALSE(satP[sys.stateOf({})]);
  const StateSet satNot = checker.sat(parse("!p & !q"), {});
  EXPECT_TRUE(satNot[sys.stateOf({})]);
  EXPECT_FALSE(satNot[sys.stateOf({"p"})]);
  EXPECT_EQ(setCount(checker.sat(parse("TRUE"), {})), sys.stateCount());
  EXPECT_TRUE(setEmpty(checker.sat(parse("FALSE"), {})));
}

TEST(ExplicitChecker, ExistsNext) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  const StateSet satEXq = checker.sat(parse("EX q"), {});
  EXPECT_TRUE(satEXq[sys.stateOf({})]);      // s1 -> s2
  EXPECT_TRUE(satEXq[sys.stateOf({"q"})]);   // self loop
  EXPECT_FALSE(satEXq[sys.stateOf({"p"})]);  // s0 -> s1 or s0
}

TEST(ExplicitChecker, UntilAndEventually) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  const StateSet satEF = checker.sat(parse("EF q"), {});
  EXPECT_TRUE(satEF[sys.stateOf({"p"})]);
  EXPECT_TRUE(satEF[sys.stateOf({})]);
  // AF q fails everywhere reachable can stutter forever (reflexive), so
  // only q-states satisfy it without fairness.
  const StateSet satAF = checker.sat(parse("AF q"), {});
  EXPECT_TRUE(satAF[sys.stateOf({"q"})]);
  EXPECT_FALSE(satAF[sys.stateOf({"p"})]);
}

TEST(ExplicitChecker, FairnessDiscardsStuttering) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  // Fairness: infinitely often (q | !p&!q-progress) — here, simply "q".
  // Under fairness {q}, every fair path eventually reaches and revisits q.
  const StateSet satAF = checker.sat(parse("AF q"), {parse("q")});
  EXPECT_TRUE(satAF[sys.stateOf({"p"})]);
  EXPECT_TRUE(satAF[sys.stateOf({})]);
  EXPECT_TRUE(satAF[sys.stateOf({"q"})]);
}

TEST(ExplicitChecker, GloballyOperators) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  const StateSet satAGq = checker.sat(parse("AG q"), {});
  EXPECT_TRUE(satAGq[sys.stateOf({"q"})]);  // q-state only loops to itself
  EXPECT_FALSE(satAGq[sys.stateOf({"p"})]);
  const StateSet satEG = checker.sat(parse("EG !q"), {});
  EXPECT_TRUE(satEG[sys.stateOf({"p"})]);  // stutter at s0 forever
  EXPECT_FALSE(satEG[sys.stateOf({"q"})]);
}

TEST(ExplicitChecker, RestrictionHolds) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  ctl::Restriction r;
  r.init = parse("p");
  r.fairness = {parse("q")};
  EXPECT_TRUE(checker.holds(r, parse("AF q")));
  r.fairness = {parse("TRUE")};
  EXPECT_FALSE(checker.holds(r, parse("AF q")));
  EXPECT_TRUE(checker.findViolation(r, parse("AF q")).has_value());
}

TEST(ExplicitChecker, AtomSemanticsHook) {
  ExplicitSystem sys = chainSystem();
  AtomSemantics hook = [&](const std::string& text)
      -> std::optional<StateSet> {
    if (text == "special") {
      StateSet out(sys.stateCount(), false);
      out[sys.stateOf({"q"})] = true;
      return out;
    }
    return std::nullopt;
  };
  ExplicitChecker checker(sys, hook);
  const StateSet sat = checker.sat(parse("EF special"), {});
  EXPECT_TRUE(sat[sys.stateOf({"p"})]);
  // Fallback still resolves plain atoms.
  EXPECT_TRUE(checker.sat(parse("p"), {})[sys.stateOf({"p"})]);
  // Unknown comparisons error out.
  EXPECT_THROW(checker.sat(parse("p = banana"), {}), ModelError);
}

TEST(ExplicitChecker, BooleanComparisonAtoms) {
  ExplicitSystem sys = chainSystem();
  ExplicitChecker checker(sys);
  EXPECT_TRUE(checker.sat(parse("p = 1"), {})[sys.stateOf({"p"})]);
  EXPECT_TRUE(checker.sat(parse("p = 0"), {})[sys.stateOf({})]);
  EXPECT_TRUE(checker.sat(parse("q = TRUE"), {})[sys.stateOf({"q"})]);
}

}  // namespace
}  // namespace cmc::kripke

namespace cmc::kripke {
namespace {

using ctl::parse;

TEST(ExplicitTraces, FindPathIsShortest) {
  ExplicitSystem sys({"p", "q"});
  const State s0 = sys.stateOf({"p"});
  const State s1 = sys.stateOf({});
  const State s2 = sys.stateOf({"q"});
  const State s3 = sys.stateOf({"p", "q"});
  sys.addTransition(s0, s1);
  sys.addTransition(s1, s2);
  sys.addTransition(s0, s3);
  sys.addTransition(s3, s2);  // alternative route, same length
  sys.makeReflexive();
  ExplicitChecker checker(sys);

  StateSet from(sys.stateCount(), false);
  from[s0] = true;
  StateSet target(sys.stateCount(), false);
  target[s2] = true;
  const auto path = checker.findPath(from, target);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  EXPECT_EQ(path->front(), s0);
  EXPECT_EQ(path->back(), s2);
  // Consecutive states are actual transitions.
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(sys.hasTransition((*path)[i], (*path)[i + 1]));
  }
  // Start inside the target: single-state path.
  StateSet self(sys.stateCount(), false);
  self[s2] = true;
  const auto trivial = checker.findPath(self, target);
  ASSERT_TRUE(trivial.has_value());
  EXPECT_EQ(trivial->size(), 1u);
  // Unreachable target.
  StateSet nowhere(sys.stateCount(), false);
  EXPECT_FALSE(checker.findPath(from, nowhere).has_value());
}

TEST(ExplicitTraces, AgCounterexamplePath) {
  ExplicitSystem sys({"p", "q"});
  const State s0 = sys.stateOf({"p"});
  const State s1 = sys.stateOf({});
  const State s2 = sys.stateOf({"q"});
  sys.addTransition(s0, s1);
  sys.addTransition(s1, s2);
  sys.makeReflexive();
  ExplicitChecker checker(sys);
  ctl::Restriction r;
  r.init = parse("p & !q");  // exactly s0 (the {p,q} state violates !q)
  r.fairness = {parse("TRUE")};
  const auto path = checker.agCounterexamplePath(r, parse("!q"));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 3u);
  EXPECT_EQ(path->back(), s2);
  // AG holds: no counterexample reachable from p-states.
  EXPECT_FALSE(
      checker.agCounterexamplePath(r, parse("p | !p")).has_value());
}

}  // namespace
}  // namespace cmc::kripke
