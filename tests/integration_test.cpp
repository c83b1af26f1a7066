// End-to-end integration tests across the whole stack:
//  - random SMV programs elaborated both symbolically and explicitly, with
//    the two checkers agreeing on every spec;
//  - the explicit oracle (kripke on explicitFromSymbolic images) agreeing
//    with the symbolic checker on every shipped model and on two composed
//    systems;
//  - derived-operator semantics: f and desugar(f) agree everywhere;
//  - composition of SMV-defined components vs explicit composition;
//  - a miniature compositional workflow (parse → classify → discharge).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "comp/verifier.hpp"
#include "ctl/parser.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"
#include "test_util.hpp"

namespace cmc {
namespace {

/// A small random SMV program over one enum and two booleans.
std::string randomSmvProgram(std::mt19937& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> val(0, 2);
  const char* values[] = {"red", "green", "blue"};
  std::ostringstream out;
  out << "MODULE main\n";
  out << "VAR s : {red, green, blue};\n";
  out << "    x : boolean;\n";
  out << "    y : boolean;\n";
  out << "ASSIGN\n";
  out << "  next(s) :=\n    case\n";
  for (int v = 0; v < 3; ++v) {
    out << "      s = " << values[v] << " & x : ";
    if (coin(rng) != 0) {
      out << values[val(rng)] << ";\n";
    } else {
      out << "{" << values[val(rng)] << ", " << values[val(rng)] << "};\n";
    }
  }
  out << "      1 : s;\n    esac;\n";
  out << "  next(x) := " << (coin(rng) != 0 ? "!x" : "x | y") << ";\n";
  if (coin(rng) != 0) {
    out << "  next(y) := case s = green : 0; 1 : y; esac;\n";
  }
  return out.str();
}

class SmvAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SmvAgreement, SymbolicAndExplicitAgreeOnRandomPrograms) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729 + 3);
  const std::string program = randomSmvProgram(rng);

  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, program);
  symbolic::Checker symbolicChecker(mod.sys);
  const symbolic::ExplicitImage image = symbolic::explicitFromSymbolic(mod.sys);
  kripke::ExplicitChecker explicitChecker(image.sys, image.semantics);

  // Bit layout of the image: s (2 bits), x, y — used to evaluate the
  // symbolic sat set on explicit states.
  const std::vector<std::string> atomPool = {
      "s=red", "s=green", "s=blue", "x", "y"};
  for (int i = 0; i < 6; ++i) {
    // Random formulas over comparison atoms.
    std::vector<std::string> names = atomPool;
    const ctl::FormulaPtr f = test::randomFormula(rng, names, 3);
    std::vector<ctl::FormulaPtr> fairness;
    if (i % 2 == 0) fairness.push_back(ctl::parse("x | s=red"));
    const kripke::StateSet expected = explicitChecker.sat(f, fairness);
    const bdd::Bdd actual = symbolicChecker.sat(f, fairness);
    for (kripke::State s = 0; s < image.sys.stateCount(); ++s) {
      if (!image.valid[s]) continue;  // invalid encodings excluded
      // Build the BDD assignment from the image's bit layout.
      std::vector<bool> assignment(2 * ctx.bitCount(), false);
      std::size_t cursor = 0;
      for (symbolic::VarId v : mod.sys.vars) {
        const symbolic::Variable& var = ctx.variable(v);
        for (std::size_t b = 0; b < var.bits.size(); ++b) {
          assignment[symbolic::Context::bddVarOf(var.bits[b], false)] =
              ((s >> (cursor + b)) & 1u) != 0;
        }
        cursor += var.bits.size();
      }
      EXPECT_EQ(ctx.mgr().eval(actual, assignment), expected[s])
          << program << "\nformula: " << ctl::toString(f) << "\nstate " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmvAgreement, ::testing::Range(0, 15));

// The explicit oracle on the shipped models.  Only valid encodings are
// compared: bit patterns outside a variable's domain carry no transitions
// in the image (see encode.hpp), so a spec like `r = fetch -> EX r = val`
// would fail on them vacuously.

std::string readModel(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Decide every spec on `sys` with kripke (on the valid states of its
/// explicit image) and with the symbolic checker, expecting agreement.
/// Returns the number of specs compared; counts those under nontrivial
/// fairness into `fairSpecs` when given.
std::size_t expectOracleAgrees(const symbolic::SymbolicSystem& sys,
                               const std::vector<ctl::Spec>& specs,
                               const std::string& where,
                               std::size_t* fairSpecs) {
  const symbolic::ExplicitImage image = symbolic::explicitFromSymbolic(sys);
  kripke::ExplicitChecker oracle(image.sys, image.semantics);
  symbolic::Checker checker(sys);
  for (const ctl::Spec& spec : specs) {
    const ctl::FormulaPtr init =
        spec.r.init != nullptr ? spec.r.init : ctl::mkTrue();
    const kripke::StateSet violations = kripke::setAnd(
        image.valid,
        kripke::setAnd(oracle.sat(init, spec.r.fairness),
                       kripke::setNot(oracle.sat(spec.f, spec.r.fairness))));
    EXPECT_EQ(kripke::setEmpty(violations), checker.holds(spec))
        << where << " " << sys.name << "." << spec.name << ": "
        << ctl::toString(spec.f);
    if (fairSpecs != nullptr &&
        std::any_of(spec.r.fairness.begin(), spec.r.fairness.end(),
                    [](const ctl::FormulaPtr& f) {
                      return f->op() != ctl::Op::True;
                    })) {
      ++*fairSpecs;
    }
  }
  return specs.size();
}

TEST(KripkeOracle, AgreesWithSymbolicCheckerOnEveryModel) {
  std::size_t specs = 0;
  std::size_t fairSpecs = 0;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::directory_iterator(CMC_MODELS_DIR)) {
    if (entry.path().extension() != ".smv") continue;
    symbolic::Context ctx(1 << 16);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, readModel(entry.path()));
    for (const smv::ElaboratedModule& mod : modules) {
      specs += expectOracleAgrees(mod.sys, mod.specs,
                                  entry.path().filename().string(),
                                  &fairSpecs);
    }
  }
  EXPECT_GE(specs, 20u);
  EXPECT_GE(fairSpecs, 1u);  // figure2_strong_fairness.smv
}

TEST(KripkeOracle, AgreesWithSymbolicCheckerOnComposedObligations) {
  // The composed obligations of `cmc check --compose`: every spec of every
  // module, on the composition of the reflexive-closed components.
  std::size_t specs = 0;
  for (const char* model : {"afs1_composed.smv", "gen/ring_3.smv"}) {
    symbolic::Context ctx(1 << 16);
    const std::vector<smv::ElaboratedModule> modules = smv::elaborateProgram(
        ctx, readModel(std::filesystem::path(CMC_MODELS_DIR) / model));
    std::vector<symbolic::SymbolicSystem> parts;
    std::vector<ctl::Spec> composedSpecs;
    for (const smv::ElaboratedModule& mod : modules) {
      symbolic::SymbolicSystem sys = mod.sys;
      symbolic::addReflexive(sys);
      parts.push_back(std::move(sys));
      composedSpecs.insert(composedSpecs.end(), mod.specs.begin(),
                           mod.specs.end());
    }
    specs += expectOracleAgrees(symbolic::composeAll(parts), composedSpecs,
                                model, nullptr);
  }
  EXPECT_EQ(specs, 6u);
}

class DesugarAgreement : public ::testing::TestWithParam<int> {};

TEST_P(DesugarAgreement, DerivedOperatorsMatchDefinitions) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7 + 1);
  kripke::ExplicitSystem es = test::randomSystem(rng, 3);
  kripke::ExplicitChecker checker(es);
  for (int i = 0; i < 8; ++i) {
    const ctl::FormulaPtr f = test::randomFormula(rng, es.atoms(), 3);
    const ctl::FormulaPtr base = ctl::desugar(f);
    const kripke::StateSet a = checker.sat(f, {});
    const kripke::StateSet b = checker.sat(base, {});
    EXPECT_EQ(a, b) << ctl::toString(f) << " vs " << ctl::toString(base);
    // And under fairness.
    const std::vector<ctl::FormulaPtr> fair = {
        test::randomPropositional(rng, es.atoms(), 2)};
    EXPECT_EQ(checker.sat(f, fair), checker.sat(base, fair))
        << ctl::toString(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesugarAgreement, ::testing::Range(0, 10));

TEST(SmvComposition, TwoModulesComposeLikeTheirExplicitImages) {
  symbolic::Context ctx;
  const smv::ElaboratedModule producer = smv::elaborateText(ctx, R"(
MODULE producer
VAR item : boolean;
    turn : {mine, yours};
ASSIGN
  next(item) := case turn = mine & !item : 1; 1 : item; esac;
  next(turn) := case turn = mine & item : yours; 1 : turn; esac;
)");
  const smv::ElaboratedModule consumer = smv::elaborateText(ctx, R"(
MODULE consumer
VAR item : boolean;
    turn : {mine, yours};
    consumed : boolean;
ASSIGN
  next(item) := case turn = yours & item : 0; 1 : item; esac;
  next(consumed) := case turn = yours & item : 1; 1 : consumed; esac;
  next(turn) := case turn = yours & item : mine; 1 : turn; esac;
)");
  symbolic::SymbolicSystem a = producer.sys;
  symbolic::SymbolicSystem b = consumer.sys;
  symbolic::addReflexive(a);
  symbolic::addReflexive(b);
  const symbolic::SymbolicSystem whole = symbolic::compose(a, b);

  // Explicit path: image both components, compose explicitly, compare.
  const symbolic::ExplicitImage ia = symbolic::explicitFromSymbolic(a);
  const symbolic::ExplicitImage ib = symbolic::explicitFromSymbolic(b);
  const kripke::ExplicitSystem ewhole = kripke::compose(ia.sys, ib.sys);
  const symbolic::ExplicitImage iwhole = symbolic::explicitFromSymbolic(whole);
  EXPECT_TRUE(iwhole.sys.sameBehavior(ewhole));

  // The composed system makes progress: item eventually gets consumed under
  // fairness that forbids infinite stuttering in the handoff states.
  symbolic::Checker checker(whole);
  ctl::Restriction r;
  r.init = ctl::parse("turn=mine & !item & !consumed");
  r.fairness = {ctl::parse("consumed | !(turn=mine & item) & !(turn=yours & item)"),
                ctl::parse("consumed | !(turn=mine & !item)")};
  EXPECT_TRUE(checker.holds(r, ctl::parse("AF consumed")));
}

TEST(CompositionalWorkflow, ParseClassifyDischarge) {
  // The full user workflow in one test: two SMV components sharing a
  // variable, a universal spec checked per component, and a guarantee.
  symbolic::Context ctx;
  const smv::ElaboratedModule ping = smv::elaborateText(ctx, R"(
MODULE ping
VAR ball : {here, there};
ASSIGN next(ball) := case ball = here : there; 1 : ball; esac;
)");
  const smv::ElaboratedModule pong = smv::elaborateText(ctx, R"(
MODULE pong
VAR ball : {here, there};
    hits : boolean;
ASSIGN
  next(ball) := case ball = there : here; 1 : ball; esac;
  next(hits) := case ball = there : 1; 1 : hits; esac;
)");
  symbolic::SymbolicSystem a = ping.sys;
  symbolic::SymbolicSystem b = pong.sys;
  symbolic::addReflexive(a);
  symbolic::addReflexive(b);

  comp::CompositionalVerifier verifier(ctx);
  verifier.addComponent(a);
  verifier.addComponent(b);

  comp::ProofTree proof;
  // Universal: once hits latches it stays (pong never clears, ping cannot
  // touch it).
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"latch", ctl::Restriction::trivial(),
                ctl::parse("hits -> AX hits")},
      proof));
  // Existential: ping can always serve.
  EXPECT_TRUE(verifier.verify(
      ctl::Spec{"serve", ctl::Restriction::trivial(),
                ctl::parse("ball=here -> EX ball=there")},
      proof));
  EXPECT_TRUE(proof.valid());
  // 1 universal (ping never touches hits: its premise hits -> hits is
  // discharged by the frame) + 1 existential.
  EXPECT_EQ(proof.modelCheckCount(), 2u);
  std::size_t discharged = 0;
  for (std::size_t id = 0; id < proof.size(); ++id) {
    const comp::ProofNode& node = proof.node(id);
    if (node.kind == comp::ProofNode::Kind::RuleApplication &&
        node.description.find("frame discharge") != std::string::npos) {
      EXPECT_TRUE(node.ok);
      ++discharged;
    }
  }
  EXPECT_EQ(discharged, 1u);
}

TEST(ResourceReporting, CheckResultsComposeIntoFigureRows) {
  // Shape of the Fig. 7/10 reproduction: every spec checks true and the
  // counters are populated.
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, R"(
MODULE tiny
VAR x : boolean;
ASSIGN next(x) := !x;
SPEC x -> AX !x
SPEC !x -> EX x
)");
  symbolic::Checker checker(mod.sys);
  for (const ctl::Spec& spec : mod.specs) {
    const symbolic::CheckResult result = checker.check(spec);
    EXPECT_TRUE(result.holds);
    EXPECT_GT(result.bddNodesAllocated, 0u);
    EXPECT_GE(result.seconds, 0.0);
    EXPECT_FALSE(result.specText.empty());
  }
}

}  // namespace
}  // namespace cmc

namespace cmc {
namespace {

TEST(ReorderIntegration, CheckerVerdictsSurviveSifting) {
  // Verdicts must be order-independent: check, sift, re-check.
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, R"(
MODULE counter
VAR n : 0..7;
    flag : boolean;
ASSIGN
  next(n) := case n = 0 : 1; n = 1 : 2; n = 2 : 3; n = 3 : 4;
                  n = 4 : 5; n = 5 : 6; n = 6 : 7; 1 : n; esac;
  next(flag) := case n = 6 : 1; 1 : flag; esac;
)");
  symbolic::Checker checker(mod.sys);
  const std::vector<const char*> specs = {
      "n=0 -> EF n=7",
      "n=7 -> AX n=7",
      "flag -> AX flag",
      "n=0 & !flag -> EX (n=1 & !flag)",
      "AG (n=7 -> AX n=7)",
  };
  std::vector<bool> before;
  for (const char* text : specs) {
    before.push_back(
        checker.holds(ctl::Restriction::trivial(), ctl::parse(text)));
  }
  const std::uint64_t nodesAfter = ctx.mgr().reorderSift();
  EXPECT_GT(nodesAfter, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(checker.holds(ctl::Restriction::trivial(),
                            ctl::parse(specs[i])),
              before[i])
        << specs[i] << " changed verdict after reordering";
  }
  // A fresh checker over the same (reordered) system agrees too.
  symbolic::Checker fresh(mod.sys);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(fresh.holds(ctl::Restriction::trivial(),
                          ctl::parse(specs[i])),
              before[i]);
  }
}

TEST(ParserRobustness, GarbageNeverCrashes) {
  // Mutate a valid model at random positions; the front end must either
  // parse or throw cmc::Error — never crash or loop.
  const std::string base = R"(
MODULE main
VAR s : {a, b, c};
    x : boolean;
ASSIGN
  init(s) := a;
  next(s) := case s = a & x : b; s = b : c; 1 : s; esac;
SPEC s=a -> EX s=b
FAIRNESS x
)";
  std::mt19937 rng(99);
  const std::string charset = "{}();:=!&|<>-.partmodule0129 \n";
  std::uniform_int_distribution<std::size_t> pos(0, base.size() - 1);
  std::uniform_int_distribution<std::size_t> pick(0, charset.size() - 1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    const int edits = 1 + trial % 4;
    for (int e = 0; e < edits; ++e) {
      mutated[pos(rng)] = charset[pick(rng)];
    }
    try {
      symbolic::Context ctx;
      const smv::ElaboratedModule mod = smv::elaborateText(ctx, mutated);
      symbolic::Checker checker(mod.sys);
      for (const ctl::Spec& spec : mod.specs) {
        checker.holds(spec);
      }
    } catch (const Error&) {
      // Expected for most mutations.
    }
  }
  SUCCEED();
}

TEST(ParserRobustness, CtlGarbageNeverCrashes) {
  std::mt19937 rng(7);
  const std::string charset = "ABEFGUX[]()&|!->=pq01 ";
  std::uniform_int_distribution<std::size_t> len(1, 30);
  std::uniform_int_distribution<std::size_t> pick(0, charset.size() - 1);
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t n = len(rng);
    for (std::size_t i = 0; i < n; ++i) text.push_back(charset[pick(rng)]);
    try {
      ctl::parse(text);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace cmc
