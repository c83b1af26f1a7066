// Unit and property tests for the ROBDD package.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "bdd/io.hpp"
#include "bdd/manager.hpp"

namespace cmc::bdd {
namespace {

TEST(BddBasics, TerminalsAreDistinctAndFixed) {
  Manager mgr;
  EXPECT_TRUE(mgr.bddTrue().isTrue());
  EXPECT_TRUE(mgr.bddFalse().isFalse());
  EXPECT_NE(mgr.bddTrue(), mgr.bddFalse());
  EXPECT_EQ(mgr.bddTrue(), mgr.bddTrue());
}

TEST(BddBasics, VariablesAreCanonical) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  EXPECT_EQ(x, mgr.bddVar(0));
  EXPECT_NE(x, y);
  EXPECT_EQ(mgr.bddNVar(0), !x);
}

TEST(BddBasics, ReductionRuleEliminatesRedundantTests) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  // ite(x, y, y) == y
  const Bdd y = mgr.bddVar(1);
  EXPECT_EQ(mgr.ite(x, y, y), y);
}

TEST(BddBasics, BooleanAlgebraLaws) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  const Bdd z = mgr.bddVar(2);

  EXPECT_EQ(x & y, y & x);
  EXPECT_EQ(x | y, y | x);
  EXPECT_EQ((x & y) & z, x & (y & z));
  EXPECT_EQ(x & (y | z), (x & y) | (x & z));
  EXPECT_EQ(!(x & y), (!x) | (!y));
  EXPECT_EQ(!(x | y), (!x) & (!y));
  EXPECT_EQ(x ^ y, (x & !y) | ((!x) & y));
  EXPECT_EQ(x & !x, mgr.bddFalse());
  EXPECT_EQ(x | !x, mgr.bddTrue());
  EXPECT_EQ(!(!x), x);
  EXPECT_EQ(x.implies(y), (!x) | y);
  EXPECT_EQ(x.iff(y), !(x ^ y));
  EXPECT_EQ(x.diff(y), x & !y);
}

TEST(BddBasics, SubsetOf) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  EXPECT_TRUE((x & y).subsetOf(x));
  EXPECT_FALSE(x.subsetOf(x & y));
  EXPECT_TRUE(mgr.bddFalse().subsetOf(x));
  EXPECT_TRUE(x.subsetOf(mgr.bddTrue()));
}

TEST(BddQuantification, ExistsAndForall) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  const Bdd cubeX = mgr.cube({0});

  EXPECT_EQ(mgr.exists(x & y, cubeX), y);
  EXPECT_EQ(mgr.exists(x | y, cubeX), mgr.bddTrue());
  EXPECT_EQ(mgr.forall(x & y, cubeX), mgr.bddFalse());
  EXPECT_EQ(mgr.forall(x | y, cubeX), y);
  EXPECT_EQ(mgr.forall((!x) | y, mgr.cube({0, 1})), mgr.bddFalse());
}

TEST(BddQuantification, AndExistsMatchesComposition) {
  Manager mgr;
  std::mt19937 rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    // Random functions over 5 variables.
    auto randomFn = [&]() {
      Bdd f = mgr.bddFalse();
      std::uniform_int_distribution<int> bit(0, 1);
      for (int cube = 0; cube < 4; ++cube) {
        Bdd term = mgr.bddTrue();
        for (std::uint32_t v = 0; v < 5; ++v) {
          if (bit(rng) != 0) {
            term &= bit(rng) != 0 ? mgr.bddVar(v) : mgr.bddNVar(v);
          }
        }
        f |= term;
      }
      return f;
    };
    const Bdd f = randomFn();
    const Bdd g = randomFn();
    const Bdd cube = mgr.cube({1, 3});
    EXPECT_EQ(mgr.andExists(f, g, cube), mgr.exists(f & g, cube));
  }
}

TEST(BddPermute, SwapsVariables) {
  Manager mgr;
  const Bdd x0 = mgr.bddVar(0);
  const Bdd x1 = mgr.bddVar(1);
  const Bdd x2 = mgr.bddVar(2);
  mgr.ensureVars(4);
  const std::uint32_t perm = mgr.registerPermutation({1, 0, 3, 2});
  EXPECT_EQ(mgr.permute(x0, perm), x1);
  EXPECT_EQ(mgr.permute(x0 & x2, perm), x1 & mgr.bddVar(3));
  EXPECT_EQ(mgr.permute(x0 | !x2, perm), x1 | !mgr.bddVar(3));
  // Involution.
  const Bdd f = (x0 & !x1) | x2;
  EXPECT_EQ(mgr.permute(mgr.permute(f, perm), perm), f);
}

TEST(BddCounting, SatCount) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  EXPECT_DOUBLE_EQ(mgr.satCount(mgr.bddTrue(), 3), 8.0);
  EXPECT_DOUBLE_EQ(mgr.satCount(mgr.bddFalse(), 3), 0.0);
  EXPECT_DOUBLE_EQ(mgr.satCount(x, 3), 4.0);
  EXPECT_DOUBLE_EQ(mgr.satCount(x & y, 3), 2.0);
  EXPECT_DOUBLE_EQ(mgr.satCount(x | y, 3), 6.0);
  EXPECT_DOUBLE_EQ(mgr.satCount(x ^ y, 2), 2.0);
}

TEST(BddCounting, DagSizeSharesNodes) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  const Bdd f = x & y;
  EXPECT_EQ(mgr.dagSize(f), 2u);
  EXPECT_EQ(mgr.dagSize(mgr.bddTrue()), 0u);
  // Shared subgraphs counted once.
  EXPECT_EQ(mgr.dagSize(std::vector<Bdd>{f, f}), 2u);
}

TEST(BddCounting, Support) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd z = mgr.bddVar(2);
  const std::vector<std::uint32_t> s = mgr.support(x & !z);
  EXPECT_EQ(s, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_TRUE(mgr.support(mgr.bddTrue()).empty());
}

TEST(BddWitness, PickCubeSatisfies) {
  Manager mgr;
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> bit(0, 1);
  for (int trial = 0; trial < 30; ++trial) {
    Bdd f = mgr.bddFalse();
    for (int c = 0; c < 3; ++c) {
      Bdd term = mgr.bddTrue();
      for (std::uint32_t v = 0; v < 4; ++v) {
        if (bit(rng) != 0) {
          term &= bit(rng) != 0 ? mgr.bddVar(v) : mgr.bddNVar(v);
        }
      }
      f |= term;
    }
    if (f.isFalse()) continue;
    const std::vector<std::int8_t> cube = mgr.pickCube(f);
    std::vector<bool> assignment(mgr.varCount(), false);
    for (std::size_t v = 0; v < cube.size(); ++v) {
      assignment[v] = cube[v] == 1;
    }
    EXPECT_TRUE(mgr.eval(f, assignment));
  }
}

TEST(BddEval, AgreesWithTruthTable) {
  Manager mgr;
  const Bdd x = mgr.bddVar(0);
  const Bdd y = mgr.bddVar(1);
  const Bdd z = mgr.bddVar(2);
  const Bdd f = (x & !y) | (z ^ x);
  for (int bits = 0; bits < 8; ++bits) {
    const bool vx = (bits & 1) != 0;
    const bool vy = (bits & 2) != 0;
    const bool vz = (bits & 4) != 0;
    const bool expected = (vx && !vy) || (vz != vx);
    EXPECT_EQ(mgr.eval(f, {vx, vy, vz}), expected) << "bits=" << bits;
  }
}

TEST(BddGc, CollectsDeadNodesAndKeepsLive) {
  Manager mgr(64);
  const Bdd keep = mgr.bddVar(0) & mgr.bddVar(1) & mgr.bddVar(2);
  const std::uint64_t liveBefore = mgr.liveNodeCount();
  {
    // Create garbage.
    for (int i = 0; i < 200; ++i) {
      Bdd junk = mgr.bddVar(i % 8) ^ mgr.bddVar((i + 3) % 8);
      junk &= mgr.bddVar((i + 1) % 8);
    }
  }
  mgr.collectGarbage();
  EXPECT_GE(mgr.stats().gcRuns, 1u);
  EXPECT_LE(mgr.liveNodeCount(), liveBefore + 40);
  // The kept function still evaluates correctly after GC.
  EXPECT_TRUE(mgr.eval(keep, {true, true, true, false, false, false, false,
                              false}));
  EXPECT_FALSE(mgr.eval(keep, {true, false, true, false, false, false, false,
                               false}));
}

TEST(BddGc, AllocatedCounterIsMonotonic) {
  Manager mgr(64);
  const std::uint64_t before = mgr.stats().nodesAllocatedTotal;
  { Bdd junk = mgr.bddVar(0) ^ mgr.bddVar(1); }
  mgr.collectGarbage();
  { Bdd junk2 = mgr.bddVar(2) ^ mgr.bddVar(3); }
  EXPECT_GT(mgr.stats().nodesAllocatedTotal, before);
}

TEST(BddGc, RecursionSurvivesArenaGrowth) {
  // permute and exists expand a node, recurse into a child and then read
  // the node again.  The recursion allocates, so the arena can grow (and
  // move) in between; the expanded node must not be read from the old
  // buffer (a sanitizer build reports the stale read).  Each manager
  // starts at 64 nodes, so many widths below grow the arena inside the
  // operation itself.
  const auto orOf = [](Manager& mgr, std::uint32_t width, std::uint32_t odd) {
    // ⋁ x_(2i+odd): every node's low child is the next node.
    Bdd clause = mgr.bddFalse();
    for (std::uint32_t i = width; i-- > 0;) clause |= mgr.bddVar(2 * i + odd);
    return clause;
  };
  for (std::uint32_t width = 8; width <= 64; ++width) {
    std::vector<std::uint32_t> odd, swap(2 * width);
    for (std::uint32_t i = 0; i < width; ++i) {
      odd.push_back(2 * i + 1);
      swap[2 * i] = 2 * i + 1;
      swap[2 * i + 1] = 2 * i;
    }
    {
      Manager mgr(64);
      const std::uint32_t perm = mgr.registerPermutation(swap);
      const Bdd clause = orOf(mgr, width, 0);
      const Bdd renamed = mgr.permute(clause, perm);
      EXPECT_EQ(renamed, orOf(mgr, width, 1)) << width;
      EXPECT_EQ(mgr.permute(renamed, perm), clause) << width;
    }
    {
      // ⋁ (x_2i ∧ x_2i+1) with the odd variables quantified out: ⋁ x_2i.
      Manager mgr(64);
      Bdd pairs = mgr.bddFalse();
      for (std::uint32_t i = width; i-- > 0;) {
        pairs |= mgr.bddVar(2 * i) & mgr.bddVar(2 * i + 1);
      }
      const Bdd quantified = mgr.exists(pairs, mgr.cube(odd));
      EXPECT_EQ(quantified, orOf(mgr, width, 0)) << width;
    }
  }
}

TEST(BddStress, ManyOperationsStayCanonical) {
  Manager mgr(128);
  // Build a parity function incrementally two ways; they must agree.
  const std::uint32_t n = 12;
  Bdd parityA = mgr.bddFalse();
  for (std::uint32_t v = 0; v < n; ++v) parityA ^= mgr.bddVar(v);
  Bdd parityB = mgr.bddFalse();
  for (std::uint32_t v = n; v-- > 0;) parityB ^= mgr.bddVar(v);
  EXPECT_EQ(parityA, parityB);
  // Parity is linear-size: two nodes per level except the root level
  // (this package has no complement edges).
  EXPECT_EQ(mgr.dagSize(parityA), 2 * n - 1);
  EXPECT_DOUBLE_EQ(mgr.satCount(parityA, n), std::exp2(n) / 2);
}

TEST(BddIo, DotOutputMentionsAllNodes) {
  Manager mgr;
  const Bdd f = mgr.bddVar(0) & !mgr.bddVar(1);
  const std::string dot = toDot(mgr, f, {"x", "y"});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"x\""), std::string::npos);
  EXPECT_NE(dot.find("\"y\""), std::string::npos);
  EXPECT_NE(dot.find("t1"), std::string::npos);
}

TEST(BddIo, CubeToString) {
  std::vector<std::int8_t> cube{1, -1, 0};
  EXPECT_EQ(cubeToString(cube, {"x", "y", "z"}), "x=1 z=0");
  EXPECT_EQ(cubeToString(cube), "x0=1 x2=0");
}

TEST(BddIo, ResourceReportFormat) {
  Manager mgr;
  const std::string report = resourceReport(mgr, 43, 7, 0.5);
  EXPECT_NE(report.find("BDD nodes allocated:"), std::string::npos);
  EXPECT_NE(report.find("43 + 7"), std::string::npos);
}

// Property test: ITE agrees with the boolean definition on random inputs.
class BddIteProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddIteProperty, IteMatchesDefinition) {
  Manager mgr;
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> bit(0, 1);
  auto randomFn = [&]() {
    Bdd f = mgr.bddFalse();
    for (int c = 0; c < 3; ++c) {
      Bdd term = mgr.bddTrue();
      for (std::uint32_t v = 0; v < 4; ++v) {
        if (bit(rng) != 0) {
          term &= bit(rng) != 0 ? mgr.bddVar(v) : mgr.bddNVar(v);
        }
      }
      f |= term;
    }
    return f;
  };
  const Bdd f = randomFn();
  const Bdd g = randomFn();
  const Bdd h = randomFn();
  EXPECT_EQ(mgr.ite(f, g, h), (f & g) | ((!f) & h));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddIteProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace cmc::bdd
