// Shared helpers for the test suite: seeded random systems and formulas,
// conversion glue for cross-validating the two checkers, and reading
// protocol responses.
#pragma once

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "ctl/formula.hpp"
#include "kripke/composition.hpp"
#include "kripke/explicit_checker.hpp"
#include "kripke/explicit_system.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/encode.hpp"
#include "util/json.hpp"

namespace cmc::test {

/// `line` read by the strict JSON reader; a line it rejects fails the test.
inline util::JsonValue parsedJson(const std::string& line) {
  util::JsonValue doc;
  std::string error;
  EXPECT_TRUE(util::parseJson(line, &doc, &error)) << error << "\n" << line;
  return doc;
}

/// Malformed values for the malformed-line corpus.  Each is dropped into a
/// line as the value of a field that takes a string or an unsigned
/// integer, so every one must make that line's reader fail: syntax errors,
/// bad escapes, raw control characters, lone surrogates, a duplicate key,
/// trailing data, numbers an integer field cannot hold, NUL bytes, and a
/// `bombBytes`-long run of '[' (nesting far past the depth limit).
inline std::vector<std::string> malformedValues(std::size_t bombBytes) {
  using namespace std::string_literals;
  return {
      std::string(bombBytes, '['),
      "\"\\u12\"",                        // truncated \u escape
      "\"\\",                             // truncated escape
      "\"\\x\"",                          // unknown escape
      "\"a\x01" "b\"",                    // raw control characters
      "\"\x1f\"",
      "\"\\ud83d\"",                      // lone high surrogate
      "\"\\ude00\"",                      // lone low surrogate
      "\"\\ud83d\\u0041\"",               // high surrogate, no low one
      "\"x\", \"dup\": 1, \"dup\": 2",    // duplicate key
      "\"x\"} {\"x\": 1",                 // data after the object
      "12abc",
      "trueish",
      "1e3",
      "-1",
      "1.5",
      "18446744073709551616",
      "NaN",
      "\"unterminated",
      "\"a\0b\""s,                        // NUL byte in a string
      "1\0"s,                             // NUL byte after a value
      "",
  };
}

/// Atom names a, b, c, ... (up to 26).
inline std::vector<std::string> atomNames(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::string(1, static_cast<char>('a' + i)));
  }
  return out;
}

/// Random explicit system over `atoms` atoms: every state gets one to three
/// random successors; reflexive closure optional (the paper's standing
/// assumption — most tests want it on).
inline kripke::ExplicitSystem randomSystem(std::mt19937& rng,
                                           std::size_t atoms,
                                           bool reflexive = true) {
  kripke::ExplicitSystem sys(atomNames(atoms));
  const std::uint64_t n = sys.stateCount();
  std::uniform_int_distribution<std::uint64_t> state(0, n - 1);
  std::uniform_int_distribution<int> fanout(1, 3);
  for (kripke::State s = 0; s < n; ++s) {
    const int k = fanout(rng);
    for (int i = 0; i < k; ++i) {
      sys.addTransition(s, static_cast<kripke::State>(state(rng)));
    }
  }
  if (reflexive) sys.makeReflexive();
  return sys;
}

/// Random CTL formula over the given atoms with bounded depth.
inline ctl::FormulaPtr randomFormula(std::mt19937& rng,
                                     const std::vector<std::string>& atoms,
                                     int depth) {
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 2 : 13);
  std::uniform_int_distribution<std::size_t> atomPick(0, atoms.size() - 1);
  switch (pick(rng)) {
    case 0:
      return ctl::atom(atoms[atomPick(rng)]);
    case 1:
      return ctl::mkTrue();
    case 2:
      return ctl::mkNot(randomFormula(rng, atoms, depth - 1));
    case 3:
      return ctl::mkAnd(randomFormula(rng, atoms, depth - 1),
                        randomFormula(rng, atoms, depth - 1));
    case 4:
      return ctl::mkOr(randomFormula(rng, atoms, depth - 1),
                       randomFormula(rng, atoms, depth - 1));
    case 5:
      return ctl::mkImplies(randomFormula(rng, atoms, depth - 1),
                            randomFormula(rng, atoms, depth - 1));
    case 6:
      return ctl::EX(randomFormula(rng, atoms, depth - 1));
    case 7:
      return ctl::AX(randomFormula(rng, atoms, depth - 1));
    case 8:
      return ctl::EF(randomFormula(rng, atoms, depth - 1));
    case 9:
      return ctl::AF(randomFormula(rng, atoms, depth - 1));
    case 10:
      return ctl::EG(randomFormula(rng, atoms, depth - 1));
    case 11:
      return ctl::AG(randomFormula(rng, atoms, depth - 1));
    case 12:
      return ctl::EU(randomFormula(rng, atoms, depth - 1),
                     randomFormula(rng, atoms, depth - 1));
    default:
      return ctl::AU(randomFormula(rng, atoms, depth - 1),
                     randomFormula(rng, atoms, depth - 1));
  }
}

/// Random *propositional* formula over the atoms.
inline ctl::FormulaPtr randomPropositional(std::mt19937& rng,
                                           const std::vector<std::string>& atoms,
                                           int depth) {
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 1 : 5);
  std::uniform_int_distribution<std::size_t> atomPick(0, atoms.size() - 1);
  switch (pick(rng)) {
    case 0:
    case 1:
      return ctl::atom(atoms[atomPick(rng)]);
    case 2:
      return ctl::mkNot(randomPropositional(rng, atoms, depth - 1));
    case 3:
      return ctl::mkAnd(randomPropositional(rng, atoms, depth - 1),
                        randomPropositional(rng, atoms, depth - 1));
    case 4:
      return ctl::mkOr(randomPropositional(rng, atoms, depth - 1),
                       randomPropositional(rng, atoms, depth - 1));
    default:
      return ctl::mkImplies(randomPropositional(rng, atoms, depth - 1),
                            randomPropositional(rng, atoms, depth - 1));
  }
}

/// Evaluate a symbolic state set (BDD over current bits of `sys`'s vars)
/// on the explicit state `s` of `es`, assuming the standard bit mapping
/// produced by symbolicFromExplicit (atom i of es == sys var i, one bit).
inline bool symbolicSetHolds(const symbolic::SymbolicSystem& sys,
                             const bdd::Bdd& set,
                             const kripke::ExplicitSystem& es,
                             kripke::State s) {
  const symbolic::Context& ctx = *sys.ctx;
  std::vector<bool> assignment(2 * ctx.bitCount(), false);
  for (std::size_t i = 0; i < es.atomCount(); ++i) {
    const symbolic::Variable& v = ctx.variable(sys.vars[i]);
    assignment[symbolic::Context::bddVarOf(v.bits[0], false)] =
        ((s >> i) & 1u) != 0;
  }
  return ctx.mgr().eval(set, assignment);
}

}  // namespace cmc::test
