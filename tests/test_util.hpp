// Shared helpers for the test suite: seeded random systems and formulas,
// conversion glue for cross-validating the two checkers, reading protocol
// responses, and the framing checks both daemons' front end must pass.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ctl/formula.hpp"
#include "kripke/composition.hpp"
#include "kripke/explicit_checker.hpp"
#include "kripke/explicit_system.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "service/metrics.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/encode.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

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

/// Poll `pred` every 20 ms for up to `seconds`; its last value.
inline bool waitFor(const std::function<bool()>& pred, double seconds = 30.0) {
  WallTimer t;
  while (t.seconds() < seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

// The daemons' front end (net/line_server.hpp), driven from outside.  Each
// check runs against the daemon listening on `socketPath` whose registry
// is `metrics`, so `cmc serve` and `cmc coordinator` pass the same ones.

/// STATUS on `socketPath` answers ok.
inline void answersStatus(const std::string& socketPath) {
  net::Client c;
  std::string resp, err;
  ASSERT_TRUE(c.connectUnix(socketPath, &err)) << err;
  ASSERT_TRUE(c.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos) << resp;
}

/// Malformed request lines get BAD_REQUEST, each is counted in
/// protocol_errors, and the connection survives them.
inline void malformedRequestsGetBadRequest(
    const std::string& socketPath, const service::MetricsRegistry& metrics) {
  net::Client c;
  std::string resp, err;
  ASSERT_TRUE(c.connectUnix(socketPath, &err)) << err;
  ASSERT_TRUE(c.request("this is not json", &resp, &err)) << err;
  EXPECT_NE(resp.find(net::kBadRequest), std::string::npos);
  ASSERT_TRUE(c.request("{\"cmd\": \"FROBNICATE\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown command"), std::string::npos);
  // The connection is still usable for a well-formed request.
  ASSERT_TRUE(c.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"state\": \"serving\""), std::string::npos);
  EXPECT_NE(resp.find(util::versionString()), std::string::npos);
  EXPECT_EQ(metrics.counterValue("protocol_errors"), 2u);
  // The malformed-line corpus, each case in a field that takes an integer,
  // gets BAD_REQUEST on the same connection; the depth bomb still fits one
  // line.
  const std::vector<std::string> corpus =
      malformedValues(net::kMaxLineBytes - 128);
  for (const std::string& v : corpus) {
    ASSERT_TRUE(c.request("{\"cmd\": \"CHECK\", \"model\": \"m.smv\", "
                          "\"node_budget\": " + v + "}",
                          &resp, &err))
        << err;
    EXPECT_NE(resp.find(net::kBadRequest), std::string::npos)
        << v.substr(0, 40);
  }
  ASSERT_TRUE(c.request("{ \"cmd\" : \"STATUS\" }", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_EQ(metrics.counterValue("protocol_errors"), 2u + corpus.size());
}

/// A line over the cap gets BAD_REQUEST, is counted in protocol_errors,
/// and the daemon closes the connection.
inline void oversizedLineClosesTheConnection(
    const std::string& socketPath, const service::MetricsRegistry& metrics) {
  net::Client c;
  std::string resp, err;
  ASSERT_TRUE(c.connectUnix(socketPath, &err)) << err;
  std::string big(net::kMaxLineBytes + 2, 'x');
  ASSERT_TRUE(c.send(big));
  ASSERT_TRUE(c.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find(net::kBadRequest), std::string::npos);
  EXPECT_NE(resp.find("exceeds"), std::string::npos);
  EXPECT_EQ(metrics.counterValue("protocol_errors"), 1u);
  // The daemon closes after an unbounded line; the next read is EOF.
  EXPECT_FALSE(c.readResponse(&resp, &err));
}

/// A torn request then a write-shutdown is EOF: the daemon answers
/// nothing, releases the connection, and still serves.
inline void halfClosedConnectionUnwinds(
    const std::string& socketPath, const service::MetricsRegistry& metrics) {
  {
    net::Client c;
    std::string resp, err;
    ASSERT_TRUE(c.connectUnix(socketPath, &err)) << err;
    ASSERT_TRUE(c.socket() != nullptr);
    const std::string fragment = "{\"cmd\": \"STAT";
    ::send(c.socket()->fd(), fragment.data(), fragment.size(), MSG_NOSIGNAL);
    ::shutdown(c.socket()->fd(), SHUT_WR);
    EXPECT_FALSE(c.readResponse(&resp, &err));
  }
  EXPECT_TRUE(
      waitFor([&] { return metrics.gaugeValue("connections_open") == 0; }));
  answersStatus(socketPath);
}

/// 200 sequential one-STATUS connections leave the front end holding no
/// thread of a closed connection once the next one is accepted, and
/// STATUS still answers.  `connectionThreads` reads the daemon's count.
inline void sequentialConnectionsAreJoined(
    const std::string& socketPath, const service::MetricsRegistry& metrics,
    const std::function<std::size_t()>& connectionThreads) {
  for (int i = 0; i < 200; ++i) {
    net::Client c;
    std::string resp, err;
    ASSERT_TRUE(c.connectUnix(socketPath, &err)) << err;
    ASSERT_TRUE(c.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  }
  ASSERT_TRUE(
      waitFor([&] { return metrics.gaugeValue("connections_open") == 0; }));
  // Accepting this one joins the threads of all 200.
  answersStatus(socketPath);
  EXPECT_LE(connectionThreads(), 2u);
}

/// Leave at `path` what a SIGKILLed daemon leaves behind: a socket file
/// that was bound and closed but never unlinked (replacing any file there).
inline void leaveStaleSocketFile(const std::string& path) {
  std::filesystem::remove(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof addr.sun_path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  ::close(fd);
  ASSERT_TRUE(std::filesystem::exists(path));
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
