// Token-ring mutual exclusion, verified compositionally (second case
// study; the "network protocols" domain of the paper's §5 discussion).
//
//   $ ./token_ring [numStations] [--proof]
//
// Safety: AG "no two stations in cs" via the invariance rule.
// Liveness: want0 ⇒ AF cs0 via 3 Rule-4 guarantees per ring hop chained
// with the leads-to ledger — 3(n−1)+1 guarantees, every obligation a
// per-component model check.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "ring/token_ring.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/prop.hpp"
#include "symbolic/trace.hpp"
#include "util/string_util.hpp"

using namespace cmc;

namespace {

int usage() {
  std::fprintf(stderr, "usage: token_ring [numStations >= 2] [--proof]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int n = 3;
  bool showProof = false;
  for (int i = 1; i < argc; ++i) {
    std::uint64_t count = 0;
    if (std::strcmp(argv[i], "--proof") == 0) {
      showProof = true;
    } else if (parseUint(argv[i], &count) && count >= 2 &&
               count <= INT_MAX) {
      n = static_cast<int>(count);
    } else {
      return usage();
    }
  }

  std::cout << "== token ring with " << n << " stations ==\n\n";
  std::cout << "station 0 model:\n" << ring::stationSmv(0, n) << "\n";

  const ring::RingReport report =
      ring::verifyTokenRing(n, /*liveness=*/true, /*crossCheck=*/n <= 3);
  if (showProof) std::cout << report.proof.render() << "\n";

  std::cout << "safety  (AG mutex):        "
            << (report.safety ? "proved compositionally" : "FAILED") << "\n";
  std::cout << "liveness (want0 => AF cs0): "
            << (report.liveness ? "proved compositionally" : "FAILED")
            << "\n";
  if (n <= 3) {
    std::cout << "global cross-checks:       "
              << (report.safetyCrossCheck ? "safety ok" : "safety FAILED")
              << ", "
              << (report.livenessCrossCheck ? "liveness ok"
                                            : "liveness FAILED")
              << "\n";
  }
  std::cout << "per-component checks:      " << report.componentChecks
            << "\n\n";

  // Bonus: simulate a run of the composed ring from the initial state.
  symbolic::Context ctx(1 << 14);
  ring::RingComponents comps = ring::buildRing(ctx, n);
  std::vector<symbolic::SymbolicSystem> systems;
  for (const smv::ElaboratedModule& mod : comps.stations) {
    systems.push_back(mod.sys);
  }
  const symbolic::SymbolicSystem whole = symbolic::composeAll(systems);
  symbolic::TraceBuilder builder(whole);
  const bdd::Bdd init = symbolic::propositionalBdd(ctx, ring::ringInit(n));
  std::cout << "a simulated run (10 steps):\n"
            << builder.simulate(init, 10, /*seed=*/42).toString();
  return report.allOk() ? 0 : 1;
}
