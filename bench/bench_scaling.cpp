// The §5 scaling claim: "it is easy to see that this complexity is reduced
// since we have a linear behavior (as opposed to exponential) in terms of
// the number of components."
//
// Workload: AFS-2 with n clients, safety property (Afs1').
//  - compositional: n+1 per-component obligations (invariance rule);
//  - monolithic: compose all components and model check AG(Inv) on the
//    product's monolithic relation (state space grows as ~168^n · 2).
//
// Expected shape: compositional time grows ~linearly in n; monolithic time
// grows superlinearly (exponential state space, BDD sizes compound), with
// the crossover at small n.  The report prints a per-n table; the
// google-benchmark section gives the precise timings.
#include "afs/afs2.hpp"
#include "afs/verify_afs2.hpp"
#include "bench_common.hpp"
#include "comp/verifier.hpp"
#include "util/timer.hpp"

using namespace cmc;

namespace {

bool monolithicCheck(int n, std::uint64_t* transNodes) {
  symbolic::Context ctx(1 << 16);
  afs::Afs2Components comps = afs::buildAfs2(ctx, n, /*reflexive=*/true);
  comp::CompositionalVerifier verifier(ctx);
  verifier.addComponent(comps.server.sys);
  for (const smv::ElaboratedModule& client : comps.clients) {
    verifier.addComponent(client.sys);
  }
  const symbolic::SymbolicSystem& whole = verifier.composed();
  symbolic::CheckerOptions opts;
  opts.usePartitionedTrans = false;
  symbolic::Checker checker(whole, opts);
  const bool holds = checker.holds(afs::afs2SafetySpec(n));
  // The check materialized the monolithic relation; count that, not the
  // partition.
  if (transNodes != nullptr) *transNodes = whole.transNodeCount();
  return holds;
}

void report() {
  std::printf(
      "== section 5: compositional (linear) vs monolithic (exponential) ==\n");
  std::printf("%3s  %12s  %10s  %12s  %16s\n", "n", "states", "comp. (s)",
              "monol. (s)", "monol. T nodes");
  for (int n = 1; n <= 4; ++n) {
    // State count of the composed system.
    double states = 2.0;  // failure
    for (int i = 0; i < n; ++i) states *= 2 * 3 * 2 * 2 * 4 * 3;  // per client+server block
    WallTimer seq;
    const afs::Afs2Report rep = afs::verifyAfs2(n, false);
    const double seqSeconds = seq.seconds();

    double monoSeconds = -1.0;
    std::uint64_t transNodes = 0;
    if (n <= 3) {  // the monolithic check becomes painful quickly
      WallTimer mono;
      const bool ok = monolithicCheck(n, &transNodes);
      monoSeconds = mono.seconds();
      if (!ok) std::printf("  !! monolithic check FAILED at n=%d\n", n);
    }
    if (!rep.safety) {
      std::printf("  !! compositional check FAILED at n=%d\n", n);
    }
    std::printf("%3d  %12.3g  %10.4f  %12.4f  %16llu\n", n, states,
                seqSeconds, monoSeconds,
                static_cast<unsigned long long>(transNodes));
  }
  std::printf("(monol. -1 = skipped; states = |domain| of the product)\n\n");
}

void BM_Compositional(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const afs::Afs2Report rep = afs::verifyAfs2(n, false);
    benchmark::DoNotOptimize(rep.safety);
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_Compositional)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_Monolithic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(monolithicCheck(n, nullptr));
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_Monolithic)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);

}  // namespace

CMC_BENCH_MAIN("scaling", report)
