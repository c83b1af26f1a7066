// The §5 scaling claim: "it is easy to see that this complexity is reduced
// since we have a linear behavior (as opposed to exponential) in terms of
// the number of components."
//
// Workload: AFS-2 with n clients, safety property (Afs1').
//  - compositional: n+1 per-component obligations (invariance rule);
//  - compositional-parallel: the same obligations as factory jobs of one
//    VerificationService batch (each job builds AFS-2 in its worker's own
//    BDD manager; the obligation cache is off, so every run checks);
//  - monolithic: compose all components and model check AG(Inv) on the
//    product directly (state space grows as ~168^n · 2).
//
// Expected shape: compositional time grows ~linearly in n; monolithic time
// grows superlinearly (exponential state space, BDD sizes compound), with
// the crossover at small n.  The report prints a per-n table; the
// google-benchmark section gives the precise timings.
#include <algorithm>

#include "afs/afs2.hpp"
#include "afs/verify_afs2.hpp"
#include "bench_common.hpp"
#include "comp/verifier.hpp"
#include "service/scheduler.hpp"
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
  if (transNodes != nullptr) *transNodes = whole.transNodeCount();
  symbolic::Checker checker(whole);
  const ctl::Spec spec = afs::afs2SafetySpec(n);
  return checker.holds(spec);
}

/// The invariant step Inv ⇒ AX Inv on the expansion of each component
/// over the union alphabet, one factory job per component.
std::vector<service::VerificationJob> compositionalJobs(int n) {
  std::vector<service::VerificationJob> jobs;
  for (int component = 0; component <= n; ++component) {
    service::VerificationJob job;
    job.name = "component " + std::to_string(component);
    job.factory = [n, component](symbolic::Context& ctx) {
      const afs::Afs2Components comps =
          afs::buildAfs2(ctx, n, /*reflexive=*/true);
      std::vector<symbolic::VarId> everything = comps.server.sys.vars;
      for (const smv::ElaboratedModule& c : comps.clients) {
        everything.insert(everything.end(), c.sys.vars.begin(),
                          c.sys.vars.end());
      }
      const ctl::FormulaPtr inv = afs::afs2Invariant(n);
      smv::ElaboratedModule step;
      step.sys = symbolic::expand(
          component == 0 ? comps.server.sys : comps.clients[component - 1].sys,
          everything);
      step.initFormula = ctl::mkTrue();
      step.specs = {ctl::Spec{"step", ctl::Restriction::trivial(),
                              ctl::mkImplies(inv, ctl::AX(inv))}};
      return std::vector<smv::ElaboratedModule>{std::move(step)};
    };
    jobs.push_back(std::move(job));
  }
  return jobs;
}

service::ServiceOptions uncached() {
  service::ServiceOptions opts;
  opts.cacheEnabled = false;
  return opts;
}

bool allHold(const std::vector<service::JobReport>& reports) {
  return std::all_of(reports.begin(), reports.end(),
                     [](const service::JobReport& r) { return r.allHold(); });
}

void report() {
  service::VerificationService svc(uncached());
  std::printf(
      "== section 5: compositional (linear) vs monolithic (exponential) ==\n");
  std::printf(
      "%3s  %12s  %10s  %14s  %12s  %16s\n", "n", "states", "comp. (s)",
      "comp. par. (s)", "monol. (s)", "monol. T nodes");
  for (int n = 1; n <= 4; ++n) {
    // State count of the composed system.
    double states = 2.0;  // failure
    for (int i = 0; i < n; ++i) states *= 2 * 3 * 2 * 2 * 4 * 3;  // per client+server block
    WallTimer seq;
    const afs::Afs2Report rep = afs::verifyAfs2(n, false);
    const double seqSeconds = seq.seconds();

    WallTimer par;
    const bool parOk = allHold(svc.runBatch(compositionalJobs(n)));
    const double parSeconds = par.seconds();

    double monoSeconds = -1.0;
    std::uint64_t transNodes = 0;
    if (n <= 3) {  // the monolithic check becomes painful quickly
      WallTimer mono;
      const bool ok = monolithicCheck(n, &transNodes);
      monoSeconds = mono.seconds();
      if (!ok) std::printf("  !! monolithic check FAILED at n=%d\n", n);
    }
    if (!rep.safety || !parOk) {
      std::printf("  !! compositional check FAILED at n=%d\n", n);
    }
    std::printf("%3d  %12.3g  %10.4f  %14.4f  %12.4f  %16llu\n", n, states,
                seqSeconds, parSeconds, monoSeconds,
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

void BM_CompositionalParallel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<service::VerificationJob> jobs = compositionalJobs(n);
  service::VerificationService svc(uncached());
  for (auto _ : state) {
    benchmark::DoNotOptimize(allHold(svc.runBatch(jobs)));
  }
  state.counters["clients"] = n;
}
BENCHMARK(BM_CompositionalParallel)->Arg(1)->Arg(2)->Arg(3)->Arg(4)
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
