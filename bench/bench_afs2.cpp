// Reproduction of the paper's AFS-2 evaluation (Figures 12-17):
//  - Figures 15 and 17: model checking the server and client components.
//    Paper reference values:
//      server: all true, 0.067 s user, 2737 nodes allocated, trans 1145 + 6
//      client: all true, 0.067 s user,  592 nodes allocated, trans  120 + 6
//    Expected shape: everything true, AFS-2 BDDs markedly larger than
//    AFS-1's (callbacks/updates/failures add state), client smaller than
//    server.
//  - §4.3.4's compositional deduction of (Afs1') and timings per n.
#include "afs/afs2.hpp"
#include "afs/verify_afs2.hpp"
#include "bench_common.hpp"
#include "gen/modelgen.hpp"
#include "smv/parser.hpp"
#include "util/timer.hpp"

using namespace cmc;

namespace {

/// The specs of a figure: every state is checked (the listings have no
/// INIT), so the generator's INIT is dropped from the restriction.
std::vector<ctl::Spec> allStates(std::vector<ctl::Spec> specs) {
  for (ctl::Spec& spec : specs) spec.r = ctl::Restriction::trivial();
  return specs;
}

void report() {
  const std::vector<smv::Module> modules =
      smv::parseProgram(gen::afs2Model(2));
  {
    WallTimer timer;
    symbolic::Context ctx(1 << 14);
    const smv::ElaboratedModule server = smv::elaborate(ctx, modules.at(0));
    bench::printFigureReport(
        "Figure 15: model checking the AFS-2 server (Srv1, Srv2; 2 clients)",
        ctx, server.sys, allStates(server.specs), timer.seconds());
  }
  {
    WallTimer timer;
    symbolic::Context ctx;
    const smv::ElaboratedModule client = smv::elaborate(ctx, modules.at(1));
    bench::printFigureReport(
        "Figure 17: model checking the AFS-2 client (Cli1)", ctx, client.sys,
        allStates(client.specs), timer.seconds());
  }
  for (int n : {1, 2, 3}) {
    WallTimer timer;
    const afs::Afs2Report rep = afs::verifyAfs2(n, /*crossCheck=*/n <= 2);
    std::printf(
        "== section 4.3.4: (Afs1') with %d client(s): %s, %zu component "
        "checks, %g s%s ==\n",
        n, rep.safety ? "proved" : "FAILED", rep.componentChecks,
        timer.seconds(),
        n <= 2 ? (rep.safetyCrossCheck ? ", cross-check confirmed"
                                       : ", CROSS-CHECK FAILED")
               : "");
  }
  std::printf("\n");
}

void BM_Afs2ServerSpecs(benchmark::State& state) {
  const smv::Module server = smv::parseProgram(
      gen::afs2Model(static_cast<std::size_t>(state.range(0)))).at(0);
  std::uint64_t transNodes = 0;
  for (auto _ : state) {
    symbolic::Context ctx(1 << 14);
    const smv::ElaboratedModule mod = smv::elaborate(ctx, server);
    symbolic::Checker checker(mod.sys);
    bool all = true;
    for (const ctl::Spec& spec : mod.specs) {
      all = all && checker.holds(ctl::Restriction::trivial(), spec.f);
    }
    benchmark::DoNotOptimize(all);
    transNodes = mod.sys.transNodeCount();
  }
  state.counters["trans_nodes"] = static_cast<double>(transNodes);
}
BENCHMARK(BM_Afs2ServerSpecs)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_Afs2ClientSpecs(benchmark::State& state) {
  const smv::Module client = smv::parseProgram(gen::afs2Model(1)).at(1);
  for (auto _ : state) {
    symbolic::Context ctx;
    const smv::ElaboratedModule mod = smv::elaborate(ctx, client);
    symbolic::Checker checker(mod.sys);
    benchmark::DoNotOptimize(
        checker.holds(ctl::Restriction::trivial(), mod.specs.at(0).f));
  }
}
BENCHMARK(BM_Afs2ClientSpecs);

void BM_Afs2CompositionalSafety(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::size_t checks = 0;
  for (auto _ : state) {
    const afs::Afs2Report rep = afs::verifyAfs2(n, /*crossCheck=*/false);
    benchmark::DoNotOptimize(rep.safety);
    checks = rep.componentChecks;
  }
  state.counters["component_checks"] = static_cast<double>(checks);
}
BENCHMARK(BM_Afs2CompositionalSafety)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace

CMC_BENCH_MAIN("afs2", report)
