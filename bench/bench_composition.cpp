// Figure 1 reproduction and composition-operator costs: explicit vs
// symbolic composition, the expansion (Lemma 4) path vs direct
// composition, and scaling in the number of components.
#include "bench_common.hpp"
#include "kripke/composition.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"

using namespace cmc;

namespace {

kripke::ExplicitSystem figure1System(const std::string& atom) {
  kripke::ExplicitSystem sys({atom});
  sys.addTransition(0, 1);
  sys.addTransition(1, 0);
  sys.addTransition(1, 1);
  sys.addTransition(0, 0);
  return sys;
}

void report() {
  std::printf("== Figure 1: M o M' ==\n");
  const kripke::ExplicitSystem m = figure1System("x");
  const kripke::ExplicitSystem mp = figure1System("y");
  const kripke::ExplicitSystem whole = kripke::compose(m, mp);
  std::printf("|R*| = %zu transitions (paper lists 12):\n",
              whole.transitionCount());
  whole.forEachTransition([&](kripke::State s, kripke::State t) {
    std::printf("  %s -> %s\n", whole.stateToString(s).c_str(),
                whole.stateToString(t).c_str());
  });
  // Lemma 4 sanity: expansions compose to the same system.
  const kripke::ExplicitSystem viaExpansion =
      kripke::compose(kripke::expand(m, mp.atoms()),
                      kripke::expand(mp, m.atoms()));
  std::printf("Lemma 4 (expansion path equals direct): %s\n\n",
              whole.sameBehavior(viaExpansion) ? "holds" : "VIOLATED");
}

/// A k-atom component that rotates its own atoms; used to scale
/// composition size.
kripke::ExplicitSystem rotator(const std::string& prefix, int atoms) {
  std::vector<std::string> names;
  for (int i = 0; i < atoms; ++i) {
    names.push_back(prefix + std::to_string(i));
  }
  kripke::ExplicitSystem sys(names);
  for (kripke::State s = 0; s < sys.stateCount(); ++s) {
    const kripke::State rotated = static_cast<kripke::State>(
        ((s << 1) | (s >> (atoms - 1))) & (sys.stateCount() - 1));
    sys.addTransition(s, rotated);
  }
  sys.makeReflexive();
  return sys;
}

void BM_ExplicitCompose(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  const kripke::ExplicitSystem a = rotator("a", atoms);
  const kripke::ExplicitSystem b = rotator("b", atoms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kripke::compose(a, b).transitionCount());
  }
  state.counters["union_atoms"] = 2 * atoms;
}
BENCHMARK(BM_ExplicitCompose)->Arg(2)->Arg(4)->Arg(6);

void BM_SymbolicCompose(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  symbolic::Context ctx(1 << 14);
  const symbolic::SymbolicSystem a =
      symbolic::symbolicFromExplicit(ctx, rotator("a", atoms), "A");
  const symbolic::SymbolicSystem b =
      symbolic::symbolicFromExplicit(ctx, rotator("b", atoms), "B");
  for (auto _ : state) {
    benchmark::DoNotOptimize(symbolic::compose(a, b).transNodeCount());
  }
  state.counters["union_atoms"] = 2 * atoms;
}
BENCHMARK(BM_SymbolicCompose)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_SymbolicComposeMany(benchmark::State& state) {
  // k components, one boolean each (latch): T* grows with k.
  const int k = static_cast<int>(state.range(0));
  symbolic::Context ctx(1 << 14);
  std::vector<symbolic::SymbolicSystem> components;
  for (int i = 0; i < k; ++i) {
    const std::string name = std::string("c").append(std::to_string(i));
    const symbolic::VarId v = ctx.addBoolVar(name);
    const bdd::Bdd latch =
        ctx.varEq(v, "0") & ctx.varEq(v, "1", true);
    symbolic::SymbolicSystem sys = symbolic::makeSystem(ctx, name, {v}, latch);
    symbolic::addReflexive(sys);
    components.push_back(std::move(sys));
  }
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const symbolic::SymbolicSystem whole = symbolic::composeAll(components);
    nodes = whole.transNodeCount();
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["components"] = k;
  state.counters["trans_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SymbolicComposeMany)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ExpansionLemma4Path(benchmark::State& state) {
  // Cost of the Lemma 4 route (expand, expand, compose) vs direct compose.
  const int atoms = static_cast<int>(state.range(0));
  symbolic::Context ctx(1 << 14);
  const symbolic::SymbolicSystem a =
      symbolic::symbolicFromExplicit(ctx, rotator("a", atoms), "A");
  const symbolic::SymbolicSystem b =
      symbolic::symbolicFromExplicit(ctx, rotator("b", atoms), "B");
  for (auto _ : state) {
    const symbolic::SymbolicSystem ea = symbolic::expand(a, b.vars);
    const symbolic::SymbolicSystem eb = symbolic::expand(b, a.vars);
    benchmark::DoNotOptimize(symbolic::compose(ea, eb).transBdd().index());
  }
}
BENCHMARK(BM_ExpansionLemma4Path)->Arg(2)->Arg(4)->Arg(6);

}  // namespace

CMC_BENCH_MAIN("composition", report)
