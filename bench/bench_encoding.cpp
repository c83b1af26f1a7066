// Figure 3 reproduction: the boolean encoding of finite-domain variables
// (§3.4), plus the symbolic-vs-explicit checking crossover it enables.
#include <random>
#include <sstream>

#include "bench_common.hpp"
#include "kripke/explicit_checker.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/encode.hpp"

using namespace cmc;

namespace {

/// A counter modulo m: x' = x + 1 (mod m) — the Figure 3 system
/// generalized from m = 4 to arbitrary domains.
std::string counterSmv(int m) {
  std::ostringstream out;
  out << "MODULE counter\nVAR x : 0.." << (m - 1) << ";\n";
  out << "ASSIGN\n  next(x) :=\n    case\n";
  for (int v = 0; v < m; ++v) {
    out << "      x = " << v << " : " << (v + 1) % m << ";\n";
  }
  out << "    esac;\n";
  return out.str();
}

void report() {
  std::printf("== Figure 3: boolean encoding of finite domains ==\n");
  std::printf("%8s  %6s  %12s  %22s\n", "domain", "bits", "trans nodes",
              "x<dom/2 formula nodes");
  for (int m : {4, 5, 8, 16, 100}) {
    symbolic::Context ctx(1 << 14);
    const smv::ElaboratedModule mod = smv::elaborateText(ctx, counterSmv(m));
    // The paper's example: (x < 2) over 0..3 maps to !x1 — one node.
    // Generalized: x < m/2 as a disjunction of values.
    std::vector<ctl::FormulaPtr> low;
    for (int v = 0; v < m / 2; ++v) {
      low.push_back(ctl::eq("x", std::to_string(v)));
    }
    symbolic::Checker checker(mod.sys);
    const bdd::Bdd half = checker.sat(ctl::disj(low), {});
    std::printf("%8d  %6zu  %12llu  %22llu\n", m,
                ctx.variable(ctx.varId("x")).bits.size(),
                static_cast<unsigned long long>(mod.sys.transNodeCount()),
                static_cast<unsigned long long>(ctx.mgr().dagSize(half)));
  }
  // The paper's exact instance: x in {0..3}, (x < 2) == !x1 — one BDD node.
  symbolic::Context ctx;
  ctx.addEnumVar("x", {"0", "1", "2", "3"});
  const bdd::Bdd lessThan2 =
      ctx.varEq(ctx.varId("x"), "0") | ctx.varEq(ctx.varId("x"), "1");
  std::printf("\npaper instance: (x < 2) over 0..3 -> %llu BDD node(s) "
              "(paper: the single literal !x1)\n\n",
              static_cast<unsigned long long>(ctx.mgr().dagSize(lessThan2)));
}

void BM_SymbolicCheck(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  symbolic::Context ctx(1 << 14);
  const smv::ElaboratedModule mod =
      smv::elaborateText(ctx, counterSmv(m));
  symbolic::Checker checker(mod.sys);
  const ctl::FormulaPtr spec =
      ctl::mkImplies(ctl::eq("x", "0"), ctl::EF(ctl::eq("x", std::to_string(m - 1))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.holds(ctl::Restriction::trivial(), spec));
  }
  state.counters["domain"] = m;
}
BENCHMARK(BM_SymbolicCheck)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ExplicitCheck(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  symbolic::Context ctx(1 << 14);
  const smv::ElaboratedModule mod =
      smv::elaborateText(ctx, counterSmv(m));
  const symbolic::ExplicitImage image =
      symbolic::explicitFromSymbolic(mod.sys);
  kripke::ExplicitChecker checker(image.sys, image.semantics);
  const ctl::FormulaPtr spec =
      ctl::mkImplies(ctl::eq("x", "0"), ctl::EF(ctl::eq("x", std::to_string(m - 1))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        checker.holds(ctl::Restriction::trivial(), spec));
  }
  state.counters["domain"] = m;
}
BENCHMARK(BM_ExplicitCheck)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_EncodeExplicitToSymbolic(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  std::mt19937 rng(9);
  std::vector<std::string> names;
  for (int i = 0; i < atoms; ++i) {
    names.push_back(std::string("a").append(std::to_string(i)));
  }
  kripke::ExplicitSystem es(names);
  std::uniform_int_distribution<std::uint64_t> pick(0, es.stateCount() - 1);
  for (kripke::State s = 0; s < es.stateCount(); ++s) {
    es.addTransition(s, static_cast<kripke::State>(pick(rng)));
  }
  es.makeReflexive();
  for (auto _ : state) {
    symbolic::Context ctx(1 << 14);
    benchmark::DoNotOptimize(
        symbolic::symbolicFromExplicit(ctx, es, "r").transNodeCount());
  }
}
BENCHMARK(BM_EncodeExplicitToSymbolic)->Arg(4)->Arg(8)->Arg(10);

}  // namespace

CMC_BENCH_MAIN("encoding", report)
