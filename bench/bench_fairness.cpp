// Figure 2 reproduction and fairness costs: the strong-fairness ring,
// Rule 4 vs Rule 5, and the Emerson-Lei fair-EG fixpoint as the ring and
// the number of fairness constraints grow.
#include <sstream>

#include "bench_common.hpp"
#include "comp/rules.hpp"
#include "comp/verifier.hpp"
#include "ctl/parser.hpp"
#include "smv/elaborate.hpp"

using namespace cmc;

namespace {

/// Figure 2 generalized: a ring p1..pk with a single exit p1 -> q.
std::string ringSmv(int k) {
  std::ostringstream out;
  out << "MODULE ring\nVAR s : {";
  for (int i = 1; i <= k; ++i) out << "p" << i << ", ";
  out << "q};\nASSIGN\n  next(s) :=\n    case\n";
  out << "      s = p1 : {p2, q};\n";
  for (int i = 2; i <= k; ++i) {
    out << "      s = p" << i << " : p" << (i % k) + 1 << ";\n";
  }
  out << "      1 : s;\n    esac;\n";
  return out.str();
}

ctl::FormulaPtr ringRegion(int k) {
  std::vector<ctl::FormulaPtr> ps;
  for (int i = 1; i <= k; ++i) {
    ps.push_back(ctl::eq("s", std::string("p").append(std::to_string(i))));
  }
  return ctl::disj(ps);
}

void report() {
  std::printf("== Figure 2: strong fairness required ==\n");
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, ringSmv(6));
  symbolic::Checker checker(mod.sys);
  const ctl::FormulaPtr p = ringRegion(6);
  const ctl::FormulaPtr q = ctl::parse("s=q");

  comp::ProofTree proof;
  const auto rule4 = comp::deriveRule4(checker, p, q, proof);
  std::printf("Rule 4 premise p => EX q:          %s (paper: fails)\n",
              rule4.has_value() ? "holds" : "fails");

  std::vector<ctl::FormulaPtr> ps;
  for (int i = 1; i <= 6; ++i) {
    ps.push_back(ctl::eq("s", std::string("p").append(std::to_string(i))));
  }
  const auto rule5 = comp::deriveRule5(checker, ps, 0, q, proof);
  std::printf("Rule 5 with helpful disjunct p1:   %s (paper: succeeds)\n",
              rule5.has_value() ? "succeeds" : "FAILS");

  const ctl::FormulaPtr progress = ctl::mkImplies(p, ctl::AU(p, q));
  std::printf("p => A[p U q] without fairness:    %s (paper: false)\n",
              checker.holds(ctl::Restriction::trivial(), progress)
                  ? "true" : "false");
  std::printf("p => A[p U q] under (true,{!p|q}): %s (paper: true)\n\n",
              checker.holds(comp::progressRestriction(p, q), progress)
                  ? "true" : "false");
}

void BM_Rule5Derivation(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const std::string smv = ringSmv(k);
  for (auto _ : state) {
    symbolic::Context ctx;
    const smv::ElaboratedModule mod = smv::elaborateText(ctx, smv);
    symbolic::Checker checker(mod.sys);
    std::vector<ctl::FormulaPtr> ps;
    for (int i = 1; i <= k; ++i) {
      ps.push_back(ctl::eq("s", std::string("p").append(std::to_string(i))));
    }
    comp::ProofTree proof;
    const auto g =
        comp::deriveRule5(checker, ps, 0, ctl::parse("s=q"), proof);
    benchmark::DoNotOptimize(g.has_value());
  }
}
BENCHMARK(BM_Rule5Derivation)->Arg(4)->Arg(8)->Arg(16);

void BM_FairAUCheck(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, ringSmv(k));
  symbolic::Checker checker(mod.sys);
  const ctl::FormulaPtr p = ringRegion(k);
  const ctl::FormulaPtr q = ctl::parse("s=q");
  const ctl::FormulaPtr progress = ctl::mkImplies(p, ctl::AU(p, q));
  const ctl::Restriction r = comp::progressRestriction(p, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.holds(r, progress));
  }
  state.counters["ring"] = k;
}
BENCHMARK(BM_FairAUCheck)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_EmersonLeiManyConstraints(benchmark::State& state) {
  // Fair states with m independent fairness constraints over free booleans.
  const int m = static_cast<int>(state.range(0));
  symbolic::Context ctx;
  std::ostringstream smv;
  smv << "MODULE free\nVAR ";
  for (int i = 0; i < m; ++i) smv << "b" << i << " : boolean;\n    ";
  smv << "\n";
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, smv.str());
  symbolic::Checker checker(mod.sys);
  std::vector<ctl::FormulaPtr> fairness;
  for (int i = 0; i < m; ++i) {
    fairness.push_back(ctl::atom(std::string("b").append(std::to_string(i))));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.fairStates(fairness));
  }
  state.counters["constraints"] = m;
}
BENCHMARK(BM_EmersonLeiManyConstraints)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

CMC_BENCH_MAIN("fairness", report)
