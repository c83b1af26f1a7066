// Assume-guarantee learning versus the direct composed check, on the
// generated ring and AFS-2 families (src/gen/).  Three modes per model:
//
//   direct      `--compose`-style run: component specs plus the composed
//               obligations checked monolithically on the full product
//   learn-cold  the same job through agr::runLearnedJob with a cold
//               in-memory cache — pays the full query fan-out
//   learn-warm  an identical rerun against the same service: every
//               membership/premise query is an obligation-cache hit, so
//               this is the steady-state price of a learned re-check
//
// The point of the trajectory (BENCH_learn.json): learning trades a
// constant-factor query fan-out for never building the n-component
// product, so as n grows the learned modes hold steady while the direct
// composed check climbs; and the warm rerun shows the cache absorbing
// the fan-out entirely.  Verdict agreement between the modes is asserted
// on every row — a mismatch prints loudly and poisons `holds`.
#include <algorithm>
#include <map>

#include "agr/engine.hpp"
#include "bench_common.hpp"
#include "gen/modelgen.hpp"
#include "service/scheduler.hpp"
#include "util/timer.hpp"

using namespace cmc;

namespace {

service::VerificationJob makeJob(const std::string& name,
                                 const std::string& text) {
  service::VerificationJob job;
  job.name = name;
  job.smvText = text;
  job.options.compose = true;
  return job;
}

std::map<std::string, service::Verdict> composedVerdicts(
    const service::JobReport& report) {
  std::map<std::string, service::Verdict> out;
  for (const service::ObligationOutcome& o : report.obligations) {
    if (o.target == "composed") out[o.id] = o.verdict;
  }
  return out;
}

void benchModel(const std::string& name, const std::string& text) {
  const service::VerificationJob job = makeJob(name, text);

  service::VerificationService directSvc(service::ServiceOptions{});
  WallTimer directTimer;
  const service::JobReport direct = directSvc.run(job);
  const double directSeconds = directTimer.seconds();

  service::VerificationService learnSvc(service::ServiceOptions{});
  service::VerificationJob learnJob = job;
  learnJob.options.learn = true;
  WallTimer coldTimer;
  const service::JobReport cold =
      agr::runLearnedJob(learnSvc, learnJob, agr::LearnOptions{});
  const double coldSeconds = coldTimer.seconds();
  WallTimer warmTimer;
  const service::JobReport warm =
      agr::runLearnedJob(learnSvc, learnJob, agr::LearnOptions{});
  const double warmSeconds = warmTimer.seconds();

  const bool agree = composedVerdicts(direct) == composedVerdicts(cold) &&
                     composedVerdicts(cold) == composedVerdicts(warm);
  const bool holds = direct.verdict == service::Verdict::Holds;
  std::size_t learned = 0;
  for (const service::ObligationOutcome& o : cold.obligations) {
    if (o.verdictSource == "learned") ++learned;
  }
  std::printf("%14s %8.4f %10.4f %10.4f   %zu/%zu learned%s\n",
              name.c_str(), directSeconds, coldSeconds, warmSeconds,
              learned, composedVerdicts(cold).size(),
              agree ? "" : "  (VERDICT MISMATCH)");

  const auto record = [&](const char* mode, double seconds,
                          const service::JobReport* learned) {
    bench::JsonEntry e;
    e.model = name;
    e.spec = "all composed specs";
    e.holds = holds && agree;
    e.seconds = seconds;
    e.mode = mode;
    // A learned run's hit rate is its obligation cache's (the teacher's
    // queries); the direct check measures none.
    const std::uint64_t lookups =
        learned == nullptr ? 0 : learned->cacheHits + learned->cacheMisses;
    if (lookups > 0) {
      e.cacheHitRate = static_cast<double>(learned->cacheHits) /
                       static_cast<double>(lookups);
    }
    e.clusterThreshold = service::JobOptions{}.clusterThreshold;
    bench::recordResult(std::move(e));
  };
  record("direct-composed", directSeconds, nullptr);
  record("learn-cold", coldSeconds, &cold);
  record("learn-warm", warmSeconds, &warm);
}

void report() {
  std::printf("== assume-guarantee learning vs direct composed check ==\n");
  std::printf("%14s %8s %10s %10s\n", "model", "direct s", "learn cold",
              "learn warm");
  for (const std::size_t n : {3u, 8u, 16u}) {
    benchModel("ring-" + std::to_string(n), gen::ringModel(n));
  }
  for (const std::size_t n : {2u, 3u}) {
    benchModel("afs2-" + std::to_string(n), gen::afs2Model(n));
  }
  std::printf("\n");
}

void BM_DirectComposedRing(benchmark::State& state) {
  const service::VerificationJob job = makeJob(
      "ring", gen::ringModel(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    service::VerificationService svc(service::ServiceOptions{});
    benchmark::DoNotOptimize(svc.run(job).verdict);
  }
}
BENCHMARK(BM_DirectComposedRing)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LearnColdRing(benchmark::State& state) {
  service::VerificationJob job = makeJob(
      "ring", gen::ringModel(static_cast<std::size_t>(state.range(0))));
  job.options.learn = true;
  for (auto _ : state) {
    service::VerificationService svc(service::ServiceOptions{});
    benchmark::DoNotOptimize(
        agr::runLearnedJob(svc, job, agr::LearnOptions{}).verdict);
  }
}
BENCHMARK(BM_LearnColdRing)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_LearnWarmRing(benchmark::State& state) {
  service::VerificationJob job = makeJob(
      "ring", gen::ringModel(static_cast<std::size_t>(state.range(0))));
  job.options.learn = true;
  service::VerificationService svc(service::ServiceOptions{});
  agr::runLearnedJob(svc, job, agr::LearnOptions{});  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agr::runLearnedJob(svc, job, agr::LearnOptions{}).verdict);
  }
}
BENCHMARK(BM_LearnWarmRing)->Arg(3)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

CMC_BENCH_MAIN("learn", report)
