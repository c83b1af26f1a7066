// Throughput of the verification service layer: an N-job batch of AFS-1
// component models (5 server + 5 client specs each) checked through
// service::VerificationService (one elaboration snapshot per distinct
// model, obligations fanned onto the thread pool and imported into, or
// run warm on, each worker's context) versus the serial baseline (one
// context per job, specs checked in a plain loop).
//
// The service pays for snapshots, imports and scheduling in exchange for
// obligation-level parallelism, budget enforcement, and tracing; this
// bench quantifies that trade on a machine-readable scale so the
// trajectory is diffable across changes (BENCH_service.json).
#include "afs/smv_sources.hpp"
#include "bench_common.hpp"
#include "service/scheduler.hpp"
#include "util/timer.hpp"

using namespace cmc;

namespace {

std::vector<service::VerificationJob> makeBatch(int copies) {
  std::vector<service::VerificationJob> jobs;
  for (int i = 0; i < copies; ++i) {
    service::VerificationJob server;
    server.name = "afs1server-" + std::to_string(i);
    server.smvText = afs::afs1ServerSmv();
    jobs.push_back(std::move(server));
    service::VerificationJob client;
    client.name = "afs1client-" + std::to_string(i);
    client.smvText = afs::afs1ClientSmv();
    jobs.push_back(std::move(client));
  }
  return jobs;
}

/// The serial baseline: one context per job, straight spec loop.
bool runSerial(const std::vector<service::VerificationJob>& jobs) {
  bool all = true;
  for (const service::VerificationJob& job : jobs) {
    symbolic::Context ctx(1 << 14);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, job.smvText);
    for (const smv::ElaboratedModule& mod : modules) {
      symbolic::Checker checker(mod.sys);
      for (const ctl::Spec& spec : mod.specs) {
        all = all && checker.holds(spec);
      }
    }
  }
  return all;
}

bool runPooled(const std::vector<service::VerificationJob>& jobs,
               unsigned threads) {
  service::ServiceOptions opts;
  opts.threads = threads;
  service::VerificationService svc(opts);
  bool all = true;
  for (const service::JobReport& r : svc.runBatch(jobs)) {
    all = all && r.allHold();
  }
  return all;
}

void report() {
  std::printf("== service batch throughput (AFS-1 component specs) ==\n");
  std::printf("%8s %6s %12s %12s\n", "jobs", "specs", "serial s",
              "service s");
  for (const int copies : {2, 4, 8}) {
    const std::vector<service::VerificationJob> jobs = makeBatch(copies);
    // Best-of-3 each, so a scheduler hiccup in one run does not smear the
    // recorded trajectory.
    bool serialOk = true, poolOk = true;
    double serialSeconds = 1e30, poolSeconds = 1e30;
    for (int run = 0; run < 3; ++run) {
      WallTimer serialTimer;
      serialOk = serialOk && runSerial(jobs);
      serialSeconds = std::min(serialSeconds, serialTimer.seconds());
      WallTimer poolTimer;
      poolOk = poolOk && runPooled(jobs, 0);
      poolSeconds = std::min(poolSeconds, poolTimer.seconds());
    }
    std::printf("%8zu %6zu %12.4f %12.4f%s\n", jobs.size(),
                jobs.size() * 5, serialSeconds, poolSeconds,
                serialOk && poolOk ? "" : "  (VERDICT MISMATCH)");
    const std::string batch = "afs1-batch-" + std::to_string(jobs.size());
    bench::JsonEntry serialEntry;
    serialEntry.model = batch;
    serialEntry.spec = "all component specs";
    serialEntry.holds = serialOk;
    serialEntry.seconds = serialSeconds;
    serialEntry.mode = "serial";
    serialEntry.clusterThreshold = symbolic::CheckerOptions{}.clusterThreshold;
    bench::recordResult(std::move(serialEntry));
    bench::JsonEntry poolEntry;
    poolEntry.model = batch;
    poolEntry.spec = "all component specs";
    poolEntry.holds = poolOk;
    poolEntry.seconds = poolSeconds;
    poolEntry.mode = "service-pool";
    poolEntry.clusterThreshold = service::JobOptions{}.clusterThreshold;
    bench::recordResult(std::move(poolEntry));
  }
  std::printf("\n");
}

void BM_SerialBatch(benchmark::State& state) {
  const std::vector<service::VerificationJob> jobs =
      makeBatch(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runSerial(jobs));
  }
}
BENCHMARK(BM_SerialBatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ServiceBatch(benchmark::State& state) {
  const std::vector<service::VerificationJob> jobs =
      makeBatch(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runPooled(jobs, 0));
  }
}
BENCHMARK(BM_ServiceBatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ServiceBatchBudgeted(benchmark::State& state) {
  // Budget enforcement on: measures the polling overhead of the
  // cooperative cancellation hook with limits that never fire.
  std::vector<service::VerificationJob> jobs =
      makeBatch(static_cast<int>(state.range(0)));
  for (service::VerificationJob& job : jobs) {
    job.options.limits.deadlineSeconds = 3600.0;
    job.options.limits.nodeBudget = 1u << 30;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runPooled(jobs, 0));
  }
}
BENCHMARK(BM_ServiceBatchBudgeted)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

CMC_BENCH_MAIN("service", report)
