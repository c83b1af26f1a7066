// Obligation-cache effectiveness: the same AFS batch checked through the
// verification service cold (every obligation hits the checker) and warm
// (every obligation served from the content-addressed cache, zero checker
// attempts).  Three warm variants are measured: a resubmission through the
// same service (in-memory hit), a fresh service instance over the same
// --cache-dir (disk-loaded hit), and the cache-disabled baseline for the
// bookkeeping overhead.  The ISSUE acceptance bar is warm >= 5x cold on
// the composed AFS-2 workload; BENCH_cache.json records the ratio.
#include <cstdlib>
#include <filesystem>
#include <optional>

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

std::filesystem::path scratchDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("cmc-bench-cache-" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct RunStats {
  bool allHold = true;
  double seconds = 0.0;
  std::optional<double> hitRate;  ///< unset when no cache was consulted
};

RunStats runOnce(service::VerificationService& svc,
                 const std::vector<service::VerificationJob>& jobs) {
  const service::ObligationCacheStats before =
      svc.cache() != nullptr ? svc.cache()->stats()
                             : service::ObligationCacheStats{};
  WallTimer timer;
  RunStats stats;
  for (const service::JobReport& r : svc.runBatch(jobs)) {
    stats.allHold = stats.allHold && r.allHold();
  }
  stats.seconds = timer.seconds();
  if (svc.cache() != nullptr) {
    const service::ObligationCacheStats after = svc.cache()->stats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    if (hits + misses > 0) {
      stats.hitRate = static_cast<double>(hits) /
                      static_cast<double>(hits + misses);
    }
  }
  return stats;
}

void recordRun(const std::string& batch, const std::string& mode,
               const RunStats& s) {
  bench::JsonEntry e;
  e.model = batch;
  e.spec = "all component specs";
  e.holds = s.allHold;
  e.seconds = s.seconds;
  e.cacheHitRate = s.hitRate;
  e.mode = mode;
  e.clusterThreshold = service::JobOptions{}.clusterThreshold;
  bench::recordResult(std::move(e));
}

void report() {
  std::printf("== obligation cache: cold vs warm service runs ==\n");
  std::printf("%8s %10s %10s %10s %10s %8s\n", "jobs", "no-cache",
              "cold s", "warm-mem", "warm-disk", "speedup");
  for (const int copies : {2, 4, 8}) {
    const std::vector<service::VerificationJob> jobs = makeBatch(copies);
    const std::string batch = "afs1-batch-" + std::to_string(jobs.size());
    const std::filesystem::path dir = scratchDir(std::to_string(copies));

    service::ServiceOptions noCacheOpts;
    noCacheOpts.cacheEnabled = false;
    service::VerificationService noCacheSvc(noCacheOpts);
    const RunStats noCache = runOnce(noCacheSvc, jobs);

    service::ServiceOptions diskOpts;
    diskOpts.cacheDir = dir.string();
    service::VerificationService coldSvc(diskOpts);
    const RunStats cold = runOnce(coldSvc, jobs);
    const RunStats warmMem = runOnce(coldSvc, jobs);

    service::VerificationService diskSvc(diskOpts);
    const RunStats warmDisk = runOnce(diskSvc, jobs);

    const bool ok = noCache.allHold && cold.allHold && warmMem.allHold &&
                    warmDisk.allHold;
    std::printf("%8zu %10.4f %10.4f %10.4f %10.4f %7.1fx%s\n", jobs.size(),
                noCache.seconds, cold.seconds, warmMem.seconds,
                warmDisk.seconds,
                warmMem.seconds > 0.0 ? cold.seconds / warmMem.seconds : 0.0,
                ok ? "" : "  (VERDICT MISMATCH)");
    recordRun(batch, "no-cache", noCache);
    recordRun(batch, "cache-cold", cold);
    recordRun(batch, "cache-warm-memory", warmMem);
    recordRun(batch, "cache-warm-disk", warmDisk);
    std::filesystem::remove_all(dir);
  }
  std::printf("\n");
}

void BM_ColdBatch(benchmark::State& state) {
  // A fresh service per iteration: every obligation reaches the checker.
  const std::vector<service::VerificationJob> jobs =
      makeBatch(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    service::VerificationService svc;
    benchmark::DoNotOptimize(runOnce(svc, jobs).allHold);
  }
}
BENCHMARK(BM_ColdBatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_WarmBatch(benchmark::State& state) {
  // One shared service, pre-warmed outside the timing loop: every
  // obligation is a memory-tier cache hit.
  const std::vector<service::VerificationJob> jobs =
      makeBatch(static_cast<int>(state.range(0)));
  service::VerificationService svc;
  (void)svc.runBatch(jobs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runOnce(svc, jobs).allHold);
  }
}
BENCHMARK(BM_WarmBatch)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

CMC_BENCH_MAIN("cache", report)
