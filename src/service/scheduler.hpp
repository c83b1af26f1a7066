// The batch job scheduler (service layer): accepts VerificationJobs, fans
// their obligations onto a ThreadPool, enforces per-obligation resource
// budgets, applies the engine degradation/retry policy, consults the
// content-addressed obligation cache before dispatching the checker, and
// emits the structured JSONL run trace plus a summary JobReport per job.
//
// Scheduling model
//  - Each job is elaborated ONCE into a shared, immutable elaboration
//    snapshot (service/snapshot.hpp); snapshot builds are themselves pool
//    tasks, so a batch's scout phase runs in parallel.  The snapshot
//    enumerates the obligations — one per (module, spec); with
//    JobOptions::compose also one per spec on the composition, discharged
//    through the compositional rules with a ProofTree certificate — and,
//    under EngineMode::Auto, resolves the engine choice per target.
//  - Obligations are independent: each attempt runs in a symbolic::Context
//    owned by its worker thread (BDD managers are single-threaded).
//    Attempts *import* their BDDs from the snapshot through bdd::Importer —
//    a linear copy of the reachable DAG into a pre-sized arena — instead of
//    re-parsing and re-elaborating; only quarantine retries rebuild from
//    the program text, on the engine the snapshot chose.
//  - Warm contexts: a worker that decided an obligation (Holds/Fails)
//    keeps its imported context and runs its next obligation of the same
//    target and engine on it (trace and report: "context": "warm"), so a
//    module's import is paid per worker, not per spec.  A component
//    context also keeps its module's checker (schedules, cone projections,
//    fair region) and a composed context its verifier (closures,
//    composition, composed checker); each attempt rebinds their cancel
//    hook to its own budget.  Fresh contexts are sized from what they
//    import: a component's module, or the whole snapshot.  Reuse never
//    crosses a job or a thread, and reorder jobs never reuse.  Any other
//    outcome destroys the context, so an engine retry after MemoryOut
//    starts with a fresh manager, as does every quarantine retry.
//  - Budgets are enforced cooperatively: BudgetToken is installed as the
//    checker's CheckerOptions::cancelCheck hook, so a blown-up fixpoint
//    aborts with Timeout/MemoryOut instead of hanging the worker.
//  - Degradation policy: a budget-exhausted attempt under the partitioned
//    engine is retried once under the monolithic engine (and vice versa);
//    only when both exhaust their budget is the obligation Inconclusive.
//  - Caching: the scout phase fingerprints every obligation from its
//    snapshot's key prefix (smv::canonicalModule, hashed once per module)
//    + restriction + spec + options; a worker first
//    consults the service's ObligationCache and serves a hit without any
//    checker attempt (verdict_source "cache" in trace and report).  Only
//    decided verdicts (Holds/Fails) are inserted.
//  - Quarantine: an attempt that throws an unexpected exception (anything
//    other than the budget/cancel CancelledError) is retried once on a
//    fresh Context; a second throw marks the obligation Error with the
//    exception recorded in the report.  A poisoned obligation can never
//    take down its siblings — the worker task itself never throws.
//  - Durability: with a RunJournal attached, every final outcome is
//    appended (with a per-line checksum, flushed) the moment it is
//    decided; with a JournalReplay, already-decided obligations are served
//    from the journal (verdict_source "journal") without any attempt.
//  - Cancellation: ServiceOptions::cancelFlag is polled at obligation
//    pickup and inside the checker's cancel hook; once set, running
//    attempts abort and queued obligations drain as Cancelled, so a batch
//    winds down in bounded time with everything decided so far flushed.
#pragma once

#include <atomic>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "service/job.hpp"
#include "service/journal.hpp"
#include "service/metrics.hpp"
#include "service/obligation_cache.hpp"
#include "service/snapshot.hpp"
#include "service/trace_log.hpp"
#include "util/thread_pool.hpp"

namespace cmc::service {

struct ServiceOptions {
  /// Worker threads for the obligation pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// Consult/maintain the content-addressed obligation cache: identical
  /// (module, spec, restriction, options) obligations are verified once
  /// per service and served from memory afterwards.
  bool cacheEnabled = true;
  /// Directory of the persistent JSONL verdict store (cmc --cache-dir);
  /// empty = in-memory only.
  std::string cacheDir;
  /// Cooperative cancellation: when non-null and set, workers abort their
  /// current attempt (verdict Cancelled) and drain queued obligations
  /// without running them.  The flag is owned by the embedder — cmc points
  /// it at the flag its SIGINT/SIGTERM handler sets.
  const std::atomic<bool>* cancelFlag = nullptr;
  /// Scheduler observability: when non-null, obligation dispatch and
  /// verdicts are counted (obligations_dispatched, obligations_completed,
  /// per-source obligations_{checked,cache,journal}, per-verdict
  /// verdict_*) and per-obligation latency lands in the
  /// obligation_seconds histogram.  Owned by the embedder (cmc serve
  /// shares one registry between server and scheduler); must outlive the
  /// service.
  MetricsRegistry* metrics = nullptr;
};

class VerificationService {
 public:
  explicit VerificationService(ServiceOptions opts = {})
      : pool_(opts.threads), cancel_(opts.cancelFlag), metrics_(opts.metrics) {
    if (opts.cacheEnabled) {
      ObligationCache::Options copts;
      copts.dir = opts.cacheDir;
      cache_ = std::make_unique<ObligationCache>(std::move(copts));
    }
  }

  /// Run one job to completion; events go to `trace` when non-null.
  /// Outcomes are journaled to `journal` (when open) as they are decided;
  /// obligations found decided in `replay` are served without attempts.
  /// `cancel` is a per-call cancel flag, polled alongside the service-wide
  /// ServiceOptions::cancelFlag — `cmc serve` points it at the per-request
  /// flag its CANCEL command raises, so one request winds down without
  /// touching its neighbours.
  JobReport run(const VerificationJob& job, RunTrace* trace = nullptr,
                RunJournal* journal = nullptr,
                const JournalReplay* replay = nullptr,
                const std::atomic<bool>* cancel = nullptr);

  /// Run a batch: all obligations of all jobs share the pool, so a wide
  /// job cannot starve a narrow one queued behind it (obligations
  /// interleave at task granularity).  Reports are returned in job order.
  /// Safe to call concurrently from several threads (the server does):
  /// the pool, cache, journal, and trace are all thread-safe, and each
  /// call owns its own futures.
  std::vector<JobReport> runBatch(const std::vector<VerificationJob>& jobs,
                                  RunTrace* trace = nullptr,
                                  RunJournal* journal = nullptr,
                                  const JournalReplay* replay = nullptr,
                                  const std::atomic<bool>* cancel = nullptr);

  unsigned threads() const noexcept { return pool_.size(); }
  /// Obligations submitted but not yet picked up by a worker (the
  /// queue-depth metric recorded in obligation_start events).
  std::size_t queuedObligations() const { return pool_.pendingTasks(); }

  /// The obligation cache, or nullptr when disabled.
  ObligationCache* cache() noexcept { return cache_.get(); }
  const ObligationCache* cache() const noexcept { return cache_.get(); }

  /// True once the embedder's cancel flag has been raised.
  bool cancelRequested() const noexcept {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

 private:
  /// Resolve a job's elaboration snapshot from the LRU memo, keyed by
  /// (engine mode, compose, canon, program text), so a warm server request
  /// — resubmitting a model it has seen — skips parse and elaboration
  /// entirely.  A miss submits a buildSnapshot task to the pool.  `reused`
  /// says whether the memo served it (snapshot_reuses metric), also when a
  /// job earlier in the same batch started the build.  The returned future
  /// is resolved by the runBatch caller *before* any obligation is
  /// submitted, so pool workers never block on it.
  std::shared_future<SnapshotResult> snapshotFor(const VerificationJob& job,
                                                 bool wantCanon, bool* reused);

  ThreadPool pool_;
  const std::atomic<bool>* cancel_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<ObligationCache> cache_;

  /// Snapshots the memo keeps.
  static constexpr std::size_t kSnapshotMemo = 16;
  std::mutex snapshotMutex_;
  /// LRU order, most recent first; values are keys of snapshotCache_.
  std::list<std::string> snapshotLru_;
  struct SnapshotSlot {
    std::shared_future<SnapshotResult> future;
    std::list<std::string>::iterator lruIt;
  };
  std::unordered_map<std::string, SnapshotSlot> snapshotCache_;
};

}  // namespace cmc::service
