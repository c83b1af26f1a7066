#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "comp/classify.hpp"
#include "comp/verifier.hpp"
#include "service/budget.hpp"
#include "symbolic/composition.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

namespace cmc::service {

namespace {

/// The cooperative cancellation sources an obligation polls: the
/// service-wide flag (SIGINT/SIGTERM wind-down of the whole embedder) and
/// the per-batch flag (one server request's CANCEL).  Either one aborts.
struct CancelFlags {
  const std::atomic<bool>* service = nullptr;
  const std::atomic<bool>* batch = nullptr;

  bool requested() const noexcept {
    return (service != nullptr &&
            service->load(std::memory_order_relaxed)) ||
           (batch != nullptr && batch->load(std::memory_order_relaxed));
  }
};

/// Pre-resolved metric instruments for the per-obligation hot path.  The
/// registry's get-or-create is a string-keyed map lookup under a mutex —
/// fine per batch, wasteful per obligation (an obligation touches up to
/// seven instruments; the AFS batch bench runs dozens per millisecond).
struct ObligationInstruments {
  explicit ObligationInstruments(MetricsRegistry& m)
      : dispatched(m.counter("obligations_dispatched")),
        completed(m.counter("obligations_completed")),
        sourceChecked(m.counter("obligations_checked")),
        sourceCache(m.counter("obligations_cache")),
        sourceJournal(m.counter("obligations_journal")),
        holds(m.counter("verdict_holds")),
        fails(m.counter("verdict_fails")),
        timeout(m.counter("verdict_timeout")),
        memoryOut(m.counter("verdict_memoryout")),
        inconclusive(m.counter("verdict_inconclusive")),
        cancelled(m.counter("verdict_cancelled")),
        error(m.counter("verdict_error")),
        elaborateSeconds(m.histogram("elaborate_seconds")),
        importSeconds(m.histogram("import_seconds")),
        fixpointSeconds(m.histogram("fixpoint_seconds")),
        obligationSeconds(m.histogram("obligation_seconds")) {}

  Counter& verdictCounter(Verdict v) const {
    switch (v) {
      case Verdict::Holds: return holds;
      case Verdict::Fails: return fails;
      case Verdict::Timeout: return timeout;
      case Verdict::MemoryOut: return memoryOut;
      case Verdict::Inconclusive: return inconclusive;
      case Verdict::Cancelled: return cancelled;
      case Verdict::Error: return error;
    }
    return error;
  }
  Counter& sourceCounter(const std::string& source) const {
    if (source == "cache") return sourceCache;
    if (source == "journal") return sourceJournal;
    return sourceChecked;
  }

  Counter& dispatched;
  Counter& completed;
  Counter& sourceChecked;
  Counter& sourceCache;
  Counter& sourceJournal;
  Counter& holds;
  Counter& fails;
  Counter& timeout;
  Counter& memoryOut;
  Counter& inconclusive;
  Counter& cancelled;
  Counter& error;
  LatencyHistogram& elaborateSeconds;
  LatencyHistogram& importSeconds;
  LatencyHistogram& fixpointSeconds;
  LatencyHistogram& obligationSeconds;
};

/// Everything a worker needs to run one obligation: the enumerated
/// identity (ObligationRef, shared with the cluster coordinator's scout)
/// plus the owning job.  Descriptors are copied into the pool task, so
/// only the job pointer must outlive the batch (the snapshot is kept
/// alive by the shared_ptr in every copy).
struct ObligationDesc : ObligationRef {
  const VerificationJob* job = nullptr;
  std::string jobName;
  /// The job's shared elaboration snapshot; null for factory jobs (their
  /// builder runs per attempt) — workers then rebuild from scratch.
  std::shared_ptr<const ElaborationSnapshot> snapshot;
};

std::vector<smv::ElaboratedModule> materialize(const VerificationJob& job,
                                               symbolic::Context& ctx) {
  std::vector<smv::ElaboratedModule> modules =
      job.factory ? job.factory(ctx) : smv::elaborateProgram(ctx, job.smvText);
  if (modules.empty()) {
    throw ModelError("job '" + job.name + "' has no modules");
  }
  return modules;
}

/// The concrete engine an attempt runs with: partitioned or monolithic.
/// EngineMode::Auto is a *policy* that resolves to one of the two.
const char* engineName(bool partitioned) {
  return partitioned ? "partitioned" : "monolithic";
}

std::string choiceJson(const symbolic::EngineChoice& c) {
  return JsonObject()
      .put("engine", engineName(c.usePartitioned))
      .putBool("probed", c.probed)
      .putBool("probe_aborted", c.probeAborted)
      .putUint("conjuncts", static_cast<std::uint64_t>(c.conjuncts))
      .putUint("partition_nodes", c.partitionNodes)
      .putUint("monolithic_nodes", c.monolithicNodes)
      .putUint("cap_nodes", c.capNodes)
      .put("reason", c.reason)
      .str();
}

Verdict cancelVerdict(symbolic::CancelReason reason) {
  switch (reason) {
    case symbolic::CancelReason::Deadline: return Verdict::Timeout;
    case symbolic::CancelReason::NodeBudget: return Verdict::MemoryOut;
    case symbolic::CancelReason::External: return Verdict::Cancelled;
  }
  return Verdict::Cancelled;
}

std::string ruleName(comp::PropertyClass cls) {
  switch (cls) {
    case comp::PropertyClass::Universal: return "universal (Rule 2)";
    case comp::PropertyClass::Existential: return "existential (Rules 1/3)";
    default: return "global fallback";
  }
}

/// Best-effort counterexample for a failing spec; the verdict is already
/// decided, so a budget expiry during trace search just drops the trace.
std::string extractCounterexample(symbolic::Checker& checker,
                                  const ctl::Spec& spec) {
  try {
    if (const auto trace = checker.counterexampleTrace(spec.r, spec.f)) {
      return *trace;
    }
    if (const auto witness = checker.violationWitness(spec.r, spec.f)) {
      return "violating state: " + *witness;
    }
  } catch (const symbolic::CancelledError&) {
  }
  return "";
}

struct AttemptOutput {
  AttemptRecord record;
  bool decided = false;  ///< verdict is Holds/Fails (not budget/error)
  bool partitioned = true;  ///< engine actually used
  /// EngineMode::Auto was resolved during this attempt (worker-side probe
  /// on the rebuild path); `choice` then carries the decision.
  bool autoResolved = false;
  symbolic::EngineChoice choice;
  std::string rule;
  std::string counterexample;
  std::string proofJson;
  std::string error;
};

/// One engine attempt.  With a snapshot (and `useSnapshot`), the worker
/// adopts the snapshot's variable layout into a context pre-sized from its
/// node counts and imports the BDDs it needs — a linear DAG copy in DFS
/// order, no rehashing mid-import.  Otherwise (factory jobs, quarantine
/// retries) it rebuilds from scratch as before.  `forcePartitioned` fixes
/// the engine (retries, non-Auto modes, snapshot-resolved Auto); when
/// absent the mode is Auto without a snapshot and the worker resolves it
/// here.
AttemptOutput runAttempt(const ObligationDesc& d,
                         std::optional<bool> forcePartitioned,
                         bool useSnapshot, const CancelFlags& cancel) {
  AttemptOutput out;
  const JobOptions& jopts = d.job->options;
  const ElaborationSnapshot* snap =
      useSnapshot ? d.snapshot.get() : nullptr;

  const bool engineKnown = forcePartitioned.has_value();
  bool partitioned = forcePartitioned.value_or(true);
  out.record.engine = engineKnown ? engineName(partitioned) : "auto";

  WallTimer timer;
  try {
    symbolic::Context ctx(
        snap != nullptr ? workerArenaCapacity(snap->liveNodes)
                        : std::size_t{1} << 14,
        snap != nullptr ? workerCacheCapacity(snap->liveNodes)
                        : std::size_t{1} << 14);
    bdd::Manager& mgr = ctx.mgr();

    std::vector<smv::ElaboratedModule> modules;
    std::size_t localIndex = d.moduleIndex;
    if (snap != nullptr) {
      // Snapshot path: Auto was resolved by the caller (runAttempts reads
      // the snapshot's probed choice), so `partitioned` is known and the
      // import copies exactly what the chosen engine needs.
      CMC_ASSERT(engineKnown);
      WallTimer importTimer;
      ctx.adoptVariablesFrom(*snap->ctx);
      bdd::Importer imp(mgr, snap->ctx->mgr());
      if (!d.composed) {
        modules.push_back(importModule(
            ctx, imp, snap->modules.at(d.moduleIndex),
            /*wantMonolithic=*/!partitioned));
        localIndex = 0;
      } else {
        modules.reserve(snap->modules.size());
        for (const smv::ElaboratedModule& mod : snap->modules) {
          // Composition operates on the partitions; component monolithics
          // are never needed.
          modules.push_back(importModule(ctx, imp, mod,
                                         /*wantMonolithic=*/false));
        }
      }
      out.record.importMs = importTimer.seconds() * 1000.0;
    } else {
      WallTimer elaborateTimer;
      modules = materialize(*d.job, ctx);
      out.record.elaborateMs = elaborateTimer.seconds() * 1000.0;
    }

    if (!engineKnown) {
      // Auto without a snapshot: probe on the freshly built system.  For
      // a composed obligation the product is exactly what we refuse to
      // build speculatively, so default to the engine that never
      // materializes it.
      if (!d.composed) {
        out.choice = symbolic::chooseEngine(modules.at(localIndex).sys);
      } else {
        out.choice.usePartitioned = true;
        out.choice.reason =
            "composed obligation without snapshot defaults to partitioned";
      }
      partitioned = out.choice.usePartitioned;
      out.autoResolved = true;
    }

    const ctl::Spec& spec = modules.at(localIndex).specs.at(d.specIndex);
    out.partitioned = partitioned;
    out.record.engine = engineName(partitioned);

    if (jopts.reorderBeforeCheck) mgr.reorderSift();

    BudgetToken token(mgr, jopts.limits);
    symbolic::CheckerOptions copts;
    copts.usePartitionedTrans = partitioned;
    copts.clusterThreshold = jopts.clusterThreshold;
    copts.cancelCheck = [&token, &cancel] {
      if (cancel.requested()) {
        throw symbolic::CancelledError(symbolic::CancelReason::External,
                                       "run interrupted");
      }
      token.check();
    };

    const std::uint64_t lookups0 = mgr.stats().cacheLookups;
    const std::uint64_t hits0 = mgr.stats().cacheHits;
    mgr.resetPeakNodes();

    WallTimer fixpointTimer;
    try {
      if (!d.composed) {
        out.rule = "direct";
        symbolic::Checker checker(modules.at(localIndex).sys, copts);
        const bool holds = checker.holds(spec);
        out.record.verdict = holds ? Verdict::Holds : Verdict::Fails;
        out.decided = true;
        if (!holds) out.counterexample = extractCounterexample(checker, spec);
      } else {
        const comp::PropertyClass cls = comp::classify(spec);
        out.rule = ruleName(cls);
        comp::CompositionalVerifier verifier(ctx, copts);
        for (const smv::ElaboratedModule& mod : modules) {
          symbolic::SymbolicSystem sys = mod.sys;
          symbolic::addReflexive(sys);
          verifier.addComponent(std::move(sys));
        }
        comp::ProofTree proof;
        bool ok = verifier.verify(spec, proof, /*allowGlobalFallback=*/true);
        if (!ok && cls != comp::PropertyClass::Unknown) {
          // The rules not establishing the spec is not a refutation (a
          // failing component premise says nothing about the composition);
          // decide with a direct check and record it in the certificate.
          symbolic::Checker direct(verifier.composed(), copts);
          ok = direct.holds(spec);
          proof.add(comp::ProofNode::Kind::ModelCheck,
                    "composed system |= " + ctl::toString(spec.f) +
                        "  (direct fallback)",
                    ok);
          out.rule += " + global fallback";
        }
        out.record.verdict = ok ? Verdict::Holds : Verdict::Fails;
        out.decided = true;
        out.proofJson = proof.toJson();
        if (!ok) {
          symbolic::Checker direct(verifier.composed(), copts);
          out.counterexample = extractCounterexample(direct, spec);
        }
      }
    } catch (const symbolic::CancelledError& e) {
      out.record.verdict = cancelVerdict(e.reason());
    }
    out.record.fixpointMs = fixpointTimer.seconds() * 1000.0;
    out.record.seconds = timer.seconds();
    out.record.peakLiveNodes = mgr.stats().peakNodes;
    const std::uint64_t lookups = mgr.stats().cacheLookups - lookups0;
    out.record.cacheHitRate =
        lookups == 0
            ? 0.0
            : static_cast<double>(mgr.stats().cacheHits - hits0) /
                  static_cast<double>(lookups);
  } catch (const std::exception& e) {
    out.record.verdict = Verdict::Error;
    out.error = e.what();
    out.record.seconds = timer.seconds();
  }
  return out;
}

/// The replay identity of an obligation descriptor (see journalKey).
std::string replayKeyFor(const ObligationDesc& d) {
  JournalEntry probe;
  probe.fingerprint = d.fingerprint;
  probe.job = d.jobName;
  probe.id = d.id;
  probe.specText = d.specText;
  return journalKey(probe);
}

JournalEntry journalEntryFor(const ObligationDesc& d,
                             const ObligationOutcome& out) {
  JournalEntry e;
  e.fingerprint = d.fingerprint;
  e.job = d.jobName;
  e.id = d.id;
  e.target = d.target;
  e.spec = d.specName;
  e.specText = d.specText;
  e.verdict = out.verdict;
  e.rule = out.rule;
  e.engine = out.attempts.empty() ? "" : out.attempts.back().engine;
  e.seconds = out.seconds;
  e.error = out.error;
  e.counterexample = out.counterexample;
  e.proofJson = out.proofJson;
  return e;
}

/// Serve a previously journaled decision (--resume); zero attempts.
bool serveFromJournal(const ObligationDesc& d, const JournalReplay* replay,
                      ObligationOutcome& out, RunTrace& trace) {
  if (replay == nullptr) return false;
  const JournalEntry* hit = replay->find(replayKeyFor(d));
  if (hit == nullptr) return false;
  out.verdict = hit->verdict;
  out.verdictSource = "journal";
  out.rule = hit->rule;
  out.counterexample = hit->counterexample;
  out.proofJson = hit->proofJson;
  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "journal_hit")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("verdict", toString(out.verdict))
                   .putDouble("original_seconds", hit->seconds));
  }
  return true;
}

/// Serve the obligation cache; zero attempts on a hit.
bool serveFromCache(const ObligationDesc& d, ObligationCache* cache,
                    ObligationOutcome& out, RunTrace& trace) {
  if (cache == nullptr || d.fingerprint.empty()) return false;
  WallTimer cacheTimer;
  const std::optional<CachedVerdict> hit = cache->lookup(d.fingerprint);
  if (!hit.has_value()) return false;
  out.verdict = hit->verdict;
  out.verdictSource = "cache";
  out.rule = hit->rule;
  out.counterexample = hit->counterexample;
  out.proofJson = hit->proofJson;
  out.seconds = cacheTimer.seconds();
  // Replayed verdicts stay attributable: the engine that decided the
  // cached entry is the replay's engine-choice record.
  if (!hit->engine.empty()) {
    out.engineChoiceJson = JsonObject()
                               .put("engine", hit->engine)
                               .put("reason", "cache replay of decided verdict")
                               .str();
  }
  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "cache_hit")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("fingerprint", d.fingerprint)
                   .put("verdict", toString(out.verdict))
                   .putDouble("original_seconds", hit->seconds));
  }
  return true;
}

/// Record how EngineMode::Auto resolved for this obligation — once, in
/// both the trace (engine_choice event) and the report.
void recordEngineChoice(const ObligationDesc& d,
                        const symbolic::EngineChoice& c,
                        ObligationOutcome& out, RunTrace& trace) {
  if (!out.engineChoiceJson.empty()) return;
  out.engineChoiceJson = choiceJson(c);
  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "engine_choice")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("engine", engineName(c.usePartitioned))
                   .putBool("probed", c.probed)
                   .putBool("probe_aborted", c.probeAborted)
                   .putUint("conjuncts",
                            static_cast<std::uint64_t>(c.conjuncts))
                   .putUint("partition_nodes", c.partitionNodes)
                   .putUint("monolithic_nodes", c.monolithicNodes)
                   .putUint("cap_nodes", c.capNodes)
                   .put("reason", c.reason));
  }
}

/// Fold one finished attempt into the outcome: record, accumulated
/// seconds, rule, metric observations, and the "attempt" trace event.
void noteAttempt(const ObligationDesc& d, const AttemptOutput& a,
                 int attemptNo, ObligationOutcome& out, RunTrace& trace,
                 const ObligationInstruments* ins) {
  out.attempts.push_back(a.record);
  out.seconds += a.record.seconds;
  if (!a.rule.empty()) out.rule = a.rule;
  if (ins != nullptr) {
    if (a.record.elaborateMs > 0.0) {
      ins->elaborateSeconds.observe(a.record.elaborateMs / 1000.0);
    }
    if (a.record.importMs > 0.0) {
      ins->importSeconds.observe(a.record.importMs / 1000.0);
    }
    ins->fixpointSeconds.observe(a.record.fixpointMs / 1000.0);
  }
  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "attempt")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .putUint("attempt", static_cast<std::uint64_t>(attemptNo))
                   .put("engine", a.record.engine)
                   .put("verdict", toString(a.record.verdict))
                   .putDouble("seconds", a.record.seconds)
                   .putDouble("elaborate_ms", a.record.elaborateMs)
                   .putDouble("import_ms", a.record.importMs)
                   .putDouble("fixpoint_ms", a.record.fixpointMs)
                   .putUint("peak_live_nodes", a.record.peakLiveNodes)
                   .putDouble("cache_hit_rate", a.record.cacheHitRate));
  }
}

/// Memoize a decided verdict; budget verdicts and errors are never
/// inserted (they say nothing about ⊨_r and must be re-attempted).
void cacheDecided(const ObligationDesc& d, const AttemptOutput& a,
                  ObligationOutcome& out, ObligationCache* cache) {
  if (cache == nullptr || d.fingerprint.empty() ||
      !ObligationCache::cacheable(out.verdict)) {
    return;
  }
  CachedVerdict entry;
  entry.verdict = out.verdict;
  entry.rule = out.rule;
  entry.engine = a.record.engine;
  entry.seconds = a.record.seconds;
  entry.counterexample = out.counterexample;
  entry.proofJson = out.proofJson;
  if (cache->insert(d.fingerprint, entry)) out.cacheInserted = true;
}

/// The attempt loop: engine degradation on budget exhaustion, quarantine
/// on an unexpected exception (one retry rebuilt from scratch, then Error).
void runAttempts(const ObligationDesc& d, ObligationOutcome& out,
                 RunTrace& trace, ObligationCache* cache,
                 const CancelFlags& cancel,
                 const ObligationInstruments* ins) {
  const JobOptions& jopts = d.job->options;
  // First-attempt engine: fixed modes are forced outright; Auto resolves
  // from the snapshot's probed choice when there is one, otherwise the
  // first attempt resolves it worker-side.
  std::optional<bool> partitioned;
  if (jopts.engine == symbolic::EngineMode::Partitioned) {
    partitioned = true;
  } else if (jopts.engine == symbolic::EngineMode::Monolithic) {
    partitioned = false;
  } else if (d.snapshot != nullptr) {
    const symbolic::EngineChoice& c =
        d.composed ? d.snapshot->composedChoice
                   : d.snapshot->moduleChoice.at(d.moduleIndex);
    partitioned = c.usePartitioned;
    recordEngineChoice(d, c, out, trace);
  }
  const int maxBudgetAttempts = jopts.retryOtherEngine ? 2 : 1;
  int budgetAttempts = 0;  ///< attempts that ended in a budget verdict
  bool quarantined = false;
  int attemptNo = 0;
  while (true) {
    ++attemptNo;
    // The quarantine retry deliberately bypasses the snapshot: a full
    // rebuild from the program text rules out a poisoned import just as
    // the fresh Context rules out a poisoned manager.
    const AttemptOutput a = runAttempt(d, partitioned, !quarantined, cancel);
    if (a.autoResolved) {
      partitioned = a.partitioned;
      recordEngineChoice(d, a.choice, out, trace);
    }
    noteAttempt(d, a, attemptNo, out, trace, ins);
    if (a.record.verdict == Verdict::Error) {
      // Quarantine: one more try rebuilt from scratch (fresh Context, no
      // snapshot import, so a transient poisoning — a torn model file, an
      // injected fault, a bad allocation — gets a clean slate).
      if (!quarantined) {
        quarantined = true;
        if (trace.enabled()) {
          trace.emit(JsonObject()
                         .put("event", "quarantine")
                         .putDouble("t", trace.elapsedSeconds())
                         .put("job", d.jobName)
                         .put("obligation", d.id)
                         .put("engine", a.record.engine)
                         .put("error", a.error));
        }
        continue;
      }
      out.verdict = Verdict::Error;
      out.error = a.error;
      return;
    }
    if (a.record.verdict == Verdict::Cancelled) {
      // The run is winding down; no retry is meaningful.
      out.verdict = Verdict::Cancelled;
      return;
    }
    if (a.decided) {
      out.verdict = a.record.verdict;
      out.counterexample = a.counterexample;
      out.proofJson = a.proofJson;
      cacheDecided(d, a, out, cache);
      return;
    }
    // Budget exhausted: degrade to the other engine, once.
    ++budgetAttempts;
    if (budgetAttempts < maxBudgetAttempts) {
      CMC_FAILPOINT("scheduler.retry");
      out.retried = true;
      if (trace.enabled()) {
        trace.emit(JsonObject()
                       .put("event", "retry")
                       .putDouble("t", trace.elapsedSeconds())
                       .put("job", d.jobName)
                       .put("obligation", d.id)
                       .put("reason", toString(a.record.verdict))
                       .put("from_engine", engineName(a.partitioned))
                       .put("to_engine", engineName(!a.partitioned)));
      }
      partitioned = !a.partitioned;
      continue;
    }
    // Both engines exhausted their budget (or retry is disabled, in
    // which case the single attempt's Timeout/MemoryOut stands).
    out.verdict =
        budgetAttempts > 1 ? Verdict::Inconclusive : a.record.verdict;
    return;
  }
}

ObligationOutcome runObligation(const ObligationDesc& d, RunTrace& trace,
                                ThreadPool& pool, ObligationCache* cache,
                                RunJournal* journal,
                                const JournalReplay* replay,
                                const CancelFlags& cancel,
                                const ObligationInstruments* ins) {
  ObligationOutcome out;
  out.id = d.id;
  out.target = d.target;
  out.spec = d.specName;
  out.specText = d.specText;
  out.fingerprint = d.fingerprint;
  WallTimer dispatchTimer;
  if (ins != nullptr) ins->dispatched.inc();

  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "obligation_start")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("target", d.target)
                   .put("spec", d.specName)
                   .put("engine", symbolic::toString(d.job->options.engine))
                   .putBool("snapshot", d.snapshot != nullptr)
                   .putUint("queue_depth", pool.pendingTasks()));
  }

  // The whole decision path is guarded: whatever a poisoned obligation
  // throws (including from the dispatch failpoint below), its siblings on
  // the pool are untouched and the batch completes.
  try {
    CMC_FAILPOINT("scheduler.dispatch");
    if (cancel.requested()) {
      // Drain mode: the run is being interrupted — report the queued
      // obligation as Cancelled without spending an attempt on it.
      out.verdict = Verdict::Cancelled;
    } else if (!serveFromJournal(d, replay, out, trace) &&
               !serveFromCache(d, cache, out, trace)) {
      runAttempts(d, out, trace, cache, cancel, ins);
    } else if (out.verdict == Verdict::Fails &&
               out.counterexample.empty()) {
      // A replayed Fails stored no counterexample (trace search is
      // best-effort; older cache/journal entries may predate it).  The
      // replay is still the verdict — but a consumer that asked for traces
      // must not silently get none: say so explicitly, or re-check on
      // demand under --trace-force.
      if (d.job->options.traceForce) {
        if (trace.enabled()) {
          trace.emit(JsonObject()
                         .put("event", "trace_forced_recheck")
                         .putDouble("t", trace.elapsedSeconds())
                         .put("job", d.jobName)
                         .put("obligation", d.id)
                         .put("verdict_source", out.verdictSource));
        }
        ObligationOutcome fresh;
        fresh.id = d.id;
        fresh.target = d.target;
        fresh.spec = d.specName;
        fresh.specText = d.specText;
        fresh.fingerprint = d.fingerprint;
        out = std::move(fresh);
        runAttempts(d, out, trace, cache, cancel, ins);
      } else if (trace.enabled()) {
        trace.emit(JsonObject()
                       .put("event", "trace_unavailable")
                       .putDouble("t", trace.elapsedSeconds())
                       .put("job", d.jobName)
                       .put("obligation", d.id)
                       .put("verdict_source", out.verdictSource)
                       .put("reason",
                            "replayed verdict stored no counterexample"));
      }
    }
  } catch (const std::exception& e) {
    out.verdict = Verdict::Error;
    out.error = e.what();
  } catch (...) {
    out.verdict = Verdict::Error;
    out.error = "unknown exception";
  }

  if (ins != nullptr) {
    ins->completed.inc();
    ins->sourceCounter(out.verdictSource).inc();
    ins->verdictCounter(out.verdict).inc();
    ins->obligationSeconds.observe(dispatchTimer.seconds());
  }

  // Journal the outcome the moment it is final (append + flush inside);
  // replayed outcomes are already in the journal being resumed.
  if (journal != nullptr && out.verdictSource != "journal") {
    journal->record(journalEntryFor(d, out));
  }

  std::uint64_t peak = 0;
  for (const AttemptRecord& a : out.attempts) {
    peak = std::max(peak, a.peakLiveNodes);
  }
  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "obligation_end")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("verdict", toString(out.verdict))
                   .put("verdict_source", out.verdictSource)
                   .put("rule", out.rule)
                   .putBool("retried", out.retried)
                   .putUint("attempts",
                            static_cast<std::uint64_t>(out.attempts.size()))
                   .putDouble("seconds", out.seconds)
                   .putUint("peak_live_nodes", peak)
                   .putDouble("cache_hit_rate", out.attempts.empty()
                                                    ? 0.0
                                                    : out.attempts.back()
                                                          .cacheHitRate));
  }
  return out;
}

}  // namespace

JobReport VerificationService::run(const VerificationJob& job,
                                   RunTrace* trace, RunJournal* journal,
                                   const JournalReplay* replay,
                                   const std::atomic<bool>* cancel) {
  const std::vector<VerificationJob> one{job};
  return runBatch(one, trace, journal, replay, cancel).front();
}

std::shared_future<SnapshotResult> VerificationService::snapshotFor(
    const VerificationJob& job, bool wantCanon) {
  // Factory jobs are not memoizable (the builder must run per call — and
  // tests rely on its call count); their snapshot is also only used for
  // obligation enumeration, never shared with workers.
  if (!job.factory && snapshotCapacity_ > 0) {
    // The snapshot's content depends on the engine mode (Auto probes and
    // records choices), compose (composed probe), and whether canonical
    // serializations were requested — all of it goes into the key.
    const std::string key = std::string(symbolic::toString(job.options.engine))
                                .append(job.options.compose ? "|C|" : "|D|")
                                .append(wantCanon ? "F|" : "N|")
                                .append(job.smvText);
    std::lock_guard<std::mutex> lock(snapshotMutex_);
    auto it = snapshotCache_.find(key);
    if (it != snapshotCache_.end()) {
      // A memoized *failure* is not served: erase it so a resubmission
      // gets a fresh build (the failure may have been transient).
      const std::shared_future<SnapshotResult>& fut = it->second.future;
      const bool failed =
          fut.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready &&
          fut.get().snapshot == nullptr;
      if (!failed) {
        snapshotLru_.splice(snapshotLru_.begin(), snapshotLru_,
                            it->second.lruIt);
        if (metrics_ != nullptr) metrics_->counter("snapshot_reuses").inc();
        return fut;
      }
      snapshotLru_.erase(it->second.lruIt);
      snapshotCache_.erase(it);
    }
    if (metrics_ != nullptr) metrics_->counter("snapshot_builds").inc();
    std::shared_future<SnapshotResult> fut =
        pool_.submit([job, wantCanon] { return buildSnapshot(job, wantCanon); })
            .share();
    snapshotLru_.push_front(key);
    SnapshotSlot slot;
    slot.future = fut;
    slot.lruIt = snapshotLru_.begin();
    snapshotCache_.emplace(key, std::move(slot));
    while (snapshotCache_.size() > snapshotCapacity_) {
      snapshotCache_.erase(snapshotLru_.back());
      snapshotLru_.pop_back();
    }
    return fut;
  }
  if (metrics_ != nullptr) metrics_->counter("snapshot_builds").inc();
  return pool_
      .submit([job, wantCanon] { return buildSnapshot(job, wantCanon); })
      .share();
}

std::vector<JobReport> VerificationService::runBatch(
    const std::vector<VerificationJob>& jobs, RunTrace* trace,
    RunJournal* journal, const JournalReplay* replay,
    const std::atomic<bool>* cancel) {
  // No caller-provided trace → drop events instead of buffering them for
  // nobody; the per-event JSON serialization is measurable against small
  // obligations (the AFS batch bench runs tens of them per millisecond).
  RunTrace localTrace{RunTrace::Disabled{}};
  RunTrace& tr = trace != nullptr ? *trace : localTrace;
  const CancelFlags flags{cancel_, cancel};
  // Resolve every per-obligation instrument once for the whole batch.
  std::optional<ObligationInstruments> instruments;
  if (metrics_ != nullptr) instruments.emplace(*metrics_);
  const ObligationInstruments* ins =
      instruments.has_value() ? &*instruments : nullptr;
  const bool wantCanon =
      cache_ != nullptr || journal != nullptr || replay != nullptr;

  struct JobState {
    WallTimer timer;
    std::shared_future<SnapshotResult> snapFuture;
    std::shared_ptr<const ElaborationSnapshot> snapshot;
    std::string scoutError;
    std::vector<ObligationDesc> descs;
    std::vector<std::future<ObligationOutcome>> futures;
    /// Countdown latch: the caller sleeps on `done` once per job instead
    /// of once per obligation future.  Harvesting futures in submission
    /// order wakes the caller on every set_value — a fresh sleeper
    /// preempts the worker, so on few cores that is two context switches
    /// per obligation for no progress.
    std::shared_ptr<std::atomic<std::size_t>> remaining;
    std::shared_ptr<std::promise<void>> donePromise;
    std::future<void> done;
  };
  std::vector<JobState> states(jobs.size());

  // Scout phase, now parallel: every job's elaboration snapshot is a pool
  // task (or a memo hit from a previous batch — the server's warm path).
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    states[k].snapFuture = snapshotFor(jobs[k], wantCanon);
  }

  // Enumerate and submit per job as its snapshot lands.  Obligations are
  // submitted the moment their job's snapshot resolves, so job k's workers
  // run while job k+1's snapshot is still elaborating — and because every
  // snapshot future is resolved *here*, on the caller's thread, pool
  // workers themselves never block on one (no pool-starvation deadlock).
  //
  // Jobs that share a snapshot and the verdict-relevant options (repeated
  // batch entries — the warm server path, the AFS bench) produce identical
  // obligation lists up to the owning job: enumerate once per
  // (snapshot, options) and copy, instead of re-rendering every spec and
  // re-hashing every fingerprint per job.
  std::map<std::pair<const void*, std::uint64_t>,
           std::vector<ObligationDesc>> descMemo;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const VerificationJob& job = jobs[k];
    JobState& state = states[k];
    const SnapshotResult sr = state.snapFuture.get();
    if (sr.snapshot == nullptr) {
      state.scoutError = sr.error;
    } else {
      state.snapshot = sr.snapshot;
      const ElaborationSnapshot& snap = *sr.snapshot;
      // Workers share the snapshot's BDDs for text jobs only: a factory
      // job's builder is the model's source of truth and runs per attempt.
      const std::shared_ptr<const ElaborationSnapshot> shared =
          job.factory ? nullptr : state.snapshot;
      // Everything obligationFingerprint hashes beyond the snapshot
      // (engine is part of the snapshot memo key already).
      const std::uint64_t optBits =
          (static_cast<std::uint64_t>(job.options.clusterThreshold) << 2) |
          (static_cast<std::uint64_t>(job.options.compose) << 1) |
          static_cast<std::uint64_t>(job.options.reorderBeforeCheck);
      std::vector<ObligationDesc>& descs =
          descMemo[{static_cast<const void*>(&snap), optBits}];
      if (descs.empty()) {
        for (ObligationRef& ref : enumerateObligations(snap, job.options)) {
          ObligationDesc d;
          static_cast<ObligationRef&>(d) = std::move(ref);
          descs.push_back(std::move(d));
        }
      }
      state.descs = descs;
      // A single-obligation job (cluster shards run them for the
      // coordinator) filters AFTER enumeration: the full, deterministic
      // enumeration is what makes ids and fingerprints agree across the
      // fleet.  The memo keeps the unfiltered list — `only` prunes this
      // job's private copy.
      if (!job.only.empty()) {
        std::erase_if(state.descs, [&job](const ObligationDesc& d) {
          return d.id != job.only;
        });
        if (state.descs.empty()) {
          state.scoutError =
              "job '" + job.name + "' has no obligation '" + job.only + "'";
        }
      }
      for (ObligationDesc& d : state.descs) {
        d.job = &job;
        d.jobName = job.name;
        d.snapshot = shared;
      }
      if (tr.enabled()) {
        tr.emit(JsonObject()
                    .put("event", "snapshot")
                    .putDouble("t", tr.elapsedSeconds())
                    .put("job", job.name)
                    .putBool("shared", shared != nullptr)
                    .putDouble("elaborate_ms", snap.elaborateSeconds * 1000.0)
                    .putUint("live_nodes", snap.liveNodes)
                    .putUint("modules",
                             static_cast<std::uint64_t>(snap.modules.size())));
      }
    }
    if (tr.enabled()) {
      tr.emit(JsonObject()
                  .put("event", "job_start")
                  .putDouble("t", tr.elapsedSeconds())
                  .put("job", job.name)
                  .put("cmc_version", util::versionString())
                  .put("source", job.sourcePath)
                  .putUint("obligations",
                           static_cast<std::uint64_t>(state.descs.size()))
                  .putUint("workers", threads()));
    }
    if (!state.descs.empty()) {
      state.remaining =
          std::make_shared<std::atomic<std::size_t>>(state.descs.size());
      state.donePromise = std::make_shared<std::promise<void>>();
      state.done = state.donePromise->get_future();
    }
    for (const ObligationDesc& d : state.descs) {
      auto remaining = state.remaining;
      auto donePromise = state.donePromise;
      state.futures.push_back(pool_.submit([d, &tr, journal, replay, flags,
                                            remaining, donePromise, ins,
                                            this] {
        // Last line of defence: runObligation already guards its decision
        // path, but nothing that reaches the pool may ever rethrow through
        // future.get() — one poisoned obligation must not lose its
        // siblings' outcomes.
        ObligationOutcome out;
        try {
          out = runObligation(d, tr, pool_, cache_.get(), journal, replay,
                              flags, ins);
        } catch (const std::exception& e) {
          out.id = d.id;
          out.target = d.target;
          out.spec = d.specName;
          out.specText = d.specText;
          out.fingerprint = d.fingerprint;
          out.verdict = Verdict::Error;
          out.error = e.what();
        }
        if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
          donePromise->set_value();
        }
        return out;
      }));
    }
  }

  std::vector<JobReport> reports;
  reports.reserve(jobs.size());
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const VerificationJob& job = jobs[k];
    JobState& state = states[k];
    JobReport report;
    report.job = job.name;
    report.source = job.sourcePath;
    report.options = job.options;
    if (!state.scoutError.empty()) {
      ObligationOutcome bad;
      bad.id = job.name + "/<elaboration>";
      bad.target = job.name;
      bad.verdict = Verdict::Error;
      bad.error = state.scoutError;
      report.obligations.push_back(std::move(bad));
      report.verdict = Verdict::Error;
    }
    // One sleep per job: after the latch fires every future below is
    // settled (the last one may still be mid-set_value; its get() then
    // blocks only for that sliver).
    if (state.done.valid()) state.done.wait();
    for (std::future<ObligationOutcome>& f : state.futures) {
      report.obligations.push_back(f.get());
      const ObligationOutcome& o = report.obligations.back();
      report.verdict = worseVerdict(report.verdict, o.verdict);
      if (o.verdictSource == "journal") ++report.journalHits;
      if (!o.fingerprint.empty() && o.verdictSource != "journal") {
        if (o.verdictSource == "cache") ++report.cacheHits;
        else ++report.cacheMisses;
        if (o.cacheInserted) ++report.cacheInserts;
      }
    }
    report.wallSeconds = state.timer.seconds();
    if (tr.enabled()) {
      tr.emit(JsonObject()
                  .put("event", "job_end")
                  .putDouble("t", tr.elapsedSeconds())
                  .put("job", job.name)
                  .put("verdict", toString(report.verdict))
                  .putDouble("wall_seconds", report.wallSeconds)
                  .putUint("obligations",
                           static_cast<std::uint64_t>(
                               report.obligations.size()))
                  .putUint("cache_hits", report.cacheHits)
                  .putUint("cache_misses", report.cacheMisses)
                  .putUint("cache_inserts", report.cacheInserts)
                  .putUint("journal_hits", report.journalHits));
    }
    reports.push_back(std::move(report));
  }
  if (cache_ != nullptr) {
    // Service-lifetime cache counters (all batches so far), for operators
    // tailing the trace.
    const ObligationCacheStats cs = cache_->stats();
    if (tr.enabled()) {
      tr.emit(JsonObject()
                  .put("event", "cache_stats")
                  .putDouble("t", tr.elapsedSeconds())
                  .putUint("hits", cs.hits)
                  .putUint("misses", cs.misses)
                  .putUint("inserts", cs.inserts)
                  .putUint("evictions", cs.evictions)
                  .putUint("loaded", cs.loaded)
                  .putUint("corrupt_lines", cs.corruptLines)
                  .putUint("entries", cache_->size()));
    }
  }
  return reports;
}

}  // namespace cmc::service
