#include "service/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <thread>
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
        setupSeconds(m.histogram("setup_seconds")),
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
  LatencyHistogram& setupSeconds;
  LatencyHistogram& fixpointSeconds;
  LatencyHistogram& obligationSeconds;
};

/// A worker's BDD context for one obligation target, with the modules
/// imported or rebuilt into it and what the checks were built on: for a
/// component target the module's checker (schedules, cone projections,
/// fair region), for a composed target the verifier — reflexive-closed
/// components, their premise checkers, and the composition (the
/// snapshot's, imported, or composed on first use) with its checker.
/// `ctx` is declared first, so every handle below it dies before the
/// manager that owns it.
struct WorkerContext {
  WorkerContext(std::size_t arenaCapacity, std::size_t opCacheCapacity)
      : ctx(arenaCapacity, opCacheCapacity) {}

  symbolic::Context ctx;
  std::vector<smv::ElaboratedModule> modules;
  std::optional<symbolic::KeptChecker> component;
  std::optional<comp::CompositionalVerifier> verifier;
};

/// The worker contexts one job keeps between its obligations.  A worker
/// that decided an obligation keeps its context and runs its next
/// obligation of the same (target, engine) on it — warm — instead of
/// sizing, zeroing and importing a fresh manager.  Slots are thread-affine:
/// a worker only takes back a context it built itself, and holds at most
/// one at a time, whatever its job.  A kept context is destroyed when its
/// worker's next attempt cannot use it, when its target has nothing left
/// to dispatch, and at job end (clear).
class WarmContexts : public std::enable_shared_from_this<WarmContexts> {
 public:
  struct Key {
    std::size_t target = 0;  ///< ObligationDesc::warmTarget()
    bool partitioned = true;
    bool operator==(const Key&) const = default;
  };

  explicit WarmContexts(std::vector<std::size_t> obligationsPerTarget)
      : undispatched_(std::move(obligationsPerTarget)) {}

  /// A worker picked up an obligation of `target`.
  void dispatched(std::size_t target) {
    std::lock_guard<std::mutex> lock(mutex_);
    --undispatched_.at(target);
  }

  /// The calling thread's kept context if `job` kept it under `key`, else
  /// null.  Any other context the thread kept — under another key, for
  /// another job, or any when `job` is null — is destroyed, so a worker
  /// never holds one context while it builds another.
  static std::unique_ptr<WorkerContext> take(WarmContexts* job,
                                             const Key& key) {
    const std::shared_ptr<WarmContexts> holder = keeper().lock();
    keeper().reset();
    if (holder == nullptr) return nullptr;
    Slot slot = holder->release();
    if (holder.get() != job || !(slot.key == key)) return nullptr;
    return std::move(slot.context);
  }

  /// Keep `context` for the calling thread's next obligation, unless its
  /// target has nothing left to dispatch; then it is destroyed.  The
  /// thread's take() before the attempt left it holding nothing.
  void keep(const Key& key, std::unique_ptr<WorkerContext> context) {
    std::unique_ptr<WorkerContext> drained;  // outlives the lock
    std::lock_guard<std::mutex> lock(mutex_);
    CMC_ASSERT(slotOfThisThread() == slots_.end());
    if (undispatched_.at(key.target) == 0) {
      drained = std::move(context);
      return;
    }
    slots_.push_back(Slot{std::this_thread::get_id(), key, std::move(context)});
    keeper() = weak_from_this();
  }

  /// Destroy every kept context (job end).
  void clear() {
    std::vector<Slot> slots;  // outlives the lock
    std::lock_guard<std::mutex> lock(mutex_);
    slots.swap(slots_);
  }

 private:
  struct Slot {
    std::thread::id thread;
    Key key;
    std::unique_ptr<WorkerContext> context;
  };

  /// The job holding the calling thread's kept context, if any.
  static std::weak_ptr<WarmContexts>& keeper() {
    thread_local std::weak_ptr<WarmContexts> holder;
    return holder;
  }

  /// Remove the calling thread's slot (empty when clear() already ran).
  Slot release() {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slotOfThisThread();
    if (it == slots_.end()) return Slot{};
    Slot slot = std::move(*it);
    slots_.erase(it);
    return slot;
  }

  std::vector<Slot>::iterator slotOfThisThread() {
    return std::find_if(slots_.begin(), slots_.end(), [](const Slot& s) {
      return s.thread == std::this_thread::get_id();
    });
  }

  std::mutex mutex_;
  std::vector<std::size_t> undispatched_;  ///< per target
  std::vector<Slot> slots_;
};

/// Everything a worker needs to run one obligation: the enumerated
/// identity (ObligationRef, shared with the cluster coordinator's scout)
/// plus the owning job.  Descriptors are copied into the pool task, so
/// only the job pointer must outlive the batch (the snapshot is kept
/// alive by the shared_ptr in every copy).
struct ObligationDesc : ObligationRef {
  const VerificationJob* job = nullptr;
  std::string jobName;
  /// The job's elaboration snapshot: its engine choices and the BDDs its
  /// attempts import.
  std::shared_ptr<const ElaborationSnapshot> snapshot;
  /// The job's kept worker contexts; null when no attempt of the job may
  /// run warm (reorder jobs).
  std::shared_ptr<WarmContexts> warm;

  /// This obligation's WarmContexts target: 0 for the composition,
  /// 1 + the module index for a component.
  std::size_t warmTarget() const { return composed ? 0 : moduleIndex + 1; }
};

/// The concrete engine an attempt runs with: partitioned or monolithic.
/// EngineMode::Auto is a *policy* that resolves to one of the two.
const char* engineName(bool partitioned) {
  return partitioned ? "partitioned" : "monolithic";
}

/// Write `c`'s fields into `obj`: the report's engine_choice and the
/// "engine_choice" trace event carry the same ones, and leave out the sizes
/// nothing measured.
JsonObject& putChoiceFields(JsonObject& obj, const symbolic::EngineChoice& c) {
  const auto putSize = [&obj](const char* key,
                              std::optional<std::uint64_t> value) {
    if (value.has_value()) obj.putUint(key, *value);
  };
  obj.put("engine", engineName(c.usePartitioned))
      .putBool("probed", c.probed)
      .putBool("probe_aborted", c.probeAborted);
  putSize("conjuncts", c.conjuncts);
  putSize("partition_nodes", c.partitionNodes);
  putSize("monolithic_nodes", c.monolithicNodes);
  putSize("cap_nodes", c.capNodes);
  return obj.put("reason", c.reason);
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

struct AttemptOutput {
  AttemptRecord record;
  bool decided = false;  ///< verdict is Holds/Fails (not budget/error)
  bool partitioned = true;  ///< engine actually used
  std::string rule;
  std::string counterexample;
  std::string proofJson;
  std::string error;
};

/// One engine attempt on the engine `partitioned` names: the caller has
/// resolved Auto from the snapshot's choice before the first attempt.
/// With `useSnapshot`, the worker runs warm on the context it kept from its
/// previous decided obligation of the same target and engine
/// (WarmContexts), or else adopts the snapshot's variable layout into a
/// context pre-sized from the nodes it imports (contextNodes) and imports
/// the BDDs it needs — a linear DAG copy in DFS order, no rehashing
/// mid-import; a composed obligation also imports the snapshot's
/// composition when the snapshot built one (some composed spec is outside
/// Rules 1-3).  Otherwise (a quarantine retry) it rebuilds from the
/// program text.  A composed attempt's verifier composes on first use
/// only, for a global check or a counterexample.  A warm attempt also
/// keeps the context's component checker or composed verifier, so it
/// builds no closure, composition or checker; only the cancel hook is its
/// own.
AttemptOutput runAttempt(const ObligationDesc& d, bool partitioned,
                         bool useSnapshot, const CancelFlags& cancel) {
  AttemptOutput out;
  const JobOptions& jopts = d.job->options;
  const ElaborationSnapshot* snap = useSnapshot ? d.snapshot.get() : nullptr;
  out.partitioned = partitioned;
  out.record.engine = engineName(partitioned);
  // Only snapshot-backed attempts hand contexts on.
  WarmContexts* warm = snap != nullptr ? d.warm.get() : nullptr;
  const WarmContexts::Key key{d.warmTarget(), partitioned};

  WallTimer timer;
  std::unique_ptr<WorkerContext> wc;
  try {
    // The snapshot's composition, imported for a fresh composed context.
    std::optional<symbolic::SymbolicSystem> composed;
    wc = WarmContexts::take(warm, key);
    out.record.warm = wc != nullptr;
    if (wc != nullptr) {
      // A warm arena never grows past the capacity a fresh attempt gets:
      // collect once the live count (earlier attempts' garbage included)
      // is within an eighth of it.
      bdd::Manager& mgr = wc->ctx.mgr();
      const std::size_t capacity =
          workerArenaCapacity(contextNodes(*snap, d));
      if (mgr.liveNodeCount() >= capacity - capacity / 8) {
        mgr.collectGarbage();
      }
    } else if (snap != nullptr) {
      // The engine is known, so the import copies exactly what it needs.
      WallTimer importTimer;
      const std::uint64_t nodes = contextNodes(*snap, d);
      wc = std::make_unique<WorkerContext>(workerArenaCapacity(nodes),
                                           workerCacheCapacity(nodes));
      wc->ctx.adoptVariablesFrom(*snap->ctx);
      bdd::Importer imp(wc->ctx.mgr(), snap->ctx->mgr());
      if (!d.composed) {
        wc->modules.push_back(importModule(
            wc->ctx, imp, snap->modules.at(d.moduleIndex),
            /*wantMonolithic=*/!partitioned));
      } else {
        wc->modules.reserve(snap->modules.size());
        for (const smv::ElaboratedModule& mod : snap->modules) {
          // The expansions operate on the partitions; component
          // monolithics are never needed.
          wc->modules.push_back(importModule(wc->ctx, imp, mod,
                                             /*wantMonolithic=*/false));
        }
        // The job's composition, built once in the snapshot when a spec
        // needs it; its conjuncts share the modules' imported nodes through
        // `imp`.
        if (snap->composed.has_value()) {
          composed = symbolic::importSystem(
              wc->ctx, imp, *snap->composed, /*wantMonolithic=*/!partitioned);
        }
      }
      out.record.importMs = importTimer.seconds() * 1000.0;
    } else {
      wc = std::make_unique<WorkerContext>(std::size_t{1} << 14,
                                           std::size_t{1} << 14);
      WallTimer elaborateTimer;
      wc->modules = smv::elaborateProgram(wc->ctx, d.job->smvText);
      out.record.elaborateMs = elaborateTimer.seconds() * 1000.0;
    }
    symbolic::Context& ctx = wc->ctx;
    bdd::Manager& mgr = ctx.mgr();
    const std::vector<smv::ElaboratedModule>& modules = wc->modules;
    // A snapshot import of a component obligation holds just its module.
    const std::size_t localIndex =
        snap != nullptr && !d.composed ? 0 : d.moduleIndex;

    const ctl::Spec& spec = modules.at(localIndex).specs.at(d.specIndex);

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

    // Setup (closures, composition, checker construction) is timed apart
    // from the checks; the verifier counts what it builds on demand.
    WallTimer checkTimer;
    double setupSeconds = 0.0;
    double verifierSetup0 = 0.0;
    // The checkers' running totals when the checks began: the component
    // checker's, or those of every checker the verifier keeps.
    const symbolic::Checker* checked = nullptr;
    std::uint64_t preimages0 = 0;
    std::uint64_t conePreimages0 = 0;
    try {
      if (!d.composed) {
        out.rule = "direct";
        // The module's checker is kept with the context, its hook rebound
        // to this attempt.  It keeps what a fresh attempt builds before its
        // first preimage — the import, the cone schedules, and the fair
        // region and INIT states every spec of the module shares — and
        // drops the relation a counterexample search materializes.
        if (!wc->component.has_value()) {
          wc->component.emplace(modules.at(localIndex).sys);
        }
        symbolic::KeptChecker& kept = *wc->component;
        kept.setOptions(copts);
        const bool builds = !kept.built();
        symbolic::Checker& checker = kept.checker();
        if (builds) setupSeconds = checkTimer.seconds();
        checked = &checker;
        preimages0 = checker.preimageCount();
        conePreimages0 = checker.conePreimageCount();
        const bool holds = checker.holds(spec);
        out.record.verdict = holds ? Verdict::Holds : Verdict::Fails;
        out.decided = true;
        if (!holds) out.counterexample = kept.counterexample(spec);
      } else {
        const comp::PropertyClass cls = comp::classify(spec);
        out.rule = ruleName(cls);
        if (!wc->verifier.has_value()) {
          comp::CompositionalVerifier& fresh = wc->verifier.emplace(ctx);
          for (const smv::ElaboratedModule& mod : modules) {
            symbolic::SymbolicSystem sys = mod.sys;
            symbolic::addReflexive(sys);
            fresh.addComponent(std::move(sys));
          }
          // Without a snapshot the verifier composes on first use.
          if (composed.has_value()) fresh.adoptComposed(std::move(*composed));
          setupSeconds = checkTimer.seconds();
        }
        comp::CompositionalVerifier& verifier = *wc->verifier;
        verifierSetup0 = verifier.setupSeconds();
        // The kept checkers poll this attempt's budget and flags, and
        // nothing else: the hook is cleared below once the checks end.
        verifier.setCheckerOptions(copts);
        preimages0 = verifier.preimageCount();
        conePreimages0 = verifier.conePreimageCount();
        comp::ProofTree proof;
        bool ok = verifier.verify(spec, proof, /*allowGlobalFallback=*/true);
        if (!ok && cls != comp::PropertyClass::Unknown &&
            !comp::premisesAreExact(spec)) {
          // A failing Rule 1/3 premise is not a refutation (another
          // component may satisfy the spec, or the composition may where no
          // component does); decide with a direct check and record it in
          // the certificate.  A failing exact Rule 2 premise refutes the
          // composition: its violating step is a step of the composition.
          ok = verifier.composedChecker().holds(spec);
          proof.add(comp::ProofNode::Kind::ModelCheck,
                    "composed system |= " + ctl::toString(spec.f) +
                        "  (direct fallback)",
                    ok);
          out.rule += " + global fallback";
        }
        out.record.verdict = ok ? Verdict::Holds : Verdict::Fails;
        out.decided = true;
        out.proofJson = proof.toJson();
        if (!ok) out.counterexample = verifier.counterexample(spec);
      }
    } catch (const symbolic::CancelledError& e) {
      out.record.verdict = cancelVerdict(e.reason());
    }
    // The kept checker or verifier polls no hook past this attempt.
    copts.cancelCheck = nullptr;
    if (d.composed) {
      // Built before the first poll, so present whatever the checks threw.
      comp::CompositionalVerifier& verifier = *wc->verifier;
      setupSeconds += verifier.setupSeconds() - verifierSetup0;
      verifier.setCheckerOptions(copts);
      out.record.preimages = verifier.preimageCount() - preimages0;
      out.record.conePreimages = verifier.conePreimageCount() - conePreimages0;
    } else if (wc->component.has_value()) {
      wc->component->setOptions(copts);
      if (checked != nullptr) {
        out.record.preimages = checked->preimageCount() - preimages0;
        out.record.conePreimages =
            checked->conePreimageCount() - conePreimages0;
      }
    }
    // Through its checks: every phase is accounted for, 0 for one the
    // attempt did not go through.
    out.record.elaborateMs = out.record.elaborateMs.value_or(0.0);
    out.record.importMs = out.record.importMs.value_or(0.0);
    out.record.setupMs = setupSeconds * 1000.0;
    out.record.fixpointMs = (checkTimer.seconds() - setupSeconds) * 1000.0;
    out.record.seconds = timer.seconds();
    out.record.peakLiveNodes = mgr.stats().peakNodes;
    const std::uint64_t lookups = mgr.stats().cacheLookups - lookups0;
    if (lookups > 0) {
      out.record.cacheHitRate =
          static_cast<double>(mgr.stats().cacheHits - hits0) /
          static_cast<double>(lookups);
    }
  } catch (const std::exception& e) {
    out.record.verdict = Verdict::Error;
    out.decided = false;
    out.error = e.what();
    out.record.seconds = timer.seconds();
  }
  // Only a decided attempt hands its context on; any other outcome
  // destroys it here, so degradation retries and quarantine start fresh.
  if (warm != nullptr && out.decided) warm->keep(key, std::move(wc));
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
  JsonObject fields;
  out.engineChoiceJson = putChoiceFields(fields, c).str();
  if (trace.enabled()) {
    JsonObject event;
    event.put("event", "engine_choice")
        .putDouble("t", trace.elapsedSeconds())
        .put("job", d.jobName)
        .put("obligation", d.id);
    trace.emit(putChoiceFields(event, c));
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
    const AttemptRecord& r = a.record;
    if (r.elaborateMs.value_or(0.0) > 0.0) {
      ins->elaborateSeconds.observe(*r.elaborateMs / 1000.0);
    }
    if (r.importMs.value_or(0.0) > 0.0) {
      ins->importSeconds.observe(*r.importMs / 1000.0);
    }
    if (r.setupMs.has_value()) ins->setupSeconds.observe(*r.setupMs / 1000.0);
    if (r.fixpointMs.has_value()) {
      ins->fixpointSeconds.observe(*r.fixpointMs / 1000.0);
    }
  }
  if (trace.enabled()) {
    JsonObject event;
    event.put("event", "attempt")
        .putDouble("t", trace.elapsedSeconds())
        .put("job", d.jobName)
        .put("obligation", d.id)
        .putUint("attempt", static_cast<std::uint64_t>(attemptNo));
    putAttemptFields(event, a.record);
    trace.emit(event);
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
  // First-attempt engine: fixed modes are forced outright; Auto takes the
  // choice the job's snapshot made for this obligation's target.
  bool partitioned = jopts.engine != symbolic::EngineMode::Monolithic;
  if (jopts.engine == symbolic::EngineMode::Auto) {
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
  if (d.warm != nullptr) d.warm->dispatched(d.warmTarget());

  if (trace.enabled()) {
    trace.emit(JsonObject()
                   .put("event", "obligation_start")
                   .putDouble("t", trace.elapsedSeconds())
                   .put("job", d.jobName)
                   .put("obligation", d.id)
                   .put("target", d.target)
                   .put("spec", d.specName)
                   .put("engine", symbolic::toString(d.job->options.engine))
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

  if (trace.enabled()) {
    JsonObject event;
    event.put("event", "obligation_end")
        .putDouble("t", trace.elapsedSeconds())
        .put("job", d.jobName)
        .put("obligation", d.id)
        .put("verdict", toString(out.verdict))
        .put("verdict_source", out.verdictSource)
        .put("rule", out.rule)
        .putBool("retried", out.retried)
        .putUint("attempts", static_cast<std::uint64_t>(out.attempts.size()))
        .putDouble("seconds", out.seconds);
    // Served without an attempt (cache, journal, drain): nothing measured.
    if (!out.attempts.empty()) {
      std::optional<std::uint64_t> peak;
      for (const AttemptRecord& a : out.attempts) {
        if (a.peakLiveNodes.has_value()) {
          peak = std::max(peak.value_or(0), *a.peakLiveNodes);
        }
      }
      if (peak.has_value()) event.putUint("peak_live_nodes", *peak);
      if (out.attempts.back().cacheHitRate.has_value()) {
        event.putDouble("cache_hit_rate", *out.attempts.back().cacheHitRate);
      }
    }
    trace.emit(event);
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
    const VerificationJob& job, bool wantCanon, bool* reused) {
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
    // A memoized *failure* is not served: erase it so a resubmission gets
    // a fresh build (the failure may have been transient).
    const std::shared_future<SnapshotResult>& fut = it->second.future;
    const bool failed =
        fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        fut.get().snapshot == nullptr;
    if (!failed) {
      snapshotLru_.splice(snapshotLru_.begin(), snapshotLru_,
                          it->second.lruIt);
      if (metrics_ != nullptr) metrics_->counter("snapshot_reuses").inc();
      *reused = true;
      return fut;
    }
    snapshotLru_.erase(it->second.lruIt);
    snapshotCache_.erase(it);
  }
  if (metrics_ != nullptr) metrics_->counter("snapshot_builds").inc();
  *reused = false;
  std::shared_future<SnapshotResult> fut =
      pool_.submit([job, wantCanon] { return buildSnapshot(job, wantCanon); })
          .share();
  snapshotLru_.push_front(key);
  SnapshotSlot slot;
  slot.future = fut;
  slot.lruIt = snapshotLru_.begin();
  snapshotCache_.emplace(key, std::move(slot));
  while (snapshotCache_.size() > kSnapshotMemo) {
    snapshotCache_.erase(snapshotLru_.back());
    snapshotLru_.pop_back();
  }
  return fut;
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
    bool snapshotReused = false;  ///< served by the snapshot memo
    std::shared_ptr<const ElaborationSnapshot> snapshot;
    std::string scoutError;
    std::vector<ObligationDesc> descs;
    std::shared_ptr<WarmContexts> warm;  ///< null when nothing runs warm
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
    states[k].snapFuture =
        snapshotFor(jobs[k], wantCanon, &states[k].snapshotReused);
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
  // (snapshot, options) and copy, instead of rendering every spec and
  // finishing every fingerprint again per job.
  std::map<std::pair<const void*, std::uint64_t>,
           std::vector<ObligationDesc>> descMemo;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const VerificationJob& job = jobs[k];
    JobState& state = states[k];
    const SnapshotResult sr = state.snapFuture.get();
    // Time spent enumerating this job's obligations, memo hit or not;
    // unset when the job has no snapshot.
    std::optional<double> enumerateSeconds;
    if (sr.snapshot == nullptr) {
      state.scoutError = sr.error;
    } else {
      state.snapshot = sr.snapshot;
      const ElaborationSnapshot& snap = *sr.snapshot;
      WallTimer enumerateTimer;
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
      // coordinator): the memo keeps the unfiltered list, `only` prunes
      // this job's private copy.
      state.scoutError = keepOnly(job, &state.descs);
      enumerateSeconds = enumerateTimer.seconds();
      // Obligations run warm on kept contexts; a reorder job sifts each
      // manager, so its contexts are never handed on.
      if (!job.options.reorderBeforeCheck) {
        std::vector<std::size_t> perTarget(snap.modules.size() + 1, 0);
        for (const ObligationDesc& d : state.descs) ++perTarget[d.warmTarget()];
        state.warm = std::make_shared<WarmContexts>(std::move(perTarget));
      }
      for (ObligationDesc& d : state.descs) {
        d.job = &job;
        d.jobName = job.name;
        d.snapshot = state.snapshot;
        d.warm = state.warm;
      }
      if (tr.enabled()) {
        JsonObject event;
        event.put("event", "snapshot")
            .putDouble("t", tr.elapsedSeconds())
            .put("job", job.name)
            .putBool("reused", state.snapshotReused);
        // A reused snapshot ran no phase for this job: only its size.
        if (!state.snapshotReused) {
          event.putDouble("parse_ms", snap.parseSeconds * 1000.0)
              .putDouble("elaborate_ms", snap.elaborateSeconds * 1000.0);
          // Left out when nothing was serialized, probed or composed.
          if (snap.canonSeconds) {
            event.putDouble("canon_ms", *snap.canonSeconds * 1000.0);
          }
          if (snap.probeSeconds) {
            event.putDouble("probe_ms", *snap.probeSeconds * 1000.0);
          }
          if (snap.composeSeconds) {
            event.putDouble("compose_ms", *snap.composeSeconds * 1000.0);
          }
          event.putUint("nodes_allocated", snap.nodesAllocated)
              .putUint("gc_runs", snap.gcRuns);
        }
        tr.emit(event.putUint("live_nodes", snap.liveNodes)
                    .putUint("modules",
                             static_cast<std::uint64_t>(snap.modules.size())));
      }
    }
    if (tr.enabled()) {
      JsonObject event;
      event.put("event", "job_start")
          .putDouble("t", tr.elapsedSeconds())
          .put("job", job.name)
          .put("cmc_version", util::versionString())
          .put("source", job.sourcePath)
          .putUint("obligations",
                   static_cast<std::uint64_t>(state.descs.size()))
          .putUint("workers", threads());
      if (enumerateSeconds) {
        event.putDouble("enumerate_ms", *enumerateSeconds * 1000.0);
      }
      tr.emit(event);
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
    if (!state.scoutError.empty()) report.addJobError(state.scoutError);
    // One sleep per job: after the latch fires every future below is
    // settled (the last one may still be mid-set_value; its get() then
    // blocks only for that sliver).
    if (state.done.valid()) state.done.wait();
    if (state.warm != nullptr) state.warm->clear();
    for (std::future<ObligationOutcome>& f : state.futures) report.add(f.get());
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
