// The batch verification service's job model (service layer, layer 1/3).
//
// A VerificationJob is a batch of models plus their specs: either an SMV
// program text (possibly multi-module, as accepted by smv::elaborateProgram)
// or an in-memory ModelFactory.  The service expands a job into independent
// *obligations* — one per (module, spec), plus one per spec on the composed
// system when `compose` is set — and fans them onto a thread pool.  Every
// obligation rebuilds its models in a fresh symbolic::Context because BDD
// managers are single-threaded (the same discipline as
// comp::runObligations).
//
// Verdicts extend the paper's two-valued M ⊨_r f with the resource-governed
// outcomes a production service needs (docs/THEORY.md maps them back to
// restricted satisfaction):
//   Holds / Fails    — the checker decided ⊨_r within budget;
//   Timeout          — the per-attempt wall-clock deadline expired;
//   MemoryOut        — the BDD live-node budget was exhausted;
//   Inconclusive     — both engines (partitioned and monolithic) exhausted
//                      their budget; nothing is known about ⊨_r;
//   Cancelled        — the run was interrupted (SIGINT/SIGTERM or an
//                      embedding's cancel flag) before a decision;
//   Error            — the obligation threw (parse error, bad model, ...)
//                      and the quarantine retry threw again.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "smv/elaborate.hpp"
#include "symbolic/engine_choice.hpp"

namespace cmc::service {

enum class Verdict {
  Holds,
  Fails,
  Timeout,
  MemoryOut,
  Inconclusive,
  Cancelled,
  Error,
};

const char* toString(Verdict v) noexcept;

/// Worst-of aggregation for a job's obligations: a definite Fails dominates
/// everything, then Error, then the budget verdicts, then Holds.
Verdict worseVerdict(Verdict a, Verdict b) noexcept;

/// Per-obligation resource budget, enforced cooperatively by BudgetToken
/// through CheckerOptions::cancelCheck.  Both limits apply *per attempt*:
/// an engine retry starts with a fresh deadline and a fresh BDD manager.
struct ObligationLimits {
  /// Wall-clock deadline in seconds; 0 = unlimited.
  double deadlineSeconds = 0.0;
  /// Budget of live BDD nodes in the obligation's manager; 0 = unlimited.
  /// Exceeding it first forces a garbage collection — only genuinely
  /// reachable nodes count against the budget.
  std::uint64_t nodeBudget = 0;
};

struct JobOptions {
  ObligationLimits limits;
  /// Also verify every spec on the composition of all modules (through the
  /// compositional rules, with a ProofTree certificate in the report).
  bool compose = false;
  /// First-attempt verification engine.  Auto resolves per obligation
  /// through symbolic::chooseEngine (capped materialization probe, run once
  /// during the job's elaboration snapshot); Partitioned/Monolithic force
  /// CheckerOptions::usePartitionedTrans directly.  The library default
  /// stays Partitioned for reproducible behavior; the cmc CLI defaults to
  /// Auto.
  symbolic::EngineMode engine = symbolic::EngineMode::Partitioned;
  /// Degradation policy: an obligation that exhausts its budget under one
  /// engine is retried once under the other before being reported
  /// Inconclusive.
  bool retryOtherEngine = true;
  /// CheckerOptions::clusterThreshold for the partitioned engine.
  std::uint64_t clusterThreshold = 1024;
  /// Sift variables (Manager::reorderSift) after elaboration, before
  /// checking — the service counterpart of `cmc_check --reorder`.
  bool reorderBeforeCheck = false;
  /// A cache/journal-replayed Fails may carry no counterexample (trace
  /// search is best-effort and older entries may predate it).  By default
  /// the replay stands and the trace notes trace_unavailable; with this
  /// set the obligation is re-checked so a trace can be derived.  Not part
  /// of the obligation fingerprint: it changes how a verdict is *served*,
  /// never the verdict.
  bool traceForce = false;
  /// Discharge composed obligations through the assume-guarantee learning
  /// engine (agr::runLearnedJob) where the spec shape admits it, falling
  /// back to the direct composed check otherwise.  Like traceForce this is
  /// not part of the obligation fingerprint: the learned verdict is the
  /// same ⊨_r verdict, derived differently.
  bool learn = false;
  /// Provenance of a synthetic assumption/environment module composed into
  /// this job's model (agr teacher queries): the learned automaton's
  /// content digest, or a per-step tag for membership queries.  Folded into
  /// every obligation fingerprint so premise queries against two different
  /// assumptions can never alias each other in the obligation cache.
  /// Empty for ordinary jobs.
  std::string assumptionDigest;
};

/// Builds a job's modules inside a fresh per-obligation context.  Used for
/// in-memory systems; called concurrently from worker threads (once per
/// obligation attempt), so it must be thread-safe and deterministic.
using ModelFactory =
    std::function<std::vector<smv::ElaboratedModule>(symbolic::Context&)>;

struct VerificationJob {
  /// Job name, used in trace events and report paths.
  std::string name;
  /// SMV program text; ignored when `factory` is set.
  std::string smvText;
  /// In-memory model builder (takes precedence over smvText).
  ModelFactory factory;
  /// Provenance recorded in the report (e.g. the .smv path); may be empty.
  std::string sourcePath;
  /// When non-empty, check only the obligation with this id
  /// ("<target>/<spec name>"); every other enumerated obligation is
  /// dropped before dispatch.  An id matching nothing yields a single
  /// Error obligation.  This is how a cluster shard checks exactly the
  /// obligation the coordinator routed to it.
  std::string only;
  JobOptions options;
};

/// One engine attempt of one obligation.
struct AttemptRecord {
  std::string engine;  ///< "partitioned" or "monolithic"
  Verdict verdict = Verdict::Error;
  double seconds = 0.0;
  std::uint64_t peakLiveNodes = 0;
  double cacheHitRate = 0.0;
  // Phase breakdown of `seconds`.  Snapshot-backed attempts pay importMs
  // (cross-manager copy of the elaborated BDDs) instead of elaborateMs
  // (full parse + elaboration); fixpointMs is the checker proper.
  double elaborateMs = 0.0;
  double importMs = 0.0;
  double fixpointMs = 0.0;
};

struct ObligationOutcome {
  std::string id;        ///< "<target>/<spec name>"
  std::string target;    ///< module name, or "composed"
  std::string spec;      ///< spec name (module.SPECn)
  std::string specText;  ///< rendered CTL formula
  Verdict verdict = Verdict::Error;
  /// "checked" when the verdict came from running the checker, "cache"
  /// when it was served by the obligation cache, "journal" when replayed
  /// from a prior run's journal on --resume (zero attempts either way).
  std::string verdictSource = "checked";
  /// Content fingerprint used to address the obligation cache; empty when
  /// fingerprinting failed or the cache is disabled.
  std::string fingerprint;
  /// Name of the cluster shard that served this obligation; empty for
  /// local runs.  Set by the coordinator when it merges forwarded
  /// verdicts, so a clustered report still explains where each verdict
  /// came from.
  std::string shard;
  /// True when the coordinator hedged this obligation's in-flight CHECK to
  /// a second shard after its latency threshold; `shard` names the lane
  /// whose sound verdict arrived first (the hedge winner), the loser was
  /// cancelled.  Always false for local runs and unhedged forwards.
  bool hedged = false;
  /// True when this obligation's decided verdict became a new cache entry.
  bool cacheInserted = false;
  bool retried = false;
  /// Proof rule that decided the obligation: "direct" for a plain
  /// component check; for composed obligations the property class and rule
  /// ("universal (Rule 2)", "existential (Rules 1/3)", "global fallback").
  std::string rule;
  std::vector<AttemptRecord> attempts;
  /// JSON object describing how EngineMode::Auto resolved for this
  /// obligation (chooseEngine's inputs and decision); empty when the
  /// engine was forced by options or the verdict came without attempts.
  std::string engineChoiceJson;
  double seconds = 0.0;        ///< total across attempts
  std::string error;           ///< non-empty for Verdict::Error
  std::string counterexample;  ///< trace for failing AG specs, if derivable
  std::string proofJson;       ///< ProofTree certificate (composed only)
  /// JSON object describing the assume-guarantee learning run that decided
  /// (verdict_source "learned": assumption size, query counts, partition)
  /// or declined (fallback_reason) this composed obligation.  Empty for
  /// ordinary obligations.
  std::string learnedJson;
};

struct JobReport {
  std::string job;
  std::string source;
  JobOptions options;
  Verdict verdict = Verdict::Holds;
  double wallSeconds = 0.0;
  std::vector<ObligationOutcome> obligations;
  /// Obligation-cache traffic of this job: verdicts served from the cache,
  /// consults that missed, and newly decided verdicts offered to it.
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t cacheInserts = 0;
  /// Obligations replayed from a prior run's journal (--resume).
  std::uint64_t journalHits = 0;

  bool allHold() const noexcept { return verdict == Verdict::Holds; }
  /// The summary JSON written next to the model (schema in README.md).
  std::string toJson() const;
};

}  // namespace cmc::service
