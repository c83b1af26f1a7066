// The batch verification service's job model (service layer, layer 1/3).
//
// A VerificationJob is a batch of models plus their specs: an SMV program
// text (possibly multi-module, as accepted by smv::elaborateProgram).  The
// service expands a job into independent *obligations* — one per (module,
// spec), plus one per spec on the composed system when `compose` is set —
// and fans them onto a thread pool.  Every attempt runs in a
// symbolic::Context of its own worker thread, because BDD managers are
// single-threaded: imported from the job's elaboration snapshot, kept from
// the worker's previous decided obligation of the same target and engine,
// or, for a quarantine retry, rebuilt from the program text.
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
#include <optional>
#include <string>
#include <vector>

#include "symbolic/engine_choice.hpp"

namespace cmc::util {
class JsonObject;
}

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
/// every attempt starts a fresh deadline, and an engine retry also a fresh
/// BDD manager.  A warm attempt's manager (see AttemptRecord::warm) holds
/// exactly what a fresh import would once the node budget's collection has
/// run, so the budget binds the same; a composed one also holds the kept
/// verifier, which a fresh attempt builds before its first check.
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
  /// checking (`cmc check --reorder`).
  bool reorderBeforeCheck = false;
  /// A cache/journal-replayed Fails may carry no counterexample (trace
  /// search is best-effort and older entries may predate it).  By default
  /// the replay stands and the trace notes trace_unavailable; with this
  /// set the obligation is re-checked so a trace can be derived.  Not part
  /// of the obligation fingerprint: it changes how a verdict is *served*,
  /// never the verdict.
  bool traceForce = false;
};

struct VerificationJob {
  /// Job name, used in trace events and report paths.
  std::string name;
  /// SMV program text.
  std::string smvText;
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
  /// Ran on a context kept from the same worker's previous decided
  /// obligation of this target and engine ("context": "warm"), instead of
  /// one built and imported for it ("fresh").  A warm attempt has no
  /// import or elaboration time.
  bool warm = false;
  Verdict verdict = Verdict::Error;
  double seconds = 0.0;
  // Every field below is unset when nothing measured it — an attempt that
  // failed with an error before getting that far, or the coordinator's
  // record of a shard's attempt — so none is a zero nobody measured.
  std::optional<std::uint64_t> peakLiveNodes;
  /// Op-cache hits over lookups during the checks; also unset when the
  /// attempt made no lookup.
  std::optional<double> cacheHitRate;
  // Phase breakdown of `seconds`.  Snapshot-backed attempts pay importMs
  // (cross-manager copy of the elaborated BDDs) instead of elaborateMs
  // (full parse + elaboration); setupMs builds what the checks run on
  // (reflexive closures, the composition when not imported, checkers),
  // about 0 for a warm attempt that kept its checker or verifier;
  // fixpointMs is the checks proper.  An attempt that got through its
  // checks sets all four, 0 for a phase it did not go through.
  std::optional<double> elaborateMs;
  std::optional<double> importMs;
  std::optional<double> setupMs;
  std::optional<double> fixpointMs;
  /// Preimages a component attempt's checks computed, and how many of them
  /// went through the cone of influence (symbolic::Checker's running
  /// totals, differenced); unset on composed attempts, whose checks run on
  /// several checkers.
  std::optional<std::uint64_t> preimages;
  std::optional<std::uint64_t> conePreimages;
};

/// Write `a`'s fields into `obj`: the attempt's record in the report and
/// its "attempt" trace event carry the same ones, and leave out what
/// nothing measured.
void putAttemptFields(util::JsonObject& obj, const AttemptRecord& a);

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

  /// Fold one outcome in: the worst-of verdict and the cache and journal
  /// counters.  An outcome counts as a cache insert only when it says so
  /// (cacheInserted), so a coordinator's forwarded outcomes add none.
  void add(ObligationOutcome outcome);
  /// Fold in the Error outcome "<job>/<elaboration>" that stands for a job
  /// whose obligations could not be enumerated.
  void addJobError(std::string error);

  /// Obligations by verdict: Holds, Fails, and everything else.
  struct Tally {
    std::uint64_t holds = 0;
    std::uint64_t fails = 0;
    std::uint64_t undecided = 0;
  };
  Tally tally() const noexcept;

  bool allHold() const noexcept { return verdict == Verdict::Holds; }
  /// The summary JSON written next to the model (schema in README.md).
  std::string toJson() const;
};

}  // namespace cmc::service
