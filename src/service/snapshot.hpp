// Shared elaboration snapshots (service layer).
//
// The old scheduler elaborated every job twice per obligation attempt: once
// in the scout (to enumerate obligations) and again on the worker, from
// scratch, into a fresh Context.  For the AFS batch benchmarks that re-parse
// plus re-elaboration dominated the per-obligation cost and made the pool
// *lose* to the serial loop.  A snapshot kills both copies of that work:
//
//  - buildSnapshot elaborates a job ONCE into a dedicated Context and
//    freezes the result (modules, the obligation keys' target parts hashed
//    from the canonical serializations, for a compose job with a composed
//    spec outside Rules 1-3 the composition of the reflexive-closed
//    modules, and — under EngineMode::Auto — the per-module and composed
//    engine choices).  Only the systems whose checker reads a product are
//    probed, here where mutation is still allowed: that composition and a
//    module that covers the context.  A module whose checker takes the cone
//    (symbolic::takesCone) gets an unprobed choice and no product, and so
//    does a compose job whose composed specs Rules 1-3 all decide: their
//    premises run on the components.
//  - Workers adopt the snapshot's variable layout into their own pre-sized
//    Context and copy the BDDs they need through bdd::Importer — a linear
//    walk of the reachable DAG instead of a parse + elaboration.  A
//    composed attempt imports the composition too when there is one, so
//    the product is composed (and, under Auto, materialized) once per job,
//    not once per attempt.  A worker keeps what it imported for its next
//    obligation of the same target and engine (the scheduler's warm
//    contexts), so most attempts import nothing at all.
//
// Ownership and immutability: the snapshot is held by shared_ptr<const>;
// the last obligation (or the service's snapshot cache) drops it.  After
// buildSnapshot returns, NOTHING may run BDD operations, GC, or reordering
// on the snapshot's manager — workers only read the node arena through
// Importer (concurrently safe, see bdd/io.hpp).  In particular workers must
// not call dagSize()/support() on snapshot BDDs: those touch the manager's
// mutable mark bits.  All sizes a worker needs are precomputed below.  The
// same holds for the systems: nothing may call transBdd() (it materializes
// into the frozen manager) or transNodeCount() on `modules` or `composed`.
//
// GC interaction: before the engine probes the snapshot context drops
// elaboration's garbage, so each probe's collection trigger (twice the
// live count) is set from what is really live.  It is collected once more
// at the end of buildSnapshot, sweeping probe intermediates; the surviving
// nodes are exactly the obligations' reachable DAGs (every handle in
// `modules` and `composed` keeps its nodes referenced).  The snapshot
// manager never collects again, so node indices stay stable for every
// importer's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bdd/io.hpp"
#include "service/job.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/engine_choice.hpp"
#include "util/hash.hpp"

namespace cmc::service {

struct ElaborationSnapshot {
  /// The context every module below lives in.  unique_ptr so the snapshot
  /// is movable; never null after a successful build.
  std::unique_ptr<symbolic::Context> ctx;
  std::vector<smv::ElaboratedModule> modules;
  /// The target part of every obligation key (obligation_cache.hpp): the
  /// hash state after each module's canonical serialization, and for a
  /// compose job with more than one module the state after all of them.
  /// enumerateObligations finishes each fingerprint from a copy; the
  /// serializations themselves are dropped once hashed.  Empty (unset)
  /// when fingerprinting failed or was not requested.
  std::vector<StableHash128> modulePrefix;
  std::optional<StableHash128> composedPrefix;
  /// Per-module engine decision (EngineMode::Auto only; defaulted
  /// otherwise).  A module whose checker takes the cone is not probed: its
  /// choice is partitioned, unprobed, and carries no product size.
  std::vector<symbolic::EngineChoice> moduleChoice;
  /// The reflexive-closed modules folded with ∘ in module order — set for
  /// a compose job with more than one module when some composed spec
  /// classifies Unknown (composes()), whatever the engine mode.  Under
  /// Auto it carries the probe's product when the probe completed within
  /// its cap; otherwise the product stays unbuilt, so a monolithic attempt
  /// materializes it under its own budget.
  std::optional<symbolic::SymbolicSystem> composed;
  /// Engine decision for the composed obligations (compose jobs under
  /// Auto): the probe of `composed`, or, without one, partitioned and
  /// unprobed, since every premise runs on a component's cone checker.
  symbolic::EngineChoice composedChoice;
  /// Live nodes after the final collection — what a composed obligation's
  /// fresh context is sized from.
  std::uint64_t liveNodes = 0;
  /// Per module, the nodes importing it copies: its partition's conjuncts
  /// and, when materialized (a probed module whose product fit), its
  /// monolithic relation, counted before the snapshot froze.  A component
  /// obligation's fresh context is sized from its module's count (see
  /// contextNodes()).
  std::vector<std::uint64_t> moduleNodes;
  /// Wall time of parsing the job's text.
  double parseSeconds = 0.0;
  /// Wall time of elaboration, parse excluded (the cost the snapshot
  /// amortizes, with the parse).
  double elaborateSeconds = 0.0;
  /// Wall time of rendering the canonical serializations and hashing the
  /// key prefixes; unset when none were requested.
  std::optional<double> canonSeconds;
  /// Wall time of the engine probes, modules and composition; unset when
  /// nothing was probed (a mode other than Auto, or only cone modules).
  std::optional<double> probeSeconds;
  /// Wall time of building `composed`; unset when nothing was composed.
  std::optional<double> composeSeconds;
  /// The snapshot manager's counters at freeze: every node it allocated
  /// and every collection it ran, the final sweep included.
  std::uint64_t nodesAllocated = 0;
  std::uint64_t gcRuns = 0;
};

struct SnapshotResult {
  std::shared_ptr<const ElaborationSnapshot> snapshot;  ///< null on error
  std::string error;                                    ///< why, when null
};

/// One enumerated obligation of a snapshot: the stable identity
/// ("<target>/<spec name>") plus the content fingerprint that addresses
/// the obligation cache — and, in cluster mode, routes the obligation to
/// its shard.  The scheduler extends a ref into a dispatchable
/// descriptor; the coordinator forwards it as-is.
struct ObligationRef {
  bool composed = false;
  std::size_t moduleIndex = 0;  ///< target module; spec owner when composed
  std::size_t specIndex = 0;
  std::string id;
  std::string target;    ///< module name, or "composed"
  std::string specName;
  std::string specText;
  /// Obligation-cache address; empty when the snapshot carries no key
  /// prefix for the target (canon not requested, or fingerprinting failed).
  std::string fingerprint;
};

/// Enumerate a snapshot's obligations in dispatch order: one per
/// (module, spec), then — when `options.compose` and the snapshot has >1
/// module — one per spec against the composition.  Deterministic for a
/// given (snapshot, options) and stable across processes: a coordinator's
/// scout and a shard's own enumeration of the same SMV text agree on
/// every id and fingerprint, which is what makes single-obligation
/// forwarding ("only") and fleet-wide cache hits line up.
std::vector<ObligationRef> enumerateObligations(const ElaborationSnapshot& snap,
                                                const JobOptions& options);

/// Apply `job.only` to its enumerated obligations (ObligationRefs or
/// descriptors extending them): keep only the one it names, or all when it
/// is empty.  The filter runs after the full enumeration, which is what
/// makes ids and fingerprints agree across the fleet.  Returns the job's
/// error when `only` names no obligation, else "".
template <typename Ref>
std::string keepOnly(const VerificationJob& job, std::vector<Ref>* refs) {
  if (job.only.empty()) return {};
  std::erase_if(*refs,
                [&job](const ObligationRef& r) { return r.id != job.only; });
  if (!refs->empty()) return {};
  return "job '" + job.name + "' has no obligation '" + job.only + "'";
}

/// True iff a compose job over `modules` needs their composition: it has
/// more than one module and some spec classifies Unknown, so its composed
/// obligation takes the global check.  Every other composed spec is
/// decided by Rules 1-3 on the components, and only a failing Rule 1/3
/// premise or a counterexample composes, in the worker that needs it.
bool composes(const std::vector<smv::ElaboratedModule>& modules);

/// Elaborate `job` once into a fresh context (never throws — errors land in
/// SnapshotResult::error).  `wantCanon` additionally hashes the canonical
/// module serializations into the key prefixes (best-effort).  Engine
/// probes run only when the job's engine mode is Auto.  Thread-safe for
/// concurrent jobs: each call owns its context, so runBatch fans snapshot
/// builds onto the pool.
SnapshotResult buildSnapshot(const VerificationJob& job, bool wantCanon);

/// Copy one elaborated module out of a snapshot into a worker context
/// through `imp` (destination must be the worker's manager).  Formula trees
/// (init/fairness/specs) are shared, not copied — FormulaPtr refcounts are
/// atomic.  `wantMonolithic` also copies the materialized monolithic
/// relation when the source has one.
smv::ElaboratedModule importModule(symbolic::Context& dst, bdd::Importer& imp,
                                   const smv::ElaboratedModule& src,
                                   bool wantMonolithic);

/// The node count a fresh worker context for `ref` is sized from, and its
/// warm arena collects against: the whole snapshot for a composed
/// obligation, which imports every module and the composition; its own
/// module for a component obligation — an afs2(64) client imports a few
/// hundred nodes of the snapshot's 23,214.
inline std::uint64_t contextNodes(const ElaborationSnapshot& snap,
                                  const ObligationRef& ref) {
  return ref.composed ? snap.liveNodes : snap.moduleNodes.at(ref.moduleIndex);
}

/// Arena capacity for a worker importing `snapshotLiveNodes` nodes: room
/// for the full import plus fixpoint headroom, so neither the import nor a
/// typical check ever rehashes the unique table or grows the arena.
inline std::size_t workerArenaCapacity(std::uint64_t snapshotLiveNodes) {
  // The floor matches the default Context: over-sizing costs real time on
  // small models (every worker zeroes the arena + tables up front), and a
  // small import that later grows just rehashes once like any context.
  const std::uint64_t want = 2 * snapshotLiveNodes;
  return static_cast<std::size_t>(
      want < (std::uint64_t{1} << 12) ? (std::uint64_t{1} << 12) : want);
}

/// Computed-table capacity to match: ~4 slots per imported node, clamped to
/// [2^12, 2^20] (the manager rounds up to a power of two).
inline std::size_t workerCacheCapacity(std::uint64_t snapshotLiveNodes) {
  std::uint64_t want = 4 * snapshotLiveNodes;
  if (want < (std::uint64_t{1} << 12)) want = std::uint64_t{1} << 12;
  if (want > (std::uint64_t{1} << 20)) want = std::uint64_t{1} << 20;
  return static_cast<std::size_t>(want);
}

}  // namespace cmc::service
