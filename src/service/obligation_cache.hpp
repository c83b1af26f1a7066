// Content-addressed obligation cache (service layer): memoizes the
// verdicts of component and composed obligations by a canonical
// fingerprint, so identical (module, spec, restriction, options)
// obligations are verified once and reused — within a batch, across jobs
// of a batch, and (with a disk directory) across runs.  This is the
// paper's §3.3 reuse story made operational: M ⊨_r f is established once
// per component and consulted by every containing system.
//
// Key
//   fingerprint = StableHash128 over, in order, each field followed by a
//   separator:
//     cache-format version salt
//   + the target tag ("component", or "composed")
//   + the target module's canonical serialization (smv::canonicalModule:
//     vars, init formula, fairness, transition conjuncts as labeled BDD
//     DAGs); a composed obligation hashes every module's, in module order
//   + the restriction index r = (I, F), rendered
//   + the spec formula, rendered
//   + the verdict-relevant JobOptions: engine, cluster threshold, reorder
//     flag
//   + an empty assumption tag ("assume:")
//   The first three fields are the target part: the snapshot keeps the
//   hash state after them (fingerprintPrefix + addCanon), one per module
//   and one for the composition.  Enumeration extends a copy by each run
//   of shared restrictions (addRestriction) and finishes every
//   obligation's key from a copy of that (finishFingerprint).  The
//   restriction r MUST be part of the key: ⊨_r verdicts are not
//   transferable across restrictions (docs/THEORY.md, "Obligation cache
//   soundness").
//
// Value
//   The decided verdict (Holds / Fails — never the budget verdicts or
//   Error; see cacheable()), plus the artifacts a report needs to be
//   complete without re-running the checker: the proof rule, deciding
//   engine, original check time, counterexample, and proof certificate.
//
// Tiers
//   - In-memory: a sharded LRU (kShards shards, each its own mutex + list
//     + index) shared by every worker of a VerificationService batch.
//   - On-disk (optional): a JSONL store at <dir>/obligations.jsonl.
//     Inserts append one line atomically (single buffered write under a
//     mutex, flushed); loading skips corrupted or truncated lines with a
//     counter, so a crash mid-append costs one entry, never the store.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ctl/formula.hpp"
#include "service/job.hpp"
#include "util/hash.hpp"

namespace cmc::service {

/// The memoized outcome of one decided obligation.
struct CachedVerdict {
  Verdict verdict = Verdict::Holds;  ///< Holds or Fails only
  std::string rule;                  ///< proof rule that decided it
  std::string engine;                ///< engine of the deciding attempt
  double seconds = 0.0;              ///< original check time
  std::string counterexample;
  std::string proofJson;
};

struct ObligationCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;    ///< new entries (re-inserts not counted)
  std::uint64_t evictions = 0;  ///< LRU evictions across shards
  std::uint64_t loaded = 0;     ///< entries read from the disk store
  std::uint64_t corruptLines = 0;  ///< skipped disk lines (with a warning)
};

class ObligationCache {
 public:
  struct Options {
    /// Maximum in-memory entries across all shards (>= 1 enforced).
    std::size_t capacity = 1 << 16;
    /// Directory of the JSONL store; empty = in-memory only.  Created if
    /// missing; entries are loaded in the constructor.
    std::string dir;
  };

  ObligationCache();
  explicit ObligationCache(Options opts);

  /// Only decided verdicts are cacheable: Timeout/MemoryOut/Inconclusive
  /// say nothing about ⊨_r, and Error is not a verdict at all.
  static bool cacheable(Verdict v) noexcept {
    return v == Verdict::Holds || v == Verdict::Fails;
  }

  /// Thread-safe lookup; a hit refreshes LRU recency.
  std::optional<CachedVerdict> lookup(const std::string& fingerprint);

  /// Thread-safe insert; non-cacheable verdicts are rejected (returns
  /// false).  A new entry is appended to the disk store when configured;
  /// re-inserting an existing fingerprint only refreshes recency.
  bool insert(const std::string& fingerprint, const CachedVerdict& value);

  ObligationCacheStats stats() const;
  std::size_t size() const;
  const std::string& dir() const noexcept { return dir_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    /// Front = most recently used.
    std::list<std::pair<std::string, CachedVerdict>> order;
    std::unordered_map<std::string, decltype(order)::iterator> index;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shardFor(const std::string& fingerprint);
  /// Insert into the in-memory tier only; returns true for a new entry.
  bool insertMemory(const std::string& fingerprint, const CachedVerdict& v);
  void loadDisk();
  void appendDisk(const std::string& fingerprint, const CachedVerdict& v);

  std::size_t perShardCapacity_ = 1;
  std::string dir_;
  std::string diskPath_;
  Shard shards_[kShards];

  mutable std::mutex statsMutex_;
  ObligationCacheStats stats_;

  std::mutex diskMutex_;
};

struct CompactionResult {
  std::uint64_t entriesBefore = 0;  ///< parsed entries, duplicates included
  std::uint64_t entriesAfter = 0;   ///< surviving unique fingerprints
  std::uint64_t duplicates = 0;     ///< dropped older writes (last wins)
  std::uint64_t corrupt = 0;        ///< dropped unparseable lines
  std::uint64_t bytesBefore = 0;
  std::uint64_t bytesAfter = 0;
};

/// Offline compaction of a disk store directory's obligations.jsonl:
/// last-write-wins dedup by fingerprint (first-occurrence order is
/// preserved), corrupt lines dropped, legacy bare lines re-framed, a
/// fresh header stamped, and the result atomically renamed over the store
/// while holding the store's flock.  "Offline" means no daemon should be
/// appending: a writer that opened the store before compaction keeps an
/// fd to the *replaced* inode and its appends would be lost.  False with
/// a message when the store cannot be opened, locked, or rewritten; a
/// missing store is an error (nothing to compact), not a no-op.
bool compactObligationStore(const std::string& dir, CompactionResult* result,
                            std::string* error);

/// The fingerprint of one obligation (see the key layout above): the steps
/// below composed in one call, and the reference the snapshot's prefixes
/// are tested against.  `moduleCanon` holds smv::canonicalModule for every
/// module of the job in declaration order; a component obligation hashes
/// only its own module, a composed obligation hashes all of them.
std::string obligationFingerprint(const std::vector<std::string>& moduleCanon,
                                  std::size_t moduleIndex, bool composed,
                                  const ctl::Spec& spec,
                                  const JobOptions& options);

/// The key in steps, each a prefix of the next, so a state shared by many
/// obligations is hashed once and copied.  fingerprintPrefix starts the
/// target part (version salt, target tag); addCanon appends the target's
/// canonical serialization (each module's in turn for a composed
/// obligation); addRestriction appends the rendered restriction
/// (ctl::Restriction::toString); finishFingerprint hashes the rendered
/// formula (ctl::toString) and the verdict-relevant options onto a copy.
StableHash128 fingerprintPrefix(bool composed);
void addCanon(StableHash128& prefix, std::string_view canon);
void addRestriction(StableHash128& prefix, std::string_view restriction);
std::string finishFingerprint(StableHash128 prefix, std::string_view formula,
                              const JobOptions& options);

}  // namespace cmc::service
