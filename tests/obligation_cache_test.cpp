// Tests for the content-addressed obligation cache: fingerprint
// sensitivity (the restriction index r and the verdict-relevant options
// MUST be part of the key), LRU/tier mechanics, corruption-tolerant disk
// loading, and the service-level plumbing (hits served without checker
// attempts, only decided verdicts inserted, disk round-trips across
// service instances, shared cache under a concurrent batch, replayed Fails
// without a counterexample announced or re-checked under --trace-force).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/obligation_cache.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "smv/fingerprint.hpp"
#include "util/failpoint.hpp"

namespace cmc::service {
namespace {

namespace fs = std::filesystem;

const char* kChainSmv = R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)";

VerificationJob chainJob() {
  VerificationJob job;
  job.name = "chain";
  job.smvText = kChainSmv;
  return job;
}

ServiceOptions withThreads(unsigned n) {
  ServiceOptions opts;
  opts.threads = n;
  return opts;
}

/// A scratch directory under the system temp dir, wiped on entry.
fs::path scratchDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(ObligationFingerprint, DeterministicAcrossFreshContexts) {
  // The property cache hits rely on: elaboration is deterministic, so the
  // same program text in a fresh context reproduces the same DAGs and the
  // same canonical string.  (Stability across *differently pre-populated*
  // contexts is deliberately not promised — a shifted bit order changes
  // ROBDD shapes and costs only a spurious miss, never a false hit.)
  symbolic::Context a;
  const smv::ElaboratedModule ma = smv::elaborateText(a, kChainSmv);
  const std::string canonA = smv::canonicalModule(a, ma);
  EXPECT_FALSE(canonA.empty());

  symbolic::Context b;
  const smv::ElaboratedModule mb = smv::elaborateText(b, kChainSmv);
  EXPECT_EQ(smv::canonicalModule(b, mb), canonA);

  // Serializing twice from the same context is stable too.
  EXPECT_EQ(smv::canonicalModule(a, ma), canonA);

  // A semantically different module (one transition rewired) must differ.
  symbolic::Context c;
  const smv::ElaboratedModule mc = smv::elaborateText(c, R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : c; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)");
  EXPECT_NE(smv::canonicalModule(c, mc), canonA);
}

TEST(ObligationFingerprint, RestrictionAndOptionsArePartOfTheKey) {
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(ctx, kChainSmv);
  const std::vector<std::string> canon{smv::canonicalModule(ctx, mod)};
  const ctl::Spec& spec = mod.specs.front();
  const JobOptions opts;

  const std::string base =
      obligationFingerprint(canon, 0, /*composed=*/false, spec, opts);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(obligationFingerprint(canon, 0, false, spec, opts), base);

  // ⊨_r verdicts are not transferable across restrictions: a different
  // initial condition or fairness set must change the address.
  ctl::Spec otherInit = spec;
  otherInit.r.init = ctl::eq("s", "b");
  EXPECT_NE(obligationFingerprint(canon, 0, false, otherInit, opts), base);
  ctl::Spec otherFair = spec;
  otherFair.r.fairness.push_back(ctl::eq("s", "a"));
  EXPECT_NE(obligationFingerprint(canon, 0, false, otherFair, opts), base);

  // Verdict-relevant options.
  JobOptions threshold = opts;
  threshold.clusterThreshold = 7;
  EXPECT_NE(obligationFingerprint(canon, 0, false, spec, threshold), base);
  JobOptions engine = opts;
  engine.engine = opts.engine == symbolic::EngineMode::Monolithic
                      ? symbolic::EngineMode::Partitioned
                      : symbolic::EngineMode::Monolithic;
  EXPECT_NE(obligationFingerprint(canon, 0, false, spec, engine), base);
  JobOptions reorder = opts;
  reorder.reorderBeforeCheck = !opts.reorderBeforeCheck;
  EXPECT_NE(obligationFingerprint(canon, 0, false, spec, reorder), base);

  // A composed obligation never aliases a component one.
  EXPECT_NE(obligationFingerprint(canon, 0, /*composed=*/true, spec, opts),
            base);
}

// ---------------------------------------------------------------------------
// Cache mechanics
// ---------------------------------------------------------------------------

TEST(ObligationCacheUnit, OnlyDecidedVerdictsAreCacheable) {
  EXPECT_TRUE(ObligationCache::cacheable(Verdict::Holds));
  EXPECT_TRUE(ObligationCache::cacheable(Verdict::Fails));
  EXPECT_FALSE(ObligationCache::cacheable(Verdict::Timeout));
  EXPECT_FALSE(ObligationCache::cacheable(Verdict::MemoryOut));
  EXPECT_FALSE(ObligationCache::cacheable(Verdict::Inconclusive));
  EXPECT_FALSE(ObligationCache::cacheable(Verdict::Error));

  ObligationCache cache;
  CachedVerdict v;
  v.verdict = Verdict::Inconclusive;
  EXPECT_FALSE(cache.insert("fp", v));
  v.verdict = Verdict::Holds;
  EXPECT_FALSE(cache.insert("", v));  // empty fingerprint = not addressable
  EXPECT_TRUE(cache.insert("fp", v));
  EXPECT_FALSE(cache.insert("fp", v));  // re-insert refreshes, not new
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ObligationCacheUnit, LruEvictsBeyondCapacity) {
  ObligationCache::Options opts;
  opts.capacity = 16;  // one entry per shard
  ObligationCache cache(opts);
  CachedVerdict v;
  v.verdict = Verdict::Holds;
  for (int i = 0; i < 256; ++i) {
    cache.insert("fingerprint-" + std::to_string(i), v);
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().inserts, 256u);
}

TEST(ObligationCacheUnit, StoreLinesCarryTheJournalFraming) {
  // Satellite of the durability work: every appended store line is framed
  // with the journal's CRC helper (and flushed), so torn or bit-flipped
  // lines are rejected by checksum rather than half-parsed.
  const fs::path dir = scratchDir("cmc_obligation_cache_framing");
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache cache(opts);
    CachedVerdict v;
    v.verdict = Verdict::Holds;
    v.rule = "direct";
    v.engine = "partitioned";
    v.seconds = 0.125;
    EXPECT_TRUE(cache.insert("aaaa", v));
    EXPECT_TRUE(cache.insert("bbbb", v));
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(dir / "obligations.jsonl");
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  // Whichever process first appends to an empty store prepends the
  // versioned header; every line — header included — is CRC-framed.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("cmc-obligation-cache-v2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"cmc_version\": \""), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"crc\": \""), std::string::npos);
    EXPECT_TRUE(unframeLine(line).has_value()) << line;
  }
  {
    // Flip one byte inside the first entry's payload: the checksum must
    // reject it on reload while the intact line still loads.
    std::string tampered = lines[1];
    tampered[10] ^= 1;
    std::ofstream out(dir / "obligations.jsonl");
    out << lines[0] << "\n" << tampered << "\n" << lines[2] << "\n";
  }
  ObligationCache::Options opts;
  opts.dir = dir.string();
  ObligationCache reloaded(opts);
  EXPECT_EQ(reloaded.stats().loaded, 1u);
  EXPECT_EQ(reloaded.stats().corruptLines, 1u);
  EXPECT_FALSE(reloaded.lookup("aaaa").has_value());
  EXPECT_TRUE(reloaded.lookup("bbbb").has_value());
  fs::remove_all(dir);
}

TEST(ObligationCacheUnit, LegacyUnframedStoreLinesStillLoad) {
  const fs::path dir = scratchDir("cmc_obligation_cache_legacy");
  fs::create_directories(dir);
  {
    // A store written before the CRC framing existed: bare JSONL.
    std::ofstream out(dir / "obligations.jsonl");
    out << "{\"fp\": \"old1\", \"verdict\": \"Holds\", \"rule\": \"direct\", "
           "\"engine\": \"partitioned\", \"seconds\": 0.5}\n";
  }
  ObligationCache::Options opts;
  opts.dir = dir.string();
  ObligationCache cache(opts);
  EXPECT_EQ(cache.stats().loaded, 1u);
  EXPECT_EQ(cache.stats().corruptLines, 0u);
  EXPECT_TRUE(cache.lookup("old1").has_value());
  fs::remove_all(dir);
}

TEST(ObligationCacheUnit, CorruptAndTruncatedDiskLinesAreSkipped) {
  const fs::path dir = scratchDir("cmc_obligation_cache_corrupt");
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache cache(opts);
    CachedVerdict v;
    v.verdict = Verdict::Fails;
    v.rule = "direct";
    v.engine = "partitioned";
    v.seconds = 0.25;
    v.counterexample = "violating state: s=1 \"quoted\"\n";
    EXPECT_TRUE(cache.insert("aaaa", v));
    v.verdict = Verdict::Holds;
    v.counterexample.clear();
    EXPECT_TRUE(cache.insert("bbbb", v));
  }
  {
    // Sabotage the store: garbage, a truncated append, and a verdict that
    // must never be persisted.
    std::ofstream out(dir / "obligations.jsonl", std::ios::app);
    out << "not json at all\n";
    out << "{\"fp\": \"cccc\", \"verdict\": \"Holds\", \"rule\": \"dir";
    out << "\n";
    out << "{\"fp\": \"dddd\", \"verdict\": \"Timeout\", \"rule\": \"x\", "
           "\"engine\": \"y\", \"seconds\": 1}\n";
  }
  ObligationCache::Options opts;
  opts.dir = dir.string();
  ObligationCache reloaded(opts);
  EXPECT_EQ(reloaded.stats().loaded, 2u);
  EXPECT_EQ(reloaded.stats().corruptLines, 3u);
  const auto hit = reloaded.lookup("aaaa");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Verdict::Fails);
  EXPECT_EQ(hit->rule, "direct");
  EXPECT_EQ(hit->engine, "partitioned");
  EXPECT_EQ(hit->counterexample, "violating state: s=1 \"quoted\"\n");
  EXPECT_TRUE(reloaded.lookup("bbbb").has_value());
  EXPECT_FALSE(reloaded.lookup("cccc").has_value());
  EXPECT_FALSE(reloaded.lookup("dddd").has_value());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

TEST(ObligationCacheService, IdenticalResubmissionIsServedFromCache) {
  VerificationService svc(withThreads(2));
  const JobReport cold = svc.run(chainJob());
  EXPECT_TRUE(cold.allHold());
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.cacheMisses, 1u);
  EXPECT_EQ(cold.cacheInserts, 1u);
  ASSERT_EQ(cold.obligations.size(), 1u);
  EXPECT_EQ(cold.obligations.front().verdictSource, "checked");
  EXPECT_TRUE(cold.obligations.front().cacheInserted);
  EXPECT_FALSE(cold.obligations.front().fingerprint.empty());

  RunTrace trace;
  const JobReport warm = svc.run(chainJob(), &trace);
  EXPECT_TRUE(warm.allHold());
  EXPECT_EQ(warm.cacheHits, 1u);
  EXPECT_EQ(warm.cacheMisses, 0u);
  ASSERT_EQ(warm.obligations.size(), 1u);
  const ObligationOutcome& o = warm.obligations.front();
  EXPECT_EQ(o.verdictSource, "cache");
  EXPECT_EQ(o.verdict, cold.obligations.front().verdict);
  EXPECT_EQ(o.rule, cold.obligations.front().rule);
  EXPECT_TRUE(o.attempts.empty());  // zero checker invocations
  EXPECT_EQ(o.fingerprint, cold.obligations.front().fingerprint);
  EXPECT_EQ(trace.countContaining("\"event\": \"cache_hit\""), 1u);
  EXPECT_EQ(trace.countContaining("\"verdict_source\": \"cache\""), 1u);
  EXPECT_NE(warm.toJson().find("\"verdict_source\": \"cache\""),
            std::string::npos);
}

TEST(ObligationCacheService, RestrictionIndexIsPartOfTheKey) {
  // Same module, same formula — only r = (I, F) differs.  The cache must
  // miss: ⊨_r verdicts are not transferable across restrictions.
  VerificationService svc(withThreads(1));
  const auto jobWithInit = [](const std::string& value) {
    VerificationJob job;
    job.name = "chain-init-" + value;
    job.factory = [value](symbolic::Context& ctx) {
      smv::ElaboratedModule mod = smv::elaborateText(ctx, kChainSmv);
      for (ctl::Spec& spec : mod.specs) {
        spec.r.init = ctl::eq("s", value);
      }
      return std::vector<smv::ElaboratedModule>{std::move(mod)};
    };
    return job;
  };
  const JobReport first = svc.run(jobWithInit("a"));
  EXPECT_EQ(first.cacheMisses, 1u);
  const JobReport other = svc.run(jobWithInit("b"));
  EXPECT_EQ(other.cacheHits, 0u);
  EXPECT_EQ(other.cacheMisses, 1u);
  const JobReport again = svc.run(jobWithInit("a"));
  EXPECT_EQ(again.cacheHits, 1u);
  EXPECT_EQ(again.cacheMisses, 0u);
}

TEST(ObligationCacheService, ClusterThresholdIsPartOfTheKey) {
  VerificationService svc(withThreads(1));
  EXPECT_EQ(svc.run(chainJob()).cacheInserts, 1u);
  VerificationJob tuned = chainJob();
  tuned.options.clusterThreshold = 3;
  const JobReport report = svc.run(tuned);
  EXPECT_EQ(report.cacheHits, 0u);
  EXPECT_EQ(report.cacheMisses, 1u);
  EXPECT_EQ(report.cacheInserts, 1u);
  EXPECT_EQ(svc.cache()->size(), 2u);
}

TEST(ObligationCacheService, InconclusiveIsNeverCached) {
  VerificationService svc(withThreads(1));
  VerificationJob job = chainJob();
  job.options.limits.deadlineSeconds = 1e-9;
  const JobReport first = svc.run(job);
  ASSERT_EQ(first.obligations.size(), 1u);
  EXPECT_EQ(first.obligations.front().verdict, Verdict::Inconclusive);
  EXPECT_EQ(first.cacheInserts, 0u);
  EXPECT_EQ(svc.cache()->size(), 0u);
  // Resubmission must check again, not serve the non-verdict.
  const JobReport second = svc.run(job);
  EXPECT_EQ(second.cacheHits, 0u);
  ASSERT_EQ(second.obligations.size(), 1u);
  EXPECT_EQ(second.obligations.front().verdictSource, "checked");
}

TEST(ObligationCacheService, DisabledCacheReportsNothing) {
  ServiceOptions opts;
  opts.threads = 1;
  opts.cacheEnabled = false;
  VerificationService svc(opts);
  EXPECT_EQ(svc.cache(), nullptr);
  const JobReport report = svc.run(chainJob());
  EXPECT_TRUE(report.allHold());
  EXPECT_EQ(report.cacheHits + report.cacheMisses + report.cacheInserts, 0u);
  ASSERT_EQ(report.obligations.size(), 1u);
  EXPECT_EQ(report.obligations.front().verdictSource, "checked");
  EXPECT_TRUE(report.obligations.front().fingerprint.empty());
}

TEST(ObligationCacheService, DiskStoreRoundTripsAcrossServiceInstances) {
  const fs::path dir = scratchDir("cmc_obligation_cache_service");
  ServiceOptions opts;
  opts.threads = 2;
  opts.cacheDir = dir.string();
  {
    VerificationService svc(opts);
    const JobReport cold = svc.run(chainJob());
    EXPECT_EQ(cold.cacheInserts, 1u);
  }
  {
    VerificationService svc(opts);
    ASSERT_NE(svc.cache(), nullptr);
    EXPECT_EQ(svc.cache()->stats().loaded, 1u);
    const JobReport warm = svc.run(chainJob());
    EXPECT_EQ(warm.cacheHits, 1u);
    ASSERT_EQ(warm.obligations.size(), 1u);
    EXPECT_EQ(warm.obligations.front().verdictSource, "cache");
    EXPECT_TRUE(warm.obligations.front().attempts.empty());
  }
  fs::remove_all(dir);
}

TEST(ObligationCacheService, ConcurrentBatchSharesOneCache) {
  // 16 jobs with identical content race on one fingerprint across 8
  // workers: exactly one insert may win, every verdict must agree, and the
  // counters must balance.  (The sanitizer CI job runs this under TSan.)
  VerificationService svc(withThreads(8));
  std::vector<VerificationJob> jobs;
  for (int i = 0; i < 16; ++i) {
    VerificationJob job = chainJob();
    job.name = "chain-" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  const std::vector<JobReport> reports = svc.runBatch(jobs);
  ASSERT_EQ(reports.size(), jobs.size());
  std::uint64_t hits = 0, misses = 0, inserts = 0;
  for (const JobReport& report : reports) {
    EXPECT_TRUE(report.allHold()) << report.job;
    hits += report.cacheHits;
    misses += report.cacheMisses;
    inserts += report.cacheInserts;
  }
  EXPECT_EQ(hits + misses, jobs.size());
  EXPECT_EQ(inserts, 1u);  // one fingerprint, one winner
  EXPECT_EQ(svc.cache()->size(), 1u);
  const ObligationCacheStats stats = svc.cache()->stats();
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.misses, misses);
  EXPECT_EQ(stats.inserts, inserts);
}

TEST(ObligationCacheService, TwoProcessesShareOneStoreWithoutTornLines) {
  // Multi-process safety satellite: a daemon and a one-shot `cmc check`
  // (or two daemons) pointed at the same --cache-dir append concurrently.
  // flock + single-write(2)-per-entry must keep every line whole: after
  // both processes finish, a fresh load sees every entry and zero corrupt
  // lines, and exactly one process won the header race.
  const fs::path dir = scratchDir("cmc_obligation_cache_two_process");
  constexpr int kPerProcess = 64;
  CachedVerdict v;
  v.verdict = Verdict::Holds;
  v.rule = "direct";
  v.engine = "partitioned";
  v.seconds = 0.01;

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: its own cache instance on the shared dir; plain _exit so no
    // gtest teardown runs in the forked copy.
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache mine(opts);
    for (int i = 0; i < kPerProcess; ++i) {
      mine.insert("child-" + std::to_string(i), v);
    }
    ::_exit(0);
  }
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache mine(opts);
    for (int i = 0; i < kPerProcess; ++i) {
      mine.insert("parent-" + std::to_string(i), v);
    }
  }
  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  ObligationCache::Options opts;
  opts.dir = dir.string();
  ObligationCache merged(opts);
  EXPECT_EQ(merged.stats().loaded,
            static_cast<std::uint64_t>(2 * kPerProcess));
  EXPECT_EQ(merged.stats().corruptLines, 0u);
  EXPECT_TRUE(merged.lookup("parent-0").has_value());
  EXPECT_TRUE(merged.lookup("child-" + std::to_string(kPerProcess - 1))
                  .has_value());

  // Exactly one header line despite the two-process creation race.
  std::size_t headers = 0;
  std::ifstream in(dir / "obligations.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("cmc-obligation-cache-v2") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Replayed Fails without a stored counterexample: the trace must say so
// instead of silently presenting a Fails that looks uninvestigable, and
// --trace-force re-checks to regenerate the trace.
// ---------------------------------------------------------------------------

const char* kFailingSmv = R"(
MODULE stuck
VAR s : {a, b};
ASSIGN next(s) := b;
SPEC AG (s = a)
)";

/// Seed `dir` with a decided Fails for kFailingSmv's one obligation whose
/// counterexample was not stored (an old-format or trimmed cache entry).
std::string seedCounterexampleFreeFails(const fs::path& dir,
                                        const JobOptions& options) {
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  job.options = options;
  const SnapshotResult snap = buildSnapshot(job, /*wantCanon=*/true);
  EXPECT_TRUE(snap.snapshot) << snap.error;
  const std::vector<ObligationRef> refs =
      enumerateObligations(*snap.snapshot, job.options);
  EXPECT_EQ(refs.size(), 1u);
  EXPECT_FALSE(refs.front().fingerprint.empty());

  ObligationCache::Options copts;
  copts.dir = dir.string();
  ObligationCache cache(copts);
  CachedVerdict v;
  v.verdict = Verdict::Fails;
  v.rule = "direct";
  v.engine = "partitioned";
  EXPECT_TRUE(cache.insert(refs.front().fingerprint, v));
  return refs.front().fingerprint;
}

TEST(ObligationCacheService, CacheServedFailsWithoutCounterexampleIsAnnounced) {
  const fs::path dir = scratchDir("cmc_trace_unavailable");
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  seedCounterexampleFreeFails(dir, job.options);

  ServiceOptions so = withThreads(1);
  so.cacheDir = dir.string();
  VerificationService svc(so);
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // The verdict is served as stored — but the trace says the
  // counterexample is not reconstructible from the replay.
  EXPECT_EQ(o.verdict, Verdict::Fails);
  EXPECT_EQ(o.verdictSource, "cache");
  EXPECT_TRUE(o.counterexample.empty());
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_unavailable\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_forced_recheck\""), 0u);
  fs::remove_all(dir);
}

TEST(ObligationCacheService, TraceForceRechecksACounterexampleFreeReplay) {
  const fs::path dir = scratchDir("cmc_trace_force");
  VerificationJob job;
  job.name = "stuck";
  job.smvText = kFailingSmv;
  // traceForce must not change the fingerprint — the seeded entry is
  // written without it and must still be the one the forced run hits.
  seedCounterexampleFreeFails(dir, job.options);
  job.options.traceForce = true;

  ServiceOptions so = withThreads(1);
  so.cacheDir = dir.string();
  VerificationService svc(so);
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Re-checked on demand: same verdict, fresh counterexample.
  EXPECT_EQ(o.verdict, Verdict::Fails);
  EXPECT_EQ(o.verdictSource, "checked");
  EXPECT_FALSE(o.counterexample.empty());
  EXPECT_FALSE(o.attempts.empty());
  EXPECT_EQ(trace.countContaining("\"event\": \"trace_forced_recheck\""), 1u);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Offline compaction (cmc cache compact)
// ---------------------------------------------------------------------------

TEST(ObligationCacheCompaction, LastWriteWinsAndCorruptLinesAreDropped) {
  const fs::path dir = scratchDir("cmc_obligation_cache_compact");
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache cache(opts);
    CachedVerdict v;
    v.verdict = Verdict::Holds;
    v.rule = "direct";
    v.engine = "partitioned";
    v.seconds = 0.125;
    EXPECT_TRUE(cache.insert("aaaa", v));
    EXPECT_TRUE(cache.insert("bbbb", v));
    EXPECT_TRUE(cache.insert("cccc", v));
  }
  {
    // What a long-lived store accretes: a NEWER write for an existing
    // fingerprint (re-checked after an eviction), garbage from a torn
    // append, and a line from before the CRC framing existed.
    std::ofstream out(dir / "obligations.jsonl", std::ios::app);
    out << frameLine("{\"fp\": \"aaaa\", \"verdict\": \"Fails\", "
                     "\"rule\": \"rechecked\", \"engine\": \"monolithic\", "
                     "\"seconds\": 0.5}")
        << "\n";
    out << "{\"fp\": \"torn...\n";
    out << "{\"fp\": \"old1\", \"verdict\": \"Holds\", \"rule\": "
           "\"direct\", \"engine\": \"partitioned\", \"seconds\": 0.5}\n";
  }
  const std::uint64_t sizeBefore = fs::file_size(dir / "obligations.jsonl");

  CompactionResult result;
  std::string err;
  ASSERT_TRUE(compactObligationStore(dir.string(), &result, &err)) << err;
  EXPECT_EQ(result.entriesBefore, 5u);  // 3 + duplicate + legacy
  EXPECT_EQ(result.entriesAfter, 4u);
  EXPECT_EQ(result.duplicates, 1u);
  EXPECT_EQ(result.corrupt, 1u);
  EXPECT_EQ(result.bytesBefore, sizeBefore);
  EXPECT_LT(result.bytesAfter, result.bytesBefore);
  EXPECT_EQ(result.bytesAfter, fs::file_size(dir / "obligations.jsonl"));

  // The compacted store is fully framed (legacy line included) and loads
  // clean, with the duplicate resolved to the LAST write.
  {
    std::ifstream in(dir / "obligations.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      EXPECT_TRUE(unframeLine(line).has_value()) << line;
    }
  }
  ObligationCache::Options opts;
  opts.dir = dir.string();
  ObligationCache reloaded(opts);
  EXPECT_EQ(reloaded.stats().loaded, 4u);
  EXPECT_EQ(reloaded.stats().corruptLines, 0u);
  const std::optional<CachedVerdict> winner = reloaded.lookup("aaaa");
  ASSERT_TRUE(winner.has_value());
  EXPECT_EQ(winner->verdict, Verdict::Fails);
  EXPECT_EQ(winner->rule, "rechecked");
  EXPECT_TRUE(reloaded.lookup("bbbb").has_value());
  EXPECT_TRUE(reloaded.lookup("cccc").has_value());
  EXPECT_TRUE(reloaded.lookup("old1").has_value());

  // Compaction is idempotent: a second pass finds nothing to drop.
  ASSERT_TRUE(compactObligationStore(dir.string(), &result, &err)) << err;
  EXPECT_EQ(result.duplicates, 0u);
  EXPECT_EQ(result.corrupt, 0u);
  EXPECT_EQ(result.entriesBefore, result.entriesAfter);
  fs::remove_all(dir);
}

TEST(ObligationCacheCompaction, RefusesMissingOrForeignStores) {
  CompactionResult result;
  std::string err;
  const fs::path missing = scratchDir("cmc_obligation_cache_compact_missing");
  EXPECT_FALSE(compactObligationStore(missing.string(), &result, &err));
  EXPECT_FALSE(err.empty());

  // A store of some other format must be left alone, not rewritten.
  const fs::path dir = scratchDir("cmc_obligation_cache_compact_foreign");
  fs::create_directories(dir);
  {
    std::ofstream out(dir / "obligations.jsonl");
    out << frameLine("{\"format\": \"somebody-elses-v9\"}") << "\n";
    out << "{\"fp\": \"x\", \"verdict\": \"Holds\", \"rule\": \"direct\", "
           "\"engine\": \"partitioned\", \"seconds\": 0.5}\n";
  }
  const std::uint64_t sizeBefore = fs::file_size(dir / "obligations.jsonl");
  EXPECT_FALSE(compactObligationStore(dir.string(), &result, &err));
  EXPECT_NE(err.find("format"), std::string::npos) << err;
  EXPECT_EQ(fs::file_size(dir / "obligations.jsonl"), sizeBefore);
  fs::remove_all(dir);
}

TEST(ObligationCacheCompaction, RefusesAStoreFlockedByALiveWriter) {
  const fs::path dir = scratchDir("cmc_obligation_cache_compact_locked");
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache cache(opts);
    CachedVerdict v;
    v.verdict = Verdict::Holds;
    v.rule = "direct";
    v.engine = "partitioned";
    v.seconds = 0.125;
    EXPECT_TRUE(cache.insert("aaaa", v));
  }
  const fs::path store = dir / "obligations.jsonl";
  const std::uint64_t sizeBefore = fs::file_size(store);

  // A "live writer": someone holds the store's exclusive flock, exactly
  // as an appending `cmc serve` would mid-append.
  const int writerFd = ::open(store.c_str(), O_RDWR);
  ASSERT_GE(writerFd, 0);
  ASSERT_EQ(::flock(writerFd, LOCK_EX), 0);

  CompactionResult result;
  std::string err;
  EXPECT_FALSE(compactObligationStore(dir.string(), &result, &err));
  EXPECT_NE(err.find("live writer"), std::string::npos) << err;
  EXPECT_EQ(fs::file_size(store), sizeBefore);

  // Once the writer lets go, the same compaction goes through.
  ASSERT_EQ(::flock(writerFd, LOCK_UN), 0);
  ::close(writerFd);
  EXPECT_TRUE(compactObligationStore(dir.string(), &result, &err)) << err;
  fs::remove_all(dir);
}

TEST(ObligationCacheCompaction, AbortBeforeRenameLeavesTheOriginalIntact) {
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  const fs::path dir = scratchDir("cmc_obligation_cache_compact_crash");
  {
    ObligationCache::Options opts;
    opts.dir = dir.string();
    ObligationCache cache(opts);
    CachedVerdict v;
    v.verdict = Verdict::Holds;
    v.rule = "direct";
    v.engine = "partitioned";
    v.seconds = 0.125;
    EXPECT_TRUE(cache.insert("aaaa", v));
    EXPECT_TRUE(cache.insert("bbbb", v));
  }
  const fs::path store = dir / "obligations.jsonl";
  {
    // A duplicate, so a successful compaction would rewrite the store —
    // proving the aborted one really did leave it alone.
    std::ofstream out(store, std::ios::app);
    out << frameLine("{\"fp\": \"aaaa\", \"verdict\": \"Fails\", \"rule\": "
                     "\"rechecked\", \"engine\": \"monolithic\", "
                     "\"seconds\": 0.5}")
        << "\n";
  }
  std::string original;
  {
    std::ifstream in(store);
    std::stringstream buf;
    buf << in.rdbuf();
    original = buf.str();
  }

  util::Failpoint::configure("cache.compact=error");
  CompactionResult result;
  std::string err;
  EXPECT_FALSE(compactObligationStore(dir.string(), &result, &err));
  util::Failpoint::disarmAll();
  EXPECT_NE(err.find("compaction aborted"), std::string::npos) << err;

  // The crash window left no trace: original byte-identical, temp file
  // gone.
  {
    std::ifstream in(store);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), original);
  }
  EXPECT_FALSE(fs::exists(dir / "obligations.jsonl.compact.tmp"));

  // And the flock was released: an immediate retry succeeds and resolves
  // the duplicate.
  ASSERT_TRUE(compactObligationStore(dir.string(), &result, &err)) << err;
  EXPECT_EQ(result.duplicates, 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cmc::service
