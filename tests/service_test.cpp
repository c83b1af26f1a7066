// Tests for the verification service layer: job expansion, resource
// budgets (deadline and node budget), the engine degradation/retry policy,
// worker quarantine, cooperative cancellation, journal integration, and
// the structured run trace / report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "gen/modelgen.hpp"
#include "service/budget.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "smv/elaborate.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "test_util.hpp"
#include "util/failpoint.hpp"

namespace cmc::service {
namespace {

/// Three-phase protocol with one trivially true safety spec.
const char* kChainSmv = R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)";

/// Two modules sharing x, both keeping it constant: the universal spec is
/// discharged on the composition by Rule 2 (every expansion satisfies it).
const char* kTwoModuleSmv = R"(
MODULE mA
VAR x : {on, off};
ASSIGN next(x) := x;
SPEC (x = on) -> AX (x = on)
MODULE mB
VAR
  x : {on, off};
  y : {p, q};
ASSIGN
  next(x) := x;
  next(y) := case y = p : q; 1 : p; esac;
SPEC (x = on) -> AX (x = on)
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

TEST(Service, VerdictAggregationIsWorstOf) {
  EXPECT_EQ(worseVerdict(Verdict::Holds, Verdict::Timeout), Verdict::Timeout);
  EXPECT_EQ(worseVerdict(Verdict::Timeout, Verdict::MemoryOut),
            Verdict::MemoryOut);
  EXPECT_EQ(worseVerdict(Verdict::Inconclusive, Verdict::Fails),
            Verdict::Fails);
  EXPECT_EQ(worseVerdict(Verdict::Fails, Verdict::Error), Verdict::Fails);
  EXPECT_STREQ(toString(Verdict::MemoryOut), "MemoryOut");
}

TEST(Service, HoldingJobProducesReportAndTrace) {
  VerificationService svc(withThreads(2));
  RunTrace trace;
  const JobReport report = svc.run(chainJob(), &trace);

  EXPECT_TRUE(report.allHold());
  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Holds);
  EXPECT_EQ(o.rule, "direct");
  EXPECT_EQ(o.target, "chain");
  EXPECT_FALSE(o.retried);
  ASSERT_EQ(o.attempts.size(), 1u);
  EXPECT_EQ(o.attempts.front().engine, "partitioned");

  EXPECT_EQ(trace.countContaining("\"event\": \"job_start\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"obligation_start\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"obligation_end\""), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 0u);
  EXPECT_EQ(trace.countContaining("\"event\": \"job_end\""), 1u);

  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"verdict\": \"Holds\""), std::string::npos);
  EXPECT_NE(json.find("\"obligation_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"partitioned\""), std::string::npos);
}

TEST(Service, AStreamingTraceKeepsNoLines) {
  // A daemon's trace lives as long as the daemon: whatever it streams must
  // not also pile up in memory.
  constexpr std::size_t kEvents = 1000;
  std::ostringstream sink;
  RunTrace streamed(&sink);
  RunTrace kept;
  for (std::size_t k = 0; k < kEvents; ++k) {
    const JsonObject event =
        JsonObject().put("event", "tick").putUint("k", k);
    streamed.emit(event);
    kept.emit(event);
  }
  const std::string text = sink.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            kEvents);
  EXPECT_TRUE(streamed.lines().empty());
  EXPECT_EQ(streamed.countContaining("\"event\": \"tick\""), 0u);
  EXPECT_EQ(kept.lines().size(), kEvents);

  // A service run streams every event and keeps none either.
  std::ostringstream jobSink;
  RunTrace jobTrace(&jobSink);
  VerificationService svc(withThreads(2));
  EXPECT_TRUE(svc.run(chainJob(), &jobTrace).allHold());
  EXPECT_NE(jobSink.str().find("\"event\": \"job_end\""), std::string::npos);
  EXPECT_TRUE(jobTrace.lines().empty());

  // Nor does a trace whose sink has failed.
  std::ostringstream broken;
  broken.setstate(std::ios::badbit);
  RunTrace stopped(&broken);
  for (std::size_t k = 0; k < 3; ++k) {
    stopped.emit(JsonObject().put("event", "tick"));
  }
  EXPECT_TRUE(stopped.lines().empty());
}

TEST(Service, DeadlineExpiryYieldsTimeoutThenInconclusive) {
  VerificationJob job = chainJob();
  job.options.limits.deadlineSeconds = 1e-9;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Both engines ran out of time, so the obligation is Inconclusive and
  // the report records one attempt per engine.
  EXPECT_EQ(o.verdict, Verdict::Inconclusive);
  EXPECT_TRUE(o.retried);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_EQ(o.attempts[0].engine, "partitioned");
  EXPECT_EQ(o.attempts[0].verdict, Verdict::Timeout);
  EXPECT_EQ(o.attempts[1].engine, "monolithic");
  EXPECT_EQ(o.attempts[1].verdict, Verdict::Timeout);

  EXPECT_GE(trace.countContaining("\"verdict\": \"Timeout\""), 2u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 1u);
  EXPECT_EQ(trace.countContaining("\"reason\": \"Timeout\""), 1u);
}

/// Two modules whose specs are propositional: on the composition they are
/// Rule 1 obligations, and the expansions stutter by construction, so
/// their checks run no preimage at all.
const char* kPropositionalPairSmv = R"(
MODULE mA
VAR x : {on, off};
ASSIGN next(x) := x;
SPEC x = on | x = off
MODULE mB
VAR y : {p, q};
ASSIGN next(y) := case y = p : q; 1 : p; esac;
SPEC y = p | y = q
)";

TEST(Service, DeadlineBindsOnACheckThatRunsNoFixpoint) {
  VerificationJob job;
  job.name = "pair";
  job.smvText = kPropositionalPairSmv;
  job.options.compose = true;
  job.options.limits.deadlineSeconds = 1e-9;

  VerificationService svc(withThreads(1));
  const JobReport report = svc.run(job);

  // The checker polls the budget on entry to every check, so a free fair
  // region never turns an expired deadline into a verdict.
  ASSERT_EQ(report.obligations.size(), 4u);
  std::size_t composed = 0;
  for (const ObligationOutcome& o : report.obligations) {
    EXPECT_EQ(o.verdict, Verdict::Inconclusive) << o.id;
    ASSERT_EQ(o.attempts.size(), 2u) << o.id;
    EXPECT_EQ(o.attempts[0].verdict, Verdict::Timeout) << o.id;
    EXPECT_EQ(o.attempts[1].verdict, Verdict::Timeout) << o.id;
    if (o.target == "composed") ++composed;
  }
  EXPECT_EQ(composed, 2u);

  // Without the deadline the composed obligations are Rule 1 lifts.
  job.options.limits.deadlineSeconds = 0;
  const JobReport decided = svc.run(job);
  EXPECT_TRUE(decided.allHold());
  for (const ObligationOutcome& o : decided.obligations) {
    if (o.target == "composed") {
      EXPECT_EQ(o.rule, "existential (Rules 1/3)") << o.id;
    }
  }
}

TEST(Service, TinyNodeBudgetOnAfs2YieldsMemoryOutNotAHang) {
  // The ISSUE's acceptance scenario: a deliberately impossible node budget
  // on an AFS-2 model must surface as MemoryOut attempts plus a retry
  // event in the trace — never a crash or hang.
  VerificationJob job;
  job.name = "afs2";
  job.smvText = gen::afs2Model(2);
  job.options.limits.nodeBudget = 1;

  VerificationService svc(withThreads(2));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  EXPECT_EQ(report.verdict, Verdict::Inconclusive);
  ASSERT_FALSE(report.obligations.empty());
  for (const ObligationOutcome& o : report.obligations) {
    EXPECT_EQ(o.verdict, Verdict::Inconclusive) << o.id;
    EXPECT_TRUE(o.retried) << o.id;
    ASSERT_EQ(o.attempts.size(), 2u) << o.id;
    EXPECT_EQ(o.attempts[0].verdict, Verdict::MemoryOut) << o.id;
    EXPECT_EQ(o.attempts[1].verdict, Verdict::MemoryOut) << o.id;
  }
  EXPECT_GE(trace.countContaining("\"verdict\": \"MemoryOut\""), 2u);
  EXPECT_GE(trace.countContaining("\"event\": \"retry\""), 1u);
  EXPECT_GE(trace.countContaining("\"reason\": \"MemoryOut\""), 1u);
  // The degradation policy goes partitioned -> monolithic by default.
  EXPECT_GE(trace.countContaining("\"from_engine\": \"partitioned\""), 1u);
  EXPECT_GE(trace.countContaining("\"to_engine\": \"monolithic\""), 1u);
}

TEST(Service, RetryDegradesMonolithicToPartitionedToo) {
  VerificationJob job = chainJob();
  job.options.engine = symbolic::EngineMode::Monolithic;
  job.options.limits.nodeBudget = 1;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Inconclusive);
  ASSERT_EQ(o.attempts.size(), 2u);
  EXPECT_EQ(o.attempts[0].engine, "monolithic");
  EXPECT_EQ(o.attempts[1].engine, "partitioned");
  EXPECT_GE(trace.countContaining("\"from_engine\": \"monolithic\""), 1u);
  EXPECT_GE(trace.countContaining("\"to_engine\": \"partitioned\""), 1u);
}

TEST(Service, NoRetryKeepsTheSingleAttemptVerdict) {
  VerificationJob job = chainJob();
  job.options.limits.deadlineSeconds = 1e-9;
  job.options.retryOtherEngine = false;

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  ASSERT_EQ(report.obligations.size(), 1u);
  const ObligationOutcome& o = report.obligations.front();
  // Without the degradation retry the budget verdict itself stands.
  EXPECT_EQ(o.verdict, Verdict::Timeout);
  EXPECT_FALSE(o.retried);
  EXPECT_EQ(o.attempts.size(), 1u);
  EXPECT_EQ(trace.countContaining("\"event\": \"retry\""), 0u);
}

TEST(Service, ComposedObligationsCarryRuleAndCertificate) {
  VerificationJob job;
  job.name = "twomod";
  job.smvText = kTwoModuleSmv;
  job.options.compose = true;

  VerificationService svc(withThreads(2));
  const JobReport report = svc.run(job);

  EXPECT_TRUE(report.allHold());
  // 2 component obligations + 2 composed ones.
  ASSERT_EQ(report.obligations.size(), 4u);
  std::size_t composed = 0;
  for (const ObligationOutcome& o : report.obligations) {
    EXPECT_EQ(o.verdict, Verdict::Holds) << o.id;
    if (o.target == "composed") {
      ++composed;
      EXPECT_NE(o.rule.find("Rule 2"), std::string::npos) << o.rule;
      EXPECT_FALSE(o.proofJson.empty()) << o.id;
    } else {
      EXPECT_EQ(o.rule, "direct");
      EXPECT_TRUE(o.proofJson.empty());
    }
  }
  EXPECT_EQ(composed, 2u);
  EXPECT_NE(report.toJson().find("\"proof\": ["), std::string::npos);
}

std::string readModel(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServiceSnapshot, SharedCompositionDecidesLikeAPerAttemptComposition) {
  // Every multi-module model with a spec outside Rules 1-3 appended, so its
  // snapshot composes, and every composed attempt imports that shared
  // composition.  Each composed verdict must match a direct Checker over
  // composeAll of the reflexive closures, composed apart from the service.
  // Four workers import the shared composition concurrently (the TSan job
  // covers the sharing).
  namespace fs = std::filesystem;
  const fs::path models(CMC_MODELS_DIR);
  std::vector<fs::path> paths{models / "gen" / "afs2_3.smv",
                              models / "gen" / "ring_3.smv"};
  for (const auto& entry : fs::directory_iterator(models)) {
    if (entry.path().extension() == ".smv") paths.push_back(entry.path());
  }
  std::size_t composedChecked = 0;
  ServiceOptions opts = withThreads(4);
  opts.cacheEnabled = false;
  VerificationService svc(opts);
  for (const fs::path& path : paths) {
    const std::string text = readModel(path) + "\nSPEC AG TRUE\n";
    symbolic::Context ctx(1 << 14);
    const std::vector<smv::ElaboratedModule> modules =
        smv::elaborateProgram(ctx, text);
    if (modules.size() < 2) continue;
    std::vector<symbolic::SymbolicSystem> parts;
    std::map<std::string, const ctl::Spec*> specs;
    for (const smv::ElaboratedModule& mod : modules) {
      symbolic::SymbolicSystem sys = mod.sys;
      symbolic::addReflexive(sys);
      parts.push_back(std::move(sys));
      for (const ctl::Spec& spec : mod.specs) {
        specs["composed/" + spec.name] = &spec;
      }
    }
    const symbolic::SymbolicSystem composed = symbolic::composeAll(parts);
    symbolic::Checker direct(composed);
    std::map<std::string, bool> holds;
    for (const auto& [id, spec] : specs) holds[id] = direct.holds(*spec);
    for (symbolic::EngineMode engine :
         {symbolic::EngineMode::Auto, symbolic::EngineMode::Partitioned,
          symbolic::EngineMode::Monolithic}) {
      SCOPED_TRACE(path.filename().string() + " " + symbolic::toString(engine));
      VerificationJob job;
      job.name = path.stem().string();
      job.smvText = text;
      job.options.compose = true;
      job.options.engine = engine;
      RunTrace trace;
      const JobReport report = svc.run(job, &trace);
      EXPECT_EQ(trace.countContaining("\"compose_ms\""), 1u);
      for (const ObligationOutcome& o : report.obligations) {
        if (o.target != "composed") continue;
        ASSERT_EQ(holds.count(o.id), 1u) << o.id;
        EXPECT_EQ(o.verdict, holds[o.id] ? Verdict::Holds : Verdict::Fails)
            << o.id << " (" << o.rule << ")";
        ++composedChecked;
      }
    }
  }
  // afs1_composed (3), afs2_composed (6), afs2_3 (9) and ring_3 (3), each
  // with the appended spec, and alternating_bit and token_ring_3 with that
  // spec alone — per engine.
  EXPECT_EQ(composedChecked, 3u * 27u);
}

TEST(ServiceSnapshot, OnlyComposeJobsCarryAComposition) {
  // A snapshot is composed iff the job composes and some composed spec is
  // outside Rules 1-3.  kTwoModuleSmv's specs are all Rule 2; one AG spec
  // appended takes the global check.
  const std::string outsideTheRules =
      std::string(kTwoModuleSmv) + "SPEC AG (x = on | x = off)\n";
  VerificationJob job;
  job.name = "twomod";
  job.smvText = outsideTheRules;

  const SnapshotResult plain = buildSnapshot(job, /*wantCanon=*/false);
  ASSERT_NE(plain.snapshot, nullptr) << plain.error;
  EXPECT_FALSE(plain.snapshot->composed.has_value());
  EXPECT_FALSE(plain.snapshot->composeSeconds.has_value());
  EXPECT_FALSE(plain.snapshot->canonSeconds.has_value());

  job.options.compose = true;
  const SnapshotResult composed = buildSnapshot(job, /*wantCanon=*/true);
  ASSERT_NE(composed.snapshot, nullptr) << composed.error;
  const ElaborationSnapshot& snap = *composed.snapshot;
  ASSERT_TRUE(snap.composed.has_value());
  EXPECT_TRUE(snap.composeSeconds.has_value());
  EXPECT_EQ(snap.composed->vars.size(), snap.ctx->varCount());
  EXPECT_TRUE(snap.composed->stuttersByConstruction());
  ASSERT_TRUE(snap.canonSeconds.has_value());
  EXPECT_GT(*snap.canonSeconds, 0.0);

  // Rules 1-3 decide every composed spec: nothing composed, the
  // composition unprobed (mB, which covers the context, still is), and the
  // composed obligations' choice says why.
  job.smvText = kTwoModuleSmv;
  job.options.engine = symbolic::EngineMode::Auto;
  const SnapshotResult ruled = buildSnapshot(job, /*wantCanon=*/false);
  ASSERT_NE(ruled.snapshot, nullptr) << ruled.error;
  EXPECT_FALSE(ruled.snapshot->composed.has_value());
  EXPECT_FALSE(ruled.snapshot->composeSeconds.has_value());
  EXPECT_TRUE(ruled.snapshot->moduleChoice.at(1).probed);
  EXPECT_TRUE(ruled.snapshot->composedChoice.usePartitioned);
  EXPECT_FALSE(ruled.snapshot->composedChoice.probed);
  EXPECT_NE(ruled.snapshot->composedChoice.reason.find("Rules 1-3"),
            std::string::npos);

  // A single-module compose job has no composed obligation to serve.
  job.smvText = kChainSmv;
  const SnapshotResult single = buildSnapshot(job, /*wantCanon=*/false);
  ASSERT_NE(single.snapshot, nullptr) << single.error;
  EXPECT_FALSE(single.snapshot->composed.has_value());
}

TEST(ServiceSnapshot, ComponentContextsAreSizedFromTheirModule) {
  // afs2(8): a client's import is a few hundred nodes, so its fresh
  // context gets the floor capacity; the server's is sized for its own
  // module, and a composed obligation's for the whole snapshot.
  std::ifstream in(std::filesystem::path(CMC_MODELS_DIR) / "gen" /
                   "afs2_8.smv");
  std::stringstream text;
  text << in.rdbuf();
  VerificationJob job;
  job.name = "afs2_8";
  job.smvText = text.str();
  job.options.compose = true;
  const SnapshotResult built = buildSnapshot(job, /*wantCanon=*/false);
  ASSERT_NE(built.snapshot, nullptr) << built.error;
  const ElaborationSnapshot& snap = *built.snapshot;
  ASSERT_EQ(snap.moduleNodes.size(), 9u);
  std::size_t clients = 0;
  std::uint64_t clientMax = 0;
  std::uint64_t server = 0;
  for (const ObligationRef& ref : enumerateObligations(snap, job.options)) {
    const std::uint64_t nodes = contextNodes(snap, ref);
    if (ref.composed) {
      EXPECT_EQ(nodes, snap.liveNodes) << ref.id;
    } else if (ref.target.find("client") != std::string::npos) {
      ++clients;
      clientMax = std::max(clientMax, nodes);
      EXPECT_EQ(workerArenaCapacity(nodes), std::size_t{1} << 12) << ref.id;
      EXPECT_EQ(workerCacheCapacity(nodes), std::size_t{1} << 12) << ref.id;
    } else {
      server = nodes;
    }
  }
  EXPECT_EQ(clients, 8u);
  EXPECT_LT(clientMax, 1000u);
  EXPECT_GT(server, 2 * clientMax);
  EXPECT_LT(server, snap.liveNodes);
}

TEST(Service, ElaborationFailureIsAnErrorOutcomeNotACrash) {
  VerificationJob job;
  job.name = "broken";
  job.smvText = "MODULE nonsense\nVAR !!!";

  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(job, &trace);

  EXPECT_EQ(report.verdict, Verdict::Error);
  ASSERT_EQ(report.obligations.size(), 1u);
  EXPECT_NE(report.obligations.front().id.find("<elaboration>"),
            std::string::npos);
  EXPECT_FALSE(report.obligations.front().error.empty());
}

TEST(Service, BatchInterleavesJobsAndReportsInOrder) {
  VerificationJob a = chainJob();
  a.name = "first";
  VerificationJob b = chainJob();
  b.name = "second";

  VerificationService svc(withThreads(2));
  RunTrace trace;
  const std::vector<JobReport> reports = svc.runBatch({a, b}, &trace);

  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].job, "first");
  EXPECT_EQ(reports[1].job, "second");
  EXPECT_TRUE(reports[0].allHold());
  EXPECT_TRUE(reports[1].allHold());
  EXPECT_EQ(trace.countContaining("\"event\": \"job_end\""), 2u);
}

TEST(Service, JsonEscapingHandlesControlCharacters) {
  EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(jsonEscape(std::string_view("\x01", 1)), "\\u0001");
  const std::string obj =
      JsonObject().put("k", "v\t").putUint("n", 3).str();
  EXPECT_EQ(obj, "{\"k\": \"v\\t\", \"n\": 3}");
}

// ---------------------------------------------------------------------------
// Worker quarantine
// ---------------------------------------------------------------------------

/// A chain whose one spec names a variable the model never declares.  The
/// scout never evaluates a spec, so the job enumerates; every attempt
/// throws in its worker once the checker looks the variable up, the
/// quarantine retry's rebuild from the text included.
VerificationJob unknownVariableJob() {
  VerificationJob job;
  job.name = "unknown";
  job.smvText = R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | t = b)
)";
  return job;
}

TEST(ServiceQuarantine, AnErrorAttemptRecordsOnlyWhatItMeasured) {
  // Both attempts throw in their checks.  The first imported its module
  // and the quarantine retry elaborated the text: each record and
  // "attempt" event carries that one phase, and no setup, fixpoint, peak
  // or count, which neither attempt got to.
  VerificationService svc(withThreads(1));
  RunTrace trace;
  const JobReport report = svc.run(unknownVariableJob(), &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  const std::vector<AttemptRecord>& attempts =
      report.obligations.front().attempts;
  ASSERT_EQ(attempts.size(), 2u);
  for (const AttemptRecord& a : attempts) {
    EXPECT_EQ(a.verdict, Verdict::Error);
    EXPECT_FALSE(a.warm);
    EXPECT_FALSE(a.peakLiveNodes || a.cacheHitRate || a.setupMs ||
                 a.fixpointMs || a.preimages || a.conePreimages);
  }
  EXPECT_TRUE(attempts[0].importMs && !attempts[0].elaborateMs);
  EXPECT_TRUE(attempts[1].elaborateMs && !attempts[1].importMs);
  // The elaborating retry's phases sum to no more than the attempt.
  EXPECT_LE(attempts[1].elaborateMs.value_or(0.0) / 1000.0,
            attempts[1].seconds * (1 + 1e-9));
  // The one phase each attempt measured, in order.
  const std::vector<std::string> measured{"import_ms", "elaborate_ms"};
  const std::vector<std::string> fields{
      "peak_live_nodes", "elaborate_ms", "import_ms", "setup_ms",
      "fixpoint_ms",     "preimages"};
  std::size_t events = 0;
  for (const std::string& line : trace.lines()) {
    const util::JsonValue event = test::parsedJson(line);
    std::string kind;
    if (!event.req("event", &kind) || kind != "attempt") continue;
    ASSERT_LT(events, measured.size()) << line;
    for (const std::string& field : fields) {
      EXPECT_EQ(event.find(field) != nullptr, field == measured[events])
          << field << " in " << line;
    }
    ++events;
  }
  EXPECT_EQ(events, 2u);
  // The report prints each phase once, for the attempt that measured it.
  const std::string json = report.toJson();
  for (const std::string& field : fields) {
    const std::string key = "\"" + field + "\"";
    const bool once = std::count(measured.begin(), measured.end(), field) > 0;
    const std::size_t at = json.find(key);
    EXPECT_EQ(at != std::string::npos, once) << field;
    if (once) {
      EXPECT_EQ(json.find(key, at + 1), std::string::npos) << field;
    }
  }
}

TEST(ServiceQuarantine, PersistentThrowBecomesErrorWithoutLosingSiblings) {
  // One poisoned obligation (it throws on every worker attempt) next to a
  // healthy job in the same batch: the healthy job must be unaffected and
  // the poisoned one must surface as Error with the exception text.
  VerificationService svc(withThreads(2));
  RunTrace trace;
  const std::vector<JobReport> reports =
      svc.runBatch({unknownVariableJob(), chainJob()}, &trace);

  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(reports[0].obligations.size(), 1u);
  const ObligationOutcome& bad = reports[0].obligations.front();
  EXPECT_EQ(bad.verdict, Verdict::Error);
  EXPECT_NE(bad.error.find("unknown variable: t"), std::string::npos)
      << bad.error;
  // One original attempt plus exactly one quarantine retry — no loops.
  EXPECT_EQ(bad.attempts.size(), 2u);
  EXPECT_EQ(reports[0].verdict, Verdict::Error);

  EXPECT_TRUE(reports[1].allHold());
  EXPECT_EQ(trace.countContaining("\"event\": \"quarantine\""), 1u);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation
// ---------------------------------------------------------------------------

TEST(ServiceCancel, RaisedFlagDrainsQueuedObligationsAsCancelled) {
  std::atomic<bool> cancel{true};  // raised before the batch even starts
  ServiceOptions opts = withThreads(2);
  opts.cancelFlag = &cancel;
  VerificationService svc(opts);
  EXPECT_TRUE(svc.cancelRequested());

  RunTrace trace;
  const JobReport report = svc.run(chainJob(), &trace);
  ASSERT_EQ(report.obligations.size(), 1u);
  EXPECT_EQ(report.obligations.front().verdict, Verdict::Cancelled);
  EXPECT_TRUE(report.obligations.front().attempts.empty());
  EXPECT_EQ(report.verdict, Verdict::Cancelled);
  EXPECT_EQ(trace.countContaining("\"verdict\": \"Cancelled\""), 2u);
}

TEST(ServiceCancel, CancelledRanksBelowErrorAndFails) {
  EXPECT_EQ(worseVerdict(Verdict::Cancelled, Verdict::Error), Verdict::Error);
  EXPECT_EQ(worseVerdict(Verdict::Cancelled, Verdict::Fails), Verdict::Fails);
  EXPECT_EQ(worseVerdict(Verdict::Inconclusive, Verdict::Cancelled),
            Verdict::Cancelled);
  EXPECT_STREQ(toString(Verdict::Cancelled), "Cancelled");
}

// ---------------------------------------------------------------------------
// Journal integration
// ---------------------------------------------------------------------------

TEST(ServiceJournal, OutcomesAreJournaledAndServedOnResume) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "cmc_service_journal.jsonl";
  fs::remove(path);

  VerificationJob job;
  job.name = "twomod";
  job.smvText = kTwoModuleSmv;
  job.options.compose = true;

  {
    VerificationService svc(withThreads(2));
    RunJournal journal;
    std::string err;
    ASSERT_TRUE(journal.open(path.string(), &err)) << err;
    const JobReport report = svc.run(job, nullptr, &journal);
    EXPECT_TRUE(report.allHold());
    EXPECT_EQ(journal.recorded(), report.obligations.size());
    EXPECT_EQ(report.journalHits, 0u);
  }

  const JournalReplay replay = loadJournal(path.string());
  ASSERT_TRUE(replay.found);
  // 4 outcomes, 3 distinct content fingerprints: mA and mB state the same
  // spec, so their two composed obligations share one address (and one
  // journal key) — exactly as in the obligation cache.
  EXPECT_EQ(replay.lines, 4u);
  EXPECT_EQ(replay.decided.size(), 3u);

  // The resumed service (fresh process: cold cache) serves every
  // obligation from the journal without a single checker attempt.
  ServiceOptions opts = withThreads(2);
  opts.cacheEnabled = false;
  VerificationService svc(opts);
  RunTrace trace;
  const JobReport resumed = svc.run(job, &trace, nullptr, &replay);
  EXPECT_TRUE(resumed.allHold());
  EXPECT_EQ(resumed.journalHits, resumed.obligations.size());
  for (const ObligationOutcome& o : resumed.obligations) {
    EXPECT_EQ(o.verdictSource, "journal") << o.id;
    EXPECT_TRUE(o.attempts.empty()) << o.id;
    if (o.target == "composed") {
      EXPECT_FALSE(o.proofJson.empty()) << o.id;
    }
  }
  EXPECT_EQ(trace.countContaining("\"event\": \"journal_hit\""), 4u);
  EXPECT_EQ(trace.countContaining("\"event\": \"attempt\""), 0u);
  EXPECT_NE(resumed.toJson().find("\"journal_hits\": 4"), std::string::npos);
  fs::remove(path);
}

TEST(ServiceJournal, UndecidedJournalEntriesAreReRun) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "cmc_service_rerun.jsonl";
  fs::remove(path);
  {
    // A journal holding only a non-replayable verdict for the obligation.
    RunJournal journal;
    std::string err;
    ASSERT_TRUE(journal.open(path.string(), &err)) << err;
    JournalEntry e;
    e.job = "chain";
    e.id = "chain/chain.SPEC1";
    e.specText = "AG (s = a | s = b | s = c)";
    e.verdict = Verdict::Cancelled;
    journal.record(e);
  }
  const JournalReplay replay = loadJournal(path.string());
  EXPECT_EQ(replay.decided.size(), 0u);

  ServiceOptions opts = withThreads(1);
  opts.cacheEnabled = false;
  VerificationService svc(opts);
  const JobReport report = svc.run(chainJob(), nullptr, nullptr, &replay);
  EXPECT_TRUE(report.allHold());
  EXPECT_EQ(report.journalHits, 0u);
  ASSERT_EQ(report.obligations.size(), 1u);
  EXPECT_EQ(report.obligations.front().verdictSource, "checked");
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Budget: the forced-GC recheck
// ---------------------------------------------------------------------------

/// Dead parity-chain prefixes: xor chains over 16 vars allocate hundreds
/// of distinct nodes, all garbage once the scope closes (the manager's
/// auto-GC threshold of 4096 never fires at this scale).
void makeGarbage(bdd::Manager& mgr) {
  bdd::Bdd f = mgr.bddVar(0);
  for (std::uint32_t i = 1; i < 16; ++i) f ^= mgr.bddVar(i);
}

TEST(ServiceBudget, GcRecoveryAvoidsASpuriousMemoryOut) {
  // Dead intermediates push the live count over budget; the token must
  // force a collection and, with the reachable set back under budget,
  // NOT declare MemoryOut.
  bdd::Manager mgr(64);
  const bdd::Bdd keep = mgr.bddVar(0) & mgr.bddVar(1);
  mgr.collectGarbage();
  const std::uint64_t baseline = mgr.liveNodeCount();
  makeGarbage(mgr);

  ObligationLimits limits;
  limits.nodeBudget = baseline + 20;
  ASSERT_GT(mgr.liveNodeCount(), limits.nodeBudget)
      << "test setup: garbage did not exceed the budget";

  BudgetToken token(mgr, limits);
  const std::uint64_t gcBefore = mgr.stats().gcRuns;
  EXPECT_NO_THROW(token.check());
  EXPECT_GT(mgr.stats().gcRuns, gcBefore);  // the recheck collected
  EXPECT_LE(mgr.liveNodeCount(), limits.nodeBudget);
  // Still under budget on the next poll, and the kept function survived.
  EXPECT_NO_THROW(token.check());
  EXPECT_TRUE(mgr.eval(keep, {true, true, false, false, false, false, false,
                              false, false, false, false, false, false,
                              false, false, false}));
}

TEST(ServiceBudget, GenuineExhaustionStillThrowsAfterGc) {
  // Everything stays referenced, so collection cannot help: the recheck
  // must throw CancelledError with the NodeBudget reason.
  bdd::Manager mgr(64);
  std::vector<bdd::Bdd> pinned;
  bdd::Bdd f = mgr.bddVar(0);
  for (std::uint32_t i = 1; i < 16; ++i) {
    f ^= mgr.bddVar(i);
    pinned.push_back(f);
  }
  ObligationLimits limits;
  limits.nodeBudget = 8;
  ASSERT_GT(mgr.liveNodeCount(), limits.nodeBudget);

  BudgetToken token(mgr, limits);
  const std::uint64_t gcBefore = mgr.stats().gcRuns;
  try {
    token.check();
    FAIL() << "exhausted node budget did not throw";
  } catch (const symbolic::CancelledError& e) {
    EXPECT_EQ(e.reason(), symbolic::CancelReason::NodeBudget);
    EXPECT_NE(std::string(e.what()).find("node budget"), std::string::npos);
  }
  // The throw came from the post-collection recheck, not the raw count.
  EXPECT_GT(mgr.stats().gcRuns, gcBefore);
}

// ---------------------------------------------------------------------------
// Warm worker contexts
// ---------------------------------------------------------------------------

/// Nine relay specs, three of which fail with multi-step counterexamples,
/// plus a watcher sharing `ack`: enough obligations per target that most
/// run warm, composed ones included.
const char* kRelaySmv = R"(
MODULE relay
VAR
  s : {idle, req, busy, done};
  ack : boolean;
INIT s = idle & !ack
ASSIGN
  next(s) := case s = idle : req; s = req : busy; s = busy : done; 1 : idle; esac;
  next(ack) := case s = done : 1; s = req : 0; 1 : ack; esac;
SPEC AG (s = idle | s = req | s = busy | s = done)
SPEC AG (s = busy -> AX (s = done))
SPEC AG (s = req -> EX (s = busy))
SPEC AG EF (s = idle)
SPEC EF (s = done)
SPEC AG (s = busy -> !ack)
SPEC AG (s != done)
SPEC AG (ack -> s = done)
SPEC AG (s = idle -> !ack)
MODULE watch
VAR
  ack : boolean;
  seen : boolean;
INIT !seen
ASSIGN
  next(ack) := ack;
  next(seen) := case ack : 1; 1 : seen; esac;
SPEC AG (ack -> AX seen)
SPEC AG (seen -> AX seen)
)";

VerificationJob relayJob() {
  VerificationJob job;
  job.name = "relay";
  job.smvText = kRelaySmv;
  return job;
}

ServiceOptions uncachedThreads(unsigned n) {
  ServiceOptions opts = withThreads(n);
  opts.cacheEnabled = false;  // every obligation must run its attempts
  return opts;
}

/// The "context" field of every attempt event among a trace's lines, per
/// obligation, in order.
std::map<std::string, std::vector<std::string>> attemptContexts(
    const std::vector<std::string>& lines) {
  std::map<std::string, std::vector<std::string>> out;
  for (const std::string& line : lines) {
    const util::JsonValue event = test::parsedJson(line);
    std::string kind, id, context;
    if (!event.req("event", &kind) || kind != "attempt") continue;
    EXPECT_TRUE(event.req("obligation", &id)) << line;
    EXPECT_TRUE(event.req("context", &context)) << line;
    out[id].push_back(context);
  }
  return out;
}

using Contexts = std::vector<std::string>;

TEST(Service, WarmAttemptsDecideLikeFreshOnes) {
  // The whole job imports from its snapshot and runs most obligations
  // warm; the same job split into single-obligation jobs (`only` = each
  // id) never does, since each has nothing left to run on a kept context.
  // Both must say the same thing about every obligation.
  for (const unsigned threads : {1u, 4u}) {
    for (const symbolic::EngineMode engine :
         {symbolic::EngineMode::Auto, symbolic::EngineMode::Partitioned,
          symbolic::EngineMode::Monolithic}) {
      for (const bool compose : {false, true}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, " +
                     symbolic::toString(engine) +
                     (compose ? ", compose" : ""));
        VerificationJob warm = relayJob();
        warm.options.engine = engine;
        warm.options.compose = compose;

        VerificationService svc(uncachedThreads(threads));
        RunTrace trace;
        const std::vector<ObligationOutcome> a =
            svc.run(warm, &trace).obligations;
        ASSERT_EQ(a.size(), compose ? 22u : 11u);
        std::vector<VerificationJob> singles;
        for (const ObligationOutcome& o : a) {
          VerificationJob single = warm;
          single.name = "relay-" + o.id;
          single.only = o.id;
          singles.push_back(std::move(single));
        }
        std::vector<ObligationOutcome> b;
        for (const JobReport& r : svc.runBatch(singles)) {
          ASSERT_EQ(r.obligations.size(), 1u) << r.job;
          b.push_back(r.obligations.front());
        }
        std::size_t warmAttempts = 0;
        std::size_t fails = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].id, b[i].id);
          EXPECT_EQ(a[i].verdict, b[i].verdict) << a[i].id;
          EXPECT_EQ(a[i].rule, b[i].rule) << a[i].id;
          EXPECT_EQ(a[i].counterexample, b[i].counterexample) << a[i].id;
          EXPECT_EQ(a[i].proofJson, b[i].proofJson) << a[i].id;
          // Both start on the engine their snapshot chose for the target.
          EXPECT_EQ(a[i].engineChoiceJson, b[i].engineChoiceJson) << a[i].id;
          ASSERT_FALSE(b[i].attempts.empty()) << b[i].id;
          EXPECT_EQ(a[i].attempts.front().engine, b[i].attempts.front().engine)
              << a[i].id;
          if (a[i].verdict == Verdict::Fails) {
            ++fails;
            EXPECT_FALSE(a[i].counterexample.empty()) << a[i].id;
          }
          for (const AttemptRecord& r : a[i].attempts) {
            if (r.warm) {
              ++warmAttempts;
              EXPECT_EQ(r.importMs, 0.0) << a[i].id;
            }
          }
          for (const AttemptRecord& r : b[i].attempts) {
            EXPECT_FALSE(r.warm) << b[i].id;
          }
        }
        EXPECT_GE(fails, compose ? 5u : 3u);
        // One fresh attempt per target and worker at most; the rest warm.
        EXPECT_GE(warmAttempts, a.size() - (compose ? 3 : 2) * threads);
        EXPECT_EQ(trace.countContaining("\"context\": \"warm\""),
                  warmAttempts);
      }
    }
  }
}

TEST(Service, WarmComponentAttemptsKeepTheirChecker) {
  // The same spec twice: the fresh attempt builds the checker and pays one
  // preimage for the fair region (is the module total?); the warm attempt
  // runs on that checker, fair region included, so it pays one fewer.
  // Composed attempts count the preimages of the verifier's checkers.
  VerificationJob job;
  job.name = "twice";
  job.smvText = R"(
MODULE twice
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : a; esac;
SPEC AG EF (s = a)
SPEC AG EF (s = a)
MODULE watch
VAR w : boolean;
ASSIGN next(w) := !w;
SPEC AG (w -> AX !w)
)";
  job.options.compose = true;
  for (const symbolic::EngineMode engine :
       {symbolic::EngineMode::Partitioned, symbolic::EngineMode::Monolithic}) {
    SCOPED_TRACE(symbolic::toString(engine));
    job.options.engine = engine;
    VerificationService svc(uncachedThreads(1));
    RunTrace trace;
    const JobReport report = svc.run(job, &trace);
    ASSERT_EQ(report.obligations.size(), 6u);
    const AttemptRecord& fresh = report.obligations[0].attempts.at(0);
    const AttemptRecord& warm = report.obligations[1].attempts.at(0);
    EXPECT_FALSE(fresh.warm);
    EXPECT_TRUE(warm.warm);
    ASSERT_TRUE(fresh.preimages && fresh.conePreimages && warm.preimages &&
                warm.conePreimages);
    EXPECT_EQ(*warm.preimages + 1, *fresh.preimages);
    // preE(true) reads no variable: the cone, on either engine.
    EXPECT_EQ(*warm.conePreimages + 1, *fresh.conePreimages);
    for (const ObligationOutcome& o : report.obligations) {
      EXPECT_TRUE(o.attempts.at(0).preimages.has_value()) << o.id;
      EXPECT_TRUE(o.attempts.at(0).conePreimages.has_value()) << o.id;
    }
    // The composed twins take the global check.  The composition stutters
    // by construction, so neither pays a fair-region preimage, and the
    // warm one runs on the kept composed checker.
    const AttemptRecord& composedFresh = report.obligations[3].attempts.at(0);
    const AttemptRecord& composedWarm = report.obligations[4].attempts.at(0);
    EXPECT_FALSE(composedFresh.warm);
    EXPECT_TRUE(composedWarm.warm);
    EXPECT_GT(*composedFresh.preimages, 0u);
    EXPECT_EQ(*composedWarm.preimages, *composedFresh.preimages);
    EXPECT_EQ(trace.countContaining("\"cone_preimages\""), 6u);
  }
}

/// A model whose second spec needs far more live nodes than the others:
/// its antecedent ⋀ (a_i <-> b_i) is exponential in this variable order
/// (every a before every b).
std::string wideSmv() {
  std::string avars, bvars, next, eq;
  for (int i = 1; i <= 12; ++i) {
    const std::string a = std::string("a").append(std::to_string(i));
    const std::string b = std::string("b").append(std::to_string(i));
    avars += a + " : boolean; ";
    bvars += b + " : boolean; ";
    next += "next(" + b + ") := " + b + "; ";
    next += i == 1 ? "next(a1) := !a1; " : "next(" + a + ") := " + a + "; ";
    eq += (i == 1 ? "(" : " & (") + a + " <-> " + b + ")";
  }
  return "MODULE wide\nVAR " + avars + bvars + "\nASSIGN " + next +
         "\nSPEC AG (a2 -> AX a2)\nSPEC AG (" + eq +
         " -> AX (a2 <-> b2))\nSPEC AG (b1 -> AX b1)\nSPEC AG a3\n";
}

/// A 20-bit counter and a watcher: EF of the counter's last value takes
/// 2^20 backward steps, far past any deadline the tests set, while the
/// other specs decide at once.
std::string counterSmv() {
  std::string vars, next, all, carry;
  for (int i = 0; i < 20; ++i) {
    const std::string b = std::string("b").append(std::to_string(i));
    vars += b + " : boolean; ";
    next += i == 0 ? "next(b0) := !b0; "
                   : "next(" + b + ") := case " + carry + " : !" + b +
                         "; 1 : " + b + "; esac; ";
    carry += (i == 0 ? "" : " & ") + b;
    all = carry;
  }
  return "MODULE counter\nVAR " + vars + "\nASSIGN " + next +
         "\nSPEC AG (b0 | !b0)\nSPEC EF (" + all +
         ")\nSPEC AG (b1 | !b1)\nSPEC AG (b2 | !b2)\n"
         "MODULE watch\nVAR w : boolean;\nASSIGN next(w) := !w;\n";
}

/// A trace sink that hands each event line to `onLine` as a worker emits
/// it: the tests' hook into the middle of a run.
class LineHook : public std::streambuf {
 public:
  explicit LineHook(std::function<void(const std::string&)> onLine)
      : onLine_(std::move(onLine)) {}

 protected:
  int overflow(int c) override {
    if (c == '\n') {
      onLine_(line_);
      line_.clear();
    } else if (c != traits_type::eof()) {
      line_.push_back(static_cast<char>(c));
    }
    return traits_type::not_eof(c);
  }

 private:
  std::function<void(const std::string&)> onLine_;
  std::string line_;
};

bool isEvent(const std::string& line, const std::string& event,
             const std::string& obligation) {
  return line.find("\"event\": \"" + event + "\"") != std::string::npos &&
         line.find("\"obligation\": \"" + obligation + "\"") !=
             std::string::npos;
}

TEST(Service, UndecidedAttemptsNeverHandTheirContextOn) {
  // MemoryOut: the wide spec exhausts a budget the others fit in easily,
  // on both engines.  Its warm context dies with it, so the next
  // obligation imports afresh — and the one after runs warm again.
  {
    VerificationJob job;
    job.name = "wide";
    job.smvText = wideSmv();
    job.options.limits.nodeBudget = 4000;
    VerificationService svc(uncachedThreads(1));
    RunTrace trace;
    const JobReport report = svc.run(job, &trace);
    ASSERT_EQ(report.obligations.size(), 4u);
    EXPECT_EQ(report.obligations[1].verdict, Verdict::Inconclusive);
    EXPECT_EQ(report.obligations[1].attempts[0].verdict, Verdict::MemoryOut);
    EXPECT_EQ(report.obligations[3].verdict, Verdict::Fails);
    const auto contexts = attemptContexts(trace.lines());
    EXPECT_EQ(contexts.at("wide/wide.SPEC1"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at("wide/wide.SPEC2"), (Contexts{"warm", "fresh"}));
    EXPECT_EQ(contexts.at("wide/wide.SPEC3"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at("wide/wide.SPEC4"), Contexts{"warm"});
  }
  // CANCEL: the request is cancelled while SPEC2's warm attempt runs and
  // withdrawn again once it is Cancelled — on a module, and on the
  // composition, whose kept checker must poll that attempt's hook and
  // none after it.
  for (const std::string target : {"relay", "composed"}) {
    SCOPED_TRACE(target);
    VerificationJob job = relayJob();
    job.options.engine = symbolic::EngineMode::Auto;
    job.options.compose = target == "composed";
    const std::string spec = target + "/relay.SPEC";
    std::atomic<bool> cancel{false};
    // A trace that streams keeps no lines: the hook collects them.
    std::vector<std::string> lines;
    LineHook hook([&cancel, &spec, &lines](const std::string& line) {
      lines.push_back(line);
      if (isEvent(line, "engine_choice", spec + "2")) cancel = true;
      if (isEvent(line, "attempt", spec + "2")) cancel = false;
    });
    std::ostream sink(&hook);
    VerificationService svc(uncachedThreads(1));
    RunTrace trace(&sink);
    const JobReport report = svc.run(job, &trace, nullptr, nullptr, &cancel);
    const JobReport reference = svc.run(job);
    ASSERT_EQ(report.obligations.size(), job.options.compose ? 22u : 11u);
    ASSERT_EQ(reference.obligations.size(), report.obligations.size());
    for (std::size_t i = 0; i < report.obligations.size(); ++i) {
      const ObligationOutcome& o = report.obligations[i];
      EXPECT_EQ(o.verdict, o.id == spec + "2"
                               ? Verdict::Cancelled
                               : reference.obligations[i].verdict)
          << o.id;
    }
    const auto contexts = attemptContexts(lines);
    EXPECT_EQ(contexts.at(spec + "1"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at(spec + "2"), Contexts{"warm"});
    EXPECT_EQ(contexts.at(spec + "3"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at(spec + "4"), Contexts{"warm"});
  }
  // Timeout: SPEC2's warm attempt outlasts its deadline, so its kept
  // checker dies with it and SPEC3 imports afresh.
  {
    VerificationJob job;
    job.name = "counter";
    job.smvText = counterSmv();
    job.options.limits.deadlineSeconds = 0.25;
    job.options.retryOtherEngine = false;
    VerificationService svc(uncachedThreads(1));
    RunTrace trace;
    const JobReport report = svc.run(job, &trace);
    ASSERT_EQ(report.obligations.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(report.obligations[i].verdict,
                i == 1 ? Verdict::Timeout : Verdict::Holds);
    }
    const auto contexts = attemptContexts(trace.lines());
    EXPECT_EQ(contexts.at("counter/counter.SPEC1"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at("counter/counter.SPEC2"), Contexts{"warm"});
    EXPECT_EQ(contexts.at("counter/counter.SPEC3"), Contexts{"fresh"});
    EXPECT_EQ(contexts.at("counter/counter.SPEC4"), Contexts{"warm"});
  }
  // An expired deadline: nothing decides, so nothing is handed on.
  // Reorder: each attempt sifts its own manager, so none runs warm,
  // though every one decides.
  for (const bool reorder : {false, true}) {
    VerificationJob job = relayJob();
    job.options.compose = true;
    if (reorder) {
      job.options.reorderBeforeCheck = true;
    } else {
      job.options.limits.deadlineSeconds = 1e-9;
    }
    VerificationService svc(uncachedThreads(2));
    RunTrace trace;
    const JobReport report = svc.run(job, &trace);
    ASSERT_EQ(report.obligations.size(), 22u);
    for (const ObligationOutcome& o : report.obligations) {
      EXPECT_EQ(o.verdict == Verdict::Holds || o.verdict == Verdict::Fails,
                reorder)
          << o.id;
    }
    EXPECT_EQ(trace.countContaining("\"context\": \"warm\""), 0u);
    EXPECT_EQ(trace.countContaining("\"context\": \"fresh\""),
              reorder ? 22u : 44u);
  }
}

TEST(Service, InjectedTimeoutAndErrorStartTheNextObligationFresh) {
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  // SPEC2's warm attempt — on a module, and on the composition's kept
  // verifier — is sabotaged through the allocator, first stalled past the
  // deadline, then thrown out of, and the site is disarmed as soon as
  // that attempt is recorded.  relay.SPEC2 holds on its module and fails
  // on the composition.
  for (const std::string target : {"relay", "composed"}) {
    for (const char* action : {"delay(60)", "throw"}) {
      SCOPED_TRACE(target + ", " + action);
      const bool timeout = std::string(action) != "throw";
      VerificationJob job = relayJob();
      job.options.compose = target == "composed";
      if (timeout) {
        job.options.limits.deadlineSeconds = 0.05;
        job.options.retryOtherEngine = false;
      }
      const std::string spec = target + "/relay.SPEC";
      std::vector<std::string> lines;
      LineHook hook([action, &spec, &lines](const std::string& line) {
        lines.push_back(line);
        if (isEvent(line, "obligation_start", spec + "2")) {
          util::Failpoint::configure(std::string("bdd.alloc_node=") + action);
        }
        if (isEvent(line, "attempt", spec + "2")) {
          util::Failpoint::disarmAll();
        }
      });
      std::ostream sink(&hook);
      VerificationService svc(uncachedThreads(1));
      RunTrace trace(&sink);
      const JobReport report = svc.run(job, &trace);
      util::Failpoint::disarmAll();
      ASSERT_EQ(report.obligations.size(), job.options.compose ? 22u : 11u);
      const ObligationOutcome& sabotaged =
          report.obligations[job.options.compose ? 12 : 1];
      ASSERT_EQ(sabotaged.id, spec + "2");
      ASSERT_FALSE(sabotaged.attempts.empty());
      EXPECT_EQ(sabotaged.attempts[0].verdict,
                timeout ? Verdict::Timeout : Verdict::Error);
      // The quarantine retry rebuilds from the program text and decides.
      EXPECT_EQ(sabotaged.verdict,
                timeout                ? Verdict::Timeout
                : job.options.compose ? Verdict::Fails
                                       : Verdict::Holds);
      for (const ObligationOutcome& o : report.obligations) {
        if (o.id == sabotaged.id) continue;
        EXPECT_TRUE(o.verdict == Verdict::Holds || o.verdict == Verdict::Fails)
            << o.id;
      }
      const auto contexts = attemptContexts(lines);
      EXPECT_EQ(contexts.at(spec + "1"), Contexts{"fresh"});
      EXPECT_EQ(contexts.at(spec + "2"),
                timeout ? Contexts{"warm"} : (Contexts{"warm", "fresh"}));
      EXPECT_EQ(contexts.at(spec + "3"), Contexts{"fresh"});
      EXPECT_EQ(contexts.at(spec + "4"), Contexts{"warm"});
    }
  }
}

TEST(ServiceQuarantine, TransientThrowIsRetriedOnAFreshContext) {
  // The quarantine retry rebuilds from the job's program text, not from
  // the snapshot.  The text is repaired once the first attempt is
  // recorded, on the one worker, which reads it again only to rebuild:
  // the first attempt, on the snapshot of the text whose spec names an
  // undeclared variable, throws in its check after its import; the retry
  // elaborates the repaired text on a fresh context and decides.
  std::vector<VerificationJob> jobs{unknownVariableJob()};
  const std::string id = "chain/chain.SPEC1";
  std::vector<std::string> lines;
  LineHook hook([&jobs, &id, &lines](const std::string& line) {
    lines.push_back(line);
    if (isEvent(line, "attempt", id)) jobs.front().smvText = kChainSmv;
  });
  std::ostream sink(&hook);
  VerificationService svc(withThreads(1));
  RunTrace trace(&sink);
  const std::vector<JobReport> reports = svc.runBatch(jobs, &trace);

  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports.front().obligations.size(), 1u);
  const ObligationOutcome& o = reports.front().obligations.front();
  EXPECT_EQ(o.verdict, Verdict::Holds);
  ASSERT_EQ(o.attempts.size(), 2u);
  const AttemptRecord& error = o.attempts[0];
  EXPECT_EQ(error.verdict, Verdict::Error);
  EXPECT_TRUE(error.importMs && !error.elaborateMs);
  const AttemptRecord& retry = o.attempts[1];
  EXPECT_EQ(retry.verdict, Verdict::Holds);
  EXPECT_FALSE(retry.warm);
  ASSERT_TRUE(retry.peakLiveNodes && retry.elaborateMs && retry.importMs &&
              retry.setupMs && retry.fixpointMs && retry.preimages);
  EXPECT_GT(*retry.elaborateMs, 0.0);
  EXPECT_EQ(*retry.importMs, 0.0);
  EXPECT_LE((*retry.elaborateMs + *retry.importMs + *retry.setupMs +
             *retry.fixpointMs) / 1000.0,
            retry.seconds * (1 + 1e-9));
  const auto count = [&lines](const std::string& needle) {
    return std::count_if(lines.begin(), lines.end(), [&](const auto& line) {
      return line.find(needle) != std::string::npos;
    });
  };
  EXPECT_EQ(count("\"event\": \"quarantine\""), 1);
  EXPECT_EQ(count("unknown variable: t"), 1);
}

TEST(Service, AttemptPhasesNeverExceedTheAttempt) {
  // Attempts import (fresh) or run warm.
  for (const bool compose : {false, true}) {
    SCOPED_TRACE(compose ? "compose" : "components");
    VerificationJob job = relayJob();
    job.options.compose = compose;
    VerificationService svc(uncachedThreads(2));
    RunTrace trace;
    const JobReport report = svc.run(job, &trace);
    std::size_t keptCheckerChecks = 0;
    std::size_t keptVerifierChecks = 0;
    EXPECT_NE(report.toJson().find("\"setup_ms\""), std::string::npos);
    for (const ObligationOutcome& o : report.obligations) {
      for (const AttemptRecord& a : o.attempts) {
        ASSERT_TRUE(a.elaborateMs && a.importMs && a.setupMs && a.fixpointMs)
            << o.id;
        EXPECT_GE(*a.fixpointMs, 0.0) << o.id;
        EXPECT_LE(
            (*a.elaborateMs + *a.importMs + *a.setupMs + *a.fixpointMs) /
                1000.0,
            a.seconds * (1 + 1e-9))
            << o.id;
        if (!a.warm) {
          EXPECT_GT(a.setupMs, 0.0) << o.id;  // a checker at least
        } else if (o.target != "composed") {
          // Checked on the module's kept checker: nothing was built.
          EXPECT_EQ(a.setupMs, 0.0) << o.id;
          ++keptCheckerChecks;
        } else if (o.rule == "global fallback" &&
                   o.verdict == Verdict::Holds) {
          // Decided on the kept checker, with no counterexample to
          // search: nothing was built.
          EXPECT_EQ(a.setupMs, 0.0) << o.id;
          ++keptVerifierChecks;
        }
      }
    }
    EXPECT_GT(keptCheckerChecks, 0u);
    EXPECT_EQ(keptVerifierChecks > 0, compose);
    EXPECT_EQ(trace.countContaining("\"setup_ms\""),
              trace.countContaining("\"event\": \"attempt\""));
  }
}

TEST(Service, AnAttemptWithoutOpCacheLookupsHasNoHitRate) {
  // An expired deadline stops the monolithic check at its entry poll,
  // before any cached operation; the next job's attempt does look up.
  VerificationJob stopped;
  stopped.name = "stopped";
  stopped.smvText =
      "MODULE m\nVAR x : boolean;\nASSIGN next(x) := !x;\nSPEC AG x\n";
  stopped.options.engine = symbolic::EngineMode::Monolithic;
  stopped.options.retryOtherEngine = false;
  stopped.options.limits.deadlineSeconds = 1e-9;
  VerificationJob checked = stopped;
  checked.name = "checked";
  checked.options.limits.deadlineSeconds = 0.0;
  VerificationService svc(uncachedThreads(1));
  RunTrace trace;
  const std::vector<JobReport> reports =
      svc.runBatch({stopped, checked}, &trace);
  ASSERT_EQ(reports.size(), 2u);
  ASSERT_EQ(reports[0].obligations.at(0).attempts.size(), 1u);
  const AttemptRecord& none = reports[0].obligations[0].attempts[0];
  EXPECT_EQ(none.verdict, Verdict::Timeout);
  EXPECT_FALSE(none.cacheHitRate.has_value());
  EXPECT_EQ(reports[0].toJson().find("cache_hit_rate"), std::string::npos);
  const AttemptRecord& some = reports[1].obligations.at(0).attempts.at(0);
  EXPECT_EQ(some.verdict, Verdict::Fails);
  ASSERT_TRUE(some.cacheHitRate.has_value());
  EXPECT_NE(reports[1].toJson().find("cache_hit_rate"), std::string::npos);
  // In the trace only the checked job's attempt and obligation_end carry
  // a hit rate; both obligations measured their peak.
  for (const std::string& line : trace.lines()) {
    const util::JsonValue event = test::parsedJson(line);
    std::string kind, job;
    event.req("event", &kind);
    if (kind != "attempt" && kind != "obligation_end") continue;
    ASSERT_TRUE(event.req("job", &job)) << line;
    EXPECT_EQ(event.find("cache_hit_rate") != nullptr, job == "checked")
        << line;
    EXPECT_NE(event.find("peak_live_nodes"), nullptr) << line;
  }
}

}  // namespace
}  // namespace cmc::service
