#include <sstream>

#include "service/job.hpp"
#include "service/job_options.hpp"
#include "service/trace_log.hpp"
#include "util/version.hpp"

namespace cmc::service {

const char* toString(Verdict v) noexcept {
  switch (v) {
    case Verdict::Holds: return "Holds";
    case Verdict::Fails: return "Fails";
    case Verdict::Timeout: return "Timeout";
    case Verdict::MemoryOut: return "MemoryOut";
    case Verdict::Inconclusive: return "Inconclusive";
    case Verdict::Cancelled: return "Cancelled";
    case Verdict::Error: return "Error";
  }
  return "Unknown";
}

Verdict worseVerdict(Verdict a, Verdict b) noexcept {
  // Severity for job aggregation: a definite refutation dominates (the job
  // answered "no"), then errors, then the not-an-answer verdicts.
  const auto rank = [](Verdict v) {
    switch (v) {
      case Verdict::Holds: return 0;
      case Verdict::Timeout: return 1;
      case Verdict::MemoryOut: return 2;
      case Verdict::Inconclusive: return 3;
      case Verdict::Cancelled: return 4;
      case Verdict::Error: return 5;
      case Verdict::Fails: return 6;
    }
    return 5;
  };
  return rank(a) >= rank(b) ? a : b;
}

void putAttemptFields(JsonObject& obj, const AttemptRecord& a) {
  obj.put("engine", a.engine)
      .put("context", a.warm ? "warm" : "fresh")
      .put("verdict", toString(a.verdict))
      .putDouble("seconds", a.seconds);
  const auto putNumber = [&obj](const char* key,
                                const std::optional<double>& v) {
    if (v.has_value()) obj.putDouble(key, *v);
  };
  const auto putCount = [&obj](const char* key,
                               const std::optional<std::uint64_t>& v) {
    if (v.has_value()) obj.putUint(key, *v);
  };
  putCount("peak_live_nodes", a.peakLiveNodes);
  putNumber("cache_hit_rate", a.cacheHitRate);
  putNumber("elaborate_ms", a.elaborateMs);
  putNumber("import_ms", a.importMs);
  putNumber("setup_ms", a.setupMs);
  putNumber("fixpoint_ms", a.fixpointMs);
  putCount("preimages", a.preimages);
  putCount("cone_preimages", a.conePreimages);
}

namespace {

std::string attemptJson(const AttemptRecord& a) {
  JsonObject obj;
  putAttemptFields(obj, a);
  return obj.str();
}

std::string outcomeJson(const ObligationOutcome& o) {
  JsonObject obj;
  obj.put("id", o.id)
      .put("target", o.target)
      .put("spec", o.spec)
      .put("spec_text", o.specText)
      .put("verdict", toString(o.verdict))
      .put("verdict_source", o.verdictSource);
  if (!o.shard.empty()) obj.put("shard", o.shard);
  if (o.hedged) {
    obj.putBool("hedged", true);
    obj.put("hedge_winner", o.shard);
  }
  obj.put("rule", o.rule)
      .putBool("retried", o.retried)
      .putDouble("seconds", o.seconds);
  if (!o.fingerprint.empty()) obj.put("fingerprint", o.fingerprint);
  std::ostringstream attempts;
  attempts << '[';
  for (std::size_t i = 0; i < o.attempts.size(); ++i) {
    if (i > 0) attempts << ", ";
    attempts << attemptJson(o.attempts[i]);
  }
  attempts << ']';
  obj.putRaw("attempts", attempts.str());
  if (!o.engineChoiceJson.empty()) {
    obj.putRaw("engine_choice", o.engineChoiceJson);
  }
  if (!o.error.empty()) obj.put("error", o.error);
  if (!o.counterexample.empty()) obj.put("counterexample", o.counterexample);
  if (!o.proofJson.empty()) obj.putRaw("proof", o.proofJson);
  return obj.str();
}

}  // namespace

void JobReport::add(ObligationOutcome outcome) {
  verdict = worseVerdict(verdict, outcome.verdict);
  if (outcome.verdictSource == "journal") ++journalHits;
  if (!outcome.fingerprint.empty() && outcome.verdictSource != "journal") {
    if (outcome.verdictSource == "cache") ++cacheHits;
    else ++cacheMisses;
    if (outcome.cacheInserted) ++cacheInserts;
  }
  obligations.push_back(std::move(outcome));
}

void JobReport::addJobError(std::string error) {
  ObligationOutcome bad;
  bad.id = job + "/<elaboration>";
  bad.target = job;
  bad.verdict = Verdict::Error;
  bad.error = std::move(error);
  add(std::move(bad));
}

JobReport::Tally JobReport::tally() const noexcept {
  Tally t;
  for (const ObligationOutcome& o : obligations) {
    if (o.verdict == Verdict::Holds) ++t.holds;
    else if (o.verdict == Verdict::Fails) ++t.fails;
    else ++t.undecided;
  }
  return t;
}

std::string JobReport::toJson() const {
  const Tally t = tally();
  JsonObject root;
  root.put("job", job)
      .put("cmc_version", util::versionString())
      .put("source", source)
      .put("verdict", toString(verdict))
      .putDouble("wall_seconds", wallSeconds)
      .putRaw("options", jobOptionsEcho(options))
      .putUint("obligation_count",
               static_cast<std::uint64_t>(obligations.size()))
      .putUint("holds", t.holds)
      .putUint("fails", t.fails)
      .putUint("undecided", t.undecided);
  JsonObject cache;
  cache.putUint("hits", cacheHits)
      .putUint("misses", cacheMisses)
      .putUint("inserts", cacheInserts);
  root.putRaw("cache", cache.str());
  root.putUint("journal_hits", journalHits);
  std::ostringstream arr;
  arr << '[';
  for (std::size_t i = 0; i < obligations.size(); ++i) {
    if (i > 0) arr << ",\n    ";
    arr << outcomeJson(obligations[i]);
  }
  arr << ']';
  root.putRaw("obligations", arr.str());
  return root.str();
}

}  // namespace cmc::service
