// The benchmark's in-process side (see README.md in this directory).
//
//   probe replay [--compose] --spans FILE --out FILE MODEL.smv...
//       Single-threaded replay of each model's job through the public
//       function of every layer it crosses, one span per call, followed by
//       one enclosing VerificationService::run (threads = 1) on the same
//       job.  Spans go to --spans as JSONL; one summary line per model
//       (stage times, BDD counters, report counts, verdicts) goes to --out.
//
//   probe explicit [--compose] MODEL.smv...
//       Decide every obligation of each model with the explicit-state
//       checker (kripke) instead of the symbolic engines: components on
//       their own systems, composed obligations on the composition of the
//       reflexive-closed components.  Prints "<id> Holds|Fails" per line.
//       Only small models fit (kripke::kMaxExplicitAtoms bits).
//
//   probe load --socket PATH --clients C --stream FILE --out FILE
//              [--limit-ms L]
//       Closed loop of C connections sending the stream's models as
//       inline-text CHECKs through net::Client.  Each connection sends its
//       next request only after the previous response.  A request that
//       gets no response within L ms is abandoned (its connection is
//       closed and redialed).  One line per request goes to --out.
//
// Spans are kept in memory and written when the command ends.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bdd/io.hpp"
#include "comp/classify.hpp"
#include "comp/verifier.hpp"
#include "kripke/explicit_checker.hpp"
#include "net/client.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/trace_log.hpp"
#include "smv/elaborate.hpp"
#include "smv/fingerprint.hpp"
#include "smv/parser.hpp"
#include "symbolic/checker.hpp"
#include "symbolic/composition.hpp"
#include "symbolic/encode.hpp"
#include "symbolic/engine_choice.hpp"

namespace {

using namespace cmc;
using Clock = std::chrono::steady_clock;
using service::JsonObject;

/// Spans of one single-threaded replay, in open order.  A span's parent is
/// the innermost span open when it started.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string job;
    std::string op;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  int open(std::string name, const std::string& job, std::string op = "") {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), job, std::move(op), Clock::now(),
                          {}, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end = Clock::now();
    stack_.pop_back();
    totals_[s.name] +=
        std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }

  /// Run `f` inside a span named `name`.
  template <class F>
  auto span(const std::string& name, const std::string& job, F&& f,
            std::string op = "") {
    const int id = open(name, job, std::move(op));
    struct Closer {
      Tracer* t;
      int id;
      ~Closer() { t->close(id); }
    } closer{this, id};
    return f();
  }

  /// Summed duration per span name since the last take, then reset.
  std::map<std::string, double> takeTotals() { return std::exchange(totals_, {}); }

  void write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .putUint("id", i)
                 .put("name", s.name)
                 .put("job", s.job)
                 .put("op", s.op)
                 .putRaw("parent", std::to_string(s.parent))
                 // %f keeps nanoseconds; JsonObject::putDouble keeps only
                 // six significant digits.
                 .putRaw("start_ms", std::to_string(msSinceOrigin(s.start)))
                 .putRaw("end_ms", std::to_string(msSinceOrigin(s.end)))
                 .str()
          << "\n";
    }
  }

 private:
  double msSinceOrigin(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> totals_;
};

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string stem(const std::string& path) {
  std::string base = path.substr(path.find_last_of('/') + 1);
  const std::size_t dot = base.rfind('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

struct BddTotals {
  std::uint64_t nodesAllocated = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t uniqueLookups = 0;
  std::uint64_t gcRuns = 0;
  std::uint64_t gcReclaimed = 0;
  std::uint64_t peakLiveNodes = 0;
  std::uint64_t importNodes = 0;

  void add(const bdd::ManagerStats& s) {
    nodesAllocated += s.nodesAllocatedTotal;
    cacheLookups += s.cacheLookups;
    cacheHits += s.cacheHits;
    uniqueLookups += s.uniqueLookups;
    gcRuns += s.gcRuns;
    gcReclaimed += s.gcReclaimed;
    peakLiveNodes = std::max(peakLiveNodes, s.peakNodes);
  }
};

std::string verdictMap(const std::vector<std::pair<std::string, bool>>& v) {
  JsonObject o;
  for (const auto& [id, holds] : v) o.put(id, holds ? "Holds" : "Fails");
  return o.str();
}

/// The reflexive closures of `modules`' systems, as composition needs them.
std::vector<symbolic::SymbolicSystem> reflexiveParts(
    Tracer& tr, const std::string& job,
    const std::vector<smv::ElaboratedModule>& modules) {
  std::vector<symbolic::SymbolicSystem> parts;
  for (const smv::ElaboratedModule& m : modules) {
    symbolic::SymbolicSystem sys = m.sys;
    tr.span("symbolic::addReflexive", job, [&] { symbolic::addReflexive(sys); },
            m.sys.name);
    parts.push_back(std::move(sys));
  }
  return parts;
}

/// Replay one obligation the way a service worker runs it on the snapshot
/// path: adopt the layout, import, then classify/compose/check.
bool replayObligation(Tracer& tr, const std::string& job,
                      const service::ElaborationSnapshot& snap,
                      const service::ObligationRef& ref,
                      const service::JobOptions& options, BddTotals& bdd,
                      std::uint64_t& transNodes, bool& partitioned) {
  partitioned = (ref.composed ? snap.composedChoice
                              : snap.moduleChoice.at(ref.moduleIndex))
                    .usePartitioned;

  auto ctx = tr.span("symbolic::Context::Context", job, [&] {
    return std::make_unique<symbolic::Context>(
        service::workerArenaCapacity(snap.liveNodes),
        service::workerCacheCapacity(snap.liveNodes));
  }, ref.id);
  tr.span("symbolic::Context::adoptVariablesFrom", job,
          [&] { ctx->adoptVariablesFrom(*snap.ctx); }, ref.id);
  auto imp = tr.span("bdd::Importer::Importer", job, [&] {
    return std::make_unique<bdd::Importer>(ctx->mgr(), snap.ctx->mgr());
  }, ref.id);

  std::vector<smv::ElaboratedModule> modules;
  std::size_t local = 0;
  if (!ref.composed) {
    modules.push_back(tr.span("service::importModule", job, [&] {
      return service::importModule(*ctx, *imp, snap.modules.at(ref.moduleIndex),
                                   /*wantMonolithic=*/!partitioned);
    }, ref.id));
  } else {
    for (const smv::ElaboratedModule& mod : snap.modules) {
      modules.push_back(tr.span("service::importModule", job, [&] {
        return service::importModule(*ctx, *imp, mod, /*wantMonolithic=*/false);
      }, ref.id));
    }
    local = ref.moduleIndex;
  }
  bdd.importNodes += imp->translatedCount();
  imp.reset();

  symbolic::CheckerOptions copts;
  copts.usePartitionedTrans = partitioned;
  copts.clusterThreshold = options.clusterThreshold;
  const ctl::Spec& spec = modules.at(local).specs.at(ref.specIndex);

  bool holds = false;
  const auto makeChecker = [&](const symbolic::SymbolicSystem& sys) {
    return tr.span("symbolic::Checker::Checker", job, [&] {
      return std::make_unique<symbolic::Checker>(sys, copts);
    }, ref.id);
  };
  if (!ref.composed) {
    const auto checker = makeChecker(modules.front().sys);
    const symbolic::CheckResult r = tr.span(
        "symbolic::Checker::check", job, [&] { return checker->check(spec); },
        ref.id);
    holds = r.holds;
    transNodes += r.transNodes;
  } else {
    const comp::PropertyClass cls = tr.span(
        "comp::classify", job, [&] { return comp::classify(spec); }, ref.id);
    std::vector<symbolic::SymbolicSystem> parts = reflexiveParts(tr, job, modules);
    if (cls == comp::PropertyClass::Unknown) {
      // The global fallback: check the spec on the composition.
      const symbolic::SymbolicSystem composed = tr.span(
          "symbolic::composeAll", job,
          [&] { return symbolic::composeAll(parts); }, ref.id);
      const auto checker = makeChecker(composed);
      const symbolic::CheckResult r = tr.span(
          "symbolic::Checker::check", job, [&] { return checker->check(spec); },
          ref.id);
      holds = r.holds;
      transNodes += r.transNodes;
    } else {
      comp::CompositionalVerifier verifier(*ctx, copts);
      for (symbolic::SymbolicSystem& sys : parts) {
        verifier.addComponent(std::move(sys));
      }
      comp::ProofTree proof;
      holds = tr.span("comp::CompositionalVerifier::verify", job, [&] {
        return verifier.verify(spec, proof, /*allowGlobalFallback=*/true);
      }, ref.id);
      if (!holds) {
        // As the service does: a rule that fails to establish the spec is
        // not a refutation, so decide on the composition directly.
        const auto checker = makeChecker(verifier.composed());
        holds = tr.span("symbolic::Checker::check", job,
                        [&] { return checker->check(spec); }, ref.id)
                    .holds;
      }
    }
  }
  modules.clear();
  bdd.add(ctx->mgr().stats());
  tr.span("symbolic::Context::~Context", job, [&] { ctx.reset(); }, ref.id);
  return holds;
}

/// Replay one model's job; returns its summary line.
std::string replayJob(Tracer& tr, const std::string& path, bool compose) {
  service::VerificationJob job;
  job.name = stem(path);
  job.smvText = readFile(path);
  job.sourcePath = path;
  job.options.engine = symbolic::EngineMode::Auto;  // the cmc CLI default
  job.options.compose = compose;
  const std::string& id = job.name;

  const int root = tr.open("bench::job", id);

  // The stages buildSnapshot runs, one public call each, in its order.
  std::size_t modules = 0;
  std::size_t boolVars = 0;
  std::uint64_t probes = 0;
  std::uint64_t probeAborted = 0;
  tr.span("bench::snapshot_stages", id, [&] {
    auto owned = tr.span("symbolic::Context::Context", id, [] {
      return std::make_unique<symbolic::Context>(1 << 14);
    });
    symbolic::Context& ctx = *owned;
    const std::vector<smv::Module> parsed = tr.span(
        "smv::parseProgram", id, [&] { return smv::parseProgram(job.smvText); });
    std::vector<smv::ElaboratedModule> elaborated;
    for (const smv::Module& m : parsed) {
      elaborated.push_back(tr.span("smv::elaborate", id,
                                   [&] { return smv::elaborate(ctx, m); }, m.name));
    }
    for (const smv::ElaboratedModule& m : elaborated) {
      tr.span("smv::canonicalModule", id,
              [&] { return smv::canonicalModule(ctx, m); }, m.sys.name);
    }
    const auto probe = [&](const symbolic::SymbolicSystem& sys) {
      const symbolic::EngineChoice c = tr.span(
          "symbolic::chooseEngine", id, [&] { return symbolic::chooseEngine(sys); },
          sys.name);
      ++probes;
      if (c.probeAborted) ++probeAborted;
    };
    for (const smv::ElaboratedModule& m : elaborated) probe(m.sys);
    if (compose && elaborated.size() > 1) {
      const std::vector<symbolic::SymbolicSystem> parts =
          reflexiveParts(tr, id, elaborated);
      const symbolic::SymbolicSystem composed = tr.span(
          "symbolic::composeAll", id, [&] { return symbolic::composeAll(parts); },
          "composed");
      probe(composed);
    }
    tr.span("bdd::Manager::collectGarbage", id,
            [&] { ctx.mgr().collectGarbage(); });
    modules = elaborated.size();
    boolVars = ctx.bitCount();
    elaborated.clear();
    tr.span("symbolic::Context::~Context", id, [&] { owned.reset(); });
  });

  // The real snapshot, then every obligation replayed on it.
  const service::SnapshotResult sr = tr.span(
      "service::buildSnapshot", id,
      [&] { return service::buildSnapshot(job, /*wantCanon=*/true); });
  if (!sr.snapshot) throw std::runtime_error(id + ": " + sr.error);
  const service::ElaborationSnapshot& snap = *sr.snapshot;

  BddTotals bdd;
  std::uint64_t checks = 0;
  std::uint64_t checksPartitioned = 0;
  std::uint64_t transNodes = 0;
  std::vector<std::pair<std::string, bool>> replayVerdicts;
  tr.span("bench::obligations", id, [&] {
    for (const service::ObligationRef& ref :
         service::enumerateObligations(snap, job.options)) {
      bool partitioned = true;
      const bool holds = tr.span("bench::obligation", id, [&] {
        return replayObligation(tr, id, snap, ref, job.options, bdd, transNodes,
                                partitioned);
      }, ref.id);
      ++checks;
      if (partitioned) ++checksPartitioned;
      replayVerdicts.emplace_back(ref.id, holds);
    }
  });

  // One enclosing service run of the same job, single-threaded.
  service::ServiceOptions sopts;
  sopts.threads = 1;
  sopts.cacheEnabled = false;
  auto svc = tr.span("service::VerificationService::VerificationService", id,
                     [&] { return std::make_unique<service::VerificationService>(sopts); });
  const service::JobReport report = tr.span(
      "service::VerificationService::run", id, [&] { return svc->run(job); });
  tr.span("service::VerificationService::~VerificationService", id,
          [&] { svc.reset(); });
  tr.close(root);
  const std::map<std::string, double> ms = tr.takeTotals();

  std::uint64_t attempts = 0, retries = 0, composed = 0, fallbacks = 0,
                partitionedAttempts = 0;
  JsonObject runVerdicts;
  for (const service::ObligationOutcome& o : report.obligations) {
    attempts += o.attempts.size();
    if (o.retried) ++retries;
    if (o.target == "composed") {
      ++composed;
      if (o.rule.find("global fallback") != std::string::npos) ++fallbacks;
    }
    for (const service::AttemptRecord& a : o.attempts) {
      if (a.engine == "partitioned") ++partitionedAttempts;
    }
    runVerdicts.put(o.id, service::toString(o.verdict));
  }

  JsonObject msJson;
  for (const auto& [name, v] : ms) msJson.putDouble(name, v);
  return JsonObject()
      .put("job", id)
      .putUint("modules", modules)
      .putUint("bool_vars", boolVars)
      .putUint("probes", probes)
      .putUint("probe_aborted", probeAborted)
      .putUint("checks", checks)
      .putUint("checks_partitioned", checksPartitioned)
      .putUint("trans_nodes", transNodes)
      .putUint("nodes_allocated", bdd.nodesAllocated)
      .putUint("op_cache_lookups", bdd.cacheLookups)
      .putUint("op_cache_hits", bdd.cacheHits)
      .putUint("unique_lookups", bdd.uniqueLookups)
      .putUint("gc_runs", bdd.gcRuns)
      .putUint("gc_reclaimed", bdd.gcReclaimed)
      .putUint("peak_live_nodes", bdd.peakLiveNodes)
      .putUint("import_nodes", bdd.importNodes)
      .putUint("obligations", report.obligations.size())
      .putUint("attempts", attempts)
      .putUint("retries", retries)
      .putUint("composed_obligations", composed)
      .putUint("global_fallbacks", fallbacks)
      .putUint("partitioned_attempts", partitionedAttempts)
      .putRaw("ms", msJson.str())
      .putRaw("verdicts", runVerdicts.str())
      .putRaw("replay_verdicts", verdictMap(replayVerdicts))
      .str();
}

int replayMain(const std::vector<std::string>& args) {
  bool compose = false;
  std::string spansPath, outPath;
  std::vector<std::string> models;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--compose") {
      compose = true;
    } else if (args[i] == "--spans" && i + 1 < args.size()) {
      spansPath = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      outPath = args[++i];
    } else {
      models.push_back(args[i]);
    }
  }
  if (spansPath.empty() || outPath.empty() || models.empty()) return 2;
  Tracer tr;
  std::vector<std::string> lines;
  for (const std::string& m : models) lines.push_back(replayJob(tr, m, compose));
  std::ofstream spans(spansPath), out(outPath);
  tr.write(spans);
  for (const std::string& l : lines) out << l << "\n";
  return spans && out ? 0 : 1;
}

int explicitMain(const std::vector<std::string>& args) {
  bool compose = false;
  for (const std::string& path : args) {
    if (path == "--compose") {
      compose = true;
      continue;
    }
    symbolic::Context ctx;
    const std::vector<smv::ElaboratedModule> mods =
        smv::elaborateProgram(ctx, readFile(path));
    const auto decide = [](const symbolic::SymbolicSystem& sys,
                           const ctl::Spec& spec) {
      const symbolic::ExplicitImage image = symbolic::explicitFromSymbolic(sys);
      kripke::ExplicitChecker checker(image.sys, image.semantics);
      return checker.holds(spec) ? "Holds" : "Fails";
    };
    for (const smv::ElaboratedModule& m : mods) {
      for (const ctl::Spec& spec : m.specs) {
        std::cout << m.sys.name << "/" << spec.name << " "
                  << decide(m.sys, spec) << "\n";
      }
    }
    if (compose && mods.size() > 1) {
      std::vector<symbolic::SymbolicSystem> parts;
      for (const smv::ElaboratedModule& m : mods) {
        symbolic::SymbolicSystem sys = m.sys;
        symbolic::addReflexive(sys);
        parts.push_back(std::move(sys));
      }
      const symbolic::SymbolicSystem composed = symbolic::composeAll(parts);
      for (const smv::ElaboratedModule& m : mods) {
        for (const ctl::Spec& spec : m.specs) {
          std::cout << "composed/" << spec.name << " "
                    << decide(composed, spec) << "\n";
        }
      }
    }
  }
  return 0;
}

struct RequestResult {
  std::size_t index = 0;
  int client = 0;
  double startMs = 0.0;
  double endMs = 0.0;
  bool ok = false;
  std::string response;  ///< raw response line when ok
  std::string error;
};

bool dial(net::Client& c, const std::string& socket, int limitMs,
          std::string* err) {
  if (!c.connectUnix(socket, err)) return false;
  timeval tv{};
  tv.tv_sec = limitMs / 1000;
  tv.tv_usec = (limitMs % 1000) * 1000;
  return ::setsockopt(c.socket()->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                      sizeof tv) == 0;
}

int loadMain(const std::vector<std::string>& args) {
  std::string socket, streamPath, outPath;
  int clients = 1;
  int limitMs = 60000;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const std::string& k = args[i];
    const std::string& v = args[i + 1];
    if (k == "--socket") socket = v;
    else if (k == "--stream") streamPath = v;
    else if (k == "--out") outPath = v;
    else if (k == "--clients") clients = std::stoi(v);
    else if (k == "--limit-ms") limitMs = std::stoi(v);
    else return 2;
  }
  if (socket.empty() || streamPath.empty() || outPath.empty() || clients < 1) {
    return 2;
  }

  // Stream lines: "<request id> <model path>".  Request lines are built
  // before the clock starts.
  std::vector<std::pair<std::string, std::string>> stream;
  {
    std::ifstream in(streamPath);
    std::map<std::string, std::string> texts;
    std::string rid, path;
    while (in >> rid >> path) {
      if (!texts.count(path)) texts[path] = readFile(path);
      stream.emplace_back(rid, JsonObject()
                                   .put("cmd", "CHECK")
                                   .put("id", rid)
                                   .put("smv", texts[path])
                                   .str());
    }
  }

  std::vector<RequestResult> results(stream.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point origin = Clock::now();
  const auto sinceMs = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin)
        .count();
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      std::string err;
      bool up = dial(client, socket, limitMs, &err);
      for (std::size_t i = next++; i < stream.size(); i = next++) {
        RequestResult& r = results[i];
        r.index = i;
        r.client = c;
        r.startMs = sinceMs();
        if (!up) up = dial(client, socket, limitMs, &err);
        r.ok = up && client.request(stream[i].second, &r.response, &err);
        r.endMs = sinceMs();
        if (!r.ok) {
          // Abandon the connection: a late response must not be read as
          // the answer to the next request.
          r.error = err.empty() ? "no response within the limit" : err;
          r.response.clear();
          client.close();
          up = false;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::ofstream out(outPath);
  for (const RequestResult& r : results) {
    JsonObject o;
    o.put("id", stream[r.index].first)
        .putUint("client", static_cast<std::uint64_t>(r.client))
        .putDouble("start_ms", r.startMs)
        .putDouble("end_ms", r.endMs)
        .putBool("ok", r.ok);
    if (r.ok) o.putRaw("response", r.response);
    else o.put("error", r.error);
    out << o.str() << "\n";
  }
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + std::min(argc, 2), argv + argc);
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "replay") return replayMain(args);
    if (mode == "load") return loadMain(args);
    if (mode == "explicit") return explicitMain(args);
  } catch (const std::exception& e) {
    std::cerr << "probe: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "usage: probe replay|explicit|load ... (see probe.cpp)\n";
  return 2;
}
