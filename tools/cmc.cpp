// cmc — the production command-line front end of the verification service.
//
//   cmc check [options] <model.smv> [more.smv ...]
//   cmc serve --socket /path [--tcp PORT] [options]
//   cmc coordinator --socket /path --topology shards.jsonl [options]
//   cmc submit --socket /path [options] <model.smv> [more.smv ...]
//   cmc cache compact --cache-dir DIR
//   cmc failpoints | version | help
//
// Each model file becomes one VerificationJob; all jobs run as one batch on
// the service's thread pool, so obligations of different models interleave.
//
// `cmc serve` keeps one VerificationService alive across many requests — a
// persistent daemon speaking newline-delimited JSON (src/net/protocol.hpp)
// over a Unix-domain socket, with admission control (bounded queue, BUSY
// backpressure), per-request CANCEL, live metrics (STATS), and SIGTERM =
// drain-and-exit-0.  `cmc submit` is the matching client.
// Every job writes a JSONL event trace and a summary JSON report (schema in
// README.md) next to its model — override the destinations with --trace and
// --report.  A crash-safe run journal records every outcome as it is
// decided; `cmc check --resume` replays it after a crash or interrupt.
//
//   cmc check --compose --deadline-ms 5000 --node-budget 2000000
//             --report out.json models/*.smv          (one command line)
//
// Exit codes follow the SMV-family convention: verdicts are data, not exit
// status.  0 = verification ran to completion (per-spec verdicts are in the
// output and the report); 2 = usage, I/O or elaboration error; 5 = some
// obligation ended in an Error verdict (exception despite quarantine);
// 128+N = interrupted by signal N after flushing partial results (130 =
// SIGINT, 143 = SIGTERM).  With --strict the verdict is additionally mapped
// onto the exit code for CI gating: 1 = some spec fails, 3 = budget
// exhausted (Timeout / MemoryOut), 4 = Inconclusive on both engines.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/topology.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/job_options.hpp"
#include "service/obligation_cache.hpp"
#include "service/scheduler.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "util/version.hpp"

using namespace cmc;

namespace {

constexpr const char* kUsage = R"(usage: cmc <command> [options] <model.smv> [more.smv ...]

commands:
  check       parse, elaborate and verify every SPEC of the given models
  serve       run the persistent verification daemon (wire protocol over a
              Unix-domain socket; see README.md "Server mode")
  coordinator front a fleet of serve daemons as one: route each obligation
              to its shard by content fingerprint, merge the verdicts
              (see README.md "Cluster mode" and docs/OPERATIONS.md)
  submit      client for a serving daemon or coordinator: submit checks,
              query STATUS/STATS, CANCEL a request, or DRAIN the server
  cache       maintain an on-disk obligation cache: `cmc cache compact`
              deduplicates DIR/obligations.jsonl offline
  failpoints  list the fault-injection sites (see docs/OPERATIONS.md)
  version     print the version string
  help        print this help

cmc check options:
  --compose          also verify each spec on the composition of all modules
                     (compositional rules first, certificate in the report)
  --engine MODE      first-attempt verification engine:
                       auto         probe the monolithic product size per
                                    obligation, pick the cheaper symbolic
                                    engine (default)
                       partitioned  symbolic fixpoints, partitioned relation
                       monolithic   symbolic fixpoints, materialized product
  --no-retry         disable the budget-exhaustion retry on the other engine
  --trace-force      re-check a cache/journal-replayed Fails that stored no
                     counterexample, so the report carries a trace
  --deadline-ms N    per-attempt wall-clock deadline in milliseconds
  --node-budget N    per-attempt budget of live BDD nodes
  --cluster N        partition clustering threshold in nodes (default 1024)
  --reorder          sift variables after elaboration, before checking
  --threads N        worker threads (default: hardware concurrency)
  --cache-dir DIR    persist decided verdicts to DIR/obligations.jsonl and
                     reload them on start-up, so a re-run of an unchanged
                     model serves its verdicts from the cache
  --no-cache         disable the content-addressed obligation cache
  --report PATH      write one combined summary JSON to PATH
                     (default: <model>.report.json next to each model)
  --trace PATH       write one combined JSONL event trace to PATH
                     (default: <model>.trace.jsonl next to each model)
  --journal PATH     crash-safe run journal: every outcome is appended (and
                     flushed) the moment it is decided (default: alongside
                     the report — <report>.journal.jsonl with --report, else
                     <first model>.journal.jsonl)
  --no-journal       disable the run journal
  --resume           load the journal and serve the obligations it already
                     decided (verdict_source "journal"); re-run the rest
  --failpoint S=A    arm fault-injection site S with action A (error, throw,
                     delay(ms), 1in(n)); repeatable; needs a build with
                     -DCMC_FAILPOINTS=ON (the CMC_FAILPOINTS env var takes
                     a comma-separated list of the same specs)
  --strict           map the aggregate verdict onto the exit code
                     (1 = some spec fails, 3 = budget exhausted,
                     4 = inconclusive); the default, as in the SMV family,
                     is to exit 0 whenever verification ran to completion
  --quiet            only print the final per-job verdicts

cmc serve options:
  --socket PATH      Unix-domain listener (required; unlinked on shutdown)
  --tcp PORT         also listen on 127.0.0.1:PORT (0 = pick an ephemeral
                     port, printed on start-up)
  --max-inflight N   CHECK requests executing at once (default: worker
                     threads)
  --queue-depth N    admitted CHECKs that may wait for a slot (default 16);
                     one more and the server answers BUSY
  --model-root DIR   resolve request "model" paths under DIR
  --metrics-interval-ms N
                     period of the "metrics" JSONL trace event (default
                     10000; 0 = off)
  plus, as in check: --threads --cache-dir --no-cache --journal --resume
  --trace --failpoint, and the job-option defaults (--compose --engine
  --no-retry --trace-force --deadline-ms --node-budget --cluster
  --reorder), which requests overlay per CHECK.  SIGTERM/SIGINT (or a
  DRAIN command) drains: in-flight requests finish and respond, new CHECKs
  get DRAINING, then the server exits 0.

cmc coordinator options:
  --socket PATH      Unix-domain listener (required; unlinked on shutdown)
  --tcp PORT         also listen on 127.0.0.1:PORT (0 = ephemeral, printed)
  --topology FILE    shard roster, one JSON object per line (required):
                     {"name": "s1", "socket": "/run/s1.sock"} or
                     {"name": "s2", "tcp": 7401}; # comments allowed
  --max-inflight N   CHECK jobs at once (default 16); one more answers BUSY
  --forward-threads N
                     obligation-forwarding pool width (default: 2 per
                     shard, at least 4)
  --probe-interval-ms N
                     shard health-probe period (default 1000; the actual
                     sleep is jittered in [0.5, 1.5)x the period)
  --fail-threshold N consecutive probe failures that mark a shard down
                     (default 2)
  --probation-probes N
                     consecutive successful probes a recovered shard must
                     serve before re-entering the ring (default 1; doubles
                     per mark-down, so flapping shards are held out longer)
  --replication N    copies of every decided obligation across the fleet
                     (default 2: owner + its rendezvous successor; 1 = off)
  --hedge-ms N       re-send a straggling CHECK to the next rendezvous
                     candidate after N ms in flight; first sound verdict
                     wins, the loser is cancelled (default 0 = off)
  --model-root DIR   resolve request "model" paths under DIR
  --trace PATH       write the coordinator's JSONL event trace to PATH
  plus --failpoint and the job-option defaults as in serve.  All shards
  must run this exact cmc version and protocol revision; the coordinator
  refuses to start against a mixed-version fleet.  SIGTERM/SIGINT (or
  DRAIN) drains and exits 0; the shards keep running.  SIGHUP re-reads
  --topology FILE and diffs it against the live roster (add/remove shards
  without a restart); JOIN/LEAVE do the same over the wire.

cmc submit options:
  --socket PATH      connect to the daemon's Unix-domain socket
  --tcp PORT         connect to 127.0.0.1:PORT instead
  --status | --stats | --drain | --cancel ID
                     control commands (no model arguments); --stats prints
                     the Prometheus-style metrics text
  --topology         coordinator only: print the shard roster with per-shard
                     lifecycle state (up/suspect/down/probation), flap
                     counts and replica-put counters
  --join NAME --shard-socket PATH | --shard-tcp PORT
                     coordinator only: add shard NAME to the ring after a
                     version handshake (a previously removed or down shard
                     re-enters through probation)
  --leave NAME       coordinator only: decommission shard NAME (refused for
                     the last shard; in-flight forwards finish first)
  --id ID            request id (one model) or id prefix (several)
  --name NAME        job name for a single submitted model
  --report PATH      write the returned report JSON (unescaped) to PATH
  --max-retries N    retry a CHECK refused with BUSY/DRAINING, lost to a
                     transport failure, or whose initial dial is refused
                     (a daemon restarting) up to N times (default 0 = fail
                     fast with exit 6 / exit 2, as before)
  --retry-ms N       base of the jittered exponential backoff between
                     retries: attempt k sleeps uniform in [c/2, c],
                     c = N·2^k ms, capped at 30 s (default 200)
  plus the job options above, overriding the server's defaults per CHECK.
  Model text is read client-side and sent inline, so the daemon need not
  share a filesystem with the client.

cmc cache compact options:
  cmc cache compact --cache-dir DIR   (or a positional DIR)
  Rewrite DIR/obligations.jsonl keeping only the last write per
  fingerprint, dropping corrupt lines, under the store's lock with an
  atomic rename.  Offline only: a store locked by a live writer (a running
  serve or check) is refused rather than raced.  Honors CMC_FAILPOINTS.

exit codes: 0 completed (all hold under --strict); 1 --strict and a spec
fails; 2 usage/I-O/model error; 3 --strict and Timeout/MemoryOut;
4 --strict and Inconclusive; 5 Error verdict; 6 submit refused
(BUSY/DRAINING); 130/143 interrupted (SIGINT/SIGTERM; journal, trace and
report hold the partial results)
)";

struct CliOptions {
  service::JobOptions job;
  unsigned threads = 0;
  std::string reportPath;
  std::string tracePath;
  std::string cacheDir;
  std::string journalPath;
  bool cacheEnabled = true;
  bool journalEnabled = true;
  bool resume = false;
  bool strict = false;
  bool quiet = false;
  std::vector<std::string> models;
  std::vector<std::string> failpoints;
};

/// Set by the SIGINT/SIGTERM handler; polled by the scheduler (via
/// ServiceOptions::cancelFlag) and by the checker's cancel hook, so a batch
/// winds down cooperatively: running attempts abort as Cancelled, queued
/// obligations drain, and everything decided so far is already journaled.
std::atomic<bool> gCancelRequested{false};
std::atomic<int> gSignal{0};

extern "C" void onSignal(int sig) {
  gCancelRequested.store(true, std::memory_order_relaxed);
  gSignal.store(sig, std::memory_order_relaxed);
  // A second signal falls through to the default action (immediate kill)
  // in case the wind-down itself wedges.
  std::signal(sig, SIG_DFL);
}

/// SIGHUP on `cmc coordinator` = re-read the topology file.  A dedicated
/// flag — NOT onSignal — because reload must not drain the coordinator;
/// the main loop polls it and runs the reload outside signal context.
std::atomic<bool> gReloadRequested{false};

extern "C" void onReload(int) {
  gReloadRequested.store(true, std::memory_order_relaxed);
}

std::string basenameStem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path : path.substr(slash + 1);
  if (name.size() > 4 && name.ends_with(".smv")) {
    name.resize(name.size() - 4);
  }
  return name;
}

std::string siblingPath(const std::string& modelPath, const char* suffix) {
  std::string base = modelPath;
  if (base.size() > 4 && base.ends_with(".smv")) {
    base.resize(base.size() - 4);
  }
  return base + suffix;
}

/// A numeric flag's value: digits only, in [min, max].  Prints the usage
/// error itself, naming the flag; a null `text` (no value) was already
/// reported.
bool uintArg(const std::string& flag, const char* text, std::uint64_t min,
             std::uint64_t max, std::uint64_t* out) {
  if (text == nullptr) return false;
  std::uint64_t n = 0;
  if (parseUint(text, &n) && n >= min && n <= max) {
    *out = n;
    return true;
  }
  std::cerr << "cmc: " << flag << " needs an integer in " << min << ".."
            << max << ", got '" << text << "'\n";
  return false;
}

/// The job-option flags of every subcommand, through the table in
/// service/job_options.hpp.  Prints the usage error itself.
service::FlagParse jobOptionArg(int argc, char** argv, int* i,
                                service::JobOptions* job,
                                service::JobOptionSet* given = nullptr) {
  std::string error;
  const service::FlagParse parsed =
      service::parseJobOptionFlag(argc, argv, i, job, given, &error);
  if (parsed == service::FlagParse::Invalid) {
    std::cerr << "cmc: " << error << "\n";
  }
  return parsed;
}

constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxUint64 = std::numeric_limits<std::uint64_t>::max();

int parseArgs(int argc, char** argv, CliOptions* cli) {
  // The CLI resolves the engine adaptively by default; library embedders
  // keep JobOptions' reproducible Partitioned default.
  cli->job.engine = symbolic::EngineMode::Auto;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const service::FlagParse r = jobOptionArg(argc, argv, &i, &cli->job);
    if (r == service::FlagParse::Invalid) return 2;
    if (r == service::FlagParse::Applied) continue;
    std::uint64_t n = 0;
    if (arg == "--strict") {
      cli->strict = true;
    } else if (arg == "--quiet") {
      cli->quiet = true;
    } else if (arg == "--threads") {
      if (!uintArg(arg, next(), 0, kMaxUnsigned, &n)) return 2;
      cli->threads = static_cast<unsigned>(n);
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->reportPath = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->tracePath = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->cacheDir = v;
    } else if (arg == "--no-cache") {
      cli->cacheEnabled = false;
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->journalPath = v;
    } else if (arg == "--no-journal") {
      cli->journalEnabled = false;
    } else if (arg == "--resume") {
      cli->resume = true;
    } else if (arg == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return 2;
      cli->failpoints.push_back(v);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc: unknown option " << arg << "\n" << kUsage;
      return 2;
    } else {
      cli->models.push_back(arg);
    }
  }
  if (cli->models.empty()) {
    std::cerr << "cmc: no model files given\n" << kUsage;
    return 2;
  }
  if (cli->resume && !cli->journalEnabled) {
    std::cerr << "cmc: --resume needs the journal (drop --no-journal)\n";
    return 2;
  }
  return 0;
}

/// The journal lives alongside the report: next to the combined report
/// when --report is given, else next to the first model.
std::string defaultJournalPath(const CliOptions& cli) {
  if (!cli.reportPath.empty()) {
    std::string base = cli.reportPath;
    if (base.size() > 5 && base.ends_with(".json")) {
      base.resize(base.size() - 5);
    }
    return base + ".journal.jsonl";
  }
  return siblingPath(cli.models.front(), ".journal.jsonl");
}

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cmc: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

/// Open the --trace file `path` (nothing to open when it is empty).  False,
/// after printing "<who>: cannot write <path>", when it cannot be written.
bool openTraceFile(const char* who, const std::string& path,
                   std::ofstream* file) {
  if (path.empty()) return true;
  file->open(path);
  if (*file) return true;
  std::cerr << who << ": cannot write " << path << "\n";
  return false;
}

void printReport(const service::JobReport& report, bool quiet) {
  std::cout << "== job " << report.job << " ==\n";
  if (!quiet) {
    for (const service::ObligationOutcome& o : report.obligations) {
      std::string text = o.specText;
      if (text.size() > 56) text = text.substr(0, 53) + "...";
      std::cout << "-- [" << o.target << "] " << o.spec << "  " << text
                << "  : " << service::toString(o.verdict) << " (" << o.rule
                << (o.verdictSource != "checked" ? ", " + o.verdictSource
                                                 : "")
                << (o.retried ? ", retried" : "") << ", "
                << service::jsonNumber(o.seconds) << " s)\n";
      if (!o.error.empty()) std::cout << "--   error: " << o.error << "\n";
      if (!o.counterexample.empty()) {
        std::cout << "-- counterexample:\n" << o.counterexample;
      }
    }
  }
  std::cout << "-- verdict: " << service::toString(report.verdict) << " ("
            << report.obligations.size() << " obligations, "
            << service::jsonNumber(report.wallSeconds) << " s wall)\n\n";
}

int armFailpoints(const std::vector<std::string>& specs) {
  if (!util::Failpoint::compiledIn()) {
    // Refuse rather than silently ignore: an operator arming a failpoint
    // against an uninstrumented binary would otherwise believe the fault
    // paths were exercised when nothing fired.
    const char* env = std::getenv("CMC_FAILPOINTS");
    if (!specs.empty()) {
      std::cerr << "cmc: --failpoint needs a build with -DCMC_FAILPOINTS=ON "
                   "(run `cmc failpoints` to see the catalog)\n";
      return 2;
    }
    if (env != nullptr && *env != '\0') {
      std::cerr << "cmc: the CMC_FAILPOINTS env var is set but this build "
                   "has no failpoints; rebuild with -DCMC_FAILPOINTS=ON or "
                   "unset it\n";
      return 2;
    }
  }
  for (const std::string& spec : specs) {
    util::Failpoint::configure(spec);  // throws cmc::Error on a bad spec
  }
  util::Failpoint::configureFromEnv();
  return 0;
}

int runCheck(const CliOptions& cli) {
  if (const int rc = armFailpoints(cli.failpoints); rc != 0) return rc;

  std::vector<service::VerificationJob> jobs;
  for (const std::string& path : cli.models) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cmc: cannot open " << path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    service::VerificationJob job;
    job.name = basenameStem(path);
    job.smvText = buffer.str();
    job.sourcePath = path;
    job.options = cli.job;
    jobs.push_back(std::move(job));
  }

  service::ServiceOptions svcOpts;
  svcOpts.threads = cli.threads;
  svcOpts.cacheEnabled = cli.cacheEnabled;
  svcOpts.cacheDir = cli.cacheDir;
  svcOpts.cancelFlag = &gCancelRequested;
  service::VerificationService svc(svcOpts);
  std::ofstream traceFile;
  if (!openTraceFile("cmc", cli.tracePath, &traceFile)) return 2;
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  // Journal: load the prior run first (--resume), then open the same file
  // for append — replayed outcomes are not re-recorded, new ones extend it.
  const std::string journalPath =
      !cli.journalPath.empty() ? cli.journalPath : defaultJournalPath(cli);
  service::JournalReplay replay;
  if (cli.resume) {
    replay = service::loadJournal(journalPath);
    if (!replay.found) {
      std::cerr << "cmc: no journal at " << journalPath
                << "; nothing to resume, running everything\n";
    } else {
      std::cout << "== resume: " << replay.decided.size()
                << " decided obligation(s) in " << journalPath;
      if (replay.corrupt > 0) {
        std::cout << ", " << replay.corrupt << " corrupt line(s) skipped";
      }
      std::cout << " ==\n";
    }
  }
  service::RunJournal journal;
  if (cli.journalEnabled) {
    std::string jerr;
    if (!journal.open(journalPath, &jerr)) {
      std::cerr << "cmc: " << jerr << "; continuing without a journal\n";
    }
  }

  // From here on an interrupt must wind the batch down, not kill it: the
  // handler raises the cancel flag the scheduler and checker poll.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const std::vector<service::JobReport> reports =
      svc.runBatch(jobs, &trace, journal.isOpen() ? &journal : nullptr,
                   cli.resume ? &replay : nullptr);

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // Default trace destination: <model>.trace.jsonl next to each model
  // (events carry their job name, so the combined stream splits cleanly).
  if (cli.tracePath.empty()) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const std::string needle = "\"job\": \"" + jobs[k].name + "\"";
      std::string lines;
      for (const std::string& line : trace.lines()) {
        if (line.find(needle) != std::string::npos) lines += line + "\n";
      }
      writeFile(siblingPath(cli.models[k], ".trace.jsonl"), lines);
    }
  }

  // Summary reports: one combined file with --report, else one per model.
  if (!cli.reportPath.empty()) {
    std::string combined;
    if (reports.size() == 1) {
      combined = reports.front().toJson() + "\n";
    } else {
      combined = "{\"reports\": [\n";
      for (std::size_t k = 0; k < reports.size(); ++k) {
        combined += reports[k].toJson();
        combined += k + 1 < reports.size() ? ",\n" : "\n";
      }
      combined += "]}\n";
    }
    if (!writeFile(cli.reportPath, combined)) return 2;
  } else {
    for (std::size_t k = 0; k < reports.size(); ++k) {
      writeFile(siblingPath(cli.models[k], ".report.json"),
                reports[k].toJson() + "\n");
    }
  }

  service::Verdict verdict = service::Verdict::Holds;
  for (const service::JobReport& report : reports) {
    printReport(report, cli.quiet);
    verdict = service::worseVerdict(verdict, report.verdict);
  }
  if (const service::ObligationCache* cache = svc.cache()) {
    const service::ObligationCacheStats stats = cache->stats();
    std::cout << "== cache: " << stats.hits << " hits, " << stats.misses
              << " misses, " << stats.inserts << " inserts";
    if (stats.loaded > 0) std::cout << ", " << stats.loaded << " loaded";
    if (stats.corruptLines > 0) {
      std::cout << ", " << stats.corruptLines << " corrupt lines skipped";
    }
    std::cout << " (" << cache->size() << " entries) ==\n";
  }
  if (journal.isOpen()) {
    std::uint64_t served = 0;
    for (const service::JobReport& report : reports) {
      served += report.journalHits;
    }
    std::cout << "== journal: " << journal.recorded()
              << " outcome(s) recorded";
    if (cli.resume) std::cout << ", " << served << " served from the journal";
    std::cout << " (" << journal.path() << ") ==\n";
  }

  if (const int sig = gSignal.load(std::memory_order_relaxed); sig != 0) {
    std::cerr << "cmc: interrupted by signal " << sig
              << "; partial results are in the journal, trace and report — "
                 "re-run with --resume to finish\n";
    return 128 + sig;
  }
  // An Error verdict (failed elaboration, or an exception that survived
  // quarantine) is an operational failure even in the default mode.
  if (verdict == service::Verdict::Error) return 5;
  if (!cli.strict) return 0;
  switch (verdict) {
    case service::Verdict::Holds: return 0;
    case service::Verdict::Fails: return 1;
    case service::Verdict::Inconclusive: return 4;
    default: return 3;  // Timeout / MemoryOut (Cancelled exits above)
  }
}

// ---------------------------------------------------------------------------
// The daemons' main loop

/// The main loop `cmc serve` and `cmc coordinator` share, entered once the
/// daemon has started.  SIGINT/SIGTERM are installed before the "listening
/// on" banner, so a script that signals the moment it reads the banner
/// drains the daemon rather than killing it.  `tick` runs every 100 ms
/// until a signal arrives or a DRAIN is requested; then the daemon drains
/// and shuts down.
template <typename Daemon>
void serveUntilDrained(const char* who, Daemon& daemon,
                       const std::string& socketPath,
                       const std::string& bannerTail,
                       const std::function<void()>& tick = {}) {
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::cout << who << ": listening on " << socketPath;
  if (daemon.boundTcpPort() >= 0) {
    std::cout << " and 127.0.0.1:" << daemon.boundTcpPort();
  }
  std::cout << " " << bannerTail << std::endl;

  // The handlers only set gSignal (async-signal-safe); this loop turns it
  // into a drain.  A DRAIN protocol command also ends it.
  while (gSignal.load(std::memory_order_relaxed) == 0 &&
         !daemon.drainRequested()) {
    if (tick) tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (const int sig = gSignal.load(std::memory_order_relaxed); sig != 0) {
    std::cout << who << ": signal " << sig << "; draining" << std::endl;
  }
  daemon.requestDrain();
  daemon.shutdown();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
}

// ---------------------------------------------------------------------------
// cmc serve

struct ServeOptions {
  net::ServerOptions server;
  unsigned threads = 0;
  std::string cacheDir;
  std::string journalPath;
  std::string tracePath;
  bool cacheEnabled = true;
  bool resume = false;
  std::vector<std::string> failpoints;
};

int parseServeArgs(int argc, char** argv, ServeOptions* opts) {
  service::JobOptions& job = opts->server.defaults;
  job.engine = symbolic::EngineMode::Auto;  // CLI default, as in check
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc serve: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const service::FlagParse r = jobOptionArg(argc, argv, &i, &job);
    if (r == service::FlagParse::Invalid) return 2;
    if (r == service::FlagParse::Applied) continue;
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->server.socketPath = v;
    } else if (arg == "--tcp") {
      if (!uintArg(arg, next(), 0, 65535, &n)) return 2;
      opts->server.tcpPort = static_cast<int>(n);
    } else if (arg == "--max-inflight") {
      if (!uintArg(arg, next(), 0, kMaxUnsigned, &n)) return 2;
      opts->server.maxInFlight = static_cast<unsigned>(n);
    } else if (arg == "--queue-depth") {
      if (!uintArg(arg, next(), 0, kMaxUint64, &n)) return 2;
      opts->server.queueDepth = static_cast<std::size_t>(n);
    } else if (arg == "--model-root") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->server.modelRoot = v;
    } else if (arg == "--metrics-interval-ms") {
      if (!uintArg(arg, next(), 0, kMaxUint64, &n)) return 2;
      opts->server.metricsIntervalSeconds = static_cast<double>(n) / 1e3;
    } else if (arg == "--threads") {
      if (!uintArg(arg, next(), 0, kMaxUnsigned, &n)) return 2;
      opts->threads = static_cast<unsigned>(n);
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->cacheDir = v;
    } else if (arg == "--no-cache") {
      opts->cacheEnabled = false;
    } else if (arg == "--journal") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->journalPath = v;
    } else if (arg == "--resume") {
      opts->resume = true;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->tracePath = v;
    } else if (arg == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->failpoints.push_back(v);
    } else {
      std::cerr << "cmc serve: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opts->server.socketPath.empty()) {
    std::cerr << "cmc serve: --socket PATH is required\n";
    return 2;
  }
  if (opts->resume && opts->journalPath.empty()) {
    std::cerr << "cmc serve: --resume needs --journal PATH\n";
    return 2;
  }
  return 0;
}

int runServe(const ServeOptions& opts) {
  if (const int rc = armFailpoints(opts.failpoints); rc != 0) return rc;

  service::MetricsRegistry metrics;
  service::ServiceOptions svcOpts;
  svcOpts.threads = opts.threads;
  svcOpts.cacheEnabled = opts.cacheEnabled;
  svcOpts.cacheDir = opts.cacheDir;
  svcOpts.metrics = &metrics;
  // No service-wide cancel flag: a signal means *drain* (in-flight
  // requests complete and respond), not cancel.  Per-request cancellation
  // arrives through the protocol's CANCEL command instead.
  service::VerificationService svc(svcOpts);

  std::ofstream traceFile;
  if (!openTraceFile("cmc serve", opts.tracePath, &traceFile)) return 2;
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  service::JournalReplay replay;
  if (opts.resume) {
    replay = service::loadJournal(opts.journalPath);
    if (replay.found) {
      std::cout << "cmc serve: resuming " << replay.decided.size()
                << " decided obligation(s) from " << opts.journalPath << "\n";
    }
  }
  service::RunJournal journal;
  if (!opts.journalPath.empty()) {
    std::string jerr;
    if (!journal.open(opts.journalPath, &jerr)) {
      std::cerr << "cmc serve: " << jerr << "; continuing without a journal\n";
    }
  }

  net::Server server(opts.server, svc, metrics, trace,
                     journal.isOpen() ? &journal : nullptr,
                     opts.resume && replay.found ? &replay : nullptr);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "cmc serve: " << err << "\n";
    return 2;
  }

  serveUntilDrained("cmc serve", server, opts.server.socketPath,
                    "(" + std::to_string(svc.threads()) + " workers)");

  std::cout << "cmc serve: drained; "
            << metrics.counterValue("checks_completed")
            << " check(s) completed, "
            << metrics.counterValue("checks_rejected_busy") << " busy, "
            << metrics.counterValue("checks_rejected_draining")
            << " refused draining";
  if (journal.isOpen()) {
    std::cout << "; " << journal.recorded() << " outcome(s) journaled";
  }
  std::cout << std::endl;
  // Drain-and-exit is the *orderly* path, signal or not: exit 0.
  return 0;
}

// ---------------------------------------------------------------------------
// cmc coordinator

struct CoordinatorCliOptions {
  cluster::CoordinatorOptions coord;
  std::string topologyPath;
  std::string tracePath;
  std::vector<std::string> failpoints;
};

int parseCoordinatorArgs(int argc, char** argv, CoordinatorCliOptions* opts) {
  service::JobOptions& job = opts->coord.defaults;
  job.engine = symbolic::EngineMode::Auto;  // CLI default, as in check
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc coordinator: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const service::FlagParse r = jobOptionArg(argc, argv, &i, &job);
    if (r == service::FlagParse::Invalid) return 2;
    if (r == service::FlagParse::Applied) continue;
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->coord.socketPath = v;
    } else if (arg == "--tcp") {
      if (!uintArg(arg, next(), 0, 65535, &n)) return 2;
      opts->coord.tcpPort = static_cast<int>(n);
    } else if (arg == "--topology") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->topologyPath = v;
    } else if (arg == "--max-inflight") {
      if (!uintArg(arg, next(), 0, kMaxUnsigned, &n)) return 2;
      opts->coord.maxInFlight = static_cast<unsigned>(n);
    } else if (arg == "--forward-threads") {
      if (!uintArg(arg, next(), 0, kMaxUnsigned, &n)) return 2;
      opts->coord.forwardThreads = static_cast<unsigned>(n);
    } else if (arg == "--probe-interval-ms") {
      if (!uintArg(arg, next(), 0, kMaxUint64, &n)) return 2;
      opts->coord.probeIntervalSeconds = static_cast<double>(n) / 1e3;
    } else if (arg == "--fail-threshold") {
      if (!uintArg(arg, next(), 1, kMaxInt, &n)) return 2;
      opts->coord.failThreshold = static_cast<int>(n);
    } else if (arg == "--probation-probes") {
      if (!uintArg(arg, next(), 1, kMaxInt, &n)) return 2;
      opts->coord.probationProbes = static_cast<int>(n);
    } else if (arg == "--replication") {
      if (!uintArg(arg, next(), 1, kMaxInt, &n)) return 2;
      opts->coord.replicationFactor = static_cast<int>(n);
    } else if (arg == "--hedge-ms") {
      if (!uintArg(arg, next(), 0, kMaxUint64, &n)) return 2;
      opts->coord.hedgeDelaySeconds = static_cast<double>(n) / 1e3;
    } else if (arg == "--model-root") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->coord.modelRoot = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->tracePath = v;
    } else if (arg == "--failpoint") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->failpoints.push_back(v);
    } else {
      std::cerr << "cmc coordinator: unknown option " << arg << "\n";
      return 2;
    }
  }
  if (opts->coord.socketPath.empty() && opts->coord.tcpPort < 0) {
    std::cerr << "cmc coordinator: --socket PATH is required\n";
    return 2;
  }
  if (opts->topologyPath.empty()) {
    std::cerr << "cmc coordinator: --topology FILE is required\n";
    return 2;
  }
  return 0;
}

int runCoordinator(CoordinatorCliOptions& opts) {
  if (const int rc = armFailpoints(opts.failpoints); rc != 0) return rc;

  std::string err;
  if (!cluster::loadTopology(opts.topologyPath, &opts.coord.topology, &err)) {
    std::cerr << "cmc coordinator: " << err << "\n";
    return 2;
  }
  // Remember where the topology came from: SIGHUP re-reads this path.
  opts.coord.topologyPath = opts.topologyPath;

  service::MetricsRegistry metrics;
  std::ofstream traceFile;
  if (!openTraceFile("cmc coordinator", opts.tracePath, &traceFile)) {
    return 2;
  }
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  cluster::Coordinator coordinator(opts.coord, metrics, trace);
  if (!coordinator.start(&err)) {
    std::cerr << "cmc coordinator: " << err << "\n";
    return 2;
  }

  // SIGHUP means re-read the topology file and diff it against the
  // roster — the zero-downtime alternative to restart-on-edit.  The
  // handler only sets a flag; each tick of the main loop acts on it.
  std::signal(SIGHUP, onReload);
  const auto reloadIfAsked = [&coordinator] {
    if (!gReloadRequested.exchange(false, std::memory_order_relaxed)) return;
    std::string summary, reloadErr;
    if (coordinator.reloadTopology(&summary, &reloadErr)) {
      std::cout << "cmc coordinator: " << summary << std::endl;
    } else {
      std::cerr << "cmc coordinator: reload failed: " << reloadErr
                << " (roster unchanged)" << std::endl;
    }
  };
  serveUntilDrained("cmc coordinator", coordinator, opts.coord.socketPath,
                    "fronting " + std::to_string(coordinator.shardsUp()) +
                        "/" + std::to_string(coordinator.shardsTotal()) +
                        " shard(s)",
                    reloadIfAsked);
  std::signal(SIGHUP, SIG_DFL);

  std::cout << "cmc coordinator: drained; "
            << metrics.counterValue("checks_completed")
            << " check(s) completed, "
            << metrics.counterValue("cluster_obligations_forwarded")
            << " obligation(s) forwarded, "
            << metrics.counterValue("cluster_redispatches")
            << " re-dispatched" << std::endl;
  // The shards keep serving; draining the coordinator is orderly: exit 0.
  return 0;
}

// ---------------------------------------------------------------------------
// cmc cache

int runCacheCompact(int argc, char** argv) {
  std::string dir;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        std::cerr << "cmc cache compact: --cache-dir requires a value\n";
        return 2;
      }
      dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc cache compact: unknown option " << arg << "\n";
      return 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      std::cerr << "cmc cache compact: one cache directory only\n";
      return 2;
    }
  }
  if (dir.empty()) {
    std::cerr << "cmc cache compact: need --cache-dir DIR (or a positional "
                 "directory)\n";
    return 2;
  }
  if (const int rc = armFailpoints({}); rc != 0) return rc;
  service::CompactionResult result;
  std::string err;
  if (!service::compactObligationStore(dir, &result, &err)) {
    std::cerr << "cmc cache compact: " << err << "\n";
    return 2;
  }
  std::cout << "== cache compact: " << result.entriesBefore << " -> "
            << result.entriesAfter << " entries, " << result.bytesBefore
            << " -> " << result.bytesAfter << " bytes (" << result.duplicates
            << " duplicate(s) dropped, " << result.corrupt
            << " corrupt line(s) dropped) ==\n";
  return 0;
}

// ---------------------------------------------------------------------------
// cmc submit

struct SubmitOptions {
  std::string socketPath;
  int tcpPort = -1;
  bool status = false;
  bool stats = false;
  bool drain = false;
  bool topology = false;   ///< TOPOLOGY: coordinator roster + lifecycle
  std::string joinName;    ///< JOIN: shard name to add/readmit
  std::string leaveName;   ///< LEAVE: shard name to decommission
  std::string shardSocket; ///< JOIN: the shard's Unix endpoint ...
  int shardTcp = -1;       ///< ... or its loopback TCP port
  std::string cancelId;
  std::string id;
  std::string name;
  std::string reportPath;
  bool strict = false;
  bool quiet = false;
  /// CHECK retry on BUSY/DRAINING or transport failure: off by default
  /// (maxRetries 0 keeps the historical fail-fast exit 6).
  int maxRetries = 0;
  int retryMs = 200;
  service::JobOptions job;
  /// Only the job options given on the command line are sent; the
  /// server's defaults cover the rest.
  service::JobOptionSet given;
  std::vector<std::string> models;
};

int parseSubmitArgs(int argc, char** argv, SubmitOptions* opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "cmc submit: " << arg << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    const service::FlagParse r =
        jobOptionArg(argc, argv, &i, &opts->job, &opts->given);
    if (r == service::FlagParse::Invalid) return 2;
    if (r == service::FlagParse::Applied) continue;
    std::uint64_t n = 0;
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->socketPath = v;
    } else if (arg == "--tcp") {
      if (!uintArg(arg, next(), 0, 65535, &n)) return 2;
      opts->tcpPort = static_cast<int>(n);
    } else if (arg == "--status") {
      opts->status = true;
    } else if (arg == "--stats") {
      opts->stats = true;
    } else if (arg == "--drain") {
      opts->drain = true;
    } else if (arg == "--topology") {
      opts->topology = true;
    } else if (arg == "--join") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->joinName = v;
    } else if (arg == "--leave") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->leaveName = v;
    } else if (arg == "--shard-socket") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->shardSocket = v;
    } else if (arg == "--shard-tcp") {
      if (!uintArg(arg, next(), 1, 65535, &n)) return 2;
      opts->shardTcp = static_cast<int>(n);
    } else if (arg == "--cancel") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->cancelId = v;
    } else if (arg == "--id") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->id = v;
    } else if (arg == "--name") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->name = v;
    } else if (arg == "--report") {
      const char* v = next();
      if (v == nullptr) return 2;
      opts->reportPath = v;
    } else if (arg == "--strict") {
      opts->strict = true;
    } else if (arg == "--quiet") {
      opts->quiet = true;
    } else if (arg == "--max-retries") {
      if (!uintArg(arg, next(), 0, kMaxInt, &n)) return 2;
      opts->maxRetries = static_cast<int>(n);
    } else if (arg == "--retry-ms") {
      if (!uintArg(arg, next(), 1, kMaxInt, &n)) return 2;
      opts->retryMs = static_cast<int>(n);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cmc submit: unknown option " << arg << "\n";
      return 2;
    } else {
      opts->models.push_back(arg);
    }
  }
  if (opts->socketPath.empty() && opts->tcpPort < 0) {
    std::cerr << "cmc submit: need --socket PATH or --tcp PORT\n";
    return 2;
  }
  if (!opts->joinName.empty() &&
      opts->shardSocket.empty() == (opts->shardTcp < 0)) {
    std::cerr << "cmc submit: --join needs exactly one of --shard-socket "
                 "PATH or --shard-tcp PORT\n";
    return 2;
  }
  if (opts->joinName.empty() &&
      (!opts->shardSocket.empty() || opts->shardTcp >= 0)) {
    std::cerr << "cmc submit: --shard-socket/--shard-tcp only make sense "
                 "with --join NAME\n";
    return 2;
  }
  const bool control = opts->status || opts->stats || opts->drain ||
                       opts->topology || !opts->joinName.empty() ||
                       !opts->leaveName.empty() || !opts->cancelId.empty();
  if (control && !opts->models.empty()) {
    std::cerr << "cmc submit: control commands take no model arguments\n";
    return 2;
  }
  if (!control && opts->models.empty()) {
    std::cerr << "cmc submit: no model files given\n";
    return 2;
  }
  return 0;
}

std::string buildCheckRequest(const SubmitOptions& opts, const std::string& id,
                              const std::string& name,
                              const std::string& smv) {
  service::JsonObject req;
  req.put("cmd", "CHECK").put("id", id);
  if (!name.empty()) req.put("name", name);
  service::writeJobOptions(opts.job, opts.given, &req);
  req.put("smv", smv);
  return req.str();
}

/// Render one CHECK response; returns the submit exit code contribution
/// (0 ok, 2 bad request, 6 refused) and folds the verdict into *worst.
int renderCheckResponse(const std::string& resp, bool quiet,
                        service::Verdict* worst, std::string* reportOut) {
  util::JsonValue doc;
  bool ok = false, queueCancelled = false;
  std::string id, code, message, job, verdictText, report;
  std::uint64_t obligations = 0, holds = 0, fails = 0, cacheHits = 0;
  double wall = 0.0, wait = 0.0;
  service::Verdict verdict = service::Verdict::Error;
  // A refusal carries a code and an error; a verdict, the summary fields.
  if (!util::parseJson(resp, &doc, nullptr) || !doc.req("ok", &ok) ||
      !doc.opt("id", &id) || !doc.opt("code", &code) ||
      !doc.opt("error", &message) ||
      (ok && !(doc.req("verdict", &verdictText) &&
               service::verdictFromString(verdictText, &verdict) &&
               doc.opt("job", &job) && doc.opt("obligations", &obligations) &&
               doc.opt("holds", &holds) && doc.opt("fails", &fails) &&
               doc.opt("cache_hits", &cacheHits) &&
               doc.opt("wall_seconds", &wall) &&
               doc.opt("queue_wait_seconds", &wait) &&
               doc.opt("cancelled_in_queue", &queueCancelled) &&
               doc.opt("report", &report)))) {
    std::cerr << "cmc submit: malformed response: " << resp.substr(0, 200)
              << "\n";
    return 2;
  }
  if (!ok) {
    std::cerr << "cmc submit: " << (id.empty() ? "request" : id) << ": "
              << code << ": " << message << "\n";
    return code == net::kBusy || code == net::kDraining ? 6 : 2;
  }
  std::cout << "== job " << job << ": " << verdictText << " (" << obligations
            << " obligations, " << holds << " hold, " << fails << " fail, "
            << cacheHits << " cache hits, " << service::jsonNumber(wall)
            << " s wall, " << service::jsonNumber(wait) << " s queued) ==\n";
  if (!quiet && queueCancelled) std::cout << "-- cancelled while queued --\n";
  *worst = service::worseVerdict(*worst, verdict);
  if (reportOut != nullptr) *reportOut = std::move(report);
  return 0;
}

/// Send one CHECK, retrying BUSY/DRAINING refusals and transport failures
/// with jittered exponential backoff when --max-retries is set.  True with
/// *resp filled on any server response (the caller maps refusal codes to
/// exit 6 as before); false with *err after the last transport failure.
bool sendCheckWithRetry(net::Client& client, const SubmitOptions& opts,
                        const std::string& reqLine, std::string* resp,
                        std::string* err) {
  return client.requestWithRetry(
      reqLine, opts.maxRetries, opts.retryMs, resp, err,
      [&opts](const std::string& why, int attempt, int delay) {
        std::cerr << "cmc submit: " << why << "; retry " << attempt << "/"
                  << opts.maxRetries << " in " << delay << " ms\n";
      });
}

int runSubmit(const SubmitOptions& opts) {
  net::Client client;
  std::string err;
  // The initial dial honors the retry budget too: a shard or coordinator
  // restarting (connection refused, socket not yet bound) looks exactly
  // like a mid-request transport failure from the caller's side.  The
  // final failure keeps the historical exit 2.
  const auto logRetry = [&opts](const std::string& why, int attempt,
                                int delay) {
    std::cerr << "cmc submit: " << why << "; retry " << attempt << "/"
              << opts.maxRetries << " in " << delay << " ms\n";
  };
  if (!client.connectRetrying(opts.socketPath, opts.tcpPort, opts.maxRetries,
                              opts.retryMs, &err, logRetry)) {
    std::cerr << "cmc submit: " << err << "\n";
    return 2;
  }

  // Control commands: one request, print, done.
  if (opts.status || opts.stats || opts.drain || opts.topology ||
      !opts.joinName.empty() || !opts.leaveName.empty() ||
      !opts.cancelId.empty()) {
    service::JsonObject req;
    if (opts.status) req.put("cmd", "STATUS");
    else if (opts.stats) req.put("cmd", "STATS");
    else if (opts.drain) req.put("cmd", "DRAIN");
    else if (opts.topology) req.put("cmd", "TOPOLOGY");
    else if (!opts.joinName.empty()) {
      req.put("cmd", "JOIN").put("shard", opts.joinName);
      if (opts.shardTcp >= 0) {
        req.putUint("tcp", static_cast<std::uint64_t>(opts.shardTcp));
      } else {
        req.put("socket", opts.shardSocket);
      }
    }
    else if (!opts.leaveName.empty())
      req.put("cmd", "LEAVE").put("shard", opts.leaveName);
    else req.put("cmd", "CANCEL").put("id", opts.cancelId);
    std::string resp;
    if (!client.request(req.str(), &resp, &err)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    util::JsonValue doc;
    bool ok = false;
    if (util::parseJson(resp, &doc, nullptr)) doc.opt("ok", &ok);
    if (opts.stats && ok) {
      // The greppable rendering: one metric per line.
      std::string text;
      double uptime = 0.0;
      std::uint64_t entries = 0;
      doc.opt("metrics_text", &text);
      doc.opt("uptime_seconds", &uptime);
      std::cout << text;
      if (doc.req("cache_entries", &entries)) {
        std::cout << "cache_entries " << entries << "\n";
      }
      std::cout << "uptime_seconds " << service::jsonNumber(uptime) << "\n";
    } else {
      std::cout << resp << "\n";
    }
    return ok ? 0 : 2;
  }

  // CHECK per model, sequentially on this connection (run several submit
  // processes for concurrency; the daemon interleaves them).
  int exitCode = 0;
  service::Verdict worst = service::Verdict::Holds;
  std::vector<std::string> reports;
  for (std::size_t k = 0; k < opts.models.size(); ++k) {
    const std::string& path = opts.models[k];
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cmc submit: cannot open " << path << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string id = opts.id;
    if (id.empty()) {
      id = "submit-" + std::to_string(::getpid()) + "-" + std::to_string(k);
    } else if (opts.models.size() > 1) {
      id += "-" + std::to_string(k);
    }
    const std::string name = !opts.name.empty() && opts.models.size() == 1
                                 ? opts.name
                                 : basenameStem(path);
    std::string resp;
    if (!sendCheckWithRetry(client, opts,
                            buildCheckRequest(opts, id, name, buffer.str()),
                            &resp, &err)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    std::string report;
    const int rc = renderCheckResponse(resp, opts.quiet, &worst,
                                       opts.reportPath.empty() ? nullptr
                                                               : &report);
    if (rc != 0) exitCode = rc;
    if (!report.empty()) reports.push_back(std::move(report));
  }

  if (!opts.reportPath.empty() && !reports.empty()) {
    std::string combined;
    if (reports.size() == 1) {
      combined = reports.front() + "\n";
    } else {
      combined = "{\"reports\": [\n";
      for (std::size_t k = 0; k < reports.size(); ++k) {
        combined += reports[k];
        combined += k + 1 < reports.size() ? ",\n" : "\n";
      }
      combined += "]}\n";
    }
    if (!writeFile(opts.reportPath, combined)) return 2;
  }

  if (exitCode != 0) return exitCode;
  if (worst == service::Verdict::Error) return 5;
  if (!opts.strict) return 0;
  switch (worst) {
    case service::Verdict::Holds: return 0;
    case service::Verdict::Fails: return 1;
    case service::Verdict::Inconclusive: return 4;
    default: return 3;
  }
}

int runFailpoints() {
  if (util::Failpoint::compiledIn()) {
    std::cout << "failpoint sites (compiled in; arm with --failpoint or the "
                 "CMC_FAILPOINTS env var):\n";
  } else {
    std::cout << "failpoint sites (NOT compiled into this build; configure "
                 "with -DCMC_FAILPOINTS=ON to arm them):\n";
  }
  for (const util::Failpoint::SiteInfo& s : util::Failpoint::sites()) {
    std::printf("  %-22s %s\n", s.name.c_str(), s.description.c_str());
  }
  std::cout << "actions: error | throw | delay(ms) | 1in(n)   "
               "(see docs/OPERATIONS.md)\n";
  return 0;
}

/// After a command that armed failpoints: how often each armed site was
/// hit, on stderr, so a chaos run can tell a site it reached from one it
/// never did.  Nothing can be armed in a build without failpoints.
void printFailpointHits() {
  for (const util::Failpoint::SiteInfo& s : util::Failpoint::sites()) {
    if (s.armed) {
      std::cerr << "cmc: failpoint " << s.name << ": " << s.hits << " hits\n";
    }
  }
}

int runCommand(const std::string& command, int argc, char** argv) {
  try {
    if (command == "check") {
      CliOptions cli;
      if (const int rc = parseArgs(argc, argv, &cli); rc != 0) return rc;
      return runCheck(cli);
    }
    if (command == "serve") {
      ServeOptions opts;
      if (const int rc = parseServeArgs(argc, argv, &opts); rc != 0)
        return rc;
      return runServe(opts);
    }
    if (command == "coordinator") {
      CoordinatorCliOptions opts;
      if (const int rc = parseCoordinatorArgs(argc, argv, &opts); rc != 0)
        return rc;
      return runCoordinator(opts);
    }
    if (command == "submit") {
      SubmitOptions opts;
      if (const int rc = parseSubmitArgs(argc, argv, &opts); rc != 0)
        return rc;
      return runSubmit(opts);
    }
    if (command == "cache") {
      if (argc < 3 || std::string(argv[2]) != "compact") {
        std::cerr << "cmc cache: the only subcommand is `compact`\n";
        return 2;
      }
      return runCacheCompact(argc, argv);
    }
  } catch (const Error& e) {
    std::cerr << "cmc: " << e.what() << "\n";
    return 2;
  }
  std::cerr << "cmc: unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  if (command == "version" || command == "--version") {
    std::cout << "cmc " << util::versionString()
              << " (compositional model checker)\n";
    return 0;
  }
  if (command == "help" || command == "--help") {
    std::cout << kUsage;
    return 0;
  }
  if (command == "failpoints") {
    return runFailpoints();
  }
  const int rc = runCommand(command, argc, argv);
  printFailpointHits();
  return rc;
}
