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

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
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


constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();
constexpr std::uint64_t kMaxUint64 = std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------------------
// The command line

/// The subcommands that read a command line, as bits of a flag's `takes`.
enum Command : unsigned {
  kCheck = 1u << 0,
  kServe = 1u << 1,
  kCoordinator = 1u << 2,
  kSubmit = 1u << 3,
  kCacheCompact = 1u << 4,
};
constexpr unsigned kDaemons = kServe | kCoordinator;

/// A count flag's value; unset when the flag was not given, so the
/// default of whatever the count configures stands.
using Count = std::optional<std::uint64_t>;

/// What the command line of any subcommand says.  Each subcommand reads
/// the members of the flags it takes.
struct CommandLine {
  service::JobOptions job;
  service::JobOptionSet given;  ///< the job options on the command line
  std::vector<std::string> operands;  ///< models, or cache compact's DIR
  std::vector<std::string> failpoints;
  Count threads;
  std::string cacheDir;
  bool noCache = false;
  std::string journalPath;
  bool noJournal = false;
  bool resume = false;
  std::string tracePath;
  std::string reportPath;
  bool strict = false;
  bool quiet = false;
  // The daemons' listener, or the endpoint submit connects to.
  std::string socketPath;
  int tcpPort = -1;
  Count maxInFlight;
  std::string modelRoot;
  // serve
  Count queueDepth;
  Count metricsIntervalMs;
  // coordinator
  std::string topologyPath;
  Count forwardThreads;
  Count probeIntervalMs;
  Count failThreshold;
  Count probationProbes;
  Count replication;
  Count hedgeMs;
  // submit
  bool status = false;
  bool stats = false;
  bool drain = false;
  bool topology = false;    ///< TOPOLOGY: coordinator roster + lifecycle
  std::string joinName;     ///< JOIN: shard name to add/readmit
  std::string leaveName;    ///< LEAVE: shard name to decommission
  std::string shardSocket;  ///< JOIN: the shard's Unix endpoint ...
  int shardTcp = -1;        ///< ... or its loopback TCP port
  std::string cancelId;
  std::string id;
  std::string name;
  /// CHECK retry on BUSY/DRAINING or transport failure: off by default
  /// (0 keeps the historical fail-fast exit 6).
  Count maxRetries;
  Count retryMs;
};

/// Where a flag's value goes, which also says how it reads: a switch, a
/// text, a repeatable text, a count in the flag's [min, max], or a TCP
/// port (-1 when not given) in that range.
using FlagTarget =
    std::variant<bool CommandLine::*, std::string CommandLine::*,
                 std::vector<std::string> CommandLine::*, Count CommandLine::*,
                 int CommandLine::*>;

struct Flag {
  const char* name;
  unsigned takes;  ///< the Commands that take it
  FlagTarget target;
  std::uint64_t min = 0;
  std::uint64_t max = kMaxUint64;
};

/// Every flag but the job options (service/job_options.hpp), once each.
/// `--topology` has two rows: a file for coordinator, a switch for submit.
const Flag kFlags[] = {
    {"--threads", kCheck | kServe, &CommandLine::threads, 0, kMaxUnsigned},
    {"--cache-dir", kCheck | kServe | kCacheCompact, &CommandLine::cacheDir},
    {"--no-cache", kCheck | kServe, &CommandLine::noCache},
    {"--journal", kCheck | kServe, &CommandLine::journalPath},
    {"--no-journal", kCheck, &CommandLine::noJournal},
    {"--resume", kCheck | kServe, &CommandLine::resume},
    {"--trace", kCheck | kDaemons, &CommandLine::tracePath},
    {"--failpoint", kCheck | kDaemons, &CommandLine::failpoints},
    {"--report", kCheck | kSubmit, &CommandLine::reportPath},
    {"--strict", kCheck | kSubmit, &CommandLine::strict},
    {"--quiet", kCheck | kSubmit, &CommandLine::quiet},
    {"--socket", kDaemons | kSubmit, &CommandLine::socketPath},
    {"--tcp", kDaemons | kSubmit, &CommandLine::tcpPort, 1, 65535},
    {"--max-inflight", kDaemons, &CommandLine::maxInFlight, 0, kMaxUnsigned},
    {"--model-root", kDaemons, &CommandLine::modelRoot},
    {"--queue-depth", kServe, &CommandLine::queueDepth},
    {"--metrics-interval-ms", kServe, &CommandLine::metricsIntervalMs},
    {"--topology", kCoordinator, &CommandLine::topologyPath},
    {"--forward-threads", kCoordinator, &CommandLine::forwardThreads, 0,
     kMaxUnsigned},
    {"--probe-interval-ms", kCoordinator, &CommandLine::probeIntervalMs},
    {"--fail-threshold", kCoordinator, &CommandLine::failThreshold, 1,
     kMaxInt},
    {"--probation-probes", kCoordinator, &CommandLine::probationProbes, 1,
     kMaxInt},
    {"--replication", kCoordinator, &CommandLine::replication, 1, kMaxInt},
    {"--hedge-ms", kCoordinator, &CommandLine::hedgeMs},
    {"--status", kSubmit, &CommandLine::status},
    {"--stats", kSubmit, &CommandLine::stats},
    {"--drain", kSubmit, &CommandLine::drain},
    {"--topology", kSubmit, &CommandLine::topology},
    {"--join", kSubmit, &CommandLine::joinName},
    {"--leave", kSubmit, &CommandLine::leaveName},
    {"--shard-socket", kSubmit, &CommandLine::shardSocket},
    {"--shard-tcp", kSubmit, &CommandLine::shardTcp, 1, 65535},
    {"--cancel", kSubmit, &CommandLine::cancelId},
    {"--id", kSubmit, &CommandLine::id},
    {"--name", kSubmit, &CommandLine::name},
    {"--max-retries", kSubmit, &CommandLine::maxRetries, 0, kMaxInt},
    {"--retry-ms", kSubmit, &CommandLine::retryMs, 1, kMaxInt},
};

/// Read `cmd`'s arguments, argv[first..], into *cl in one pass.  Each
/// argument goes first to the job-option table (every subcommand but
/// cache compact takes the job options), then to the flags of kFlags that
/// `cmd` takes; anything else is an operand, which check and submit take
/// as models and cache compact as its one directory.  False, after
/// printing the error prefixed with `who`, on a missing value, an integer
/// out of range, or an argument `cmd` does not take.
bool readCommandLine(Command cmd, const std::string& who, int argc,
                     char** argv, int first, CommandLine* cl) {
  // The CLI resolves the engine adaptively by default; library embedders
  // keep JobOptions' reproducible Partitioned default.  (submit sends only
  // the options given.)
  cl->job.engine = symbolic::EngineMode::Auto;
  const std::size_t maxOperands =
      cmd == kCheck || cmd == kSubmit ? std::numeric_limits<std::size_t>::max()
      : cmd == kCacheCompact          ? 1
                                      : 0;
  std::string error;
  const auto fail = [&who, &error] {
    std::cerr << who << ": " << error << "\n";
    return false;
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (cmd != kCacheCompact) {
      const service::FlagParse parsed = service::parseJobOptionFlag(
          argc, argv, &i, &cl->job, &cl->given, &error);
      if (parsed == service::FlagParse::Invalid) return fail();
      if (parsed == service::FlagParse::Applied) continue;
    }
    const Flag* flag = std::find_if(
        std::begin(kFlags), std::end(kFlags),
        [&](const Flag& f) { return (f.takes & cmd) != 0 && arg == f.name; });
    const bool option = arg.starts_with('-');
    if (flag == std::end(kFlags)) {
      if (!option && cl->operands.size() < maxOperands) {
        cl->operands.push_back(arg);
        continue;
      }
      std::cerr << who << ": "
                << (option ? "unknown option " : "unexpected argument ")
                << arg << "\n"
                << kUsage;
      return false;
    }
    if (const auto* on = std::get_if<bool CommandLine::*>(&flag->target)) {
      cl->**on = true;
      continue;
    }
    const char* value = service::flagValue(argc, argv, &i, &error);
    if (value == nullptr) return fail();
    if (const auto* text =
            std::get_if<std::string CommandLine::*>(&flag->target)) {
      cl->**text = value;
      continue;
    }
    if (const auto* texts =
            std::get_if<std::vector<std::string> CommandLine::*>(
                &flag->target)) {
      (cl->**texts).push_back(value);
      continue;
    }
    // Port 0 asks a daemon's listener for an ephemeral port; a client
    // has no port 0 to connect to.
    const auto* port = std::get_if<int CommandLine::*>(&flag->target);
    const std::uint64_t min =
        port != nullptr && (cmd & kDaemons) != 0 ? 0 : flag->min;
    std::uint64_t n = 0;
    if (!service::flagInteger(arg, value, min, flag->max, &n, &error)) {
      return fail();
    }
    if (port != nullptr) {
      cl->**port = static_cast<int>(n);
    } else {
      cl->*std::get<Count CommandLine::*>(flag->target) = n;
    }
  }
  return true;
}

/// Set *out from a count the command line gave; keep it otherwise.
template <typename T>
void setGiven(const Count& count, T* out) {
  if (count) *out = static_cast<T>(*count);
}

/// Set seconds *out from a count of milliseconds the command line gave.
void setGivenMs(const Count& ms, double* out) {
  if (ms) *out = static_cast<double>(*ms) / 1e3;
}

// ---------------------------------------------------------------------------
// What the subcommands share

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

/// Read the model file `path` into *text; false, after printing
/// "<who>: cannot open <path>", when it cannot be read.
bool readModel(const char* who, const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << who << ": cannot open " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
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

/// Write the --report file: one report as it is, several as
/// {"reports": [...]}.
bool writeReports(const std::string& path,
                  const std::vector<std::string>& reports) {
  if (reports.size() == 1) return writeFile(path, reports.front() + "\n");
  std::string combined = "{\"reports\": [\n";
  for (std::size_t k = 0; k < reports.size(); ++k) {
    combined += reports[k];
    combined += k + 1 < reports.size() ? ",\n" : "\n";
  }
  return writeFile(path, combined + "]}\n");
}

/// The exit code of a run that completed with `worst` as its worst
/// verdict.  An Error verdict (failed elaboration, or an exception that
/// survived quarantine) is an operational failure even in the default
/// mode; --strict maps the other verdicts too.
int verdictExitCode(service::Verdict worst, bool strict) {
  if (worst == service::Verdict::Error) return 5;
  if (!strict) return 0;
  switch (worst) {
    case service::Verdict::Holds: return 0;
    case service::Verdict::Fails: return 1;
    case service::Verdict::Inconclusive: return 4;
    default: return 3;  // Timeout / MemoryOut / Cancelled
  }
}

/// Open the run journal at `path` for append.  A journal that cannot be
/// opened is reported and the run goes on without one.
void openJournal(const char* who, const std::string& path,
                 service::RunJournal* journal) {
  std::string err;
  if (!journal->open(path, &err)) {
    std::cerr << who << ": " << err << "; continuing without a journal\n";
  }
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

// ---------------------------------------------------------------------------
// cmc check

/// The journal lives alongside the report: next to the combined report
/// when --report is given, else next to the first model.
std::string defaultJournalPath(const CommandLine& cl) {
  if (!cl.reportPath.empty()) {
    std::string base = cl.reportPath;
    if (base.size() > 5 && base.ends_with(".json")) {
      base.resize(base.size() - 5);
    }
    return base + ".journal.jsonl";
  }
  return siblingPath(cl.operands.front(), ".journal.jsonl");
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

int runCheck(const CommandLine& cl) {
  if (cl.operands.empty()) {
    std::cerr << "cmc check: no model files given\n" << kUsage;
    return 2;
  }
  if (cl.resume && cl.noJournal) {
    std::cerr << "cmc check: --resume needs the journal (drop --no-journal)\n";
    return 2;
  }
  if (const int rc = armFailpoints(cl.failpoints); rc != 0) return rc;

  std::vector<service::VerificationJob> jobs;
  for (const std::string& path : cl.operands) {
    service::VerificationJob job;
    if (!readModel("cmc", path, &job.smvText)) return 2;
    job.name = basenameStem(path);
    job.sourcePath = path;
    job.options = cl.job;
    jobs.push_back(std::move(job));
  }

  service::ServiceOptions svcOpts;
  setGiven(cl.threads, &svcOpts.threads);
  svcOpts.cacheEnabled = !cl.noCache;
  svcOpts.cacheDir = cl.cacheDir;
  svcOpts.cancelFlag = &gCancelRequested;
  service::VerificationService svc(svcOpts);
  // Without --trace the events stay in memory for the per-model split.
  std::ofstream traceFile;
  if (!openTraceFile("cmc", cl.tracePath, &traceFile)) return 2;
  service::RunTrace trace(traceFile.is_open() ? &traceFile : nullptr);

  // Journal: load the prior run first (--resume), then open the same file
  // for append — replayed outcomes are not re-recorded, new ones extend it.
  const std::string journalPath =
      !cl.journalPath.empty() ? cl.journalPath : defaultJournalPath(cl);
  service::JournalReplay replay;
  if (cl.resume) {
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
  if (!cl.noJournal) openJournal("cmc", journalPath, &journal);

  // From here on an interrupt must wind the batch down, not kill it: the
  // handler raises the cancel flag the scheduler and checker poll.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  const std::vector<service::JobReport> reports =
      svc.runBatch(jobs, &trace, journal.isOpen() ? &journal : nullptr,
                   cl.resume ? &replay : nullptr);

  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  // Default trace destination: <model>.trace.jsonl next to each model
  // (events carry their job name, so the combined stream splits cleanly).
  if (cl.tracePath.empty()) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const std::string needle = "\"job\": \"" + jobs[k].name + "\"";
      std::string lines;
      for (const std::string& line : trace.lines()) {
        if (line.find(needle) != std::string::npos) lines += line + "\n";
      }
      writeFile(siblingPath(cl.operands[k], ".trace.jsonl"), lines);
    }
  }

  // Summary reports: one combined file with --report, else one per model.
  std::vector<std::string> json;
  for (const service::JobReport& report : reports) {
    json.push_back(report.toJson());
  }
  if (!cl.reportPath.empty()) {
    if (!writeReports(cl.reportPath, json)) return 2;
  } else {
    for (std::size_t k = 0; k < json.size(); ++k) {
      writeFile(siblingPath(cl.operands[k], ".report.json"), json[k] + "\n");
    }
  }

  service::Verdict verdict = service::Verdict::Holds;
  for (const service::JobReport& report : reports) {
    printReport(report, cl.quiet);
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
    if (cl.resume) std::cout << ", " << served << " served from the journal";
    std::cout << " (" << journal.path() << ") ==\n";
  }

  if (const int sig = gSignal.load(std::memory_order_relaxed); sig != 0) {
    std::cerr << "cmc: interrupted by signal " << sig
              << "; partial results are in the journal, trace and report — "
                 "re-run with --resume to finish\n";
    return 128 + sig;
  }
  return verdictExitCode(verdict, cl.strict);
}

// ---------------------------------------------------------------------------
// The daemons

/// The listener options both daemons take: --socket (required), --tcp,
/// --model-root and the job-option defaults.  False, after saying so,
/// without --socket.
bool readListener(const char* who, const CommandLine& cl,
                  net::LineServerOptions* out) {
  if (cl.socketPath.empty()) {
    std::cerr << who << ": --socket PATH is required\n";
    return false;
  }
  out->socketPath = cl.socketPath;
  out->tcpPort = cl.tcpPort;
  out->defaults = cl.job;
  out->modelRoot = cl.modelRoot;
  return true;
}

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

int runServe(const CommandLine& cl) {
  net::ServerOptions opts;
  if (!readListener("cmc serve", cl, &opts)) return 2;
  if (cl.resume && cl.journalPath.empty()) {
    std::cerr << "cmc serve: --resume needs --journal PATH\n";
    return 2;
  }
  setGiven(cl.maxInFlight, &opts.maxInFlight);
  setGiven(cl.queueDepth, &opts.queueDepth);
  setGivenMs(cl.metricsIntervalMs, &opts.metricsIntervalSeconds);
  if (const int rc = armFailpoints(cl.failpoints); rc != 0) return rc;

  service::MetricsRegistry metrics;
  service::ServiceOptions svcOpts;
  setGiven(cl.threads, &svcOpts.threads);
  svcOpts.cacheEnabled = !cl.noCache;
  svcOpts.cacheDir = cl.cacheDir;
  svcOpts.metrics = &metrics;
  // No service-wide cancel flag: a signal means *drain* (in-flight
  // requests complete and respond), not cancel.  Per-request cancellation
  // arrives through the protocol's CANCEL command instead.
  service::VerificationService svc(svcOpts);

  // A daemon's trace streams to --trace or drops its events: nobody would
  // read events kept in memory, and they would grow with every request.
  std::ofstream traceFile;
  if (!openTraceFile("cmc serve", cl.tracePath, &traceFile)) return 2;
  service::RunTrace trace =
      traceFile.is_open() ? service::RunTrace(&traceFile)
                          : service::RunTrace(service::RunTrace::Disabled{});

  service::JournalReplay replay;
  if (cl.resume) {
    replay = service::loadJournal(cl.journalPath);
    if (replay.found) {
      std::cout << "cmc serve: resuming " << replay.decided.size()
                << " decided obligation(s) from " << cl.journalPath << "\n";
    }
  }
  service::RunJournal journal;
  if (!cl.journalPath.empty()) {
    openJournal("cmc serve", cl.journalPath, &journal);
  }

  net::Server server(opts, svc, metrics, trace,
                     journal.isOpen() ? &journal : nullptr,
                     cl.resume && replay.found ? &replay : nullptr);
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "cmc serve: " << err << "\n";
    return 2;
  }

  serveUntilDrained("cmc serve", server, opts.socketPath,
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

int runCoordinator(const CommandLine& cl) {
  cluster::CoordinatorOptions opts;
  if (!readListener("cmc coordinator", cl, &opts)) return 2;
  if (cl.topologyPath.empty()) {
    std::cerr << "cmc coordinator: --topology FILE is required\n";
    return 2;
  }
  setGiven(cl.maxInFlight, &opts.maxInFlight);
  setGiven(cl.forwardThreads, &opts.forwardThreads);
  setGivenMs(cl.probeIntervalMs, &opts.probeIntervalSeconds);
  setGiven(cl.failThreshold, &opts.failThreshold);
  setGiven(cl.probationProbes, &opts.probationProbes);
  setGiven(cl.replication, &opts.replicationFactor);
  setGivenMs(cl.hedgeMs, &opts.hedgeDelaySeconds);
  if (const int rc = armFailpoints(cl.failpoints); rc != 0) return rc;

  std::string err;
  if (!cluster::loadTopology(cl.topologyPath, &opts.topology, &err)) {
    std::cerr << "cmc coordinator: " << err << "\n";
    return 2;
  }
  // Remember where the topology came from: SIGHUP re-reads this path.
  opts.topologyPath = cl.topologyPath;

  service::MetricsRegistry metrics;
  std::ofstream traceFile;
  if (!openTraceFile("cmc coordinator", cl.tracePath, &traceFile)) {
    return 2;
  }
  service::RunTrace trace =
      traceFile.is_open() ? service::RunTrace(&traceFile)
                          : service::RunTrace(service::RunTrace::Disabled{});

  cluster::Coordinator coordinator(opts, metrics, trace);
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
  serveUntilDrained("cmc coordinator", coordinator, opts.socketPath,
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
// cmc cache compact

int runCacheCompact(const CommandLine& cl) {
  if (!cl.cacheDir.empty() && !cl.operands.empty()) {
    std::cerr << "cmc cache compact: one cache directory only\n";
    return 2;
  }
  const std::string dir =
      cl.operands.empty() ? cl.cacheDir : cl.operands.front();
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

std::string buildCheckRequest(const CommandLine& cl, const std::string& id,
                              const std::string& name,
                              const std::string& smv) {
  service::JsonObject req;
  req.put("cmd", "CHECK").put("id", id);
  if (!name.empty()) req.put("name", name);
  // Only the job options given on the command line are sent; the server's
  // defaults cover the rest.
  service::writeJobOptions(cl.job, cl.given, &req);
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

int runSubmit(const CommandLine& cl) {
  if (cl.socketPath.empty() && cl.tcpPort < 0) {
    std::cerr << "cmc submit: need --socket PATH or --tcp PORT\n";
    return 2;
  }
  if (!cl.joinName.empty() &&
      cl.shardSocket.empty() == (cl.shardTcp < 0)) {
    std::cerr << "cmc submit: --join needs exactly one of --shard-socket "
                 "PATH or --shard-tcp PORT\n";
    return 2;
  }
  if (cl.joinName.empty() && (!cl.shardSocket.empty() || cl.shardTcp >= 0)) {
    std::cerr << "cmc submit: --shard-socket/--shard-tcp only make sense "
                 "with --join NAME\n";
    return 2;
  }
  const bool control = cl.status || cl.stats || cl.drain || cl.topology ||
                       !cl.joinName.empty() || !cl.leaveName.empty() ||
                       !cl.cancelId.empty();
  if (control && !cl.operands.empty()) {
    std::cerr << "cmc submit: control commands take no model arguments\n";
    return 2;
  }
  if (!control && cl.operands.empty()) {
    std::cerr << "cmc submit: no model files given\n";
    return 2;
  }

  // The initial dial honors the retry budget too: a shard or coordinator
  // restarting (connection refused, socket not yet bound) looks exactly
  // like a mid-request transport failure from the caller's side.  The
  // final failure keeps the historical exit 2.
  const int maxRetries = static_cast<int>(cl.maxRetries.value_or(0));
  const int retryMs = static_cast<int>(cl.retryMs.value_or(200));
  const auto logRetry = [maxRetries](const std::string& why, int attempt,
                                     int delay) {
    std::cerr << "cmc submit: " << why << "; retry " << attempt << "/"
              << maxRetries << " in " << delay << " ms\n";
  };
  net::Client client;
  std::string err;
  if (!client.connectRetrying(cl.socketPath, cl.tcpPort, maxRetries, retryMs,
                              &err, logRetry)) {
    std::cerr << "cmc submit: " << err << "\n";
    return 2;
  }

  // Control commands: one request, print, done.
  if (control) {
    service::JsonObject req;
    if (cl.status) req.put("cmd", "STATUS");
    else if (cl.stats) req.put("cmd", "STATS");
    else if (cl.drain) req.put("cmd", "DRAIN");
    else if (cl.topology) req.put("cmd", "TOPOLOGY");
    else if (!cl.joinName.empty()) {
      req.put("cmd", "JOIN").put("shard", cl.joinName);
      if (cl.shardTcp >= 0) {
        req.putUint("tcp", static_cast<std::uint64_t>(cl.shardTcp));
      } else {
        req.put("socket", cl.shardSocket);
      }
    }
    else if (!cl.leaveName.empty())
      req.put("cmd", "LEAVE").put("shard", cl.leaveName);
    else req.put("cmd", "CANCEL").put("id", cl.cancelId);
    std::string resp;
    if (!client.request(req.str(), &resp, &err)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    util::JsonValue doc;
    bool ok = false;
    if (util::parseJson(resp, &doc, nullptr)) doc.opt("ok", &ok);
    if (cl.stats && ok) {
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
  // processes for concurrency; the daemon interleaves them).  A CHECK
  // refused with BUSY/DRAINING or lost to a transport failure is retried
  // with jittered exponential backoff when --max-retries is set; a final
  // refusal still exits 6.
  int exitCode = 0;
  service::Verdict worst = service::Verdict::Holds;
  std::vector<std::string> reports;
  for (std::size_t k = 0; k < cl.operands.size(); ++k) {
    const std::string& path = cl.operands[k];
    std::string smv;
    if (!readModel("cmc submit", path, &smv)) return 2;
    std::string id = cl.id;
    if (id.empty()) {
      id = "submit-" + std::to_string(::getpid()) + "-" + std::to_string(k);
    } else if (cl.operands.size() > 1) {
      id += "-" + std::to_string(k);
    }
    const std::string name = !cl.name.empty() && cl.operands.size() == 1
                                 ? cl.name
                                 : basenameStem(path);
    std::string resp;
    if (!client.requestWithRetry(buildCheckRequest(cl, id, name, smv),
                                 maxRetries, retryMs, &resp, &err, logRetry)) {
      std::cerr << "cmc submit: " << err << "\n";
      return 2;
    }
    std::string report;
    const int rc = renderCheckResponse(
        resp, cl.quiet, &worst, cl.reportPath.empty() ? nullptr : &report);
    if (rc != 0) exitCode = rc;
    if (!report.empty()) reports.push_back(std::move(report));
  }

  if (!cl.reportPath.empty() && !reports.empty() &&
      !writeReports(cl.reportPath, reports)) {
    return 2;
  }
  if (exitCode != 0) return exitCode;
  return verdictExitCode(worst, cl.strict);
}

// ---------------------------------------------------------------------------

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
  const auto run = [&](Command cmd, int (*body)(const CommandLine&)) {
    const bool compact = cmd == kCacheCompact;
    CommandLine cl;
    if (!readCommandLine(cmd, "cmc " + command + (compact ? " compact" : ""),
                         argc, argv, compact ? 3 : 2, &cl)) {
      return 2;
    }
    try {
      return body(cl);
    } catch (const Error& e) {
      std::cerr << "cmc: " << e.what() << "\n";
      return 2;
    }
  };
  if (command == "check") return run(kCheck, runCheck);
  if (command == "serve") return run(kServe, runServe);
  if (command == "coordinator") return run(kCoordinator, runCoordinator);
  if (command == "submit") return run(kSubmit, runSubmit);
  if (command == "cache") {
    if (argc < 3 || std::string(argv[2]) != "compact") {
      std::cerr << "cmc cache: the only subcommand is `compact`\n";
      return 2;
    }
    return run(kCacheCompact, runCacheCompact);
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
