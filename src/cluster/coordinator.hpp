// The cmc cluster coordinator (cluster layer): a daemon that fronts N
// `cmc serve` shards and presents them as one verification service over
// the same wire protocol.
//
// How a CHECK flows through it:
//   1. Scout: the coordinator elaborates the job ONCE into an elaboration
//      snapshot (service::buildSnapshot — the same scout the scheduler
//      runs) and enumerates its obligations with ids + content
//      fingerprints.
//   2. Route: each obligation's fingerprint is rendezvous-hashed over the
//      dispatchable shards (cluster/topology.hpp); the top-ranked shard
//      owns it.
//   3. Forward: the obligation goes to its shard daemon-to-daemon as an
//      ordinary single-obligation CHECK ({"only": "<id>", "smv": ...})
//      with every verdict-relevant option made explicit, so the shard
//      re-derives the identical fingerprint and serves it from its own
//      cache/journal when warm.
//   4. Gather: the flat single-obligation response fields are merged into
//      one JobReport (worst-of verdict, per-shard attribution via
//      ObligationOutcome::shard) that is indistinguishable from a local
//      run's.
//
// Routing by *fingerprint* — not round-robin — is what makes the fleet's
// caches compound: a resubmitted obligation always lands on the shard
// that decided it first, so a warm resubmission through the coordinator
// is served all-cache no matter how the batch was originally spread.
//
// Self-healing (protocol rev 3)
//   Membership is dynamic: JOIN adds a shard after a version/protocol
//   handshake, LEAVE decommissions one, TOPOLOGY lists the live roster,
//   and SIGHUP (cmc coordinator) re-reads the topology file and diffs it
//   against the roster.  Rendezvous hashing makes every change minimal:
//   a join/leave moves exactly the keys the affected shard owns.
//
//   Shard health is a state machine, not a flag:
//       up → suspect → down → probation → up
//   A probe failure on an up shard makes it suspect (still dispatchable);
//   failThreshold consecutive failures mark it down.  A down shard that
//   answers a probe enters probation: it must serve `probationRequired`
//   consecutive successful probes before re-entering the dispatch ring,
//   and that requirement doubles with each mark-down (capped), so a
//   flapping shard is held out longer each time it flaps.
//
//   Each decided obligation is also written through to the next
//   `replicationFactor - 1` shards in its rendezvous order (CACHE_PUT),
//   so when a shard dies its successor already holds the verdicts and
//   serves them `verdict_source:"cache"` instead of re-checking.  The
//   tier is last-write-wins, which is safe: cache keys are content
//   fingerprints, and fingerprint ⇒ verdict, so two writers can only
//   ever write the same verdict.
//
//   Hedged dispatch (off by default): when a forwarded CHECK has been in
//   flight longer than hedgeDelaySeconds, the coordinator launches the
//   same CHECK on the next dispatchable shard in the key's rendezvous
//   order; the first sound verdict wins and the loser's connection is
//   closed, which cancels its check server-side (the shard watches for
//   client hangup).  Safe for the same reason re-dispatch is: obligations
//   are pure functions of fingerprinted content.
//
// Threads: the front end (net/line_server.hpp) owns the listeners'
// accept threads and one thread per connection, which reads the request
// lines and calls handleRequest; a CHECK runs on its connection's thread
// and scatters its obligations onto the forwarding pool.  The coordinator
// adds that pool and the probe thread.
//
// Failure handling: a probe thread sends periodic (jittered) STATUS to
// every shard.  A transport failure while forwarding marks the shard down
// immediately and re-dispatches the obligation to the next shard in its
// rendezvous order.  Mixed-version shards are refused at startup and at
// JOIN, and probes keep a version-mismatched shard out of the ring.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>

#include "cluster/topology.hpp"
#include "net/client.hpp"
#include "net/line_server.hpp"
#include "net/protocol.hpp"
#include "service/metrics.hpp"
#include "service/snapshot.hpp"
#include "service/trace_log.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace cmc::cluster {

/// Compatibility gate over a shard's STATUS response: its cmc_version and
/// protocol_rev must match this build exactly.  False with a "shard runs
/// ..." explanation; a shard that does not stamp protocol_rev at all is a
/// pre-cluster build and is refused too.
bool shardCompatible(const std::string& statusResponse, std::string* why);

/// Rebuild an obligation's outcome from a shard's single-obligation CHECK
/// response (its flat fields, never the nested report).  A response that
/// is not a JSON object, lacks a verdict, or has a field of the wrong type
/// yields an Error outcome that says so.
service::ObligationOutcome outcomeFromResponse(
    const std::string& response, const service::ObligationRef& ref);

/// Shard lifecycle.  Up and Suspect are dispatchable; Down and Probation
/// are not.  Probation is the re-entry gate: a recovered shard serves
/// probes only, until enough consecutive successes prove it stable.
enum class ShardState { Up, Suspect, Down, Probation };

const char* toString(ShardState s) noexcept;

/// The front end's options (socket path, TCP port, job-option defaults,
/// model root) plus the fleet's.
struct CoordinatorOptions : net::LineServerOptions {
  Topology topology;
  /// Path the topology was loaded from; SIGHUP reload re-reads it (empty
  /// disables reload — embedded coordinators drive JOIN/LEAVE instead).
  std::string topologyPath;
  /// Concurrent CHECK jobs; one more and the coordinator answers BUSY.
  unsigned maxInFlight = 16;
  /// Obligation-forwarding pool width (0 = 2 per shard, min 4).
  unsigned forwardThreads = 0;
  /// Health-probe period; 0 disables the probe thread (tests drive
  /// probeNow() instead).  The actual sleep is jittered uniformly in
  /// [0.5, 1.5)·period so multiple coordinators sharing a fleet never
  /// probe in lockstep.
  double probeIntervalSeconds = 1.0;
  /// Consecutive probe failures before a shard is marked down.
  int failThreshold = 2;
  /// Consecutive successful probes a recovered shard must serve in
  /// probation before re-entering the ring; doubles per mark-down
  /// (capped at 64) so flapping shards are held out progressively longer.
  int probationProbes = 1;
  /// Copies of every decided obligation across the fleet: 1 = owner only
  /// (replication off), 2 = owner + its rendezvous successor, ...
  int replicationFactor = 2;
  /// Hedge a forwarded CHECK to the next rendezvous candidate after this
  /// many seconds in flight; 0 disables hedging.
  double hedgeDelaySeconds = 0.0;
  /// Full passes over a key's rendezvous order before the obligation is
  /// reported Error "no shard available" (later passes wait briefly, for
  /// all-BUSY rings).
  int dispatchSweeps = 3;
  /// recv timeout for probes, STATS scatter, and replica CACHE_PUTs,
  /// seconds.  CHECK forwards run without one: a killed shard closes the
  /// connection, which is the signal to re-dispatch.
  double controlTimeoutSeconds = 5.0;
};

class Coordinator {
 public:
  /// Metrics and trace are owned by the embedder and must outlive the
  /// coordinator.
  Coordinator(CoordinatorOptions opts, service::MetricsRegistry& metrics,
              service::RunTrace& trace);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Probe every shard, refuse mixed versions, start the front end (bind +
  /// listen + accept threads) and the probe thread.  False with a message
  /// when no listener can be set up, when a responding shard is
  /// version-incompatible, or when no shard responds at all.
  bool start(std::string* error);

  /// Refuse new CHECKs (DRAINING); in-flight jobs finish.  Idempotent.
  void requestDrain();
  bool drainRequested() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Drain, wait for in-flight jobs, close listeners/connections, join
  /// threads.  Idempotent.  Never touches the shards — they keep serving.
  void shutdown();

  int boundTcpPort() const noexcept { return front_.boundTcpPort(); }

  /// The front end's connection threads not yet joined (see LineServer).
  std::size_t connectionThreads() const { return front_.connectionThreads(); }

  std::size_t shardsUp() const;
  std::size_t shardsTotal() const;

  /// Run one synchronous probe round (the probe thread's body); the test
  /// seam for deterministic state-machine transitions.
  void probeNow();

  /// Re-read the topology file (opts.topologyPath) and diff it against
  /// the roster: new names are handshaken and added, missing names are
  /// decommissioned, changed endpoints are adopted.  The SIGHUP handler
  /// of `cmc coordinator` calls this from the main loop.  False with a
  /// message when the file is missing/malformed (the roster is untouched)
  /// or no topologyPath is configured.
  bool reloadTopology(std::string* summary, std::string* error);

 private:
  /// Live per-shard state.  `state` is read lock-free on the dispatch
  /// path; transitions and the observed STATUS fields are guarded by
  /// stateMutex_.
  struct Shard {
    ShardSpec spec;
    std::atomic<ShardState> state{ShardState::Up};
    std::atomic<std::uint64_t> dispatched{0};
    std::atomic<std::uint64_t> redispatched{0};
    std::atomic<std::uint64_t> replicaPuts{0};  ///< CACHE_PUTs sent to it
    int consecutiveFailures = 0;  ///< probe rounds; stateMutex_
    int downs = 0;                ///< lifetime mark-downs; stateMutex_
    int probationPasses = 0;      ///< consecutive probe successes; stateMutex_
    int probationRequired = 0;    ///< passes needed to re-enter; stateMutex_
    std::string downReason;       ///< stateMutex_
    std::string version;          ///< last observed; stateMutex_
    std::uint64_t inFlight = 0;   ///< last observed; stateMutex_
    std::uint64_t queued = 0;     ///< last observed; stateMutex_
  };

  static bool dispatchable(ShardState s) noexcept {
    return s == ShardState::Up || s == ShardState::Suspect;
  }

  /// An immutable roster snapshot: the shard set (kept alive by the
  /// shared_ptrs across a concurrent LEAVE) plus the parallel name list
  /// rendezvous hashing ranks.  One snapshot is taken per CHECK job at
  /// scatter time, so a JOIN mid-batch only affects later jobs — every
  /// obligation of one job routes over one consistent ring.
  struct Roster {
    std::vector<std::shared_ptr<Shard>> shards;
    std::vector<std::string> names;  ///< parallel to shards
  };
  Roster rosterSnapshot() const;

  /// One shard's observable state, captured under a single stateMutex_
  /// hold so a STATUS/STATS/TOPOLOGY aggregate is internally consistent.
  struct RosterEntry {
    std::shared_ptr<Shard> shard;  ///< keeps spec alive across LEAVE
    ShardState state = ShardState::Up;
    std::string reason;  ///< down/probation reason; empty when up
    std::string version;
    int downs = 0;
    int probationPasses = 0;
    int probationRequired = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t queued = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t redispatched = 0;
    std::uint64_t replicaPuts = 0;
  };
  std::vector<RosterEntry> snapshotRoster() const;

  void probeLoop();
  /// The front end's handler: this coordinator's command table.
  bool handleRequest(net::LineSocket& sock, const net::Request& req);
  void handleCheck(net::LineSocket& sock, const net::Request& req);
  std::string statusResponse();
  std::string statsResponse();
  std::string topologyResponse();
  std::string joinResponse(const net::Request& req);
  std::string leaveResponse(const net::Request& req);

  bool probeShard(Shard& shard, std::string* statusLine, std::string* error);
  /// Run one probe against one shard and apply the lifecycle transition.
  void probeOne(Shard& shard);
  void markDown(Shard& shard, const std::string& reason);
  void markUp(Shard& shard);
  void enterProbation(Shard& shard, const std::string& reason);
  bool connectShard(const ShardSpec& spec, net::Client* client,
                    std::string* error) const;
  /// Connect + STATUS + shardCompatible, the JOIN/reload admission gate.
  bool handshakeShard(const ShardSpec& spec, std::string* version,
                      std::string* error) const;

  /// Forward one obligation along its rendezvous order until a shard
  /// decides it; Error "no shard available" when the ring is exhausted.
  /// Hedges to the next candidate after hedgeDelaySeconds (when enabled),
  /// and write-replicates the decided verdict to the key's next
  /// replicationFactor-1 rendezvous shards.
  service::ObligationOutcome forwardObligation(
      const Roster& roster, const std::string& jobId,
      const std::string& jobName, const std::string& smvText,
      const service::JobOptions& options, const service::ObligationRef& ref);

  /// Write `out`'s decided verdict through to the key's replica shards
  /// (everyone in the first replicationFactor ranks of `order` except the
  /// shard that served it).  Failures are soft: the replica tier is an
  /// availability optimization, never a correctness dependency.
  void maybeReplicate(const Roster& roster,
                      const std::vector<std::size_t>& order,
                      const service::ObligationOutcome& out);

  CoordinatorOptions opts_;
  service::MetricsRegistry& metrics_;
  service::RunTrace& trace_;

  /// The live roster; mutable via JOIN/LEAVE/reload, guarded by
  /// stateMutex_.  Dispatch never touches it directly — it works on a
  /// Roster snapshot whose shared_ptrs outlive any concurrent removal.
  std::vector<std::shared_ptr<Shard>> shards_;
  mutable std::mutex stateMutex_;

  ThreadPool pool_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  bool shutdownDone_ = false;
  std::mutex shutdownMutex_;

  WallTimer uptime_;
  std::atomic<std::uint64_t> serial_{0};

  // In-flight CHECK jobs (admission + drain wait).
  mutable std::mutex jobsMutex_;
  std::condition_variable jobsCv_;
  unsigned activeJobs_ = 0;

  net::LineServer front_;
  std::thread probeThread_;
  std::condition_variable stopCv_;
  std::mutex stopMutex_;
};

}  // namespace cmc::cluster
