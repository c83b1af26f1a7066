#include "cluster/coordinator.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <future>
#include <random>

#include "service/job_options.hpp"
#include "service/journal.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace cmc::cluster {

namespace {

unsigned forwardPoolWidth(const CoordinatorOptions& opts) {
  if (opts.forwardThreads > 0) return opts.forwardThreads;
  const std::size_t shards = opts.topology.shards.size();
  return static_cast<unsigned>(std::max<std::size_t>(4, 2 * shards));
}

/// recv timeout on a connected client, for control-plane round-trips that
/// must not hang on a wedged shard.
void setRecvTimeout(net::Client& client, double seconds) {
  if (client.socket() == nullptr || seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(client.socket()->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// The single-obligation CHECK line forwarded to a shard.  Every job
/// option is explicit so the shard's enumeration hashes the exact
/// fingerprint the coordinator routed by, regardless of the shard's own
/// defaults.
std::string forwardRequestLine(const std::string& requestId,
                               const std::string& jobName,
                               const std::string& smvText,
                               const service::JobOptions& options,
                               const service::ObligationRef& ref) {
  service::JsonObject req;
  req.put("cmd", "CHECK")
      .put("id", requestId)
      .put("name", jobName)
      .put("only", ref.id);
  service::writeJobOptions(options, service::JobOptionSet().set(), &req);
  req.put("smv", smvText);
  return req.str();
}

/// An error outcome attributed to nothing in particular (ring exhausted)
/// or to a refusing shard; shared by the dispatch failure paths.
service::ObligationOutcome errorOutcome(const service::ObligationRef& ref,
                                        const std::string& message) {
  service::ObligationOutcome out;
  out.id = ref.id;
  out.target = ref.target;
  out.spec = ref.specName;
  out.specText = ref.specText;
  out.fingerprint = ref.fingerprint;
  out.verdict = service::Verdict::Error;
  out.error = message;
  return out;
}

}  // namespace

service::ObligationOutcome outcomeFromResponse(
    const std::string& response, const service::ObligationRef& ref) {
  util::JsonValue doc;
  std::string why;
  if (!util::parseJson(response, &doc, &why) || !doc.isObject()) {
    return errorOutcome(ref, "shard response is not a JSON object" +
                                 (why.empty() ? "" : ": " + why));
  }
  std::string verdictText;
  if (!doc.req("verdict", &verdictText)) {
    return errorOutcome(ref, "shard response carried no verdict");
  }
  // Start from the ref-derived fields; the response fills in the rest.
  service::ObligationOutcome out = errorOutcome(ref, "");
  std::string engine;
  if (!service::verdictFromString(verdictText, &out.verdict) ||
      !doc.opt("verdict_source", &out.verdictSource) ||
      !doc.opt("rule", &out.rule) ||
      !doc.opt("obligation_seconds", &out.seconds) ||
      !doc.opt("obligation_error", &out.error) ||
      !doc.opt("counterexample", &out.counterexample) ||
      !doc.opt("engine_choice", &out.engineChoiceJson) ||
      !doc.opt("proof", &out.proofJson) || !doc.opt("engine", &engine)) {
    return errorOutcome(ref, "malformed shard response");
  }
  // A freshly checked verdict ran real attempts on the shard; reflect the
  // deciding engine so the merged report explains itself like a local one.
  if (out.verdictSource == "checked" && !engine.empty()) {
    service::AttemptRecord attempt;
    attempt.engine = engine;
    attempt.verdict = out.verdict;
    attempt.seconds = out.seconds;
    out.attempts.push_back(std::move(attempt));
  }
  return out;
}

const char* toString(ShardState s) noexcept {
  switch (s) {
    case ShardState::Up: return "up";
    case ShardState::Suspect: return "suspect";
    case ShardState::Down: return "down";
    case ShardState::Probation: return "probation";
  }
  return "?";
}

bool shardCompatible(const std::string& statusResponse, std::string* why) {
  util::JsonValue status;
  std::string parseError;
  if (!util::parseJson(statusResponse, &status, &parseError) ||
      !status.isObject()) {
    *why = "shard STATUS response is not a JSON object" +
           (parseError.empty() ? "" : ": " + parseError);
    return false;
  }
  std::string version;
  std::uint64_t rev = 0;
  const util::JsonField revField = status.get("protocol_rev", &rev);
  if (!status.opt("cmc_version", &version) ||
      revField == util::JsonField::WrongType) {
    *why = "shard STATUS response has a malformed cmc_version or "
           "protocol_rev";
    return false;
  }
  if (revField == util::JsonField::Absent) {
    *why = "shard runs cmc " + (version.empty() ? "<unknown>" : version) +
           " which does not stamp protocol_rev (pre-cluster build); this "
           "coordinator is cmc " +
           util::versionString() + " (protocol rev " +
           std::to_string(net::kProtocolRevision) + ")";
    return false;
  }
  if (rev != net::kProtocolRevision || version != util::versionString()) {
    *why = "shard runs cmc " + version + " (protocol rev " +
           std::to_string(rev) + "); this coordinator is cmc " +
           util::versionString() + " (protocol rev " +
           std::to_string(net::kProtocolRevision) +
           ") — mixed-version clusters are refused";
    return false;
  }
  return true;
}

Coordinator::Coordinator(CoordinatorOptions opts,
                         service::MetricsRegistry& metrics,
                         service::RunTrace& trace)
    : opts_(std::move(opts)),
      metrics_(metrics),
      trace_(trace),
      pool_(forwardPoolWidth(opts_)),
      front_(opts_, metrics_,
             [this](net::LineSocket& sock, const net::Request& req) {
               return handleRequest(sock, req);
             }) {
  shards_.reserve(opts_.topology.shards.size());
  for (const ShardSpec& spec : opts_.topology.shards) {
    auto shard = std::make_shared<Shard>();
    shard->spec = spec;
    shard->probationRequired = opts_.probationProbes;
    shards_.push_back(std::move(shard));
  }
}

Coordinator::~Coordinator() { shutdown(); }

bool Coordinator::connectShard(const ShardSpec& spec, net::Client* client,
                               std::string* error) const {
  return spec.tcpPort >= 0 ? client->connectTcp(spec.tcpPort, error)
                           : client->connectUnix(spec.socketPath, error);
}

bool Coordinator::probeShard(Shard& shard, std::string* statusLine,
                             std::string* error) {
  ShardSpec spec;
  {
    // Copy under the lock: a rejoin/reload may move a (non-dispatchable)
    // shard's endpoint while the probe thread is walking the roster.
    std::lock_guard<std::mutex> lock(stateMutex_);
    spec = shard.spec;
  }
  net::Client client;
  if (!connectShard(spec, &client, error)) return false;
  setRecvTimeout(client, opts_.controlTimeoutSeconds);
  static const std::string kStatusLine =
      service::JsonObject().put("cmd", "STATUS").str();
  return client.request(kStatusLine, statusLine, error);
}

bool Coordinator::handshakeShard(const ShardSpec& spec, std::string* version,
                                 std::string* error) const {
  net::Client client;
  if (!connectShard(spec, &client, error)) return false;
  setRecvTimeout(client, opts_.controlTimeoutSeconds);
  static const std::string kStatusLine =
      service::JsonObject().put("cmd", "STATUS").str();
  std::string statusLine;
  if (!client.request(kStatusLine, &statusLine, error)) return false;
  std::string why;
  if (!shardCompatible(statusLine, &why)) {
    *error = why;
    return false;
  }
  util::JsonValue status;
  util::parseJson(statusLine, &status, nullptr);
  status.opt("cmc_version", version);
  return true;
}

void Coordinator::markDown(Shard& shard, const std::string& reason) {
  bool transitioned = false;
  ShardState prev = ShardState::Down;
  {
    // Reason before the state flip: a roster snapshot that observes a
    // non-up state always finds the reason already in place.
    std::lock_guard<std::mutex> lock(stateMutex_);
    shard.downReason = reason;
    prev = shard.state.exchange(ShardState::Down, std::memory_order_relaxed);
    if (prev != ShardState::Down) {
      transitioned = true;
      shard.probationPasses = 0;
      if (prev != ShardState::Probation) {
        // A fresh failure (not a failed recovery): the flap guard grows —
        // each mark-down doubles the probation the shard must serve.
        shard.downs += 1;
      }
      const int shift = std::min(shard.downs > 0 ? shard.downs - 1 : 0, 6);
      shard.probationRequired =
          std::min(opts_.probationProbes << shift, 64);
    }
  }
  if (transitioned) {
    metrics_.counter("cluster_shard_markdowns").inc();
    trace_.emit(service::JsonObject()
                    .put("event", "shard_down")
                    .putDouble("t", trace_.elapsedSeconds())
                    .put("shard", shard.spec.name)
                    .put("from", toString(prev))
                    .put("reason", reason));
  }
}

void Coordinator::markUp(Shard& shard) {
  const ShardState prev =
      shard.state.exchange(ShardState::Up, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    shard.downReason.clear();
    shard.probationPasses = 0;
  }
  if (prev != ShardState::Up) {
    metrics_.counter("cluster_shard_markups").inc();
    trace_.emit(service::JsonObject()
                    .put("event", "shard_up")
                    .putDouble("t", trace_.elapsedSeconds())
                    .put("shard", shard.spec.name)
                    .put("from", toString(prev)));
  }
}

void Coordinator::enterProbation(Shard& shard, const std::string& reason) {
  int required = 0;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    shard.state.store(ShardState::Probation, std::memory_order_relaxed);
    shard.probationPasses = 0;
    if (shard.probationRequired <= 0)
      shard.probationRequired = opts_.probationProbes;
    required = shard.probationRequired;
    shard.downReason = reason;
  }
  metrics_.counter("cluster_shard_probations").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "shard_probation")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("shard", shard.spec.name)
                  .put("reason", reason)
                  .putUint("required", static_cast<std::uint64_t>(required)));
}

void Coordinator::probeOne(Shard& shard) {
  std::string statusLine, error;
  if (!probeShard(shard, &statusLine, &error)) {
    const ShardState cur = shard.state.load(std::memory_order_relaxed);
    if (cur == ShardState::Down) return;  // already out; reason stands
    if (cur == ShardState::Probation) {
      // A probation shard must serve *consecutive* successes; one failure
      // sends it straight back down (the flap guard is already sized).
      markDown(shard, "probation probe: " + error);
      return;
    }
    int failures = 0;
    bool becameSuspect = false;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      failures = ++shard.consecutiveFailures;
      if (failures < opts_.failThreshold &&
          shard.state.load(std::memory_order_relaxed) == ShardState::Up) {
        shard.state.store(ShardState::Suspect, std::memory_order_relaxed);
        shard.downReason = "suspect: " + error;
        becameSuspect = true;
      }
    }
    if (becameSuspect) {
      metrics_.counter("cluster_shard_suspects").inc();
      trace_.emit(service::JsonObject()
                      .put("event", "shard_suspect")
                      .putDouble("t", trace_.elapsedSeconds())
                      .put("shard", shard.spec.name)
                      .put("reason", error));
    }
    if (failures >= opts_.failThreshold) markDown(shard, "probe: " + error);
    return;
  }

  std::string why;
  const bool compatible = shardCompatible(statusLine, &why);
  util::JsonValue status;
  util::parseJson(statusLine, &status, nullptr);
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    shard.consecutiveFailures = 0;
    status.opt("cmc_version", &shard.version);
    status.opt("in_flight", &shard.inFlight);
    status.opt("queued", &shard.queued);
  }
  if (!compatible) {
    // A responding-but-incompatible shard stays out of the ring: an old
    // build would ignore "only" and check whole jobs.
    markDown(shard, why);
    return;
  }
  switch (shard.state.load(std::memory_order_relaxed)) {
    case ShardState::Up:
      break;
    case ShardState::Suspect:
      // A suspect never left the ring; one good probe clears it.
      markUp(shard);
      break;
    case ShardState::Down:
      enterProbation(shard, "recovered; serving probes in probation");
      break;
    case ShardState::Probation: {
      int passes = 0, required = 0;
      {
        std::lock_guard<std::mutex> lock(stateMutex_);
        passes = ++shard.probationPasses;
        required = shard.probationRequired;
      }
      if (passes >= required) markUp(shard);
      break;
    }
  }
}

void Coordinator::probeNow() {
  std::vector<std::shared_ptr<Shard>> shards;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    shards = shards_;
  }
  for (const std::shared_ptr<Shard>& shard : shards) probeOne(*shard);
}

void Coordinator::probeLoop() {
  // Jitter every sleep so N coordinators sharing a fleet spread their
  // probe load instead of stampeding the shards in lockstep.
  std::mt19937_64 rng{std::random_device{}()};
  std::uniform_real_distribution<double> jitter(0.5, 1.5);
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock<std::mutex> lock(stopMutex_);
      stopCv_.wait_for(
          lock,
          std::chrono::duration<double>(opts_.probeIntervalSeconds *
                                        jitter(rng)),
          [&] { return stopping_.load(std::memory_order_relaxed); });
    }
    if (stopping_.load(std::memory_order_relaxed)) break;
    probeNow();
  }
}

std::size_t Coordinator::shardsUp() const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  std::size_t up = 0;
  for (const std::shared_ptr<Shard>& s : shards_) {
    if (dispatchable(s->state.load(std::memory_order_relaxed))) ++up;
  }
  return up;
}

std::size_t Coordinator::shardsTotal() const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  return shards_.size();
}

Coordinator::Roster Coordinator::rosterSnapshot() const {
  Roster roster;
  std::lock_guard<std::mutex> lock(stateMutex_);
  roster.shards = shards_;
  roster.names.reserve(shards_.size());
  for (const std::shared_ptr<Shard>& s : shards_)
    roster.names.push_back(s->spec.name);
  return roster;
}

bool Coordinator::start(std::string* error) {
  const Roster roster = rosterSnapshot();
  if (roster.shards.empty()) {
    *error = "topology has no shards";
    return false;
  }

  // Synchronous startup probe: refuse a ring we cannot correctly use.
  // A responding shard with the wrong version/revision is a configuration
  // error the operator must fix; an unreachable shard just starts down.
  std::size_t responding = 0;
  for (const std::shared_ptr<Shard>& shardPtr : roster.shards) {
    Shard& shard = *shardPtr;
    std::string statusLine, probeError;
    if (!probeShard(shard, &statusLine, &probeError)) {
      markDown(shard, "startup probe: " + probeError);
      continue;
    }
    ++responding;
    std::string why;
    if (!shardCompatible(statusLine, &why)) {
      *error = "shard '" + shard.spec.name + "': " + why;
      return false;
    }
    util::JsonValue status;
    util::parseJson(statusLine, &status, nullptr);
    std::lock_guard<std::mutex> lock(stateMutex_);
    status.opt("cmc_version", &shard.version);
  }
  if (responding == 0) {
    *error = "none of the " + std::to_string(roster.shards.size()) +
             " shards answered STATUS; start the shard daemons first";
    return false;
  }

  if (!front_.start(error)) return false;

  uptime_.reset();
  if (opts_.probeIntervalSeconds > 0.0)
    probeThread_ = std::thread(&Coordinator::probeLoop, this);

  trace_.emit(service::JsonObject()
                  .put("event", "coordinator_start")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("cmc_version", util::versionString())
                  .put("socket", opts_.socketPath)
                  .putUint("shards", roster.shards.size())
                  .putUint("shards_up", shardsUp())
                  .putUint("replication", static_cast<std::uint64_t>(
                                              opts_.replicationFactor))
                  .putUint("forward_threads", pool_.size()));
  return true;
}

void Coordinator::requestDrain() {
  if (draining_.exchange(true)) return;
  metrics_.counter("cluster_drains").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "drain")
                  .putDouble("t", trace_.elapsedSeconds()));
}

void Coordinator::shutdown() {
  std::lock_guard<std::mutex> shutdownLock(shutdownMutex_);
  if (shutdownDone_) return;
  requestDrain();

  {
    std::unique_lock<std::mutex> lock(jobsMutex_);
    jobsCv_.wait(lock, [&] { return activeJobs_ == 0; });
  }

  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(stopMutex_);
  }
  stopCv_.notify_all();
  front_.stop();
  if (probeThread_.joinable()) probeThread_.join();

  trace_.emit(service::JsonObject()
                  .put("event", "coordinator_stop")
                  .putDouble("t", trace_.elapsedSeconds())
                  .putDouble("uptime_seconds", uptime_.seconds()));
  shutdownDone_ = true;
}

bool Coordinator::handleRequest(net::LineSocket& sock,
                                const net::Request& req) {
  switch (req.cmd) {
    case net::Command::Check:
      handleCheck(sock, req);
      return true;
    case net::Command::Status:
      return sock.writeLine(statusResponse());
    case net::Command::Stats:
      return sock.writeLine(statsResponse());
    case net::Command::Topology:
      return sock.writeLine(topologyResponse());
    case net::Command::Join:
      return sock.writeLine(joinResponse(req));
    case net::Command::Leave:
      return sock.writeLine(leaveResponse(req));
    case net::Command::CachePut:
      return sock.writeLine(net::errorResponse(
          "CACHE_PUT", net::kBadRequest,
          "CACHE_PUT is a shard command; the coordinator writes "
          "replicas, it does not hold a cache"));
    case net::Command::Cancel:
      return sock.writeLine(net::errorResponse(
          "CANCEL", net::kBadRequest,
          "the coordinator does not support CANCEL; cancel at the "
          "owning shard"));
    case net::Command::Drain:
      requestDrain();
      return sock.writeLine(service::JsonObject()
                                .putBool("ok", true)
                                .put("cmd", "DRAIN")
                                .put("state", "draining")
                                .str());
  }
  return true;
}

service::ObligationOutcome Coordinator::forwardObligation(
    const Roster& roster, const std::string& jobId,
    const std::string& jobName, const std::string& smvText,
    const service::JobOptions& options, const service::ObligationRef& ref) {
  metrics_.counter("cluster_obligations_forwarded").inc();
  WallTimer forwardTimer;
  // Route by fingerprint so a warm resubmission revisits the shard whose
  // cache holds the verdict; obligations the scout could not fingerprint
  // route by id (stable, just not content-addressed).
  const std::string& key = ref.fingerprint.empty() ? ref.id : ref.fingerprint;
  const std::vector<std::size_t> order = rendezvousOrder(roster.names, key);
  const std::string requestLine =
      forwardRequestLine(jobId + "/" + ref.id, jobName, smvText, options, ref);
  const int hedgeMs =
      opts_.hedgeDelaySeconds > 0.0
          ? std::max(1, static_cast<int>(
                            std::llround(opts_.hedgeDelaySeconds * 1e3)))
          : -1;
  std::string lastError = "all shards down";
  for (int sweep = 0; sweep < opts_.dispatchSweeps; ++sweep) {
    bool sawBusy = false;
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      Shard& shard = *roster.shards[order[rank]];
      if (!dispatchable(shard.state.load(std::memory_order_relaxed)))
        continue;
      const bool isRedispatch = rank > 0 || sweep > 0;
      net::Client client;
      std::string error;
      if (!connectShard(shard.spec, &client, &error)) {
        markDown(shard, "connect: " + error);
        lastError = shard.spec.name + ": " + error;
        continue;
      }
      shard.dispatched.fetch_add(1, std::memory_order_relaxed);
      if (isRedispatch) {
        shard.redispatched.fetch_add(1, std::memory_order_relaxed);
        metrics_.counter("cluster_redispatches").inc();
        trace_.emit(service::JsonObject()
                        .put("event", "redispatch")
                        .putDouble("t", trace_.elapsedSeconds())
                        .put("obligation", ref.id)
                        .put("shard", shard.spec.name));
      }
      // No recv timeout on CHECK lanes: a long check is legitimate, and a
      // SIGKILLed shard closes the connection, which lands as a transport
      // error below.
      if (!client.send(requestLine)) {
        markDown(shard, "forward: send failed (shard gone?)");
        lastError = shard.spec.name + ": send failed";
        continue;
      }

      // Lane 0 is the primary; lane 1, when the primary straggles past
      // the hedge threshold, races it on the next rendezvous candidate.
      struct Lane {
        net::Client* client = nullptr;
        Shard* shard = nullptr;
        bool alive = false;
      };
      net::Client hedgeClient;
      Lane lanes[2];
      lanes[0] = {&client, &shard, true};
      bool hedged = false;

      if (hedgeMs > 0) {
        pollfd p{};
        p.fd = client.socket()->fd();
        p.events = POLLIN;
        int ready;
        do {
          ready = ::poll(&p, 1, hedgeMs);
        } while (ready < 0 && errno == EINTR);
        if (ready == 0) {
          // Straggler.  The failpoint lets tests postpone (delay) or
          // suppress (error) the hedge deterministically; either way the
          // primary lane keeps running.
          bool skipHedge = false;
          try {
            CMC_FAILPOINT("cluster.hedge_delay");
          } catch (const std::exception&) {
            skipHedge = true;
          }
          for (std::size_t r2 = rank + 1; !skipHedge && r2 < order.size();
               ++r2) {
            Shard& cand = *roster.shards[order[r2]];
            if (!dispatchable(cand.state.load(std::memory_order_relaxed)))
              continue;
            std::string herror;
            if (!connectShard(cand.spec, &hedgeClient, &herror)) continue;
            if (!hedgeClient.send(requestLine)) {
              hedgeClient.close();
              continue;
            }
            cand.dispatched.fetch_add(1, std::memory_order_relaxed);
            lanes[1] = {&hedgeClient, &cand, true};
            hedged = true;
            metrics_.counter("cluster_hedges").inc();
            trace_.emit(service::JsonObject()
                            .put("event", "hedge")
                            .putDouble("t", trace_.elapsedSeconds())
                            .put("obligation", ref.id)
                            .put("straggler", shard.spec.name)
                            .put("hedge_to", cand.spec.name));
            break;
          }
        }
      }

      // Gather: the first sound response wins.  A transport death on one
      // lane falls back to the other; BUSY/DRAINING retires a lane
      // politely (no health event).  The losing lane's connection is
      // closed, which cancels its check server-side — the shard watches
      // running requests for client hangup.
      std::string response;
      Shard* winner = nullptr;
      bool refused = false;
      std::string refusal;
      while (lanes[0].alive || lanes[1].alive) {
        int laneIdx = -1;
        if (lanes[0].alive && lanes[1].alive) {
          pollfd fds[2] = {};
          fds[0].fd = lanes[0].client->socket()->fd();
          fds[0].events = POLLIN;
          fds[1].fd = lanes[1].client->socket()->fd();
          fds[1].events = POLLIN;
          int ready;
          do {
            ready = ::poll(fds, 2, -1);
          } while (ready < 0 && errno == EINTR);
          if (ready <= 0) break;
          laneIdx = fds[0].revents != 0 ? 0 : 1;
        } else {
          laneIdx = lanes[0].alive ? 0 : 1;
        }
        Lane& lane = lanes[laneIdx];
        std::string resp, lerr;
        if (!lane.client->readResponse(&resp, &lerr)) {
          // The lane's shard died (or vanished) with our obligation in
          // flight.  Obligations are pure and cache-keyed by fingerprint,
          // so falling back to the other lane — or re-dispatching down
          // the ring — is always safe: at worst the same verdict is
          // computed twice.
          markDown(*lane.shard, "forward: " + lerr);
          lastError = lane.shard->spec.name + ": " + lerr;
          lane.alive = false;
          continue;
        }
        util::JsonValue doc;
        bool ok = false;
        util::parseJson(resp, &doc, nullptr);
        doc.opt("ok", &ok);
        if (!ok) {
          std::string code;
          doc.opt("code", &code);
          if (code == net::kBusy || code == net::kDraining) {
            sawBusy = true;
            lastError = lane.shard->spec.name + ": " + code;
            lane.alive = false;
            continue;
          }
          std::string message = "malformed response";
          doc.opt("error", &message);
          winner = lane.shard;
          refused = true;
          refusal = code + ": " + message;
        } else {
          winner = lane.shard;
          response = resp;
        }
        lane.alive = false;
        Lane& other = lanes[1 - laneIdx];
        if (other.alive) {
          other.client->close();
          other.alive = false;
          metrics_.counter("cluster_hedge_cancels").inc();
        }
        break;
      }
      if (winner == nullptr) continue;  // every lane died or was refused
      if (hedged) {
        if (winner != &shard) metrics_.counter("cluster_hedge_wins").inc();
        trace_.emit(service::JsonObject()
                        .put("event", "hedge_winner")
                        .putDouble("t", trace_.elapsedSeconds())
                        .put("obligation", ref.id)
                        .put("winner", winner->spec.name));
      }
      if (refused) {
        service::ObligationOutcome out =
            errorOutcome(ref, winner->spec.name + ": " + refusal);
        out.shard = winner->spec.name;
        out.hedged = hedged;
        return out;
      }
      service::ObligationOutcome out = outcomeFromResponse(response, ref);
      out.shard = winner->spec.name;
      out.hedged = hedged;
      metrics_.histogram("cluster_forward_seconds")
          .observe(forwardTimer.seconds());
      maybeReplicate(roster, order, out);
      return out;
    }
    if (!sawBusy) break;  // nothing is busy, nothing is up: sweeps can't help
    if (sweep + 1 < opts_.dispatchSweeps) {
      metrics_.counter("cluster_busy_retries").inc();
      std::this_thread::sleep_for(std::chrono::milliseconds(100 * (sweep + 1)));
    }
  }
  service::ObligationOutcome out = errorOutcome(
      ref, "no shard could take obligation '" + ref.id +
               "' (last: " + lastError + ")");
  metrics_.counter("cluster_dispatch_failures").inc();
  return out;
}

void Coordinator::maybeReplicate(const Roster& roster,
                                 const std::vector<std::size_t>& order,
                                 const service::ObligationOutcome& out) {
  if (opts_.replicationFactor < 2) return;
  if (out.fingerprint.empty()) return;
  if (out.verdict != service::Verdict::Holds &&
      out.verdict != service::Verdict::Fails)
    return;
  // "checked" verdicts are the fresh decisions; replicating "cache" hits
  // too lets a rebuilt replica heal from warm traffic.  Journal replays
  // and errors stay local.
  if (out.verdictSource != "checked" && out.verdictSource != "cache") return;
  service::JsonObject put;
  put.put("cmd", "CACHE_PUT")
      .put("fingerprint", out.fingerprint)
      .put("verdict", service::toString(out.verdict))
      .put("rule", out.rule)
      .put("engine", out.attempts.empty() ? "" : out.attempts.back().engine)
      .putDouble("seconds", out.seconds);
  if (!out.counterexample.empty())
    put.put("counterexample", out.counterexample);
  if (!out.proofJson.empty()) put.put("proof", out.proofJson);
  const std::string line = put.str();
  // Targets: the first replicationFactor-1 dispatchable shards in the
  // key's rendezvous order that are not the shard that served it — the
  // same shards a re-dispatch would fall to, which is the whole point.
  int replicas = opts_.replicationFactor - 1;
  for (std::size_t rank = 0; rank < order.size() && replicas > 0; ++rank) {
    Shard& target = *roster.shards[order[rank]];
    if (target.spec.name == out.shard) continue;
    if (!dispatchable(target.state.load(std::memory_order_relaxed))) continue;
    --replicas;
    net::Client client;
    std::string response, error;
    bool ok = false;
    if (connectShard(target.spec, &client, &error)) {
      setRecvTimeout(client, opts_.controlTimeoutSeconds);
      util::JsonValue doc;
      if (client.request(line, &response, &error) &&
          util::parseJson(response, &doc, nullptr)) {
        doc.opt("ok", &ok);
      }
    }
    if (ok) {
      target.replicaPuts.fetch_add(1, std::memory_order_relaxed);
      metrics_.counter("cluster_replica_puts").inc();
    } else {
      // Soft failure: the replica tier is an availability optimization,
      // never a correctness dependency — the verdict is already safe on
      // its owner (and in the coordinator's report).
      metrics_.counter("cluster_replica_put_failures").inc();
      trace_.emit(service::JsonObject()
                      .put("event", "replica_put_failed")
                      .putDouble("t", trace_.elapsedSeconds())
                      .put("shard", target.spec.name)
                      .put("reason", error));
    }
  }
}

void Coordinator::handleCheck(net::LineSocket& sock, const net::Request& req) {
  const std::uint64_t serial = ++serial_;
  const std::string requestId =
      req.id.empty() ? "#" + std::to_string(serial) : req.id;

  // Drain and capacity are tested under one hold: shutdown() sets
  // draining_ before it waits under jobsMutex_ for activeJobs_ to reach 0,
  // so no CHECK is counted in after that wait has passed.
  bool draining = false, busy = false;
  {
    std::lock_guard<std::mutex> lock(jobsMutex_);
    draining = drainRequested();
    busy = !draining && activeJobs_ >= opts_.maxInFlight;
    if (!draining && !busy) ++activeJobs_;
  }
  if (draining) {
    metrics_.counter("checks_rejected_draining").inc();
    sock.writeLine(net::errorResponse(
        "CHECK", net::kDraining, "coordinator is draining; not accepting"));
    return;
  }
  if (busy) {
    metrics_.counter("checks_rejected_busy").inc();
    sock.writeLine(net::errorResponse(
        "CHECK", net::kBusy, "coordinator at capacity; retry with backoff"));
    return;
  }
  struct JobSlot {
    Coordinator* self;
    ~JobSlot() {
      std::lock_guard<std::mutex> lock(self->jobsMutex_);
      --self->activeJobs_;
      self->jobsCv_.notify_all();
    }
  } slot{this};

  service::VerificationJob job;
  if (!front_.checkJob(sock, req, serial, &job)) return;

  metrics_.counter("checks_admitted").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "cluster_job_start")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("id", requestId)
                  .put("job", job.name)
                  .putUint("shards_up", shardsUp()));

  WallTimer runTimer;
  service::JobReport report;
  report.job = job.name;
  report.source = job.sourcePath;
  report.options = job.options;

  // Scout: elaborate once, locally, exactly like the scheduler's scout
  // phase — the enumeration (ids, fingerprints) must match what every
  // shard derives from the same text and options.
  const service::SnapshotResult scout =
      service::buildSnapshot(job, /*wantCanon=*/true);
  if (scout.snapshot == nullptr) {
    report.addJobError(scout.error);
  } else {
    std::vector<service::ObligationRef> refs =
        service::enumerateObligations(*scout.snapshot, job.options);
    if (std::string why = service::keepOnly(job, &refs); !why.empty())
      report.addJobError(std::move(why));
    // One roster snapshot for the whole job: every obligation routes over
    // the same consistent ring, so a JOIN/LEAVE mid-batch only affects
    // later jobs (the shared_ptrs keep a concurrently-removed shard alive
    // for in-flight forwards).
    const auto roster = std::make_shared<const Roster>(rosterSnapshot());
    // Scatter: every obligation is an independent pool task; gather in
    // enumeration order so the merged report reads like a local run.
    std::vector<std::future<service::ObligationOutcome>> futures;
    futures.reserve(refs.size());
    for (const service::ObligationRef& ref : refs) {
      futures.push_back(pool_.submit(
          [this, requestId, &job, ref, roster] {
            return forwardObligation(*roster, requestId, job.name,
                                     job.smvText, job.options, ref);
          }));
    }
    for (std::future<service::ObligationOutcome>& f : futures)
      report.add(f.get());
  }
  report.wallSeconds = runTimer.seconds();

  metrics_.counter("checks_completed").inc();
  metrics_.histogram("request_seconds").observe(report.wallSeconds);
  trace_.emit(service::JsonObject()
                  .put("event", "cluster_job_end")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("id", requestId)
                  .put("job", job.name)
                  .put("verdict", service::toString(report.verdict))
                  .putDouble("wall_seconds", report.wallSeconds)
                  .putUint("obligations", report.obligations.size())
                  .putUint("cache_hits", report.cacheHits)
                  .putUint("journal_hits", report.journalHits));

  service::JsonObject resp = net::checkResponseHead(requestId, report);
  resp.putUint("shards_up", shardsUp())
      .putDouble("wall_seconds", report.wallSeconds)
      .put("report", report.toJson());
  if (!sock.writeLine(resp.str()))
    metrics_.counter("responses_dropped").inc();
}

std::vector<Coordinator::RosterEntry> Coordinator::snapshotRoster() const {
  std::vector<RosterEntry> roster;
  std::lock_guard<std::mutex> lock(stateMutex_);
  roster.reserve(shards_.size());
  for (const std::shared_ptr<Shard>& shardPtr : shards_) {
    const Shard& s = *shardPtr;
    RosterEntry e;
    e.shard = shardPtr;
    e.state = s.state.load(std::memory_order_relaxed);
    if (e.state != ShardState::Up) e.reason = s.downReason;
    e.version = s.version;
    e.downs = s.downs;
    e.probationPasses = s.probationPasses;
    e.probationRequired = s.probationRequired;
    e.inFlight = s.inFlight;
    e.queued = s.queued;
    e.dispatched = s.dispatched.load(std::memory_order_relaxed);
    e.redispatched = s.redispatched.load(std::memory_order_relaxed);
    e.replicaPuts = s.replicaPuts.load(std::memory_order_relaxed);
    roster.push_back(std::move(e));
  }
  return roster;
}

std::string Coordinator::statusResponse() {
  // One roster snapshot per request: the per-shard array and the derived
  // shards_up count come from the same instant, so a shard marked down
  // mid-aggregation never makes them disagree.
  const std::vector<RosterEntry> roster = snapshotRoster();
  std::size_t up = 0;
  std::string shardArray = "[";
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const RosterEntry& e = roster[i];
    if (dispatchable(e.state)) ++up;
    if (i > 0) shardArray += ", ";
    service::JsonObject one;
    one.put("name", e.shard->spec.name);
    if (e.shard->spec.tcpPort >= 0)
      one.putUint("tcp", static_cast<std::uint64_t>(e.shard->spec.tcpPort));
    else
      one.put("socket", e.shard->spec.socketPath);
    one.put("state", toString(e.state));
    if (!e.reason.empty()) one.put("reason", e.reason);
    if (!e.version.empty()) one.put("cmc_version", e.version);
    one.putUint("in_flight", e.inFlight)
        .putUint("queued", e.queued)
        .putUint("dispatched", e.dispatched)
        .putUint("redispatched", e.redispatched);
    shardArray += one.str();
  }
  shardArray += "]";
  unsigned active;
  {
    std::lock_guard<std::mutex> lock(jobsMutex_);
    active = activeJobs_;
  }
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "STATUS")
      .put("role", "coordinator")
      .put("state", drainRequested() ? "draining" : "serving")
      .put("cmc_version", util::versionString())
      .putUint("protocol_rev", net::kProtocolRevision)
      .putDouble("uptime_seconds", uptime_.seconds())
      .putUint("shards_total", roster.size())
      .putUint("shards_up", up)
      .putUint("in_flight", active)
      .putUint("max_inflight", opts_.maxInFlight)
      .putRaw("shards", shardArray)
      .str();
}

std::string Coordinator::statsResponse() {
  // Live scatter over one roster snapshot: a shard already marked down is
  // tagged "down" and skipped (its control timeout is never paid — a
  // mid-aggregation mark-down cannot wedge the aggregate); a suspect or
  // probation shard is still reachable and is scattered to; a reachable
  // shard that fails the scatter is tagged "unreachable" with the error.
  // The flat per-shard fields are summed into one fleet view and echoed
  // per shard for drill-down.
  struct ShardStats {
    const RosterEntry* roster = nullptr;
    bool responded = false;
    std::string scatterError;  ///< reachable-but-failed: what went wrong
    std::uint64_t admitted = 0, completed = 0, rejectedBusy = 0;
    std::uint64_t cacheEntries = 0, cacheHits = 0, cacheMisses = 0;
    std::uint64_t inFlight = 0, queued = 0, poolQueue = 0;
    double p50 = 0.0, p99 = 0.0;
  };
  const std::vector<RosterEntry> roster = snapshotRoster();
  std::size_t up = 0;
  std::vector<ShardStats> all;
  all.reserve(roster.size());
  static const std::string kStatsLine =
      service::JsonObject().put("cmd", "STATS").str();
  for (const RosterEntry& entry : roster) {
    ShardStats stats;
    stats.roster = &entry;
    if (dispatchable(entry.state)) ++up;
    if (entry.state != ShardState::Down) {
      net::Client client;
      std::string response, error;
      if (!connectShard(entry.shard->spec, &client, &error)) {
        stats.scatterError = "connect: " + error;
      } else {
        setRecvTimeout(client, opts_.controlTimeoutSeconds);
        if (!client.request(kStatsLine, &response, &error)) {
          stats.scatterError = "stats: " + error;
        } else {
          util::JsonValue doc;
          util::parseJson(response, &doc, nullptr);
          stats.responded =
              doc.isObject() && doc.opt("checks_admitted", &stats.admitted) &&
              doc.opt("checks_completed", &stats.completed) &&
              doc.opt("checks_rejected_busy", &stats.rejectedBusy) &&
              doc.opt("cache_entries", &stats.cacheEntries) &&
              doc.opt("cache_hits", &stats.cacheHits) &&
              doc.opt("cache_misses", &stats.cacheMisses) &&
              doc.opt("in_flight", &stats.inFlight) &&
              doc.opt("queued", &stats.queued) &&
              doc.opt("pool_queue", &stats.poolQueue) &&
              doc.opt("request_p50_seconds", &stats.p50) &&
              doc.opt("request_p99_seconds", &stats.p99);
          if (!stats.responded) {
            stats.scatterError = "stats: malformed response";
          }
        }
      }
    }
    all.push_back(std::move(stats));
  }

  ShardStats total;
  double worstP50 = 0.0, worstP99 = 0.0;
  std::size_t responded = 0;
  std::string shardArray = "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ShardStats& s = all[i];
    if (i > 0) shardArray += ", ";
    service::JsonObject one;
    one.put("name", s.roster->shard->spec.name)
        .putBool("responded", s.responded);
    if (s.roster->state == ShardState::Down) {
      one.put("state", "down");
      if (!s.roster->reason.empty()) one.put("reason", s.roster->reason);
    } else if (!s.responded) {
      one.put("state", "unreachable");
      if (!s.scatterError.empty()) one.put("reason", s.scatterError);
    } else {
      one.put("state", toString(s.roster->state));
    }
    if (s.responded) {
      ++responded;
      total.admitted += s.admitted;
      total.completed += s.completed;
      total.rejectedBusy += s.rejectedBusy;
      total.cacheEntries += s.cacheEntries;
      total.cacheHits += s.cacheHits;
      total.cacheMisses += s.cacheMisses;
      total.inFlight += s.inFlight;
      total.queued += s.queued;
      total.poolQueue += s.poolQueue;
      worstP50 = std::max(worstP50, s.p50);
      worstP99 = std::max(worstP99, s.p99);
      one.putUint("checks_admitted", s.admitted)
          .putUint("checks_completed", s.completed)
          .putUint("checks_rejected_busy", s.rejectedBusy)
          .putUint("cache_entries", s.cacheEntries)
          .putUint("cache_hits", s.cacheHits)
          .putUint("cache_misses", s.cacheMisses)
          .putUint("in_flight", s.inFlight)
          .putUint("queued", s.queued)
          .putUint("pool_queue", s.poolQueue)
          .putDouble("request_p50_seconds", s.p50)
          .putDouble("request_p99_seconds", s.p99);
    }
    shardArray += one.str();
  }
  shardArray += "]";

  const std::uint64_t consults = total.cacheHits + total.cacheMisses;
  service::JsonObject resp;
  resp.putBool("ok", true)
      .put("cmd", "STATS")
      .put("role", "coordinator")
      .put("state", drainRequested() ? "draining" : "serving")
      .put("cmc_version", util::versionString())
      .putUint("protocol_rev", net::kProtocolRevision)
      .putDouble("uptime_seconds", uptime_.seconds())
      .putUint("shards_total", roster.size())
      .putUint("shards_up", up)
      .putUint("shards_responding", responded)
      .putUint("checks_admitted", total.admitted)
      .putUint("checks_completed", total.completed)
      .putUint("checks_rejected_busy", total.rejectedBusy)
      .putUint("cache_entries", total.cacheEntries)
      .putUint("cache_hits", total.cacheHits)
      .putUint("cache_misses", total.cacheMisses)
      .putDouble("cache_hit_rate",
                 consults == 0 ? 0.0
                               : static_cast<double>(total.cacheHits) /
                                     static_cast<double>(consults))
      .putUint("in_flight", total.inFlight)
      .putUint("queued", total.queued)
      .putUint("pool_queue", total.poolQueue)
      .putDouble("request_p50_seconds", worstP50)
      .putDouble("request_p99_seconds", worstP99)
      .putRaw("shards_stats", shardArray)
      // The coordinator's own instruments, escaped like a shard's.
      .put("metrics", metrics_.toJson())
      .put("metrics_text", metrics_.toText());
  return resp.str();
}

std::string Coordinator::topologyResponse() {
  // The admin view of the roster: full lifecycle detail per shard — the
  // state machine's position, the flap history, the probation progress,
  // and the replica-put count — everything a join/leave/replace runbook
  // needs to verify its effect.
  const std::vector<RosterEntry> roster = snapshotRoster();
  std::size_t up = 0;
  std::string shardArray = "[";
  for (std::size_t i = 0; i < roster.size(); ++i) {
    const RosterEntry& e = roster[i];
    if (dispatchable(e.state)) ++up;
    if (i > 0) shardArray += ", ";
    service::JsonObject one;
    one.put("name", e.shard->spec.name);
    if (e.shard->spec.tcpPort >= 0)
      one.putUint("tcp", static_cast<std::uint64_t>(e.shard->spec.tcpPort));
    else
      one.put("socket", e.shard->spec.socketPath);
    one.put("state", toString(e.state));
    if (!e.reason.empty()) one.put("reason", e.reason);
    if (!e.version.empty()) one.put("cmc_version", e.version);
    one.putUint("downs", static_cast<std::uint64_t>(e.downs))
        .putUint("probation_passes",
                 static_cast<std::uint64_t>(e.probationPasses))
        .putUint("probation_required",
                 static_cast<std::uint64_t>(e.probationRequired))
        .putUint("dispatched", e.dispatched)
        .putUint("redispatched", e.redispatched)
        .putUint("replica_puts", e.replicaPuts);
    shardArray += one.str();
  }
  shardArray += "]";
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "TOPOLOGY")
      .put("role", "coordinator")
      .put("cmc_version", util::versionString())
      .putUint("protocol_rev", net::kProtocolRevision)
      .putUint("shards_total", roster.size())
      .putUint("shards_up", up)
      .putUint("replication",
               static_cast<std::uint64_t>(opts_.replicationFactor))
      .putRaw("shards", shardArray)
      .str();
}

std::string Coordinator::joinResponse(const net::Request& req) {
  ShardSpec spec;
  spec.name = req.shard;
  spec.socketPath = req.shardSocket;
  spec.tcpPort = req.shardTcp;
  std::shared_ptr<Shard> existing;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (const std::shared_ptr<Shard>& s : shards_) {
      if (s->spec.name == spec.name) {
        existing = s;
        break;
      }
    }
    if (existing != nullptr &&
        dispatchable(existing->state.load(std::memory_order_relaxed))) {
      return net::errorResponse(
          "JOIN", net::kBadRequest,
          "shard '" + spec.name + "' is already in the roster and serving");
    }
    // A rejoin may move the endpoint (replaced hardware, new socket); the
    // shard is not dispatchable here, so nothing races the update.
    if (existing != nullptr) existing->spec = spec;
  }
  std::string version, error;
  if (!handshakeShard(spec, &version, &error)) {
    metrics_.counter("cluster_join_failures").inc();
    return net::errorResponse(
        "JOIN", net::kBadRequest,
        "shard '" + spec.name + "' failed the join handshake: " + error);
  }
  std::string state;
  if (existing != nullptr) {
    // A shard this coordinator has marked down re-enters through
    // probation — a flapper cannot JOIN its way straight back into the
    // ring; the probe thread promotes it once it proves stable.
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      existing->version = version;
    }
    enterProbation(*existing, "rejoined; serving probes in probation");
    state = "probation";
  } else {
    // A genuinely new shard passed the handshake this instant — that IS
    // its first successful probe, so it enters the ring immediately.
    auto shard = std::make_shared<Shard>();
    shard->spec = spec;
    shard->version = version;
    shard->probationRequired = opts_.probationProbes;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      for (const std::shared_ptr<Shard>& s : shards_) {
        if (s->spec.name == spec.name) {
          return net::errorResponse(
              "JOIN", net::kBadRequest,
              "shard '" + spec.name + "' was joined concurrently");
        }
      }
      shards_.push_back(shard);
    }
    state = "up";
  }
  metrics_.counter("cluster_joins").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "shard_join")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("shard", spec.name)
                  .put("state", state));
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "JOIN")
      .put("shard", spec.name)
      .put("state", state)
      .put("cmc_version", version)
      .putUint("shards_total", shardsTotal())
      .str();
}

std::string Coordinator::leaveResponse(const net::Request& req) {
  std::shared_ptr<Shard> removed;
  std::size_t remaining = 0;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    auto it = std::find_if(shards_.begin(), shards_.end(),
                           [&req](const std::shared_ptr<Shard>& s) {
                             return s->spec.name == req.shard;
                           });
    if (it == shards_.end()) {
      return net::errorResponse(
          "LEAVE", net::kNotFound,
          "no shard named '" + req.shard + "' in the roster");
    }
    if (shards_.size() == 1) {
      return net::errorResponse(
          "LEAVE", net::kBadRequest,
          "refusing to remove the last shard; the ring would be empty");
    }
    removed = *it;
    shards_.erase(it);
    remaining = shards_.size();
  }
  // In-flight forwards hold the old roster snapshot (and its shared_ptr),
  // so they finish cleanly; every later job routes without this shard —
  // rendezvous hashing moves exactly the keys it owned.
  metrics_.counter("cluster_leaves").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "shard_leave")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("shard", removed->spec.name)
                  .putUint("shards_total", remaining));
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "LEAVE")
      .put("shard", removed->spec.name)
      .putUint("shards_total", remaining)
      .str();
}

bool Coordinator::reloadTopology(std::string* summary, std::string* error) {
  if (opts_.topologyPath.empty()) {
    *error =
        "no topology file configured; use JOIN/LEAVE for an inline "
        "topology";
    return false;
  }
  Topology fresh;
  if (!loadTopology(opts_.topologyPath, &fresh, error)) return false;

  std::vector<std::string> added, removed, failed, deferred;
  // Adds + endpoint adoption.
  for (const ShardSpec& spec : fresh.shards) {
    std::shared_ptr<Shard> existing;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      for (const std::shared_ptr<Shard>& s : shards_) {
        if (s->spec.name == spec.name) {
          existing = s;
          break;
        }
      }
    }
    if (existing != nullptr) {
      std::lock_guard<std::mutex> lock(stateMutex_);
      const bool moved = existing->spec.socketPath != spec.socketPath ||
                         existing->spec.tcpPort != spec.tcpPort;
      if (moved) {
        if (dispatchable(existing->state.load(std::memory_order_relaxed))) {
          // Never mutate the endpoint of a shard mid-dispatch; the next
          // reload after it drops out (or a LEAVE+JOIN) applies the move.
          deferred.push_back(spec.name);
        } else {
          existing->spec = spec;
        }
      }
      continue;
    }
    std::string version, herror;
    if (!handshakeShard(spec, &version, &herror)) {
      failed.push_back(spec.name + " (" + herror + ")");
      continue;
    }
    auto shard = std::make_shared<Shard>();
    shard->spec = spec;
    shard->version = version;
    shard->probationRequired = opts_.probationProbes;
    {
      std::lock_guard<std::mutex> lock(stateMutex_);
      shards_.push_back(shard);
    }
    metrics_.counter("cluster_joins").inc();
    trace_.emit(service::JsonObject()
                    .put("event", "shard_join")
                    .putDouble("t", trace_.elapsedSeconds())
                    .put("shard", spec.name)
                    .put("state", "up")
                    .put("via", "reload"));
    added.push_back(spec.name);
  }
  // Removes: roster names the file no longer lists.
  std::vector<std::shared_ptr<Shard>> dropped;
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    for (auto it = shards_.begin(); it != shards_.end();) {
      const bool listed = std::any_of(
          fresh.shards.begin(), fresh.shards.end(),
          [&](const ShardSpec& s) { return s.name == (*it)->spec.name; });
      if (!listed && shards_.size() > 1) {
        dropped.push_back(*it);
        it = shards_.erase(it);
      } else {
        if (!listed) failed.push_back((*it)->spec.name + " (last shard)");
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Shard>& shard : dropped) {
    metrics_.counter("cluster_leaves").inc();
    trace_.emit(service::JsonObject()
                    .put("event", "shard_leave")
                    .putDouble("t", trace_.elapsedSeconds())
                    .put("shard", shard->spec.name)
                    .put("via", "reload"));
    removed.push_back(shard->spec.name);
  }

  const auto join = [](const std::vector<std::string>& names) {
    std::string out;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ", ";
      out += names[i];
    }
    return out.empty() ? std::string("none") : out;
  };
  *summary = "topology reload: " + std::to_string(shardsTotal()) +
             " shards (added: " + join(added) + "; removed: " +
             join(removed) + "; unreachable: " + join(failed) +
             (deferred.empty()
                  ? std::string(")")
                  : "; endpoint change deferred: " + join(deferred) + ")");
  trace_.emit(service::JsonObject()
                  .put("event", "topology_reload")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("summary", *summary));
  return true;
}

}  // namespace cmc::cluster
