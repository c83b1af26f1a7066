#include "net/server.hpp"

#include <poll.h>

#include <chrono>

#include "util/version.hpp"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace cmc::net {

Server::Server(ServerOptions opts, service::VerificationService& svc,
               service::MetricsRegistry& metrics, service::RunTrace& trace,
               service::RunJournal* journal,
               const service::JournalReplay* replay)
    : opts_(std::move(opts)),
      svc_(svc),
      metrics_(metrics),
      trace_(trace),
      journal_(journal),
      replay_(replay),
      front_(opts_, metrics_, [this](LineSocket& sock, const Request& req) {
        return handleRequest(sock, req);
      }) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string* error) {
  maxInFlight_ =
      opts_.maxInFlight > 0 ? opts_.maxInFlight : std::max(1u, svc_.threads());
  if (!front_.start(error)) return false;

  uptime_.reset();
  watcherThread_ = std::thread(&Server::watcherLoop, this);
  if (opts_.metricsIntervalSeconds > 0.0)
    metricsThread_ = std::thread(&Server::metricsLoop, this);

  service::JsonObject ev;
  ev.put("event", "server_start")
      .putDouble("t", trace_.elapsedSeconds())
      .put("cmc_version", util::versionString())
      .put("socket", opts_.socketPath)
      .putUint("workers", svc_.threads())
      .putUint("max_inflight", maxInFlight_)
      .putUint("queue_depth", opts_.queueDepth);
  if (boundTcpPort() >= 0)
    ev.putUint("tcp_port", static_cast<std::uint64_t>(boundTcpPort()));
  trace_.emit(ev);
  return true;
}

void Server::requestDrain() {
  if (draining_.exchange(true)) return;
  metrics_.counter("server_drains").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "drain")
                  .putDouble("t", trace_.elapsedSeconds())
                  .putUint("in_flight", inFlight())
                  .putUint("queued", queued()));
  // Waiters re-check their predicate; none are admitted past this point.
  admitCv_.notify_all();
}

void Server::shutdown() {
  std::lock_guard<std::mutex> shutdownLock(shutdownMutex_);
  if (shutdownDone_) return;
  requestDrain();

  // Every admitted CHECK completes and writes its response first; the
  // journal already holds each decided obligation.
  {
    std::unique_lock<std::mutex> lock(admitMutex_);
    admitCv_.wait(lock, [&] { return executing_ == 0 && waiting_ == 0; });
  }

  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(stopMutex_);
  }
  stopCv_.notify_all();
  front_.stop();
  if (watcherThread_.joinable()) watcherThread_.join();
  if (metricsThread_.joinable()) metricsThread_.join();

  emitMetricsEvent("shutdown");
  trace_.emit(service::JsonObject()
                  .put("event", "server_stop")
                  .putDouble("t", trace_.elapsedSeconds())
                  .putDouble("uptime_seconds", uptime_.seconds()));
  shutdownDone_ = true;
}

unsigned Server::inFlight() const {
  std::lock_guard<std::mutex> lock(admitMutex_);
  return executing_;
}

std::size_t Server::queued() const {
  std::lock_guard<std::mutex> lock(admitMutex_);
  return waiting_;
}

bool Server::handleRequest(LineSocket& sock, const Request& req) {
  switch (req.cmd) {
    case Command::Check:
      handleCheck(sock, req);
      return true;
    case Command::Status:
      return sock.writeLine(statusResponse());
    case Command::Stats:
      return sock.writeLine(statsResponse());
    case Command::Cancel:
      return sock.writeLine(cancelResponse(req));
    case Command::Drain:
      requestDrain();
      return sock.writeLine(service::JsonObject()
                                .putBool("ok", true)
                                .put("cmd", "DRAIN")
                                .put("state", "draining")
                                .str());
    case Command::CachePut:
      return sock.writeLine(cachePutResponse(req));
    case Command::Topology:
    case Command::Join:
    case Command::Leave:
      return sock.writeLine(errorResponse(
          toString(req.cmd), kBadRequest,
          std::string(toString(req.cmd)) +
              " is a cluster admin command; send it to the coordinator, "
              "not a shard"));
  }
  return true;
}

void Server::handleCheck(LineSocket& sock, const Request& req) {
  const std::uint64_t serial = ++serial_;
  auto state = std::make_shared<RequestState>();
  state->id = req.id.empty()
                  ? std::string("#").append(std::to_string(serial))
                  : req.id;

  service::VerificationJob job;
  if (!front_.checkJob(sock, req, serial, &job)) return;
  state->job = job.name;

  if (!registerRequest(state)) {
    sock.writeLine(errorResponse(
        "CHECK", kBadRequest,
        "request id '" + state->id + "' is already active"));
    return;
  }

  double waitSeconds = 0.0;
  const Admit decision = admit(*state, &waitSeconds);
  trace_.emit(service::JsonObject()
                  .put("event", "request")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("id", state->id)
                  .put("job", job.name)
                  .put("outcome", decision == Admit::Admitted
                                      ? "admitted"
                                      : decision == Admit::Busy ? "busy"
                                                                : "draining")
                  .putDouble("queue_wait_seconds", waitSeconds));
  if (decision == Admit::Busy) {
    metrics_.counter("checks_rejected_busy").inc();
    unregisterRequest(state->id);
    sock.writeLine(service::JsonObject()
                       .putBool("ok", false)
                       .put("cmd", "CHECK")
                       .put("id", state->id)
                       .put("code", kBusy)
                       .put("error", "server at capacity; retry with backoff")
                       .putUint("in_flight", inFlight())
                       .putUint("queued", queued())
                       .putUint("capacity", maxInFlight_ + opts_.queueDepth)
                       .str());
    return;
  }
  if (decision == Admit::Draining) {
    metrics_.counter("checks_rejected_draining").inc();
    unregisterRequest(state->id);
    sock.writeLine(errorResponse("CHECK", kDraining,
                                 "server is draining; not accepting checks"));
    return;
  }
  if (decision == Admit::CancelledQueued) {
    // Cancelled while waiting for a slot: answer without ever touching a
    // worker.  The slot count was never incremented.
    metrics_.counter("checks_cancelled").inc();
    unregisterRequest(state->id);
    sock.writeLine(service::JsonObject()
                       .putBool("ok", true)
                       .put("cmd", "CHECK")
                       .put("id", state->id)
                       .put("job", job.name)
                       .put("verdict", "Cancelled")
                       .putBool("cancelled_in_queue", true)
                       .putDouble("queue_wait_seconds", waitSeconds)
                       .str());
    return;
  }

  // Counted only for requests that actually reach a worker, so
  // checks_admitted == checks_completed once the server is idle (the
  // consistency invariant the CI smoke asserts).
  metrics_.counter("checks_admitted").inc();
  metrics_.histogram("admission_wait_seconds").observe(waitSeconds);

  state->running.store(true, std::memory_order_release);
  state->connFd.store(sock.fd(), std::memory_order_release);
  WallTimer runTimer;
  service::JobReport report =
      svc_.run(job, &trace_, journal_, replay_, &state->cancel);
  const double runSeconds = runTimer.seconds();
  state->connFd.store(-1, std::memory_order_release);
  state->running.store(false, std::memory_order_release);

  service::JsonObject resp = checkResponseHead(state->id, report);
  resp.putDouble("queue_wait_seconds", waitSeconds)
      .putDouble("wall_seconds", report.wallSeconds);
  if (report.obligations.size() == 1) {
    // Single-obligation responses (the coordinator's "only" forwards)
    // additionally carry the outcome as flat fields, so the coordinator
    // merges verdicts without parsing the nested report.
    const service::ObligationOutcome& o = report.obligations.front();
    resp.put("obligation_id", o.id)
        .put("verdict_source", o.verdictSource)
        .put("rule", o.rule)
        .putDouble("obligation_seconds", o.seconds);
    if (!o.fingerprint.empty()) resp.put("fingerprint", o.fingerprint);
    if (!o.attempts.empty()) resp.put("engine", o.attempts.back().engine);
    if (!o.engineChoiceJson.empty())
      resp.put("engine_choice", o.engineChoiceJson);
    if (!o.error.empty()) resp.put("obligation_error", o.error);
    if (!o.counterexample.empty()) resp.put("counterexample", o.counterexample);
    if (!o.proofJson.empty()) resp.put("proof", o.proofJson);
  }
  // The full report, as an escaped string.
  resp.put("report", report.toJson());

  // Account for the request and free its slot BEFORE writing the response:
  // a client that has read its verdict and then asks for STATS must see
  // itself completed and not in flight (the consistency invariant the CI
  // smoke asserts), and a queued request may start the moment the verdict
  // is decided, not after this write drains.
  metrics_.counter("checks_completed").inc();
  if (report.verdict == service::Verdict::Cancelled)
    metrics_.counter("checks_cancelled").inc();
  metrics_.histogram("request_seconds").observe(runSeconds);
  releaseSlot();
  unregisterRequest(state->id);

  if (!sock.writeLine(resp.str()))
    metrics_.counter("responses_dropped").inc();
}

std::string Server::statusResponse() {
  std::string active = "[";
  {
    std::lock_guard<std::mutex> lock(requestsMutex_);
    bool first = true;
    for (const auto& [id, state] : requests_) {
      if (!first) active += ", ";
      first = false;
      active += service::JsonObject()
                    .put("id", id)
                    .put("job", state->job)
                    .put("phase", state->running.load() ? "running" : "queued")
                    .putDouble("seconds", state->since.seconds())
                    .str();
    }
  }
  active += "]";
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "STATUS")
      .put("state", drainRequested() ? "draining" : "serving")
      .put("cmc_version", util::versionString())
      .putUint("protocol_rev", kProtocolRevision)
      .putDouble("uptime_seconds", uptime_.seconds())
      .putUint("workers", svc_.threads())
      .putUint("in_flight", inFlight())
      .putUint("queued", queued())
      .putUint("max_inflight", maxInFlight_)
      .putUint("queue_depth", opts_.queueDepth)
      .putUint("pool_queue", svc_.queuedObligations())
      .putRaw("active", active)
      .str();
}

std::string Server::statsResponse() {
  service::JsonObject resp;
  resp.putBool("ok", true)
      .put("cmd", "STATS")
      .put("state", drainRequested() ? "draining" : "serving")
      .put("cmc_version", util::versionString())
      .putUint("protocol_rev", kProtocolRevision)
      .putDouble("uptime_seconds", uptime_.seconds())
      // Flat per-shard load/latency fields the cluster coordinator
      // aggregates into its fleet-wide STATS view.
      .putUint("workers", svc_.threads())
      .putUint("in_flight", inFlight())
      .putUint("queued", queued())
      .putUint("pool_queue", svc_.queuedObligations())
      .putUint("checks_admitted", metrics_.counterValue("checks_admitted"))
      .putUint("checks_completed", metrics_.counterValue("checks_completed"))
      .putUint("checks_rejected_busy",
               metrics_.counterValue("checks_rejected_busy"))
      .putDouble("request_p50_seconds",
                 metrics_.histogramQuantile("request_seconds", 0.5))
      .putDouble("request_p99_seconds",
                 metrics_.histogramQuantile("request_seconds", 0.99))
      .putDouble("obligation_p50_seconds",
                 metrics_.histogramQuantile("obligation_seconds", 0.5))
      .putDouble("obligation_p99_seconds",
                 metrics_.histogramQuantile("obligation_seconds", 0.99));
  if (const service::ObligationCache* cache = svc_.cache()) {
    const service::ObligationCacheStats s = cache->stats();
    resp.putUint("cache_entries", cache->size())
        .putUint("cache_hits", s.hits)
        .putUint("cache_misses", s.misses)
        .putUint("cache_inserts", s.inserts)
        .putUint("cache_evictions", s.evictions)
        .putUint("cache_loaded", s.loaded);
  }
  if (journal_ != nullptr && journal_->isOpen())
    resp.putUint("journal_recorded", journal_->recorded());
  // Both renderings as escaped strings, so the response stays one line.
  resp.put("metrics", metrics_.toJson());
  resp.put("metrics_text", metrics_.toText());
  return resp.str();
}

std::string Server::cancelResponse(const Request& req) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(requestsMutex_);
    const auto it = requests_.find(req.id);
    if (it != requests_.end()) state = it->second;
  }
  if (!state) {
    return errorResponse("CANCEL", kNotFound,
                         "no active request with id '" + req.id + "'");
  }
  const bool wasRunning = state->running.load(std::memory_order_acquire);
  state->cancel.store(true, std::memory_order_release);
  metrics_.counter("cancels_delivered").inc();
  // A queued request waits on the admission cv; wake it so it can answer.
  admitCv_.notify_all();
  trace_.emit(service::JsonObject()
                  .put("event", "cancel")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("id", req.id)
                  .put("phase", wasRunning ? "running" : "queued"));
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "CANCEL")
      .put("id", req.id)
      .putBool("delivered", true)
      .put("phase", wasRunning ? "running" : "queued")
      .str();
}

std::string Server::cachePutResponse(const Request& req) {
  service::ObligationCache* cache = svc_.cache();
  if (cache == nullptr) {
    return errorResponse("CACHE_PUT", kBadRequest,
                         "the obligation cache is disabled on this shard");
  }
  const service::CachedVerdict& v = req.cacheVerdict;
  // insert() returns false both for a genuinely uncacheable verdict and
  // for a fingerprint it already held (it updates in place); only the
  // former is an error.  Duplicate puts are routine — every warm run
  // re-replicates its decided obligations.
  const bool hadIt = cache->lookup(req.fingerprint).has_value();
  if (!cache->insert(req.fingerprint, v) && !hadIt) {
    return errorResponse("CACHE_PUT", kInternal,
                         "cache refused the verdict (not cacheable)");
  }
  metrics_.counter("cache_replica_puts").inc();
  trace_.emit(service::JsonObject()
                  .put("event", "cache_replica_put")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("fingerprint", req.fingerprint)
                  .put("verdict", service::toString(v.verdict))
                  .putBool("fresh", !hadIt));
  return service::JsonObject()
      .putBool("ok", true)
      .put("cmd", "CACHE_PUT")
      .put("fingerprint", req.fingerprint)
      .putBool("inserted", !hadIt)
      .str();
}

void Server::watcherLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stopMutex_);
      stopCv_.wait_for(lock, std::chrono::milliseconds(100), [&] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    std::vector<std::pair<int, std::shared_ptr<RequestState>>> running;
    {
      std::lock_guard<std::mutex> lock(requestsMutex_);
      for (const auto& [id, state] : requests_) {
        const int fd = state->connFd.load(std::memory_order_acquire);
        if (fd >= 0 && state->running.load(std::memory_order_acquire))
          running.emplace_back(fd, state);
      }
    }
    for (const auto& [fd, state] : running) {
      pollfd p{};
      p.fd = fd;
      p.events = POLLRDHUP;
      if (::poll(&p, 1, 0) <= 0) continue;
      if ((p.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) == 0)
        continue;
      if (!state->cancel.exchange(true)) {
        metrics_.counter("checks_client_gone").inc();
        trace_.emit(service::JsonObject()
                        .put("event", "client_gone")
                        .putDouble("t", trace_.elapsedSeconds())
                        .put("id", state->id)
                        .put("job", state->job));
      }
    }
  }
}

void Server::metricsLoop() {
  const auto interval = std::chrono::duration<double>(
      opts_.metricsIntervalSeconds);
  while (true) {
    {
      std::unique_lock<std::mutex> lock(stopMutex_);
      stopCv_.wait_for(lock, interval, [&] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    emitMetricsEvent("interval");
  }
}

void Server::emitMetricsEvent(const char* reason) {
  trace_.emit(service::JsonObject()
                  .put("event", "metrics")
                  .putDouble("t", trace_.elapsedSeconds())
                  .put("reason", reason)
                  .putDouble("uptime_seconds", uptime_.seconds())
                  .putRaw("metrics", metrics_.toJson()));
}

Server::Admit Server::admit(RequestState& state, double* waitSeconds) {
  WallTimer wait;
  std::unique_lock<std::mutex> lock(admitMutex_);
  *waitSeconds = 0.0;
  if (draining_.load(std::memory_order_relaxed)) return Admit::Draining;
  if (executing_ >= maxInFlight_ && waiting_ >= opts_.queueDepth)
    return Admit::Busy;
  if (executing_ >= maxInFlight_) {
    ++waiting_;
    metrics_.gauge("requests_queued").inc();
    admitCv_.wait(lock, [&] {
      return executing_ < maxInFlight_ ||
             state.cancel.load(std::memory_order_relaxed);
    });
    --waiting_;
    metrics_.gauge("requests_queued").dec();
    *waitSeconds = wait.seconds();
    if (state.cancel.load(std::memory_order_relaxed))
      return Admit::CancelledQueued;
  }
  ++executing_;
  metrics_.gauge("requests_in_flight").inc();
  return Admit::Admitted;
}

void Server::releaseSlot() {
  {
    std::lock_guard<std::mutex> lock(admitMutex_);
    --executing_;
    metrics_.gauge("requests_in_flight").dec();
  }
  admitCv_.notify_all();
}

bool Server::registerRequest(const std::shared_ptr<RequestState>& state) {
  std::lock_guard<std::mutex> lock(requestsMutex_);
  return requests_.emplace(state->id, state).second;
}

void Server::unregisterRequest(const std::string& id) {
  std::lock_guard<std::mutex> lock(requestsMutex_);
  requests_.erase(id);
}

}  // namespace cmc::net
