// The cmc verification daemon (net layer): a long-lived server that owns
// one VerificationService — one worker pool, one process-lifetime
// obligation cache — and serves the wire protocol (net/protocol.hpp) over
// a Unix-domain socket, optionally also loopback TCP.
//
// Why a daemon: every `cmc check` pays process startup, cold BDD contexts,
// and a cold obligation cache; the warm-cache win only compounds within a
// single process.  The server turns the obligation stream into a served
// workload — the cache, the partitioned checker, and the journal amortize
// across requests instead of within one run.
//
// Threading model
//   The front end (net/line_server.hpp) owns the listeners' accept threads
//   and one thread per connection, which reads the request lines and calls
//   handleRequest.  A CHECK runs synchronously on its connection's thread
//   (the scheduler fans its obligations onto the shared pool), so request
//   concurrency == connection concurrency.  The server adds two threads:
//   - a client watcher polls running requests' sockets for hangup and
//     raises their cancel flag — a vanished client frees its workers;
//   - a metrics thread periodically emits a "metrics" JSONL event into
//     the trace stream.
//
// Admission control
//   At most maxInFlight CHECKs execute at once; up to queueDepth more may
//   wait for a slot.  Beyond that the server answers BUSY immediately —
//   explicit backpressure, never unbounded queueing.  Per-request
//   deadline/node budgets ride the existing BudgetToken enforcement.
//
// Wind-down (DRAIN command or SIGTERM in cmc serve)
//   New CHECKs are refused with DRAINING; queued-and-admitted and running
//   requests complete and get their responses; the journal already holds
//   every decided outcome (append+flush per verdict); then listeners and
//   connections close and shutdown() returns.  SIGTERM = drain + exit 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>

#include "net/line_server.hpp"
#include "net/protocol.hpp"
#include "service/journal.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/trace_log.hpp"
#include "util/timer.hpp"

namespace cmc::net {

/// The front end's options (socket path, TCP port, job-option defaults,
/// model root) plus the server's admission and metrics settings.
struct ServerOptions : LineServerOptions {
  /// Concurrent CHECK executions (0 = the service's worker-thread count).
  unsigned maxInFlight = 0;
  /// Admitted CHECKs allowed to wait for an execution slot; one more and
  /// the server answers BUSY.
  std::size_t queueDepth = 16;
  /// Period of the "metrics" trace event, seconds (0 = disabled).
  double metricsIntervalSeconds = 10.0;
};

class Server {
 public:
  /// The service, metrics registry, trace, and journal/replay are owned by
  /// the embedder (cmc serve) and must outlive the server.  journal and
  /// replay may be null; trace may not.
  Server(ServerOptions opts, service::VerificationService& svc,
         service::MetricsRegistry& metrics, service::RunTrace& trace,
         service::RunJournal* journal, const service::JournalReplay* replay);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start the front end (bind + listen + accept threads) and the
  /// watcher/metrics threads.  False with a message on any setup failure.
  bool start(std::string* error);

  /// Begin wind-down: refuse new CHECKs (DRAINING), let admitted ones
  /// finish.  Idempotent; callable from any thread (DRAIN handler) — but
  /// NOT from a signal handler (cmc serve's handler only sets an atomic
  /// the main loop polls).
  void requestDrain();

  bool drainRequested() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Drain (if not already draining), wait for every admitted CHECK to
  /// complete and respond, close listeners and connections, join all
  /// threads, emit a final metrics event, unlink the socket.  Idempotent.
  void shutdown();

  /// The actual TCP port (after start) when tcpPort was 0; -1 if the TCP
  /// listener is disabled.
  int boundTcpPort() const noexcept { return front_.boundTcpPort(); }

  /// The front end's connection threads not yet joined (see LineServer).
  std::size_t connectionThreads() const { return front_.connectionThreads(); }

  /// Admitted CHECKs currently executing / waiting for a slot.
  unsigned inFlight() const;
  std::size_t queued() const;

  double uptimeSeconds() const { return uptime_.seconds(); }

 private:
  struct RequestState {
    std::string id;
    std::string job;
    std::atomic<bool> cancel{false};
    std::atomic<int> connFd{-1};  ///< watched for hangup while running
    std::atomic<bool> running{false};
    WallTimer since;
  };

  void watcherLoop();
  void metricsLoop();
  /// The front end's handler: this server's command table.
  bool handleRequest(LineSocket& sock, const Request& req);
  void handleCheck(LineSocket& sock, const Request& req);
  std::string statusResponse();
  std::string statsResponse();
  std::string cancelResponse(const Request& req);
  /// CACHE_PUT: insert one decided verdict into the obligation cache (the
  /// cluster coordinator's replica write-through).
  std::string cachePutResponse(const Request& req);
  void emitMetricsEvent(const char* reason);

  /// Admission verdict for one CHECK.  CancelledQueued: the request was
  /// cancelled while waiting for a slot — answered without a worker.
  enum class Admit { Admitted, Busy, Draining, CancelledQueued };
  Admit admit(RequestState& state, double* waitSeconds);
  void releaseSlot();

  bool registerRequest(const std::shared_ptr<RequestState>& state);
  void unregisterRequest(const std::string& id);

  ServerOptions opts_;
  service::VerificationService& svc_;
  service::MetricsRegistry& metrics_;
  service::RunTrace& trace_;
  service::RunJournal* journal_;
  const service::JournalReplay* replay_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  bool shutdownDone_ = false;
  std::mutex shutdownMutex_;

  WallTimer uptime_;
  std::atomic<std::uint64_t> serial_{0};

  // Admission state.
  mutable std::mutex admitMutex_;
  std::condition_variable admitCv_;
  unsigned executing_ = 0;
  std::size_t waiting_ = 0;
  unsigned maxInFlight_ = 1;

  // Live requests by id (queued or running).
  mutable std::mutex requestsMutex_;
  std::unordered_map<std::string, std::shared_ptr<RequestState>> requests_;

  LineServer front_;
  std::thread watcherThread_;
  std::thread metricsThread_;
  std::condition_variable stopCv_;
  std::mutex stopMutex_;
};

}  // namespace cmc::net
