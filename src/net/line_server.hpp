// The daemons' front end (net layer): the listeners, the accept loops and
// the request-line loop that `cmc serve` (net::Server) and `cmc
// coordinator` (cluster::Coordinator) share.  Each daemon owns one
// LineServer and hands it the handler that answers a parsed request;
// everything between the socket and that handler is here, once.
//
// Threads
//   - one accept thread per listener (poll with a 200 ms timeout, then
//     accept, so stop() is prompt);
//   - one thread per connection.  It reads request lines in order, skips
//     blank ones, answers an oversized line (then closes) or a malformed
//     one with BAD_REQUEST itself, and passes every parsed request to the
//     handler, which writes its response on the same connection.  An
//     accept joins the threads of connections that have closed before it
//     starts the next one, so the front end holds a thread per open
//     connection, not per connection ever accepted.  When no thread can be
//     started, the connection is closed and counted in
//     net_accept_failures, and the front end keeps accepting.
//
// Failure injection: the `net.accept` failpoint drops a just-accepted
// connection (net_accept_failures), and `net.read` drops a connection at
// its next read (net_read_failures); neither touches the listener, the
// other connections or the daemon behind the handler.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "util/json.hpp"

namespace cmc::net {

/// What the front end needs of a daemon's options; ServerOptions and
/// CoordinatorOptions extend it.
struct LineServerOptions {
  /// Unix-domain listener path (empty = none).  Created on start: a stale
  /// file a killed predecessor left is replaced, a live listener is never
  /// stolen.  Unlinked on stop.
  std::string socketPath;
  /// Loopback TCP listener: -1 = disabled, 0 = ephemeral (see
  /// boundTcpPort()), >0 = that port on 127.0.0.1.
  int tcpPort = -1;
  /// Defaults for per-request job options (deadline, budget, engine,
  /// compose, ...); requests overlay their own fields.
  service::JobOptions defaults;
  /// Directory that request "model" paths resolve under (empty = the
  /// daemon process's cwd).
  std::string modelRoot;
};

class LineServer {
 public:
  /// Answers one parsed request on its connection; false closes the
  /// connection.  Runs on the connection's thread, so requests of one
  /// connection are answered in order.
  using Handler = std::function<bool(LineSocket& sock, const Request& req)>;

  /// `metrics` is the daemon's registry and must outlive the front end.
  LineServer(LineServerOptions opts, service::MetricsRegistry& metrics,
             Handler handler);
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Bind and listen on the configured endpoints and start the accept
  /// threads.  False with a message when no listener is configured or one
  /// cannot be set up (another daemon already listening on the socket
  /// path included).
  bool start(std::string* error);

  /// Close the listeners (unlinking the socket file this front end
  /// created), half-close every connection so its thread wakes, and join
  /// all threads.  Idempotent.
  void stop();

  /// The actual TCP port (after start) when tcpPort was 0; -1 if the TCP
  /// listener is disabled.
  int boundTcpPort() const noexcept { return boundTcpPort_; }

  /// Connection threads not yet joined: those of open connections, plus
  /// those that closed since the last accept.
  std::size_t connectionThreads() const;

  /// The job a CHECK names: its inline "smv" text (named from `serial`
  /// unless the request names it), or the "model" file resolved under
  /// modelRoot.  When that file cannot be read, answers BAD_REQUEST on
  /// `sock`, counts checks_rejected_bad_model and returns false.
  bool checkJob(LineSocket& sock, const Request& req, std::uint64_t serial,
                service::VerificationJob* job);

 private:
  bool listenUnix(std::string* error);
  bool listenTcp(std::string* error);
  void acceptLoop(int listenFd);
  void connectionLoop(int fd);
  /// Start a connection's thread, first joining those whose loop has
  /// returned; false when no thread could be started.
  bool startConnection(int fd);

  const LineServerOptions opts_;
  service::MetricsRegistry& metrics_;
  const Handler handler_;

  std::atomic<bool> stopping_{false};
  int unixFd_ = -1;
  int tcpFd_ = -1;
  int boundTcpPort_ = -1;

  // Connection bookkeeping: fds for stop(), threads for join, and the ids
  // of the threads whose loop has returned.
  mutable std::mutex connMutex_;
  std::vector<int> connFds_;
  std::vector<std::thread> connThreads_;
  std::vector<std::thread::id> finishedThreads_;
  std::vector<std::thread> acceptThreads_;
};

/// The fields every successful CHECK response starts with, in order:
/// "ok" through "journal_hits", with the holds/fails/undecided count.
/// Each daemon appends its own fields after them.
util::JsonObject checkResponseHead(const std::string& id,
                                   const service::JobReport& report);

}  // namespace cmc::net
