#include "net/line_server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <system_error>

#include "net/client.hpp"
#include "util/failpoint.hpp"

namespace cmc::net {

namespace {

/// Job name from a model path: basename without the extension.
std::string jobNameFromPath(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base.resize(dot);
  return base.empty() ? "job" : base;
}

}  // namespace

LineServer::LineServer(LineServerOptions opts,
                       service::MetricsRegistry& metrics, Handler handler)
    : opts_(std::move(opts)), metrics_(metrics), handler_(std::move(handler)) {}

LineServer::~LineServer() { stop(); }

bool LineServer::start(std::string* error) {
  if (opts_.socketPath.empty() && opts_.tcpPort < 0) {
    *error = "no listener configured (need a socket path or a TCP port)";
    return false;
  }
  if (!opts_.socketPath.empty() && !listenUnix(error)) return false;
  if (opts_.tcpPort >= 0 && !listenTcp(error)) return false;
  for (const int fd : {unixFd_, tcpFd_}) {
    if (fd >= 0) acceptThreads_.emplace_back(&LineServer::acceptLoop, this, fd);
  }
  return true;
}

bool LineServer::listenUnix(std::string* error) {
  sockaddr_un addr{};
  if (opts_.socketPath.size() >= sizeof addr.sun_path) {
    *error = "socket path too long: " + opts_.socketPath;
    return false;
  }
  // A stale socket file (SIGKILLed predecessor) would make bind fail;
  // probe it first so we never steal a live daemon's listener.
  std::string refused;
  if (Client().connectUnix(opts_.socketPath, &refused)) {
    *error = "another daemon is already listening on " + opts_.socketPath;
    return false;
  }
  unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unixFd_ < 0) {
    *error = errnoMessage("socket(AF_UNIX)");
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, opts_.socketPath.c_str(),
              opts_.socketPath.size() + 1);
  ::unlink(opts_.socketPath.c_str());
  if (::bind(unixFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(unixFd_, 64) != 0) {
    *error = errnoMessage("bind/listen " + opts_.socketPath);
    ::close(unixFd_);
    unixFd_ = -1;
    return false;
  }
  return true;
}

bool LineServer::listenTcp(std::string* error) {
  tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcpFd_ < 0) {
    *error = errnoMessage("socket(AF_INET)");
    return false;
  }
  const int one = 1;
  ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public iface
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.tcpPort));
  if (::bind(tcpFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(tcpFd_, 64) != 0) {
    *error = errnoMessage("bind/listen TCP");
    ::close(tcpFd_);
    tcpFd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(tcpFd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    boundTcpPort_ = ntohs(bound.sin_port);
  return true;
}

void LineServer::stop() {
  stopping_.store(true);
  for (std::thread& t : acceptThreads_) t.join();
  acceptThreads_.clear();
  if (unixFd_ >= 0) {
    ::close(unixFd_);
    unixFd_ = -1;
    ::unlink(opts_.socketPath.c_str());
  }
  if (tcpFd_ >= 0) {
    ::close(tcpFd_);
    tcpFd_ = -1;
  }

  // Connection threads may be blocked in readLine on idle connections;
  // half-close the sockets so they wake and exit.  connMutex_ makes the
  // fd valid for the duration of ::shutdown (they close under it too).
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    for (int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : connThreads_) t.join();
  connThreads_.clear();
}

void LineServer::acceptLoop(int listenFd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd p{};
    p.fd = listenFd;
    p.events = POLLIN;
    const int ready = ::poll(&p, 1, 200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check stopping_
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) continue;
    try {
      CMC_FAILPOINT("net.accept");
    } catch (const std::exception&) {
      metrics_.counter("net_accept_failures").inc();
      ::close(fd);
      continue;
    }
    metrics_.counter("connections_accepted").inc();
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    if (!startConnection(fd)) metrics_.counter("net_accept_failures").inc();
  }
}

bool LineServer::startConnection(int fd) {
  std::vector<std::thread> finished;
  bool started = true;
  {
    std::lock_guard<std::mutex> lock(connMutex_);
    const auto closed = std::partition(
        connThreads_.begin(), connThreads_.end(), [this](const std::thread& t) {
          return std::find(finishedThreads_.begin(), finishedThreads_.end(),
                           t.get_id()) == finishedThreads_.end();
        });
    std::move(closed, connThreads_.end(), std::back_inserter(finished));
    connThreads_.erase(closed, connThreads_.end());
    finishedThreads_.clear();
    connFds_.push_back(fd);
    try {
      connThreads_.emplace_back(&LineServer::connectionLoop, this, fd);
    } catch (const std::system_error&) {
      connFds_.pop_back();
      ::close(fd);
      started = false;
    }
  }
  // Each of these has left connMutex_ for the last time.
  for (std::thread& t : finished) t.join();
  return started;
}

std::size_t LineServer::connectionThreads() const {
  std::lock_guard<std::mutex> lock(connMutex_);
  return connThreads_.size();
}

void LineServer::connectionLoop(int fd) {
  metrics_.gauge("connections_open").inc();
  LineSocket sock(fd);
  std::string line;
  bool open = true;
  while (open) {
    LineSocket::ReadResult r;
    try {
      CMC_FAILPOINT("net.read");
      r = sock.readLine(&line);
    } catch (const std::exception&) {
      // Injected/low-level read failure: drop the connection, never the
      // daemon.  The peer sees EOF and retries against a healthy socket.
      metrics_.counter("net_read_failures").inc();
      break;
    }
    if (r == LineSocket::ReadResult::Eof ||
        r == LineSocket::ReadResult::Error)
      break;
    if (r == LineSocket::ReadResult::TooLong) {
      metrics_.counter("protocol_errors").inc();
      sock.writeLine(errorResponse(
          "?", kBadRequest,
          "request line exceeds " + std::to_string(kMaxLineBytes) +
              " bytes; closing connection"));
      break;
    }
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    Request req;
    std::string perror;
    if (!parseRequest(line, opts_.defaults, &req, &perror)) {
      metrics_.counter("protocol_errors").inc();
      open = sock.writeLine(errorResponse("?", kBadRequest, perror));
      continue;
    }
    metrics_.counter("requests_received").inc();
    open = handler_(sock, req);
  }
  {
    // Remove-then-close under the lock so stop() never half-closes a
    // recycled fd number; the next accept joins this thread.
    std::lock_guard<std::mutex> lock(connMutex_);
    for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
      if (*it == fd) {
        connFds_.erase(it);
        break;
      }
    }
    sock.close();
    finishedThreads_.push_back(std::this_thread::get_id());
  }
  metrics_.gauge("connections_open").dec();
}

bool LineServer::checkJob(LineSocket& sock, const Request& req,
                          std::uint64_t serial, service::VerificationJob* job) {
  job->options = req.options;
  job->only = req.only;
  if (!req.smv.empty()) {
    job->smvText = req.smv;
    job->sourcePath = "<inline>";
    job->name =
        !req.name.empty() ? req.name : "inline-" + std::to_string(serial);
    return true;
  }
  std::string path = req.model;
  if (!opts_.modelRoot.empty() && !path.empty() && path.front() != '/')
    path = opts_.modelRoot + "/" + path;
  std::ifstream in(path);
  if (!in) {
    metrics_.counter("checks_rejected_bad_model").inc();
    sock.writeLine(
        errorResponse("CHECK", kBadRequest, "cannot open model: " + path));
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  job->smvText = buf.str();
  job->sourcePath = path;
  job->name = !req.name.empty() ? req.name : jobNameFromPath(path);
  return true;
}

util::JsonObject checkResponseHead(const std::string& id,
                                   const service::JobReport& report) {
  const service::JobReport::Tally tally = report.tally();
  util::JsonObject resp;
  resp.putBool("ok", true)
      .put("cmd", "CHECK")
      .put("id", id)
      .put("job", report.job)
      .put("verdict", service::toString(report.verdict))
      .putUint("obligations", report.obligations.size())
      .putUint("holds", tally.holds)
      .putUint("fails", tally.fails)
      .putUint("undecided", tally.undecided)
      .putUint("cache_hits", report.cacheHits)
      .putUint("journal_hits", report.journalHits);
  return resp;
}

}  // namespace cmc::net
