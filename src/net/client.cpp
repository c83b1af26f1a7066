#include "net/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "util/json.hpp"

namespace cmc::net {

bool Client::connectUnix(const std::string& socketPath, std::string* error) {
  unixPath_ = socketPath;
  tcpPort_ = -1;
  sockaddr_un addr{};
  if (socketPath.size() >= sizeof addr.sun_path) {
    *error = "socket path too long: " + socketPath;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errnoMessage("socket(AF_UNIX)");
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = errnoMessage("connect " + socketPath);
    ::close(fd);
    return false;
  }
  sock_ = std::make_unique<LineSocket>(fd);
  return true;
}

bool Client::connectTcp(int port, std::string* error) {
  unixPath_.clear();
  tcpPort_ = port;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = errnoMessage("socket(AF_INET)");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = errnoMessage("connect 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return false;
  }
  sock_ = std::make_unique<LineSocket>(fd);
  return true;
}

bool Client::request(const std::string& line, std::string* response,
                     std::string* error) {
  if (!send(line)) {
    *error = "send failed (server gone?)";
    return false;
  }
  return readResponse(response, error);
}

bool Client::send(const std::string& line) {
  return sock_ != nullptr && sock_->writeLine(line);
}

bool Client::readResponse(std::string* response, std::string* error) {
  if (sock_ == nullptr) {
    *error = "not connected";
    return false;
  }
  switch (sock_->readLine(response)) {
    case LineSocket::ReadResult::Line:
      return true;
    case LineSocket::ReadResult::Eof:
      *error = "server closed the connection before responding";
      return false;
    case LineSocket::ReadResult::TooLong:
      *error = "response line exceeds the protocol limit";
      return false;
    case LineSocket::ReadResult::Error:
      *error = errnoMessage("recv");
      return false;
  }
  *error = "unreachable";
  return false;
}

bool Client::reconnect(std::string* error) {
  if (!unixPath_.empty()) return connectUnix(unixPath_, error);
  if (tcpPort_ >= 0) return connectTcp(tcpPort_, error);
  *error = "reconnect before any connect";
  return false;
}

bool Client::connectRetrying(const std::string& socketPath, int tcpPort,
                             int maxRetries, int baseMs, std::string* error,
                             const RetryObserver& onRetry) {
  for (int attempt = 0;; ++attempt) {
    const bool ok = !socketPath.empty() ? connectUnix(socketPath, error)
                                        : connectTcp(tcpPort, error);
    if (ok) return true;
    if (attempt >= maxRetries) return false;
    const int delay = backoffMs(attempt, baseMs);
    if (onRetry) onRetry(*error, attempt + 1, delay);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

bool Client::requestWithRetry(const std::string& line, int maxRetries,
                              int baseMs, std::string* response,
                              std::string* error,
                              const RetryObserver& onRetry) {
  for (int attempt = 0;; ++attempt) {
    std::string resp;
    std::string why;
    const bool transportOk = request(line, &resp, &why);
    bool retryable = !transportOk;
    if (transportOk) {
      // Only a well-formed refusal is retried; anything else, malformed
      // responses included, goes back to the caller to judge.
      util::JsonValue doc;
      bool ok = true;
      std::string code;
      if (util::parseJson(resp, &doc, nullptr) && doc.opt("ok", &ok) && !ok) {
        doc.opt("code", &code);
      }
      if (!ok && (code == kBusy || code == kDraining)) {
        retryable = true;
        why = "server answered " + code;
      }
    }
    if (!retryable) {
      *response = resp;
      return true;
    }
    if (attempt >= maxRetries) {
      // Out of budget.  A refusal response still reaches the caller (its
      // exit-code mapping depends on seeing the code); only transport
      // death reports failure.
      if (transportOk) {
        *response = resp;
        return true;
      }
      *error = why;
      return false;
    }
    const int delay = backoffMs(attempt, baseMs);
    if (onRetry) onRetry(why, attempt + 1, delay);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    if (!transportOk) {
      std::string reconnectError;
      // A failed re-dial is not fatal here: the next request() fails in
      // send and the loop retries (the daemon may still be restarting).
      reconnect(&reconnectError);
    }
  }
}

int Client::backoffMs(int attempt, int baseMs) {
  if (baseMs <= 0) return 0;
  const int exponent = std::clamp(attempt, 0, 10);
  const std::int64_t ceiling =
      std::min<std::int64_t>(static_cast<std::int64_t>(baseMs) << exponent,
                             30000);
  static thread_local std::mt19937_64 rng{std::random_device{}()};
  std::uniform_int_distribution<std::int64_t> jitter(ceiling - ceiling / 2,
                                                     ceiling);
  return static_cast<int>(jitter(rng));
}

void Client::close() {
  if (sock_ != nullptr) sock_->close();
}

}  // namespace cmc::net
