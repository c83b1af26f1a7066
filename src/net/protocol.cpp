#include "net/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "service/journal.hpp"
#include "service/trace_log.hpp"

namespace cmc::net {

const char* toString(Command c) noexcept {
  switch (c) {
    case Command::Check: return "CHECK";
    case Command::Status: return "STATUS";
    case Command::Stats: return "STATS";
    case Command::Cancel: return "CANCEL";
    case Command::Drain: return "DRAIN";
    case Command::Topology: return "TOPOLOGY";
    case Command::Join: return "JOIN";
    case Command::Leave: return "LEAVE";
    case Command::CachePut: return "CACHE_PUT";
  }
  return "?";
}

bool commandFromString(std::string_view text, Command* out) noexcept {
  static constexpr Command kAll[] = {
      Command::Check, Command::Status,   Command::Stats,
      Command::Cancel, Command::Drain,   Command::Topology,
      Command::Join,   Command::Leave,   Command::CachePut};
  for (Command c : kAll) {
    if (text == toString(c)) {
      *out = c;
      return true;
    }
  }
  return false;
}

namespace {

/// True when `key` appears as a JSON key in the line ("key": ...).  The
/// extractors return false both for "absent" and "wrong type"; admission
/// of a typed option must distinguish the two so a request carrying
/// `"deadline_ms": "soon"` is rejected instead of silently defaulted.
bool hasKey(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\": ") != std::string::npos;
}

bool overlayUint(const std::string& line, const std::string& key,
                 std::uint64_t* out, std::string* error) {
  if (!hasKey(line, key)) return true;
  if (!service::jsonExtractUint(line, key, out)) {
    *error = "field '" + key + "' must be a non-negative integer";
    return false;
  }
  return true;
}

bool overlayBool(const std::string& line, const std::string& key, bool* out,
                 std::string* error) {
  if (!hasKey(line, key)) return true;
  if (!service::jsonExtractBool(line, key, out)) {
    *error = "field '" + key + "' must be true or false";
    return false;
  }
  return true;
}

}  // namespace

bool parseRequest(const std::string& line, const service::JobOptions& defaults,
                  Request* out, std::string* error) {
  // Cheap well-formedness gate; the field extractors do the real parsing.
  std::size_t first = line.find_first_not_of(" \t\r");
  std::size_t last = line.find_last_not_of(" \t\r");
  if (first == std::string::npos || line[first] != '{' || line[last] != '}') {
    *error = "request is not a JSON object";
    return false;
  }
  std::string cmdText;
  if (!service::jsonExtractString(line, "cmd", &cmdText)) {
    *error = "missing or malformed 'cmd'";
    return false;
  }
  Request req;
  if (!commandFromString(cmdText, &req.cmd)) {
    *error = "unknown command '" + cmdText +
             "' (expected CHECK, STATUS, STATS, CANCEL, DRAIN, TOPOLOGY, "
             "JOIN, LEAVE, or CACHE_PUT)";
    return false;
  }
  req.options = defaults;
  service::jsonExtractString(line, "id", &req.id);
  service::jsonExtractString(line, "name", &req.name);
  service::jsonExtractString(line, "model", &req.model);
  service::jsonExtractString(line, "smv", &req.smv);

  switch (req.cmd) {
    case Command::Check: {
      if (req.model.empty() == req.smv.empty()) {
        *error = req.model.empty()
                     ? "CHECK needs a 'model' path or inline 'smv' text"
                     : "CHECK takes either 'model' or 'smv', not both";
        return false;
      }
      std::uint64_t deadlineMs = 0;
      const bool hadDeadline = hasKey(line, "deadline_ms");
      if (!overlayUint(line, "deadline_ms", &deadlineMs, error) ||
          !overlayUint(line, "node_budget", &req.options.limits.nodeBudget,
                       error) ||
          !overlayUint(line, "cluster", &req.options.clusterThreshold,
                       error) ||
          !overlayBool(line, "compose", &req.options.compose, error) ||
          !overlayBool(line, "reorder", &req.options.reorderBeforeCheck,
                       error) ||
          !overlayBool(line, "trace_force", &req.options.traceForce,
                       error) ||
          !overlayBool(line, "learn", &req.options.learn, error)) {
        return false;
      }
      if (hadDeadline) {
        req.options.limits.deadlineSeconds =
            static_cast<double>(deadlineMs) / 1e3;
      }
      service::jsonExtractString(line, "only", &req.only);
      bool noRetry = !req.options.retryOtherEngine;
      if (!overlayBool(line, "no_retry", &noRetry, error)) return false;
      req.options.retryOtherEngine = !noRetry;
      if (hasKey(line, "engine")) {
        std::string engine;
        service::jsonExtractString(line, "engine", &engine);
        if (!symbolic::engineModeFromString(engine, &req.options.engine)) {
          *error =
              "field 'engine' must be 'auto', 'partitioned', or "
              "'monolithic'";
          return false;
        }
      }
      break;
    }
    case Command::Cancel:
      if (req.id.empty()) {
        *error = "CANCEL needs the 'id' of the request to cancel";
        return false;
      }
      break;
    case Command::Join: {
      service::jsonExtractString(line, "shard", &req.shard);
      if (req.shard.empty()) {
        *error = "JOIN needs the roster 'shard' name to add";
        return false;
      }
      service::jsonExtractString(line, "socket", &req.shardSocket);
      std::uint64_t tcp = 0;
      if (hasKey(line, "tcp")) {
        if (!service::jsonExtractUint(line, "tcp", &tcp) || tcp < 1 ||
            tcp > 65535) {
          *error = "field 'tcp' must be a port in 1..65535";
          return false;
        }
        req.shardTcp = static_cast<int>(tcp);
      }
      if (req.shardSocket.empty() == (req.shardTcp < 0)) {
        *error = req.shardSocket.empty()
                     ? "JOIN needs a 'socket' path or a 'tcp' port"
                     : "JOIN takes either 'socket' or 'tcp', not both";
        return false;
      }
      break;
    }
    case Command::Leave:
      service::jsonExtractString(line, "shard", &req.shard);
      if (req.shard.empty()) {
        *error = "LEAVE needs the roster 'shard' name to remove";
        return false;
      }
      break;
    case Command::CachePut: {
      service::jsonExtractString(line, "fingerprint", &req.fingerprint);
      if (req.fingerprint.empty()) {
        *error = "CACHE_PUT needs the obligation 'fingerprint'";
        return false;
      }
      std::string verdict;
      service::jsonExtractString(line, "verdict", &verdict);
      if (verdict != "Holds" && verdict != "Fails") {
        // Only decided verdicts belong in the cache tier; replicating an
        // Error would pin a transient failure fleet-wide.
        *error = "CACHE_PUT 'verdict' must be 'Holds' or 'Fails'";
        return false;
      }
      break;
    }
    case Command::Status:
    case Command::Stats:
    case Command::Drain:
    case Command::Topology:
      break;
  }
  *out = std::move(req);
  return true;
}

std::string errorResponse(const std::string& cmd, const std::string& code,
                          const std::string& message) {
  return service::JsonObject()
      .putBool("ok", false)
      .put("cmd", cmd)
      .put("code", code)
      .put("error", message)
      .str();
}

void LineSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

LineSocket::ReadResult LineSocket::readLine(std::string* line) {
  while (true) {
    const std::size_t at = buffer_.find('\n');
    if (at != std::string::npos) {
      if (at > kMaxLineBytes) return ReadResult::TooLong;
      line->assign(buffer_, 0, at);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      buffer_.erase(0, at + 1);
      return ReadResult::Line;
    }
    if (buffer_.size() > kMaxLineBytes) return ReadResult::TooLong;
    if (fd_ < 0) return ReadResult::Error;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      // Orderly shutdown.  A trailing unterminated fragment is a torn
      // request from a dying peer: report Eof, never a parseable line.
      return ReadResult::Eof;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadResult::Error;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineSocket::writeLine(const std::string& line) {
  if (fd_ < 0) return false;
  std::string data = line;
  data.push_back('\n');
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace cmc::net
