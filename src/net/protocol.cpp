#include "net/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/job_options.hpp"
#include "service/trace_log.hpp"
#include "util/json.hpp"

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

/// An optional string field: absent leaves *out alone; another type is an
/// error.
bool optString(const util::JsonValue& doc, const char* key, std::string* out,
               std::string* error) {
  if (doc.opt(key, out)) return true;
  *error = std::string("field '") + key + "' must be a string";
  return false;
}

}  // namespace

bool parseRequest(const std::string& line, const service::JobOptions& defaults,
                  Request* out, std::string* error) {
  util::JsonValue doc;
  std::string why;
  if (!util::parseJson(line, &doc, &why) || !doc.isObject()) {
    *error = "request is not a JSON object" + (why.empty() ? "" : ": " + why);
    return false;
  }
  std::string cmdText;
  if (!doc.req("cmd", &cmdText)) {
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
  if (!optString(doc, "id", &req.id, error) ||
      !optString(doc, "name", &req.name, error) ||
      !optString(doc, "model", &req.model, error) ||
      !optString(doc, "smv", &req.smv, error)) {
    return false;
  }

  switch (req.cmd) {
    case Command::Check:
      if (req.model.empty() == req.smv.empty()) {
        *error = req.model.empty()
                     ? "CHECK needs a 'model' path or inline 'smv' text"
                     : "CHECK takes either 'model' or 'smv', not both";
        return false;
      }
      if (!optString(doc, "only", &req.only, error) ||
          !service::readJobOptions(doc, &req.options, error)) {
        return false;
      }
      break;
    case Command::Cancel:
      if (req.id.empty()) {
        *error = "CANCEL needs the 'id' of the request to cancel";
        return false;
      }
      break;
    case Command::Join: {
      if (!optString(doc, "shard", &req.shard, error) ||
          !optString(doc, "socket", &req.shardSocket, error)) {
        return false;
      }
      if (req.shard.empty()) {
        *error = "JOIN needs the roster 'shard' name to add";
        return false;
      }
      std::uint64_t tcp = 0;
      const util::JsonField tcpField = doc.get("tcp", &tcp);
      if (tcpField == util::JsonField::WrongType ||
          (tcpField == util::JsonField::Ok && (tcp < 1 || tcp > 65535))) {
        *error = "field 'tcp' must be a port in 1..65535";
        return false;
      }
      if (tcpField == util::JsonField::Ok) req.shardTcp = static_cast<int>(tcp);
      if (req.shardSocket.empty() == (req.shardTcp < 0)) {
        *error = req.shardSocket.empty()
                     ? "JOIN needs a 'socket' path or a 'tcp' port"
                     : "JOIN takes either 'socket' or 'tcp', not both";
        return false;
      }
      break;
    }
    case Command::Leave:
      if (!optString(doc, "shard", &req.shard, error)) return false;
      if (req.shard.empty()) {
        *error = "LEAVE needs the roster 'shard' name to remove";
        return false;
      }
      break;
    case Command::CachePut: {
      if (!optString(doc, "fingerprint", &req.fingerprint, error)) {
        return false;
      }
      if (req.fingerprint.empty()) {
        *error = "CACHE_PUT needs the obligation 'fingerprint'";
        return false;
      }
      std::string verdict;
      if (!doc.opt("verdict", &verdict) ||
          (verdict != "Holds" && verdict != "Fails")) {
        // Only decided verdicts belong in the cache tier; replicating an
        // Error would pin a transient failure fleet-wide.
        *error = "CACHE_PUT 'verdict' must be 'Holds' or 'Fails'";
        return false;
      }
      service::CachedVerdict& v = req.cacheVerdict;
      v.verdict = verdict == "Fails" ? service::Verdict::Fails
                                     : service::Verdict::Holds;
      if (!optString(doc, "rule", &v.rule, error) ||
          !optString(doc, "engine", &v.engine, error) ||
          !optString(doc, "counterexample", &v.counterexample, error) ||
          !optString(doc, "proof", &v.proofJson, error)) {
        return false;
      }
      if (!doc.opt("seconds", &v.seconds)) {
        *error = "field 'seconds' must be a number";
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

std::string errnoMessage(const std::string& what) {
  return what + ": " + std::strerror(errno);
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
