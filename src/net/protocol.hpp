// The cmc wire protocol (net layer): newline-delimited JSON over a
// stream socket (Unix-domain, optionally TCP).  One request line yields
// exactly one response line; requests on one connection are processed in
// order (a CHECK blocks its connection until the verdict), and concurrency
// comes from opening several connections.
//
// A request is any JSON object with a required "cmd", read by the strict
// reader in util/json.hpp: whitespace is free, key order does not matter,
// unknown keys are ignored, and duplicate keys are rejected.  A known
// field of the wrong type is a BAD_REQUEST, never a silent default.
//   CHECK   {"cmd": "CHECK", "id": "r1", "smv": "<inline SMV text>", ...}
//           or {"cmd": "CHECK", "model": "models/afs1_composed.smv", ...}
//           "name" (job name) is optional.  Job options (all optional,
//           defaulting to the server's; the table in
//           service/job_options.hpp):
//             "compose", "no_retry", "trace_force", "reorder"
//             (bool); "deadline_ms", "node_budget", "cluster" (integer);
//             "engine" ("auto" | "partitioned" | "monolithic")
//   STATUS  {"cmd": "STATUS"}
//   STATS   {"cmd": "STATS"}
//   CANCEL  {"cmd": "CANCEL", "id": "r1"}
//   DRAIN   {"cmd": "DRAIN"}
//
// Cluster administration (rev 3; the coordinator answers these, a plain
// shard refuses them with BAD_REQUEST):
//   TOPOLOGY {"cmd": "TOPOLOGY"}                 — list the live roster
//   JOIN     {"cmd": "JOIN", "shard": "s3", "socket": "/run/s3.sock"}
//            (or "tcp": <port> instead of "socket") — add a shard after a
//            version/protocol handshake
//   LEAVE    {"cmd": "LEAVE", "shard": "s3"}     — graceful decommission
// Replica write-through (rev 3; a *shard* answers this, the coordinator
// refuses it):
//   CACHE_PUT {"cmd": "CACHE_PUT", "fingerprint": ..., "verdict":
//             "Holds"|"Fails", "rule": ..., "engine": ..., "seconds": ...,
//             "counterexample"?: ..., "proof"?: ...} — insert one decided
//             verdict into the shard's obligation cache
//
// Responses always carry "ok" (bool) and "cmd".  Failures carry "code" —
// one of BAD_REQUEST, BUSY, DRAINING, NOT_FOUND, INTERNAL — plus a
// human-readable "error".  A successful CHECK response embeds the full
// JobReport JSON as an *escaped string* field "report" (the repo's
// convention for nesting documents inside flat lines, as with journal
// proof certificates), next to flat summary fields for cheap consumers.
//
// Framing limits: a request line longer than kMaxLineBytes is a protocol
// error — the server responds BAD_REQUEST and closes the connection
// (an unbounded line is indistinguishable from a non-protocol peer).
#pragma once

#include <cstdint>
#include <string>

#include "service/job.hpp"
#include "service/obligation_cache.hpp"

namespace cmc::net {

/// Upper bound on one protocol line, requests and responses alike.  Large
/// enough for a multi-megabyte inline SMV model; small enough that a
/// garbage peer cannot balloon server memory.
constexpr std::size_t kMaxLineBytes = 8u << 20;

/// Wire protocol revision, stamped (with CMC_VERSION) into STATUS and
/// STATS responses.  Bumped whenever a verb or field changes in a way a
/// peer must understand — rev 2 added the single-obligation CHECK filter
/// ("only") the cluster coordinator forwards on; rev 3 added the cluster
/// admin verbs (TOPOLOGY/JOIN/LEAVE) and the CACHE_PUT replica
/// write-through.  The coordinator refuses shards whose revision differs
/// from its own: an old shard would silently ignore "only" (wrong, not
/// slow) or drop replica puts (silently un-replicated).
constexpr std::uint64_t kProtocolRevision = 3;

/// Error codes of failure responses.
inline constexpr const char* kBadRequest = "BAD_REQUEST";
inline constexpr const char* kBusy = "BUSY";
inline constexpr const char* kDraining = "DRAINING";
inline constexpr const char* kNotFound = "NOT_FOUND";
inline constexpr const char* kInternal = "INTERNAL";

enum class Command {
  Check,
  Status,
  Stats,
  Cancel,
  Drain,
  Topology,
  Join,
  Leave,
  CachePut,
};

const char* toString(Command c) noexcept;
bool commandFromString(std::string_view text, Command* out) noexcept;

struct Request {
  Command cmd = Command::Status;
  std::string id;     ///< client-chosen request id (CHECK; required: CANCEL)
  std::string name;   ///< job name (CHECK; defaults from model path / id)
  std::string model;  ///< server-side .smv path (CHECK)
  std::string smv;    ///< inline SMV program text (CHECK)
  /// CHECK only: restrict the job to the one obligation with this id
  /// ("<target>/<spec name>").  The cluster coordinator forwards each
  /// routed obligation as a CHECK with "only"; an id that matches nothing
  /// yields an Error verdict, not a silent full run.
  std::string only;
  service::JobOptions options;  ///< seeded from the server defaults
  // Cluster admin fields (JOIN/LEAVE).
  std::string shard;        ///< roster name of the shard to add/remove
  std::string shardSocket;  ///< JOIN: Unix-domain endpoint (or shardTcp)
  int shardTcp = -1;        ///< JOIN: loopback TCP port (or shardSocket)
  /// CACHE_PUT: the content fingerprint being written through, and the
  /// decided verdict to insert under it.
  std::string fingerprint;
  service::CachedVerdict cacheVerdict;
};

/// Parse one request line.  `defaults` seeds Request::options; fields
/// present in the request overlay them.  Returns false with a message on
/// anything malformed: not a JSON object, unknown/missing cmd, a known
/// field of the wrong type, a CHECK with neither or both of model/smv, or
/// a CANCEL without id.
bool parseRequest(const std::string& line, const service::JobOptions& defaults,
                  Request* out, std::string* error);

/// One-line JSON failure response: {"ok": false, "cmd": ..., "code": ...,
/// "error": ...}.  `cmd` is the command name ("?" when the request was too
/// malformed to tell).
std::string errorResponse(const std::string& cmd, const std::string& code,
                          const std::string& message);

/// "<what>: <strerror(errno)>", the net layer's socket-call error message.
std::string errnoMessage(const std::string& what);

/// A line-oriented stream socket: buffers reads, splits on '\n', enforces
/// the line cap, and writes whole lines with MSG_NOSIGNAL (a dead peer
/// yields an error return, never SIGPIPE).  Owns the fd.  Used by the
/// server's connection handlers, the cmc submit client, and the protocol
/// tests.
class LineSocket {
 public:
  explicit LineSocket(int fd) : fd_(fd) {}
  ~LineSocket() { close(); }

  LineSocket(LineSocket&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  LineSocket& operator=(LineSocket&&) = delete;
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  enum class ReadResult {
    Line,     ///< a complete line is in *line (terminator stripped)
    Eof,      ///< orderly shutdown (or a half-closed, line-less tail)
    TooLong,  ///< peer exceeded kMaxLineBytes without a newline
    Error,    ///< recv failed
  };

  /// Read the next line (blocking).  A final unterminated fragment before
  /// EOF is reported as Eof — a torn request is never parsed.
  ReadResult readLine(std::string* line);

  /// Write `line` plus '\n' (blocking, complete).  False on any failure.
  bool writeLine(const std::string& line);

  int fd() const noexcept { return fd_; }
  bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received beyond the last returned line
};

}  // namespace cmc::net
