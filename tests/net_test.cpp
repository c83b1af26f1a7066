// Tests for the net layer: wire-protocol parsing (malformed JSON, typed
// option overlays), LineSocket framing (splits, CRLF, oversized lines,
// torn tails), and the server end-to-end — admission control with BUSY
// backpressure, queueing, per-request CANCEL (running and queued),
// client-disconnect detection, drain semantics, warm-cache resubmission,
// and the metrics consistency invariants.  All over real Unix-domain
// sockets against an in-process Server, so the tests can assert on the
// registry and trace directly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/journal.hpp"
#include "service/scheduler.hpp"
#include "service/trace_log.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

namespace cmc::net {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

const char* kChainSmv = R"(
MODULE chain
VAR s : {a, b, c};
ASSIGN next(s) := case s = a : b; s = b : c; 1 : s; esac;
SPEC AG (s = a | s = b | s = c)
)";

/// A model whose single obligation is genuinely slow to *check*: a
/// saturating k-bit ripple counter where AG (EF all-ones) holds but the
/// inner EF fixpoint needs 2^k backward iterations before converging.
/// Elaboration is shared across a job since snapshots landed, so the
/// slowness must live in the fixpoint, not in re-parsing; k is sized so
/// the check runs for roughly `ms` milliseconds with a ~2x margin for
/// faster machines — long enough for a cancel or a second connection to
/// land mid-run.
std::string slowSmv(int ms) {
  int bits = 14;
  while ((1 << bits) < ms * 2800 && bits < 24) ++bits;
  std::ostringstream out;
  out << "MODULE slow\nVAR\n";
  for (int i = 0; i < bits; ++i) out << "  b" << i << " : boolean;\n";
  out << "ASSIGN\n  next(b0) := case";
  std::string carry = "b0";
  for (int i = 1; i < bits; ++i) carry += " & b" + std::to_string(i);
  out << " " << carry << " : b0; 1 : !b0; esac;\n";
  for (int i = 1; i < bits; ++i) {
    std::string below = "b0";
    for (int k = 1; k < i; ++k) below += " & b" + std::to_string(k);
    out << "  next(b" << i << ") := case " << carry << " : b" << i << "; "
        << below << " : !b" << i << "; 1 : b" << i << "; esac;\n";
  }
  out << "SPEC AG (EF (" << carry << "))\n";
  return out.str();
}

std::string checkRequest(const std::string& id, const std::string& smv,
                         const std::string& extraRawFields = "") {
  service::JsonObject req;
  req.put("cmd", "CHECK").put("id", id);
  std::string line = req.str();
  if (!extraRawFields.empty()) {
    line.pop_back();
    line += ", " + extraRawFields + "}";
  }
  // Free text last, per the client convention.
  line.pop_back();
  line += ", \"smv\": \"" + service::jsonEscape(smv) + "\"}";
  return line;
}

bool waitFor(const std::function<bool()>& pred, double seconds = 30.0) {
  WallTimer t;
  while (t.seconds() < seconds) {
    if (pred()) return true;
    std::this_thread::sleep_for(20ms);
  }
  return pred();
}

/// An in-process server on a fresh socket, with direct access to the
/// registry and trace.
struct Harness {
  explicit Harness(unsigned maxInFlight = 0, std::size_t queueDepth = 16,
                   int tcpPort = -1, double metricsInterval = 0.0) {
    service::ServiceOptions so;
    so.threads = 1;
    so.metrics = &metrics;
    svc = std::make_unique<service::VerificationService>(so);
    static std::atomic<int> counter{0};
    sockPath = (fs::temp_directory_path() /
                ("cmc_net_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(++counter) + ".sock"))
                   .string();
    ServerOptions opts;
    opts.socketPath = sockPath;
    opts.tcpPort = tcpPort;
    opts.maxInFlight = maxInFlight;
    opts.queueDepth = queueDepth;
    opts.metricsIntervalSeconds = metricsInterval;
    server = std::make_unique<Server>(opts, *svc, metrics, trace, nullptr,
                                      nullptr);
    std::string err;
    started = server->start(&err);
    EXPECT_TRUE(started) << err;
  }

  ~Harness() {
    server->shutdown();
  }

  Client connect() {
    Client c;
    std::string err;
    EXPECT_TRUE(c.connectUnix(sockPath, &err)) << err;
    return c;
  }

  service::MetricsRegistry metrics;
  service::RunTrace trace;
  std::unique_ptr<service::VerificationService> svc;
  std::unique_ptr<Server> server;
  std::string sockPath;
  bool started = false;
};

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

TEST(NetProtocol, ParseRejectsMalformedRequests) {
  const service::JobOptions defaults;
  Request req;
  std::string err;
  EXPECT_FALSE(parseRequest("not json at all", defaults, &req, &err));
  EXPECT_NE(err.find("not a JSON object"), std::string::npos);
  EXPECT_FALSE(parseRequest("{\"id\": \"x\"}", defaults, &req, &err));
  EXPECT_NE(err.find("cmd"), std::string::npos);
  EXPECT_FALSE(parseRequest("{\"cmd\": \"NOPE\"}", defaults, &req, &err));
  EXPECT_NE(err.find("unknown command"), std::string::npos);
  // CHECK needs exactly one model source.
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CHECK\"}", defaults, &req, &err));
  EXPECT_FALSE(parseRequest(
      "{\"cmd\": \"CHECK\", \"model\": \"m.smv\", \"smv\": \"MODULE m\"}",
      defaults, &req, &err));
  // CANCEL needs a target.
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CANCEL\"}", defaults, &req, &err));
  // Typed overlays reject wrong types instead of silently defaulting.
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CHECK\", \"model\": \"m.smv\", "
                            "\"deadline_ms\": \"soon\"}",
                            defaults, &req, &err));
  EXPECT_NE(err.find("deadline_ms"), std::string::npos);
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CHECK\", \"model\": \"m.smv\", "
                            "\"engine\": \"quantum\"}",
                            defaults, &req, &err));
  // Engine names that no longer exist (old clients may still send them)
  // get the ordinary unknown-value refusal.
  for (const char* engine : {"bes", "race"}) {
    err.clear();
    EXPECT_FALSE(parseRequest(std::string("{\"cmd\": \"CHECK\", \"model\": "
                                          "\"m.smv\", \"engine\": \"") +
                                  engine + "\"}",
                              defaults, &req, &err))
        << engine;
    EXPECT_NE(err.find("engine"), std::string::npos) << err;
  }
}

TEST(NetProtocol, ParseOverlaysDefaults) {
  service::JobOptions defaults;
  defaults.clusterThreshold = 512;
  Request req;
  std::string err;
  ASSERT_TRUE(parseRequest(
      "{\"cmd\": \"CHECK\", \"id\": \"r1\", \"model\": \"m.smv\", "
      "\"deadline_ms\": 1500, \"compose\": true, \"no_retry\": true, "
      "\"engine\": \"monolithic\"}",
      defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::Check);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.model, "m.smv");
  EXPECT_DOUBLE_EQ(req.options.limits.deadlineSeconds, 1.5);
  EXPECT_TRUE(req.options.compose);
  EXPECT_FALSE(req.options.retryOtherEngine);
  EXPECT_EQ(req.options.engine, symbolic::EngineMode::Monolithic);
  EXPECT_EQ(req.options.clusterThreshold, 512u);  // untouched default

  // An inline-smv CHECK whose *model text* mentions option-like words must
  // not confuse the overlay (escaped quotes cannot form a key needle).
  ASSERT_TRUE(parseRequest(
      checkRequest("r2", "MODULE m -- \"deadline_ms\": 1, \"cmd\": \"DRAIN\""),
      defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::Check);
  EXPECT_DOUBLE_EQ(req.options.limits.deadlineSeconds, 0.0);
}

TEST(NetProtocol, ParsesRev3ClusterAdminCommands) {
  // The admin commands arrived with protocol revision 3; the gate test in
  // cluster_test.cpp proves older revisions are refused outright.
  EXPECT_EQ(kProtocolRevision, 3u);
  const service::JobOptions defaults;
  Request req;
  std::string err;

  ASSERT_TRUE(parseRequest("{\"cmd\": \"TOPOLOGY\"}", defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::Topology);

  ASSERT_TRUE(parseRequest(
      "{\"cmd\": \"JOIN\", \"shard\": \"s3\", \"socket\": \"/run/s3.sock\"}",
      defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::Join);
  EXPECT_EQ(req.shard, "s3");
  EXPECT_EQ(req.shardSocket, "/run/s3.sock");
  EXPECT_EQ(req.shardTcp, -1);
  ASSERT_TRUE(parseRequest("{\"cmd\": \"JOIN\", \"shard\": \"s4\", "
                           "\"tcp\": 7402}",
                           defaults, &req, &err))
      << err;
  EXPECT_EQ(req.shardTcp, 7402);
  EXPECT_TRUE(req.shardSocket.empty());
  // JOIN needs a name and exactly one transport, in range.
  EXPECT_FALSE(parseRequest("{\"cmd\": \"JOIN\", \"socket\": \"/run/x\"}",
                            defaults, &req, &err));
  EXPECT_NE(err.find("shard"), std::string::npos) << err;
  EXPECT_FALSE(parseRequest("{\"cmd\": \"JOIN\", \"shard\": \"s3\"}",
                            defaults, &req, &err));
  EXPECT_FALSE(parseRequest(
      "{\"cmd\": \"JOIN\", \"shard\": \"s3\", \"socket\": \"/run/x\", "
      "\"tcp\": 7402}",
      defaults, &req, &err));
  EXPECT_FALSE(parseRequest("{\"cmd\": \"JOIN\", \"shard\": \"s3\", "
                            "\"tcp\": 99999}",
                            defaults, &req, &err));

  ASSERT_TRUE(parseRequest("{\"cmd\": \"LEAVE\", \"shard\": \"s3\"}",
                           defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::Leave);
  EXPECT_EQ(req.shard, "s3");
  EXPECT_FALSE(parseRequest("{\"cmd\": \"LEAVE\"}", defaults, &req, &err));

  ASSERT_TRUE(parseRequest("{\"cmd\": \"CACHE_PUT\", \"fingerprint\": "
                           "\"ab12\", \"verdict\": \"Fails\"}",
                           defaults, &req, &err))
      << err;
  EXPECT_EQ(req.cmd, Command::CachePut);
  EXPECT_EQ(req.fingerprint, "ab12");
  // The write-through carries decided verdicts only: no fingerprint, or a
  // non-terminal verdict, is refused at the parse layer.
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CACHE_PUT\", \"verdict\": "
                            "\"Holds\"}",
                            defaults, &req, &err));
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
  EXPECT_FALSE(parseRequest("{\"cmd\": \"CACHE_PUT\", \"fingerprint\": "
                            "\"ab12\", \"verdict\": \"Timeout\"}",
                            defaults, &req, &err));
}

// ---------------------------------------------------------------------------
// LineSocket framing
// ---------------------------------------------------------------------------

TEST(NetLineSocket, SplitsLinesAndStripsCrlf) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineSocket a(fds[0]);
  LineSocket b(fds[1]);
  ASSERT_TRUE(a.writeLine("first"));
  const std::string raw = "second\r\nthird\n";
  ASSERT_EQ(::send(fds[0], raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  std::string line;
  EXPECT_EQ(b.readLine(&line), LineSocket::ReadResult::Line);
  EXPECT_EQ(line, "first");
  EXPECT_EQ(b.readLine(&line), LineSocket::ReadResult::Line);
  EXPECT_EQ(line, "second");
  EXPECT_EQ(b.readLine(&line), LineSocket::ReadResult::Line);
  EXPECT_EQ(line, "third");
}

TEST(NetLineSocket, TornTailIsEofNeverALine) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineSocket b(fds[1]);
  const std::string fragment = "{\"cmd\": \"CHE";
  ASSERT_EQ(::send(fds[0], fragment.data(), fragment.size(), 0),
            static_cast<ssize_t>(fragment.size()));
  ::close(fds[0]);
  std::string line;
  EXPECT_EQ(b.readLine(&line), LineSocket::ReadResult::Eof);
}

// ---------------------------------------------------------------------------
// Server: protocol-level failure handling
// ---------------------------------------------------------------------------

TEST(NetServer, MalformedRequestsGetBadRequestAndConnectionSurvives) {
  Harness h;
  Client c = h.connect();
  std::string resp, err;
  ASSERT_TRUE(c.request("this is not json", &resp, &err)) << err;
  EXPECT_NE(resp.find(kBadRequest), std::string::npos);
  ASSERT_TRUE(c.request("{\"cmd\": \"FROBNICATE\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown command"), std::string::npos);
  // The connection is still usable for a well-formed request.
  ASSERT_TRUE(c.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"state\": \"serving\""), std::string::npos);
  EXPECT_NE(resp.find(util::versionString()), std::string::npos);
  EXPECT_EQ(h.metrics.counterValue("protocol_errors"), 2u);
}

TEST(NetServer, OversizedLineIsRejectedAndConnectionClosed) {
  Harness h;
  Client c = h.connect();
  std::string big(kMaxLineBytes + 2, 'x');
  ASSERT_TRUE(c.send(big));
  std::string resp, err;
  ASSERT_TRUE(c.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find(kBadRequest), std::string::npos);
  EXPECT_NE(resp.find("exceeds"), std::string::npos);
  // The server closes after an unbounded line; the next read is EOF.
  EXPECT_FALSE(c.readResponse(&resp, &err));
}

TEST(NetServer, HalfClosedConnectionUnwindsCleanly) {
  Harness h;
  {
    Client c = h.connect();
    // A torn request then write-shutdown: the server must treat it as EOF,
    // answer nothing, and release the connection.
    ASSERT_TRUE(c.socket() != nullptr);
    const std::string fragment = "{\"cmd\": \"STAT";
    ::send(c.socket()->fd(), fragment.data(), fragment.size(), MSG_NOSIGNAL);
    ::shutdown(c.socket()->fd(), SHUT_WR);
    std::string resp, err;
    EXPECT_FALSE(c.readResponse(&resp, &err));
  }
  EXPECT_TRUE(waitFor([&] {
    return h.metrics.gaugeValue("connections_open") == 0;
  }));
  // And the server still serves.
  Client c2 = h.connect();
  std::string resp, err;
  ASSERT_TRUE(c2.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server: CHECK end-to-end
// ---------------------------------------------------------------------------

TEST(NetServer, ChecksInlineModelAndEmbedsReport) {
  Harness h;
  Client c = h.connect();
  std::string resp, err;
  ASSERT_TRUE(c.request(checkRequest("r1", kChainSmv), &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
  std::uint64_t obligations = 0;
  EXPECT_TRUE(service::jsonExtractUint(resp, "obligations", &obligations));
  EXPECT_EQ(obligations, 1u);
  std::string report;
  ASSERT_TRUE(service::jsonExtractString(resp, "report", &report));
  // The embedded report is the full (unescaped) JobReport document,
  // version-stamped.
  EXPECT_NE(report.find("\"cmc_version\": \""), std::string::npos);
  EXPECT_NE(report.find("\"verdict\": \"Holds\""), std::string::npos);
}

TEST(NetServer, SecondIdenticalSubmissionIsAllCache) {
  Harness h;
  const std::string model = [] {
    std::ifstream in(fs::path(CMC_MODELS_DIR) / "afs2_composed.smv");
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }();
  ASSERT_FALSE(model.empty());
  Client c = h.connect();
  std::string cold, warm, err;
  ASSERT_TRUE(c.request(checkRequest("cold", model, "\"compose\": true"),
                        &cold, &err))
      << err;
  ASSERT_TRUE(c.request(checkRequest("warm", model, "\"compose\": true"),
                        &warm, &err))
      << err;
  std::uint64_t obligations = 0, coldHits = 0, warmHits = 0;
  ASSERT_TRUE(service::jsonExtractUint(warm, "obligations", &obligations));
  service::jsonExtractUint(cold, "cache_hits", &coldHits);
  service::jsonExtractUint(warm, "cache_hits", &warmHits);
  EXPECT_EQ(coldHits, 0u);
  EXPECT_EQ(warmHits, obligations);  // every obligation served from cache
  std::string report;
  ASSERT_TRUE(service::jsonExtractString(warm, "report", &report));
  EXPECT_NE(report.find("\"verdict_source\": \"cache\""), std::string::npos);
  EXPECT_EQ(report.find("\"verdict_source\": \"checked\""),
            std::string::npos);
  EXPECT_GE(h.metrics.counterValue("obligations_cache"), obligations);
}

TEST(NetServer, ConcurrentConnectionsAndBusyBackpressure) {
  Harness h(/*maxInFlight=*/1, /*queueDepth=*/0);
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("slow", slowSmv(200))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));

  // The queue depth is 0: a concurrent CHECK is refused immediately with
  // BUSY — explicit backpressure, not unbounded queueing.
  Client busy = h.connect();
  std::string resp, err;
  ASSERT_TRUE(busy.request(checkRequest("busy", kChainSmv), &resp, &err))
      << err;
  EXPECT_NE(resp.find(kBusy), std::string::npos);
  EXPECT_NE(resp.find("\"ok\": false"), std::string::npos);
  EXPECT_EQ(h.metrics.counterValue("checks_rejected_busy"), 1u);
  // STATUS and STATS are not subject to admission control.
  ASSERT_TRUE(busy.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"in_flight\": 1"), std::string::npos);

  // The running request is unaffected and completes.
  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
}

TEST(NetServer, QueuedRequestWaitsForSlotAndCompletes) {
  Harness h(/*maxInFlight=*/1, /*queueDepth=*/1);
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("slow", slowSmv(120))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));
  Client queued = h.connect();
  ASSERT_TRUE(queued.send(checkRequest("queued", kChainSmv)));
  ASSERT_TRUE(waitFor([&] { return h.server->queued() == 1; }));

  std::string resp, err;
  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  ASSERT_TRUE(queued.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
  double waited = 0.0;
  ASSERT_TRUE(service::jsonExtractDouble(resp, "queue_wait_seconds", &waited));
  EXPECT_GT(waited, 0.0);  // it really did wait for the slot
  EXPECT_EQ(h.metrics.counterValue("checks_admitted"), 2u);
  EXPECT_EQ(h.metrics.counterValue("checks_completed"), 2u);
}

TEST(NetServer, CancelStopsARunningRequest) {
  Harness h;
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("victim", slowSmv(300))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));
  std::this_thread::sleep_for(200ms);

  Client control = h.connect();
  std::string resp, err;
  ASSERT_TRUE(control.request("{\"cmd\": \"CANCEL\", \"id\": \"victim\"}",
                              &resp, &err))
      << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(resp.find("\"phase\": \"running\""), std::string::npos);

  // The victim still gets a response — verdict Cancelled, decided
  // obligations included — and the worker is free again.
  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Cancelled\""), std::string::npos);
  EXPECT_EQ(h.metrics.counterValue("checks_cancelled"), 1u);

  ASSERT_TRUE(control.request(checkRequest("after", kChainSmv), &resp, &err))
      << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);

  // Cancelling a finished request is NOT_FOUND, not an exception.
  ASSERT_TRUE(control.request("{\"cmd\": \"CANCEL\", \"id\": \"victim\"}",
                              &resp, &err))
      << err;
  EXPECT_NE(resp.find(kNotFound), std::string::npos);
}

TEST(NetServer, CancelReachesAQueuedRequestWithoutAWorker) {
  Harness h(/*maxInFlight=*/1, /*queueDepth=*/2);
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("front", slowSmv(150))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));
  Client queued = h.connect();
  ASSERT_TRUE(queued.send(checkRequest("waiting", kChainSmv)));
  ASSERT_TRUE(waitFor([&] { return h.server->queued() == 1; }));

  Client control = h.connect();
  std::string resp, err;
  ASSERT_TRUE(control.request("{\"cmd\": \"CANCEL\", \"id\": \"waiting\"}",
                              &resp, &err))
      << err;
  EXPECT_NE(resp.find("\"phase\": \"queued\""), std::string::npos);

  // The queued request answers immediately — no worker ever ran it.
  ASSERT_TRUE(queued.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Cancelled\""), std::string::npos);
  EXPECT_NE(resp.find("\"cancelled_in_queue\": true"), std::string::npos);

  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
  // Admitted counts only worker-reaching requests: the cancelled-in-queue
  // one is not in it, so admitted == completed still holds.
  EXPECT_EQ(h.metrics.counterValue("checks_admitted"),
            h.metrics.counterValue("checks_completed"));
}

TEST(NetServer, VanishedClientCancelsItsRequest) {
  Harness h;
  {
    Client doomed = h.connect();
    ASSERT_TRUE(doomed.send(checkRequest("ghost", slowSmv(300))));
    ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));
    std::this_thread::sleep_for(150ms);
  }  // client closes without reading the response

  // The watcher notices the hangup, raises the cancel flag, and the worker
  // is released — never wedged on a dead connection.
  EXPECT_TRUE(waitFor([&] {
    return h.metrics.counterValue("checks_client_gone") == 1;
  }));
  EXPECT_TRUE(waitFor([&] {
    return h.metrics.counterValue("checks_completed") == 1;
  }));
  EXPECT_TRUE(waitFor([&] { return h.server->inFlight() == 0; }));
  EXPECT_GE(h.trace.countContaining("\"event\": \"client_gone\""), 1u);

  // The worker serves the next client promptly.
  Client next = h.connect();
  std::string resp, err;
  ASSERT_TRUE(next.request(checkRequest("alive", kChainSmv), &resp, &err))
      << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
}

TEST(NetServer, DuplicateRequestIdIsRejected) {
  Harness h;
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("dup", slowSmv(120))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));
  Client other = h.connect();
  std::string resp, err;
  ASSERT_TRUE(other.request(checkRequest("dup", kChainSmv), &resp, &err))
      << err;
  EXPECT_NE(resp.find(kBadRequest), std::string::npos);
  EXPECT_NE(resp.find("already active"), std::string::npos);
  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server: drain, stats, TCP
// ---------------------------------------------------------------------------

TEST(NetServer, DrainRefusesNewChecksAndFinishesAdmittedOnes) {
  Harness h(/*maxInFlight=*/1, /*queueDepth=*/2);
  Client slow = h.connect();
  ASSERT_TRUE(slow.send(checkRequest("inflight", slowSmv(120))));
  ASSERT_TRUE(waitFor([&] { return h.server->inFlight() == 1; }));

  Client control = h.connect();
  std::string resp, err;
  ASSERT_TRUE(control.request("{\"cmd\": \"DRAIN\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"state\": \"draining\""), std::string::npos);
  EXPECT_TRUE(h.server->drainRequested());

  // New CHECKs are refused; STATUS still answers and says draining.
  ASSERT_TRUE(control.request(checkRequest("late", kChainSmv), &resp, &err))
      << err;
  EXPECT_NE(resp.find(kDraining), std::string::npos);
  ASSERT_TRUE(control.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"state\": \"draining\""), std::string::npos);

  // The in-flight request completes and gets its verdict.
  ASSERT_TRUE(slow.readResponse(&resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
  EXPECT_EQ(h.metrics.counterValue("checks_rejected_draining"), 1u);
  h.server->shutdown();  // drains cleanly with nothing in flight
  EXPECT_FALSE(fs::exists(h.sockPath));  // listener socket unlinked
}

TEST(NetServer, StatsAreConsistentAfterABurst) {
  Harness h;
  Client c = h.connect();
  std::string resp, err;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.request(checkRequest("r" + std::to_string(i), kChainSmv),
                          &resp, &err))
        << err;
  }
  // Registry invariants the STATS command exposes.
  EXPECT_EQ(h.metrics.counterValue("checks_admitted"), 4u);
  EXPECT_EQ(h.metrics.counterValue("checks_completed"), 4u);
  EXPECT_EQ(h.metrics.gaugeValue("requests_in_flight"), 0);
  EXPECT_EQ(h.metrics.gaugeValue("requests_queued"), 0);
  const service::LatencyHistogram::Snapshot lat =
      h.metrics.histogram("request_seconds").snapshot();
  EXPECT_EQ(lat.count, 4u);
  std::uint64_t buckets = 0;
  for (std::uint64_t b : lat.counts) buckets += b;
  EXPECT_EQ(buckets, lat.count);
  EXPECT_EQ(h.metrics.counterValue("obligations_dispatched"),
            h.metrics.counterValue("obligations_completed"));

  // And through the wire: the STATS response carries both renderings.
  ASSERT_TRUE(c.request("{\"cmd\": \"STATS\"}", &resp, &err)) << err;
  std::string text;
  ASSERT_TRUE(service::jsonExtractString(resp, "metrics_text", &text));
  EXPECT_NE(text.find("checks_completed 4\n"), std::string::npos);
  EXPECT_NE(text.find("request_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  std::string json;
  ASSERT_TRUE(service::jsonExtractString(resp, "metrics", &json));
  EXPECT_NE(json.find("\"checks_completed\": 4"), std::string::npos);
}

TEST(NetServer, PeriodicMetricsEventsLandInTheTrace) {
  Harness h(/*maxInFlight=*/0, /*queueDepth=*/16, /*tcpPort=*/-1,
            /*metricsInterval=*/0.05);
  EXPECT_TRUE(waitFor([&] {
    return h.trace.countContaining("\"event\": \"metrics\"") >= 2;
  }));
  h.server->shutdown();
  // Shutdown emits one final snapshot, reason "shutdown".
  EXPECT_GE(h.trace.countContaining("\"reason\": \"shutdown\""), 1u);
}

TEST(NetServer, LoopbackTcpListenerServes) {
  Harness h(/*maxInFlight=*/0, /*queueDepth=*/16, /*tcpPort=*/0);
  ASSERT_GT(h.server->boundTcpPort(), 0);
  Client c;
  std::string err;
  ASSERT_TRUE(c.connectTcp(h.server->boundTcpPort(), &err)) << err;
  std::string resp;
  ASSERT_TRUE(c.request(checkRequest("tcp", kChainSmv), &resp, &err)) << err;
  EXPECT_NE(resp.find("\"verdict\": \"Holds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Client retry loops: transient transport failures, including the
// initial dial
// ---------------------------------------------------------------------------

TEST(NetClient, ConnectRetryingWaitsForALateServer) {
  // The daemon comes up well after the client starts dialing: the
  // retrying dial keeps at it instead of failing the submit outright.
  service::MetricsRegistry metrics;
  service::RunTrace trace;
  service::ServiceOptions so;
  so.threads = 1;
  so.metrics = &metrics;
  service::VerificationService svc(so);
  static std::atomic<int> counter{0};
  const std::string path =
      (fs::temp_directory_path() /
       ("cmc_net_late_" + std::to_string(::getpid()) + "_" +
        std::to_string(++counter) + ".sock"))
          .string();
  ServerOptions opts;
  opts.socketPath = path;
  std::unique_ptr<Server> server;
  std::thread starter([&] {
    std::this_thread::sleep_for(200ms);
    server = std::make_unique<Server>(opts, svc, metrics, trace, nullptr,
                                      nullptr);
    std::string err;
    EXPECT_TRUE(server->start(&err)) << err;
  });
  Client c;
  std::string err;
  std::atomic<int> attempts{0};
  EXPECT_TRUE(c.connectRetrying(path, /*tcpPort=*/-1, /*maxRetries=*/50,
                                /*baseMs=*/20, &err,
                                [&](const std::string&, int, int) {
                                  ++attempts;
                                }))
      << err;
  starter.join();
  EXPECT_GE(attempts.load(), 1);
  std::string resp;
  ASSERT_TRUE(c.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  server->shutdown();
}

TEST(NetClient, ConnectRetryingReportsFailureWhenTheBudgetRunsOut) {
  Client c;
  std::string err;
  EXPECT_FALSE(c.connectRetrying(
      (fs::temp_directory_path() / "cmc_net_never_bound.sock").string(),
      /*tcpPort=*/-1, /*maxRetries=*/2, /*baseMs=*/1, &err));
  EXPECT_NE(err.find("connect"), std::string::npos) << err;
}

TEST(NetClient, RequestWithRetrySurvivesAServerRestartOnTheSameSocket) {
  service::MetricsRegistry metrics;
  service::RunTrace trace;
  service::ServiceOptions so;
  so.threads = 1;
  so.metrics = &metrics;
  service::VerificationService svc(so);
  static std::atomic<int> counter{0};
  const std::string path =
      (fs::temp_directory_path() /
       ("cmc_net_restart_" + std::to_string(::getpid()) + "_" +
        std::to_string(++counter) + ".sock"))
          .string();
  ServerOptions opts;
  opts.socketPath = path;
  auto server = std::make_unique<Server>(opts, svc, metrics, trace, nullptr,
                                         nullptr);
  std::string err;
  ASSERT_TRUE(server->start(&err)) << err;
  Client c;
  ASSERT_TRUE(c.connectUnix(path, &err)) << err;

  // Kill the daemon under the connected client, then bring a new one up
  // on the same socket a beat later.
  server->shutdown();
  std::thread restarter([&] {
    std::this_thread::sleep_for(150ms);
    server = std::make_unique<Server>(opts, svc, metrics, trace, nullptr,
                                      nullptr);
    std::string startErr;
    EXPECT_TRUE(server->start(&startErr)) << startErr;
  });

  // The in-flight request rides out the restart: transport failure →
  // backoff → re-dial → success, invisibly to the caller.
  std::string resp;
  std::atomic<int> attempts{0};
  ASSERT_TRUE(c.requestWithRetry("{\"cmd\": \"STATUS\"}", /*maxRetries=*/10,
                                 /*baseMs=*/50, &resp, &err,
                                 [&](const std::string&, int, int) {
                                   ++attempts;
                                 }))
      << err;
  EXPECT_NE(resp.find("\"ok\": true"), std::string::npos);
  EXPECT_GE(attempts.load(), 1);
  restarter.join();
  server->shutdown();
}

}  // namespace
}  // namespace cmc::net
