// Tests for the cluster layer: topology parsing, the rendezvous-hash
// routing invariants (determinism, balance, minimal re-keying on shard
// removal), the version-compatibility gate, the submit retry backoff
// bounds, single-obligation forwarding through a plain server ("only"),
// and the coordinator end-to-end — scatter/gather over in-process shard
// servers, fleet-wide warm-cache resubmission, and mark-down plus
// re-dispatch when a shard dies.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/topology.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/trace_log.hpp"
#include "test_util.hpp"
#include "util/failpoint.hpp"
#include "util/version.hpp"

namespace cmc::cluster {
namespace {

namespace fs = std::filesystem;

// Two modules, two specs each: with compose that is 6 obligations — enough
// for rendezvous routing to actually spread work over small rings.
const char* kPairSmv = R"(
MODULE ping
VAR p : boolean;
ASSIGN next(p) := !p;
SPEC AG (p | !p)
SPEC AG EF p
MODULE pong
VAR q : {lo, hi};
ASSIGN next(q) := case q = lo : hi; 1 : lo; esac;
SPEC AG (q = lo | q = hi)
)";

std::string freshSocketPath(const char* tag) {
  static std::atomic<int> counter{0};
  return (fs::temp_directory_path() /
          ("cmc_cluster_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(++counter) +
           ".sock"))
      .string();
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
  line.pop_back();
  line += ", \"smv\": \"" + service::jsonEscape(smv) + "\"}";
  return line;
}

std::size_t countOccurrences(const std::string& text,
                             const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Topology parsing
// ---------------------------------------------------------------------------

TEST(ClusterTopology, ParsesMixedTransportsCommentsAndBlanks) {
  Topology topo;
  std::string err;
  ASSERT_TRUE(parseTopology("# the fleet\n"
                            "{\"name\": \"s1\", \"socket\": \"/run/a\"}\n"
                            "\n"
                            "{\"name\": \"s2\", \"tcp\": 7401}\n",
                            &topo, &err))
      << err;
  ASSERT_EQ(topo.shards.size(), 2u);
  EXPECT_EQ(topo.shards[0].name, "s1");
  EXPECT_EQ(topo.shards[0].socketPath, "/run/a");
  EXPECT_EQ(topo.shards[0].tcpPort, -1);
  EXPECT_EQ(topo.shards[1].name, "s2");
  EXPECT_EQ(topo.shards[1].tcpPort, 7401);
}

TEST(ClusterTopology, RejectsMalformedRosters) {
  Topology topo;
  std::string err;
  EXPECT_FALSE(parseTopology("", &topo, &err));  // empty fleet
  EXPECT_FALSE(parseTopology("{\"name\": \"a\", \"socket\": \"/x\"}\n"
                             "{\"name\": \"a\", \"tcp\": 7401}\n",
                             &topo, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
  // Exactly one transport per shard.
  EXPECT_FALSE(parseTopology("{\"name\": \"a\"}\n", &topo, &err));
  EXPECT_FALSE(parseTopology(
      "{\"name\": \"a\", \"socket\": \"/x\", \"tcp\": 7401}\n", &topo, &err));
  // Errors carry the line number.
  EXPECT_FALSE(parseTopology("{\"name\": \"a\", \"socket\": \"/x\"}\n"
                             "{\"socket\": \"/y\"}\n",
                             &topo, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_FALSE(
      parseTopology("{\"name\": \"a\", \"tcp\": 99999}\n", &topo, &err));
}

// ---------------------------------------------------------------------------
// Rendezvous routing invariants
// ---------------------------------------------------------------------------

std::vector<std::string> shardNames(int k) {
  std::vector<std::string> names;
  for (int i = 0; i < k; ++i) names.push_back("shard-" + std::to_string(i));
  return names;
}

std::vector<std::string> syntheticKeys(int n) {
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    // Shaped like real fingerprints (hex-ish, shared prefix) so balance is
    // demonstrated on adversarially similar keys, not random ones.
    keys.push_back("fp-000" + std::to_string(i * 2654435761u));
  }
  return keys;
}

TEST(ClusterRendezvous, OrderIsDeterministicAndCompleteAndScoreRanked) {
  const std::vector<std::string> names = shardNames(5);
  for (const std::string& key : syntheticKeys(50)) {
    const std::vector<std::size_t> order = rendezvousOrder(names, key);
    ASSERT_EQ(order, rendezvousOrder(names, key));  // pure function
    ASSERT_EQ(order.size(), names.size());          // a permutation...
    std::vector<bool> seen(names.size(), false);
    for (std::size_t i : order) seen[i] = true;
    for (bool s : seen) ASSERT_TRUE(s);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {  // ...by score
      ASSERT_GE(rendezvousScore(names[order[i]], key),
                rendezvousScore(names[order[i + 1]], key));
    }
  }
}

TEST(ClusterRendezvous, BalancesKeysAcrossRingSizes) {
  const std::vector<std::string> keys = syntheticKeys(4000);
  for (int k = 2; k <= 8; ++k) {
    const std::vector<std::string> names = shardNames(k);
    std::vector<std::size_t> owned(names.size(), 0);
    for (const std::string& key : keys) {
      ++owned[rendezvousOrder(names, key).front()];
    }
    const std::size_t fair = keys.size() / names.size();
    for (std::size_t i = 0; i < owned.size(); ++i) {
      EXPECT_GE(owned[i], fair / 2) << "ring " << k << " shard " << i;
      EXPECT_LE(owned[i], fair * 2) << "ring " << k << " shard " << i;
    }
  }
}

TEST(ClusterRendezvous, RemovingAShardReKeysExactlyItsOwnKeys) {
  const std::vector<std::string> all = shardNames(6);
  std::vector<std::string> survivors = all;
  survivors.erase(survivors.begin() + 2);  // drop shard-2
  for (const std::string& key : syntheticKeys(2000)) {
    const std::vector<std::size_t> before = rendezvousOrder(all, key);
    const std::size_t after = rendezvousOrder(survivors, key).front();
    if (all[before[0]] == "shard-2") {
      // An orphaned key falls to its former second choice...
      EXPECT_EQ(survivors[after], all[before[1]]);
    } else {
      // ...and every other key keeps its owner.
      EXPECT_EQ(survivors[after], all[before[0]]);
    }
  }
}

// ---------------------------------------------------------------------------
// Version gate and retry backoff
// ---------------------------------------------------------------------------

TEST(ClusterCompat, GatesOnVersionAndProtocolRevision) {
  const std::string version = util::versionString();
  std::string why;
  EXPECT_TRUE(shardCompatible(
      "{\"ok\": true, \"cmc_version\": \"" + version +
          "\", \"protocol_rev\": " + std::to_string(net::kProtocolRevision) +
          "}",
      &why))
      << why;
  EXPECT_FALSE(shardCompatible("{\"ok\": true, \"cmc_version\": \"" +
                                   version + "\", \"protocol_rev\": 1}",
                               &why));
  EXPECT_NE(why.find("mixed-version"), std::string::npos) << why;
  EXPECT_FALSE(shardCompatible(
      "{\"ok\": true, \"cmc_version\": \"0.0.0-other\", \"protocol_rev\": " +
          std::to_string(net::kProtocolRevision) + "}",
      &why));
  // No protocol_rev stamp at all = a pre-cluster build.
  EXPECT_FALSE(shardCompatible(
      "{\"ok\": true, \"cmc_version\": \"" + version + "\"}", &why));
}

TEST(ClusterCoordinator, AShardAttemptRecordsOnlyWhatTheResponseSays) {
  // The response names the deciding engine, the verdict and the seconds;
  // the merged attempt carries those and nothing it did not measure.
  service::ObligationRef ref;
  ref.id = "ping/ping.SPEC2";
  const service::ObligationOutcome out = outcomeFromResponse(
      R"({"ok": true, "cmd": "CHECK", "verdict": "Fails", )"
      R"("verdict_source": "checked", "rule": "direct", )"
      R"("obligation_seconds": 0.25, "engine": "partitioned"})",
      ref);
  ASSERT_EQ(out.attempts.size(), 1u);
  const service::AttemptRecord& a = out.attempts[0];
  EXPECT_EQ(a.engine, "partitioned");
  EXPECT_EQ(a.verdict, service::Verdict::Fails);
  EXPECT_EQ(a.seconds, 0.25);
  EXPECT_FALSE(a.peakLiveNodes || a.cacheHitRate || a.elaborateMs ||
               a.importMs || a.setupMs || a.fixpointMs || a.preimages ||
               a.conePreimages);
  service::JobReport report;
  report.obligations.push_back(out);
  const std::string json = report.toJson();
  test::parsedJson(json);
  EXPECT_NE(json.find("\"attempts\": [{\"engine\": \"partitioned\""),
            std::string::npos)
      << json;
  for (const char* key : {"peak_live_nodes", "cache_hit_rate", "elaborate_ms",
                          "import_ms", "setup_ms", "fixpoint_ms", "preimages",
                          "cone_preimages"}) {
    EXPECT_EQ(json.find(std::string("\"").append(key).append("\"")),
              std::string::npos)
        << key;
  }
}

TEST(ClusterBackoff, DelaysAreJitteredExponentialAndCapped) {
  for (int round = 0; round < 64; ++round) {
    const int first = net::Client::backoffMs(0, 100);
    EXPECT_GE(first, 50);
    EXPECT_LE(first, 100);
    const int fourth = net::Client::backoffMs(3, 100);
    EXPECT_GE(fourth, 400);
    EXPECT_LE(fourth, 800);
    const int capped = net::Client::backoffMs(20, 100000);
    EXPECT_GE(capped, 15000);
    EXPECT_LE(capped, 30000);
  }
  EXPECT_EQ(net::Client::backoffMs(5, 0), 0);
}

// ---------------------------------------------------------------------------
// In-process cluster harness
// ---------------------------------------------------------------------------

/// One in-process `cmc serve` shard on a fresh Unix socket.
struct ShardHarness {
  ShardHarness() {
    service::ServiceOptions so;
    so.threads = 1;
    so.metrics = &metrics;
    svc = std::make_unique<service::VerificationService>(so);
    sockPath = freshSocketPath("shard");
    net::ServerOptions opts;
    opts.socketPath = sockPath;
    server = std::make_unique<net::Server>(opts, *svc, metrics, trace,
                                           nullptr, nullptr);
    std::string err;
    started = server->start(&err);
    EXPECT_TRUE(started) << err;
  }

  ~ShardHarness() { server->shutdown(); }

  /// Rebind on the same socket path with the same service (so the
  /// in-memory cache survives) — the test seam for shard restarts: the
  /// coordinator sees the same endpoint come back to life.
  void restart() {
    server->shutdown();
    net::ServerOptions opts;
    opts.socketPath = sockPath;
    server = std::make_unique<net::Server>(opts, *svc, metrics, trace,
                                           nullptr, nullptr);
    std::string err;
    started = server->start(&err);
    EXPECT_TRUE(started) << err;
  }

  service::MetricsRegistry metrics;
  service::RunTrace trace;
  std::unique_ptr<service::VerificationService> svc;
  std::unique_ptr<net::Server> server;
  std::string sockPath;
  bool started = false;
};

/// A coordinator fronting `n` in-process shards.  The probe thread is
/// disabled; tests drive probeNow() for deterministic health transitions.
struct ClusterHarness {
  explicit ClusterHarness(
      int n, int failThreshold = 2,
      const std::function<void(CoordinatorOptions&)>& tweak = {}) {
    for (int i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<ShardHarness>());
    }
    CoordinatorOptions opts;
    opts.socketPath = freshSocketPath("coord");
    for (int i = 0; i < n; ++i) {
      ShardSpec spec;
      spec.name = std::string("s").append(std::to_string(i));
      spec.socketPath = shards[i]->sockPath;
      opts.topology.shards.push_back(spec);
    }
    opts.defaults.compose = true;
    opts.probeIntervalSeconds = 0.0;
    opts.failThreshold = failThreshold;
    opts.controlTimeoutSeconds = 2.0;
    if (tweak) tweak(opts);
    coordinator = std::make_unique<Coordinator>(opts, metrics, trace);
    sockPath = opts.socketPath;
    std::string err;
    started = coordinator->start(&err);
    EXPECT_TRUE(started) << err;
  }

  ~ClusterHarness() { coordinator->shutdown(); }

  net::Client connect() {
    net::Client c;
    std::string err;
    EXPECT_TRUE(c.connectUnix(sockPath, &err)) << err;
    return c;
  }

  std::vector<std::unique_ptr<ShardHarness>> shards;
  service::MetricsRegistry metrics;
  service::RunTrace trace;
  std::unique_ptr<Coordinator> coordinator;
  std::string sockPath;
  bool started = false;
};

// ---------------------------------------------------------------------------
// Single-obligation forwarding against a plain server
// ---------------------------------------------------------------------------

TEST(ClusterOnly, ServerChecksExactlyTheNamedObligation) {
  // The ids the coordinator would route: enumerate them the same way.
  service::VerificationJob job;
  job.name = "pair";
  job.smvText = kPairSmv;
  job.options.compose = true;
  const service::SnapshotResult snap = service::buildSnapshot(job, true);
  ASSERT_TRUE(snap.snapshot) << snap.error;
  const std::vector<service::ObligationRef> refs =
      service::enumerateObligations(*snap.snapshot, job.options);
  ASSERT_EQ(refs.size(), 6u);  // 3 component + 3 composed

  ShardHarness shard;
  net::Client client;
  std::string err, resp;
  ASSERT_TRUE(client.connectUnix(shard.sockPath, &err)) << err;
  ASSERT_TRUE(client.request(
      checkRequest("only-1", kPairSmv,
                   "\"compose\": true, \"only\": \"" + refs[1].id + "\""),
      &resp, &err))
      << err;
  // One obligation checked, and the flat fields describe it.
  std::uint64_t obligations = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("obligations", &obligations));
  EXPECT_EQ(obligations, 1u);
  std::string id, source, fingerprint;
  EXPECT_TRUE(test::parsedJson(resp).req("obligation_id", &id));
  EXPECT_EQ(id, refs[1].id);
  EXPECT_TRUE(test::parsedJson(resp).req("verdict_source", &source));
  EXPECT_EQ(source, "checked");
  EXPECT_TRUE(test::parsedJson(resp).req("fingerprint", &fingerprint));
  EXPECT_EQ(fingerprint, refs[1].fingerprint);

  // A second CHECK of the same obligation is a shard-local cache hit.
  ASSERT_TRUE(client.request(
      checkRequest("only-2", kPairSmv,
                   "\"compose\": true, \"only\": \"" + refs[1].id + "\""),
      &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("verdict_source", &source));
  EXPECT_EQ(source, "cache");

  // Naming a nonexistent obligation is an elaboration-level Error, not a
  // silent empty report.
  ASSERT_TRUE(client.request(
      checkRequest("only-3", kPairSmv,
                   "\"compose\": true, \"only\": \"ping/no_such_spec\""),
      &resp, &err))
      << err;
  std::string verdict;
  EXPECT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Error");
}

// ---------------------------------------------------------------------------
// Coordinator end-to-end
// ---------------------------------------------------------------------------

TEST(ClusterCoordinator, ScattersGathersAndServesWarmResubmitAllCache) {
  ClusterHarness cluster(3);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();

  std::string err, resp;
  ASSERT_TRUE(client.request(checkRequest("cold", kPairSmv), &resp, &err))
      << err;
  std::string verdict, report;
  ASSERT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Holds");
  std::uint64_t obligations = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("obligations", &obligations));
  EXPECT_EQ(obligations, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  // Every outcome is attributed to a shard, and the fleet as a whole did
  // the work (the routing itself is pinned by the rendezvous tests).
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"s"), 6u);
  EXPECT_EQ(countOccurrences(report, "\"verdict_source\": \"checked\""), 6u);

  // Warm resubmission: every obligation routes back to the shard that
  // decided it, so the whole job is served from shard caches.
  ASSERT_TRUE(client.request(checkRequest("warm", kPairSmv), &resp, &err))
      << err;
  ASSERT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Holds");
  std::uint64_t cacheHits = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("cache_hits", &cacheHits));
  EXPECT_EQ(cacheHits, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(countOccurrences(report, "\"verdict_source\": \"cache\""), 6u);
  EXPECT_EQ(countOccurrences(report, "\"verdict_source\": \"checked\""), 0u);
}

TEST(ClusterCoordinator, StatusAggregatesTheFleet) {
  ClusterHarness cluster(2);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp;
  ASSERT_TRUE(client.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  std::string role, version;
  EXPECT_TRUE(test::parsedJson(resp).req("role", &role));
  EXPECT_EQ(role, "coordinator");
  EXPECT_TRUE(test::parsedJson(resp).req("cmc_version", &version));
  EXPECT_EQ(version, util::versionString());
  std::uint64_t rev = 0, total = 0, up = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("protocol_rev", &rev));
  EXPECT_EQ(rev, net::kProtocolRevision);
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_TRUE(test::parsedJson(resp).req("shards_up", &up));
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(up, 2u);

  ASSERT_TRUE(client.request("{\"cmd\": \"STATS\"}", &resp, &err)) << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok);
  EXPECT_NE(resp.find("\"shards_stats\""), std::string::npos);
}

TEST(ClusterCoordinator, MarksDeadShardDownAndRedispatchesItsWork) {
  ClusterHarness cluster(3, /*failThreshold=*/1);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();

  // Kill one shard outright, then let one probe round notice.
  cluster.shards[1]->server->shutdown();
  cluster.coordinator->probeNow();
  EXPECT_EQ(cluster.coordinator->shardsUp(), 2u);

  // The job still completes with every obligation decided: the dead
  // shard's keys fall to the next shard in their rendezvous order.
  std::string err, resp;
  ASSERT_TRUE(client.request(checkRequest("after-loss", kPairSmv), &resp,
                             &err))
      << err;
  std::string verdict, report;
  ASSERT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Holds");
  std::uint64_t obligations = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("obligations", &obligations));
  EXPECT_EQ(obligations, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"s1\""), 0u);
  EXPECT_EQ(countOccurrences(report, "\"verdict\": \"Error\""), 0u);
  EXPECT_EQ(countOccurrences(report, "\"verdict\": \"Fails\""), 0u);

  std::uint64_t up = 0;
  ASSERT_TRUE(client.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_up", &up));
  EXPECT_EQ(up, 2u);
  EXPECT_NE(resp.find("\"state\": \"down\""), std::string::npos);
}

TEST(ClusterCoordinator, StatusAndStatsStayConsistentWithADownShard) {
  // Regression: STATUS/STATS used to read shard health field-by-field, so
  // a shard transitioning to marked-down mid-aggregation could make the
  // per-shard array and the derived shards_up count disagree — and STATS
  // still scattered to it, wedging the whole aggregate on its control
  // timeout.  Both now consume one roster snapshot per request.
  ClusterHarness cluster(3, /*failThreshold=*/1);
  ASSERT_TRUE(cluster.started);
  cluster.shards[2]->server->shutdown();
  cluster.coordinator->probeNow();
  ASSERT_EQ(cluster.coordinator->shardsUp(), 2u);

  net::Client client = cluster.connect();
  std::string err, resp;
  ASSERT_TRUE(client.request("{\"cmd\": \"STATUS\"}", &resp, &err)) << err;
  std::uint64_t up = 0, total = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_TRUE(test::parsedJson(resp).req("shards_up", &up));
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(up, 2u);
  // The derived count and the per-shard array come from the same snapshot,
  // and the down entry carries its mark-down reason.
  EXPECT_EQ(countOccurrences(resp, "\"state\": \"down\""), 1u);
  EXPECT_EQ(countOccurrences(resp, "\"state\": \"up\""), 2u);
  EXPECT_NE(resp.find("\"reason\": \""), std::string::npos);

  // STATS: the down shard is tagged and skipped (never scattered to, so
  // its timeout is never paid), and the fleet totals sum exactly the
  // responding shards.
  ASSERT_TRUE(client.request("{\"cmd\": \"STATS\"}", &resp, &err)) << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_TRUE(test::parsedJson(resp).req("shards_up", &up));
  std::uint64_t responding = 0;
  EXPECT_TRUE(
      test::parsedJson(resp).req("shards_responding", &responding));
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(up, 2u);
  EXPECT_EQ(responding, 2u);
  EXPECT_EQ(countOccurrences(resp, "\"state\": \"down\""), 1u);
  EXPECT_EQ(countOccurrences(resp, "\"responded\": true"), 2u);
  EXPECT_EQ(countOccurrences(resp, "\"responded\": false"), 1u);
}

TEST(ClusterCoordinator, RefusesToStartWithNoReachableShard) {
  CoordinatorOptions opts;
  opts.socketPath = freshSocketPath("lonely");
  ShardSpec spec;
  spec.name = "ghost";
  spec.socketPath = freshSocketPath("ghost-never-bound");
  opts.topology.shards.push_back(spec);
  opts.probeIntervalSeconds = 0.0;
  service::MetricsRegistry metrics;
  service::RunTrace trace;
  Coordinator coordinator(opts, metrics, trace);
  std::string err;
  EXPECT_FALSE(coordinator.start(&err));
  EXPECT_NE(err.find("STATUS"), std::string::npos) << err;
  coordinator.shutdown();
}

// ---------------------------------------------------------------------------
// Dynamic membership, shard lifecycle, replication, hedging
// ---------------------------------------------------------------------------

/// Per-obligation shard attribution parsed out of a job report: id → shard.
std::map<std::string, std::string> shardById(const std::string& report) {
  std::map<std::string, std::string> out;
  std::size_t at = report.find("\"id\": \"");
  while (at != std::string::npos) {
    const std::size_t idStart = at + 7;
    const std::size_t idEnd = report.find('"', idStart);
    const std::string id = report.substr(idStart, idEnd - idStart);
    const std::size_t next = report.find("\"id\": \"", idEnd);
    const std::size_t sh = report.find("\"shard\": \"", idEnd);
    if (sh != std::string::npos &&
        (next == std::string::npos || sh < next)) {
      const std::size_t shStart = sh + 10;
      const std::size_t shEnd = report.find('"', shStart);
      out[id] = report.substr(shStart, shEnd - shStart);
    }
    at = next;
  }
  return out;
}

/// The owner map the coordinator must produce for kPairSmv over `names`:
/// enumerate the obligations the same way and take each fingerprint's
/// rank-0 rendezvous shard.
std::map<std::string, std::string> expectedOwners(
    const std::vector<std::string>& names) {
  service::VerificationJob job;
  job.name = "pair";
  job.smvText = kPairSmv;
  job.options.compose = true;
  const service::SnapshotResult snap = service::buildSnapshot(job, true);
  EXPECT_TRUE(snap.snapshot) << snap.error;
  std::map<std::string, std::string> owners;
  for (const service::ObligationRef& ref :
       service::enumerateObligations(*snap.snapshot, job.options)) {
    owners[ref.id] = names[rendezvousOrder(names, ref.fingerprint).front()];
  }
  return owners;
}

std::string joinRequest(const std::string& name, const std::string& socket) {
  service::JsonObject req;
  req.put("cmd", "JOIN").put("shard", name).put("socket", socket);
  return req.str();
}

TEST(ClusterAdmin, TopologyListsLifecycleStateAndRefusesMisroutedCommands) {
  ClusterHarness cluster(2);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp;
  ASSERT_TRUE(client.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err)) << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok);
  std::uint64_t total = 0, up = 0, rev = 0, replication = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_TRUE(test::parsedJson(resp).req("shards_up", &up));
  EXPECT_TRUE(test::parsedJson(resp).req("protocol_rev", &rev));
  EXPECT_TRUE(test::parsedJson(resp).req("replication", &replication));
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(up, 2u);
  EXPECT_EQ(rev, net::kProtocolRevision);
  EXPECT_EQ(replication, 2u);
  EXPECT_EQ(countOccurrences(resp, "\"state\": \"up\""), 2u);
  EXPECT_NE(resp.find("\"probation_required\""), std::string::npos);
  EXPECT_NE(resp.find("\"downs\""), std::string::npos);

  // CACHE_PUT is shard-side only; the coordinator refuses it.
  ASSERT_TRUE(client.request("{\"cmd\": \"CACHE_PUT\", \"fingerprint\": "
                             "\"deadbeef\", \"verdict\": \"Holds\"}",
                             &resp, &err))
      << err;
  std::string code;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);

  // And the admin commands are coordinator-side only; a shard refuses.
  net::Client shardClient;
  ASSERT_TRUE(shardClient.connectUnix(cluster.shards[0]->sockPath, &err))
      << err;
  ASSERT_TRUE(shardClient.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);
  EXPECT_NE(resp.find("coordinator"), std::string::npos);
}

TEST(ClusterAdmin, JoinAddsShardAndRoutesByRendezvous) {
  ClusterHarness cluster(2);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp;

  auto extra = std::make_unique<ShardHarness>();
  ASSERT_TRUE(extra->started);
  ASSERT_TRUE(
      client.request(joinRequest("s2", extra->sockPath), &resp, &err))
      << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok) << resp;
  std::string state;
  EXPECT_TRUE(test::parsedJson(resp).req("state", &state));
  EXPECT_EQ(state, "up");  // the join handshake doubles as the first probe
  std::uint64_t total = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_EQ(total, 3u);

  // Joining a name that is already serving is refused...
  ASSERT_TRUE(
      client.request(joinRequest("s2", extra->sockPath), &resp, &err))
      << err;
  std::string code;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);
  EXPECT_NE(resp.find("already"), std::string::npos);

  // ...and a join whose endpoint never answers fails the handshake
  // without touching the roster.
  ASSERT_TRUE(client.request(
      joinRequest("ghost", freshSocketPath("ghost-join")), &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);
  EXPECT_NE(resp.find("handshake"), std::string::npos);
  ASSERT_TRUE(client.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err)) << err;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_EQ(total, 3u);

  // Work now routes over the three-shard ring exactly as rendezvous
  // hashing dictates.
  ASSERT_TRUE(client.request(checkRequest("joined", kPairSmv), &resp, &err))
      << err;
  std::string report;
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(shardById(report), expectedOwners({"s0", "s1", "s2"}));
}

TEST(ClusterAdmin, LeaveRefusesTheLastShardAndUnknownNames) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp, code;
  ASSERT_TRUE(client.request("{\"cmd\": \"LEAVE\", \"shard\": \"nobody\"}",
                             &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kNotFound);
  ASSERT_TRUE(client.request("{\"cmd\": \"LEAVE\", \"shard\": \"s0\"}",
                             &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);
  EXPECT_NE(resp.find("last shard"), std::string::npos);
}

TEST(ClusterAdmin, LeaveAndRejoinRestoreTheExactRouting) {
  ClusterHarness cluster(3);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp, report;

  ASSERT_TRUE(client.request(checkRequest("cold", kPairSmv), &resp, &err))
      << err;
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  const std::map<std::string, std::string> before = shardById(report);
  ASSERT_EQ(before.size(), 6u);
  // Replication ran: every decided obligation was written through to its
  // next rendezvous shard.
  EXPECT_EQ(cluster.metrics.counterValue("cluster_replica_puts"), 6u);

  ASSERT_TRUE(client.request("{\"cmd\": \"LEAVE\", \"shard\": \"s1\"}",
                             &resp, &err))
      << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok) << resp;
  std::uint64_t total = 0;
  EXPECT_TRUE(test::parsedJson(resp).req("shards_total", &total));
  EXPECT_EQ(total, 2u);

  // Minimal re-keying: only s1's keys move, and — thanks to the replica
  // tier — even those are served from the successor's cache, so the whole
  // warm job is cache hits.
  ASSERT_TRUE(client.request(checkRequest("warm", kPairSmv), &resp, &err))
      << err;
  std::uint64_t cacheHits = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("cache_hits", &cacheHits));
  EXPECT_EQ(cacheHits, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  const std::map<std::string, std::string> during = shardById(report);
  for (const auto& [id, shard] : before) {
    if (shard == "s1") {
      EXPECT_NE(during.at(id), "s1") << id;
    } else {
      EXPECT_EQ(during.at(id), shard) << id;
    }
  }

  // Rejoin: rendezvous hashing is pure in the shard name, so the original
  // owner map comes back exactly.
  ASSERT_TRUE(client.request(
      joinRequest("s1", cluster.shards[1]->sockPath), &resp, &err))
      << err;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok) << resp;
  ASSERT_TRUE(client.request(checkRequest("rejoined", kPairSmv), &resp,
                             &err))
      << err;
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(shardById(report), before);
}

TEST(ClusterLifecycle, FlappingShardServesProbationWithExponentialHoldDown) {
  ClusterHarness cluster(2, /*failThreshold=*/1);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp;

  // First flap: down, then one probation pass readmits.
  cluster.shards[1]->server->shutdown();
  cluster.coordinator->probeNow();
  EXPECT_EQ(cluster.coordinator->shardsUp(), 1u);
  ASSERT_TRUE(client.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"state\": \"down\""), std::string::npos);
  EXPECT_NE(resp.find("\"downs\": 1"), std::string::npos);

  cluster.shards[1]->restart();
  cluster.coordinator->probeNow();  // down → probation
  EXPECT_EQ(cluster.coordinator->shardsUp(), 1u);
  ASSERT_TRUE(client.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"state\": \"probation\""), std::string::npos);

  // A shard in probation takes no traffic, and its keys are dispatched
  // exactly once to the survivor — never to both.
  std::string report;
  ASSERT_TRUE(client.request(checkRequest("held", kPairSmv), &resp, &err))
      << err;
  std::uint64_t obligations = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("obligations", &obligations));
  EXPECT_EQ(obligations, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"s0\""), 6u);
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"s1\""), 0u);
  EXPECT_EQ(countOccurrences(report, "\"id\": \""), 6u);

  cluster.coordinator->probeNow();  // probation pass 1 of 1 → up
  EXPECT_EQ(cluster.coordinator->shardsUp(), 2u);

  // Second flap: the hold-down doubles — two probation passes required.
  cluster.shards[1]->server->shutdown();
  cluster.coordinator->probeNow();
  ASSERT_TRUE(client.request("{\"cmd\": \"TOPOLOGY\"}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"downs\": 2"), std::string::npos);
  EXPECT_NE(resp.find("\"probation_required\": 2"), std::string::npos);

  cluster.shards[1]->restart();
  cluster.coordinator->probeNow();  // down → probation (0 passes)
  EXPECT_EQ(cluster.coordinator->shardsUp(), 1u);
  cluster.coordinator->probeNow();  // pass 1 of 2: still held out
  EXPECT_EQ(cluster.coordinator->shardsUp(), 1u);
  cluster.coordinator->probeNow();  // pass 2 of 2 → up
  EXPECT_EQ(cluster.coordinator->shardsUp(), 2u);
}

TEST(ClusterReplication, ReplicaServesADeadShardsVerdictsFromCache) {
  ClusterHarness cluster(3);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  std::string err, resp, report;

  ASSERT_TRUE(client.request(checkRequest("cold", kPairSmv), &resp, &err))
      << err;
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  const std::map<std::string, std::string> owners = shardById(report);
  ASSERT_EQ(owners.size(), 6u);
  // RF=2 with everyone up: exactly one replica write per decided
  // obligation, all successful.
  EXPECT_EQ(cluster.metrics.counterValue("cluster_replica_puts"), 6u);
  EXPECT_EQ(cluster.metrics.counterValue("cluster_replica_put_failures"),
            0u);

  // Kill the owner of the first obligation and let probes mark it down.
  const std::string victim = owners.begin()->second;
  const int victimIndex = victim[1] - '0';
  cluster.shards[victimIndex]->server->shutdown();
  cluster.coordinator->probeNow();
  cluster.coordinator->probeNow();  // failThreshold = 2
  EXPECT_EQ(cluster.coordinator->shardsUp(), 2u);

  // The warm job is still all cache hits: the victim's keys fall to their
  // rendezvous successor, which holds the replicated verdicts.
  ASSERT_TRUE(client.request(checkRequest("warm", kPairSmv), &resp, &err))
      << err;
  std::string verdict;
  ASSERT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Holds");
  std::uint64_t cacheHits = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("cache_hits", &cacheHits));
  EXPECT_EQ(cacheHits, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(countOccurrences(report, "\"verdict_source\": \"checked\""), 0u);
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"" + victim + "\""), 0u);
}

TEST(ClusterCachePut, ShardStoresReplicasAndServesThemAsCacheHits) {
  service::VerificationJob job;
  job.name = "pair";
  job.smvText = kPairSmv;
  job.options.compose = true;
  const service::SnapshotResult snap = service::buildSnapshot(job, true);
  ASSERT_TRUE(snap.snapshot) << snap.error;
  const std::vector<service::ObligationRef> refs =
      service::enumerateObligations(*snap.snapshot, job.options);
  ASSERT_FALSE(refs.empty());

  ShardHarness shard;
  ASSERT_TRUE(shard.started);
  net::Client client;
  std::string err, resp;
  ASSERT_TRUE(client.connectUnix(shard.sockPath, &err)) << err;

  service::JsonObject put;
  put.put("cmd", "CACHE_PUT")
      .put("fingerprint", refs[0].fingerprint)
      .put("verdict", "Holds")
      .put("engine", "partitioned");
  ASSERT_TRUE(client.request(put.str(), &resp, &err)) << err;
  bool ok = false, inserted = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok) << resp;
  EXPECT_TRUE(test::parsedJson(resp).req("inserted", &inserted));
  EXPECT_TRUE(inserted);

  // Idempotent: a duplicate put is acknowledged, not double-stored.
  ASSERT_TRUE(client.request(put.str(), &resp, &err)) << err;
  EXPECT_TRUE(test::parsedJson(resp).req("inserted", &inserted));
  EXPECT_FALSE(inserted);

  // The replicated verdict serves a later CHECK without re-checking.
  ASSERT_TRUE(client.request(
      checkRequest("replica-hit", kPairSmv,
                   "\"compose\": true, \"only\": \"" + refs[0].id + "\""),
      &resp, &err))
      << err;
  std::string source;
  EXPECT_TRUE(test::parsedJson(resp).req("verdict_source", &source));
  EXPECT_EQ(source, "cache");

  // Only terminal verdicts replicate; Error is refused at the parse layer.
  ASSERT_TRUE(client.request("{\"cmd\": \"CACHE_PUT\", \"fingerprint\": "
                             "\"deadbeef\", \"verdict\": \"Error\"}",
                             &resp, &err))
      << err;
  std::string code;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kBadRequest);
}

TEST(ClusterHedge, HedgesAStragglerAndFirstSoundVerdictWins) {
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  ClusterHarness cluster(3, /*failThreshold=*/2,
                         [](CoordinatorOptions& opts) {
                           opts.hedgeDelaySeconds = 0.05;
                         });
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  // Every dispatch stalls well past the hedge threshold, so every
  // obligation grows a second lane.
  util::Failpoint::configure("scheduler.dispatch=delay(300)");
  std::string err, resp;
  const bool sent =
      client.request(checkRequest("straggler", kPairSmv), &resp, &err);
  util::Failpoint::disarmAll();
  ASSERT_TRUE(sent) << err;

  std::string verdict, report;
  ASSERT_TRUE(test::parsedJson(resp).req("verdict", &verdict));
  EXPECT_EQ(verdict, "Holds");
  std::uint64_t obligations = 0;
  ASSERT_TRUE(test::parsedJson(resp).req("obligations", &obligations));
  EXPECT_EQ(obligations, 6u);
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  // Exactly one outcome per obligation even with two lanes racing, and the
  // report says which ones were hedged.
  EXPECT_EQ(countOccurrences(report, "\"id\": \""), 6u);
  EXPECT_GE(countOccurrences(report, "\"hedged\": true"), 1u);
  EXPECT_GE(cluster.metrics.counterValue("cluster_hedges"), 1u);
  EXPECT_EQ(countOccurrences(report, "\"verdict\": \"Error\""), 0u);
}

TEST(ClusterAdmin, JoinMidBatchOnlyAffectsLaterJobs) {
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  ClusterHarness cluster(2);
  ASSERT_TRUE(cluster.started);

  // Slow the batch down so the JOIN lands squarely in the middle of it.
  util::Failpoint::configure("scheduler.dispatch=delay(200)");
  std::string inflightResp, inflightErr;
  bool inflightOk = false;
  std::thread checker([&] {
    net::Client c = cluster.connect();
    inflightOk = c.request(checkRequest("inflight", kPairSmv),
                           &inflightResp, &inflightErr);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto late = std::make_unique<ShardHarness>();
  ASSERT_TRUE(late->started);
  net::Client admin = cluster.connect();
  std::string err, resp;
  ASSERT_TRUE(
      admin.request(joinRequest("late", late->sockPath), &resp, &err))
      << err;
  bool ok = false;
  EXPECT_TRUE(test::parsedJson(resp).req("ok", &ok));
  EXPECT_TRUE(ok) << resp;

  checker.join();
  util::Failpoint::disarmAll();
  ASSERT_TRUE(inflightOk) << inflightErr;

  // The in-flight job took its roster snapshot before the join, so none
  // of its obligations reached the new shard.
  std::string report;
  ASSERT_TRUE(
      test::parsedJson(inflightResp).req("report", &report));
  EXPECT_EQ(countOccurrences(report, "\"id\": \""), 6u);
  EXPECT_EQ(countOccurrences(report, "\"shard\": \"late\""), 0u);

  // The next job routes over the widened ring.
  ASSERT_TRUE(
      admin.request(checkRequest("after", kPairSmv), &resp, &err))
      << err;
  ASSERT_TRUE(test::parsedJson(resp).req("report", &report));
  EXPECT_EQ(shardById(report), expectedOwners({"s0", "s1", "late"}));
}

TEST(ClusterCoordinator, DrainRefusesNewChecks) {
  ClusterHarness cluster(2);
  ASSERT_TRUE(cluster.started);
  net::Client client = cluster.connect();
  cluster.coordinator->requestDrain();
  std::string err, resp;
  ASSERT_TRUE(client.request(checkRequest("late", kPairSmv), &resp, &err))
      << err;
  std::string code;
  EXPECT_TRUE(test::parsedJson(resp).req("code", &code));
  EXPECT_EQ(code, net::kDraining);
}

// ---------------------------------------------------------------------------
// The coordinator's front end: a shard's framing and listener checks,
// through the same helpers
// ---------------------------------------------------------------------------

TEST(ClusterCoordinator, MalformedRequestsGetBadRequestAndConnectionSurvives) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  test::malformedRequestsGetBadRequest(cluster.sockPath, cluster.metrics);
}

TEST(ClusterCoordinator, OversizedLineIsRejectedAndConnectionClosed) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  test::oversizedLineClosesTheConnection(cluster.sockPath, cluster.metrics);
}

TEST(ClusterCoordinator, HalfClosedConnectionUnwindsCleanly) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  test::halfClosedConnectionUnwinds(cluster.sockPath, cluster.metrics);
}

TEST(ClusterCoordinator, ClosedConnectionThreadsAreJoined) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  test::sequentialConnectionsAreJoined(
      cluster.sockPath, cluster.metrics,
      [&cluster] { return cluster.coordinator->connectionThreads(); });
}

TEST(ClusterCoordinator, SecondCoordinatorOnALiveSocketFailsAndTheFirstServes) {
  ClusterHarness cluster(1);
  ASSERT_TRUE(cluster.started);
  CoordinatorOptions opts;
  opts.socketPath = cluster.sockPath;
  ShardSpec spec;
  spec.name = "s0";
  spec.socketPath = cluster.shards[0]->sockPath;
  opts.topology.shards.push_back(spec);
  opts.probeIntervalSeconds = 0.0;
  service::MetricsRegistry metrics;
  service::RunTrace trace;
  {
    Coordinator second(opts, metrics, trace);
    std::string err;
    EXPECT_FALSE(second.start(&err));
    EXPECT_NE(err.find("already listening"), std::string::npos) << err;
  }
  // The refused coordinator never owned the socket file, so its shutdown
  // left the first coordinator's listener in place.
  test::answersStatus(cluster.sockPath);
}

TEST(ClusterCoordinator, StaleSocketFileIsTakenOver) {
  const std::string path = freshSocketPath("stale");
  test::leaveStaleSocketFile(path);
  ClusterHarness cluster(1, /*failThreshold=*/2,
                         [&path](CoordinatorOptions& opts) {
                           opts.socketPath = path;
                         });
  ASSERT_TRUE(cluster.started);
  test::answersStatus(path);
}

// ---------------------------------------------------------------------------
// Connection-level failpoints, on both daemons
// ---------------------------------------------------------------------------

/// With `site` armed on a started daemon, one connection is dropped before
/// it is answered and counted as `counter` in the daemon's registry; once
/// the site is disarmed, the next connection is served.
void injectedFailureDropsTheConnection(const std::string& socketPath,
                                       const service::MetricsRegistry& metrics,
                                       const std::string& site,
                                       const char* counter) {
  SCOPED_TRACE(site);
  util::Failpoint::configure(site + "=error");
  net::Client client;
  std::string resp, err;
  // The listen backlog takes the connection either way; the request is
  // never answered.
  const bool connected = client.connectUnix(socketPath, &err);
  const bool answered =
      connected && client.request("{\"cmd\": \"STATUS\"}", &resp, &err);
  util::Failpoint::disarmAll();
  EXPECT_TRUE(connected) << err;
  EXPECT_FALSE(answered) << resp;
  EXPECT_EQ(metrics.counterValue(counter), 1u);
  test::answersStatus(socketPath);
}

TEST(ClusterFailpoints, NetSitesDropOneConnectionOnEitherDaemon) {
  if (!util::Failpoint::compiledIn()) {
    GTEST_SKIP() << "needs -DCMC_FAILPOINTS=ON";
  }
  {
    SCOPED_TRACE("cmc serve");
    ShardHarness shard;
    ASSERT_TRUE(shard.started);
    injectedFailureDropsTheConnection(shard.sockPath, shard.metrics,
                                      "net.accept", "net_accept_failures");
    injectedFailureDropsTheConnection(shard.sockPath, shard.metrics,
                                      "net.read", "net_read_failures");
  }
  {
    SCOPED_TRACE("cmc coordinator");
    ClusterHarness cluster(1);
    ASSERT_TRUE(cluster.started);
    injectedFailureDropsTheConnection(cluster.sockPath, cluster.metrics,
                                      "net.accept", "net_accept_failures");
    injectedFailureDropsTheConnection(cluster.sockPath, cluster.metrics,
                                      "net.read", "net_read_failures");
  }
}

}  // namespace
}  // namespace cmc::cluster
