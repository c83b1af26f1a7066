// Tests for the strict JSON reader and writer (util/json.hpp) and for the
// wire and disk readers built on it: the reader's RFC 8259 rules and typed
// getters, \uXXXX decoding, a writer round trip over every byte value, a
// malformed-line corpus fed to every reader, and literal lines written by
// the build before the reader, which must still read back field for field.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/topology.hpp"
#include "net/protocol.hpp"
#include "service/journal.hpp"
#include "service/obligation_cache.hpp"
#include "service/scheduler.hpp"
#include "test_util.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "util/version.hpp"

namespace cmc {
namespace {

namespace fs = std::filesystem;
using util::JsonField;
using util::JsonObject;
using util::JsonValue;

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

bool parses(std::string_view text, std::string* error = nullptr) {
  JsonValue v;
  return util::parseJson(text, &v, error);
}

fs::path scratchDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       (name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<std::string> readLines(const fs::path& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

TEST(JsonReader, AcceptsFreeWhitespaceNestingAndUnknownMembers) {
  const JsonValue v = test::parsedJson(
      " \t\r\n{ \"a\" :\t1 ,\"b\":{\"c\":[1,{\"d\":null},[]],\"e\":true}\n,"
      "\"f\":\"x\"} \r\n");
  ASSERT_TRUE(v.isObject());
  std::uint64_t a = 0;
  EXPECT_TRUE(v.req("a", &a));
  EXPECT_EQ(a, 1u);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  bool e = false;
  EXPECT_TRUE(b->req("e", &e));
  EXPECT_TRUE(e);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_EQ(b->find("c")->type(), JsonValue::Type::Array);
  EXPECT_EQ(v.find("nope"), nullptr);
  for (const char* text : {"0", "-0.5e-3", "1E+2", "\"s\"", "true", "false",
                           "null", "[]", "[[1],[2]]", "{}", "{\"\": 0}"}) {
    EXPECT_TRUE(parses(text)) << text;
  }
}

TEST(JsonReader, RejectsWhatTheRfcRejectsAndNamesTheByte) {
  std::string err;
  EXPECT_FALSE(parses("{\"cmd\": \"STATUS\", garbage}", &err));
  EXPECT_NE(err.find("at byte 18"), std::string::npos) << err;
  EXPECT_FALSE(parses("{\"cmd\": \"STATUS\"} {\"x\": 1}", &err));
  EXPECT_NE(err.find("at byte 18"), std::string::npos) << err;
  for (const char* bad :
       {"", " ", "{", "}", "{\"a\"}", "{\"a\":}", "{,}", "{\"a\":1,}", "[1,]",
        "[1 2]", "01", "-01", "1.", ".5", "1e", "1e+", "+1", "--1", "-",
        "tru", "nul", "True", "'a'", "{'a': 1}", "{a: 1}", "\"\\u00G0\"",
        "\"\\U0041\"", "Infinity", "[1]]", "{\"a\":1}}", "\"a\" \"b\""}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
  // Nesting: 64 levels pass, the 65th fails.
  EXPECT_TRUE(parses(std::string(64, '[') + std::string(64, ']')));
  EXPECT_FALSE(parses(std::string(65, '[') + std::string(65, ']'), &err));
  EXPECT_NE(err.find("nesting deeper than 64"), std::string::npos) << err;
  EXPECT_FALSE(parses(std::string(32, '[') + "{\"a\":" +
                      std::string(32, '[') + std::string(32, ']') + "}" +
                      std::string(32, ']')));
  // Duplicate member names, in small and large objects.
  EXPECT_FALSE(parses("{\"k\": 1, \"k\": \"1\"}", &err));
  EXPECT_NE(err.find("duplicate member name \"k\""), std::string::npos)
      << err;
  std::string big = "{";
  for (int i = 0; i < 5000; ++i) big += "\"k" + std::to_string(i) + "\": 0, ";
  EXPECT_TRUE(parses(big + "\"last\": 0}"));
  EXPECT_FALSE(parses(big + "\"k4999\": 0}"));
  // Duplicates are per object: the same name in two objects is fine.
  EXPECT_TRUE(parses("{\"a\": {\"k\": 1}, \"b\": {\"k\": 1}}"));
}

TEST(JsonReader, TypedGettersTellAbsentFromWrongType) {
  const JsonValue v = test::parsedJson(
      "{\"s\": \"x\", \"n\": 42, \"zero\": 0, \"max\": 18446744073709551615, "
      "\"over\": 18446744073709551616, \"neg\": -1, \"exp\": 1e3, "
      "\"frac\": 1.5, \"t\": true, \"nul\": null, \"arr\": [1], "
      "\"obj\": {}}");
  std::string s;
  EXPECT_EQ(v.get("s", &s), JsonField::Ok);
  EXPECT_EQ(s, "x");
  EXPECT_EQ(v.get("missing", &s), JsonField::Absent);
  for (const char* key : {"n", "t", "nul", "arr", "obj"}) {
    EXPECT_EQ(v.get(key, &s), JsonField::WrongType) << key;
  }
  std::uint64_t n = 0;
  EXPECT_EQ(v.get("n", &n), JsonField::Ok);
  EXPECT_EQ(n, 42u);
  EXPECT_EQ(v.get("max", &n), JsonField::Ok);
  EXPECT_EQ(n, kMaxU64);
  EXPECT_EQ(v.get("zero", &n), JsonField::Ok);
  EXPECT_EQ(n, 0u);
  // The integer getter takes 0|[1-9][0-9]* up to UINT64_MAX, nothing else.
  for (const char* key : {"over", "neg", "exp", "frac", "s", "t", "nul"}) {
    n = 7;
    EXPECT_EQ(v.get(key, &n), JsonField::WrongType) << key;
    EXPECT_EQ(n, 7u) << key;
  }
  // The double getter takes any JSON number.
  double d = 0.0;
  EXPECT_EQ(v.get("neg", &d), JsonField::Ok);
  EXPECT_EQ(d, -1.0);
  EXPECT_EQ(v.get("exp", &d), JsonField::Ok);
  EXPECT_EQ(d, 1000.0);
  EXPECT_EQ(v.get("frac", &d), JsonField::Ok);
  EXPECT_EQ(d, 1.5);
  EXPECT_EQ(v.get("over", &d), JsonField::Ok);
  EXPECT_EQ(d, 18446744073709551616.0);
  EXPECT_EQ(v.get("s", &d), JsonField::WrongType);
  bool b = false;
  EXPECT_EQ(v.get("t", &b), JsonField::Ok);
  EXPECT_TRUE(b);
  EXPECT_EQ(v.get("zero", &b), JsonField::WrongType);
  EXPECT_EQ(v.get("nul", &b), JsonField::WrongType);
  // req: present and well-typed.  opt: absent, or well-typed.
  EXPECT_FALSE(v.req("missing", &s));
  EXPECT_TRUE(v.opt("missing", &s));
  EXPECT_FALSE(v.opt("n", &s));
  // A value that is not an object has no members.
  EXPECT_EQ(test::parsedJson("[1]").get("x", &n), JsonField::Absent);
}

TEST(JsonReader, EscapesDecodeToUtf8) {
  const JsonValue v = test::parsedJson(
      "{\"id\": \"caf\\u00e9\\u20AC\\ud83d\\ude00\", "
      "\"esc\": \"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0000\\u001f\", "
      "\"raw\": \"caf\xc3\xa9\", \"bytes\": \"\xff\xfe\x80\"}");
  std::string s;
  ASSERT_TRUE(v.req("id", &s));
  EXPECT_EQ(s, "caf\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  ASSERT_TRUE(v.req("esc", &s));
  EXPECT_EQ(s, std::string("\"\\/\b\f\n\r\t\0\x1f", 10));
  // Raw bytes >= 0x80 pass through unvalidated, UTF-8 or not.
  ASSERT_TRUE(v.req("raw", &s));
  EXPECT_EQ(s, "caf\xc3\xa9");
  ASSERT_TRUE(v.req("bytes", &s));
  EXPECT_EQ(s, "\xff\xfe\x80");
  for (const char* bad : {"\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"",
                          "\"\\ud83d\\u0041\"", "\"\\ud83d\\ud83d\"",
                          "\"\\ud83d\\", "\"\\u12\""}) {
    std::string err;
    EXPECT_FALSE(parses(bad, &err)) << bad;
    EXPECT_NE(err.find("at byte 1"), std::string::npos) << err;
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, WhatJsonObjectWritesReadsBack) {
  std::vector<std::string> strings;
  std::string everyByte;
  for (int c = 0; c < 256; ++c) {
    strings.emplace_back(1, static_cast<char>(c));
    everyByte.push_back(static_cast<char>(c));
  }
  strings.push_back(everyByte);
  strings.emplace_back();
  std::mt19937 rng(20261017);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 80);
  for (int i = 0; i < 300; ++i) {
    std::string s(static_cast<std::size_t>(length(rng)), '\0');
    for (char& c : s) c = static_cast<char>(byte(rng));
    strings.push_back(std::move(s));
  }
  // Each string is both a value and, made unique by a suffix, a key.
  JsonObject obj;
  for (std::size_t i = 0; i < strings.size(); ++i) {
    obj.put(strings[i] + "\x1f" + std::to_string(i), strings[i]);
  }
  obj.putUint("u", kMaxU64)
      .putDouble("d", -1.25e-7)
      .putBool("b", true)
      .putRaw("nested", JsonObject().put("k", everyByte).str());
  const JsonValue v = test::parsedJson(obj.str());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    std::string back;
    ASSERT_TRUE(v.req(strings[i] + "\x1f" + std::to_string(i), &back)) << i;
    EXPECT_EQ(back, strings[i]) << i;
  }
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string nested;
  EXPECT_TRUE(v.req("u", &u));
  EXPECT_EQ(u, kMaxU64);
  EXPECT_TRUE(v.req("d", &d));
  EXPECT_EQ(d, -1.25e-7);
  EXPECT_TRUE(v.req("b", &b));
  ASSERT_NE(v.find("nested"), nullptr);
  EXPECT_TRUE(v.find("nested")->req("k", &nested));
  EXPECT_EQ(nested, everyByte);
}

// ---------------------------------------------------------------------------
// Malformed-line corpus: every wire and disk reader rejects every case
// ---------------------------------------------------------------------------

TEST(MalformedLines, EveryReaderRejectsTheCorpus) {
  WallTimer timer;
  // The depth bomb is ~8 MiB and still fits one protocol line.
  const std::vector<std::string> values =
      test::malformedValues(net::kMaxLineBytes - 128);

  for (const std::string& v : values) {
    const std::string shown = v.substr(0, 40);
    net::Request req;
    std::string err;
    EXPECT_FALSE(net::parseRequest(
        "{\"cmd\": \"CHECK\", \"model\": \"m.smv\", \"node_budget\": " + v +
            "}",
        service::JobOptions{}, &req, &err))
        << shown;
    EXPECT_FALSE(err.empty()) << shown;
    EXPECT_FALSE(net::parseRequest("{\"cmd\": \"STATUS\", \"id\": " + v + "}",
                                   service::JobOptions{}, &req, &err))
        << shown;

    cluster::Topology topo;
    EXPECT_FALSE(cluster::parseTopology(
        "{\"name\": \"s1\", \"tcp\": " + v + "}\n", &topo, &err))
        << shown;
    EXPECT_NE(err.find("topology line 1"), std::string::npos) << err;

    std::string why;
    EXPECT_FALSE(cluster::shardCompatible(
        std::string("{\"ok\": true, \"cmc_version\": \"") +
            util::versionString() +
            "\", \"protocol_rev\": " + v + "}",
        &why))
        << shown;
    EXPECT_FALSE(why.empty()) << shown;

    service::ObligationRef ref;
    ref.id = "m/m.SPEC1";
    const service::ObligationOutcome out = cluster::outcomeFromResponse(
        "{\"ok\": true, \"cmd\": \"CHECK\", \"verdict\": " + v + "}", ref);
    EXPECT_EQ(out.verdict, service::Verdict::Error) << shown;
    EXPECT_FALSE(out.error.empty()) << shown;
    EXPECT_EQ(out.id, "m/m.SPEC1");
  }

  // Journal: checksummed lines reach the reader, which must refuse them.
  const fs::path dir = scratchDir("cmc_malformed_corpus");
  const fs::path journal = dir / "run.journal.jsonl";
  {
    std::ofstream out(journal, std::ios::binary);
    out << service::frameLine("{\"format\": \"cmc-journal-v1\"}") << "\n";
    for (const std::string& v : values) {
      out << service::frameLine("{\"id\": " + v +
                                ", \"verdict\": \"Holds\", \"seconds\": 1}")
          << "\n";
    }
  }
  const service::JournalReplay replay = service::loadJournal(journal.string());
  EXPECT_EQ(replay.lines, 0u);
  EXPECT_EQ(replay.corrupt, values.size());

  // Cache store: framed lines and legacy bare lines alike.
  const fs::path cacheDir = dir / "cache";
  fs::create_directories(cacheDir);
  {
    std::ofstream out(cacheDir / "obligations.jsonl", std::ios::binary);
    out << service::frameLine("{\"format\": \"cmc-obligation-cache-v2\"}")
        << "\n";
    for (const std::string& v : values) {
      const std::string payload =
          "{\"fp\": " + v +
          ", \"verdict\": \"Holds\", \"rule\": \"direct\", \"engine\": "
          "\"partitioned\", \"seconds\": 1}";
      out << service::frameLine(payload) << "\n" << payload << "\n";
    }
  }
  {
    service::ObligationCache::Options opts;
    opts.dir = cacheDir.string();
    service::ObligationCache cache(opts);
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_EQ(cache.stats().corruptLines, 2 * values.size());
  }
  service::CompactionResult result;
  std::string err;
  ASSERT_TRUE(
      service::compactObligationStore(cacheDir.string(), &result, &err))
      << err;
  EXPECT_EQ(result.corrupt, 2 * values.size());
  EXPECT_EQ(result.entriesAfter, 0u);
  fs::remove_all(dir);
  std::cout << "malformed corpus: " << values.size() << " cases, "
            << timer.seconds() << " s\n";
}

// ---------------------------------------------------------------------------
// Compatibility with lines written before the reader
// ---------------------------------------------------------------------------

/// tests/data/parent_lines.tsv by kind.
std::map<std::string, std::string> parentLines() {
  std::map<std::string, std::string> lines;
  std::ifstream in(std::string(CMC_TEST_DATA_DIR) + "/parent_lines.tsv");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    lines[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return lines;
}

TEST(ParentLines, JournalEntriesReadBackFieldForField) {
  auto lines = parentLines();
  ASSERT_EQ(lines.size(), 24u);
  const fs::path dir = scratchDir("cmc_parent_journal");
  {
    std::ofstream out(dir / "old.jsonl");
    out << lines["journal_header"] << "\n"
        << lines["journal_entry"] << "\n"
        << lines["journal_entry_cex_proof"] << "\n";
  }
  const service::JournalReplay replay =
      service::loadJournal((dir / "old.jsonl").string());
  EXPECT_EQ(replay.corrupt, 0u);
  ASSERT_EQ(replay.decided.size(), 2u);
  const service::JournalEntry* e =
      replay.find("fp:8b28c828a17bfa9a7b50d9200fa205f1");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, "composed/afs1client.SPEC1");
  EXPECT_EQ(e->verdict, service::Verdict::Fails);
  EXPECT_EQ(e->rule, "universal (Rule 2) + global fallback");
  EXPECT_EQ(e->engine, "monolithic");
  EXPECT_EQ(e->seconds, 0.00034967);
  EXPECT_EQ(e->counterexample.rfind("violating state: ", 0), 0u);
  EXPECT_EQ(test::parsedJson("{\"proof\": " + e->proofJson + "}").type(),
            JsonValue::Type::Object);
  // Writing the entries again reproduces the lines byte for byte.
  service::RunJournal journal;
  std::string err;
  ASSERT_TRUE(journal.open((dir / "new.jsonl").string(), &err)) << err;
  journal.record(*replay.find("fp:622214d6d8565992de30a09084933498"));
  journal.record(*e);
  const std::vector<std::string> written = readLines(dir / "new.jsonl");
  ASSERT_EQ(written.size(), 3u);
  EXPECT_EQ(written[1], lines["journal_entry"]);
  EXPECT_EQ(written[2], lines["journal_entry_cex_proof"]);
  fs::remove_all(dir);
}

TEST(ParentLines, StoreLinesReadBackFieldForField) {
  auto lines = parentLines();
  const fs::path dir = scratchDir("cmc_parent_store");
  fs::create_directories(dir / "old");
  {
    std::ofstream out(dir / "old" / "obligations.jsonl");
    out << lines["store_header"] << "\n"
        << lines["store_line_proof"] << "\n"
        << lines["store_line_cex_proof"] << "\n"
        << lines["store_line_legacy"] << "\n";
  }
  service::ObligationCache::Options oldOpts;
  oldOpts.dir = (dir / "old").string();
  service::ObligationCache old(oldOpts);
  EXPECT_EQ(old.stats().loaded, 3u);
  EXPECT_EQ(old.stats().corruptLines, 0u);
  const auto fails = old.lookup("8b28c828a17bfa9a7b50d9200fa205f1");
  ASSERT_TRUE(fails.has_value());
  EXPECT_EQ(fails->verdict, service::Verdict::Fails);
  EXPECT_EQ(fails->rule, "universal (Rule 2) + global fallback");
  EXPECT_EQ(fails->engine, "monolithic");
  EXPECT_EQ(fails->counterexample.rfind("violating state: ", 0), 0u);
  // Inserting them into a fresh store writes the same framed lines; the
  // legacy bare line gains exactly the framing it lacked.
  service::ObligationCache::Options newOpts;
  newOpts.dir = (dir / "new").string();
  {
    service::ObligationCache fresh(newOpts);
    for (const char* fp : {"08c840f26063205bcfa9c4de3c43781a",
                           "8b28c828a17bfa9a7b50d9200fa205f1",
                           "622214d6d8565992de30a09084933498"}) {
      const auto v = old.lookup(fp);
      ASSERT_TRUE(v.has_value()) << fp;
      EXPECT_TRUE(fresh.insert(fp, *v));
    }
  }
  const std::vector<std::string> written =
      readLines(dir / "new" / "obligations.jsonl");
  ASSERT_EQ(written.size(), 4u);
  EXPECT_EQ(written[1], lines["store_line_proof"]);
  EXPECT_EQ(written[2], lines["store_line_cex_proof"]);
  EXPECT_EQ(written[3], service::frameLine(lines["store_line_legacy"]));
  fs::remove_all(dir);
}

TEST(ParentLines, FingerprintsOfTheShippedModelAreUnchanged) {
  // The journal and store lines above were written for
  // models/afs1_composed.smv checked with --compose under the auto engine.
  // Today's fingerprints of the same obligations must be theirs, or every
  // line an older build wrote stops being addressable.
  auto lines = parentLines();
  const auto fpOf = [&](const std::string& kind) {
    std::string fp;
    EXPECT_TRUE(test::parsedJson(lines[kind]).req("fp", &fp)) << kind;
    return fp;
  };
  service::VerificationJob job;
  job.name = "afs1_composed";
  std::ifstream in(fs::path(CMC_MODELS_DIR) / "afs1_composed.smv");
  job.smvText.assign(std::istreambuf_iterator<char>(in), {});
  job.options.compose = true;
  job.options.engine = symbolic::EngineMode::Auto;
  service::ServiceOptions opts;
  opts.threads = 2;
  service::VerificationService svc(opts);
  std::map<std::string, std::string> fingerprints;
  for (const service::ObligationOutcome& o : svc.run(job).obligations) {
    fingerprints[o.id] = o.fingerprint;
  }
  EXPECT_EQ(fingerprints["afs1server/afs1server.SPEC1"],
            fpOf("journal_entry"));
  EXPECT_EQ(fingerprints["composed/afs1server.SPEC1"],
            fpOf("store_line_proof"));
  EXPECT_EQ(fingerprints["composed/afs1client.SPEC1"],
            fpOf("store_line_cex_proof"));
}

TEST(ParentLines, TopologyAndResponsesReadBack) {
  auto lines = parentLines();
  cluster::Topology topo;
  std::string err;
  ASSERT_TRUE(cluster::parseTopology(
      lines["topology_socket"] + "\n" + lines["topology_tcp"] + "\n", &topo,
      &err))
      << err;
  ASSERT_EQ(topo.shards.size(), 2u);
  EXPECT_EQ(topo.shards[0].socketPath, "/run/cmc/s1.sock");
  EXPECT_EQ(topo.shards[1].tcpPort, 7401);

  // Every response line parses, carries ok and cmd, and refusals a code.
  for (const auto& [kind, line] : lines) {
    if (kind.rfind("response_", 0) != 0) continue;
    const JsonValue r = test::parsedJson(line);
    bool ok = false;
    std::string cmd, code;
    EXPECT_TRUE(r.req("ok", &ok)) << kind;
    EXPECT_TRUE(r.req("cmd", &cmd)) << kind;
    EXPECT_EQ(!ok, r.req("code", &code)) << kind;
  }

  // A CHECK response as cmc submit renders it.
  const JsonValue check = test::parsedJson(lines["response_check"]);
  std::string id, job, verdict, report;
  std::uint64_t obligations = 0, holds = 0, fails = 0, cacheHits = 0;
  double wall = 0.0, wait = 1.0;
  EXPECT_TRUE(check.req("id", &id) && check.req("job", &job) &&
              check.req("verdict", &verdict) &&
              check.req("obligations", &obligations) &&
              check.req("holds", &holds) && check.req("fails", &fails) &&
              check.req("cache_hits", &cacheHits) &&
              check.req("wall_seconds", &wall) &&
              check.req("queue_wait_seconds", &wait) &&
              check.req("report", &report));
  EXPECT_EQ(id, "r1");
  EXPECT_EQ(verdict, "Fails");
  EXPECT_EQ(obligations, 2u);
  EXPECT_EQ(holds, 1u);
  EXPECT_EQ(fails, 1u);
  EXPECT_EQ(wall, 0.00145657);
  EXPECT_EQ(wait, 0.0);
  const JsonValue parsedReport = test::parsedJson(report);
  ASSERT_NE(parsedReport.find("options"), nullptr);
  std::string engine;
  EXPECT_TRUE(parsedReport.find("options")->req("engine", &engine));
  EXPECT_EQ(engine, "auto");

  // A single-obligation CHECK response as the coordinator merges it.
  service::ObligationRef ref;
  ref.id = "ping/ping.SPEC2";
  ref.fingerprint = "dcfab3d07c1cec3c367dd0b761cc26f1";
  const service::ObligationOutcome out =
      cluster::outcomeFromResponse(lines["response_check_only"], ref);
  EXPECT_EQ(out.verdict, service::Verdict::Fails);
  EXPECT_EQ(out.verdictSource, "checked");
  EXPECT_EQ(out.rule, "direct");
  EXPECT_EQ(out.seconds, 0.0001752);
  EXPECT_EQ(out.counterexample, "state 0: x = 0\n");
  EXPECT_TRUE(out.error.empty()) << out.error;
  ASSERT_EQ(out.attempts.size(), 1u);
  EXPECT_EQ(out.attempts[0].engine, "partitioned");

  // STATUS and STATS as the coordinator's probe and scatter read them.
  const JsonValue status = test::parsedJson(lines["response_status"]);
  std::string version;
  std::uint64_t rev = 0, inFlight = 9, queued = 9;
  EXPECT_TRUE(status.req("cmc_version", &version) &&
              status.req("protocol_rev", &rev) &&
              status.req("in_flight", &inFlight) &&
              status.req("queued", &queued));
  EXPECT_EQ(version, "0.3.0");
  EXPECT_EQ(rev, 3u);
  EXPECT_EQ(inFlight, 0u);
  const JsonValue stats = test::parsedJson(lines["response_stats"]);
  for (const char* key :
       {"checks_admitted", "checks_completed", "checks_rejected_busy",
        "cache_entries", "cache_hits", "cache_misses", "in_flight", "queued",
        "pool_queue"}) {
    std::uint64_t n = 0;
    EXPECT_TRUE(stats.req(key, &n)) << key;
  }
  double p50 = -1.0, p99 = -1.0;
  std::string metricsText;
  EXPECT_TRUE(stats.req("request_p50_seconds", &p50) &&
              stats.req("request_p99_seconds", &p99) &&
              stats.req("metrics_text", &metricsText));
  EXPECT_NE(metricsText.find("checks_completed"), std::string::npos);

  // Refusals as net::Client and cmc submit read them.
  std::string code, message;
  const JsonValue cancel = test::parsedJson(lines["response_cancel"]);
  EXPECT_TRUE(cancel.req("code", &code) && cancel.req("error", &message));
  EXPECT_EQ(code, net::kNotFound);
  EXPECT_EQ(message, "no active request with id 'nope'");
  EXPECT_TRUE(test::parsedJson(lines["response_bad_request"]).req("code",
                                                                  &code));
  EXPECT_EQ(code, net::kBadRequest);
  bool inserted = false;
  EXPECT_TRUE(
      test::parsedJson(lines["response_cache_put"]).req("inserted", &inserted));
  EXPECT_TRUE(inserted);
}

}  // namespace
}  // namespace cmc
