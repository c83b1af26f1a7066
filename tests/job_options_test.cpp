// Tests for the job-option table (service/job_options.hpp): random options
// come back unchanged through the CLI flags, the submit wire line,
// parseRequest and the report's "options" echo; exactly the engine,
// cluster and reorder rows change the obligation fingerprint; and the CLI
// refuses values a row cannot hold, naming the flag.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "service/job_options.hpp"
#include "service/obligation_cache.hpp"
#include "smv/elaborate.hpp"
#include "smv/fingerprint.hpp"
#include "test_util.hpp"

namespace cmc::service {
namespace {

constexpr symbolic::EngineMode kEngines[] = {symbolic::EngineMode::Auto,
                                             symbolic::EngineMode::Partitioned,
                                             symbolic::EngineMode::Monolithic};

const JobOptionRow& rowFor(std::string_view key) {
  for (const JobOptionRow& row : jobOptionRows()) {
    if (key == row.key) return row;
  }
  throw std::logic_error("no job-option row " + std::string(key));
}

/// Options the CLI can express: deadlines are whole milliseconds below
/// 2^40, which JobOptions' seconds (a double) hold exactly.
JobOptions randomOptions(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::uint64_t> ms(0, (std::uint64_t{1} << 40));
  std::uniform_int_distribution<std::uint64_t> any;
  JobOptions o;
  o.limits.deadlineSeconds = static_cast<double>(ms(rng)) / 1e3;
  o.limits.nodeBudget = coin(rng) != 0 ? any(rng) : any(rng) % 1000;
  o.engine = kEngines[any(rng) % 3];
  o.retryOtherEngine = coin(rng) != 0;
  o.compose = coin(rng) != 0;
  o.clusterThreshold = any(rng);
  o.reorderBeforeCheck = coin(rng) != 0;
  o.traceForce = coin(rng) != 0;
  return o;
}

/// The command line that sets `o`, built from the table: a flag for each
/// true flag row, "--flag value" for each valued row.
std::vector<std::string> toArgs(const JobOptions& o) {
  std::vector<std::string> args{"cmc", "submit"};
  for (const JobOptionRow& row : jobOptionRows()) {
    const JobOptionValue v = row.get(o);
    if (const bool* b = std::get_if<bool>(&v)) {
      if (*b) args.push_back(jobOptionFlag(row));
    } else if (const std::uint64_t* n = std::get_if<std::uint64_t>(&v)) {
      args.insert(args.end(), {jobOptionFlag(row), std::to_string(*n)});
    } else {
      args.insert(args.end(),
                  {jobOptionFlag(row),
                   symbolic::toString(std::get<symbolic::EngineMode>(v))});
    }
  }
  return args;
}

/// Parse `args` as the job-option flags of a subcommand.
JobOptions parseArgs(std::vector<std::string> args, JobOptionSet* given) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  JobOptions o;
  const int argc = static_cast<int>(argv.size());
  for (int i = 2; i < argc; ++i) {
    std::string err;
    EXPECT_EQ(parseJobOptionFlag(argc, argv.data(), &i, &o, given, &err),
              FlagParse::Applied)
        << argv[i] << ": " << err;
  }
  return o;
}

void expectSameOptions(const JobOptions& got, const JobOptions& want) {
  EXPECT_EQ(got.limits.deadlineSeconds, want.limits.deadlineSeconds);
  for (const JobOptionRow& row : jobOptionRows()) {
    EXPECT_EQ(row.get(got), row.get(want)) << row.key;
  }
}

TEST(JobOptionTable, RandomOptionsSurviveCliWireAndReportEcho) {
  std::mt19937_64 rng(1016);
  for (int round = 0; round < 400; ++round) {
    const JobOptions want = randomOptions(rng);
    JobOptionSet given;
    const JobOptions parsed = parseArgs(toArgs(want), &given);
    expectSameOptions(parsed, want);

    // cmc submit sends the given rows; the server's defaults cover the
    // rest, which the CLI could only have left at their defaults.
    util::JsonObject submit;
    submit.put("cmd", "CHECK").put("id", "r").put("model", "m.smv");
    writeJobOptions(parsed, given, &submit);
    net::Request req;
    std::string err;
    ASSERT_TRUE(net::parseRequest(submit.str(), JobOptions{}, &req, &err))
        << err << "\n" << submit.str();
    expectSameOptions(req.options, want);

    // The coordinator's forward line writes every row, so the shard's own
    // defaults never leak in.
    JobOptions shardDefaults = randomOptions(rng);
    util::JsonObject forward;
    forward.put("cmd", "CHECK").put("id", "r").put("model", "m.smv");
    writeJobOptions(want, JobOptionSet().set(), &forward);
    ASSERT_TRUE(net::parseRequest(forward.str(), shardDefaults, &req, &err))
        << err;
    expectSameOptions(req.options, want);

    // The report's echo, read back with the reader.  deadline_seconds is
    // written with jsonNumber's six significant digits.
    JobReport report;
    report.options = want;
    const util::JsonValue doc = test::parsedJson(report.toJson());
    const util::JsonValue* echo = doc.find("options");
    ASSERT_NE(echo, nullptr);
    double deadline = -1.0;
    std::uint64_t nodeBudget = 0, cluster = 0;
    std::string engine;
    bool retry = false, compose = false, reorder = false, traceForce = false;
    ASSERT_TRUE(echo->req("deadline_seconds", &deadline) &&
                echo->req("node_budget", &nodeBudget) &&
                echo->req("engine", &engine) &&
                echo->req("retry_other_engine", &retry) &&
                echo->req("compose", &compose) &&
                echo->req("cluster_threshold", &cluster) &&
                echo->req("reorder", &reorder) &&
                echo->req("trace_force", &traceForce));
    EXPECT_EQ(deadline,
              std::strtod(util::jsonNumber(want.limits.deadlineSeconds).c_str(),
                          nullptr));
    EXPECT_EQ(nodeBudget, want.limits.nodeBudget);
    EXPECT_EQ(engine, symbolic::toString(want.engine));
    EXPECT_EQ(retry, want.retryOtherEngine);
    EXPECT_EQ(compose, want.compose);
    EXPECT_EQ(cluster, want.clusterThreshold);
    EXPECT_EQ(reorder, want.reorderBeforeCheck);
    EXPECT_EQ(traceForce, want.traceForce);
  }
}

TEST(JobOptionTable, ReportEchoKeepsItsKeysInOrderAndAppendsTheRest) {
  JobOptions o;
  o.limits.deadlineSeconds = 1.5;
  EXPECT_EQ(jobOptionsEcho(o),
            "{\"deadline_seconds\": 1.5, \"node_budget\": 0, \"engine\": "
            "\"partitioned\", \"retry_other_engine\": true, \"compose\": "
            "false, \"cluster_threshold\": 1024, \"reorder\": false, "
            "\"trace_force\": false}");
}

TEST(JobOptionTable, FingerprintSeesExactlyEngineClusterAndReorder) {
  symbolic::Context ctx;
  const smv::ElaboratedModule mod = smv::elaborateText(
      ctx, "MODULE m\nVAR s : boolean;\nASSIGN next(s) := !s;\nSPEC AG s\n");
  const std::vector<std::string> canon{smv::canonicalModule(ctx, mod)};
  const JobOptions base;
  const std::string baseFp =
      obligationFingerprint(canon, 0, false, mod.specs.front(), base);
  std::vector<std::string> changed;
  for (const JobOptionRow& row : jobOptionRows()) {
    JobOptionValue v = row.get(base);
    if (bool* b = std::get_if<bool>(&v)) {
      *b = !*b;
    } else if (std::uint64_t* n = std::get_if<std::uint64_t>(&v)) {
      *n += 1000;
    } else {
      v = symbolic::EngineMode::Monolithic;
    }
    JobOptions other = base;
    row.set(other, v);
    ASSERT_NE(row.get(other), row.get(base)) << row.key;
    if (obligationFingerprint(canon, 0, false, mod.specs.front(), other) !=
        baseFp) {
      changed.push_back(row.key);
    }
  }
  EXPECT_EQ(changed,
            (std::vector<std::string>{"engine", "cluster", "reorder"}));
}

TEST(JobOptionTable, CliRefusesValuesARowCannotHold) {
  const auto parseOne = [](std::vector<std::string> args, std::string* err) {
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    int i = 2;
    JobOptions o;
    return parseJobOptionFlag(static_cast<int>(argv.size()), argv.data(), &i,
                              &o, nullptr, err);
  };
  std::string err;
  for (const char* bad : {"-1", "abc", "", "+5", " 5", "5 ", "1e3", "0x10",
                          "18446744073709551616"}) {
    for (const char* flag : {"--node-budget", "--deadline-ms", "--cluster"}) {
      err.clear();
      EXPECT_EQ(parseOne({"cmc", "check", flag, bad}, &err),
                FlagParse::Invalid)
          << flag << " " << bad;
      EXPECT_NE(err.find(flag), std::string::npos) << err;
    }
  }
  EXPECT_EQ(parseOne({"cmc", "check", "--node-budget"}, &err),
            FlagParse::Invalid);
  EXPECT_NE(err.find("--node-budget requires a value"), std::string::npos)
      << err;
  EXPECT_EQ(parseOne({"cmc", "check", "--engine", "bes"}, &err),
            FlagParse::Invalid);
  EXPECT_NE(err.find("--engine"), std::string::npos) << err;
  EXPECT_EQ(parseOne({"cmc", "check", "--threads", "4"}, &err),
            FlagParse::NotAnOption);
  EXPECT_EQ(parseOne({"cmc", "check", "--deadline_ms", "4"}, &err),
            FlagParse::NotAnOption);
  EXPECT_EQ(parseOne({"cmc", "check", "--learn"}, &err),
            FlagParse::NotAnOption);

  // The largest values pass; a deadline saturates instead of wrapping.
  JobOptionSet given;
  const JobOptions big =
      parseArgs({"cmc", "check", "--node-budget", "18446744073709551615",
                 "--deadline-ms", "18446744073709551615", "--compose"},
                &given);
  EXPECT_EQ(big.limits.nodeBudget, 18446744073709551615u);
  EXPECT_EQ(std::get<std::uint64_t>(rowFor("deadline_ms").get(big)),
            18446744073709551615u);
  EXPECT_TRUE(big.compose);
  EXPECT_EQ(given.count(), 3u);
}

TEST(JobOptionTable, SubmitSendsTheDeadlineItWasGiven) {
  // Milliseconds go to seconds and back by rounding, never truncation:
  // 1001 ms once went out as 1000.
  for (std::uint64_t ms = 1; ms <= 100000; ++ms) {
    JobOptions o;
    rowFor("deadline_ms").set(o, ms);
    ASSERT_EQ(std::get<std::uint64_t>(rowFor("deadline_ms").get(o)), ms);
  }
  JobOptionSet given;
  const JobOptions o =
      parseArgs({"cmc", "submit", "--deadline-ms", "1001"}, &given);
  util::JsonObject line;
  writeJobOptions(o, given, &line);
  EXPECT_EQ(line.str(), "{\"deadline_ms\": 1001}");
}

}  // namespace
}  // namespace cmc::service
