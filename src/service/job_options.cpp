#include "service/job_options.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/string_util.hpp"

namespace cmc::service {

namespace {

/// Whole milliseconds, rounded; saturates instead of wrapping.
std::uint64_t millis(double seconds) {
  const double ms = std::round(seconds * 1e3);
  if (!(ms > 0.0)) return 0;
  if (ms >= 18446744073709551616.0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return static_cast<std::uint64_t>(ms);
}

std::uint64_t count(const JobOptionValue& v) {
  return std::get<std::uint64_t>(v);
}
bool flag(const JobOptionValue& v) { return std::get<bool>(v); }

using util::JsonObject;

const JobOptionRow kRows[kJobOptionCount] = {
    {"deadline_ms",
     [](const JobOptions& o) -> JobOptionValue {
       return millis(o.limits.deadlineSeconds);
     },
     [](JobOptions& o, const JobOptionValue& v) {
       o.limits.deadlineSeconds = static_cast<double>(count(v)) / 1e3;
     },
     [](const JobOptions& o, JsonObject& r) {
       r.putDouble("deadline_seconds", o.limits.deadlineSeconds);
     }},
    {"node_budget",
     [](const JobOptions& o) -> JobOptionValue { return o.limits.nodeBudget; },
     [](JobOptions& o, const JobOptionValue& v) {
       o.limits.nodeBudget = count(v);
     },
     [](const JobOptions& o, JsonObject& r) {
       r.putUint("node_budget", o.limits.nodeBudget);
     }},
    {"engine",
     [](const JobOptions& o) -> JobOptionValue { return o.engine; },
     [](JobOptions& o, const JobOptionValue& v) {
       o.engine = std::get<symbolic::EngineMode>(v);
     },
     [](const JobOptions& o, JsonObject& r) {
       r.put("engine", symbolic::toString(o.engine));
     }},
    {"no_retry",
     [](const JobOptions& o) -> JobOptionValue { return !o.retryOtherEngine; },
     [](JobOptions& o, const JobOptionValue& v) {
       o.retryOtherEngine = !flag(v);
     },
     [](const JobOptions& o, JsonObject& r) {
       r.putBool("retry_other_engine", o.retryOtherEngine);
     }},
    {"compose",
     [](const JobOptions& o) -> JobOptionValue { return o.compose; },
     [](JobOptions& o, const JobOptionValue& v) { o.compose = flag(v); },
     [](const JobOptions& o, JsonObject& r) {
       r.putBool("compose", o.compose);
     }},
    {"cluster",
     [](const JobOptions& o) -> JobOptionValue { return o.clusterThreshold; },
     [](JobOptions& o, const JobOptionValue& v) {
       o.clusterThreshold = count(v);
     },
     [](const JobOptions& o, JsonObject& r) {
       r.putUint("cluster_threshold", o.clusterThreshold);
     }},
    {"reorder",
     [](const JobOptions& o) -> JobOptionValue {
       return o.reorderBeforeCheck;
     },
     [](JobOptions& o, const JobOptionValue& v) {
       o.reorderBeforeCheck = flag(v);
     },
     [](const JobOptions& o, JsonObject& r) {
       r.putBool("reorder", o.reorderBeforeCheck);
     }},
    {"trace_force",
     [](const JobOptions& o) -> JobOptionValue { return o.traceForce; },
     [](JobOptions& o, const JobOptionValue& v) { o.traceForce = flag(v); },
     [](const JobOptions& o, JsonObject& r) {
       r.putBool("trace_force", o.traceForce);
     }},
};

}  // namespace

std::span<const JobOptionRow, kJobOptionCount> jobOptionRows() {
  return std::span<const JobOptionRow, kJobOptionCount>(kRows);
}

std::string jobOptionFlag(const JobOptionRow& row) {
  std::string flag = std::string("--") + row.key;
  std::replace(flag.begin(), flag.end(), '_', '-');
  return flag;
}

const char* flagValue(int argc, char** argv, int* i, std::string* error) {
  if (*i + 1 >= argc) {
    *error = std::string(argv[*i]) + " requires a value";
    return nullptr;
  }
  return argv[++*i];
}

bool flagInteger(const std::string& flag, const char* text, std::uint64_t min,
                 std::uint64_t max, std::uint64_t* out, std::string* error) {
  std::uint64_t n = 0;
  if (parseUint(text, &n) && n >= min && n <= max) {
    *out = n;
    return true;
  }
  *error = flag + " needs an integer in " + std::to_string(min) + ".." +
           std::to_string(max) + ", got '" + text + "'";
  return false;
}

FlagParse parseJobOptionFlag(int argc, char** argv, int* i, JobOptions* opts,
                             JobOptionSet* given, std::string* error) {
  for (std::size_t r = 0; r < kJobOptionCount; ++r) {
    const JobOptionRow& row = kRows[r];
    const std::string flag = jobOptionFlag(row);
    if (flag != argv[*i]) continue;
    JobOptionValue value = row.get(*opts);
    if (std::holds_alternative<bool>(value)) {
      value = true;
    } else {
      const char* text = flagValue(argc, argv, i, error);
      if (text == nullptr) return FlagParse::Invalid;
      if (std::uint64_t* n = std::get_if<std::uint64_t>(&value)) {
        if (!flagInteger(flag, text, 0,
                         std::numeric_limits<std::uint64_t>::max(), n,
                         error)) {
          return FlagParse::Invalid;
        }
      } else if (!symbolic::engineModeFromString(
                     text, &std::get<symbolic::EngineMode>(value))) {
        *error = flag + " must be auto, partitioned, or monolithic";
        return FlagParse::Invalid;
      }
    }
    row.set(*opts, value);
    if (given != nullptr) given->set(r);
    return FlagParse::Applied;
  }
  return FlagParse::NotAnOption;
}

bool readJobOptions(const util::JsonValue& request, JobOptions* opts,
                    std::string* error) {
  for (const JobOptionRow& row : kRows) {
    JobOptionValue value = row.get(*opts);
    util::JsonField field = util::JsonField::Absent;
    const char* expected = nullptr;
    if (bool* b = std::get_if<bool>(&value)) {
      field = request.get(row.key, b);
      expected = "true or false";
    } else if (std::uint64_t* n = std::get_if<std::uint64_t>(&value)) {
      field = request.get(row.key, n);
      expected = "a non-negative integer";
    } else {
      std::string name;
      field = request.get(row.key, &name);
      if (field == util::JsonField::Ok &&
          !symbolic::engineModeFromString(
              name, &std::get<symbolic::EngineMode>(value))) {
        field = util::JsonField::WrongType;
      }
      expected = "'auto', 'partitioned', or 'monolithic'";
    }
    if (field == util::JsonField::WrongType) {
      *error = std::string("field '") + row.key + "' must be " + expected;
      return false;
    }
    if (field == util::JsonField::Ok) row.set(*opts, value);
  }
  return true;
}

void writeJobOptions(const JobOptions& opts, const JobOptionSet& rows,
                     util::JsonObject* out) {
  for (std::size_t r = 0; r < kJobOptionCount; ++r) {
    if (!rows.test(r)) continue;
    const JobOptionRow& row = kRows[r];
    const JobOptionValue value = row.get(opts);
    if (const bool* b = std::get_if<bool>(&value)) {
      out->putBool(row.key, *b);
    } else if (const std::uint64_t* n = std::get_if<std::uint64_t>(&value)) {
      out->putUint(row.key, *n);
    } else {
      out->put(row.key,
               symbolic::toString(std::get<symbolic::EngineMode>(value)));
    }
  }
}

std::string jobOptionsEcho(const JobOptions& opts) {
  util::JsonObject echo;
  for (const JobOptionRow& row : kRows) row.echo(opts, echo);
  return echo.str();
}

}  // namespace cmc::service
