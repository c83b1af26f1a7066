// The job-option table (service layer): one row per option a CHECK
// carries, from which the cmc command line, the wire protocol and the
// report's "options" echo are all derived, so one place knows the list.
//
// A row's wire key is also its CLI flag: "--" + key with '_' replaced by
// '-' (deadline_ms <-> --deadline-ms).  A value is a flag (given = true on
// the CLI, a JSON bool on the wire), an unsigned integer (digits only,
// up to UINT64_MAX), or an engine name.  The deadline travels in whole
// milliseconds; JobOptions keeps it in seconds.
//
// obligationFingerprint is deliberately not derived from this table: its
// bytes address every entry of every cache store on disk, so it stays as
// written (engine, cluster and reorder are the rows that change it).
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <variant>

#include "service/job.hpp"
#include "util/json.hpp"

namespace cmc::service {

/// One option's value as the CLI and the wire carry it.
using JobOptionValue =
    std::variant<bool, std::uint64_t, symbolic::EngineMode>;

struct JobOptionRow {
  const char* key;  ///< wire key
  JobOptionValue (*get)(const JobOptions&);
  void (*set)(JobOptions&, const JobOptionValue&);
  /// Writes this option's member of the report's "options" echo.
  void (*echo)(const JobOptions&, util::JsonObject&);
};

constexpr std::size_t kJobOptionCount = 8;

/// The rows, in the order of the report's "options" echo.
std::span<const JobOptionRow, kJobOptionCount> jobOptionRows();

/// A set of rows, indexed like jobOptionRows().
using JobOptionSet = std::bitset<kJobOptionCount>;

/// The row's CLI flag: "--" + key with '_' replaced by '-'.
std::string jobOptionFlag(const JobOptionRow& row);

/// The value of the flag argv[*i], consumed: argv[*i + 1].  Null, with
/// *error saying that the flag requires a value, when there is none.
const char* flagValue(int argc, char** argv, int* i, std::string* error);

/// A flag's integer value: digits only, in [min, max].  False, with *error
/// naming the flag, the range and `text`, otherwise.
bool flagInteger(const std::string& flag, const char* text, std::uint64_t min,
                 std::uint64_t max, std::uint64_t* out, std::string* error);

enum class FlagParse { NotAnOption, Applied, Invalid };

/// Parse argv[*i] when it is a job-option flag: apply it to *opts, consume
/// the value after it if the row takes one, and add the row to *given
/// (may be null).  Invalid, with *error naming the flag, on a missing or
/// malformed value.  NotAnOption, touching nothing, for any other
/// argument.
FlagParse parseJobOptionFlag(int argc, char** argv, int* i, JobOptions* opts,
                             JobOptionSet* given, std::string* error);

/// Overlay the options present in a request object onto *opts.  False,
/// with *error naming the field, when one has the wrong type or value.
bool readJobOptions(const util::JsonValue& request, JobOptions* opts,
                    std::string* error);

/// Write the rows in `rows` as request members.
void writeJobOptions(const JobOptions& opts, const JobOptionSet& rows,
                     util::JsonObject* out);

/// The report's "options" echo object.
std::string jobOptionsEcho(const JobOptions& opts);

}  // namespace cmc::service
