// Structured run tracing (service layer): a thread-safe JSONL event stream.
//
// Every job emits a sequence of single-line JSON events (job_start,
// obligation_start, attempt, retry, obligation_end, job_end — see
// scheduler.cpp) through a RunTrace.  A trace either keeps its events in
// memory (so tests and `cmc check`'s per-model split can read them) or
// streams each line to an ostream sink as it happens, which is how
// `--trace` writes its file while the batch is still running; a trace
// that streams keeps no copy, so a daemon's trace costs no memory per
// request.
//
// Events are built with the JSON writer in util/json.hpp; its names stay
// reachable as service::JsonObject, service::jsonEscape and
// service::jsonNumber.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"
#include "util/timer.hpp"

namespace cmc::service {

using util::JsonObject;
using util::jsonEscape;
using util::jsonNumber;

class RunTrace {
 public:
  /// Tag for a trace that drops every event.  Callers with no trace sink
  /// (batch runs without --trace) use this so the hot path can skip the
  /// JSON serialization entirely — check enabled() before building the
  /// JsonObject, since the argument is evaluated either way.
  struct Disabled {};

  /// Keeps every event in memory.
  RunTrace() = default;
  /// Appends (and flushes) every event to `sink` and keeps none; the sink
  /// must outlive the trace.  Pass nullptr to keep the events in memory.
  explicit RunTrace(std::ostream* sink)
      : sink_(sink), keep_(sink == nullptr) {}
  explicit RunTrace(Disabled) : enabled_(false) {}

  /// False when this trace discards events: skip building them.
  bool enabled() const { return enabled_; }

  /// Append one event line.  Thread-safe; called from pool workers.
  void emit(const JsonObject& event);

  /// Snapshot of the kept lines: every emitted one, or none for a trace
  /// that streams to a sink.
  std::vector<std::string> lines() const;

  /// Number of kept lines containing `needle` (test/assertion helper).
  std::size_t countContaining(std::string_view needle) const;

  /// Seconds since construction; the "t" field of every event.
  double elapsedSeconds() const { return timer_.seconds(); }

 private:
  mutable std::mutex mutex_;
  bool enabled_ = true;
  std::ostream* sink_ = nullptr;
  bool keep_ = true;  ///< events go to lines_, not to a sink
  std::vector<std::string> lines_;
  WallTimer timer_;
};

}  // namespace cmc::service
