#include "service/trace_log.hpp"

#include <cstdio>

#include "util/failpoint.hpp"

namespace cmc::service {

void RunTrace::emit(const JsonObject& event) {
  if (!enabled_) return;
  std::string line = event.str();
  std::lock_guard<std::mutex> lock(mutex_);
  if (keep_) {
    lines_.push_back(std::move(line));
    return;
  }
  if (sink_ == nullptr) return;
  // A failing sink stops the trace (warn once): telemetry loss must never
  // take down the batch it narrates.
  try {
    CMC_FAILPOINT("trace.write");
    *sink_ << line << '\n';
    sink_->flush();
    if (!*sink_) throw Error("trace: sink write failed");
  } catch (const std::exception& e) {
    sink_ = nullptr;
    std::fprintf(stderr, "%s; the trace stops here\n", e.what());
  }
}

std::vector<std::string> RunTrace::lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

std::size_t RunTrace::countContaining(std::string_view needle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const std::string& line : lines_) {
    if (line.find(needle) != std::string::npos) ++n;
  }
  return n;
}

}  // namespace cmc::service
