// Shared helpers for the benchmark harness: paper-style report printing
// and machine-readable result emission.  Every bench binary first prints
// its figure/table reproduction (verdicts and resource counters in the
// format of the paper's Figures 7/10/15/17), then runs the
// google-benchmark timings, and finally writes BENCH_<name>.json with the
// recorded verdicts and counters so the perf trajectory is diffable
// across PRs.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "symbolic/checker.hpp"
#include "util/json.hpp"

namespace cmc::bench {

/// One machine-readable result row of a bench binary's reproduction
/// report; serialized into BENCH_<name>.json.  The BDD counters are
/// written only when the row measured them.
struct JsonEntry {
  std::string model;
  std::string spec;
  bool holds = false;
  double seconds = 0.0;
  std::optional<std::uint64_t> nodesAllocated;
  std::optional<std::uint64_t> transNodes;
  std::optional<std::uint64_t> peakLiveNodes;
  std::optional<double> cacheHitRate;
  std::string mode;  ///< e.g. "monolithic" / "partitioned"; may be empty
  /// Engine configuration the row ran under, so results are comparable
  /// across PRs without guessing the defaults of the day.
  std::uint64_t clusterThreshold = 0;
  bool reorder = false;  ///< variables were sifted before checking
};

inline std::vector<JsonEntry>& jsonEntries() {
  static std::vector<JsonEntry> entries;
  return entries;
}

inline void recordResult(JsonEntry entry) {
  jsonEntries().push_back(std::move(entry));
}

/// Record one CheckResult (the common case).
inline void recordCheck(const std::string& model,
                        const symbolic::CheckResult& r,
                        const std::string& mode = "",
                        bool reorder = false) {
  JsonEntry e;
  e.model = model;
  e.spec = r.specName.empty() ? r.specText : r.specName;
  e.holds = r.holds;
  e.seconds = r.seconds;
  e.nodesAllocated = r.bddNodesAllocated;
  e.transNodes = r.transNodes;
  e.peakLiveNodes = r.peakLiveNodes;
  e.cacheHitRate = r.cacheHitRate;
  e.mode = mode.empty() ? (r.usedPartition ? "partitioned" : "monolithic")
                        : mode;
  e.clusterThreshold = r.clusterThreshold;
  e.reorder = reorder;
  recordResult(std::move(e));
}

/// `v` with `digits` decimals, as the committed results have always
/// printed seconds (6) and hit rates (4).
inline std::string jsonFixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// Write BENCH_<name>.json into the current directory.
inline void writeJsonReport(const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               util::jsonEscape(name).c_str());
  const std::vector<JsonEntry>& entries = jsonEntries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const JsonEntry& e = entries[i];
    util::JsonObject row;
    row.put("model", e.model)
        .put("spec", e.spec)
        .putBool("holds", e.holds)
        .putRaw("seconds", jsonFixed(e.seconds, 6));
    if (e.nodesAllocated) row.putUint("nodes_allocated", *e.nodesAllocated);
    if (e.transNodes) row.putUint("trans_nodes", *e.transNodes);
    if (e.peakLiveNodes) row.putUint("peak_live_nodes", *e.peakLiveNodes);
    if (e.cacheHitRate) {
      row.putRaw("cache_hit_rate", jsonFixed(*e.cacheHitRate, 4));
    }
    row.put("mode", e.mode)
        .putUint("cluster_threshold", e.clusterThreshold)
        .putBool("reorder", e.reorder);
    std::fprintf(f, "    %s%s\n", row.str().c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu results)\n", path.c_str(), entries.size());
}

/// Print one Fig.-7-style block: per-spec verdicts then the resource
/// summary of the context after all checks ran.  Each spec's verdict and
/// counters are also recorded for the JSON report.
inline void printFigureReport(const std::string& title,
                              symbolic::Context& ctx,
                              const symbolic::SymbolicSystem& sys,
                              const std::vector<ctl::Spec>& specs,
                              double seconds) {
  std::printf("== %s ==\n", title.c_str());
  symbolic::Checker checker(sys);
  bool all = true;
  for (const ctl::Spec& spec : specs) {
    const symbolic::CheckResult result = checker.check(spec);
    all = all && result.holds;
    recordCheck(sys.name, result);
    std::string text = ctl::toString(spec.f);
    if (text.size() > 56) text = text.substr(0, 53) + "...";
    std::printf("-- spec. %s is %s\n", text.c_str(),
                result.holds ? "true" : "false");
  }
  std::printf("\nresources used:\n");
  std::printf("user time: %g s\n", seconds);
  std::printf("BDD nodes allocated: %llu\n",
              static_cast<unsigned long long>(
                  ctx.mgr().stats().nodesAllocatedTotal));
  std::printf("BDD nodes representing transition relation: %llu + %zu\n",
              static_cast<unsigned long long>(sys.transNodeCount()),
              sys.vars.size());
  std::printf("%s\n\n", all ? "(all specifications hold)"
                            : "(SOME SPECIFICATIONS FAILED)");
}

}  // namespace cmc::bench

/// Standard main: print the reproduction report(s), run benchmarks, then
/// write the machine-readable BENCH_<name>.json.
#define CMC_BENCH_MAIN(name, reportFn)                   \
  int main(int argc, char** argv) {                      \
    reportFn();                                          \
    benchmark::Initialize(&argc, argv);                  \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                 \
    benchmark::Shutdown();                               \
    cmc::bench::writeJsonReport(name);                   \
    return 0;                                            \
  }
