#include "util/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace cmc::util {

namespace {

/// The compiled-in site catalog (docs/OPERATIONS.md documents each failure
/// surface).  Pre-registered so the sites are enumerable before first hit;
/// keep in sync with the CMC_FAILPOINT call sites.
struct CatalogEntry {
  const char* name;
  const char* description;
};

constexpr CatalogEntry kCatalog[] = {
    {"bdd.alloc_node", "BDD node-arena allocation (every new node)"},
    {"smv.elaborate", "SMV module elaboration (scout phase and workers)"},
    {"cache.disk_append", "obligation-cache JSONL store append"},
    {"cache.disk_load", "obligation-cache JSONL store load (per line)"},
    {"cache.compact",
     "store compaction, after the temp file is written, before the rename"},
    {"trace.write", "run-trace JSONL sink write (per event)"},
    {"scheduler.dispatch", "worker pickup of an obligation, before attempts"},
    {"scheduler.retry", "engine-degradation retry decision"},
    {"journal.append", "run-journal append of a decided obligation"},
    {"journal.load", "run-journal load on --resume (per line)"},
    {"net.accept", "server accept of a new connection (before the handler)"},
    {"net.read", "server read of a request line (per read attempt)"},
    {"cluster.hedge_delay",
     "coordinator hedge-lane launch (delay it to let the primary win)"},
};

}  // namespace

/// Owns every Failpoint.  Sites are keyed by name in a std::map so the
/// objects are address-stable; the registry mutex only guards creation and
/// configuration, never the per-hit evaluate() fast path.
class FailpointRegistry {
 public:
  static FailpointRegistry& instance() {
    static FailpointRegistry reg;
    return reg;
  }

  Failpoint& site(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    return siteLocked(name);
  }

  void disarmAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, fp] : sites_) {
      fp->action_.store(Failpoint::Action::Off, std::memory_order_relaxed);
      fp->arg_.store(0, std::memory_order_relaxed);
      fp->hits_.store(0, std::memory_order_relaxed);
    }
  }

  std::vector<Failpoint::SiteInfo> list() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Failpoint::SiteInfo> out;
    for (const CatalogEntry& e : kCatalog) {
      out.push_back({e.name, e.description});
    }
    for (const auto& [name, fp] : sites_) {
      bool inCatalog = false;
      for (const CatalogEntry& e : kCatalog) {
        if (name == e.name) {
          inCatalog = true;
          break;
        }
      }
      if (!inCatalog) out.push_back({name, ""});
    }
    return out;
  }

 private:
  FailpointRegistry() {
    // Pre-register the catalog so every wired site exists (and is listed)
    // even before its first hit.
    for (const CatalogEntry& e : kCatalog) siteLocked(e.name);
  }

  Failpoint& siteLocked(std::string_view name) {
    const auto it = sites_.find(name);
    if (it != sites_.end()) return *it->second;
    // Site objects are heap-allocated so their addresses survive map
    // rebalancing (the macro caches the reference in a static).
    auto fp = std::unique_ptr<Failpoint>(new Failpoint(std::string(name)));
    return *sites_.emplace(std::string(name), std::move(fp)).first->second;
  }

  std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> sites_;
};

Failpoint& Failpoint::site(std::string_view name) {
  return FailpointRegistry::instance().site(name);
}

void Failpoint::configure(std::string_view spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= spec.size()) {
    throw Error("failpoint: malformed spec '" + std::string(spec) +
                "' (want site=action)");
  }
  const std::string_view name = spec.substr(0, eq);
  const std::string_view action = spec.substr(eq + 1);

  const auto numericArg = [&](std::string_view text,
                              const char* what) -> std::uint64_t {
    // text is the "...(N)" tail; extract N.
    const std::size_t open = text.find('(');
    if (open == std::string_view::npos || text.back() != ')') {
      throw Error(std::string("failpoint: ") + what + " needs an argument: " +
                  std::string(spec));
    }
    const std::string digits(text.substr(open + 1, text.size() - open - 2));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      throw Error(std::string("failpoint: bad ") + what + " argument in '" +
                  std::string(spec) + "'");
    }
    return std::strtoull(digits.c_str(), nullptr, 10);
  };

  Failpoint& fp = site(name);
  if (action == "error") {
    fp.arm(Action::Error);
  } else if (action == "throw") {
    fp.arm(Action::Throw);
  } else if (action == "off") {
    fp.disarm();
  } else if (action.substr(0, 6) == "delay(") {
    fp.arm(Action::Delay, numericArg(action, "delay(ms)"));
  } else if (action.substr(0, 4) == "1in(") {
    const std::uint64_t n = numericArg(action, "1in(n)");
    if (n == 0) throw Error("failpoint: 1in(0) never fires: " +
                            std::string(spec));
    fp.arm(Action::OneIn, n);
  } else {
    throw Error("failpoint: unknown action '" + std::string(action) +
                "' (want error | throw | delay(ms) | 1in(n) | off)");
  }
}

void Failpoint::configureList(std::string_view list) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string_view::npos) end = list.size();
    const std::string_view item = list.substr(start, end - start);
    if (!item.empty()) configure(item);
    if (end == list.size()) break;
    start = end + 1;
  }
}

void Failpoint::configureFromEnv() {
  const char* env = std::getenv("CMC_FAILPOINTS");
  if (env != nullptr && *env != '\0') configureList(env);
}

void Failpoint::disarmAll() { FailpointRegistry::instance().disarmAll(); }

std::vector<Failpoint::SiteInfo> Failpoint::sites() {
  return FailpointRegistry::instance().list();
}

bool Failpoint::compiledIn() noexcept {
#if defined(CMC_FAILPOINTS_ENABLED)
  return true;
#else
  return false;
#endif
}

void Failpoint::arm(Action action, std::uint64_t arg) {
  arg_.store(arg, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
  action_.store(action, std::memory_order_relaxed);
}

void Failpoint::disarm() {
  action_.store(Action::Off, std::memory_order_relaxed);
}

void Failpoint::fire(Action a) {
  const std::uint64_t hit = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  switch (a) {
    case Action::Off:
      return;
    case Action::Error:
      throw FailpointError("failpoint " + name_ + ": injected error (hit " +
                           std::to_string(hit) + ")");
    case Action::Throw:
      // Deliberately NOT a cmc::Error: models a foreign, unexpected
      // exception escaping a worker (the quarantine path's input).
      throw std::runtime_error("failpoint " + name_ +
                               ": injected unexpected exception (hit " +
                               std::to_string(hit) + ")");
    case Action::Delay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(arg_.load(std::memory_order_relaxed)));
      return;
    case Action::OneIn: {
      const std::uint64_t n = arg_.load(std::memory_order_relaxed);
      if (n != 0 && hit % n == 0) {
        throw FailpointError("failpoint " + name_ + ": injected error (hit " +
                             std::to_string(hit) + ", every " +
                             std::to_string(n) + ")");
      }
      return;
    }
  }
}

}  // namespace cmc::util
