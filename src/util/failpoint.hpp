// Deterministic fault injection (failpoints): named sites compiled into
// the hot failure surfaces of the library, armed at runtime to exercise
// the recovery machinery (worker quarantine, cache/journal degradation,
// budget paths) that a healthy run never reaches.
//
// A site is declared with the CMC_FAILPOINT("name") macro.  In the default
// build (CMC_FAILPOINTS=OFF) the macro expands to nothing — zero code, zero
// branches, no registry lookup — so production binaries pay nothing.  With
// -DCMC_FAILPOINTS=ON the macro resolves the site once (function-local
// static) and then evaluates a relaxed atomic per hit, cheap enough even
// for the BDD allocation path.
//
// Actions (armed per site via Failpoint::configure, the CMC_FAILPOINTS env
// var, or `cmc --failpoint site=action`):
//   error      throw FailpointError (a cmc::Error) on every hit — models an
//              expected, recoverable failure (I/O error, allocation limit).
//   throw      throw std::runtime_error on every hit — models an unexpected
//              exception, the input of the scheduler's quarantine path.
//   delay(ms)  sleep for ms milliseconds on every hit — wedges the site so
//              kill-and-resume tests can interrupt a run mid-flight.
//   1in(n)     throw FailpointError on every n-th hit of the site, counted
//              with a per-site atomic — deterministic (no wall clock, no
//              randomness), so a given workload replays identically.
//
// The catalog of wired sites lives in failpoint.cpp (kCatalog) and is
// pre-registered, so `cmc failpoints` and the CI chaos sweep enumerate
// every site even before any is hit.  docs/OPERATIONS.md documents each
// site's failure surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace cmc::util {

/// Thrown by the `error` and `1in(n)` actions: an injected but *expected*
/// failure, indistinguishable from a real I/O or model error to the code
/// under test.
class FailpointError : public Error {
 public:
  using Error::Error;
};

class Failpoint {
 public:
  enum class Action : std::uint8_t {
    Off,
    Error,  ///< throw FailpointError
    Throw,  ///< throw std::runtime_error (not a cmc::Error)
    Delay,  ///< sleep arg milliseconds
    OneIn,  ///< throw FailpointError on every arg-th hit
  };

  struct SiteInfo {
    std::string name;
    std::string description;  ///< empty for dynamically created sites
    bool armed = false;
    std::uint64_t hits = 0;  ///< since the site was last armed
  };

  /// Get-or-create the named site.  The returned reference is stable for
  /// the process lifetime (the macro caches it in a function-local static).
  static Failpoint& site(std::string_view name);

  /// Arm one site from a "site=action" spec; throws cmc::Error on a
  /// malformed spec.  Arming a site that is not compiled in (or not in the
  /// catalog) is allowed — it simply never fires.
  static void configure(std::string_view spec);

  /// Arm every "site=action" in the comma-separated list (the format of
  /// the CMC_FAILPOINTS environment variable).
  static void configureList(std::string_view list);

  /// Arm sites from the CMC_FAILPOINTS environment variable, if set.
  static void configureFromEnv();

  /// Disarm every site and reset the 1in(n) hit counters (tests).
  static void disarmAll();

  /// Every known site: the compiled-in catalog first (stable order), then
  /// dynamically created ones.
  static std::vector<SiteInfo> sites();

  /// True when the build wires CMC_FAILPOINT sites (CMC_FAILPOINTS=ON).
  static bool compiledIn() noexcept;

  void arm(Action action, std::uint64_t arg = 0);
  void disarm();

  /// The per-hit check: returns immediately when disarmed, otherwise
  /// performs the armed action (which may throw).
  void evaluate() {
    const Action a = action_.load(std::memory_order_relaxed);
    if (a == Action::Off) return;
    fire(a);
  }

  const std::string& name() const noexcept { return name_; }
  bool armed() const noexcept {
    return action_.load(std::memory_order_relaxed) != Action::Off;
  }
  std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}
  friend class FailpointRegistry;

  void fire(Action a);

  std::string name_;
  std::atomic<Action> action_{Action::Off};
  std::atomic<std::uint64_t> arg_{0};
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace cmc::util

// The site macro.  Always a statement; compiles away entirely unless the
// build defines CMC_FAILPOINTS_ENABLED (set by -DCMC_FAILPOINTS=ON).
#if defined(CMC_FAILPOINTS_ENABLED)
#define CMC_FAILPOINT(site_name)                            \
  do {                                                      \
    static ::cmc::util::Failpoint& cmcFailpointSite =       \
        ::cmc::util::Failpoint::site(site_name);            \
    cmcFailpointSite.evaluate();                            \
  } while (0)
#else
#define CMC_FAILPOINT(site_name) \
  do {                           \
  } while (0)
#endif
