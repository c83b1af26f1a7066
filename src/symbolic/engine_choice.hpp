// Adaptive partitioned-vs-monolithic engine selection.
//
// The partitioned preimage engine (early quantification over clustered
// tracks) wins when the conjoined transition relation blows up — its whole
// point is never materializing the product (AFS-2 with two clients: 340
// partition nodes vs 4656 monolithic).  But on models whose product stays
// small (the token rings, ABP, AFS-1) the monolithic andExists is a single
// cache-friendly operation per preimage and beats the fold on wall clock.
// Forcing either engine globally therefore loses somewhere; chooseEngine
// decides per system with a *capped materialization probe*:
//
//   cap = max(kProbeFloorNodes, kProbeFactor * partition-node-count)
//
// Each track's product is conjoined as a balanced tree (foldBalanced)
// and the tracks are disjoined left to right, checking the DAG size of the
// intermediates as they appear; if one ever exceeds the cap the probe
// aborts (the blow-up the partitioned engine exists to avoid has been
// demonstrated at bounded cost) and the partitioned engine is chosen.  If
// the product completes within the cap, the monolithic engine is chosen —
// and the probe's product is cached into the system's lazy monolithic
// slot, so the materialization is paid once, not twice.
//
// Thread safety: chooseEngine runs dagSize() (mutable scratch marks) and
// caches into SymbolicSystem::monolithic_, so it must only be called from
// the thread that owns the system's manager — in the service layer that is
// the snapshot build (scout) phase, never a worker reading the shared
// snapshot.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "symbolic/system.hpp"

namespace cmc::symbolic {

/// Engine selection policy carried by job options and the CLI's --engine
/// flag.  Auto resolves partitioned-vs-monolithic per obligation through
/// chooseEngine; the other two force one engine.
enum class EngineMode { Auto, Partitioned, Monolithic };

const char* toString(EngineMode m) noexcept;
/// Parse "auto" | "partitioned" | "monolithic"; false on anything else.
bool engineModeFromString(std::string_view text, EngineMode* out) noexcept;

/// One resolved engine decision plus the inputs that drove it — recorded
/// verbatim in the run trace (engine_choice event) and the report so a
/// surprising pick can be audited from the artifacts alone.  A size is
/// unset when nothing measured it: chooseEngine measures all four unless
/// its probe aborts, and a choice made without it (a component whose
/// checker takes the cone, see takesCone) leaves the product's size and
/// the cap unset.
struct EngineChoice {
  bool usePartitioned = true;
  /// True when the capped materialization probe ran (Auto path).
  bool probed = false;
  /// True when the probe aborted at the cap.
  bool probeAborted = false;
  std::optional<std::size_t> conjuncts;
  std::optional<std::uint64_t> partitionNodes;
  /// Size of the monolithic product (materialized, or completed by the
  /// probe).  Unset when the probe aborted: the partial product it caught
  /// crossing the cap depends on what the manager held before the probe,
  /// not on the system, and is no bound either (conjoining more conjuncts
  /// can shrink a BDD); probeAborted, capNodes and the reason explain the
  /// choice.
  std::optional<std::uint64_t> monolithicNodes;
  std::optional<std::uint64_t> capNodes;
  std::string reason;
};

inline constexpr std::uint64_t kProbeFloorNodes = 2048;
inline constexpr std::uint64_t kProbeFactor = 4;

/// Decide the preimage engine for `sys` (see file comment).  Single-
/// threaded: probes and may cache the system's monolithic relation.
EngineChoice chooseEngine(const SymbolicSystem& sys);

}  // namespace cmc::symbolic
