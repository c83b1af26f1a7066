// Crash-safe run journal (service layer): per-obligation durability for
// batch runs.  Every obligation's final outcome is appended to a JSONL
// journal the moment it is decided — append + flush, one line per
// obligation, each line carrying a CRC-32 framing checksum — so a crashed
// or SIGKILLed run loses at most the line being written, never a decided
// verdict.  `cmc --resume` loads the journal, serves the already-decided
// obligations (verdict_source "journal" in trace and report), and re-runs
// only the remainder.
//
// Framing
//   A journal line is a flat JSON object whose LAST key is "crc":
//     {"fp": "...", ..., "crc": "9a3f12cd"}
//   The checksum covers the payload exactly as serialized (the object with
//   the ", \"crc\": ...\"" suffix removed and the brace restored), so a
//   torn tail, a flipped byte, or an interleaved partial write is detected
//   and the line dropped on load — corruption is counted, never parsed.
//   The framing is byte-exact and part of the disk format; the payload it
//   guards is read with the strict JSON reader (util/json.hpp), where a
//   missing required field or a field of the wrong type also counts the
//   line corrupt.  The obligation cache's disk store reuses this framing
//   (frameLine / unframeLine), giving both durability files one
//   inspection story.
//
// Replay semantics
//   Only decided verdicts (Holds / Fails) are served on resume; budget
//   verdicts, Cancelled, and Error say nothing about ⊨_r and are re-run.
//   Entries are matched by content fingerprint when one was computed (the
//   obligation cache's address, so an edited model re-verifies), with a
//   (job, obligation id, spec text) identity fallback otherwise.  A resumed
//   run is expected to use the same command line as the original; the
//   fingerprint embeds the verdict-relevant options, so an engine-option
//   change re-verifies fingerprinted obligations automatically.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "service/job.hpp"

namespace cmc::service {

/// CRC-32 (IEEE 802.3, reflected) — the journal's per-line checksum.
std::uint32_t crc32(std::string_view bytes) noexcept;

/// Frame a serialized flat JSON object with a trailing checksum field:
/// {"k": v} -> {"k": v, "crc": "xxxxxxxx"}.  The input must be a
/// non-empty object serialization ({...}).
std::string frameLine(const std::string& payloadJson);

/// Verify and strip the framing checksum.  Returns the payload object, or
/// nullopt for torn, truncated, or corrupted lines.
std::optional<std::string> unframeLine(std::string_view line);

/// Parse a verdict name as written by toString(Verdict).
bool verdictFromString(std::string_view text, Verdict* out) noexcept;

/// One journaled obligation outcome.
struct JournalEntry {
  /// Content fingerprint (obligation-cache address); may be empty when
  /// fingerprinting failed or the cache key was unavailable.
  std::string fingerprint;
  std::string job;
  std::string id;        ///< "<target>/<spec name>"
  std::string target;
  std::string spec;
  std::string specText;
  Verdict verdict = Verdict::Error;
  std::string rule;
  std::string engine;
  double seconds = 0.0;
  std::string error;
  std::string counterexample;
  std::string proofJson;
};

/// The identity under which an entry is replayed: the content fingerprint
/// when present, else a (job, id, spec text) fallback.
std::string journalKey(const JournalEntry& e);

/// A loaded journal: the decided entries by replay key (last write wins),
/// plus load diagnostics.
struct JournalReplay {
  std::unordered_map<std::string, JournalEntry> decided;
  std::uint64_t lines = 0;      ///< well-formed entry lines
  std::uint64_t undecided = 0;  ///< entries with non-replayable verdicts
  std::uint64_t corrupt = 0;    ///< torn/checksum-failed/unparseable lines
  bool found = false;           ///< the journal file existed

  const JournalEntry* find(const std::string& key) const {
    const auto it = decided.find(key);
    return it == decided.end() ? nullptr : &it->second;
  }
};

/// Load a journal for --resume.  A missing file yields found == false (a
/// fresh run, not an error); corrupt lines are skipped and counted.
JournalReplay loadJournal(const std::string& path);

/// The append-side journal writer.  Thread-safe: workers record outcomes
/// concurrently; each record is one buffered write followed by a flush, so
/// a crash tears at most the final line (which the loader drops).  An
/// append failure degrades the journal (warn once, stop writing) — journal
/// I/O must never take down a batch.
class RunJournal {
 public:
  /// Open for append (the resume workflow keeps extending one file).  A
  /// new/empty file gets a framed format-header line.  Returns false with
  /// a message on failure.
  bool open(const std::string& path, std::string* error);

  bool isOpen() const;

  /// Append one outcome (append + flush under the writer mutex).
  void record(const JournalEntry& e);

  const std::string& path() const noexcept { return path_; }
  std::uint64_t recorded() const;

 private:
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::string path_;
  std::uint64_t recorded_ = 0;
  bool degraded_ = false;
};

}  // namespace cmc::service
