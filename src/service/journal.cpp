#include "service/journal.hpp"

#include <array>
#include <cstdio>

#include "service/trace_log.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/version.hpp"

namespace cmc::service {

namespace {

constexpr const char* kJournalFormat = "cmc-journal-v1";

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

std::string crcHex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xffffffffu;
  for (unsigned char b : bytes) {
    c = table[(c ^ b) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

std::string frameLine(const std::string& payloadJson) {
  CMC_ASSERT(payloadJson.size() >= 2 && payloadJson.front() == '{' &&
             payloadJson.back() == '}');
  std::string out = payloadJson;
  out.pop_back();  // drop the closing brace; restored after the crc field
  out += ", \"crc\": \"";
  out += crcHex(crc32(payloadJson));
  out += "\"}";
  return out;
}

std::optional<std::string> unframeLine(std::string_view line) {
  // The framing suffix is fixed-width: `, "crc": "xxxxxxxx"}`.
  static constexpr std::string_view kPrefix = ", \"crc\": \"";
  static constexpr std::size_t kSuffixLen = kPrefix.size() + 8 + 2;
  if (line.size() < kSuffixLen + 2 || line.back() != '}') return std::nullopt;
  const std::size_t at = line.size() - kSuffixLen;
  if (line.substr(at, kPrefix.size()) != kPrefix) return std::nullopt;
  const std::string_view hex = line.substr(at + kPrefix.size(), 8);
  if (line.substr(at + kPrefix.size() + 8) != "\"}") return std::nullopt;
  std::uint32_t stored = 0;
  for (char h : hex) {
    stored <<= 4;
    if (h >= '0' && h <= '9') stored |= static_cast<std::uint32_t>(h - '0');
    else if (h >= 'a' && h <= 'f') stored |= static_cast<std::uint32_t>(h - 'a' + 10);
    else return std::nullopt;
  }
  std::string payload(line.substr(0, at));
  payload += '}';
  if (crc32(payload) != stored) return std::nullopt;
  return payload;
}

bool verdictFromString(std::string_view text, Verdict* out) noexcept {
  static constexpr Verdict kAll[] = {
      Verdict::Holds,     Verdict::Fails, Verdict::Timeout,
      Verdict::MemoryOut, Verdict::Inconclusive,
      Verdict::Cancelled, Verdict::Error,
  };
  for (Verdict v : kAll) {
    if (text == toString(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

std::string journalKey(const JournalEntry& e) {
  if (!e.fingerprint.empty()) return "fp:" + e.fingerprint;
  // Identity fallback: stable for a re-run of the same command line; the
  // \x1f separators keep concatenation unambiguous.
  return "id:" + e.job + "\x1f" + e.id + "\x1f" + e.specText;
}

namespace {

std::string entryLine(const JournalEntry& e) {
  JsonObject obj;
  obj.put("fp", e.fingerprint)
      .put("job", e.job)
      .put("id", e.id)
      .put("target", e.target)
      .put("spec", e.spec)
      .put("spec_text", e.specText)
      .put("verdict", toString(e.verdict))
      .put("rule", e.rule)
      .put("engine", e.engine)
      .putDouble("seconds", e.seconds);
  if (!e.error.empty()) obj.put("error", e.error);
  if (!e.counterexample.empty()) obj.put("counterexample", e.counterexample);
  // The proof certificate is stored as an escaped JSON *string*, the same
  // convention as the cache store.
  if (!e.proofJson.empty()) obj.put("proof", e.proofJson);
  return frameLine(obj.str());
}

/// Strict inverse of entryLine's payload; any deviation marks the line
/// corrupt.  The payload has already passed the checksum, so failures here
/// mean a foreign or future-format line, not a torn write.
bool parseEntry(const util::JsonValue& doc, JournalEntry* e) {
  std::string verdict;
  return doc.req("id", &e->id) && doc.req("verdict", &verdict) &&
         verdictFromString(verdict, &e->verdict) &&
         doc.opt("fp", &e->fingerprint) && doc.opt("job", &e->job) &&
         doc.opt("target", &e->target) && doc.opt("spec", &e->spec) &&
         doc.opt("spec_text", &e->specText) && doc.opt("rule", &e->rule) &&
         doc.opt("engine", &e->engine) && doc.opt("seconds", &e->seconds) &&
         doc.opt("error", &e->error) &&
         doc.opt("counterexample", &e->counterexample) &&
         doc.opt("proof", &e->proofJson);
}

}  // namespace

JournalReplay loadJournal(const std::string& path) {
  JournalReplay replay;
  std::ifstream in(path);
  if (!in) return replay;  // no journal — fresh run
  replay.found = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      CMC_FAILPOINT("journal.load");
      const std::optional<std::string> payload = unframeLine(line);
      util::JsonValue doc;
      if (!payload.has_value() || !util::parseJson(*payload, &doc, nullptr) ||
          !doc.isObject()) {
        ++replay.corrupt;
        continue;
      }
      std::string format;
      if (doc.req("format", &format)) {
        // Header line; a future-format journal is not replayable.
        if (format != kJournalFormat) ++replay.corrupt;
        continue;
      }
      JournalEntry e;
      if (!parseEntry(doc, &e)) {
        ++replay.corrupt;
        continue;
      }
      ++replay.lines;
      if (e.verdict == Verdict::Holds || e.verdict == Verdict::Fails) {
        // Last write wins: a resumed run's fresh verdict supersedes an
        // older entry for the same obligation.
        replay.decided[journalKey(e)] = std::move(e);
      } else {
        ++replay.undecided;
      }
    } catch (const std::exception&) {
      ++replay.corrupt;
    }
  }
  return replay;
}

bool RunJournal::open(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  bool existed = false;
  bool endsWithNewline = true;
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe.good()) {
      probe.seekg(0, std::ios::end);
      if (probe.tellg() > 0) {
        existed = true;
        probe.seekg(-1, std::ios::end);
        char last = '\n';
        probe.get(last);
        endsWithNewline = last == '\n';
      }
    }
  }
  out_.open(path, std::ios::app);
  if (!out_) {
    if (error != nullptr) *error = "cannot open journal " + path;
    return false;
  }
  path_ = path;
  degraded_ = false;
  if (!existed) {
    // The header stamps the writing build: "format" gates replayability,
    // "cmc_version" diagnoses mixed-version journals (extra keys are
    // ignored by older loaders).
    out_ << frameLine(JsonObject()
                          .put("format", kJournalFormat)
                          .put("cmc_version", util::versionString())
                          .str())
         << '\n';
    out_.flush();
  } else if (!endsWithNewline) {
    // A crash tore the final append mid-line (no trailing newline).
    // Terminate the torn tail so our first entry starts a fresh line —
    // otherwise it would concatenate onto the tail and both would fail
    // the checksum on the next load.
    out_ << '\n';
    out_.flush();
  }
  return true;
}

bool RunJournal::isOpen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return out_.is_open() && !degraded_;
}

void RunJournal::record(const JournalEntry& e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!out_.is_open() || degraded_) return;
  try {
    CMC_FAILPOINT("journal.append");
    // One buffered write + flush: the line lands with a single append, so
    // a crash leaves whole lines plus at most one torn tail.
    out_ << entryLine(e) << '\n';
    out_.flush();
    if (!out_) throw Error("journal: write to " + path_ + " failed");
    ++recorded_;
  } catch (const std::exception& ex) {
    // Journal I/O must never take down the batch: degrade to no journal
    // (the run continues; only resumability is lost) and say so once.
    degraded_ = true;
    std::fprintf(stderr, "journal: %s; continuing without a journal\n",
                 ex.what());
  }
}

std::uint64_t RunJournal::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

}  // namespace cmc::service
