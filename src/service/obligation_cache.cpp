#include "service/obligation_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "service/journal.hpp"
#include "service/trace_log.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/string_util.hpp"
#include "util/version.hpp"

namespace cmc::service {

namespace {

/// Bumped whenever checker semantics or the canonical serialization
/// change, so a persisted store from an older build can never serve a
/// verdict computed under different semantics.
constexpr const char* kCacheVersion = "cmc-obligation-cache-v2";

constexpr const char* kStoreFile = "obligations.jsonl";

/// The store's header line (framed): "format" gates loading, "cmc_version"
/// stamps the build that created the store so a mixed-version --cache-dir
/// is diagnosable.  Written once, by whichever process first appends to an
/// empty store (under the same flock as the entry append).
std::string storeHeader() {
  return frameLine(JsonObject()
                       .put("format", kCacheVersion)
                       .put("cmc_version", util::versionString())
                       .str());
}

/// Write all of `data`, retrying on short writes and EINTR.
bool writeAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// One store line: the entry object wrapped in the journal's CRC framing
/// (frameLine), so a crash mid-append can never yield a silently
/// half-parsed entry.  The proof certificate is stored as a JSON *string*
/// (escaped), not a nested object.
std::string storeLine(const std::string& fingerprint, const CachedVerdict& v) {
  JsonObject obj;
  obj.put("fp", fingerprint)
      .put("verdict", toString(v.verdict))
      .put("rule", v.rule)
      .put("engine", v.engine)
      .putDouble("seconds", v.seconds);
  if (!v.counterexample.empty()) obj.put("counterexample", v.counterexample);
  if (!v.proofJson.empty()) obj.put("proof", v.proofJson);
  return frameLine(obj.str());
}

/// Read one store line into its object.  Framed lines are checksummed;
/// bare lines (stores written before the framing existed) get the strict
/// parse alone, and a bare line that carries a "crc" member is a framed
/// line whose checksum failed.  False for a corrupt line.
bool readStoreLine(const std::string& line, util::JsonValue* doc,
                   bool* framed) {
  const std::optional<std::string> payload = unframeLine(line);
  *framed = payload.has_value();
  if (!util::parseJson(*framed ? *payload : line, doc, nullptr) ||
      !doc->isObject()) {
    return false;
  }
  return *framed || doc->find("crc") == nullptr;
}

/// The store's format when `doc` is its header line (framed, with a
/// string "format"), else nullopt.
std::optional<std::string> headerFormat(const util::JsonValue& doc,
                                        bool framed) {
  std::string format;
  if (!framed || !doc.req("format", &format)) return std::nullopt;
  return format;
}

/// Strict inverse of a storeLine payload; any deviation marks the line
/// corrupt.
bool parseStoreEntry(const util::JsonValue& doc, std::string* fingerprint,
                     CachedVerdict* v) {
  std::string verdict;
  if (!doc.req("fp", fingerprint) || fingerprint->empty() ||
      !doc.req("verdict", &verdict)) {
    return false;
  }
  if (verdict == "Holds") v->verdict = Verdict::Holds;
  else if (verdict == "Fails") v->verdict = Verdict::Fails;
  else return false;  // only decided verdicts belong in the store
  return doc.req("rule", &v->rule) && doc.req("engine", &v->engine) &&
         doc.req("seconds", &v->seconds) &&
         doc.opt("counterexample", &v->counterexample) &&
         doc.opt("proof", &v->proofJson);
}

}  // namespace

ObligationCache::ObligationCache() : ObligationCache(Options{}) {}

ObligationCache::ObligationCache(Options opts) : dir_(std::move(opts.dir)) {
  const std::size_t capacity = opts.capacity < 1 ? 1 : opts.capacity;
  perShardCapacity_ = (capacity + kShards - 1) / kShards;
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr,
                   "obligation cache: cannot create %s (%s); "
                   "running in-memory only\n",
                   dir_.c_str(), ec.message().c_str());
      dir_.clear();
    } else {
      diskPath_ = (std::filesystem::path(dir_) / kStoreFile).string();
      loadDisk();
    }
  }
}

ObligationCache::Shard& ObligationCache::shardFor(
    const std::string& fingerprint) {
  std::size_t seed = 0;
  for (char c : fingerprint) {
    hashCombine(seed, static_cast<unsigned char>(c));
  }
  return shards_[mix64(seed) % kShards];
}

std::optional<CachedVerdict> ObligationCache::lookup(
    const std::string& fingerprint) {
  Shard& shard = shardFor(fingerprint);
  std::optional<CachedVerdict> result;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(fingerprint);
    if (it != shard.index.end()) {
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      result = it->second->second;
    }
  }
  std::lock_guard<std::mutex> lock(statsMutex_);
  if (result.has_value()) ++stats_.hits;
  else ++stats_.misses;
  return result;
}

bool ObligationCache::insertMemory(const std::string& fingerprint,
                                   const CachedVerdict& v) {
  Shard& shard = shardFor(fingerprint);
  bool isNew = false;
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(fingerprint);
    if (it != shard.index.end()) {
      shard.order.splice(shard.order.begin(), shard.order, it->second);
      it->second->second = v;
    } else {
      shard.order.emplace_front(fingerprint, v);
      shard.index.emplace(fingerprint, shard.order.begin());
      isNew = true;
      while (shard.order.size() > perShardCapacity_) {
        shard.index.erase(shard.order.back().first);
        shard.order.pop_back();
        ++evicted;
      }
    }
  }
  if (isNew || evicted > 0) {
    std::lock_guard<std::mutex> lock(statsMutex_);
    if (isNew) ++stats_.inserts;
    stats_.evictions += evicted;
  }
  return isNew;
}

bool ObligationCache::insert(const std::string& fingerprint,
                             const CachedVerdict& v) {
  if (fingerprint.empty() || !cacheable(v.verdict)) return false;
  const bool isNew = insertMemory(fingerprint, v);
  if (isNew && !diskPath_.empty()) appendDisk(fingerprint, v);
  return isNew;
}

void ObligationCache::loadDisk() {
  std::ifstream in(diskPath_);
  if (!in) return;  // no store yet — first run in this directory
  std::string line;
  std::uint64_t loaded = 0, corrupt = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string fingerprint;
    CachedVerdict v;
    try {
      CMC_FAILPOINT("cache.disk_load");
      util::JsonValue doc;
      bool framed = false;
      if (!readStoreLine(line, &doc, &framed)) {
        ++corrupt;
        continue;
      }
      if (const std::optional<std::string> format = headerFormat(doc, framed)) {
        // Header line.  A future-format store must not serve verdicts
        // computed under different semantics: stop loading entirely.
        if (*format != kCacheVersion) {
          std::fprintf(stderr,
                       "obligation cache: %s has format '%s' (this build "
                       "writes '%s'); ignoring the store\n",
                       diskPath_.c_str(), format->c_str(), kCacheVersion);
          return;
        }
        continue;
      }
      if (parseStoreEntry(doc, &fingerprint, &v)) {
        insertMemory(fingerprint, v);
        ++loaded;
      } else {
        ++corrupt;
      }
    } catch (const std::exception&) {
      // An I/O or injected failure costs this line, never the store.
      ++corrupt;
    }
  }
  if (corrupt > 0) {
    std::fprintf(stderr,
                 "obligation cache: skipped %llu corrupt line(s) in %s\n",
                 static_cast<unsigned long long>(corrupt), diskPath_.c_str());
  }
  std::lock_guard<std::mutex> lock(statsMutex_);
  stats_.loaded += loaded;
  stats_.corruptLines += corrupt;
  // Loading is not inserting: report only what the run itself adds.
  stats_.inserts = 0;
  stats_.evictions = 0;
}

void ObligationCache::appendDisk(const std::string& fingerprint,
                                 const CachedVerdict& v) {
  // Disk-tier failures degrade to in-memory caching; they never propagate
  // into the obligation that produced the verdict.
  try {
    std::string data = storeLine(fingerprint, v) + "\n";
    std::lock_guard<std::mutex> lock(diskMutex_);
    CMC_FAILPOINT("cache.disk_append");
    // The diskMutex_ serializes this process's appenders; the flock below
    // serializes *processes* sharing one --cache-dir, so two cmc instances
    // can never interleave bytes mid-line.  Each append is a single
    // write(2) to an O_APPEND descriptor while holding the lock; a reader
    // — or a crash — sees whole lines plus at most one truncated tail,
    // which the checksum rejects on load.
    const int fd = ::open(diskPath_.c_str(), O_CREAT | O_WRONLY | O_APPEND,
                          0644);
    if (fd < 0) throw Error("cannot open " + diskPath_);
    bool ok = false;
    std::string failure;
    if (::flock(fd, LOCK_EX) == 0) {
      // Whichever locked an empty store first prepends the header.
      const off_t size = ::lseek(fd, 0, SEEK_END);
      if (size == 0) data.insert(0, storeHeader() + "\n");
      ok = writeAll(fd, data);
      if (!ok) failure = "write to " + diskPath_ + " failed";
      ::flock(fd, LOCK_UN);
    } else {
      failure = "flock on " + diskPath_ + " failed";
    }
    ::close(fd);
    if (!ok) throw Error(failure);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "obligation cache: append failed: %s\n", e.what());
  }
}

ObligationCacheStats ObligationCache::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

std::size_t ObligationCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.order.size();
  }
  return total;
}

bool compactObligationStore(const std::string& dir, CompactionResult* result,
                            std::string* error) {
  *result = CompactionResult{};
  const std::string path =
      (std::filesystem::path(dir) / kStoreFile).string();
  // O_RDWR (not O_RDONLY): the flock must be the same exclusive lock
  // appenders take, so a concurrent `cmc serve` append waits out the
  // whole rewrite instead of racing the rename.
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  // LOCK_NB: appenders hold the store flock only for the duration of one
  // append, so a lock we cannot take immediately means a live writer is
  // mid-append — refuse rather than silently rewriting a store another
  // process is actively growing.  (A writer that appends *between* our
  // lock and the rename still loses nothing: it waits on the same flock.)
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    if (errno == EWOULDBLOCK) {
      *error = path +
               " is locked by a live writer (a running cmc serve or check "
               "is appending); compact when the store is quiescent";
    } else {
      *error = "flock on " + path + " failed: " + std::strerror(errno);
    }
    ::close(fd);
    return false;
  }
  const auto unlockAndClose = [&] {
    ::flock(fd, LOCK_UN);
    ::close(fd);
  };

  std::string contents;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) != 0) {
      if (n < 0) {
        if (errno == EINTR) continue;
        *error = "read " + path + " failed: " + std::strerror(errno);
        unlockAndClose();
        return false;
      }
      contents.append(buf, static_cast<std::size_t>(n));
    }
  }
  result->bytesBefore = contents.size();

  // Last write wins: later occurrences of a fingerprint replace earlier
  // ones in place, keeping first-occurrence order (so a compacted store
  // loads in the same LRU-seeding order as the original).
  std::unordered_map<std::string, std::size_t> slotByFp;
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < contents.size()) {
    std::size_t end = contents.find('\n', at);
    if (end == std::string::npos) end = contents.size();
    std::string line = contents.substr(at, end - at);
    at = end + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    util::JsonValue doc;
    bool wasFramed = false;
    const bool readable = readStoreLine(line, &doc, &wasFramed);
    if (const std::optional<std::string> format =
            readable ? headerFormat(doc, wasFramed) : std::nullopt) {
      if (*format != kCacheVersion) {
        *error = path + " has format '" + *format + "' (this build writes '" +
                 kCacheVersion + "'); refusing to compact";
        unlockAndClose();
        return false;
      }
      continue;  // a fresh header is stamped below
    }
    std::string fingerprint;
    CachedVerdict v;
    if (!readable || !parseStoreEntry(doc, &fingerprint, &v)) {
      ++result->corrupt;
      continue;
    }
    ++result->entriesBefore;
    // Keep the surviving line byte-identical when it was already framed;
    // legacy bare lines gain framing here.
    const std::string framed =
        wasFramed ? line : frameLine(std::string(trim(line)));
    const auto it = slotByFp.find(fingerprint);
    if (it != slotByFp.end()) {
      ++result->duplicates;
      lines[it->second] = framed;
    } else {
      slotByFp.emplace(fingerprint, lines.size());
      lines.push_back(framed);
    }
  }
  result->entriesAfter = lines.size();

  std::string data = storeHeader() + "\n";
  for (const std::string& line : lines) {
    data += line;
    data += '\n';
  }
  result->bytesAfter = data.size();

  const std::string tmpPath = path + ".compact.tmp";
  const int tmpFd =
      ::open(tmpPath.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (tmpFd < 0) {
    *error = "cannot create " + tmpPath + ": " + std::strerror(errno);
    unlockAndClose();
    return false;
  }
  const bool wrote = writeAll(tmpFd, data) && ::fsync(tmpFd) == 0;
  ::close(tmpFd);
  // Crash window under test: the temp file exists but the rename has not
  // happened.  The original store must survive untouched and the flock
  // must be released (the error path below does both).
  try {
    CMC_FAILPOINT("cache.compact");
  } catch (const std::exception& e) {
    *error = std::string("compaction aborted: ") + e.what();
    ::unlink(tmpPath.c_str());
    unlockAndClose();
    return false;
  }
  if (!wrote || ::rename(tmpPath.c_str(), path.c_str()) != 0) {
    *error = "rewrite of " + path + " failed: " + std::strerror(errno);
    ::unlink(tmpPath.c_str());
    unlockAndClose();
    return false;
  }
  unlockAndClose();
  return true;
}

std::string obligationFingerprint(const std::vector<std::string>& moduleCanon,
                                  std::size_t moduleIndex, bool composed,
                                  const ctl::Spec& spec,
                                  const JobOptions& options) {
  StableHash128 prefix = fingerprintPrefix(composed);
  if (composed) {
    // The composed verdict depends on every component (and on their
    // interleaving order, which fixes the composition's variable set).
    for (const std::string& canon : moduleCanon) addCanon(prefix, canon);
  } else {
    addCanon(prefix, moduleCanon.at(moduleIndex));
  }
  addRestriction(prefix, spec.r.toString());
  return finishFingerprint(prefix, ctl::toString(spec.f), options);
}

StableHash128 fingerprintPrefix(bool composed) {
  StableHash128 h;
  h.update(kCacheVersion).sep();
  h.update(composed ? "composed" : "component").sep();
  return h;
}

void addCanon(StableHash128& prefix, std::string_view canon) {
  prefix.update(canon).sep();
}

void addRestriction(StableHash128& prefix, std::string_view restriction) {
  // The restriction index r = (I, F): ⊨_r verdicts are not transferable
  // across restrictions, so r must be part of the address (THEORY.md).
  prefix.update(restriction).sep();
}

std::string finishFingerprint(StableHash128 prefix, std::string_view formula,
                              const JobOptions& options) {
  prefix.update(formula).sep();
  // Verdict-relevant options.  Engine and clustering do not change Holds /
  // Fails (results are BDD-identical), but keeping them in the key makes
  // every cached verdict attributable to one exact configuration — and a
  // future engine whose semantics drift cannot alias an old entry.
  // EngineMode::Partitioned hashes to "partitioned", so entries written by
  // older builds (which hashed the boolean engine flag) stay addressable.
  prefix.update(symbolic::toString(options.engine)).sep();
  prefix.update(std::to_string(options.clusterThreshold)).sep();
  prefix.update(options.reorderBeforeCheck ? "reorder" : "noreorder").sep();
  // The v2 key ends in an assumption-provenance field, empty for every
  // job; hashing the bare tag keeps the entries older builds wrote
  // addressable.
  prefix.update("assume:").sep();
  return prefix.hex();
}

}  // namespace cmc::service
