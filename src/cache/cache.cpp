#include "cache/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <thread>

#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace tabby::cache {

namespace {

namespace fs = std::filesystem;

using util::ByteReader;
using util::ByteWriter;
using util::Error;
using util::Result;

/// One write+rename attempt. The temp file is private to this attempt (pid
/// plus a per-process counter): two publishes of one entry, from two
/// threads or two processes, must never write through the same file, or
/// one's rename can expose the other's half-written bytes to a reader that
/// maps the entry. The name still ends in ".tmp", so the audit reports a
/// crashed publisher's leftover. The `cache.publish.rename` failpoint
/// models a transient publish fault (NFS rename hiccup, AV scanner holding
/// the target) — exactly what the retry loop below exists to absorb.
util::Status write_file_atomic_once(const fs::path& path, std::span<const std::byte> bytes) {
  static std::atomic<std::uint64_t> publishes{0};
  fs::path tmp = path;
  tmp += "." + std::to_string(::getpid()) + "." +
         std::to_string(publishes.fetch_add(1, std::memory_order_relaxed)) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Error{"cannot open for write: " + tmp.string()};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return Error{"write failed: " + tmp.string()};
  }
  std::error_code ec;
  if (util::failpoint::poll("cache.publish.rename")) {
    fs::remove(tmp, ec);
    return Error{"failpoint: injected publish failure: " + path.string()};
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Error{"cannot publish cache entry: " + path.string()};
  }
  return util::Status::ok_status();
}

/// Atomic publish with bounded retry: a half-written cache entry must never
/// be observable, so concurrent runs either see a whole entry or none.
/// Transient IO faults are retried up to 3 attempts total with jittered
/// backoff (~1ms, ~2ms); a still-failing publish returns the last error,
/// which the caller downgrades to a warning — cache publication is never a
/// run failure.
util::Status write_file_atomic(const fs::path& path, std::span<const std::byte> bytes) {
  constexpr int kAttempts = 3;
  util::Status status = util::Status::ok_status();
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    status = write_file_atomic_once(path, bytes);
    if (status.ok()) return status;
    if (attempt == kAttempts) break;
    obs::counter_add("cache.publish_retries");
    std::this_thread::sleep_for(publish_backoff(path.string(), attempt));
  }
  return status;
}

void write_stats(ByteWriter& out, const cpg::CpgStats& stats) {
  for (std::uint64_t count : cpg::build_counts(stats)) out.uvarint(count);
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof stats.build_seconds);
  __builtin_memcpy(&bits, &stats.build_seconds, sizeof bits);
  out.u64(bits);
}

std::optional<cpg::CpgStats> read_stats(ByteReader& in) {
  graph::BuildCounts counts{};
  for (std::uint64_t& count : counts) {
    auto v = in.uvarint();
    if (!v.ok()) return std::nullopt;
    count = v.value();
  }
  auto bits = in.u64();
  if (!bits.ok()) return std::nullopt;
  cpg::CpgStats stats = cpg::stats_from(counts);
  std::uint64_t raw = bits.value();
  __builtin_memcpy(&stats.build_seconds, &raw, sizeof raw);
  return stats;
}

}  // namespace

std::string CacheStats::to_line() const {
  std::string line = "cache: ";
  if (snapshot_checked) {
    line += std::string("snapshot ") + (snapshot_hit ? "hit" : "miss") + " (key " +
            util::digest_hex(snapshot_key) + ")";
  } else {
    line += "snapshot not consulted";
  }
  return line;
}

Result<AnalysisCache> AnalysisCache::open(const fs::path& dir) {
  std::error_code ec;
  fs::create_directories(dir / "snapshots", ec);
  if (ec) return Error{"cannot create cache directory: " + (dir / "snapshots").string()};
  return AnalysisCache(dir);
}

Result<std::uint64_t> AnalysisCache::digest_file(const fs::path& file) {
  auto bytes = util::read_file(file);
  if (!bytes.ok()) return bytes.error();
  return util::content_digest(bytes.value());
}

std::uint64_t AnalysisCache::snapshot_key(std::uint64_t options_fp,
                                          const std::vector<std::uint64_t>& archive_digests) {
  // The entry is the frame, so its format version is part of the key, and
  // the tag names the derivation: an entry any other layout or derivation
  // wrote is never looked up, only a plain miss.
  util::Fnv1a h;
  h.update("tabby-snapshot-key-v2");
  h.update_u64(graph::kFrozenVersion);
  h.update_u64(options_fp);
  h.update_u64(archive_digests.size());
  for (std::uint64_t digest : archive_digests) h.update_u64(digest);
  return h.digest();
}

fs::path AnalysisCache::snapshot_path(std::uint64_t key) const {
  return dir_ / "snapshots" / (util::digest_hex(key) + ".tsnp");
}

fs::path AnalysisCache::frozen_path(std::uint64_t key) const {
  return dir_ / "snapshots" / (util::digest_hex(key) + ".tfzn");
}

std::optional<CachedCpg> AnalysisCache::load_snapshot(std::uint64_t key, bool need_db) {
  obs::Span span("cache.load_snapshot");
  if (span.active()) span.attr("key", util::digest_hex(key));
  stats_.snapshot_checked = true;
  stats_.snapshot_key = key;
  stats_.snapshot_hit = false;

  // Every early return below is a miss; count it on the way out so the
  // hit/miss counters stay in lockstep with stats_.
  struct MissCounter {
    bool hit = false;
    ~MissCounter() { obs::counter_add(hit ? "cache.snapshot_hits" : "cache.snapshot_misses"); }
  } outcome;

  auto bytes = util::read_file(snapshot_path(key));
  if (!bytes.ok()) return std::nullopt;

  // Snapshot layout differs from the shared frame: the checksum covers only
  // the header (magic .. blob length), because the graph blob that follows
  // is a complete self-checksummed graph store — deserialize() rejects any
  // corruption in it, so hashing those megabytes twice buys nothing.
  ByteReader in(bytes.value());
  auto magic = in.u32();
  auto version = in.u16();
  if (!magic.ok() || !version.ok() || magic.value() != kSnapshotMagic ||
      version.value() != kSnapshotVersion) {
    return std::nullopt;
  }
  auto stored_key = in.u64();
  if (!stored_key.ok() || stored_key.value() != key) return std::nullopt;
  auto stats = read_stats(in);
  if (!stats) return std::nullopt;
  auto len = in.count("snapshot graph blob");
  if (!len.ok()) return std::nullopt;
  std::uint64_t header_sum =
      util::fnv1a(std::span<const std::byte>(bytes.value()).first(in.position()));
  auto stored_sum = in.u64();
  if (!stored_sum.ok() || stored_sum.value() != header_sum) return std::nullopt;
  if (len.value() != in.remaining()) return std::nullopt;

  CachedCpg cached;
  cached.stats = *stats;
  // What follows the header is exactly the embedded graph store.
  std::span<const std::byte> blob = std::span<const std::byte>(bytes.value()).subspan(in.position());
  if (need_db) {
    auto db = graph::deserialize(blob);
    if (!db.ok()) return std::nullopt;
    cached.db = std::move(db.value());
  } else {
    // A frozen warm start already carries the graph, so skip the expensive
    // node/edge decode — but keep the integrity contract: verify the store
    // blob's own frame (magic, version, trailing FNV-1a64) so a bit-flipped
    // snapshot is a miss on this path exactly as it is on the decode path.
    constexpr std::size_t kStoreOverhead = 4 + 2 + 8;
    if (blob.size() < kStoreOverhead) return std::nullopt;
    ByteReader head(blob);
    auto blob_magic = head.u32();
    auto blob_version = head.u16();
    if (!blob_magic.ok() || !blob_version.ok() || blob_magic.value() != graph::kGraphStoreMagic ||
        blob_version.value() != graph::kGraphStoreVersion) {
      return std::nullopt;
    }
    ByteReader blob_tail(blob.subspan(blob.size() - 8));
    auto blob_sum = blob_tail.u64();
    if (!blob_sum.ok() || blob_sum.value() != util::fnv1a(blob.first(blob.size() - 8))) {
      return std::nullopt;
    }
  }
  stats_.snapshot_hit = true;
  outcome.hit = true;
  return cached;
}

util::Status AnalysisCache::store_snapshot(std::uint64_t key, const cpg::CpgStats& stats,
                                           const std::vector<std::byte>& store) {
  obs::Span span("cache.store_snapshot");
  if (span.active()) span.attr("key", util::digest_hex(key));
  span.attr("bytes", static_cast<std::uint64_t>(store.size()));
  obs::counter_add("cache.snapshots_published");
  ByteWriter header;
  header.u32(kSnapshotMagic);
  header.u16(kSnapshotVersion);
  header.u64(key);
  write_stats(header, stats);
  header.uvarint(store.size());
  header.u64(util::fnv1a(header.data()));
  std::vector<std::byte> file = header.take();
  file.insert(file.end(), store.begin(), store.end());
  if (util::failpoint::poll("cache.snapshot.publish")) {
    return util::Error{"failpoint: injected snapshot publish failure"};
  }
  return write_file_atomic(snapshot_path(key), file);
}

std::optional<graph::FrozenGraph> AnalysisCache::load_frozen(std::uint64_t key,
                                                             std::string* corrupt_reason) {
  obs::Span span("cache.load_frozen");
  if (span.active()) span.attr("key", util::digest_hex(key));
  if (corrupt_reason) corrupt_reason->clear();
  stats_.snapshot_checked = true;
  stats_.snapshot_key = key;
  stats_.snapshot_hit = false;
  // Every early return below is a miss; count it on the way out so the
  // hit/miss counters stay in lockstep with stats_.
  struct MissCounter {
    bool hit = false;
    ~MissCounter() { obs::counter_add(hit ? "cache.snapshot_hits" : "cache.snapshot_misses"); }
  } outcome;

  fs::path path = frozen_path(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;  // plain miss, not corruption
  auto frozen = graph::FrozenGraph::map_file(path);
  if (!frozen.ok()) {
    if (corrupt_reason) *corrupt_reason = frozen.error().message;
    return std::nullopt;
  }
  if (frozen.value().content_key() != key) {
    if (corrupt_reason) *corrupt_reason = "frozen graph: content key does not match file name";
    return std::nullopt;
  }
  span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
  stats_.snapshot_hit = true;
  outcome.hit = true;
  return std::move(frozen.value());
}

util::Status AnalysisCache::store_frozen(std::uint64_t key, const graph::FrozenGraph& frozen) {
  obs::Span span("cache.store_frozen");
  if (span.active()) span.attr("key", util::digest_hex(key));
  span.attr("bytes", static_cast<std::uint64_t>(frozen.frame().size()));
  if (frozen.content_key() != key) {
    return util::Error{"frozen frame content key does not match snapshot key " +
                       util::digest_hex(key)};
  }
  obs::counter_add("cache.snapshots_published");
  // Written straight from the frame: a copy would add a frame-sized
  // transient to the open's peak.
  return write_file_atomic(frozen_path(key), frozen.frame());
}

// --- Offline audit ---------------------------------------------------------

namespace {

/// Reverse of util::digest_hex: exactly 16 lowercase hex digits.
std::optional<std::uint64_t> parse_digest_hex(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  for (char c : text) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return std::nullopt;
  }
  std::uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

/// Full frame validation mirroring load_frozen: structural attach plus the
/// content-key binding. Empty when intact, else why not.
std::string validate_frame(const fs::path& file, std::uint64_t expected_key) {
  auto bytes = util::read_file(file);
  if (!bytes.ok()) return "unreadable: " + bytes.error().message;
  auto frozen = graph::FrozenGraph::adopt(std::move(bytes.value()));
  if (!frozen.ok()) return frozen.error().message;
  if (frozen.value().content_key() != expected_key) {
    return "frozen graph: content key does not match file name";
  }
  return {};
}

/// Full snapshot validation mirroring load_snapshot, including deserializing
/// the embedded graph store (its own checksum is what catches blob flips).
std::string validate_snapshot(std::span<const std::byte> data, std::uint64_t expected_key) {
  ByteReader in(data);
  auto magic = in.u32();
  auto version = in.u16();
  if (!magic.ok() || !version.ok() || magic.value() != kSnapshotMagic ||
      version.value() != kSnapshotVersion) {
    return "bad header (magic or version mismatch)";
  }
  auto stored_key = in.u64();
  if (!stored_key.ok()) return "truncated header";
  if (stored_key.value() != expected_key) return "snapshot key does not match file name";
  if (!read_stats(in)) return "bad stats block";
  auto len = in.count("snapshot graph blob");
  if (!len.ok()) return "bad graph blob length";
  std::uint64_t header_sum = util::fnv1a(data.first(in.position()));
  auto stored_sum = in.u64();
  if (!stored_sum.ok() || stored_sum.value() != header_sum) return "header checksum mismatch";
  if (len.value() != in.remaining()) return "graph blob length mismatch";
  auto db = graph::deserialize(data.subspan(in.position()));
  if (!db.ok()) return "graph store does not deserialize: " + db.error().message;
  return {};
}

}  // namespace

std::string CacheAuditReport::to_string() const {
  std::string out = "cache audit: " + std::to_string(snapshots_checked) + " snapshot(s), " +
                    std::to_string(frozen_checked) + " frozen frame(s), " +
                    std::to_string(corrupt) + " corrupt, " + std::to_string(orphaned) +
                    " orphaned, " + std::to_string(reclaimable_bytes) + " byte(s) reclaimable";
  for (const CacheAuditEntry& entry : entries) {
    if (entry.state == CacheAuditEntry::State::Intact) continue;
    const char* state = entry.state == CacheAuditEntry::State::Corrupt ? "corrupt" : "orphaned";
    std::string name =
        (entry.path.parent_path().filename() / entry.path.filename()).generic_string();
    out += "\n  " + std::string(state) + ": " + name + " (" + std::to_string(entry.bytes) +
           " bytes): " + entry.detail;
    if (entry.pruned) out += " [pruned]";
  }
  if (reclaimed_bytes > 0) {
    out += "\n  reclaimed " + std::to_string(reclaimed_bytes) + " byte(s)";
  }
  out += "\n";
  return out;
}

util::Result<CacheAuditReport> audit_cache(const fs::path& dir, bool prune) {
  obs::Span span("cache.audit");
  std::error_code ec;
  fs::path snapshots_dir = dir / "snapshots";
  if (!fs::is_directory(snapshots_dir, ec)) {
    return Error{"not a cache directory (no snapshots/): " + dir.string()};
  }

  CacheAuditReport report;

  // Sorted file listing (directory iteration order is filesystem-dependent;
  // the report must not be).
  auto list_files = [&](const fs::path& sub) {
    std::vector<fs::path> files;
    if (!fs::is_directory(sub, ec)) return files;
    for (const fs::directory_entry& e : fs::directory_iterator(sub, ec)) {
      if (e.is_regular_file(ec)) files.push_back(e.path());
    }
    std::sort(files.begin(), files.end());
    return files;
  };

  // Shared accounting + prune for one examined file.
  auto finalize = [&](CacheAuditEntry entry) {
    if (entry.state != CacheAuditEntry::State::Intact) {
      if (entry.state == CacheAuditEntry::State::Corrupt) ++report.corrupt;
      if (entry.state == CacheAuditEntry::State::Orphaned) ++report.orphaned;
      report.reclaimable_bytes += entry.bytes;
      if (prune) {
        std::error_code rm;
        if (fs::remove(entry.path, rm) && !rm) {
          entry.pruned = true;
          report.reclaimed_bytes += entry.bytes;
          obs::counter_add("cache.entries_pruned");
        }
      }
    }
    report.entries.push_back(std::move(entry));
  };

  auto make_entry = [&](const fs::path& file) {
    CacheAuditEntry entry;
    entry.path = file;
    entry.bytes = fs::file_size(file, ec);
    if (ec) entry.bytes = 0;
    return entry;
  };

  auto orphan_detail = [](const fs::path& file) {
    return file.extension() == ".tmp" ? "leftover temp file from interrupted publish"
                                      : "file name is not a cache entry";
  };

  // An entry's state from its validator's verdict: empty = intact.
  auto judge = [](CacheAuditEntry& entry, std::string why) {
    entry.state = why.empty() ? CacheAuditEntry::State::Intact : CacheAuditEntry::State::Corrupt;
    entry.detail = std::move(why);
  };

  // Directories older cache layouts kept: per-archive fragments
  // (fragments/<digest>.tfrag) and per-chain `--verify` verdicts
  // (verdicts/<key>.tvdt). Nothing reads them any more, so every file left
  // there is an orphan; pruning also drops the emptied directory.
  struct Legacy {
    const char* dir;
    const char* extension;
    const char* detail;
  };
  constexpr Legacy kLegacy[] = {
      {"fragments", ".tfrag", "per-archive fragment (no longer read)"},
      {"verdicts", ".tvdt", "cached verdict (no longer read)"},
  };
  for (const Legacy& legacy : kLegacy) {
    fs::path legacy_dir = dir / legacy.dir;
    for (const fs::path& file : list_files(legacy_dir)) {
      CacheAuditEntry entry = make_entry(file);
      entry.detail = file.extension() == legacy.extension ? legacy.detail : orphan_detail(file);
      finalize(std::move(entry));
    }
    if (prune) fs::remove(legacy_dir, ec);  // only succeeds once empty
  }

  // Snapshots: a classpath's entry is its frame, <key>.tfzn, judged on its
  // own. A .tsnp (the store snapshot an older layout published next to
  // each frame) is intact only next to an intact frame of its key, and an
  // orphan otherwise. Pass 1 judges every frame, recording the intact keys;
  // pass 2 judges every file against them.
  std::vector<fs::path> snapshot_files = list_files(snapshots_dir);
  std::map<fs::path, std::string> frame_reason;  // path -> "" (intact) or why
  std::set<std::uint64_t> intact_keys;
  for (const fs::path& file : snapshot_files) {
    if (file.extension() != ".tfzn") continue;
    auto id = parse_digest_hex(file.stem().string());
    if (!id) continue;  // judged an orphan in the main loop below
    std::string why = validate_frame(file, *id);
    if (why.empty()) intact_keys.insert(*id);
    frame_reason.emplace(file, std::move(why));
  }
  for (const fs::path& file : snapshot_files) {
    CacheAuditEntry entry = make_entry(file);
    std::optional<std::uint64_t> id = parse_digest_hex(file.stem().string());
    if (id && file.extension() == ".tfzn") {
      entry.kind = CacheAuditEntry::Kind::FrozenSnapshot;
      ++report.frozen_checked;
      judge(entry, frame_reason.at(file));
    } else if (id && file.extension() == ".tsnp") {
      entry.kind = CacheAuditEntry::Kind::Snapshot;
      ++report.snapshots_checked;
      if (intact_keys.count(*id)) {
        auto bytes = util::read_file(file);
        judge(entry, bytes.ok() ? validate_snapshot(std::span<const std::byte>(bytes.value()), *id)
                                : "unreadable: " + bytes.error().message);
      } else {
        entry.state = CacheAuditEntry::State::Orphaned;
        entry.detail = "no intact frame (" + util::digest_hex(*id) + ".tfzn)";
      }
    } else {
      entry.kind = CacheAuditEntry::Kind::Orphan;
      entry.state = CacheAuditEntry::State::Orphaned;
      entry.detail = orphan_detail(file);
    }
    finalize(std::move(entry));
  }

  obs::counter_add("cache.entries_audited", report.entries.size());
  return report;
}

std::chrono::microseconds publish_backoff(std::string_view path, int attempt) {
  // Exponential base: ~1ms, ~2ms, ... for attempts 1, 2, ...
  int exponent = std::clamp(attempt - 1, 0, 20);
  std::uint64_t base = 1000ull << exponent;
  // Jitter decorrelates concurrent runs retrying the same entry. Seeded
  // from the path and the attempt — never the clock — so a chaos run
  // replays with byte-identical sleeps while different entries (and
  // successive attempts) still spread out.
  util::Rng jitter(0x7ab1cac4eULL ^ util::fnv1a(path) ^
                   (static_cast<std::uint64_t>(static_cast<unsigned>(attempt)) << 48));
  return std::chrono::microseconds(base + jitter.next_below(500));
}

}  // namespace tabby::cache
