// Incremental analysis cache (the ROADMAP's "not doing the work at all"
// multiplier). Real deployments re-scan near-identical classpaths; the
// paper's Neo4j store exists precisely so a graph built once can be
// re-queried. A cache directory holds one entry per classpath, keyed by
// content digests (util/digest.hpp):
//
//   snapshots/<key>.tfzn       a classpath's whole cache entry: the frozen
//                              graph::FrozenGraph frame (docs/GRAPH.md) whose
//                              embedded content key is <key>. Besides the
//                              graph it carries the planner's cardinality
//                              stats and the CPG's build counts, so a warm
//                              run mmaps it zero-copy and needs nothing else.
//                              Keyed by snapshot_key(): the
//                              cpg::options_fingerprint folded with the frame
//                              format version and the digest of every
//                              archive's raw bytes in classpath order (order
//                              matters — the linker's first-wins rule). A
//                              changed archive changes the key, so the next
//                              run rebuilds the whole classpath.
//
// Archives themselves are not cached: a TJAR archive already is the lifted
// form the analysis reads, and decoding one costs no more than loading a
// cached copy would. Nor are `--verify` verdicts: replaying all 79 chains
// of the 26-archive ysoserial classpath in the mini-VM takes about 2 ms,
// and reading cached verdicts back saved about 1 ms of a 120-200 ms warm
// run. No product path writes or reads a store snapshot
// (snapshots/<key>.tsnp: CpgStats plus a graph::serialize blob);
// store_snapshot and load_snapshot serve the per-layer benchmark harness
// (perfbench/), and the audit keeps a .tsnp only next to an intact frame of
// its key.
//
// Invalidation is purely structural: there are no timestamps and no
// in-place updates. A changed input or option produces a different key and
// therefore a different file; stale entries are never read again. Corrupt,
// truncated or version-skewed cache entries are detected via the same
// magic/version/checksum discipline as the graph store and are treated as
// misses (the cache self-heals by recomputing and overwriting), never as
// errors and never as data. A frame carries a whole-entry checksum.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "util/result.hpp"

namespace tabby::cache {

inline constexpr std::uint32_t kSnapshotMagic = 0x54534E50;  // "TSNP"
inline constexpr std::uint16_t kSnapshotVersion = 1;

/// Hit/miss telemetry for one pipeline run, rendered as the CLI's
/// "cache:" stats line.
struct CacheStats {
  bool snapshot_checked = false;
  bool snapshot_hit = false;
  std::uint64_t snapshot_key = 0;

  std::string to_line() const;
};

/// A store snapshot read back: its stats plus the deserialized graph. When
/// load_snapshot() was asked to skip the decode (`need_db = false`), `db` is
/// empty.
struct CachedCpg {
  cpg::CpgStats stats;
  graph::GraphDb db;
};

class AnalysisCache {
 public:
  /// Opens the cache rooted at `dir`, creating the directory layout on
  /// first use. Fails only when the directories cannot be created.
  static util::Result<AnalysisCache> open(const std::filesystem::path& dir);

  /// `util::content_digest` of a .tjar on disk (reads the file; no decode):
  /// the same digest the pipeline keys a classpath with.
  static util::Result<std::uint64_t> digest_file(const std::filesystem::path& file);

  /// Combined snapshot key for a classpath: `options_fp` (see
  /// cpg::options_fingerprint) folded with the archive digests in classpath
  /// order. Pure function — stable across job counts and process restarts.
  static std::uint64_t snapshot_key(std::uint64_t options_fp,
                                    const std::vector<std::uint64_t>& archive_digests);

  /// Store-snapshot lookup (snapshots/<key>.tsnp). No product path calls
  /// it; the per-layer benchmark harness does. nullopt on miss (absent,
  /// corrupt, truncated or version-skewed snapshot). Updates stats(). With
  /// `need_db = false` the embedded graph store is NOT deserialized; its
  /// trailing checksum is still verified so a corrupt blob stays a miss
  /// either way.
  std::optional<CachedCpg> load_snapshot(std::uint64_t key, bool need_db = true);

  /// Persists a store snapshot: `store` must be graph::serialize(db) of the
  /// CPG the stats describe. No product path calls it. Written atomically:
  /// each publish writes its own temp file and renames it over the entry, so
  /// concurrent publishes of one key never expose a torn file to a reader.
  util::Status store_snapshot(std::uint64_t key, const cpg::CpgStats& stats,
                              const std::vector<std::byte>& store);

  /// Warm-start lookup: mmaps snapshots/<key>.tfzn (zero-copy) and
  /// validates the whole frame plus the embedded content key. Updates
  /// stats(). nullopt on any miss; when the file exists but fails validation
  /// (corrupt, truncated or version-skewed), `corrupt_reason` (if non-null)
  /// receives the structural reason — the caller's cue to emit a degradation
  /// warning before it rebuilds. Absent files leave it empty. Counters:
  /// cache.snapshot_hits / cache.snapshot_misses.
  std::optional<graph::FrozenGraph> load_frozen(std::uint64_t key,
                                                std::string* corrupt_reason = nullptr);

  /// Publishes a classpath's entry, its frame. `frozen` must have been built
  /// with content key == `key` (enforced; a mismatch is an error, not a
  /// silent bad entry). Written atomically like every other cache file.
  util::Status store_frozen(std::uint64_t key, const graph::FrozenGraph& frozen);

  CacheStats& stats() { return stats_; }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  explicit AnalysisCache(std::filesystem::path dir) : dir_(std::move(dir)) {}

  std::filesystem::path snapshot_path(std::uint64_t key) const;
  std::filesystem::path frozen_path(std::uint64_t key) const;

  std::filesystem::path dir_;
  CacheStats stats_;
};

// --- Offline audit (the `tabby cache` subcommand) --------------------------
//
// Lazy self-healing only repairs entries a run happens to touch; a cache
// directory accumulates corrupt and orphaned files it never reads again.
// audit_cache() walks the whole directory eagerly, re-validating every entry
// with the exact discipline the hot path applies (full structural attach +
// content-key binding for frames) and flagging what the hot path would
// treat as a miss — plus files the cache would never consult at all
// (orphans: stray names, leftover .tmp files from interrupted publishes, a
// .tsnp store snapshot without an intact frame of its key, and every file
// under the fragments/ and verdicts/ directories that older cache layouts
// kept per archive and per verified chain). A .tsnp next to an intact frame
// is validated like load_snapshot would (header checksum + embedded graph
// store deserialization).

/// One file examined by audit_cache(), in deterministic (sorted) walk order.
struct CacheAuditEntry {
  enum class Kind : std::uint8_t { Snapshot, FrozenSnapshot, Orphan };
  enum class State : std::uint8_t { Intact, Corrupt, Orphaned };

  std::filesystem::path path;
  Kind kind = Kind::Orphan;
  State state = State::Orphaned;
  std::uintmax_t bytes = 0;
  bool pruned = false;        // removed by this audit (prune mode only)
  std::string detail;         // human-readable reason for non-intact states
};

struct CacheAuditReport {
  std::vector<CacheAuditEntry> entries;
  /// Always 0: archives are no longer cached, and a leftover per-archive
  /// fragment counts as an orphan.
  std::size_t fragments_checked = 0;
  std::size_t snapshots_checked = 0;
  std::size_t frozen_checked = 0;
  std::size_t corrupt = 0;
  std::size_t orphaned = 0;
  /// Bytes held by corrupt + orphaned entries (what prune mode reclaims).
  std::uintmax_t reclaimable_bytes = 0;
  /// Bytes actually deleted (0 unless prune mode).
  std::uintmax_t reclaimed_bytes = 0;

  bool clean() const { return corrupt == 0 && orphaned == 0; }
  /// Multi-line summary, the `tabby cache` output.
  std::string to_string() const;
};

/// Validates every entry under cache directory `dir`; with `prune`, deletes
/// the corrupt and orphaned ones (intact entries are never touched). Fails
/// only when `dir` is not a cache directory at all.
util::Result<CacheAuditReport> audit_cache(const std::filesystem::path& dir, bool prune);

/// The atomic-publish retry delay before attempt `attempt + 1` (attempt is
/// the 1-based try that just failed): exponential base (~1ms, ~2ms) plus
/// jitter seeded from the target path and the attempt number — DETERMINISTIC,
/// so chaos runs replay with identical sleeps, while concurrent runs
/// retrying different entries still decorrelate. Exposed for failpoint_test.
std::chrono::microseconds publish_backoff(std::string_view path, int attempt);

}  // namespace tabby::cache
