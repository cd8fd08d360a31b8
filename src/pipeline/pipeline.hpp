// The pipeline's stages, from "a classpath of .tjar files" to "a queryable
// CPG": the read (every archive once, digested for the snapshot key), the
// load (parallel salvage-decode and link into one jir::Program) and the
// build (CPG construction, the freeze into the read-only CSR graph and the
// publish of that frame as the classpath's cache entry). pipeline::Engine
// (pipeline/engine.hpp) is the one front end that sequences them: it keys
// the classpath from the read, serves resident analyses and cached frames,
// and runs the load and the build only on a miss. The CLI, the examples
// and the `tabby serve` daemon all go through it.
//
// Errors are structured (util::Result), never pre-formatted text on a
// stream: callers decide how to render them. Every stage records its own
// spans and counters via src/obs (see docs/OBSERVABILITY.md).
//
// Failure handling is policy-driven (docs/ROBUSTNESS.md): under the strict
// policy any malformed input fails the open; under quarantine, broken units
// (archives, class records) are recorded in a structured
// DegradationReport and analysis continues with the surviving program —
// the CPG builder and finder already tolerate the resulting holes via
// phantom nodes. Wall-clock budgets (util::Deadline) are cooperative:
// stages poll at unit boundaries and report what they skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "jir/model.hpp"
#include "util/deadline.hpp"
#include "util/result.hpp"
#include "util/thread_pool.hpp"

namespace tabby::pipeline {

/// What a stage does when one input unit is broken.
enum class FailurePolicy {
  /// Fail the whole run on the first malformed unit (the library default:
  /// embedding callers must opt into partial answers).
  kStrict,
  /// Record the unit in the DegradationReport, drop it, and continue with
  /// the surviving program. The run only fails when nothing survives.
  kQuarantine,
};

/// One quarantined unit: what broke, where, and how much input was lost.
struct DegradedUnit {
  std::string unit;   // archive path, "path [classes i..)", sink signature
  std::string stage;  // "fs-read" | "archive-decode" | "class-decode" | "deadline" | ...
  std::string error;  // the underlying structured error, rendered
  std::size_t bytes_skipped = 0;

  std::string to_string() const;
};

/// Everything a fail-soft run degraded on. Empty report = clean run. The
/// CLI maps a non-empty report to exit code 3 (completed with degradation).
struct DegradationReport {
  std::vector<DegradedUnit> units;
  /// The run observed an expired deadline and skipped remaining work.
  bool deadline_hit = false;
  /// Finder sinks cut short by the deadline or memory pressure. An open
  /// stops at the CPG and leaves this 0; Analysis::find (pipeline/engine.hpp)
  /// fills it from the finder report for every entry point.
  std::size_t partial_sinks = 0;
  /// Frontier branches the finder pruned to stay under its byte budget
  /// (> 0 implies MemoryPressure partials). Same ownership as
  /// partial_sinks: populated by Analysis::find, not by the open.
  std::size_t frontier_pruned = 0;
  /// Chains the verify post-pass left UNCONFIRMED (budget / timeout / crash /
  /// fault — the chain is kept, the run degrades). Same ownership as
  /// partial_sinks: populated by Analysis::find under --verify.
  std::size_t unconfirmed_chains = 0;

  bool degraded() const {
    return !units.empty() || deadline_hit || partial_sinks > 0 || frontier_pruned > 0 ||
           unconfirmed_chains > 0;
  }
  void add(std::string unit, std::string stage, std::string error, std::size_t bytes_skipped = 0) {
    units.push_back({std::move(unit), std::move(stage), std::move(error), bytes_skipped});
  }
  /// One "degraded: ..." line per unit plus a summary line; empty string
  /// for a clean report.
  std::string to_string() const;
};

/// The CPG for one classpath open, however it was obtained (cold build or
/// cache snapshot) — the library-level equivalent of one analyze/find/query
/// front half.
///
/// The builder's append-only graph::GraphDb never leaves the build: it is
/// frozen into `frozen` (docs/GRAPH.md) and dropped. Cached opens publish the
/// frame as the classpath's cache entry (snapshots/<key>.tfzn); a warm start
/// maps it zero-copy and reads `stats` from it. A corrupt cached frame is
/// rebuilt from the classpath and republished with a warning; a freeze that
/// fails is an open error.
struct Outcome {
  /// The CPG every reader (finder, Cypher, verify) queries, and the bytes
  /// `analyze --store` writes. Frozen under the classpath's snapshot key
  /// whether or not a cache is in use, so it is byte-identical cold or warm,
  /// cached or not. Always a valid frame — an empty graph (key 0) when a
  /// deadline cut the open before the build.
  graph::FrozenGraph frozen;
  /// The build's stats; on a warm start, the counts the frame carries, with
  /// build_seconds 0.
  cpg::CpgStats stats;
  /// The linked program, when the open asked for it
  /// (OpenOptions::need_program).
  std::optional<jir::Program> program;
  /// True when the CPG came from the cache rather than a cold build.
  bool warm = false;
  /// The "cache:" stats line; empty when no cache was used.
  std::string cache_line;
  /// Non-fatal degradations (e.g. a snapshot publish that failed on a
  /// read-only cache directory), one message each. The open still succeeded.
  std::vector<std::string> warnings;
  /// What quarantine mode dropped or skipped; empty on a clean open. Always
  /// empty under the strict policy (strict turns degradation into errors).
  DegradationReport degradation;
};

/// The worker pool behind a --jobs-style count. Returns null for an
/// effective job count of 1: every stage treats a null Executor* as "run
/// inline in index order", which is exactly the serial pipeline. `jobs` <= 0
/// means the hardware default.
std::unique_ptr<util::ThreadPool> make_pool(int jobs);

/// One classpath archive as the read left it: its bytes and their digest
/// (the snapshot key's input), or the error that lost it.
struct ArchiveRead {
  std::string path;
  std::vector<std::byte> bytes;
  std::uint64_t digest = 0;
  std::optional<util::Error> error;
};

/// The read stage: reads every archive exactly once, in classpath order on
/// the calling thread, and digests the bytes of each one that read. Never
/// fails and never polls a deadline: the key needs every archive's bytes,
/// and a lost archive is the loader's to report, in classpath order. Serial
/// on purpose: a resident hit is this read and nothing else, and fanning it
/// out would wake every pool worker per request and tie the hit's latency
/// to the slowest worker's scheduling.
std::vector<ArchiveRead> read_classpath(const std::vector<std::string>& paths);

/// The load stage: salvage-decodes the archives `read_classpath` returned
/// (in parallel on `executor`, dropping each archive's bytes once decoded)
/// and links them into one closed-world program, optionally prefixing the
/// simulated JDK. The policy is applied afterwards, in classpath order.
/// Under the strict policy the first lost archive is the error, naming its
/// path (and the byte offset of a decode fault). Under
/// FailurePolicy::kQuarantine, unreadable archives and corrupt class
/// records are recorded into `degradation` (when given) and the surviving
/// classes are linked instead; the call only fails when every user archive
/// is lost. `deadline` bounds the load cooperatively and is polled per
/// archive, before its decode starts: an archive whose turn comes after
/// expiry is skipped. Quarantine records each skip; strict fails on the
/// first one, and fails up front when the deadline expired before the load.
util::Result<jir::Program> load_program(std::vector<ArchiveRead> files, bool with_jdk,
                                        util::Executor* executor = nullptr,
                                        FailurePolicy policy = FailurePolicy::kStrict,
                                        DegradationReport* degradation = nullptr,
                                        const util::Deadline& deadline = {});

/// Freezes `db` into outcome.frozen, the graph every reader queries, under
/// `content_key`. A failed freeze (a graph too large for the dense id space,
/// an injected graph.freeze fault) leaves nothing to read, so it is an
/// error. With `publish_to`, the frame is then published under
/// `content_key`; a failed publish only costs the next open its warm start
/// and is recorded in outcome.warnings.
util::Status freeze(const graph::GraphDb& db, std::uint64_t content_key, Outcome& outcome,
                    cache::AnalysisCache* publish_to = nullptr);

/// The build stage: builds the CPG of `program` with `options`, records its
/// stats, freezes it into `outcome` under `key` (0 without one) and drops
/// the builder's graph. A deadline cut fails the build under the strict
/// policy and is recorded as degradation under quarantine. With a cache and
/// a key, a clean build publishes its frame under `key`. A degraded build
/// is never published: the key describes the on-disk classpath, and a later
/// repaired open of the same bytes must not warm-start from the holes.
util::Status build(const jir::Program& program, const cpg::CpgOptions& options,
                   FailurePolicy policy, Outcome& outcome,
                   cache::AnalysisCache* cache = nullptr,
                   std::optional<std::uint64_t> key = std::nullopt);

}  // namespace tabby::pipeline
