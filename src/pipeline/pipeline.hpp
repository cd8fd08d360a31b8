// The one-shot pipeline facade: everything between "a classpath of .tjar
// files" and "a queryable CPG" behind one call — archive decode (parallel),
// classpath linking, the incremental cache's warm/cold logic, CPG
// construction, the freeze into the read-only CSR graph and snapshot
// publishing — without re-implementing it from the module-level APIs.
//
// run() is the COMPATIBILITY surface: one invocation, one Outcome, caller
// owns the pool/budget plumbing. New embedding code should prefer the
// session-oriented pipeline::Engine (pipeline/engine.hpp, docs/SERVING.md),
// which wraps this same machinery, keeps analyses resident across requests,
// and consolidates the per-request knobs in one ExecContext; the CLI, the
// examples and the `tabby serve` daemon all go through it. Engine results
// are byte-identical to run() — this header is not deprecated, just no
// longer the first thing to reach for.
//
// Errors are structured (util::Result), never pre-formatted text on a
// stream: callers decide how to render them. Everything here is observable
// via src/obs — run() is wrapped in a "pipeline.run" span and each stage
// records its own spans and counters (see docs/OBSERVABILITY.md).
//
// Failure handling is policy-driven (docs/ROBUSTNESS.md): under the strict
// policy any malformed input fails the run; under quarantine, broken units
// (archives, class records) are recorded in a structured
// DegradationReport and analysis continues with the surviving program —
// the CPG builder and finder already tolerate the resulting holes via
// phantom nodes. Wall-clock budgets (Options::deadline) and cancellation
// (Options::cancel) are cooperative: stages poll at unit boundaries and
// report what they skipped.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "jir/model.hpp"
#include "util/deadline.hpp"
#include "util/memory_budget.hpp"
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
  /// Finder sinks cut short by the deadline or memory pressure. run() stops
  /// at the CPG and leaves this 0; Analysis::find (pipeline/engine.hpp)
  /// fills it from the finder report for every entry point.
  std::size_t partial_sinks = 0;
  /// Frontier branches the finder pruned to stay under its byte budget
  /// (> 0 implies MemoryPressure partials). Same ownership as
  /// partial_sinks: populated by Analysis::find, not by run().
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

/// What to run and how. The zero-argument default is the plain cold
/// pipeline: simulated JDK + archives, no cache, serial.
struct Options {
  /// Prefix the simulated JDK archive to the classpath (the analyzed world
  /// normally includes it; baselines and tests may turn it off).
  bool with_jdk = true;
  /// Incremental analysis cache directory; empty = no cache (cold build).
  std::string cache_dir;
  /// Keep the linked jir::Program in the Outcome (needed for find --verify
  /// and the runtime VM; costs the link step even on a snapshot hit).
  bool need_program = false;
  /// Keep Outcome::graph_bytes (the exact `--store` serialization).
  bool need_graph_bytes = false;
  /// Worker pool for the parallel stages; nullptr = serial. Borrowed, must
  /// outlive run(). (make_pool() builds one from a --jobs-style count.)
  util::Executor* executor = nullptr;
  /// CPG construction knobs (sinks, sources, pruning, ablations). The
  /// executor field inside is overwritten with `executor` by run().
  cpg::CpgOptions cpg;
  /// Per-unit failure handling; see FailurePolicy.
  FailurePolicy policy = FailurePolicy::kStrict;
  /// Whole-run wall-clock budget (unlimited by default). Cooperative:
  /// checked per archive during loading and at stage boundaries; once
  /// expired, remaining stages are skipped and the outcome is flagged
  /// deadline_hit (quarantine) or the run fails (strict). A deadline that
  /// never fires leaves every output byte-identical.
  util::Deadline deadline;
  /// Extra budget for the load phase only (--phase-budget load=...),
  /// folded with `deadline` via Deadline::tightened.
  util::Deadline load_deadline;
  /// Optional cancellation flag, observed wherever the deadline is.
  /// Borrowed, must outlive run().
  const util::CancelToken* cancel = nullptr;
  /// Process-wide byte ledger (--mem-budget): threaded into the CPG
  /// builder's payload batches and the cache's snapshot buffers, and shared
  /// with the finder by CLI callers. The ledger is telemetry plus shard caps
  /// derived from its cap(); no stage ever gates on its live total, which
  /// keeps output bit-identical at any --jobs count. Borrowed, may be null
  /// (= ungoverned; zero cost).
  util::MemoryBudget* memory = nullptr;
};

/// The CPG for one pipeline invocation, however it was obtained (cold build
/// or cache snapshot) — the library-level equivalent of one analyze/find/
/// query front half.
///
/// The builder's mutable graph::GraphDb never leaves the run: it is frozen
/// into `frozen` (docs/GRAPH.md), serialized when a cache or `--store` needs
/// the bytes, and dropped. Cache runs publish the frame next to the snapshot
/// (snapshots/<key>.tfzn); a warm start maps it zero-copy and skips the
/// graph-store decode. A corrupt cached frame is re-frozen from the store
/// and republished with a warning; a freeze that fails is a run error.
struct Outcome {
  /// The CPG every reader (finder, Cypher, verify) queries. Always a valid
  /// frame — an empty graph when a deadline cut the run before the build.
  graph::FrozenGraph frozen;
  cpg::CpgStats stats;
  /// graph::serialize of the CPG, the exact bytes `--store` writes. Kept
  /// only when Options::need_graph_bytes was set.
  std::vector<std::byte> graph_bytes;
  /// The linked program, when Options::need_program was set.
  std::optional<jir::Program> program;
  /// True when the CPG came from a cache snapshot rather than a cold build.
  bool warm = false;
  /// The "cache:" stats line; empty when no cache was used.
  std::string cache_line;
  /// Non-fatal degradations (e.g. a snapshot publish that failed on a
  /// read-only cache directory), one message each. The run still succeeded.
  std::vector<std::string> warnings;
  /// What quarantine mode dropped or skipped; empty on a clean run. Always
  /// empty under the strict policy (strict turns degradation into errors).
  DegradationReport degradation;
};

/// The worker pool behind a --jobs-style count. Returns null for an
/// effective job count of 1: every stage treats a null Executor* as "run
/// inline in index order", which is exactly the serial pipeline. `jobs` <= 0
/// means the hardware default.
std::unique_ptr<util::ThreadPool> make_pool(int jobs);

/// The one classpath loader, for cached and uncached runs alike: reads and
/// decodes the .tjar files (in parallel on `executor`) and links them into
/// one closed-world program, optionally prefixing the simulated JDK. The
/// policy is applied afterwards, in classpath order. Under the strict
/// policy the first lost archive is the error, naming its path (and the
/// byte offset of a decode fault). Under FailurePolicy::kQuarantine,
/// unreadable archives and corrupt class records are recorded into
/// `degradation` (when given) and the surviving classes are linked
/// instead; the call only fails when every user archive is lost.
/// `deadline` bounds the load cooperatively: strict fails when it expired
/// before the load, quarantine skips (and records) every archive whose
/// read has not started at expiry.
util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor = nullptr,
                                        FailurePolicy policy = FailurePolicy::kStrict,
                                        DegradationReport* degradation = nullptr,
                                        const util::Deadline& deadline = {});

/// The snapshot key of a classpath (cache::AnalysisCache::snapshot_key):
/// `options_fp` folded with the digest of the simulated JDK (when
/// `with_jdk`) and of every archive file, in link order. nullopt when an
/// archive cannot be read, since no key could then describe the on-disk
/// bytes. The engine's resident fingerprint is the same key.
std::optional<std::uint64_t> classpath_key(const std::vector<std::string>& jar_paths,
                                           bool with_jdk, std::uint64_t options_fp);

/// The full cache-aware front end shared by analyze/find/query: key the
/// classpath, warm-start from a snapshot when one matches, otherwise load
/// the archives (load_program), build the CPG and publish a new snapshot.
/// Without a cache_dir this is the plain cold pipeline.
util::Result<Outcome> run(const std::vector<std::string>& jar_paths, const Options& options);

/// In-memory variant: build the CPG for an already-linked program (no
/// archives, no cache). The path examples and embedding libraries use. A
/// deadline cut is always absorbed as degradation; the only error is a
/// failed freeze.
util::Result<Outcome> run(const jir::Program& program, const Options& options);

}  // namespace tabby::pipeline
