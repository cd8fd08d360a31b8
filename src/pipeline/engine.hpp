// The session-oriented engine API — the one front end between a classpath
// of .tjar files and a queryable CPG, and the supported embedding surface
// (the CLI, the `tabby serve` daemon, the examples, long-lived audit
// tooling).
//
//   Engine   owns the process-scale machinery a serving deployment shares
//            across requests: the --jobs worker pool, the residency byte
//            cap, the incremental cache directory, and an LRU of resident
//            analyses keyed by classpath fingerprint (the snapshot cache's
//            key). Every open reads and digests each archive once to
//            compute that key; opening a classpath a second time returns
//            the already-resident Analysis without decoding anything.
//   Analysis one resident classpath: the pipeline Outcome (frozen CSR frame,
//            stats, optional linked program) plus
//            find()/query() entry points that reproduce the CLI's
//            orchestration byte for byte. Handles are shared_ptr: an Analysis
//            evicted from the engine's LRU stays valid for requests already
//            holding it and its frozen frame is unmapped when the last
//            holder drops it.
//   ExecContext  the per-request knobs (wall-clock deadline, phase budgets,
//            failure policy, finder depth/frontier pool, planner toggle) in
//            one struct that open/find/query all consume.
//
// Admission control (docs/SERVING.md): when the engine's budget is bounded,
// an open whose classpath cannot fit evicts idle least-recently-used
// analyses first and, when that is still not enough, fails with a structured
// over-capacity error (is_over_capacity()) instead of growing past the
// budget — one tenant's 10 GB classpath degrades that tenant, never the
// process. EngineStats::evictions counts every eviction.
//
// Every result is byte-identical at any --jobs count.
#pragma once

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <atomic>

#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "finder/verify.hpp"
#include "pipeline/pipeline.hpp"

namespace tabby::pipeline {

/// Engine-lifetime accumulation of worker-pool supervision events across
/// every --workers find (all analyses). Atomics because concurrent finds on
/// different analyses report into the same ledger; read via Engine::stats().
struct DistTelemetry {
  std::atomic<std::uint64_t> workers_spawned{0};
  std::atomic<std::uint64_t> respawns{0};
  std::atomic<std::uint64_t> crashes{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> reassignments{0};
  std::atomic<std::uint64_t> heartbeat_misses{0};

  void accumulate(const dist::DistStats& stats) {
    workers_spawned.fetch_add(stats.workers_spawned, std::memory_order_relaxed);
    respawns.fetch_add(stats.respawns, std::memory_order_relaxed);
    crashes.fetch_add(stats.crashes, std::memory_order_relaxed);
    retries.fetch_add(stats.retries, std::memory_order_relaxed);
    reassignments.fetch_add(stats.reassignments, std::memory_order_relaxed);
    heartbeat_misses.fetch_add(stats.heartbeat_misses, std::memory_order_relaxed);
  }
};

/// Per-request execution context: everything that scopes ONE open/find/query
/// request, as opposed to the engine-lifetime machinery (pool, global
/// budget, cache). Durations are budgets, not deadlines: each phase anchors
/// its budget when the phase actually starts, so queueing time in a busy
/// daemon never silently eats a request's allowance.
struct ExecContext {
  /// Whole-request wall-clock deadline (anchored by the caller at request
  /// start; default: never expires). Folded into every phase.
  util::Deadline deadline;
  /// Extra load-phase budget (--phase-budget load=), anchored by open()
  /// once the classpath has been read: it bounds the snapshot lookup, the
  /// decode and the link.
  std::optional<std::chrono::milliseconds> load_budget;
  /// Extra finder-phase budget (--phase-budget finder=), anchored at find().
  std::optional<std::chrono::milliseconds> finder_budget;
  /// Per-unit failure handling for open(); find/query run on whatever
  /// survived. The CLI passes kQuarantine, the library default is kStrict.
  FailurePolicy policy = FailurePolicy::kStrict;
  /// Finder: maximum chain length (edge count).
  int max_depth = 12;
  /// Finder: frontier byte pool (--mem-budget).
  /// 0 = ungoverned. Split deterministically across sink shards.
  std::size_t frontier_byte_pool = 0;
  /// Cypher: use the cost-based planner (--no-plan sets false). Rows are
  /// byte-identical either way.
  bool use_planner = true;
  /// Finder: crash-isolated worker processes (--workers). 0 = in-process
  /// (today's behavior); N > 0 dispatches sink shards to a supervised pool
  /// of forked workers whose failures degrade (PartialSink{WorkerFailure},
  /// exit 3) instead of killing the request — the property that lets the
  /// resident daemon survive a wild pointer inside one tenant's search.
  int workers = 0;
  /// Re-validate every found chain in the runtime VM (--verify). Requires
  /// the analysis to have been opened with OpenOptions::need_program.
  bool verify = false;
  /// Verify: crash-isolated verifier processes (--verify-workers). 0 =
  /// in-process per-chain shards on the engine pool; N > 0 forks a
  /// supervised verifier pool so a VM crash on one chain demotes that chain
  /// (UNCONFIRMED(crash)) instead of killing the request.
  int verify_workers = 0;
  /// Extra verify-phase budget (--phase-budget verify=), anchored when the
  /// verify post-pass starts.
  std::optional<std::chrono::milliseconds> verify_budget;
};

/// Per-open knobs that change what an Analysis materializes (as opposed to
/// how one request runs).
struct OpenOptions {
  /// Keep the linked jir::Program (needed for find --verify / runtime VM).
  bool need_program = false;
  /// Admission control: when true (the serving default), an open that cannot
  /// fit in the engine's bounded budget — even after evicting idle LRU
  /// analyses — fails with a structured over-capacity error. When false (the
  /// one-shot CLI default), such an open still succeeds but the analysis is
  /// returned non-resident: it lives exactly as long as the caller's handle,
  /// preserving the CLI's degrade-don't-die --mem-budget contract.
  bool require_admission = false;
};

/// Engine-lifetime configuration.
struct EngineOptions {
  /// Worker threads for every parallel stage (make_pool semantics: 0 =
  /// hardware default, 1 = serial). The pool is owned by the engine and
  /// shared by concurrent requests (parallel_for is barrier-per-caller).
  int jobs = 1;
  /// Incremental analysis cache directory; empty = no cache.
  std::string cache_dir;
  /// Residency byte cap (0 = ungoverned): admission compares the sum of
  /// resident_bytes() against it, and opens that cannot fit after LRU
  /// eviction fail over-capacity.
  std::size_t memory_budget_bytes = 0;
  /// Maximum resident analyses (0 = unlimited count; bytes still governed).
  std::size_t max_resident = 0;
  /// Prefix the simulated JDK archive to every classpath.
  bool with_jdk = true;
};

/// One find() request's result: the finder report plus the degradation view
/// that merges the open-phase report with the finder's partial sinks — every
/// entry point sees the same DegradationReport fields filled the same way.
struct FindResult {
  finder::FinderReport report;
  DegradationReport degradation;
  /// The verify post-pass (ExecContext::verify): one verdict per chain, in
  /// chain order. Untouched (and `verified` false) when verify was off or
  /// the analysis holds no linked program.
  finder::VerifyReport verify;
  bool verified = false;
};

class Engine;

/// One resident classpath analysis. Thread-safe for concurrent find/query
/// (both are const over the graph); obtained from Engine::open and shared.
class Analysis {
 public:
  /// The pipeline outcome backing this analysis (stats, warnings,
  /// degradation, frozen frame).
  const Outcome& outcome() const { return outcome_; }
  /// Classpath fingerprint (the cache snapshot key); 0 for in-memory opens.
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Bytes this analysis holds resident (frozen frame + program estimate)
  /// — the unit of the engine's admission control.
  std::size_t resident_bytes() const { return resident_bytes_; }

  /// Gadget-chain search with the CLI's exact orchestration: depth,
  /// deadline folding, deterministic frontier-pool split. Fills
  /// FindResult::degradation (open-phase units + the finder's
  /// partial_sinks/frontier_pruned) for every caller.
  FindResult find(const ExecContext& ctx) const;

  /// Cypher query over the resident frozen graph. Row content and order are
  /// byte-identical to the one-shot CLI.
  util::Result<cypher::QueryResult> query(std::string_view text,
                                          const ExecContext& ctx) const;

  /// Renders a query result against this analysis' graph — the exact bytes
  /// `tabby query` prints (rows + "(N row(s))" trailer).
  std::string render(const cypher::QueryResult& result) const;

  /// Renders a find result the way `tabby find` prints it (the daemon sends
  /// the same bytes). Returns the stdout text: the header, each chain with
  /// its auto-verify line, and the confirmed-effective summary. Appends the
  /// stderr "degraded:" lines to `degraded_lines`: one per partial sink,
  /// then one per UNCONFIRMED chain in chain order.
  static std::string render(const FindResult& result, std::vector<std::string>& degraded_lines);

 private:
  friend class Engine;
  Analysis() = default;

  Outcome outcome_;
  std::uint64_t fingerprint_ = 0;
  std::size_t resident_bytes_ = 0;
  util::Executor* executor_ = nullptr;   // borrowed from the engine
  DistTelemetry* dist_ = nullptr;        // borrowed from the engine
};

using AnalysisPtr = std::shared_ptr<const Analysis>;

/// Message prefix of structured over-capacity failures (admission control).
inline constexpr const char* kOverCapacityPrefix = "over-capacity: ";

/// True when `error` is an admission-control rejection (the caller should
/// surface it as over-capacity, e.g. the daemon's error kind), not a fault.
bool is_over_capacity(const util::Error& error);

/// Point-in-time engine telemetry (the `stats` op of the serve protocol).
struct EngineStats {
  struct Resident {
    std::uint64_t fingerprint = 0;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
  };
  /// Resident analyses in most- to least-recently-used order.
  std::vector<Resident> entries;
  std::size_t resident_bytes = 0;
  std::uint64_t opens = 0;
  std::uint64_t resident_hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t over_capacity = 0;
  std::size_t budget_bytes = 0;  // 0 = ungoverned
  // Worker-pool supervision aggregates (all zero until a --workers find).
  std::uint64_t dist_workers_spawned = 0;
  std::uint64_t dist_respawns = 0;
  std::uint64_t dist_crashes = 0;
  std::uint64_t dist_retries = 0;
  std::uint64_t dist_reassignments = 0;
  std::uint64_t dist_heartbeat_misses = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Opens (or returns the resident) analysis for a classpath of .tjar
  /// files. Reads every archive exactly once, on the calling thread, and
  /// folds the digests into the classpath's key. A resident hit touches the
  /// LRU and costs nothing beyond that read. Otherwise the classpath's
  /// cached frame is looked up; on a miss, or when the open needs the linked program, the
  /// archives are decoded and linked from the bytes already read, and on a
  /// miss the CPG is built, frozen and published. The result is then
  /// admitted: under a bounded budget, idle LRU analyses are evicted to make
  /// room and an analysis that still cannot fit fails with an over-capacity
  /// error.
  util::Result<AnalysisPtr> open(const std::vector<std::string>& jar_paths,
                                 const ExecContext& ctx, const OpenOptions& opts = {});

  /// In-memory variant for embedding callers that already hold a linked
  /// program (the examples): builds the CPG on the engine's pool and wraps
  /// it in a non-resident Analysis (no fingerprint, no LRU entry). Fails
  /// only when the CPG cannot be frozen.
  util::Result<AnalysisPtr> open(const jir::Program& program, const ExecContext& ctx = {},
                                 const OpenOptions& opts = {});

  /// Evicts one analysis by fingerprint (true when something was resident).
  bool evict(std::uint64_t fingerprint);
  /// Evicts every resident analysis; returns how many were dropped.
  std::size_t evict_all();

  EngineStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<Analysis> analysis;
    std::uint64_t hits = 0;
    std::list<std::uint64_t>::iterator lru;  // position in lru_ (front = MRU)
  };

  /// Drops `fingerprint` from the map + LRU; caller holds mutex_. Returns
  /// the evicted bytes (0 when absent). An entry pinned by in-flight
  /// requests is dropped too: their handles stay valid, and the analysis is
  /// freed when the last one is released.
  std::size_t evict_locked(std::uint64_t fingerprint);
  /// Evicts idle LRU entries until `needed` more bytes fit (or nothing idle
  /// is left); caller holds mutex_.
  void make_room_locked(std::size_t needed);

  EngineOptions options_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// Shared by every Analysis this engine opens (atomics, no lock).
  mutable DistTelemetry dist_telemetry_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> resident_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::size_t resident_bytes_ = 0;
  std::uint64_t opens_ = 0;
  std::uint64_t resident_hits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t over_capacity_ = 0;
};

}  // namespace tabby::pipeline
