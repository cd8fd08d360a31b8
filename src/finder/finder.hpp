// Gadget-chain finding (§III-D): the tabby-path-finder equivalent. Starting
// from each sink method node, a reverse traversal propagates the
// Trigger_Condition through CALL edges via the Polluted_Position (Formula 4,
// Algorithm 2 "Expander") and through ALIAS edges unchanged, accepting a
// path when it reaches a deserialization source within the depth bound
// (Algorithm 3 "Evaluator").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist.hpp"
#include "graph/frozen.hpp"
#include "graph/traversal.hpp"
#include "util/deadline.hpp"

namespace tabby::util {
class Executor;
}

namespace tabby::finder {

/// One discovered gadget chain, source-first (the order the paper prints,
/// Table I / Table XI).
struct GadgetChain {
  std::vector<graph::NodeId> nodes;        // source ... sink
  std::vector<std::string> signatures;     // rendered "owner#name/n" per node
  std::string sink_type;                   // EXEC, JNDI, ...

  const std::string& source_signature() const { return signatures.front(); }
  const std::string& sink_signature() const { return signatures.back(); }
  std::size_t length() const { return signatures.size(); }

  std::string to_string() const;

  /// Stable identity for dedup: the joined signature sequence.
  std::string key() const;
};

struct FinderOptions {
  /// Maximum path length (edge count), the `depth` of Algorithm 3.
  int max_depth = 12;
  /// Per-sink cap on accepted chains.
  std::size_t max_results_per_sink = 128;
  /// Per-sink expansion budget (guards path explosion). A sink whose
  /// search reaches it keeps the chains found so far and is reported
  /// partial with an ExpansionBudget reason.
  std::size_t max_expansions = 4'000'000;
  /// Also traverse ALIAS edges in reverse (overridden -> override), the way
  /// the paper's Figure 6 example walks C -> C1. Sound dispatch only needs
  /// the forward direction because CALL edges already target the resolved
  /// declaration, so this is off by default; it reproduces the published
  /// plugin's more permissive behaviour.
  bool alias_bidirectional = false;
  /// Enforce Trigger_Condition/Polluted_Position compatibility (ablation:
  /// off degenerates into plain backward reachability — the Serianalyzer
  /// behaviour).
  bool check_trigger_conditions = true;
  /// When set (and offering >1 worker), find_all() partitions the search by
  /// sink and traverses sinks concurrently; per-sink results are merged
  /// serially in ascending sink-id order with the same dedup, so the report
  /// is bit-identical to the serial search. Each sink keeps its own
  /// max_expansions budget either way. Borrowed, not owned.
  util::Executor* executor = nullptr;
  /// Finder-phase wall-clock budget (--deadline / --phase-budget finder=).
  /// Cooperative: each sink shard polls it every few expansions and, once
  /// expired, stops with whatever chains it has and reports itself partial;
  /// sinks that finished before expiry stay complete. The default never
  /// expires, and a deadline that never fires leaves the report
  /// byte-identical to an unbounded run.
  util::Deadline deadline;
  /// Finder-phase byte pool for traversal frontiers (--mem-budget).
  /// 0 = ungoverned. The pool is split *deterministically* across sink
  /// shards (pool / sinks, floored at a small minimum), and each shard
  /// polices only its own single-threaded slice — never a shared live
  /// counter — so the chain set is bit-identical at any --jobs count. A
  /// shard over its slice prunes shallowest frontier branches first and
  /// reports the sink partial with a MemoryPressure reason; chains already
  /// found are always kept.
  std::size_t frontier_byte_pool = 0;
  /// Crash-isolated execution (--workers N): with dist.workers > 0,
  /// find_all() dispatches each sink shard to a supervised pool of forked
  /// worker processes instead of the in-process executor. The frozen CSR
  /// mmap is shared read-only with every worker via fork inheritance; shard
  /// payloads come back over the dist wire protocol and feed the exact merge
  /// loop the in-process path uses, so the report is byte-identical at any
  /// worker count. A shard that exhausts its retry budget degrades to a
  /// PartialSink{WorkerFailure} — never a crashed run.
  dist::DistOptions dist;
};

/// Why a sink's search stopped before exhausting the graph.
enum class PartialReason : std::uint8_t {
  Deadline,         // wall-clock budget expired mid-search
  MemoryPressure,   // frontier byte cap forced branch pruning
  WorkerFailure,    // dist worker crashed/hung and retries were exhausted
  ExpansionBudget,  // FinderOptions::max_expansions reached mid-search
};

const char* to_string(PartialReason reason);

/// A sink whose search was cut short (deadline, expansion budget, memory
/// pressure, or — in --workers mode — a worker failure that survived every
/// retry): the chains it did find are in the report, but more may exist. A
/// WorkerFailure sink contributes NO chains (the shard never completed).
struct PartialSink {
  graph::NodeId sink = graph::kNoNode;
  std::string signature;
  std::size_t expansions = 0;
  PartialReason reason = PartialReason::Deadline;
  /// Human-readable failure detail (WorkerFailure only: the coordinator's
  /// rendered error, e.g. "worker crashed (3 attempts)").
  std::string detail;
};

/// The canonical one-line degraded-mode rendering of a partial sink, shared
/// by the CLI and the serve daemon so clients see identical bytes:
///   "degraded: [finder-memory] <sig>: frontier pruned under memory pressure
///    after N expansion(s); chains found so far are kept"
///   "degraded: [finder-deadline] <sig>: search cut short after N expansion(s)"
///   "degraded: [finder-budget] <sig>: search stopped at the expansion budget
///    after N expansion(s); chains found so far are kept"
///   "degraded: [finder-worker] <sig>: <detail>"
std::string degraded_line(const PartialSink& sink);

struct FinderReport {
  std::vector<GadgetChain> chains;
  std::size_t sinks_considered = 0;
  std::size_t expansions = 0;
  bool budget_exhausted = false;
  double search_seconds = 0.0;
  /// Truncated sinks, ascending sink id; empty on a full search.
  std::vector<PartialSink> partial_sinks;
  /// Cumulative frontier bytes charged across all sink shards (sum of
  /// per-shard monotone totals — deterministic at any --jobs count).
  std::size_t frontier_bytes_charged = 0;
  /// Frontier branches pruned to stay under the byte pool; > 0 implies at
  /// least one MemoryPressure partial sink.
  std::size_t frontier_pruned = 0;
  /// Chains streamed out of governed traversals instead of accumulating in
  /// the frontier store (0 when ungoverned).
  std::size_t spilled_paths = 0;
  /// Largest single-shard frontier high-water mark, in bytes.
  std::size_t peak_frontier_bytes = 0;
  /// Worker-pool supervision telemetry (all zero outside --workers mode).
  dist::DistStats dist_stats;

  bool partial() const { return !partial_sinks.empty(); }
};

class GadgetChainFinder {
 public:
  /// Searches the frozen CPG. Expansion reads typed CSR adjacency slices,
  /// whose within-type order is the builder's edge insertion order.
  explicit GadgetChainFinder(const graph::FrozenGraph& cpg, FinderOptions options = {});

  /// Search from every sink node in the CPG; chains are deduplicated by
  /// signature sequence.
  FinderReport find_all() const;

 private:
  /// Result of one sink's traversal, self-contained so sinks can be searched
  /// on any thread (the const search never touches finder state).
  struct SinkSearch {
    std::vector<GadgetChain> chains;
    std::size_t expansions = 0;
    bool exhausted = false;
    bool deadline_expired = false;   // deadline fired mid-search
    std::size_t frontier_pruned = 0; // branches dropped under the byte cap
    std::size_t bytes_charged = 0;   // cumulative frontier bytes (monotone)
    std::size_t peak_bytes = 0;      // frontier high-water mark
    std::size_t spilled = 0;         // chains streamed under a byte cap
    bool worker_failed = false;      // dist shard exhausted its retry budget
    std::string worker_error;        // coordinator-rendered failure (worker_failed)

    bool partial() const {
      return worker_failed || deadline_expired || exhausted || frontier_pruned > 0;
    }
    /// What stopped the search comes first; pruning alone did not stop it.
    PartialReason reason() const {
      if (worker_failed) return PartialReason::WorkerFailure;
      if (deadline_expired) return PartialReason::Deadline;
      return exhausted ? PartialReason::ExpansionBudget : PartialReason::MemoryPressure;
    }
  };

  /// Algorithms 2-3 from one sink: CALL/ALIAS expansion reads typed
  /// adjacency slices and columnar properties (IS_SOURCE bitmap,
  /// Polluted_Position int-list pool) resolved once per sink shard.
  /// `frontier_cap` is this shard's deterministic byte slice (SIZE_MAX =
  /// ungoverned).
  SinkSearch search_sink(graph::NodeId sink, std::size_t frontier_cap) const;

  /// The deterministic pool split: pool / sinks, floored so a huge sink
  /// count cannot starve every shard to zero.
  std::size_t shard_cap(std::size_t sink_count) const;

  /// Dist wire codec for one shard's SinkSearch (chains + counters), a
  /// single JSON line built on serve::Json. Node ids and size_t counters
  /// travel as decimal strings — the wire format's numbers are doubles and
  /// cannot carry all 64 bits.
  static std::string encode_sink_search(const SinkSearch& search);
  static bool decode_sink_search(const std::string& payload, SinkSearch& out);

  /// --workers mode: runs the per-sink searches in the supervised worker
  /// pool, decoding payloads (or retry-exhausted failures) into `searches`.
  void run_sinks_dist(const std::vector<graph::NodeId>& sinks, std::size_t frontier_cap,
                      std::vector<SinkSearch>& searches, dist::DistStats& stats) const;

  const graph::FrozenGraph* cpg_;
  FinderOptions options_;
};

}  // namespace tabby::finder
