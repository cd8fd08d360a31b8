// Code Property Graph construction (§III-B): merges the Object Relationship
// Graph (class/method nodes, EXTEND/INTERFACE/HAS edges), the Precise Call
// Graph (CALL edges annotated with Polluted_Position, pruned when all-∞)
// and the Method Alias Graph (ALIAS edges, Formula 1) into one GraphDb,
// annotating sink methods with their Trigger_Condition and marking
// deserialization sources.
#pragma once

#include <string>

#include "analysis/controllability.hpp"
#include "cpg/sinks.hpp"
#include "graph/graph.hpp"
#include "jir/hierarchy.hpp"
#include "jir/model.hpp"
#include "util/deadline.hpp"

namespace tabby::util {
class Executor;
}

namespace tabby::cpg {

struct CpgOptions {
  /// MCG -> PCG pruning: drop CALL edges whose PP is all-∞ (§III-C). Turning
  /// this off keeps the raw MCG (ablation: quantifies the path-explosion
  /// relief the paper claims).
  bool prune_uncontrollable_calls = true;
  /// MAG construction (ablation: without ALIAS edges polymorphic chains like
  /// URLDNS cannot be linked).
  bool build_alias_edges = true;
  /// Restrict the MAG to superclass overrides (skip interfaces): the
  /// "incomplete handling of Java polymorphism" the paper attributes to
  /// GadgetInspector (§IV-F). Used by the baseline tools.
  bool alias_superclass_only = false;
  /// Jar/archive name recorded on class nodes (provenance).
  std::string jar_name;

  /// When set (and offering >1 worker), the side-effect-free stages fan out
  /// across it: controllability summaries (SCC waves), per-method call/alias
  /// payloads. Graph mutation stays serial in the
  /// historical order, so the built CPG is bit-identical at any worker
  /// count — including to a run with no executor at all. Borrowed, not
  /// owned; must outlive build_cpg().
  util::Executor* executor = nullptr;

  /// Build-phase wall-clock budget, polled between payload batches (PCG) and
  /// at phase boundaries. Once expired the builder stops summarising further
  /// methods and returns a structurally valid but incomplete CPG with
  /// Cpg::deadline_hit set — callers must treat such a build as degraded and
  /// never cache it. The default never expires. Not part of
  /// options_fingerprint(): it bounds the build, it does not select a graph.
  util::Deadline deadline;

  analysis::AnalysisOptions analysis;
  SinkRegistry sinks = SinkRegistry::defaults();
  SourceRegistry sources = SourceRegistry::defaults();
};

struct CpgStats {
  std::size_t class_nodes = 0;
  std::size_t method_nodes = 0;
  std::size_t relationship_edges = 0;  // total, the paper's Table VIII column
  std::size_t call_edges = 0;
  std::size_t alias_edges = 0;
  std::size_t pruned_call_sites = 0;
  std::size_t source_methods = 0;
  std::size_t sink_methods = 0;
  double build_seconds = 0.0;
};

/// The eight integer counts of `stats`, in field order, as the frozen frame
/// carries them. build_seconds is left out: two builds of one classpath
/// must freeze to the same bytes.
graph::BuildCounts build_counts(const CpgStats& stats);
/// The inverse, for a frame read back from the cache: build_seconds is 0,
/// because nothing was built.
CpgStats stats_from(const graph::BuildCounts& counts);

struct Cpg {
  /// The built graph; its build_counts() are `stats`' (see build_counts).
  graph::GraphDb db;
  CpgStats stats;
  /// Degradation markers, deliberately outside CpgStats (whose counts the
  /// frozen frame carries into the cache — a degraded build is never
  /// published, so these never need to round-trip).
  bool deadline_hit = false;       // CpgOptions::deadline expired mid-build
  std::size_t methods_skipped = 0; // methods left unsummarised by the cut
};

/// Builds the full CPG for a linked program.
Cpg build_cpg(const jir::Program& program, const CpgOptions& options = {});

/// Stable digest of every CpgOptions field that can change the built graph
/// (flags, jar name, analysis options, sink/source registries). Part of the
/// incremental cache's snapshot key: two runs share a snapshot only if they
/// would build the identical CPG.
std::uint64_t options_fingerprint(const CpgOptions& options);

}  // namespace tabby::cpg
