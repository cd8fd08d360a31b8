// Cost-based planner for the Cypher subset. plan_query() inspects a parsed
// Query plus label/edge-type cardinality statistics and produces a Plan of
// order-preserving optimizations: because the contract is byte-identical
// output vs the naive evaluator (row order included), every decision is a
// *pruning* — the enumeration order never changes, subtrees are skipped only
// when they provably contribute zero rows.
//
//   - start estimates: per-pattern-node candidate counts from the exact
//     label cardinalities every frozen frame carries;
//   - anchor / direction reversal: when a later pattern node is clearly
//     cheaper than the start, execution first computes backward reachability
//     filters from that anchor (exact per-level walk sets over reversed
//     segment edges) and uses them to prune start candidates and expansions;
//   - predicate pushdown: WHERE conditions that bind unambiguously to one
//     pattern node are checked at that node during expansion instead of only
//     at row emission;
//   - LIMIT awareness: a small LIMIT beats the prepass (the naive evaluator
//     already exits early), so the planner skips the backward filters;
//   - empty proofs: conditions that can never hold (variable never binds to
//     a node) or labels the stats show to be absent short-circuit the whole
//     query to its header line.
//
// Execution of a Plan lives in cypher.cpp; `tabby query --explain` prints
// Plan::to_string().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cypher/ast.hpp"
#include "graph/graph.hpp"

namespace tabby::cypher {

/// When the query's LIMIT is at or under this, the naive evaluator's early
/// exit is assumed to beat a whole-graph backward prepass.
inline constexpr std::size_t kPlanLimitSkipThreshold = 8;

struct Plan {
  enum class Mode { Naive, Planned };

  Mode mode = Mode::Naive;
  std::string reason;  // set when mode == Naive: why planning declined

  /// The result is provably empty; execution emits the header only.
  bool always_empty = false;
  std::string empty_reason;

  /// Index of the cheapest pattern node (ties break to the lowest index).
  std::size_t anchor = 0;
  /// Build backward reachability filters from `anchor` before executing.
  bool reverse = false;
  /// A small LIMIT made the planner skip the backward prepass.
  bool limit_skip = false;

  /// Per-pattern-node candidate estimates (parallel to pattern.nodes).
  std::vector<std::uint64_t> estimates;
  /// Per-pattern-node indexes into query.where of safely pushed conditions.
  std::vector<std::vector<std::size_t>> pushed;

  bool has_pushdown() const {
    for (const auto& p : pushed) {
      if (!p.empty()) return true;
    }
    return false;
  }

  /// Deterministic multi-line rendering for `tabby query --explain`.
  std::string to_string(const Query& query) const;
};

/// Plans `query` against the graph's exact cardinalities: a label the stats
/// count 0 proves the query empty.
Plan plan_query(const Query& query, const graph::CardinalityStats& stats);

}  // namespace tabby::cypher
