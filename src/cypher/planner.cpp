#include "cypher/planner.hpp"

#include <algorithm>

namespace tabby::cypher {

namespace {

/// A condition may be checked early at pattern-node position `j` only when
/// its variable unambiguously binds to that position's node in every emitted
/// row:
///   - the variable names exactly one pattern node (repeated variables are
///     not join constraints in this subset; the last occurrence wins at
///     emission, so pushing to an earlier one would over-prune);
///   - it is not shadowed by the path variable (the path binding overwrites
///     node bindings of the same name at emission);
///   - bindings_from_path resolves interior positions positionally, which
///     only matches the acceptance frontier when the pattern has at most one
///     variable-length segment — except the first and last nodes, which
///     always anchor the path ends.
bool pushable_at(const Query& query, const Condition& cond, std::size_t j) {
  const auto& nodes = query.pattern.nodes;
  if (nodes[j].var.empty() || nodes[j].var != cond.var) return false;
  if (cond.var == query.pattern.path_var) return false;
  std::size_t occurrences = 0;
  for (const NodePattern& n : nodes) {
    if (n.var == cond.var) ++occurrences;
  }
  if (occurrences != 1) return false;
  if (j == 0 || j + 1 == nodes.size()) return true;
  std::size_t var_segments = 0;
  for (const RelPattern& rel : query.pattern.rels) {
    if (rel.min_len != rel.max_len) ++var_segments;
  }
  return var_segments <= 1;
}

std::uint64_t shrink(std::uint64_t est, std::uint64_t divisor) {
  if (est == 0) return 0;
  return std::max<std::uint64_t>(est / divisor, 1);
}

}  // namespace

Plan plan_query(const Query& query, const graph::CardinalityStats& stats) {
  Plan plan;
  const auto& nodes = query.pattern.nodes;

  // --- Empty proofs from WHERE shape -----------------------------------
  // A condition whose variable never binds to a node drops every row at
  // emission (the evaluator requires a Node binding), so the result is the
  // header alone whatever the graph holds.
  for (const Condition& cond : query.where) {
    bool binds_node = false;
    for (const NodePattern& n : nodes) {
      if (!n.var.empty() && n.var == cond.var) binds_node = true;
    }
    if (cond.var == query.pattern.path_var) binds_node = false;
    if (!binds_node) {
      plan.always_empty = true;
      plan.empty_reason =
          "WHERE references '" + cond.var + "' which never binds to a node";
      break;
    }
  }

  // --- Pushdown --------------------------------------------------------
  plan.pushed.assign(nodes.size(), {});
  for (std::size_t c = 0; c < query.where.size(); ++c) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (pushable_at(query, query.where[c], j)) {
        plan.pushed[j].push_back(c);
        break;  // occurrences == 1: exactly one position qualifies
      }
    }
  }

  // --- Per-position estimates ------------------------------------------
  plan.estimates.reserve(nodes.size());
  for (std::size_t j = 0; j < nodes.size(); ++j) {
    std::uint64_t est =
        nodes[j].label.empty() ? stats.nodes : stats.label_count(nodes[j].label);
    if (!nodes[j].label.empty() && est == 0 && !plan.always_empty) {
      plan.always_empty = true;
      plan.empty_reason = "no node carries label '" + nodes[j].label + "'";
    }
    for (std::size_t p = 0; p < nodes[j].props.size(); ++p) est = shrink(est, 8);
    for (std::size_t c : plan.pushed[j]) {
      est = shrink(est, query.where[c].op == CmpKind::Eq ? 8 : 2);
    }
    plan.estimates.push_back(est);
  }

  // --- Anchor selection / direction reversal ---------------------------
  plan.anchor = 0;
  for (std::size_t j = 1; j < nodes.size(); ++j) {
    if (plan.estimates[j] < plan.estimates[plan.anchor]) plan.anchor = j;
  }
  bool want_reverse =
      plan.anchor != 0 && plan.estimates[plan.anchor] * 2 <= plan.estimates[0];
  if (want_reverse && query.limit <= kPlanLimitSkipThreshold) {
    plan.limit_skip = true;
  } else {
    plan.reverse = want_reverse;
  }

  if (plan.always_empty || plan.reverse || plan.has_pushdown()) {
    plan.mode = Plan::Mode::Planned;
  } else {
    plan.mode = Plan::Mode::Naive;
    if (plan.limit_skip) {
      plan.reason = "LIMIT " + std::to_string(query.limit) +
                    " is small enough that naive early exit beats a backward prepass";
    } else if (nodes.size() == 1) {
      plan.reason = "single-node pattern has nothing to reorder";
    } else if (plan.anchor == 0) {
      plan.reason = "start is already the cheapest position";
    } else {
      plan.reason = "no position is clearly cheaper than the start";
    }
  }
  return plan;
}

std::string Plan::to_string(const Query& query) const {
  const auto& nodes = query.pattern.nodes;
  std::string out = "plan: ";
  out += mode == Mode::Planned ? "planned" : "naive";
  if (estimates.empty()) {
    // Planning never ran (--no-plan, or the cypher.plan failpoint fired):
    // there are no estimates to show, only the reason.
    out += "\n  reason: " + reason + "\n";
    return out;
  }
  out += "\n  stats: exact (" + std::to_string(estimates.size()) + " pattern node(s))\n";
  out += "  estimates:";
  for (std::size_t j = 0; j < estimates.size() && j < nodes.size(); ++j) {
    out += " n" + std::to_string(j);
    if (!nodes[j].var.empty() || !nodes[j].label.empty()) {
      out += "(" + nodes[j].var;
      if (!nodes[j].label.empty()) out += ":" + nodes[j].label;
      out += ")";
    }
    out += "=" + std::to_string(estimates[j]);
  }
  out += "\n";
  if (always_empty) {
    out += "  empty: " + empty_reason + "\n";
  }
  if (reverse) {
    out += "  anchor: node " + std::to_string(anchor) + " (est " +
           std::to_string(estimates[anchor]) + ") - backward reachability filter across " +
           std::to_string(anchor) + " segment(s)\n";
  }
  if (limit_skip) {
    out += "  limit: " + std::to_string(query.limit) +
           " - skipping backward prepass, naive early exit wins\n";
  }
  for (std::size_t j = 0; j < pushed.size(); ++j) {
    for (std::size_t c : pushed[j]) {
      out += "  pushdown: " + query.where[c].var + "." + query.where[c].key + " -> node " +
             std::to_string(j) + "\n";
    }
  }
  if (mode == Mode::Naive) {
    out += "  reason: " + reason + "\n";
  }
  return out;
}

}  // namespace tabby::cypher
