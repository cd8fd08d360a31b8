#include "baseline/baselines.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "analysis/domain.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace tabby::baseline {

namespace {

using graph::Edge;
using graph::EdgeId;
using graph::GraphDb;
using graph::NodeId;

/// CPG flavour shared by both baselines: weak (intraprocedural, permissive)
/// analysis, no PCG pruning, superclass-only aliases.
cpg::Cpg build_baseline_cpg(const jir::Program& program) {
  cpg::CpgOptions options;
  options.prune_uncontrollable_calls = false;
  options.alias_superclass_only = true;
  options.analysis.interprocedural = false;
  options.analysis.unknown_return_controllable = true;
  return cpg::build_cpg(program, options);
}

bool edge_has_taint(const GraphDb& db, EdgeId eid) {
  const Edge& e = db.edge(eid);
  const graph::Value* v = e.prop(std::string(cpg::kPropPollutedPosition));
  const auto* pp = v != nullptr ? std::get_if<std::vector<std::int64_t>>(v) : nullptr;
  if (pp == nullptr) return false;
  for (std::int64_t w : *pp) {
    if (analysis::is_controllable(w)) return true;
  }
  return false;
}

finder::GadgetChain chain_from_nodes(const GraphDb& db, const std::vector<NodeId>& nodes) {
  finder::GadgetChain chain;
  chain.nodes = nodes;
  for (NodeId n : nodes) {
    chain.signatures.push_back(db.node(n).prop_string(std::string(cpg::kPropSignature)));
  }
  chain.sink_type = db.node(nodes.back()).prop_string(std::string(cpg::kPropSinkType));
  return chain;
}

}  // namespace

BaselineReport run_gadget_inspector(const jir::Program& program,
                                    const GadgetInspectorOptions& options) {
  util::Stopwatch watch;
  BaselineReport report;
  cpg::Cpg cpg = build_baseline_cpg(program);
  const GraphDb& db = cpg.db;

  std::vector<NodeId> sources = db.find_nodes(std::string(cpg::kMethodLabel),
                                              std::string(cpg::kPropIsSource), graph::Value{true});
  std::sort(sources.begin(), sources.end());

  // Global visited set shared across every source (the §IV-F defect). Sink
  // nodes are exempt so distinct chains into the same sink all surface.
  std::vector<bool> visited(db.node_capacity(), false);

  for (NodeId source : sources) {
    // Iterative DFS carrying the path.
    std::vector<std::vector<NodeId>> stack{{source}};
    while (!stack.empty()) {
      std::vector<NodeId> path = std::move(stack.back());
      stack.pop_back();
      NodeId frontier = path.back();

      const graph::Node& node = db.node(frontier);
      bool is_sink = node.prop_bool(std::string(cpg::kPropIsSink));
      if (is_sink && path.size() > 1) {
        report.chains.push_back(chain_from_nodes(db, path));
        continue;
      }
      if (!is_sink) {
        if (visited[frontier]) continue;
        visited[frontier] = true;
      }
      if (static_cast<int>(path.size()) > options.max_depth) continue;

      auto push = [&](NodeId next) {
        if (std::find(path.begin(), path.end(), next) != path.end()) return;
        std::vector<NodeId> extended = path;
        extended.push_back(next);
        stack.push_back(std::move(extended));
      };

      for (EdgeId eid : db.out_edges(frontier)) {
        const Edge& e = db.edge(eid);
        if (e.type == cpg::kCallEdge && edge_has_taint(db, eid)) push(e.to);
      }
      // Forward dispatch through superclass overrides: a call resolved to a
      // superclass declaration may run any subclass override, which GI
      // models by following ALIAS edges in reverse.
      for (EdgeId eid : db.in_edges(frontier)) {
        const Edge& e = db.edge(eid);
        if (e.type == cpg::kAliasEdge) push(e.from);
      }
    }
  }
  report.seconds = watch.elapsed_seconds();
  return report;
}

BaselineReport run_serianalyzer(const jir::Program& program, const SerianalyzerOptions& options) {
  util::Stopwatch watch;
  BaselineReport report;
  cpg::Cpg cpg = build_baseline_cpg(program);

  finder::FinderOptions finder_options;
  finder_options.max_depth = options.max_depth;
  finder_options.check_trigger_conditions = false;  // no controllability at all
  finder_options.max_results_per_sink = options.max_results;
  finder_options.max_expansions = options.max_expansions;

  auto frozen = graph::FrozenGraph::freeze(cpg.db);
  if (!frozen.ok()) throw std::runtime_error("graph freeze failed: " + frozen.error().message);
  finder::FinderReport raw = finder::GadgetChainFinder(frozen.value(), finder_options).find_all();
  // Non-termination model: either the expansion budget drained, or the raw
  // chain count saturated the per-sink result cap (the tool "would have"
  // kept emitting paths far past any acceptable runtime).
  report.exploded = raw.budget_exhausted || raw.chains.size() >= options.max_results;

  if (report.exploded) {
    // The paper reports no output at all for non-terminating runs.
    report.chains.clear();
  } else if (!options.package_filter.empty()) {
    for (finder::GadgetChain& chain : raw.chains) {
      bool mentions_package = false;
      for (const std::string& sig : chain.signatures) {
        if (util::starts_with(sig, options.package_filter)) {
          mentions_package = true;
          break;
        }
      }
      if (mentions_package) report.chains.push_back(std::move(chain));
    }
  } else {
    report.chains = std::move(raw.chains);
  }
  report.seconds = watch.elapsed_seconds();
  return report;
}

}  // namespace tabby::baseline
