#include "baseline/baselines.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "analysis/domain.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "graph/frozen.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace tabby::baseline {

namespace {

using graph::EdgeId;
using graph::FrozenGraph;
using graph::NodeId;

/// CPG flavour shared by both baselines: weak (intraprocedural, permissive)
/// analysis, no PCG pruning, superclass-only aliases. Frozen, like every
/// graph a search reads.
FrozenGraph build_baseline_cpg(const jir::Program& program) {
  cpg::CpgOptions options;
  options.prune_uncontrollable_calls = false;
  options.alias_superclass_only = true;
  options.analysis.interprocedural = false;
  options.analysis.unknown_return_controllable = true;
  auto frozen = FrozenGraph::freeze(cpg::build_cpg(program, options).db);
  if (!frozen.ok()) throw std::runtime_error("graph freeze failed: " + frozen.error().message);
  return std::move(frozen.value());
}

finder::GadgetChain chain_from_nodes(const FrozenGraph& db, const std::vector<NodeId>& nodes) {
  finder::GadgetChain chain;
  chain.nodes = nodes;
  for (NodeId n : nodes) {
    chain.signatures.emplace_back(db.node_prop_string(n, cpg::kPropSignature));
  }
  chain.sink_type = db.node_prop_string(nodes.back(), cpg::kPropSinkType);
  return chain;
}

}  // namespace

BaselineReport run_gadget_inspector(const jir::Program& program,
                                    const GadgetInspectorOptions& options) {
  util::Stopwatch watch;
  BaselineReport report;
  const FrozenGraph db = build_baseline_cpg(program);
  const graph::FrozenColumn* sink_col = db.node_column(cpg::kPropIsSink);
  const graph::FrozenColumn* pp_col = db.edge_column(cpg::kPropPollutedPosition);
  const std::optional<std::uint16_t> call_type = db.edge_type_id(cpg::kCallEdge);
  const std::optional<std::uint16_t> alias_type = db.edge_type_id(cpg::kAliasEdge);

  // A CALL edge carries taint when any Polluted_Position slot is controllable.
  auto has_taint = [&](EdgeId e) {
    if (pp_col == nullptr) return false;
    auto pp = pp_col->get_intlist(e);
    return std::any_of(pp.begin(), pp.end(), analysis::is_controllable);
  };

  std::vector<NodeId> sources =
      db.find_nodes(cpg::kMethodLabel, cpg::kPropIsSource, graph::Value{true});

  // Global visited set shared across every source (the §IV-F defect). Sink
  // nodes are exempt so distinct chains into the same sink all surface.
  std::vector<bool> visited(db.node_count(), false);

  for (NodeId source : sources) {
    // Iterative DFS carrying the path.
    std::vector<std::vector<NodeId>> stack{{source}};
    while (!stack.empty()) {
      std::vector<NodeId> path = std::move(stack.back());
      stack.pop_back();
      NodeId frontier = path.back();

      bool is_sink = sink_col != nullptr && sink_col->get_bool(frontier);
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

      // Typed slices ascend by edge index, the builder's insertion order.
      if (call_type.has_value()) {
        graph::AdjacencyView calls = db.out_edges_typed_view(frontier, *call_type);
        for (std::size_t k = 0; k < calls.size(); ++k) {
          if (has_taint(calls.edge[k])) push(calls.nbr[k]);
        }
      }
      // Forward dispatch through superclass overrides: a call resolved to a
      // superclass declaration may run any subclass override, which GI
      // models by following ALIAS edges in reverse.
      if (alias_type.has_value()) {
        graph::AdjacencyView overrides = db.in_edges_typed_view(frontier, *alias_type);
        for (std::size_t k = 0; k < overrides.size(); ++k) push(overrides.nbr[k]);
      }
    }
  }
  report.seconds = watch.elapsed_seconds();
  return report;
}

BaselineReport run_serianalyzer(const jir::Program& program, const SerianalyzerOptions& options) {
  util::Stopwatch watch;
  BaselineReport report;
  const FrozenGraph cpg = build_baseline_cpg(program);

  finder::FinderOptions finder_options;
  finder_options.max_depth = options.max_depth;
  finder_options.check_trigger_conditions = false;  // no controllability at all
  finder_options.max_results_per_sink = options.max_results;
  finder_options.max_expansions = options.max_expansions;

  finder::FinderReport raw = finder::GadgetChainFinder(cpg, finder_options).find_all();
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
