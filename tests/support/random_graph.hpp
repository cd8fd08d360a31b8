// Shared randomized-graph generator for tests. Seeded and fully
// deterministic: the same seed always yields the same graph, so a failing
// differential case reproduces from its printed seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace tabby::testsupport {

/// Randomized graph: 24-71 nodes over four labels, 3 edges per node over
/// four types (self-loops and parallel edges included), and a mix of every
/// property encoding.
inline graph::GraphDb random_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::GraphDb db;
  const char* labels[] = {"Method", "Class", "Field", "Call"};
  const char* types[] = {"CALL", "ALIAS", "EXTENDS", "CONTAINS"};
  const char* keys[] = {"EXTRA", "ORDER", "IS_SINK", "SCORE", "POS", "TAGS", "MIX"};
  std::size_t n = 24 + rng.next_below(48);
  std::vector<graph::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    auto id = db.add_node(labels[rng.next_below(4)]);
    ids.push_back(id);
    // Every node gets a unique string NAME, like real CPG nodes: query
    // output then renders identically across representations (anonymous
    // nodes print raw ids, which the freeze legitimately renumbers).
    db.set_node_prop(id, "NAME", graph::Value{"n" + std::to_string(i)});
    for (std::size_t k = 0; k < 2 + rng.next_below(3); ++k) {
      const char* key = keys[rng.next_below(7)];
      switch (rng.next_below(7)) {
        case 0: db.set_node_prop(id, key, graph::Value{rng.next_below(2) == 0}); break;
        case 1: db.set_node_prop(id, key, graph::Value{std::int64_t(rng.next_below(1000))}); break;
        case 2: db.set_node_prop(id, key, graph::Value{double(rng.next_below(100)) / 4.0}); break;
        case 3:
          db.set_node_prop(id, key, graph::Value{"s" + std::to_string(rng.next_below(50))});
          break;
        case 4:
          db.set_node_prop(
              id, key,
              graph::Value{std::vector<std::int64_t>{std::int64_t(rng.next_below(5)), -1}});
          break;
        case 5:
          db.set_node_prop(id, key,
                           graph::Value{std::vector<std::string>{
                               "t" + std::to_string(rng.next_below(9))}});
          break;
        default: db.set_node_prop(id, key, graph::Value{}); break;
      }
    }
  }
  std::size_t m = n * 3;
  for (std::size_t i = 0; i < m; ++i) {
    graph::NodeId from = ids[rng.next_below(ids.size())];
    graph::NodeId to = ids[rng.next_below(ids.size())];
    const char* type = types[rng.next_below(4)];
    graph::PropertyMap props;
    if (rng.next_below(3) == 0)
      props["POLLUTED_POSITION"] =
          graph::Value{std::vector<std::int64_t>{std::int64_t(rng.next_below(4))}};
    if (rng.next_below(4) == 0) props["W"] = graph::Value{std::int64_t(rng.next_below(10))};
    db.add_edge(from, to, type, std::move(props));
  }
  return db;
}

}  // namespace tabby::testsupport
