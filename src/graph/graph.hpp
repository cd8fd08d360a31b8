// The CPG builder's append-only graph buffer: labeled nodes and typed
// directed edges with properties, added in the builder's deterministic
// order and never removed. It has no query API: besides the builder's own
// counts (cardinality(), build_counts()), its only readers are the encoders
// that turn it into something queryable, FrozenGraph::freeze
// (graph/frozen.hpp) and graph::serialize (graph/serialize.hpp), which no
// product path calls. Every query reads the frozen frame.
// Because nothing is removed, ids are dense and the frame's ids are the
// builder's ids. Single-threaded by design.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/value.hpp"

namespace tabby::graph {

using NodeId = std::uint64_t;
using EdgeId = std::uint64_t;
inline constexpr NodeId kNoNode = UINT64_MAX;
inline constexpr EdgeId kNoEdge = UINT64_MAX;

struct Node {
  std::string label;
  PropertyMap props;
};

struct Edge {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string type;
  PropertyMap props;
};

/// Label/edge-type cardinalities in a deterministic (name-ascending) layout,
/// cheap to collect and small enough to persist next to every serialized
/// graph. The cypher planner reads these to pick start points and expansion
/// directions.
struct CardinalityStats {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::vector<std::pair<std::string, std::uint64_t>> labels;      // sorted by name
  std::vector<std::pair<std::string, std::uint64_t>> edge_types;  // sorted by name

  std::uint64_t label_count(std::string_view label) const;
  std::uint64_t type_count(std::string_view type) const;

  bool operator==(const CardinalityStats& other) const {
    return nodes == other.nodes && edges == other.edges && labels == other.labels &&
           edge_types == other.edge_types;
  }
};

/// Counts the graph's producer recorded while building it, carried into the
/// frozen frame so that a reader of the frame alone can report them. The
/// CPG builder's are cpg::CpgStats without its wall time, in the order
/// cpg/builder.hpp fixes; graph/ stores them without interpreting them.
using BuildCounts = std::array<std::uint64_t, 8>;

class GraphDb {
 public:
  GraphDb() = default;

  // Non-copyable (graphs are large); movable.
  GraphDb(const GraphDb&) = delete;
  GraphDb& operator=(const GraphDb&) = delete;
  GraphDb(GraphDb&&) = default;
  GraphDb& operator=(GraphDb&&) = default;

  /// Pre-sizes the node/edge stores (deserialize knows both counts up
  /// front, the CPG builder estimates them from the program; growth-doubling
  /// dominates bulk loads otherwise).
  void reserve(std::size_t nodes, std::size_t edges);

  NodeId add_node(std::string label, PropertyMap props = {});
  /// Throws std::out_of_range when an endpoint was never added.
  EdgeId add_edge(NodeId from, NodeId to, std::string type, PropertyMap props = {});

  /// Set/overwrite a node property.
  void set_node_prop(NodeId id, const std::string& key, Value value);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Every node and edge, indexed by id (insertion order).
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Deterministic label/edge-type cardinalities, O(distinct names): both
  /// tallies are kept by add_node/add_edge, so this is cheap enough to call
  /// at every serialize/freeze.
  CardinalityStats cardinality() const;

  /// The producer's build counts, which freeze() writes into the frame.
  void set_build_counts(const BuildCounts& counts) { build_counts_ = counts; }
  const BuildCounts& build_counts() const { return build_counts_; }

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  BuildCounts build_counts_{};
  std::unordered_map<std::string, std::uint64_t> label_counts_;
  std::unordered_map<std::string, std::uint64_t> type_counts_;
};

}  // namespace tabby::graph
