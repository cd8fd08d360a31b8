// Embedded property-graph store: the repository's Neo4j substitute.
// Supports labeled nodes, typed directed edges, arbitrary properties,
// label scans, edge removal (the PCG pruning operation), and binary
// persistence. Single-threaded by design — the pipeline builds one graph per
// analysis run, freezes it (graph/frozen.hpp) and reads only the frozen copy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
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
  NodeId id = kNoNode;
  std::string label;
  PropertyMap props;
  bool alive = true;

  const Value* prop(const std::string& key) const {
    auto it = props.find(key);
    return it == props.end() ? nullptr : &it->second;
  }
  std::string prop_string(const std::string& key) const {
    const Value* v = prop(key);
    const std::string* s = v != nullptr ? std::get_if<std::string>(v) : nullptr;
    return s != nullptr ? *s : std::string{};
  }
  std::int64_t prop_int(const std::string& key, std::int64_t fallback = 0) const {
    const Value* v = prop(key);
    const std::int64_t* i = v != nullptr ? std::get_if<std::int64_t>(v) : nullptr;
    return i != nullptr ? *i : fallback;
  }
  bool prop_bool(const std::string& key) const {
    const Value* v = prop(key);
    const bool* b = v != nullptr ? std::get_if<bool>(v) : nullptr;
    return b != nullptr && *b;
  }
};

struct Edge {
  EdgeId id = kNoEdge;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::string type;
  PropertyMap props;
  bool alive = true;

  const Value* prop(const std::string& key) const {
    auto it = props.find(key);
    return it == props.end() ? nullptr : &it->second;
  }
};

struct GraphStats {
  std::size_t node_count = 0;
  std::size_t edge_count = 0;
  std::unordered_map<std::string, std::size_t> nodes_by_label;
  std::unordered_map<std::string, std::size_t> edges_by_type;
};

/// Label/edge-type cardinalities in a deterministic (name-ascending) layout,
/// cheap to collect and small enough to persist next to every serialized
/// graph. The cypher planner reads these to pick start points and expansion
/// directions; entries count live elements only.
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

class GraphDb {
 public:
  GraphDb() = default;

  // Non-copyable (graphs are large); movable.
  GraphDb(const GraphDb&) = delete;
  GraphDb& operator=(const GraphDb&) = delete;
  GraphDb(GraphDb&&) = default;
  GraphDb& operator=(GraphDb&&) = default;

  // --- Mutation -------------------------------------------------------------

  /// Pre-sizes the node/edge stores (deserialize knows both counts up
  /// front; growth-doubling dominates bulk loads otherwise).
  void reserve(std::size_t nodes, std::size_t edges);

  NodeId add_node(std::string label, PropertyMap props = {});
  EdgeId add_edge(NodeId from, NodeId to, std::string type, PropertyMap props = {});

  /// Set/overwrite a node property.
  void set_node_prop(NodeId id, const std::string& key, Value value);
  void set_edge_prop(EdgeId id, const std::string& key, Value value);

  /// Tombstone an edge and unlink it from adjacency (used by PCG pruning).
  void remove_edge(EdgeId id);
  /// Tombstone a node and all incident edges.
  void remove_node(NodeId id);

  // --- Access ---------------------------------------------------------------

  bool node_alive(NodeId id) const { return id < nodes_.size() && nodes_[id].alive; }
  bool edge_alive(EdgeId id) const { return id < edges_.size() && edges_[id].alive; }

  /// Precondition: id refers to a live element (checked, throws out_of_range).
  const Node& node(NodeId id) const;
  const Edge& edge(EdgeId id) const;

  const std::vector<EdgeId>& out_edges(NodeId id) const;
  const std::vector<EdgeId>& in_edges(NodeId id) const;

  /// Out/in edges with a given type, filtered on the fly.
  std::vector<EdgeId> out_edges_typed(NodeId id, std::string_view type) const;
  std::vector<EdgeId> in_edges_typed(NodeId id, std::string_view type) const;

  /// First edge from -> to with the given type, if any.
  std::optional<EdgeId> find_edge(NodeId from, NodeId to, std::string_view type) const;

  std::size_t node_count() const { return live_nodes_; }
  std::size_t edge_count() const { return live_edges_; }
  std::size_t node_capacity() const { return nodes_.size(); }
  std::size_t edge_capacity() const { return edges_.size(); }

  std::vector<NodeId> nodes_with_label(std::string_view label) const;
  void for_each_node(const std::function<void(const Node&)>& fn) const;
  void for_each_edge(const std::function<void(const Edge&)>& fn) const;

  /// Equality lookup: a scan of `label`'s nodes in insertion order.
  std::vector<NodeId> find_nodes(const std::string& label, const std::string& key,
                                 const Value& value) const;

  GraphStats stats() const;

  /// Deterministic label/edge-type cardinalities, O(distinct names) — label
  /// counts come from the label buckets, edge-type counts from an
  /// incrementally maintained tally, so this is cheap enough to call at
  /// every serialize/freeze.
  CardinalityStats cardinality() const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::unordered_map<std::string, std::vector<NodeId>> by_label_;
  // Live-edge tally per type, maintained by add_edge/remove_edge so
  // cardinality() never scans the edge store.
  std::unordered_map<std::string, std::uint64_t> type_counts_;
  std::size_t live_nodes_ = 0;
  std::size_t live_edges_ = 0;
};

}  // namespace tabby::graph
