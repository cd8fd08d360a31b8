#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace tabby::graph {

void GraphDb::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId GraphDb::add_node(std::string label, PropertyMap props) {
  NodeId id = nodes_.size();
  ++label_counts_[label];
  nodes_.push_back(Node{std::move(label), std::move(props)});
  return id;
}

EdgeId GraphDb::add_edge(NodeId from, NodeId to, std::string type, PropertyMap props) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::out_of_range("add_edge: endpoint does not exist");
  }
  EdgeId id = edges_.size();
  ++type_counts_[type];
  edges_.push_back(Edge{from, to, std::move(type), std::move(props)});
  return id;
}

void GraphDb::set_node_prop(NodeId id, const std::string& key, Value value) {
  if (id >= nodes_.size()) throw std::out_of_range("set_node_prop: no such node");
  nodes_[id].props[key] = std::move(value);
}

std::uint64_t CardinalityStats::label_count(std::string_view label) const {
  auto it = std::lower_bound(labels.begin(), labels.end(), label,
                             [](const auto& entry, std::string_view l) { return entry.first < l; });
  return it != labels.end() && it->first == label ? it->second : 0;
}

std::uint64_t CardinalityStats::type_count(std::string_view type) const {
  auto it =
      std::lower_bound(edge_types.begin(), edge_types.end(), type,
                       [](const auto& entry, std::string_view t) { return entry.first < t; });
  return it != edge_types.end() && it->first == type ? it->second : 0;
}

CardinalityStats GraphDb::cardinality() const {
  CardinalityStats s;
  s.nodes = nodes_.size();
  s.edges = edges_.size();
  s.labels.assign(label_counts_.begin(), label_counts_.end());
  s.edge_types.assign(type_counts_.begin(), type_counts_.end());
  std::sort(s.labels.begin(), s.labels.end());
  std::sort(s.edge_types.begin(), s.edge_types.end());
  return s;
}

}  // namespace tabby::graph
