#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace tabby::graph {

void GraphDb::reserve(std::size_t nodes, std::size_t edges) {
  nodes_.reserve(nodes);
  out_.reserve(nodes);
  in_.reserve(nodes);
  edges_.reserve(edges);
}

NodeId GraphDb::add_node(std::string label, PropertyMap props) {
  NodeId id = nodes_.size();
  Node n;
  n.id = id;
  n.label = std::move(label);
  n.props = std::move(props);
  nodes_.push_back(std::move(n));
  out_.emplace_back();
  in_.emplace_back();
  by_label_[nodes_.back().label].push_back(id);
  ++live_nodes_;
  return id;
}

EdgeId GraphDb::add_edge(NodeId from, NodeId to, std::string type, PropertyMap props) {
  if (!node_alive(from) || !node_alive(to)) {
    throw std::out_of_range("add_edge: endpoint does not exist");
  }
  EdgeId id = edges_.size();
  Edge e;
  e.id = id;
  e.from = from;
  e.to = to;
  e.type = std::move(type);
  e.props = std::move(props);
  edges_.push_back(std::move(e));
  out_[from].push_back(id);
  in_[to].push_back(id);
  ++live_edges_;
  ++type_counts_[edges_.back().type];
  return id;
}

void GraphDb::set_node_prop(NodeId id, const std::string& key, Value value) {
  if (!node_alive(id)) throw std::out_of_range("set_node_prop: no such node");
  nodes_[id].props[key] = std::move(value);
}

void GraphDb::set_edge_prop(EdgeId id, const std::string& key, Value value) {
  if (!edge_alive(id)) throw std::out_of_range("set_edge_prop: no such edge");
  edges_[id].props[key] = std::move(value);
}

void GraphDb::remove_edge(EdgeId id) {
  if (!edge_alive(id)) return;
  Edge& e = edges_[id];
  e.alive = false;
  auto unlink = [id](std::vector<EdgeId>& v) {
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
  };
  unlink(out_[e.from]);
  unlink(in_[e.to]);
  --live_edges_;
  auto tally = type_counts_.find(e.type);
  if (tally != type_counts_.end() && tally->second > 0) --tally->second;
}

void GraphDb::remove_node(NodeId id) {
  if (!node_alive(id)) return;
  // Copy: remove_edge mutates the adjacency lists we are iterating.
  std::vector<EdgeId> incident = out_[id];
  incident.insert(incident.end(), in_[id].begin(), in_[id].end());
  for (EdgeId e : incident) remove_edge(e);
  Node& n = nodes_[id];
  auto& bucket = by_label_[n.label];
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  n.alive = false;
  --live_nodes_;
}

const Node& GraphDb::node(NodeId id) const {
  if (!node_alive(id)) throw std::out_of_range("node: no such node");
  return nodes_[id];
}

const Edge& GraphDb::edge(EdgeId id) const {
  if (!edge_alive(id)) throw std::out_of_range("edge: no such edge");
  return edges_[id];
}

const std::vector<EdgeId>& GraphDb::out_edges(NodeId id) const {
  if (!node_alive(id)) throw std::out_of_range("out_edges: no such node");
  return out_[id];
}

const std::vector<EdgeId>& GraphDb::in_edges(NodeId id) const {
  if (!node_alive(id)) throw std::out_of_range("in_edges: no such node");
  return in_[id];
}

std::vector<EdgeId> GraphDb::out_edges_typed(NodeId id, std::string_view type) const {
  std::vector<EdgeId> result;
  for (EdgeId e : out_edges(id)) {
    if (edges_[e].type == type) result.push_back(e);
  }
  return result;
}

std::vector<EdgeId> GraphDb::in_edges_typed(NodeId id, std::string_view type) const {
  std::vector<EdgeId> result;
  for (EdgeId e : in_edges(id)) {
    if (edges_[e].type == type) result.push_back(e);
  }
  return result;
}

std::optional<EdgeId> GraphDb::find_edge(NodeId from, NodeId to, std::string_view type) const {
  for (EdgeId e : out_edges(from)) {
    if (edges_[e].to == to && edges_[e].type == type) return e;
  }
  return std::nullopt;
}

std::vector<NodeId> GraphDb::nodes_with_label(std::string_view label) const {
  auto it = by_label_.find(std::string(label));
  if (it == by_label_.end()) return {};
  return it->second;
}

void GraphDb::for_each_node(const std::function<void(const Node&)>& fn) const {
  for (const Node& n : nodes_) {
    if (n.alive) fn(n);
  }
}

void GraphDb::for_each_edge(const std::function<void(const Edge&)>& fn) const {
  for (const Edge& e : edges_) {
    if (e.alive) fn(e);
  }
}

std::vector<NodeId> GraphDb::find_nodes(const std::string& label, const std::string& key,
                                        const Value& value) const {
  std::vector<NodeId> result;
  auto bucket = by_label_.find(label);
  if (bucket == by_label_.end()) return result;
  for (NodeId id : bucket->second) {
    const Value* v = nodes_[id].prop(key);
    if (v != nullptr && value_equals(*v, value)) result.push_back(id);
  }
  return result;
}

GraphStats GraphDb::stats() const {
  GraphStats s;
  s.node_count = live_nodes_;
  s.edge_count = live_edges_;
  for (const Node& n : nodes_) {
    if (n.alive) ++s.nodes_by_label[n.label];
  }
  for (const Edge& e : edges_) {
    if (e.alive) ++s.edges_by_type[e.type];
  }
  return s;
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
  s.nodes = live_nodes_;
  s.edges = live_edges_;
  s.labels.reserve(by_label_.size());
  for (const auto& [label, bucket] : by_label_) {
    // remove_node erases ids from their bucket, so the size is the exact
    // live count; labels whose nodes were all removed drop out entirely.
    if (!bucket.empty()) s.labels.emplace_back(label, bucket.size());
  }
  s.edge_types.reserve(type_counts_.size());
  for (const auto& [type, count] : type_counts_) {
    if (count > 0) s.edge_types.emplace_back(type, count);
  }
  std::sort(s.labels.begin(), s.labels.end());
  std::sort(s.edge_types.begin(), s.edge_types.end());
  return s;
}

}  // namespace tabby::graph
