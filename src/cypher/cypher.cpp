// Evaluation of parsed queries (AST in ast.hpp, parser in parser.cpp,
// planner in planner.cpp) over the frozen CPG.
//
// Two execution modes share one enumerator:
//   - naive: left-to-right pattern matching, the reference semantics;
//   - planned: the same enumeration augmented with the Plan's prunings —
//     backward reachability filters from the anchor, per-segment distance
//     bounds, pushed-down WHERE conditions, and empty proofs.
// Every pruning skips only subtrees that provably emit zero rows, so the
// planned row stream is byte-identical (order included) to the naive one —
// the invariant the differential fuzz harness (tests/cypher_fuzz_test.cpp)
// locks down.
#include "cypher/cypher.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>

#include "cypher/ast.hpp"
#include "cypher/planner.hpp"
#include "obs/obs.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace tabby::cypher {

namespace {

using graph::EdgeId;
using graph::FrozenGraph;
using graph::NodeId;
using graph::Value;
using util::Error;
using util::Result;

// --- Adjacency ---------------------------------------------------------------
// Untyped patterns visit a node's edges in insertion order (ascending edge
// index); typed patterns read the node's typed CSR slice, which ascends the
// same way.

/// Visits out-edges in insertion order, filtered to `type` when non-empty;
/// fn(edge, neighbor).
template <typename Fn>
void for_each_out(const FrozenGraph& db, NodeId n, const std::string& type, Fn&& fn) {
  if (type.empty()) {
    db.for_each_out_ordered(n, [&](std::uint32_t e, std::uint32_t nbr) {
      fn(EdgeId{e}, NodeId{nbr});
    });
    return;
  }
  auto t = db.edge_type_id(type);
  if (!t.has_value()) return;
  graph::AdjacencyView adj = db.out_edges_typed_view(n, *t);
  for (std::size_t k = 0; k < adj.size(); ++k) fn(EdgeId{adj.edge[k]}, NodeId{adj.nbr[k]});
}

template <typename Fn>
void for_each_in(const FrozenGraph& db, NodeId n, const std::string& type, Fn&& fn) {
  if (type.empty()) {
    db.for_each_in_ordered(n, [&](std::uint32_t e, std::uint32_t nbr) {
      fn(EdgeId{e}, NodeId{nbr});
    });
    return;
  }
  auto t = db.edge_type_id(type);
  if (!t.has_value()) return;
  graph::AdjacencyView adj = db.in_edges_typed_view(n, *t);
  for (std::size_t k = 0; k < adj.size(); ++k) fn(EdgeId{adj.edge[k]}, NodeId{adj.nbr[k]});
}

// --- Shared predicates -------------------------------------------------------

bool node_satisfies(const FrozenGraph& db, NodeId id, const NodePattern& pattern) {
  if (!pattern.label.empty() && db.label(id) != pattern.label) return false;
  for (const auto& [key, value] : pattern.props) {
    std::optional<Value> actual = db.node_prop(id, key);
    if (!actual.has_value() || !graph::value_equals(*actual, value)) return false;
  }
  return true;
}

std::vector<NodeId> candidate_nodes(const FrozenGraph& db, const NodePattern& pattern) {
  if (!pattern.label.empty() && !pattern.props.empty()) {
    std::vector<NodeId> hits = db.find_nodes(pattern.label, pattern.props[0].first,
                                             pattern.props[0].second);
    std::vector<NodeId> out;
    for (NodeId id : hits) {
      if (node_satisfies(db, id, pattern)) out.push_back(id);
    }
    return out;
  }
  std::vector<NodeId> out;
  if (!pattern.label.empty()) {
    for (NodeId id : db.nodes_with_label(pattern.label)) {
      if (node_satisfies(db, id, pattern)) out.push_back(id);
    }
    return out;
  }
  for (NodeId id = 0; id < db.node_count(); ++id) {
    if (node_satisfies(db, id, pattern)) out.push_back(id);
  }
  return out;
}

bool compare_values(const Value& lhs, CmpKind op, const Value& rhs) {
  const auto* ls = std::get_if<std::string>(&lhs);
  const auto* rs = std::get_if<std::string>(&rhs);
  switch (op) {
    case CmpKind::Eq:
      return graph::value_equals(lhs, rhs);
    case CmpKind::Ne:
      return !graph::value_equals(lhs, rhs);
    case CmpKind::Contains:
      return ls != nullptr && rs != nullptr && util::contains(*ls, *rs);
    case CmpKind::StartsWith:
      return ls != nullptr && rs != nullptr && util::starts_with(*ls, *rs);
    case CmpKind::EndsWith:
      return ls != nullptr && rs != nullptr && util::ends_with(*ls, *rs);
    default:
      break;
  }
  const auto* li = std::get_if<std::int64_t>(&lhs);
  const auto* ri = std::get_if<std::int64_t>(&rhs);
  if (li != nullptr && ri != nullptr) {
    switch (op) {
      case CmpKind::Lt: return *li < *ri;
      case CmpKind::Gt: return *li > *ri;
      case CmpKind::Le: return *li <= *ri;
      case CmpKind::Ge: return *li >= *ri;
      default: return false;
    }
  }
  if (ls != nullptr && rs != nullptr) {
    int c = ls->compare(*rs);
    switch (op) {
      case CmpKind::Lt: return c < 0;
      case CmpKind::Gt: return c > 0;
      case CmpKind::Le: return c <= 0;
      case CmpKind::Ge: return c >= 0;
      default: return false;
    }
  }
  return false;
}

/// True when node `v` satisfies every condition the plan pushed to pattern
/// position `j` (the exact checks emission would apply later).
bool passes_pushed(const FrozenGraph& db, const Query& query, const Plan& plan, std::size_t j,
                   NodeId v) {
  if (j >= plan.pushed.size()) return true;  // planning disabled: nothing pushed
  for (std::size_t c : plan.pushed[j]) {
    const Condition& cond = query.where[c];
    std::optional<Value> actual = db.node_prop(v, cond.key);
    if (!actual.has_value() || !compare_values(*actual, cond.op, cond.literal)) return false;
  }
  return true;
}

// --- Plan filters ------------------------------------------------------------

/// Dense node-id bitset sized to the representation's id capacity.
struct Bitset {
  std::vector<std::uint64_t> words;

  void resize(std::size_t bits) { words.assign((bits + 63) / 64, 0); }
  bool test(std::uint64_t i) const { return ((words[i >> 6] >> (i & 63)) & 1) != 0; }
  void set(std::uint64_t i) { words[i >> 6] |= std::uint64_t{1} << (i & 63); }
  bool none() const {
    for (std::uint64_t w : words) {
      if (w != 0) return false;
    }
    return true;
  }
  void or_with(const Bitset& other) {
    for (std::size_t i = 0; i < words.size(); ++i) words[i] |= other.words[i];
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        unsigned b = static_cast<unsigned>(std::countr_zero(bits));
        fn(static_cast<NodeId>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }
};

inline constexpr std::uint8_t kDistInf = 255;

/// Materialized backward reachability filters for a reversed plan:
/// `allowed[j]` over-approximates the nodes that can stand at pattern
/// position j (for j in [0, anchor]) in any complete match, and `dist[j]`
/// holds each node's minimum hop count across segment j into allowed[j+1]
/// (kDistInf = unreachable) for mid-expansion pruning. Over-approximation
/// (edge uniqueness is ignored) keeps every pruning sound.
struct FilterSet {
  bool active = false;
  std::size_t anchor = 0;
  std::vector<Bitset> allowed;
  std::vector<std::vector<std::uint8_t>> dist;
};

/// One backward step across segment `rel`: the set of position-j nodes with
/// a single rel-conforming hop into `cur`. Forward expansion follows
/// out-edges for `->` and in-edges for `<-`, so the reverse walk mirrors
/// them. Large levels fan out across the executor in fixed chunks; the
/// serial OR-merge of chunk bitsets is commutative, so the result is
/// identical at any concurrency.
Bitset backward_step(const FrozenGraph& db, const Bitset& cur, const RelPattern& rel,
                     std::size_t capacity, util::Executor* executor) {
  std::vector<NodeId> members;
  cur.for_each([&](NodeId v) { members.push_back(v); });

  auto expand_into = [&](NodeId v, Bitset& out) {
    if (rel.direction >= 0) {
      for_each_in(db, v, rel.type, [&](EdgeId, NodeId u) { out.set(u); });
    }
    if (rel.direction <= 0) {
      for_each_out(db, v, rel.type, [&](EdgeId, NodeId u) { out.set(u); });
    }
  };

  constexpr std::size_t kChunk = 256;
  std::size_t chunks = (members.size() + kChunk - 1) / kChunk;
  Bitset out;
  out.resize(capacity);
  if (executor == nullptr || chunks <= 1) {
    for (NodeId v : members) expand_into(v, out);
    return out;
  }
  std::vector<Bitset> parts(chunks);
  util::run_indexed(executor, chunks, [&](std::size_t c) {
    parts[c].resize(capacity);
    std::size_t end = std::min(members.size(), (c + 1) * kChunk);
    for (std::size_t i = c * kChunk; i < end; ++i) expand_into(members[i], parts[c]);
  });
  for (const Bitset& part : parts) out.or_with(part);
  return out;
}

FilterSet build_filters(const FrozenGraph& db, const Query& query, const Plan& plan,
                        const QueryOptions& options) {
  FilterSet filters;
  if (!plan.reverse || plan.always_empty) return filters;
  const std::size_t capacity = db.node_count();
  const auto& nodes = query.pattern.nodes;
  const auto& rels = query.pattern.rels;

  filters.active = true;
  filters.anchor = plan.anchor;
  filters.allowed.resize(plan.anchor + 1);
  filters.dist.resize(plan.anchor);

  // Anchor candidates (already the pattern's cheapest position).
  Bitset& anchor_set = filters.allowed[plan.anchor];
  anchor_set.resize(capacity);
  for (NodeId id : candidate_nodes(db, nodes[plan.anchor])) {
    if (passes_pushed(db, query, plan, plan.anchor, id)) anchor_set.set(id);
  }

  // Walk backward: S_j from S_{j+1} across segment j. Per level k we hold
  // the *exact k-step walk set* L_k (not a first-reach frontier): a node
  // first reached at k may still need a longer walk to satisfy min_len, so
  // membership must union the full L_k for k in [min_len, max_len].
  for (std::size_t j = plan.anchor; j-- > 0;) {
    const RelPattern& rel = rels[j];
    std::vector<std::uint8_t>& dist = filters.dist[j];
    dist.assign(capacity, kDistInf);

    Bitset reach;
    reach.resize(capacity);
    Bitset level = filters.allowed[j + 1];  // L_0
    level.for_each([&](NodeId v) { dist[v] = 0; });
    if (rel.min_len <= 0) reach.or_with(level);
    for (int k = 1; k <= rel.max_len; ++k) {
      if (level.none()) break;
      level = backward_step(db, level, rel, capacity, options.executor);
      level.for_each([&](NodeId v) {
        if (dist[v] == kDistInf) dist[v] = static_cast<std::uint8_t>(k);
      });
      if (k >= rel.min_len) reach.or_with(level);
    }

    Bitset& allowed = filters.allowed[j];
    allowed.resize(capacity);
    reach.for_each([&](NodeId v) {
      if (node_satisfies(db, v, nodes[j]) && passes_pushed(db, query, plan, j, v)) {
        allowed.set(v);
      }
    });
  }
  return filters;
}

// --- Executor ----------------------------------------------------------------

class Executor {
 public:
  Executor(const FrozenGraph& db, const Query& query, const Plan& plan, const FilterSet& filters)
      : db_(db), query_(query), plan_(plan), filters_(filters) {}

  std::uint64_t starts_pruned() const { return starts_pruned_; }
  std::uint64_t expansions_pruned() const { return expansions_pruned_; }

  QueryResult run() {
    QueryResult result;
    for (const ReturnItem& item : query_.items) {
      result.columns.push_back(item.key.empty() ? item.var : item.var + "." + item.key);
    }
    if (plan_.always_empty) return result;
    for (NodeId start : candidate_nodes(db_, query_.pattern.nodes[0])) {
      if (!accepts(0, start)) {
        ++starts_pruned_;
        continue;
      }
      graph::Path path;
      path.nodes.push_back(start);
      extend(0, path, result);
      if (result.rows.size() >= query_.limit) break;
    }
    return result;
  }

 private:
  /// Position gate: the filter bitsets where they exist (pushed conditions
  /// are baked in), the pushed conditions alone elsewhere. Always a sound
  /// over-approximation of "some complete match puts this node here".
  bool accepts(std::size_t position, NodeId v) const {
    if (filters_.active && position <= filters_.anchor) {
      return filters_.allowed[position].test(v);
    }
    return passes_pushed(db_, query_, plan_, position, v);
  }

  /// Recursively match relationship `rel_index` onwards; `path` covers node
  /// patterns [0, rel_index].
  void extend(std::size_t rel_index, graph::Path& path, QueryResult& result) {
    if (result.rows.size() >= query_.limit) return;
    if (rel_index == query_.pattern.rels.size()) {
      emit(path, result);
      return;
    }
    const RelPattern& rel = query_.pattern.rels[rel_index];
    const NodePattern& target = query_.pattern.nodes[rel_index + 1];
    expand_hops(rel, target, path, path.end(), 0, rel_index, result);
  }

  void expand_hops(const RelPattern& rel, const NodePattern& target, graph::Path& path,
                   NodeId frontier, int hops, std::size_t rel_index, QueryResult& result) {
    if (result.rows.size() >= query_.limit) return;
    // Distance bound: within a filtered segment, a frontier that cannot
    // reach allowed[rel_index + 1] inside the remaining hop budget heads a
    // subtree that emits nothing — skip it (acceptance included: dist 0 is
    // exactly membership in the target set).
    if (filters_.active && rel_index < filters_.anchor &&
        filters_.dist[rel_index][frontier] > rel.max_len - hops) {
      ++expansions_pruned_;
      return;
    }
    if (hops >= rel.min_len && node_satisfies(db_, frontier, target) &&
        accepts(rel_index + 1, frontier)) {
      extend(rel_index + 1, path, result);
    }
    if (hops >= rel.max_len) return;

    auto try_edge = [&](EdgeId eid, NodeId next) {
      if (std::find(path.edges.begin(), path.edges.end(), eid) != path.edges.end()) return;
      path.edges.push_back(eid);
      path.nodes.push_back(next);
      expand_hops(rel, target, path, next, hops + 1, rel_index, result);
      path.edges.pop_back();
      path.nodes.pop_back();
    };

    if (rel.direction >= 0) for_each_out(db_, frontier, rel.type, try_edge);
    if (rel.direction <= 0) for_each_in(db_, frontier, rel.type, try_edge);
  }

  void emit(const graph::Path& path, QueryResult& result) {
    std::map<std::string, Binding> bindings;
    bindings_from_path(path, bindings);

    if (!query_.pattern.path_var.empty()) {
      bindings[query_.pattern.path_var] = Binding::of_path(path);
    }
    for (const Condition& condition : query_.where) {
      auto it = bindings.find(condition.var);
      if (it == bindings.end() || it->second.kind != Binding::Kind::Node) return;
      std::optional<Value> actual = db_.node_prop(it->second.node, condition.key);
      if (!actual.has_value() || !compare_values(*actual, condition.op, condition.literal)) {
        return;
      }
    }
    std::vector<Binding> row;
    for (const ReturnItem& item : query_.items) {
      auto it = bindings.find(item.var);
      if (it == bindings.end()) {
        row.push_back(Binding::of_scalar(Value{}));
        continue;
      }
      if (item.key.empty()) {
        row.push_back(it->second);
      } else if (it->second.kind == Binding::Kind::Node) {
        std::optional<Value> v = db_.node_prop(it->second.node, item.key);
        row.push_back(Binding::of_scalar(v.has_value() ? *v : Value{}));
      } else {
        row.push_back(Binding::of_scalar(Value{}));
      }
    }
    result.rows.push_back(std::move(row));
  }

  /// First and last pattern nodes always anchor the path ends; intermediate
  /// anchored vars of fixed-length segments are resolved positionally. For
  /// variable-length middles, intermediate vars bind to the segment end
  /// (matching Cypher, where inner var-length nodes are not addressable).
  void bindings_from_path(const graph::Path& path, std::map<std::string, Binding>& bindings) {
    const auto& nodes = query_.pattern.nodes;
    const auto& rels = query_.pattern.rels;
    if (!nodes.front().var.empty()) {
      bindings[nodes.front().var] = Binding::of_node(path.nodes.front());
    }
    if (nodes.size() == 1) return;
    // Walk forward assigning anchors: fixed-length segments advance exactly;
    // a variable-length segment consumes "the rest minus what later fixed
    // segments need" greedily. With at most one variable-length segment per
    // query (the common case for gadget hunting) this is exact.
    std::size_t fixed_after = 0;
    std::size_t var_segments = 0;
    for (const RelPattern& rel : rels) {
      if (rel.min_len == rel.max_len) {
        fixed_after += static_cast<std::size_t>(rel.min_len);
      } else {
        ++var_segments;
      }
    }
    std::size_t total_hops = path.edges.size();
    std::size_t variable_budget = total_hops - std::min(total_hops, fixed_after);
    std::size_t position = 0;
    for (std::size_t i = 0; i < rels.size(); ++i) {
      std::size_t hops = rels[i].min_len == rels[i].max_len
                             ? static_cast<std::size_t>(rels[i].min_len)
                             : (var_segments == 1 ? variable_budget : 0);
      position += hops;
      if (position >= path.nodes.size()) position = path.nodes.size() - 1;
      if (!nodes[i + 1].var.empty()) {
        bindings[nodes[i + 1].var] = Binding::of_node(path.nodes[position]);
      }
    }
    // The final pattern node always anchors the path end.
    if (!nodes.back().var.empty()) {
      bindings[nodes.back().var] = Binding::of_node(path.nodes.back());
    }
  }

  const FrozenGraph& db_;
  const Query& query_;
  const Plan& plan_;
  const FilterSet& filters_;
  std::uint64_t starts_pruned_ = 0;
  std::uint64_t expansions_pruned_ = 0;
};

// --- Rendering ---------------------------------------------------------------

std::string render_node(const FrozenGraph& db, NodeId id) {
  auto text_prop = [&](const char* key) -> std::string {
    std::optional<Value> v = db.node_prop(id, key);
    const std::string* s = v.has_value() ? std::get_if<std::string>(&v.value()) : nullptr;
    return s != nullptr ? *s : std::string{};
  };
  std::string best = text_prop("SIGNATURE");
  if (best.empty()) best = text_prop("NAME");
  if (best.empty()) best = "#" + std::to_string(id);
  return "(" + std::string(db.label(id)) + " " + best + ")";
}

std::string result_to_string(const QueryResult& result, const FrozenGraph& db) {
  std::string out = util::join(result.columns, " | ") + "\n";
  for (const auto& row : result.rows) {
    std::vector<std::string> cells;
    for (const Binding& binding : row) {
      switch (binding.kind) {
        case Binding::Kind::Node:
          cells.push_back(render_node(db, binding.node));
          break;
        case Binding::Kind::Relationship:
          cells.push_back("[" + std::string(db.edge_type_name(db.edge_type(binding.edge))) + "]");
          break;
        case Binding::Kind::Path: {
          std::string text;
          for (std::size_t i = 0; i < binding.path.nodes.size(); ++i) {
            if (i != 0) text += " -> ";
            text += render_node(db, binding.path.nodes[i]);
          }
          cells.push_back(std::move(text));
          break;
        }
        case Binding::Kind::Scalar:
          cells.push_back(graph::to_string(binding.scalar));
          break;
      }
    }
    out += util::join(cells, " | ") + "\n";
  }
  return out;
}

// --- Entry point -------------------------------------------------------------

util::Result<QueryResult> run_query_impl(const FrozenGraph& db, std::string_view query_text,
                                         const QueryOptions& options) {
  // Fault seam for the chaos harness: evaluation faults surface as the
  // structured error a malformed plan would produce, never as a crash.
  if (util::failpoint::poll("cypher.eval")) {
    return util::Error{"failpoint: injected query evaluation failure"};
  }
  auto query = parse_query(query_text);
  if (!query.ok()) return query.error();

  Plan plan;
  FilterSet filters;
  if (options.use_planner) {
    TABBY_SPAN("cypher.plan");
    // Planner fault seam: a planning failure must degrade to the naive
    // evaluator (same rows, slower), never a wrong answer or an error.
    if (util::failpoint::poll("cypher.plan")) {
      plan.reason = "failpoint: injected planner failure, fell back to naive evaluation";
      obs::counter_add("cypher.plan.fallback");
    } else {
      plan = plan_query(query.value(), db.stats());
      filters = build_filters(db, query.value(), plan, options);
      obs::counter_add(plan.mode == Plan::Mode::Planned ? "cypher.plan.planned"
                                                        : "cypher.plan.naive");
      std::uint64_t pushdowns = 0;
      for (const auto& p : plan.pushed) pushdowns += p.size();
      if (pushdowns > 0) obs::counter_add("cypher.plan.pushdown", pushdowns);
    }
  } else {
    plan.reason = "planning disabled (--no-plan)";
  }

  Executor executor(db, query.value(), plan, filters);
  QueryResult result = executor.run();
  result.plan = plan.to_string(query.value());
  if (executor.starts_pruned() > 0) {
    obs::counter_add("cypher.plan.starts_pruned", executor.starts_pruned());
  }
  if (executor.expansions_pruned() > 0) {
    obs::counter_add("cypher.plan.expansions_pruned", executor.expansions_pruned());
  }
  return result;
}

}  // namespace

std::string QueryResult::to_string(const graph::FrozenGraph& db) const {
  return result_to_string(*this, db);
}

util::Result<QueryResult> run_query(const graph::FrozenGraph& db, std::string_view query_text) {
  return run_query_impl(db, query_text, QueryOptions{});
}

util::Result<QueryResult> run_query(const graph::FrozenGraph& db, std::string_view query_text,
                                    const QueryOptions& options) {
  return run_query_impl(db, query_text, options);
}

}  // namespace tabby::cypher
