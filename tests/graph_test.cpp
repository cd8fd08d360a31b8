// Tests for the builder's append-only graph buffer, the store codec and the
// traversal framework: insertion and counts, reads of the frozen frame the
// buffer freezes into (adjacency, typed filters, property lookup), store and
// frame round trips, and the Expander/Evaluator engine with all uniqueness
// modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "graph/traversal.hpp"
#include "support/freeze.hpp"
#include "util/rng.hpp"

namespace tabby::graph {
namespace {

using tabby::testing::freeze;

TEST(Graph, AddAndReadBack) {
  GraphDb db;
  NodeId a = db.add_node("Class", {{"NAME", Value{std::string("demo.A")}}});
  NodeId b = db.add_node("Method", {{"NAME", Value{std::string("run")}}});
  EdgeId e = db.add_edge(a, b, "HAS", {{"W", Value{std::int64_t{7}}}});

  EXPECT_EQ(db.node_count(), 2u);
  EXPECT_EQ(db.edge_count(), 1u);
  FrozenGraph fg = freeze(db);
  EXPECT_EQ(fg.node_prop_string(a, "NAME"), "demo.A");
  EXPECT_EQ(fg.edge_from(e), a);
  EXPECT_EQ(fg.edge_to(e), b);
  ASSERT_EQ(fg.out_edges_view(a).size(), 1u);
  EXPECT_EQ(fg.in_edges_view(b).size(), 1u);
  EXPECT_TRUE(fg.out_edges_view(b).empty());
}

TEST(Graph, EdgeToMissingNodeThrows) {
  GraphDb db;
  NodeId a = db.add_node("X");
  EXPECT_THROW(db.add_edge(a, 999, "E"), std::out_of_range);
  EXPECT_THROW(db.set_node_prop(42, "K", Value{}), std::out_of_range);
}

TEST(Graph, TypedEdgeFilters) {
  GraphDb db;
  NodeId a = db.add_node("X");
  NodeId b = db.add_node("X");
  db.add_edge(a, b, "CALL");
  db.add_edge(a, b, "ALIAS");
  db.add_edge(a, b, "CALL");

  FrozenGraph fg = freeze(db);
  std::uint16_t call = *fg.edge_type_id("CALL");
  std::uint16_t alias = *fg.edge_type_id("ALIAS");
  EXPECT_EQ(fg.out_edges_typed_view(a, call).size(), 2u);
  EXPECT_EQ(fg.out_edges_typed_view(a, alias).size(), 1u);
  EXPECT_EQ(fg.in_edges_typed_view(b, call).size(), 2u);
  EXPECT_TRUE(fg.in_edges_typed_view(a, call).empty());
  EXPECT_TRUE(fg.out_edges_typed_view(b, alias).empty());
}

TEST(Graph, FindNodesScansTheLabelBucket) {
  GraphDb db;
  std::vector<NodeId> m3;
  for (int i = 0; i < 100; ++i) {
    NodeId n = db.add_node("Method", {{"NAME", Value{std::string("m") + std::to_string(i % 10)}}});
    if (i % 10 == 3) m3.push_back(n);
  }
  // Hits come back in insertion order; an unknown label yields nothing.
  FrozenGraph fg = freeze(db);
  EXPECT_EQ(fg.find_nodes("Method", "NAME", Value{std::string("m3")}), m3);
  EXPECT_TRUE(fg.find_nodes("Nope", "NAME", Value{std::string("m3")}).empty());
}

// find_nodes is the frame's property lookup; the tests below hold it to the
// behaviours the old secondary index guaranteed.
TEST(Graph, IndexStaysInSyncWithPropertyUpdates) {
  GraphDb db;
  NodeId n = db.add_node("Method", {{"NAME", Value{std::string("before")}}});
  EXPECT_EQ(freeze(db).find_nodes("Method", "NAME", Value{std::string("before")}).size(), 1u);
  db.set_node_prop(n, "NAME", Value{std::string("after")});
  FrozenGraph fg = freeze(db);
  EXPECT_TRUE(fg.find_nodes("Method", "NAME", Value{std::string("before")}).empty());
  EXPECT_EQ(fg.find_nodes("Method", "NAME", Value{std::string("after")}).size(), 1u);
}

TEST(Graph, BoolAndIntIndexKeysCompatible) {
  GraphDb db;
  NodeId flag = db.add_node("X", {{"FLAG", Value{true}}});
  FrozenGraph fg = freeze(db);
  EXPECT_EQ(fg.find_nodes("X", "FLAG", Value{true}), std::vector<NodeId>{flag});
  // Bool and int compare numerically, as in Cypher `=`.
  EXPECT_EQ(fg.find_nodes("X", "FLAG", Value{std::int64_t{1}}), std::vector<NodeId>{flag});
  EXPECT_TRUE(fg.find_nodes("X", "FLAG", Value{false}).empty());
}

TEST(Graph, StatsCountByLabelAndType) {
  GraphDb db;
  NodeId a = db.add_node("Class");
  NodeId b = db.add_node("Method");
  NodeId c = db.add_node("Method");
  db.add_edge(a, b, "HAS");
  db.add_edge(a, c, "HAS");
  db.add_edge(b, c, "CALL");
  CardinalityStats s = db.cardinality();
  EXPECT_EQ(s.nodes, 3u);
  EXPECT_EQ(s.edges, 3u);
  EXPECT_EQ(s.label_count("Class"), 1u);
  EXPECT_EQ(s.label_count("Method"), 2u);
  EXPECT_EQ(s.label_count("Nope"), 0u);
  EXPECT_EQ(s.type_count("HAS"), 2u);
  EXPECT_EQ(s.type_count("CALL"), 1u);
  // Name-ascending, so the layout is deterministic.
  ASSERT_EQ(s.labels.size(), 2u);
  EXPECT_EQ(s.labels[0].first, "Class");
  ASSERT_EQ(s.edge_types.size(), 2u);
  EXPECT_EQ(s.edge_types[0].first, "CALL");
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(to_string(Value{}), "null");
  EXPECT_EQ(to_string(Value{true}), "true");
  EXPECT_EQ(to_string(Value{std::int64_t{-5}}), "-5");
  EXPECT_EQ(to_string(Value{std::string("x")}), "\"x\"");
  EXPECT_EQ(to_string(Value{std::vector<std::int64_t>{1, 2}}), "[1,2]");
  EXPECT_EQ(to_string(Value{std::vector<std::string>{"a"}}), "[\"a\"]");
}

TEST(Serialize, RoundTripPreservesGraph) {
  GraphDb db;
  NodeId a = db.add_node("Class", {{"NAME", Value{std::string("A")}},
                                   {"FLAG", Value{true}},
                                   {"PP", Value{std::vector<std::int64_t>{0, 1, 1000000000}}}});
  NodeId b = db.add_node("Method", {{"D", Value{2.5}}});
  db.add_edge(a, b, "HAS", {{"LIST", Value{std::vector<std::string>{"x", "y"}}}});

  auto bytes = serialize(db);
  auto loaded = deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  const GraphDb& g2 = loaded.value();
  EXPECT_EQ(g2.node_count(), 2u);
  EXPECT_EQ(g2.edge_count(), 1u);
  FrozenGraph fg = freeze(g2);
  auto hits = fg.find_nodes("Class", "NAME", Value{std::string("A")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(fg.node_prop_bool(hits[0], "FLAG"));
  EXPECT_TRUE(std::ranges::equal(fg.frame(), freeze(db).frame()));
}

TEST(Serialize, CorruptInputRejected) {
  GraphDb db;
  db.add_node("X");
  auto bytes = serialize(db);
  bytes[0] = std::byte{0};
  EXPECT_FALSE(deserialize(bytes).ok());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_FALSE(deserialize(prefix).ok());
  }
}

TEST(Serialize, FileRoundTrip) {
  GraphDb db;
  db.add_node("X", {{"K", Value{std::int64_t{1}}}});
  FrozenGraph fg = freeze(db);
  auto path = std::filesystem::temp_directory_path() / "tabby_graph_test.tfzn";
  ASSERT_TRUE(fg.save(path).ok());
  auto loaded = FrozenGraph::map_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(loaded.value().node_count(), 1u);
  EXPECT_EQ(loaded.value().node_prop_int(0, "K"), 1);
  EXPECT_TRUE(std::ranges::equal(loaded.value().frame(), fg.frame()));
  std::filesystem::remove(path);
}

// --- Traversal --------------------------------------------------------------

/// Builds a small DAG: 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4.
FrozenGraph diamond() {
  GraphDb db;
  for (int i = 0; i < 5; ++i) db.add_node("N");
  db.add_edge(0, 1, "E");
  db.add_edge(0, 2, "E");
  db.add_edge(1, 3, "E");
  db.add_edge(2, 3, "E");
  db.add_edge(3, 4, "E");
  return freeze(db);
}

/// Out-edges in insertion order (every test graph here has one edge type).
Traverser<int>::ExpandFn forward_expand() {
  return [](const FrozenGraph& db, const Path& path, const int& state) {
    std::vector<Step<int>> steps;
    AdjacencyView out = db.out_edges_view(path.end());
    for (std::size_t i = 0; i < out.size(); ++i) {
      steps.push_back(Step<int>{out.edge[i], out.nbr[i], state + 1});
    }
    return steps;
  };
}

TEST(Traversal, FindsAllPathsToTarget) {
  FrozenGraph db = diamond();
  auto evaluate = [](const FrozenGraph&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate);
  auto results = t.run(0, 0);
  ASSERT_EQ(results.size(), 2u);  // two paths through the diamond
  for (const auto& r : results) {
    EXPECT_EQ(r.path.length(), 3u);
    EXPECT_EQ(r.state, 3);  // state threaded through expansions
  }
}

TEST(Traversal, NodeGlobalUniquenessLosesOnePath) {
  FrozenGraph db = diamond();
  auto evaluate = [](const FrozenGraph&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodeGlobal);
  // The GadgetInspector behaviour: node 3 is visited once, so only one of
  // the two diamond paths survives.
  EXPECT_EQ(t.run(0, 0).size(), 1u);
}

TEST(Traversal, NodePathUniquenessBreaksCycles) {
  GraphDb cyclic;
  cyclic.add_node("N");
  cyclic.add_node("N");
  cyclic.add_edge(0, 1, "E");
  cyclic.add_edge(1, 0, "E");  // cycle
  FrozenGraph db = freeze(cyclic);
  auto evaluate = [](const FrozenGraph&, const Path&, const int&) {
    return Evaluation::ExcludeAndContinue;
  };
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath);
  auto results = t.run(0, 0);  // must terminate
  EXPECT_TRUE(results.empty());
}

TEST(Traversal, MaxResultsStopsEarly) {
  FrozenGraph db = diamond();
  auto evaluate = [](const FrozenGraph&, const Path& path, const int&) {
    if (path.end() == 4) return Evaluation::IncludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_results = 1;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath, limits);
  EXPECT_EQ(t.run(0, 0).size(), 1u);
}

TEST(Traversal, ExpansionBudgetReportsExhaustion) {
  FrozenGraph db = diamond();
  auto evaluate = [](const FrozenGraph&, const Path&, const int&) {
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_expansions = 2;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::None, limits);
  t.run(0, 0);
  EXPECT_TRUE(t.exhausted_budget());
  EXPECT_GE(t.expansions(), 2u);
}

TEST(Traversal, EvaluatorCanIncludeAndContinue) {
  FrozenGraph db = diamond();
  auto evaluate = [](const FrozenGraph&, const Path&, const int&) {
    return Evaluation::IncludeAndContinue;  // every prefix path included
  };
  Traverser<int> t(db, forward_expand(), evaluate);
  auto results = t.run(0, 0);
  // Paths: [0], [0,1], [0,2], [0,1,3], [0,2,3], [0,1,3,4], [0,2,3,4]
  EXPECT_EQ(results.size(), 7u);
}

TEST(Traversal, StressRandomGraphTerminates) {
  GraphDb random;
  util::Rng rng(42);
  constexpr int kNodes = 200;
  for (int i = 0; i < kNodes; ++i) random.add_node("N");
  for (int i = 0; i < 800; ++i) {
    random.add_edge(rng.next_below(kNodes), rng.next_below(kNodes), "E");
  }
  FrozenGraph db = freeze(random);
  auto evaluate = [](const FrozenGraph&, const Path& path, const int&) {
    if (path.length() >= 4) return Evaluation::ExcludeAndPrune;
    return Evaluation::ExcludeAndContinue;
  };
  TraversalLimits limits;
  limits.max_expansions = 100000;
  Traverser<int> t(db, forward_expand(), evaluate, Uniqueness::NodePath, limits);
  t.run(0, 0);
  SUCCEED();  // termination is the assertion
}

// --- Traversal against a recursive reference DFS ----------------------------
//
// The engine keeps one shared path that it rewinds per popped branch, plus an
// on-path bitmap for NODE_PATH. The reference below uses neither: it recurses
// and checks NODE_PATH by scanning the path.

using Hash = std::uint64_t;

/// Seeded random multigraph with self-loops, parallel edges and cycles.
FrozenGraph random_digraph(std::uint64_t seed) {
  util::Rng rng(seed);
  GraphDb db;
  std::size_t n = 4 + rng.next_below(12);
  for (std::size_t i = 0; i < n; ++i) db.add_node("N");
  std::size_t m = n * (1 + rng.next_below(3));
  for (std::size_t i = 0; i < m; ++i) db.add_edge(rng.next_below(n), rng.next_below(n), "E");
  return freeze(db);
}

Hash path_hash(const Path& path) {
  Hash h = 1469598103934665603ull;
  for (NodeId n : path.nodes) h = (h ^ n) * 1099511628211ull;
  for (EdgeId e : path.edges) h = (h ^ (e + 7)) * 1099511628211ull;
  return h;
}

constexpr std::size_t kReferenceDepth = 6;

/// Both callbacks read the whole path, so a wrongly rewound path changes the
/// steps, the verdicts and the threaded states.
Traverser<Hash>::ExpandFn hashing_expand() {
  return [](const FrozenGraph& db, const Path& path, const Hash& state) {
    std::vector<Step<Hash>> steps;
    AdjacencyView out = db.out_edges_view(path.end());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EdgeId e = out.edge[i];
      if ((path_hash(path) + e) % 7 == 0) continue;
      steps.push_back(Step<Hash>{e, out.nbr[i], state * 31 + e + path.length()});
    }
    return steps;
  };
}

Evaluation hashing_evaluate(const FrozenGraph&, const Path& path, const Hash& state) {
  Hash h = path_hash(path) ^ state;
  if (path.length() >= kReferenceDepth) {
    return h % 2 == 0 ? Evaluation::IncludeAndPrune : Evaluation::ExcludeAndPrune;
  }
  switch (h % 8) {
    case 0: return Evaluation::IncludeAndPrune;
    case 1: return Evaluation::IncludeAndContinue;
    case 2: return Evaluation::ExcludeAndPrune;
    default: return Evaluation::ExcludeAndContinue;
  }
}

struct ReferenceDfs {
  const FrozenGraph& db;
  Uniqueness uniqueness;
  std::vector<TraversalResult<Hash>> results;
  std::vector<std::size_t> found_after;  // expansions taken before each result
  std::size_t expansions = 0;
  std::vector<bool> visited;

  void visit(Path& path, Hash state) {
    visited[path.end()] = true;
    Evaluation verdict = hashing_evaluate(db, path, state);
    if (includes(verdict)) {
      results.push_back(TraversalResult<Hash>{path, state});
      found_after.push_back(expansions);
    }
    if (!continues(verdict)) return;
    ++expansions;
    for (Step<Hash>& step : hashing_expand()(db, path, state)) {
      bool on_path = std::find(path.nodes.begin(), path.nodes.end(), step.next) != path.nodes.end();
      if (uniqueness == Uniqueness::NodePath && on_path) continue;
      if (uniqueness == Uniqueness::NodeGlobal && visited[step.next]) continue;
      path.nodes.push_back(step.next);
      path.edges.push_back(step.edge);
      visit(path, step.state);
      path.nodes.pop_back();
      path.edges.pop_back();
    }
  }
};

void expect_same_results(const std::vector<TraversalResult<Hash>>& got,
                         const std::vector<TraversalResult<Hash>>& want, std::size_t count,
                         const std::string& label) {
  ASSERT_EQ(got.size(), count) << label;
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(got[i].path.nodes, want[i].path.nodes) << label << ", result " << i;
    EXPECT_EQ(got[i].path.edges, want[i].path.edges) << label << ", result " << i;
    EXPECT_EQ(got[i].state, want[i].state) << label << ", result " << i;
  }
}

TEST(Traversal, MatchesRecursiveReferenceOnRandomGraphs) {
  std::size_t compared = 0, continued = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    FrozenGraph db = random_digraph(seed);
    for (Uniqueness uniqueness : {Uniqueness::NodePath, Uniqueness::NodeGlobal, Uniqueness::None}) {
      std::string label = "seed " + std::to_string(seed) + ", uniqueness " +
                          std::to_string(static_cast<int>(uniqueness));
      ReferenceDfs ref{db, uniqueness, {}, {}, 0, std::vector<bool>(db.node_count(), false)};
      Path root;
      root.nodes.push_back(0);
      ref.visit(root, seed);

      Traverser<Hash> full(db, hashing_expand(), hashing_evaluate, uniqueness);
      expect_same_results(full.run(0, seed), ref.results, ref.results.size(), label);
      EXPECT_EQ(full.expansions(), ref.expansions) << label;
      compared += ref.results.size();
      for (const auto& r : ref.results) {
        if (hashing_evaluate(db, r.path, r.state) == Evaluation::IncludeAndContinue) ++continued;
      }

      // Limits cut the same run short: a prefix of the reference results.
      TraversalLimits few_results;
      few_results.max_results = ref.results.size() / 2 + 1;
      Traverser<Hash> capped(db, hashing_expand(), hashing_evaluate, uniqueness, few_results);
      expect_same_results(capped.run(0, seed), ref.results,
                          std::min(ref.results.size(), few_results.max_results), label + ", max_results");

      TraversalLimits few_expansions;
      few_expansions.max_expansions = ref.expansions / 2;
      Traverser<Hash> budgeted(db, hashing_expand(), hashing_evaluate, uniqueness, few_expansions);
      std::size_t within = static_cast<std::size_t>(
          std::count_if(ref.found_after.begin(), ref.found_after.end(),
                        [&](std::size_t n) { return n <= few_expansions.max_expansions; }));
      expect_same_results(budgeted.run(0, seed), ref.results, within, label + ", max_expansions");
    }
  }
  // The seeds must actually exercise deep results and include-and-continue.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(continued, 100u);
}

}  // namespace
}  // namespace tabby::graph
