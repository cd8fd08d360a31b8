// Tests for the Cypher query planner (src/cypher/planner.hpp, docs/CYPHER.md):
// planner decision units (anchor flip on skewed cardinalities, predicate
// pushdown safety, LIMIT-aware prepass skipping, empty proofs), golden
// `--explain` renderings, the cardinality-stats layer (incremental GraphDb
// counts, store/frozen round trips, stats-less graph stores), and the CLI's
// --explain / --no-plan surface.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "cypher/ast.hpp"
#include "cypher/cypher.hpp"
#include "cypher/planner.hpp"
#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "support/freeze.hpp"
#include "support/random_graph.hpp"
#include "util/bytes.hpp"

namespace tabby::cypher {
namespace {

namespace fs = std::filesystem;
using graph::CardinalityStats;
using graph::GraphDb;
using graph::Value;

Query parse_or_die(std::string_view text) {
  auto q = parse_query(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error().to_string());
  return std::move(q.value());
}

/// Exact stats for a corpus-shaped population: many Methods, few Classes.
CardinalityStats skewed_stats() {
  CardinalityStats stats;
  stats.nodes = 1000;
  stats.edges = 3000;
  stats.labels = {{"Class", 4}, {"Method", 800}};
  stats.edge_types = {{"ALIAS", 200}, {"CALL", 2800}};
  return stats;
}

// --- Planner decision units -------------------------------------------------

TEST(CypherPlanner, FlipsStartToTheCheapEndOnSkewedCardinalities) {
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(parse_or_die("MATCH (a:Method)-[:CALL]->(b:Class) RETURN a"), stats);
  EXPECT_EQ(plan.mode, Plan::Mode::Planned);
  EXPECT_TRUE(plan.reverse);
  EXPECT_EQ(plan.anchor, 1u);
  ASSERT_EQ(plan.estimates.size(), 2u);
  EXPECT_EQ(plan.estimates[0], 800u);
  EXPECT_EQ(plan.estimates[1], 4u);
}

TEST(CypherPlanner, KeepsTheStartWhenItIsAlreadyCheapest) {
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(parse_or_die("MATCH (a:Class)-[:CALL]->(b:Method) RETURN a"), stats);
  EXPECT_EQ(plan.mode, Plan::Mode::Naive);
  EXPECT_FALSE(plan.reverse);
  EXPECT_EQ(plan.anchor, 0u);
  EXPECT_EQ(plan.reason, "start is already the cheapest position");
}

TEST(CypherPlanner, DeclinesMarginalWins) {
  // est[1]=700 < est[0]=800 but not by the 2x margin the prepass must repay.
  CardinalityStats stats = skewed_stats();
  stats.labels.push_back({"Mid", 700});
  Plan plan = plan_query(parse_or_die("MATCH (a:Method)-[:CALL]->(b:Mid) RETURN a"), stats);
  EXPECT_EQ(plan.mode, Plan::Mode::Naive);
  EXPECT_FALSE(plan.reverse);
  EXPECT_EQ(plan.anchor, 1u);
  EXPECT_EQ(plan.reason, "no position is clearly cheaper than the start");
}

TEST(CypherPlanner, SmallLimitSkipsTheBackwardPrepass) {
  CardinalityStats stats = skewed_stats();
  Plan small = plan_query(
      parse_or_die("MATCH (a:Method)-[:CALL]->(b:Class) RETURN a LIMIT 5"), stats);
  EXPECT_FALSE(small.reverse);
  EXPECT_TRUE(small.limit_skip);
  EXPECT_EQ(small.mode, Plan::Mode::Naive);
  EXPECT_NE(small.reason.find("LIMIT 5"), std::string::npos);

  Plan large = plan_query(
      parse_or_die("MATCH (a:Method)-[:CALL]->(b:Class) RETURN a LIMIT 20"), stats);
  EXPECT_TRUE(large.reverse);
  EXPECT_FALSE(large.limit_skip);
}

TEST(CypherPlanner, PushesSafeConditionsToTheirPatternNode) {
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(
      parse_or_die("MATCH (a:Method)-[:CALL]->(b:Class) WHERE b.NAME = \"x\" RETURN a"), stats);
  EXPECT_TRUE(plan.has_pushdown());
  ASSERT_EQ(plan.pushed.size(), 2u);
  EXPECT_TRUE(plan.pushed[0].empty());
  ASSERT_EQ(plan.pushed[1].size(), 1u);
  EXPECT_EQ(plan.pushed[1][0], 0u);
  // The pushed Eq also shrinks the estimate: 4 / 8 -> floor of 1.
  EXPECT_EQ(plan.estimates[1], 1u);
}

TEST(CypherPlanner, RefusesPushdownOnRepeatedVariables) {
  // (a)-->(a): the last binding wins at emission, so checking the condition
  // at the first occurrence would prune rows the naive evaluator emits.
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(
      parse_or_die("MATCH (a:Method)-[:CALL]->(a) WHERE a.ORDER > 1 RETURN a"), stats);
  EXPECT_FALSE(plan.has_pushdown());
}

TEST(CypherPlanner, RefusesInteriorPushdownWithTwoVariableSegments) {
  // bindings_from_path cannot place the interior var positionally when two
  // segments have elastic length, so the condition must wait for emission.
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(
      parse_or_die(
          "MATCH (a)-[*1..2]->(b:Class)-[*1..2]->(c) WHERE b.ORDER = 1 RETURN a"),
      stats);
  EXPECT_FALSE(plan.has_pushdown());
  // ...but the same condition on the pattern *ends* is always safe.
  Plan ends = plan_query(
      parse_or_die(
          "MATCH (a)-[*1..2]->(b:Class)-[*1..2]->(c) WHERE a.ORDER = 1 RETURN a"),
      stats);
  EXPECT_TRUE(ends.has_pushdown());
}

TEST(CypherPlanner, ProvesEmptinessFromWhereShape) {
  CardinalityStats stats = skewed_stats();
  Plan unbound = plan_query(
      parse_or_die("MATCH (a:Method) WHERE zz.X = 1 RETURN a"), stats);
  EXPECT_TRUE(unbound.always_empty);
  EXPECT_NE(unbound.empty_reason.find("'zz'"), std::string::npos);

  // A path variable binds a Path, never a Node, so conditions on it can
  // never hold either.
  Plan path = plan_query(
      parse_or_die("MATCH p = (a:Method)-[:CALL]->(b) WHERE p.X = 1 RETURN a"), stats);
  EXPECT_TRUE(path.always_empty);
}

TEST(CypherPlanner, ProvesEmptinessFromAbsentLabels) {
  CardinalityStats stats = skewed_stats();
  Plan plan = plan_query(parse_or_die("MATCH (a:Ghost) RETURN a"), stats);
  EXPECT_TRUE(plan.always_empty);
  EXPECT_EQ(plan.empty_reason, "no node carries label 'Ghost'");
}

// --- Golden --explain renderings --------------------------------------------

/// 10 Methods chained by CALL, 2 Classes; exactly one CALL lands on a Class.
GraphDb skewed_graph() {
  GraphDb db;
  std::vector<graph::NodeId> methods;
  for (int i = 0; i < 10; ++i) {
    methods.push_back(db.add_node("Method", {{"NAME", Value{"m" + std::to_string(i)}}}));
  }
  auto c0 = db.add_node("Class", {{"NAME", Value{std::string("C0")}}});
  db.add_node("Class", {{"NAME", Value{std::string("C1")}}});
  for (int i = 0; i < 9; ++i) db.add_edge(methods[i], methods[i + 1], "CALL");
  db.add_edge(methods[9], c0, "CALL");
  return db;
}

TEST(CypherExplain, GoldenPlannedReversal) {
  graph::FrozenGraph db = tabby::testing::freeze(skewed_graph());
  auto result = run_query(db, "MATCH (a:Method)-[:CALL]->(b:Class) RETURN a.NAME");
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().plan,
            "plan: planned\n"
            "  stats: exact (2 pattern node(s))\n"
            "  estimates: n0(a:Method)=10 n1(b:Class)=2\n"
            "  anchor: node 1 (est 2) - backward reachability filter across 1 segment(s)\n");
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_TRUE(graph::value_equals(result.value().rows[0][0].scalar, Value{std::string("m9")}));
}

TEST(CypherExplain, GoldenNaiveSingleNode) {
  graph::FrozenGraph db = tabby::testing::freeze(skewed_graph());
  auto result = run_query(db, "MATCH (a:Method) RETURN a.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().plan,
            "plan: naive\n"
            "  stats: exact (1 pattern node(s))\n"
            "  estimates: n0(a:Method)=10\n"
            "  reason: single-node pattern has nothing to reorder\n");
}

TEST(CypherExplain, GoldenPushdownLine) {
  graph::FrozenGraph db = tabby::testing::freeze(skewed_graph());
  auto result = run_query(
      db, "MATCH (a:Method)-[:CALL]->(b:Class) WHERE b.NAME = \"C0\" RETURN a.NAME");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result.value().plan.find("  pushdown: b.NAME -> node 1\n"), std::string::npos);
  ASSERT_EQ(result.value().rows.size(), 1u);
}

TEST(CypherExplain, GoldenPlanningDisabled) {
  graph::FrozenGraph db = tabby::testing::freeze(skewed_graph());
  QueryOptions options;
  options.use_planner = false;
  auto result = run_query(db, "MATCH (a:Method) RETURN a.NAME", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().plan,
            "plan: naive\n"
            "  reason: planning disabled (--no-plan)\n");
}

// --- Cardinality stats layer ------------------------------------------------

TEST(CypherStats, StoreRoundTripsWithAndWithoutStats) {
  GraphDb db = testsupport::random_graph(3);
  std::vector<std::byte> with = graph::serialize(db);
  std::vector<std::byte> without = graph::serialize(db, /*with_stats=*/false);
  EXPECT_GT(with.size(), without.size());

  auto decoded = graph::deserialize(with);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_TRUE(decoded.value().cardinality() == db.cardinality());

  // A stats-less store (anything written before the planner existed) still
  // loads; stats are simply recomputed from the decoded graph on demand.
  auto old = graph::deserialize(without);
  ASSERT_TRUE(old.ok()) << old.error().to_string();
  EXPECT_TRUE(old.value().cardinality() == db.cardinality());
}

TEST(CypherStats, CodecRejectsUnsortedNames) {
  CardinalityStats bad;
  bad.nodes = 3;
  bad.edges = 0;
  bad.labels = {{"b", 1}, {"a", 2}};  // decode requires strictly ascending
  util::ByteWriter w;
  graph::encode_stats(w, bad);
  util::ByteReader r(w.data());
  auto decoded = graph::decode_stats(r);
  EXPECT_FALSE(decoded.ok());
}

TEST(CypherStats, FrozenFrameCarriesStatsThroughAttach) {
  GraphDb db = testsupport::random_graph(5);
  graph::FrozenGraph frozen = tabby::testing::freeze(db);
  EXPECT_TRUE(frozen.stats() == db.cardinality());

  // Round-trip the frame bytes: the re-attached graph sees the same stats.
  auto reattached = graph::FrozenGraph::from_bytes(frozen.frame());
  ASSERT_TRUE(reattached.ok()) << reattached.error().to_string();
  EXPECT_TRUE(reattached.value().stats() == db.cardinality());
}

// --- CLI surface -------------------------------------------------------------

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli_capture(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

class CypherCliFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_cypher_plan_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    store_ = (dir_ / "g.tfzn").string();
    ASSERT_TRUE(tabby::testing::freeze(skewed_graph()).save(store_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string store_;
};

TEST_F(CypherCliFixture, ExplainPrintsThePlanBeforeTheRows) {
  CliRun r = run_cli_capture({"query", "--store", store_, "--explain",
                              "MATCH (a:Method)-[:CALL]->(b:Class) RETURN a.NAME"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("plan: planned\n", 0), 0u) << r.out;
  EXPECT_NE(r.out.find("anchor: node 1"), std::string::npos);
  EXPECT_NE(r.out.find("(1 row(s))"), std::string::npos);
}

TEST_F(CypherCliFixture, NoPlanIsAByteIdenticalEscapeHatch) {
  std::vector<std::string> base = {"query", "--store", store_,
                                   "MATCH (a:Method)-[:CALL*1..3]->(b) RETURN a.NAME, b.NAME"};
  CliRun planned = run_cli_capture(base);
  std::vector<std::string> naive_args = base;
  naive_args.insert(naive_args.begin() + 1, "--no-plan");
  CliRun naive = run_cli_capture(naive_args);
  EXPECT_EQ(planned.code, 0) << planned.err;
  EXPECT_EQ(naive.code, 0) << naive.err;
  EXPECT_EQ(planned.out, naive.out);
}

TEST_F(CypherCliFixture, ExplainWithNoPlanShowsTheDisabledReason) {
  CliRun r = run_cli_capture({"query", "--store", store_, "--explain", "--no-plan",
                              "MATCH (a:Method) RETURN a.NAME"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("plan: naive\n  reason: planning disabled (--no-plan)\n", 0), 0u)
      << r.out;
}

}  // namespace
}  // namespace tabby::cypher
