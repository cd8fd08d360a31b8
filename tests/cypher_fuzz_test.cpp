// Differential query-fuzz harness for the Cypher planner (docs/CYPHER.md).
//
// The planner's contract is absolute: for every query, planned execution
// produces output *byte-identical* to the naive evaluator — same rows, same
// order — at any job count. This harness generates seeded random graphs
// (tests/support/random_graph.hpp), freezes them, and runs seeded random
// queries over the same label/type/key vocabulary through naive and planned
// evaluation, plus a planned run with a thread pool attached (the prepass
// parallelizes; results must not change). Any mismatch prints the graph
// seed, query seed, and query text — rerunning with those two seeds
// reproduces the case exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cypher/cypher.hpp"
#include "graph/frozen.hpp"
#include "support/freeze.hpp"
#include "support/random_graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

// Vocabulary matching tests/support/random_graph.hpp, plus deliberate misses
// (labels/keys/values the generator never produces) so empty-result plans
// and "no such label" proofs get fuzzed too.
const char* kLabels[] = {"Method", "Class", "Field", "Call", "Ghost"};
const char* kTypes[] = {"CALL", "ALIAS", "EXTENDS", "CONTAINS", "PHANTOM"};
const char* kKeys[] = {"NAME", "ORDER", "IS_SINK", "SCORE", "POS", "TAGS", "MIX", "NOPE"};

std::string random_literal(util::Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return std::to_string(rng.next_below(1000));
    case 1: return "\"s" + std::to_string(rng.next_below(50)) + "\"";
    case 2: return rng.next_below(2) == 0 ? "true" : "false";
    case 3: return "\"n" + std::to_string(rng.next_below(40)) + "\"";  // NAME hits
    default: return "\"t" + std::to_string(rng.next_below(9)) + "\"";
  }
}

std::string random_comparison(util::Rng& rng) {
  const char* ops[] = {"=", "<>", "<", ">", "<=", ">=", "CONTAINS", "STARTS WITH", "ENDS WITH"};
  return ops[rng.next_below(9)];
}

/// One random query over vars a, b, c: 1-3 pattern nodes, random directions,
/// optional types and labels, var-length segments capped at 3 hops, inline
/// property maps, WHERE chains (sometimes on unbound vars — a provably-empty
/// plan), RETURN over nodes/properties/path, occasional LIMIT.
std::string random_query(util::Rng& rng) {
  const char* vars[] = {"a", "b", "c"};
  std::size_t node_count = 1 + rng.next_below(3);
  bool with_path = rng.chance(15, 100);

  std::string q = "MATCH ";
  if (with_path) q += "p = ";
  for (std::size_t i = 0; i < node_count; ++i) {
    q += "(";
    q += vars[i];
    if (rng.chance(60, 100)) q += std::string(":") + kLabels[rng.next_below(5)];
    if (rng.chance(25, 100)) {
      q += " {" + std::string(kKeys[rng.next_below(8)]) + ": " + random_literal(rng) + "}";
    }
    q += ")";
    if (i + 1 < node_count) {
      bool left = rng.chance(30, 100);
      q += left ? "<-[" : "-[";
      if (rng.chance(70, 100)) q += std::string(":") + kTypes[rng.next_below(5)];
      if (rng.chance(40, 100)) {
        // Variable length, capped at 3 hops to bound enumeration.
        switch (rng.next_below(4)) {
          case 0: q += "*..2"; break;
          case 1: q += "*1..3"; break;
          case 2: q += "*2"; break;
          default: q += "*0..2"; break;
        }
      }
      q += "]";
      q += left ? "-" : (rng.chance(75, 100) ? "->" : "-");
    }
  }

  std::size_t conds = rng.next_below(3);
  for (std::size_t i = 0; i < conds; ++i) {
    q += i == 0 ? " WHERE " : " AND ";
    // Occasionally reference a var the pattern does not bind: the planner
    // must prove the result empty, not misfire.
    const char* var = rng.chance(10, 100) ? "zz" : vars[rng.next_below(node_count)];
    q += std::string(var) + "." + kKeys[rng.next_below(8)] + " " + random_comparison(rng) + " " +
         random_literal(rng);
  }

  q += " RETURN ";
  std::size_t items = 1 + rng.next_below(2);
  for (std::size_t i = 0; i < items; ++i) {
    if (i > 0) q += ", ";
    if (with_path && i == 0 && rng.chance(50, 100)) {
      q += "p";
      continue;
    }
    q += vars[rng.next_below(node_count)];
    if (rng.chance(60, 100)) q += std::string(".") + kKeys[rng.next_below(8)];
  }
  if (rng.chance(30, 100)) q += " LIMIT " + std::to_string(1 + rng.next_below(20));
  return q;
}

struct Rendered {
  bool ok = false;
  std::string error;
  std::string text;
};

Rendered run_one(const graph::FrozenGraph& db, const std::string& query,
                 const cypher::QueryOptions& options) {
  Rendered out;
  auto result = cypher::run_query(db, query, options);
  if (!result.ok()) {
    out.error = result.error().to_string();
    return out;
  }
  out.ok = true;
  out.text = result.value().to_string(db);
  return out;
}

/// The naive/planned (plus parallel) oracle for one (graph, query)
/// pair. Returns false after recording a failure so callers can stop early.
bool check_case(const graph::FrozenGraph& db, const std::string& query, std::uint64_t graph_seed,
                std::uint64_t query_seed, util::Executor* pool) {
  std::string ctx = "graph_seed=" + std::to_string(graph_seed) +
                    " query_seed=" + std::to_string(query_seed) + "\nquery: " + query;

  cypher::QueryOptions naive;
  naive.use_planner = false;
  cypher::QueryOptions planned;
  cypher::QueryOptions planned_parallel;
  planned_parallel.executor = pool;

  Rendered reference = run_one(db, query, naive);
  struct Variant {
    const char* name;
    Rendered result;
  };
  Variant variants[] = {
      {"planned", run_one(db, query, planned)},
      {"planned+jobs", run_one(db, query, planned_parallel)},
  };
  for (const Variant& v : variants) {
    EXPECT_EQ(reference.ok, v.result.ok) << ctx << "\nvariant: " << v.name;
    if (reference.ok != v.result.ok) return false;
    if (!reference.ok) {
      EXPECT_EQ(reference.error, v.result.error) << ctx << "\nvariant: " << v.name;
      if (reference.error != v.result.error) return false;
      continue;
    }
    EXPECT_EQ(reference.text, v.result.text) << ctx << "\nvariant: " << v.name;
    if (reference.text != v.result.text) return false;
  }
  return true;
}

// 60 graphs x 4 queries = 240 differential cases per run, every one checked
// across all variants — comfortably past the 200-case CI floor.
TEST(CypherFuzz, PlannedMatchesNaiveAtAnyJobCount) {
  util::ThreadPool pool(4);
  std::size_t cases = 0;
  for (std::uint64_t graph_seed = 1; graph_seed <= 60; ++graph_seed) {
    graph::FrozenGraph db = testing::freeze(testsupport::random_graph(graph_seed));
    for (std::uint64_t q = 0; q < 4; ++q) {
      std::uint64_t query_seed = graph_seed * 1000 + q;
      util::Rng rng(query_seed);
      std::string query = random_query(rng);
      ++cases;
      if (!check_case(db, query, graph_seed, query_seed, &pool)) {
        return;  // context already printed; stop at the first mismatch
      }
    }
  }
  EXPECT_GE(cases, 200u);
}

// Adversarial hand-picked patterns that target each planner decision: the
// fuzz grammar hits these shapes rarely, so pin them explicitly.
TEST(CypherFuzz, DirectedAdversarialPatterns) {
  const char* queries[] = {
      // Unbound start, selective end: the reversal case.
      "MATCH (a)-[:CALL]->(b:Ghost) RETURN a, b",
      "MATCH (a)-[:CALL*..3]->(b:Field {ORDER: 1}) RETURN a.NAME, b",
      // Zero-length lower bound: node can match both endpoints at once.
      "MATCH (a:Method)-[:CALL*0..2]->(b:Method) RETURN a.NAME, b.NAME",
      // min_len above the shortest path: first-reach-only filters would
      // wrongly prune nodes whose shortest walk is shorter than min.
      "MATCH (a:Method)-[:CALL*2..3]->(b:Class) RETURN a.NAME, b.NAME LIMIT 50",
      // Undirected and untyped middle segment.
      "MATCH (a:Class)-[*..2]-(b:Field) RETURN a, b.NAME LIMIT 40",
      // Three nodes, mixed directions, pushdown on the middle var.
      "MATCH (a:Method)-[:CALL]->(b)<-[:ALIAS]-(c) WHERE b.ORDER >= 2 RETURN a.NAME, b.ORDER, c",
      // Repeated variable: pushdown must NOT fire (last binding wins).
      "MATCH (a:Method)-[:CALL]->(a) WHERE a.ORDER > 1 RETURN a.NAME",
      // Path binding plus WHERE on an interior node.
      "MATCH p = (a:Method)-[:CALL*1..3]->(b:Method) WHERE b.IS_SINK = true RETURN p LIMIT 30",
      // LIMIT 1: the planner should decline the prepass, answers unchanged.
      "MATCH (a)-[:EXTENDS]->(b:Class) RETURN a LIMIT 1",
  };
  util::ThreadPool pool(3);
  for (std::uint64_t graph_seed = 1; graph_seed <= 10; ++graph_seed) {
    graph::FrozenGraph db = testing::freeze(testsupport::random_graph(graph_seed));
    std::uint64_t qi = 0;
    for (const char* query : queries) {
      if (!check_case(db, query, graph_seed, /*query_seed=*/qi++, &pool)) return;
    }
  }
}

}  // namespace
}  // namespace tabby
