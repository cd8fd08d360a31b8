// Micro-benchmarks (google-benchmark) for the embedded graph store, the
// traversal engine, the Cypher layer and the controllability analysis —
// the infrastructure costs behind the Table VIII build times and the
// Table X search times.
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "corpus/components.hpp"
#include "corpus/noise.hpp"
#include "cpg/builder.hpp"
#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "util/rng.hpp"

using namespace tabby;

namespace {

graph::GraphDb random_graph(std::size_t nodes, std::size_t edges) {
  graph::GraphDb db;
  util::Rng rng(99);
  for (std::size_t i = 0; i < nodes; ++i) {
    db.add_node("Method",
                {{"NAME", graph::Value{std::string("m") + std::to_string(i % 64)}},
                 {"ID", graph::Value{static_cast<std::int64_t>(i)}}});
  }
  for (std::size_t i = 0; i < edges; ++i) {
    db.add_edge(rng.next_below(nodes), rng.next_below(nodes), "CALL");
  }
  return db;
}

/// Freezes a benchmark graph; a failure aborts the run.
graph::FrozenGraph freeze(const graph::GraphDb& db) {
  auto frozen = graph::FrozenGraph::freeze(db);
  if (!frozen.ok()) std::abort();
  return std::move(frozen.value());
}

void BM_NodeInsert(benchmark::State& state) {
  for (auto _ : state) {
    graph::GraphDb db;
    for (int i = 0; i < state.range(0); ++i) {
      db.add_node("Method", {{"NAME", graph::Value{std::string("m")}}});
    }
    benchmark::DoNotOptimize(db.node_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NodeInsert)->Arg(1000)->Arg(10000);

void BM_EdgeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    graph::GraphDb db;
    for (int i = 0; i < 1000; ++i) db.add_node("N");
    util::Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      db.add_edge(rng.next_below(1000), rng.next_below(1000), "CALL");
    }
    benchmark::DoNotOptimize(db.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EdgeInsert)->Arg(10000);

void BM_LabelScanLookup(benchmark::State& state) {
  graph::FrozenGraph db = freeze(random_graph(20000, 0));
  for (auto _ : state) {
    auto hits = db.find_nodes("Method", "NAME", graph::Value{std::string("m17")});
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_LabelScanLookup);

void BM_SerializeRoundTrip(benchmark::State& state) {
  graph::GraphDb db = random_graph(5000, 20000);
  for (auto _ : state) {
    auto bytes = graph::serialize(db);
    auto loaded = graph::deserialize(bytes);
    benchmark::DoNotOptimize(loaded.ok());
  }
}
BENCHMARK(BM_SerializeRoundTrip);

void BM_CypherVarLengthQuery(benchmark::State& state) {
  corpus::Component component = corpus::build_component("commons-collections(3.2.1)");
  graph::FrozenGraph cpg = freeze(cpg::build_cpg(component.link()).db);
  for (auto _ : state) {
    auto result = cypher::run_query(
        cpg,
        "MATCH (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
        "RETURN m.SIGNATURE LIMIT 50");
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_CypherVarLengthQuery);

void BM_CpgBuild(benchmark::State& state) {
  jar::Archive noise = corpus::make_noise_archive("bench.jar", "bench.pkg",
                                                  static_cast<int>(state.range(0)), 5);
  jir::Program program = jar::link({noise});
  for (auto _ : state) {
    cpg::Cpg cpg = cpg::build_cpg(program);
    benchmark::DoNotOptimize(cpg.stats.relationship_edges);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CpgBuild)->Arg(100)->Arg(500);

void BM_GadgetChainSearch(benchmark::State& state) {
  corpus::Component component = corpus::build_component("commons-collections(3.2.1)");
  graph::FrozenGraph cpg = freeze(cpg::build_cpg(component.link()).db);
  for (auto _ : state) {
    finder::GadgetChainFinder finder(cpg);
    finder::FinderReport report = finder.find_all();
    benchmark::DoNotOptimize(report.chains.size());
  }
}
BENCHMARK(BM_GadgetChainSearch);

// --- Frozen CSR (docs/GRAPH.md) ----------------------------------------------
//
// The finder's hot loop is "typed in-edges of the frontier node plus a
// property read per step" — contiguous typed segments and columnar reads on
// the frozen graph. Acceptance bar: attaching a frozen frame (the warm-start
// path) costs a small fraction of graph::deserialize.

/// A CALL/ALIAS-typed graph with the finder's property shape: PP int-lists
/// on CALL edges, IS_SOURCE booleans on nodes.
graph::GraphDb finder_shaped_graph(std::size_t nodes, std::size_t edges) {
  graph::GraphDb db;
  util::Rng rng(4242);
  for (std::size_t i = 0; i < nodes; ++i) {
    db.add_node("Method", {{"IS_SOURCE", graph::Value{i % 97 == 0}}});
  }
  for (std::size_t i = 0; i < edges; ++i) {
    bool call = i % 8 != 0;
    graph::PropertyMap props;
    if (call) {
      props["POLLUTED_POSITION"] =
          graph::Value{std::vector<std::int64_t>{0, static_cast<std::int64_t>(i % 3)}};
    }
    db.add_edge(rng.next_below(nodes), rng.next_below(nodes), call ? "CALL" : "ALIAS",
                std::move(props));
  }
  return db;
}

void BM_TypedTraversalFrozen(benchmark::State& state) {
  graph::FrozenGraph fg = freeze(finder_shaped_graph(4000, 32000));
  auto call = fg.edge_type_id("CALL");
  const graph::FrozenColumn* pp = fg.edge_column("POLLUTED_POSITION");
  const graph::FrozenColumn* source = fg.node_column("IS_SOURCE");
  std::size_t visited = 0;
  for (auto _ : state) {
    std::int64_t acc = 0;
    visited = 0;
    for (graph::NodeId n = 0; n < fg.node_count(); ++n) {
      graph::AdjacencyView view = fg.in_edges_typed_view(n, *call);
      for (std::size_t i = 0; i < view.size(); ++i) {
        auto list = pp->get_intlist(view.edge[i]);
        if (!list.empty()) acc += list.front();
        acc += source->get_bool(view.nbr[i]) ? 1 : 0;
        ++visited;
      }
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(visited));
}
BENCHMARK(BM_TypedTraversalFrozen);

void BM_FrozenTraversalDepth4(benchmark::State& state) {
  // Depth-4 DFS over a random single-typed graph (untyped CSR order is then
  // insertion order).
  graph::FrozenGraph fg = freeze(random_graph(2000, 8000));
  auto expand = [](const graph::FrozenGraph& g, const graph::Path& path, const int& s,
                   std::vector<graph::Step<int>>& steps) {
    graph::AdjacencyView view = g.out_edges_view(path.end());
    for (std::size_t i = 0; i < view.size(); ++i) {
      steps.push_back(graph::Step<int>{view.edge[i], view.nbr[i], s});
    }
  };
  auto evaluate = [](const graph::FrozenGraph&, const graph::Path& path, const int&) {
    return path.length() >= 4 ? graph::Evaluation::ExcludeAndPrune
                              : graph::Evaluation::ExcludeAndContinue;
  };
  for (auto _ : state) {
    graph::TraversalLimits limits;
    limits.max_expansions = 200000;
    graph::Traverser<int> t(fg, expand, evaluate, limits);
    auto results = t.run(0, 0);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_FrozenTraversalDepth4);

void BM_Freeze(benchmark::State& state) {
  graph::GraphDb db = finder_shaped_graph(4000, 32000);
  for (auto _ : state) {
    auto fg = graph::FrozenGraph::freeze(db);
    benchmark::DoNotOptimize(fg.ok());
  }
}
BENCHMARK(BM_Freeze);

void BM_GraphDeserialize(benchmark::State& state) {
  // Store decode cost: what load_snapshot(key) pays. No warm start takes
  // this path any more; it is the baseline BM_FrozenAttach replaced.
  graph::GraphDb db = finder_shaped_graph(4000, 32000);
  std::vector<std::byte> bytes = graph::serialize(db);
  for (auto _ : state) {
    auto loaded = graph::deserialize(bytes);
    benchmark::DoNotOptimize(loaded.ok());
  }
}
BENCHMARK(BM_GraphDeserialize);

void BM_FrozenAttach(benchmark::State& state) {
  // Warm-start cost, frozen path: full structural validation + zero-copy
  // span setup over an existing frame (what load_frozen's mmap pays, minus
  // the page faults).
  graph::FrozenGraph fg = freeze(finder_shaped_graph(4000, 32000));
  std::vector<std::byte> frame(fg.frame().begin(), fg.frame().end());
  for (auto _ : state) {
    auto attached = graph::FrozenGraph::from_bytes(frame);
    benchmark::DoNotOptimize(attached.ok());
  }
}
BENCHMARK(BM_FrozenAttach);

// --- Adversarial query workloads: planner vs naive (docs/CYPHER.md) --------
//
// Pattern shapes chosen to be worst-case for left-to-right enumeration and
// best-case for the planner's backward reachability filters: an unbound (or
// huge-label) start flowing into a tiny selective end. Each class is
// measured twice — BM_*Naive forces the naive evaluator (--no-plan), BM_*
// Planned uses the planner — so the speedup is the ratio of the paired rows.
// Acceptance bar: >= 5x on at least one class; the planner must also never
// lose on the existing BM_CypherVarLengthQuery workload (source-anchored,
// which the planner correctly declines to reverse).

/// 20k Method nodes with random CALL wiring, plus 8 Sink nodes fed by a
/// handful of CALL edges — the "everything calls something, almost nothing
/// reaches a sink" shape of real gadget hunting.
graph::GraphDb planner_adversarial_graph() {
  graph::GraphDb db;
  util::Rng rng(2026);
  constexpr std::size_t kMethods = 20000;
  for (std::size_t i = 0; i < kMethods; ++i) {
    db.add_node("Method", {{"NAME", graph::Value{std::string("m") + std::to_string(i)}},
                           {"ID", graph::Value{static_cast<std::int64_t>(i)}}});
  }
  for (std::size_t i = 0; i < 2 * kMethods; ++i) {
    db.add_edge(rng.next_below(kMethods), rng.next_below(kMethods), "CALL");
  }
  for (std::size_t s = 0; s < 8; ++s) {
    graph::NodeId sink =
        db.add_node("Sink", {{"NAME", graph::Value{std::string("sink") + std::to_string(s)}}});
    for (std::size_t k = 0; k < 5; ++k) db.add_edge(rng.next_below(kMethods), sink, "CALL");
  }
  return db;
}

void bench_query(benchmark::State& state, const graph::FrozenGraph& db, const char* query,
                 bool use_planner) {
  cypher::QueryOptions options;
  options.use_planner = use_planner;
  for (auto _ : state) {
    auto result = cypher::run_query(db, query, options);
    benchmark::DoNotOptimize(result.ok());
  }
}

constexpr const char* kUnboundStartQuery = "MATCH (a)-[:CALL]->(b:Sink) RETURN b.NAME";
constexpr const char* kLongPathQuery =
    "MATCH (a:Method)-[:CALL*1..4]->(b:Sink) RETURN b.NAME";
constexpr const char* kSelectiveEndQuery =
    "MATCH (a:Method)-[:CALL]->(b:Method) WHERE b.ID = 17 RETURN a.ID";

void BM_QueryUnboundStartNaive(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kUnboundStartQuery, false);
}
BENCHMARK(BM_QueryUnboundStartNaive);

void BM_QueryUnboundStartPlanned(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kUnboundStartQuery, true);
}
BENCHMARK(BM_QueryUnboundStartPlanned);

void BM_QueryLongPathNaive(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kLongPathQuery, false);
}
BENCHMARK(BM_QueryLongPathNaive);

void BM_QueryLongPathPlanned(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kLongPathQuery, true);
}
BENCHMARK(BM_QueryLongPathPlanned);

void BM_QuerySelectiveEndNaive(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kSelectiveEndQuery, false);
}
BENCHMARK(BM_QuerySelectiveEndNaive);

void BM_QuerySelectiveEndPlanned(benchmark::State& state) {
  bench_query(state, freeze(planner_adversarial_graph()), kSelectiveEndQuery, true);
}
BENCHMARK(BM_QuerySelectiveEndPlanned);

}  // namespace

BENCHMARK_MAIN();
