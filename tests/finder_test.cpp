// Tests for gadget-chain finding (§III-D): the URLDNS chain end to end, the
// Figure 1 EvilObject chain, Trigger_Condition rejection, alias dead-ends
// (EnumMap), depth limits, and the Figure 6 exclusion example.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "analysis/domain.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "fixtures.hpp"
#include "support/freeze.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tabby::finder {
namespace {

using graph::NodeId;

/// Builds and freezes the CPG of `p`.
graph::FrozenGraph frozen_cpg(const jir::Program& p, const cpg::CpgOptions& options = {}) {
  return tabby::testing::freeze(cpg::build_cpg(p, options).db);
}

TEST(Finder, FindsTheUrldnsChain) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  GadgetChainFinder finder(cpg);
  FinderReport report = finder.find_all();

  ASSERT_EQ(report.chains.size(), 1u);
  const GadgetChain& chain = report.chains[0];
  EXPECT_EQ(chain.source_signature(), "java.util.HashMap#readObject/1");
  EXPECT_EQ(chain.sink_signature(), "java.net.InetAddress#getByName/1");
  EXPECT_EQ(chain.sink_type, "SSRF");

  // Exact method-call stack from Figure 3, alias hop included.
  std::vector<std::string> expected{
      "java.util.HashMap#readObject/1",  "java.util.HashMap#hash/1",
      "java.lang.Object#hashCode/0",     "java.net.URL#hashCode/0",
      "java.net.URLStreamHandler#hashCode/1",
      "java.net.URLStreamHandler#getHostAddress/1",
      "java.net.InetAddress#getByName/1"};
  EXPECT_EQ(chain.signatures, expected);
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_GT(report.sinks_considered, 0u);
}

TEST(Finder, EnumMapDeadEndProducesNoExtraChain) {
  // Searching upwards from the sink never touches EnumMap.entryHashCode:
  // the paper's motivation for sink-to-source search.
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  GadgetChainFinder finder(cpg);
  for (const GadgetChain& chain : finder.find_all().chains) {
    for (const std::string& sig : chain.signatures) {
      EXPECT_EQ(sig.find("EnumMap"), std::string::npos);
    }
  }
}

TEST(Finder, FindsEvilObjectChain) {
  jir::Program p = testing::evil_object_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  GadgetChainFinder finder(cpg);
  FinderReport report = finder.find_all();

  ASSERT_GE(report.chains.size(), 1u);
  bool found = false;
  for (const GadgetChain& chain : report.chains) {
    if (chain.source_signature() == "demo.EvilObjectA#readObject/1" &&
        chain.sink_signature() == "java.lang.Runtime#exec/1") {
      found = true;
      EXPECT_EQ(chain.sink_type, "EXEC");
    }
  }
  EXPECT_TRUE(found);
}

TEST(Finder, ChainToStringShowsSourceAndSink) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  ASSERT_FALSE(chains.empty());
  std::string text = chains[0].to_string();
  EXPECT_NE(text.find("(source)java.util.HashMap#readObject/1"), std::string::npos);
  EXPECT_NE(text.find("(sink)  java.net.InetAddress#getByName/1"), std::string::npos);
}

TEST(Finder, DepthLimitCutsLongChains) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  FinderOptions options;
  options.max_depth = 3;  // the URLDNS chain needs 6 hops
  GadgetChainFinder finder(cpg, options);
  EXPECT_TRUE(finder.find_all().chains.empty());

  options.max_depth = 6;
  GadgetChainFinder wider(cpg, options);
  EXPECT_EQ(wider.find_all().chains.size(), 1u);
}

TEST(Finder, WithoutAliasEdgesPolymorphicChainIsLost) {
  jir::Program p = testing::urldns_program();
  cpg::CpgOptions options;
  options.build_alias_edges = false;
  graph::FrozenGraph cpg = frozen_cpg(p, options);
  GadgetChainFinder finder(cpg);
  EXPECT_TRUE(finder.find_all().chains.empty());
}

TEST(Finder, TriggerConditionRejectsUncontrollableArgument) {
  // A "chain" whose sink argument is a constant must be rejected by the
  // Expander (one of its TC entries maps to ∞).
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto runtime = pb.add_class("java.lang.Runtime");
  runtime.method("exec").param("java.lang.String").returns("void").set_native();
  auto cls = pb.add_class("demo.Fixed");
  cls.serializable();
  cls.method("readObject")
      .param("java.io.ObjectInputStream")
      .returns("void")
      .const_str("cmd", "echo fixed")
      .new_object("rt", "java.lang.Runtime")
      .invoke_virtual("", "rt", "java.lang.Runtime", "exec", {"cmd"})
      .ret();
  jir::Program p = pb.build();

  // Keep the raw MCG so the CALL edge itself survives; the finder's TC
  // check must still reject it.
  cpg::CpgOptions options;
  options.prune_uncontrollable_calls = false;
  graph::FrozenGraph cpg = frozen_cpg(p, options);
  GadgetChainFinder finder(cpg);
  EXPECT_TRUE(finder.find_all().chains.empty());

  // Sanity: with TC checking disabled the path is "found" (a false
  // positive) — the Serianalyzer failure mode.
  FinderOptions loose;
  loose.check_trigger_conditions = false;
  GadgetChainFinder sloppy(cpg, loose);
  EXPECT_EQ(sloppy.find_all().chains.size(), 1u);
}

TEST(Finder, DeduplicatesIdenticalChains) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  GadgetChainFinder finder(cpg);
  auto report = finder.find_all();
  std::set<std::string> keys;
  for (const GadgetChain& c : report.chains) keys.insert(c.key());
  EXPECT_EQ(keys.size(), report.chains.size());
}

// --- Figure 6: the expander/evaluator exclusion example ----------------------
//
// Method nodes A (sink) .. J. The paper excludes E and I via the Expander
// (uncontrollable TC) and G via the Evaluator (depth). We rebuild the shape:
//   I -CALL-> C1 -ALIAS-> C -CALL-> A   where I's call makes TC ∞ (excluded)
//   H (source) -CALL-> C2 -ALIAS-> C -CALL-> A  (accepted)
//   G: a source so deep the depth bound excludes it.
TEST(Figure6, ExpanderAndEvaluatorExclusions) {
  graph::GraphDb db;
  auto method = [&](const std::string& name, bool source, bool sink) {
    graph::PropertyMap props;
    props[std::string(cpg::kPropName)] = name;
    props[std::string(cpg::kPropClassName)] = std::string("fig6");
    props[std::string(cpg::kPropSignature)] = "fig6#" + name + "/0";
    props[std::string(cpg::kPropIsSource)] = source;
    props[std::string(cpg::kPropIsSink)] = sink;
    if (sink) {
      props[std::string(cpg::kPropTriggerCondition)] = std::vector<std::int64_t>{1};
    }
    return db.add_node(std::string(cpg::kMethodLabel), props);
  };
  auto call = [&](NodeId from, NodeId to, std::vector<std::int64_t> pp) {
    graph::PropertyMap props;
    props[std::string(cpg::kPropPollutedPosition)] = std::move(pp);
    db.add_edge(from, to, std::string(cpg::kCallEdge), props);
  };

  constexpr std::int64_t kInf = 1'000'000'000;
  NodeId a = method("A", false, true);
  NodeId c = method("C", false, false);
  NodeId c1 = method("C1", false, false);
  NodeId c2 = method("C2", false, false);
  NodeId i = method("I", false, false);   // excluded by Expander
  NodeId h = method("H", true, false);    // the real source
  NodeId g1 = method("G1", false, false);
  NodeId g = method("G", true, false);    // excluded by Evaluator (too deep)

  call(c, a, {0, 1});                 // C calls sink A with controllable arg
  db.add_edge(c1, c, std::string(cpg::kAliasEdge));
  db.add_edge(c2, c, std::string(cpg::kAliasEdge));
  call(i, c1, {0, kInf});             // I's argument is uncontrollable
  call(h, c2, {0, 1});                // H's argument is controllable
  call(g1, c2, {0, 1});               // long detour to G
  call(g, g1, {0, 1});

  graph::FrozenGraph frozen = tabby::testing::freeze(db);
  FinderOptions options;
  // The paper's plugin walks ALIAS edges in both directions (C -> C1).
  options.alias_bidirectional = true;
  options.max_depth = 3;  // path H -> C2 -> C -> A fits; G's detour does not
  GadgetChainFinder finder(frozen, options);
  auto report = finder.find_all();
  ASSERT_EQ(report.chains.size(), 1u);
  EXPECT_EQ(report.chains[0].signatures.front(), "fig6#H/0");
  // Raising the depth admits G as well.
  options.max_depth = 6;
  GadgetChainFinder deeper(frozen, options);
  EXPECT_EQ(deeper.find_all().chains.size(), 2u);
  // Default (forward-only alias) finds neither: the CALL edges here target
  // the subclass declarations C1/C2 directly.
  FinderOptions forward_only;
  GadgetChainFinder strict(frozen, forward_only);
  EXPECT_TRUE(strict.find_all().chains.empty());
}

TEST(Finder, ExpiredDeadlineMarksEverySinkPartial) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  FinderOptions options;
  options.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  GadgetChainFinder finder(cpg, options);
  FinderReport report = finder.find_all();
  EXPECT_TRUE(report.partial());
  EXPECT_EQ(report.partial_sinks.size(), report.sinks_considered);
  EXPECT_TRUE(report.chains.empty());  // nothing expanded, nothing invented
  for (const PartialSink& sink : report.partial_sinks) {
    EXPECT_FALSE(sink.signature.empty());
  }
}

TEST(Finder, GenerousDeadlineLeavesTheReportIdentical) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  FinderOptions bounded;
  bounded.deadline = util::Deadline::after(std::chrono::hours{1});
  FinderReport with = GadgetChainFinder(cpg, bounded).find_all();
  FinderReport without = GadgetChainFinder(cpg).find_all();
  EXPECT_FALSE(with.partial());
  ASSERT_EQ(with.chains.size(), without.chains.size());
  for (std::size_t i = 0; i < with.chains.size(); ++i) {
    EXPECT_EQ(with.chains[i].signatures, without.chains[i].signatures);
  }
}

TEST(Finder, ExpansionBudgetMarksTheSinkPartial) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  FinderReport full = GadgetChainFinder(cpg).find_all();
  ASSERT_FALSE(full.partial());
  ASSERT_GT(full.expansions, 3u);

  FinderOptions options;
  options.max_expansions = 3;
  GadgetChainFinder finder(cpg, options);
  FinderReport cut = finder.find_all();
  EXPECT_TRUE(cut.budget_exhausted);  // the baselines' "X" cells read this
  ASSERT_EQ(cut.partial_sinks.size(), cut.sinks_considered);
  for (const PartialSink& sink : cut.partial_sinks) {
    EXPECT_EQ(sink.reason, PartialReason::ExpansionBudget);
    EXPECT_STREQ(to_string(sink.reason), "ExpansionBudget");
    EXPECT_EQ(sink.expansions, 3u);  // the refused expansion is not counted
    EXPECT_EQ(degraded_line(sink), "degraded: [finder-budget] " + sink.signature +
                                       ": search stopped at the expansion budget after " +
                                       std::to_string(sink.expansions) +
                                       " expansion(s); chains found so far are kept");
  }
  // A budget the search fits in leaves the report complete.
  options.max_expansions = full.expansions;
  FinderReport roomy = GadgetChainFinder(cpg, options).find_all();
  EXPECT_FALSE(roomy.partial());
  EXPECT_FALSE(roomy.budget_exhausted);
  EXPECT_EQ(roomy.chains.size(), full.chains.size());
}

// --- Algorithms 2-3 against a recursive reference ----------------------------
//
// The finder threads each branch's Trigger_Condition through an explicit-stack
// DFS over the frame. The reference below recurses, keeps every condition as a
// plain sorted vector, applies Formula 4 as written, and reads the edges from
// the list the graph was built from rather than from the frame.

constexpr std::int64_t kInf = analysis::kUncontrollable;

/// A seeded random method graph: CALL edges carrying Polluted_Position lists,
/// ALIAS edges, several sinks with Trigger_Conditions and several sources.
struct RandomCpg {
  struct Edge {
    NodeId from = 0, to = 0;
    bool call = true;
    std::optional<std::vector<std::int64_t>> pp;  // unset: no list (absent or not a list)
  };
  std::size_t nodes = 0;
  std::vector<Edge> edges;  // edge id order
  std::vector<bool> source;
  std::vector<std::optional<std::vector<std::int64_t>>> trigger;  // per node; unset: none
  std::vector<NodeId> sinks;                                      // ascending
  graph::FrozenGraph frame;
};

std::string random_signature(NodeId n) { return "r.M" + std::to_string(n) + "#m/0"; }

/// `mixed` stores some Polluted_Position and Trigger_Condition cells as
/// non-lists, so both columns freeze as Mixed instead of IntList.
RandomCpg random_cpg(std::uint64_t seed, bool mixed) {
  util::Rng rng(seed);
  RandomCpg out;
  graph::GraphDb db;
  out.nodes = 6 + rng.next_below(30);
  const std::int64_t weights[] = {0, 1, 2, 3, 64, 65, kInf, -1, std::int64_t{1} << 40};
  auto positions = [&](std::size_t n) {
    std::vector<std::int64_t> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(weights[rng.next_below(6)]);
    return xs;
  };
  for (NodeId n = 0; n < out.nodes; ++n) {
    bool sink = rng.chance(1, 5);
    bool source = !sink && rng.chance(1, 4);
    graph::PropertyMap props;
    props[std::string(cpg::kPropSignature)] = random_signature(n);
    props[std::string(cpg::kPropIsSource)] = source;
    props[std::string(cpg::kPropIsSink)] = sink;
    std::optional<std::vector<std::int64_t>> trigger;
    if (sink) {
      props[std::string(cpg::kPropSinkType)] = "T" + std::to_string(rng.next_below(3));
      switch (rng.next_below(4)) {
        case 0: break;  // no condition: the search starts from {0}
        case 1:
          if (mixed) {
            props[std::string(cpg::kPropTriggerCondition)] = std::int64_t{1};
            break;
          }
          [[fallthrough]];
        default:
          // Unsorted, with repeats, sometimes empty.
          trigger = positions(rng.next_below(4));
          props[std::string(cpg::kPropTriggerCondition)] = *trigger;
      }
      out.sinks.push_back(n);
    }
    out.source.push_back(source);
    out.trigger.push_back(std::move(trigger));
    db.add_node(std::string(cpg::kMethodLabel), std::move(props));
  }
  std::size_t edge_count = out.nodes * (1 + rng.next_below(3));
  for (std::size_t i = 0; i < edge_count; ++i) {
    RandomCpg::Edge edge;
    edge.from = rng.next_below(out.nodes);
    edge.to = rng.next_below(out.nodes);
    edge.call = rng.chance(3, 4);
    graph::PropertyMap props;
    if (edge.call) {
      std::size_t roll = rng.next_below(10);
      if (roll == 0) {
        // No Polluted_Position: a checked search never takes the edge.
      } else if (roll == 1 && mixed) {
        props[std::string(cpg::kPropPollutedPosition)] = std::string("not-a-list");
      } else {
        // Mostly short lists; sometimes long enough that 64 and 65 index them.
        std::size_t len = rng.chance(1, 8) ? 66 + rng.next_below(4) : rng.next_below(6);
        std::vector<std::int64_t> pp;
        for (std::size_t k = 0; k < len; ++k) pp.push_back(weights[rng.next_below(9)]);
        props[std::string(cpg::kPropPollutedPosition)] = pp;
        edge.pp = std::move(pp);
      }
    }
    db.add_edge(edge.from, edge.to, std::string(edge.call ? cpg::kCallEdge : cpg::kAliasEdge),
                std::move(props));
    out.edges.push_back(std::move(edge));
  }
  out.frame = tabby::testing::freeze(db);
  return out;
}

/// Formula 4 on plain vectors: TC_next = { PP[x] | x in TC }, or nothing
/// when some x is out of range or maps to an uncontrollable weight.
std::optional<std::vector<std::int64_t>> formula4(const std::vector<std::int64_t>& tc,
                                                  const std::vector<std::int64_t>& pp) {
  std::set<std::int64_t> next;
  for (std::int64_t x : tc) {
    if (x < 0 || x >= static_cast<std::int64_t>(pp.size())) return std::nullopt;
    std::int64_t w = pp[static_cast<std::size_t>(x)];
    if (w >= kInf) return std::nullopt;
    next.insert(w);
  }
  return std::vector<std::int64_t>(next.begin(), next.end());
}

struct ReferenceFinder {
  const RandomCpg& g;
  const FinderOptions& options;
  std::vector<std::vector<NodeId>> chains;  // source-first, in discovery order
  std::size_t expansions = 0;
  std::size_t found = 0;  // results of the current sink

  /// Returns false once the sink's result cap stops the search.
  bool visit(std::vector<NodeId>& path, const std::vector<std::int64_t>& tc) {
    NodeId end = path.back();
    if (path.size() > 1 && g.source[end]) {
      chains.emplace_back(path.rbegin(), path.rend());
      return ++found < options.max_results_per_sink;
    }
    if (static_cast<int>(path.size()) - 1 >= options.max_depth) return true;
    ++expansions;
    std::vector<std::pair<NodeId, std::vector<std::int64_t>>> steps;
    for (const RandomCpg::Edge& e : g.edges) {
      if (!e.call || e.to != end) continue;
      if (!options.check_trigger_conditions) {
        steps.emplace_back(e.from, tc);
      } else if (e.pp.has_value()) {
        if (auto next = formula4(tc, *e.pp)) steps.emplace_back(e.from, std::move(*next));
      }
    }
    for (const RandomCpg::Edge& e : g.edges) {
      if (!e.call && e.from == end) steps.emplace_back(e.to, tc);
    }
    if (options.alias_bidirectional) {
      for (const RandomCpg::Edge& e : g.edges) {
        if (!e.call && e.to == end) steps.emplace_back(e.from, tc);
      }
    }
    for (const auto& [next, next_tc] : steps) {
      if (std::find(path.begin(), path.end(), next) != path.end()) continue;
      path.push_back(next);
      bool more = visit(path, next_tc);
      path.pop_back();
      if (!more) return false;
    }
    return true;
  }

  /// find_all(): sinks in ascending id order, first occurrence of a chain wins.
  void run() {
    std::set<std::vector<NodeId>> seen;
    std::vector<std::vector<NodeId>> kept;
    for (NodeId sink : g.sinks) {
      chains.clear();
      found = 0;
      std::vector<std::int64_t> tc;
      if (g.trigger[sink].has_value()) tc = *g.trigger[sink];
      if (tc.empty()) tc = {0};
      std::vector<NodeId> path{sink};
      visit(path, tc);
      for (std::vector<NodeId>& chain : chains) {
        if (seen.insert(chain).second) kept.push_back(std::move(chain));
      }
    }
    chains = std::move(kept);
  }
};

TEST(Finder, MatchesAReferenceSearchOnRandomCpgs) {
  util::ThreadPool pool(4);
  std::size_t compared = 0, deep = 0, capped = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomCpg g = random_cpg(seed, /*mixed=*/seed % 3 == 0);
    FinderOptions options;
    options.max_depth = 2 + static_cast<int>(seed % 7);
    options.max_results_per_sink = seed % 4 == 0 ? 1 + seed % 3 : 128;
    options.check_trigger_conditions = seed % 5 != 0;
    options.alias_bidirectional = seed % 6 == 0;

    ReferenceFinder ref{g, options, {}, 0, 0};
    ref.run();
    for (const auto& chain : ref.chains) {
      if (chain.size() > 3) ++deep;
    }
    if (options.max_results_per_sink < 128) capped += ref.chains.size();
    compared += ref.chains.size();

    for (util::Executor* executor : {static_cast<util::Executor*>(nullptr),
                                     static_cast<util::Executor*>(&pool)}) {
      std::string label = "seed " + std::to_string(seed) + (executor ? ", 4 jobs" : ", 1 job");
      FinderOptions run_options = options;
      run_options.executor = executor;
      FinderReport report = GadgetChainFinder(g.frame, run_options).find_all();
      EXPECT_EQ(report.expansions, ref.expansions) << label;
      EXPECT_EQ(report.sinks_considered, g.sinks.size()) << label;
      ASSERT_EQ(report.chains.size(), ref.chains.size()) << label;
      for (std::size_t i = 0; i < ref.chains.size(); ++i) {
        const GadgetChain& chain = report.chains[i];
        EXPECT_EQ(chain.nodes, ref.chains[i]) << label << ", chain " << i;
        ASSERT_EQ(chain.signatures.size(), ref.chains[i].size()) << label << ", chain " << i;
        for (std::size_t k = 0; k < chain.signatures.size(); ++k) {
          EXPECT_EQ(chain.signatures[k], random_signature(ref.chains[i][k])) << label;
        }
      }
    }
  }
  // The seeds must actually find long chains, and under result caps too.
  EXPECT_GT(compared, 500u);
  EXPECT_GT(deep, 100u);
  EXPECT_GT(capped, 20u);
}

}  // namespace
}  // namespace tabby::finder
