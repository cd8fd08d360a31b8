// Tests for gadget-chain finding (§III-D): the URLDNS chain end to end, the
// Figure 1 EvilObject chain, Trigger_Condition rejection, alias dead-ends
// (EnumMap), depth limits, and the Figure 6 exclusion example.
#include <gtest/gtest.h>

#include <chrono>

#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "fixtures.hpp"
#include "support/freeze.hpp"

namespace tabby::finder {
namespace {

using graph::NodeId;
using graph::Value;

/// Builds and freezes the CPG of `p`.
graph::FrozenGraph frozen_cpg(const jir::Program& p, const cpg::CpgOptions& options = {}) {
  return tabby::testing::freeze(cpg::build_cpg(p, options).db);
}

NodeId node_by_signature(const graph::FrozenGraph& db, const std::string& sig) {
  auto hits = db.find_nodes(cpg::kMethodLabel, cpg::kPropSignature, Value{sig});
  EXPECT_EQ(hits.size(), 1u) << sig;
  return hits.empty() ? graph::kNoNode : hits[0];
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
  graph::FrozenGraph cpg = frozen_cpg(p);
  FinderOptions options;
  options.use_alias_edges = false;
  GadgetChainFinder finder(cpg, options);
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

TEST(Finder, CustomSourcePredicate) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  NodeId sink = node_by_signature(cpg, "java.net.InetAddress#getByName/1");
  GadgetChainFinder finder(cpg);
  // RQ4 workflow: ask for chains ending anywhere in URL instead.
  auto chains = finder.find_from_sink(sink, [&](NodeId n) {
    return cpg.node_prop_string(n, cpg::kPropClassName) == "java.net.URL";
  });
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].source_signature(), "java.net.URL#hashCode/0");
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

TEST(Finder, CancelTokenCutsTheSearchShort) {
  jir::Program p = testing::urldns_program();
  graph::FrozenGraph cpg = frozen_cpg(p);
  util::CancelToken token;
  token.cancel();
  FinderOptions options;
  options.deadline.bind(&token);
  FinderReport report = GadgetChainFinder(cpg, options).find_all();
  EXPECT_TRUE(report.partial());
}

}  // namespace
}  // namespace tabby::finder
