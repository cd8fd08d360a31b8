// Parameterized sweep over every sink flavour × dispatch shape the corpus
// planter supports: each planted structure must behave exactly as designed —
// real chains found by Tabby and fired by the VM, guarded fakes found but
// refuted, wipe fakes invisible to Tabby, const webs fully pruned.
#include <gtest/gtest.h>

#include "corpus/jdk.hpp"
#include "corpus/planter.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "jir/validate.hpp"
#include "support/freeze.hpp"

namespace tabby::corpus {
namespace {

struct Shape {
  SinkFlavor flavor;
  bool iface;
};

std::string shape_name(const ::testing::TestParamInfo<Shape>& info) {
  std::string name = std::string(sink_signature(info.param.flavor));
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out + (info.param.iface ? "_iface" : "_plain");
}

jir::Program plant_one(const std::function<void(Planter&)>& plant,
                       std::vector<GroundTruthChain>* truths = nullptr,
                       std::vector<FakeStructure>* fakes = nullptr) {
  jir::ProgramBuilder pb;
  Planter planter(pb, "sweep.pkg", 42);
  plant(planter);
  (void)truths;
  (void)fakes;
  jar::Archive jar;
  jar.meta.name = "sweep";
  jar.classes = pb.build().classes();
  return jar::link({jdk_base_archive(), jar});
}

class RealChainSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(RealChainSweep, FoundByTabbyAndFiredByVm) {
  GroundTruthChain truth;
  jir::Program program = plant_one([&](Planter& planter) {
    RealChainOptions options;
    options.iface = GetParam().iface;
    options.sink = GetParam().flavor;
    truth = planter.plant_real_chain(options);
  });
  ASSERT_TRUE(jir::validate(program).empty());

  // Tabby finds exactly this chain.
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  finder::GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  ASSERT_EQ(chains.size(), 1u);
  EXPECT_EQ(chains[0].source_signature(), truth.source_signature);
  EXPECT_EQ(chains[0].sink_signature(), truth.sink_signature);
  EXPECT_EQ(truth.sink_signature, sink_signature(GetParam().flavor));

  // The recipe fires with a satisfied trigger.
  evalkit::VerificationOutcome outcome = evalkit::verify_ground_truth(program, {truth}, {});
  EXPECT_TRUE(outcome.all_good())
      << (outcome.failures.empty() ? "count mismatch" : outcome.failures[0]);
}

INSTANTIATE_TEST_SUITE_P(AllShapes, RealChainSweep, ::testing::ValuesIn([] {
                           std::vector<Shape> shapes;
                           for (SinkFlavor flavor : kAllSinkFlavors) {
                             shapes.push_back(Shape{flavor, false});
                             shapes.push_back(Shape{flavor, true});
                           }
                           return shapes;
                         }()),
                         shape_name);

class GuardedFakeSweep : public ::testing::TestWithParam<SinkFlavor> {};

TEST_P(GuardedFakeSweep, FoundByTabbyButRefutedByVm) {
  FakeStructure fake;
  jir::Program program =
      plant_one([&](Planter& planter) { fake = planter.plant_guarded_fake(GetParam()); });

  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  finder::GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  ASSERT_EQ(chains.size(), 1u);  // statically reported: the paper's FP class
  EXPECT_EQ(chains[0].source_signature(), fake.source_signature);

  evalkit::VerificationOutcome outcome = evalkit::verify_ground_truth(program, {}, {fake});
  EXPECT_TRUE(outcome.all_good())
      << (outcome.failures.empty() ? "count mismatch" : outcome.failures[0]);
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, GuardedFakeSweep, ::testing::ValuesIn(std::vector<SinkFlavor>(
                                                           std::begin(kAllSinkFlavors),
                                                           std::end(kAllSinkFlavors))),
                         [](const ::testing::TestParamInfo<SinkFlavor>& info) {
                           std::string name = std::string(sink_signature(info.param));
                           std::string out;
                           for (char c : name) {
                             if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
                           }
                           return out;
                         });

TEST(PlanterShapes, WipeFakeInvisibleToTabbyVisibleToBaselines) {
  FakeStructure fake;
  jir::Program program = plant_one([&](Planter& planter) { fake = planter.plant_wipe_fake(); });

  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  finder::GadgetChainFinder finder(cpg);
  EXPECT_TRUE(finder.find_all().chains.empty());  // Action summary kills it

  evalkit::ToolRun gi = evalkit::run_tool(evalkit::Tool::GadgetInspector, program);
  EXPECT_EQ(gi.chains.size(), 1u);  // intraprocedural taint reports it
}

TEST(PlanterShapes, ConstWebOnlyVisibleToSerianalyzer) {
  jir::Program program = plant_one([&](Planter& planter) { planter.plant_const_web(5); });

  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  // Every WebSource->hub edge is pruned (const args): the exec sink keeps a
  // single incoming CALL edge, from the hub.
  auto exec_nodes =
      cpg.find_nodes("Method", "SIGNATURE", graph::Value{std::string("java.lang.Runtime#exec/1")});
  ASSERT_EQ(exec_nodes.size(), 1u);
  EXPECT_EQ(cpg.in_edges_typed_view(exec_nodes[0], *cpg.edge_type_id("CALL")).size(), 1u);
  finder::GadgetChainFinder finder(cpg);
  EXPECT_TRUE(finder.find_all().chains.empty());

  EXPECT_TRUE(evalkit::run_tool(evalkit::Tool::GadgetInspector, program).chains.empty());
  evalkit::ToolRun sl = evalkit::run_tool(evalkit::Tool::Serianalyzer, program);
  EXPECT_EQ(sl.chains.size(), 5u);  // one fake per web source
}

TEST(PlanterShapes, ExplosiveWebPrunedToNothingForTabby) {
  jir::Program program =
      plant_one([&](Planter& planter) { planter.plant_explosive_web(24, 5); });
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  finder::GadgetChainFinder finder(cpg);
  finder::FinderReport report = finder.find_all();
  EXPECT_TRUE(report.chains.empty());
  EXPECT_LT(report.expansions, 100u);  // the maze never gets explored
}

TEST(PlanterShapes, ReflectionChainInvisibleToEveryTool) {
  GroundTruthChain truth;
  jir::Program program = plant_one(
      [&](Planter& planter) { truth = planter.plant_reflection_chain(SinkFlavor::Exec); });
  EXPECT_TRUE(truth.requires_reflection);
  for (evalkit::Tool tool : {evalkit::Tool::Tabby, evalkit::Tool::GadgetInspector,
                             evalkit::Tool::Serianalyzer}) {
    EXPECT_TRUE(evalkit::run_tool(tool, program).chains.empty())
        << evalkit::tool_name(tool);
  }
}

TEST(PlanterShapes, SharedHelperYieldsDistinctChains) {
  GroundTruthChain t1, t2;
  jir::Program program = plant_one([&](Planter& planter) {
    std::string helper = planter.make_plain_helper(SinkFlavor::Exec);
    RealChainOptions options;
    options.sink = SinkFlavor::Exec;
    options.shared_helper = helper;
    t1 = planter.plant_real_chain(options);
    t2 = planter.plant_real_chain(options);
  });
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program).db);
  finder::GadgetChainFinder finder(cpg);
  EXPECT_EQ(finder.find_all().chains.size(), 2u);  // Tabby keeps both
  evalkit::ToolRun gi = evalkit::run_tool(evalkit::Tool::GadgetInspector, program);
  EXPECT_EQ(gi.chains.size(), 1u);  // visited-skip loses one
}

}  // namespace
}  // namespace tabby::corpus
