// Property sweep over the five Table X scenes: multi-jar linking sanity,
// CPG invariants at scene scale, chain soundness, and Cypher queryability of
// the scene CPGs (the RQ4 workflow at realistic size).
#include <gtest/gtest.h>

#include "corpus/scenes.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "jir/validate.hpp"
#include "support/freeze.hpp"

namespace tabby::corpus {
namespace {

class SceneProperty : public ::testing::TestWithParam<std::string> {
 public:
  static std::string sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
  }
};

TEST_P(SceneProperty, LinksWithoutDuplicatesAndValidates) {
  Scene scene = build_scene(GetParam());
  std::size_t skipped = 0;
  jir::Program program = jar::link(scene.jars, &skipped);
  EXPECT_EQ(skipped, 0u);  // scene jars use disjoint packages
  auto issues = jir::validate(program);
  EXPECT_TRUE(issues.empty()) << (issues.empty() ? "" : issues.front().to_string());
  EXPECT_GT(program.class_count(), 100u);  // scenes have real bulk
}

TEST_P(SceneProperty, EveryTruthHasAMatchingReportedChain) {
  Scene scene = build_scene(GetParam());
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(scene.link()).db);
  finder::GadgetChainFinder finder(cpg);
  auto chains = finder.find_all().chains;
  for (const GroundTruthChain& truth : scene.truths) {
    bool found = false;
    for (const auto& chain : chains) {
      if (chain.source_signature() == truth.source_signature &&
          chain.sink_signature() == truth.sink_signature) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << GetParam() << ": " << truth.id;
  }
  // result = truths + guarded fakes, nothing else.
  EXPECT_EQ(chains.size(), scene.truths.size() + scene.fakes.size());
}

TEST_P(SceneProperty, SceneCpgAnswersCypherQueries) {
  Scene scene = build_scene(GetParam());
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(scene.link()).db);

  auto sinks = cypher::run_query(
      cpg, "MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE, m.SINK_TYPE");
  ASSERT_TRUE(sinks.ok());
  EXPECT_GE(sinks.value().rows.size(), 3u);

  auto sources = cypher::run_query(
      cpg,
      "MATCH (c:Class {IS_SERIALIZABLE: true})-[:HAS]->(m:Method {IS_SOURCE: true}) "
      "RETURN m.SIGNATURE");
  ASSERT_TRUE(sources.ok());
  EXPECT_GE(sources.value().rows.size(), scene.truths.size());

  // Chains findable via pure Cypher too (bounded hop count).
  auto paths = cypher::run_query(
      cpg,
      "MATCH p = (m:Method {IS_SOURCE: true})-[:CALL*1..3]->(s:Method {IS_SINK: true}) "
      "RETURN p LIMIT 5");
  ASSERT_TRUE(paths.ok());
}

TEST_P(SceneProperty, DeterministicRebuild) {
  Scene a = build_scene(GetParam());
  Scene b = build_scene(GetParam());
  ASSERT_EQ(a.jars.size(), b.jars.size());
  for (std::size_t i = 0; i < a.jars.size(); ++i) {
    EXPECT_EQ(jar::write_archive(a.jars[i]), jar::write_archive(b.jars[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenes, SceneProperty, ::testing::ValuesIn(scene_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return SceneProperty::sanitize(info.param);
                         });

}  // namespace
}  // namespace tabby::corpus
