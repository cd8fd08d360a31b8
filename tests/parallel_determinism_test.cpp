// The tentpole guarantee of the parallel pipeline: every stage produces
// BIT-IDENTICAL results at any job count. Serialized CPG bytes, finder
// reports, controllability summaries and validation reports are compared
// between the serial path (no executor) and a deliberately oversubscribed
// 8-worker pool across the ysoserial corpus and the Table X scenes.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/controllability.hpp"
#include "cfg/cfg.hpp"
#include "corpus/jdk.hpp"
#include "corpus/scenes.hpp"
#include "corpus/ysoserial.hpp"
#include "cpg/builder.hpp"
#include "finder/finder.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "jir/hierarchy.hpp"
#include "jir/validate.hpp"
#include "support/freeze.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

cpg::Cpg build(const jir::Program& program, util::Executor* executor) {
  cpg::CpgOptions options;
  options.executor = executor;
  return cpg::build_cpg(program, options);
}

void expect_identical_cpg(const jir::Program& program, util::Executor* pool,
                          const std::string& label) {
  cpg::Cpg serial = build(program, nullptr);
  cpg::Cpg parallel = build(program, pool);
  EXPECT_EQ(graph::serialize(serial.db), graph::serialize(parallel.db)) << label;
  EXPECT_EQ(serial.stats.class_nodes, parallel.stats.class_nodes) << label;
  EXPECT_EQ(serial.stats.method_nodes, parallel.stats.method_nodes) << label;
  EXPECT_EQ(serial.stats.relationship_edges, parallel.stats.relationship_edges) << label;
  EXPECT_EQ(serial.stats.call_edges, parallel.stats.call_edges) << label;
  EXPECT_EQ(serial.stats.alias_edges, parallel.stats.alias_edges) << label;
  EXPECT_EQ(serial.stats.pruned_call_sites, parallel.stats.pruned_call_sites) << label;
  EXPECT_EQ(serial.stats.source_methods, parallel.stats.source_methods) << label;
  EXPECT_EQ(serial.stats.sink_methods, parallel.stats.sink_methods) << label;
}

void expect_identical_search(const graph::GraphDb& built, util::Executor* pool,
                             const std::string& label) {
  graph::FrozenGraph db = tabby::testing::freeze(built);
  finder::FinderOptions serial_options;
  finder::GadgetChainFinder serial_finder(db, serial_options);
  finder::FinderReport serial_report = serial_finder.find_all();

  finder::FinderOptions parallel_options;
  parallel_options.executor = pool;
  finder::GadgetChainFinder parallel_finder(db, parallel_options);
  finder::FinderReport parallel_report = parallel_finder.find_all();

  ASSERT_EQ(serial_report.chains.size(), parallel_report.chains.size()) << label;
  for (std::size_t i = 0; i < serial_report.chains.size(); ++i) {
    EXPECT_EQ(serial_report.chains[i].key(), parallel_report.chains[i].key())
        << label << " chain " << i;
    EXPECT_EQ(serial_report.chains[i].sink_type, parallel_report.chains[i].sink_type)
        << label << " chain " << i;
  }
  EXPECT_EQ(serial_report.sinks_considered, parallel_report.sinks_considered) << label;
  EXPECT_EQ(serial_report.expansions, parallel_report.expansions) << label;
  EXPECT_EQ(serial_report.budget_exhausted, parallel_report.budget_exhausted) << label;
}

TEST(ParallelDeterminism, YsoserialCpgBytesIdentical) {
  util::ThreadPool pool(8);  // oversubscribed on small machines, on purpose
  for (const std::string& name : corpus::ysoserial_names()) {
    corpus::YsoserialModel model = corpus::build_ysoserial(name);
    jir::Program program = jar::link({corpus::jdk_base_archive(), model.jar});
    expect_identical_cpg(program, &pool, name);
  }
}

TEST(ParallelDeterminism, YsoserialFinderReportIdentical) {
  util::ThreadPool pool(8);
  for (const std::string& name : corpus::ysoserial_names()) {
    corpus::YsoserialModel model = corpus::build_ysoserial(name);
    jir::Program program = jar::link({corpus::jdk_base_archive(), model.jar});
    cpg::Cpg cpg = build(program, &pool);
    expect_identical_search(cpg.db, &pool, name);
  }
}

TEST(ParallelDeterminism, SceneCpgBytesIdentical) {
  util::ThreadPool pool(8);
  for (const std::string& name : corpus::scene_names()) {
    corpus::Scene scene = corpus::build_scene(name);
    jir::Program program = scene.link();
    expect_identical_cpg(program, &pool, name);
  }
}

TEST(ParallelDeterminism, SceneFinderReportIdentical) {
  util::ThreadPool pool(8);
  corpus::Scene scene = corpus::build_scene("Spring");
  jir::Program program = scene.link();
  cpg::Cpg cpg = build(program, &pool);
  expect_identical_search(cpg.db, &pool, "Spring");
}

TEST(ParallelDeterminism, PrecomputeMatchesDemandDrivenSummaries) {
  corpus::YsoserialModel model = corpus::build_ysoserial("CommonsCollections6");
  jir::Program program = jar::link({corpus::jdk_base_archive(), model.jar});
  jir::Hierarchy hierarchy(program);

  analysis::ControllabilityAnalysis demand(program, hierarchy);
  util::ThreadPool pool(8);
  analysis::ControllabilityAnalysis waves(program, hierarchy);
  waves.precompute(&pool);

  const analysis::PrecomputeStats& stats = waves.precompute_stats();
  EXPECT_GT(stats.waves, 0u);
  EXPECT_EQ(stats.wave_methods + stats.serial_methods, program.all_methods().size());

  for (jir::MethodId id : program.all_methods()) {
    const analysis::MethodSummary& a = demand.summary(id);
    const analysis::MethodSummary& b = waves.cached_summary(id);
    EXPECT_EQ(a.action.to_strings(), b.action.to_strings()) << program.method(id).name;
    ASSERT_EQ(a.call_sites.size(), b.call_sites.size()) << program.method(id).name;
    for (std::size_t i = 0; i < a.call_sites.size(); ++i) {
      EXPECT_EQ(a.call_sites[i].stmt_index, b.call_sites[i].stmt_index);
      EXPECT_EQ(a.call_sites[i].pp, b.call_sites[i].pp);
      EXPECT_EQ(a.call_sites[i].resolved, b.call_sites[i].resolved);
    }
  }
}

TEST(ParallelDeterminism, CfgBuildGraphsMatchesPerMethodConstruction) {
  corpus::YsoserialModel model = corpus::build_ysoserial("URLDNS");
  jir::Program program = jar::link({corpus::jdk_base_archive(), model.jar});
  util::ThreadPool pool(8);
  std::vector<std::optional<cfg::ControlFlowGraph>> parallel = cfg::build_graphs(program, &pool);
  std::vector<jir::MethodId> methods = program.all_methods();
  ASSERT_EQ(parallel.size(), methods.size());
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const jir::Method& m = program.method(methods[i]);
    ASSERT_EQ(parallel[i].has_value(), m.has_body());
    if (m.has_body()) {
      EXPECT_EQ(parallel[i]->to_string(), cfg::ControlFlowGraph(m).to_string());
    }
  }
}

TEST(ParallelDeterminism, ValidationReportOrderIdentical) {
  corpus::Scene scene = corpus::build_scene("JDK8");
  jir::Program program = scene.link();
  util::ThreadPool pool(8);
  std::vector<jir::ValidationIssue> serial = jir::validate(program);
  std::vector<jir::ValidationIssue> parallel = jir::validate(program, true, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].to_string(), parallel[i].to_string());
  }
}

}  // namespace
}  // namespace tabby
