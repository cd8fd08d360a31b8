// Tests for CPG construction (§III-B): ORG shape, HAS/EXTEND/INTERFACE
// edges, CALL edges with Polluted_Position, pruning (MCG -> PCG), ALIAS
// edges (Formula 1), sink/source annotation and phantom handling — checked
// against the paper's URLDNS example (Figure 4).
#include <gtest/gtest.h>

#include "analysis/domain.hpp"
#include <filesystem>
#include <fstream>

#include "cpg/builder.hpp"
#include "cpg/export.hpp"
#include "cpg/schema.hpp"
#include "cpg/sinks.hpp"
#include "fixtures.hpp"
#include "support/freeze.hpp"

namespace tabby::cpg {
namespace {

using graph::FrozenGraph;
using graph::NodeId;
using graph::Value;

NodeId method_node(const FrozenGraph& db, const std::string& owner, const std::string& name,
                   int nargs) {
  auto hits =
      db.find_nodes(kMethodLabel, kPropSignature, Value{method_signature(owner, name, nargs)});
  EXPECT_EQ(hits.size(), 1u) << owner << "#" << name << "/" << nargs;
  return hits.empty() ? graph::kNoNode : hits[0];
}

NodeId class_node(const FrozenGraph& db, const std::string& name) {
  auto hits = db.find_nodes(kClassLabel, kPropName, Value{name});
  EXPECT_EQ(hits.size(), 1u) << name;
  return hits.empty() ? graph::kNoNode : hits[0];
}

/// The edges from -> to with `type`, in insertion order.
std::vector<graph::EdgeId> edges_between(const FrozenGraph& db, NodeId from, NodeId to,
                                         std::string_view type) {
  std::vector<graph::EdgeId> found;
  auto id = db.edge_type_id(type);
  if (!id.has_value()) return found;
  graph::AdjacencyView out = db.out_edges_typed_view(from, *id);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out.nbr[i] == to) found.push_back(out.edge[i]);
  }
  return found;
}

bool has_edge(const FrozenGraph& db, NodeId from, NodeId to, std::string_view type) {
  return !edges_between(db, from, to, type).empty();
}

std::vector<std::int64_t> int_list(const std::optional<Value>& v) {
  const auto* xs = v.has_value() ? std::get_if<std::vector<std::int64_t>>(&*v) : nullptr;
  return xs != nullptr ? *xs : std::vector<std::int64_t>{};
}

TEST(SinkRegistry, DefaultsCoverTableVII) {
  SinkRegistry r = SinkRegistry::defaults();
  EXPECT_EQ(r.size(), 38u);  // the paper summarises 38 sink methods

  const SinkSpec* exec = r.match("java.lang.Runtime", "exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->type, "EXEC");
  EXPECT_EQ(exec->trigger, (std::vector<int>{1}));

  const SinkSpec* invoke = r.match("java.lang.reflect.Method", "invoke");
  ASSERT_NE(invoke, nullptr);
  EXPECT_EQ(invoke->trigger, (std::vector<int>{0, 1}));

  const SinkSpec* lookup = r.match("javax.naming.Context", "lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->type, "JNDI");

  EXPECT_EQ(r.match("java.lang.Runtime", "harmless"), nullptr);
  EXPECT_EQ(r.match("demo.Nothing", "exec"), nullptr);
}

TEST(SourceRegistry, RecognisesDeserializationEntryPoints) {
  SourceRegistry r = SourceRegistry::defaults();
  EXPECT_TRUE(r.is_source_name("readObject"));
  EXPECT_TRUE(r.is_source_name("readExternal"));
  EXPECT_TRUE(r.is_source_name("readResolve"));
  EXPECT_TRUE(r.is_source_name("finalize"));
  EXPECT_FALSE(r.is_source_name("toString"));
  EXPECT_FALSE(r.is_source_name("main"));
}

class UrldnsCpg : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new jir::Program(testing::urldns_program());
    cpg_ = new Cpg(build_cpg(*program_));
    frame_ = new FrozenGraph(tabby::testing::freeze(cpg_->db));
  }
  static void TearDownTestSuite() {
    delete frame_;
    delete cpg_;
    delete program_;
    frame_ = nullptr;
    cpg_ = nullptr;
    program_ = nullptr;
  }

  static jir::Program* program_;
  static Cpg* cpg_;
  static FrozenGraph* frame_;
};

jir::Program* UrldnsCpg::program_ = nullptr;
Cpg* UrldnsCpg::cpg_ = nullptr;
FrozenGraph* UrldnsCpg::frame_ = nullptr;

TEST_F(UrldnsCpg, OrgHasClassAndMethodNodes) {
  const FrozenGraph& db = *frame_;
  EXPECT_GT(cpg_->stats.class_nodes, 0u);
  EXPECT_GT(cpg_->stats.method_nodes, 0u);

  NodeId hashmap = class_node(db, "java.util.HashMap");
  EXPECT_TRUE(db.node_prop_bool(hashmap, kPropSerializable));
  EXPECT_FALSE(db.node_prop_bool(hashmap, kPropInterface));

  // HAS edges connect the class to each of its methods.
  auto has_edges = db.out_edges_typed_view(hashmap, *db.edge_type_id(kHasEdge));
  EXPECT_EQ(has_edges.size(), 2u);  // readObject, hash
}

TEST_F(UrldnsCpg, ExtendAndInterfaceEdges) {
  const FrozenGraph& db = *frame_;
  NodeId hashmap = class_node(db, "java.util.HashMap");
  NodeId object = class_node(db, "java.lang.Object");
  NodeId serializable = class_node(db, "java.io.Serializable");
  EXPECT_TRUE(has_edge(db, hashmap, object, kExtendEdge));
  EXPECT_TRUE(has_edge(db, hashmap, serializable, kInterfaceEdge));
  EXPECT_FALSE(has_edge(db, object, hashmap, kExtendEdge));
}

TEST_F(UrldnsCpg, CallEdgesCarryPollutedPosition) {
  const FrozenGraph& db = *frame_;
  NodeId read_object = method_node(db, "java.util.HashMap", "readObject", 1);
  NodeId hash = method_node(db, "java.util.HashMap", "hash", 1);
  auto calls = edges_between(db, read_object, hash, kCallEdge);
  ASSERT_EQ(calls.size(), 1u);
  // Receiver is @this (0); the argument is this.key (weight 0).
  EXPECT_EQ(int_list(db.edge_prop(calls[0], kPropPollutedPosition)),
            (std::vector<std::int64_t>{0, 0}));
}

TEST_F(UrldnsCpg, AliasEdgesLinkOverridesToObjectHashCode) {
  const FrozenGraph& db = *frame_;
  NodeId url_hash = method_node(db, "java.net.URL", "hashCode", 0);
  NodeId obj_hash = method_node(db, "java.lang.Object", "hashCode", 0);
  NodeId enum_hash = method_node(db, "java.util.EnumMap", "hashCode", 0);
  EXPECT_TRUE(has_edge(db, url_hash, obj_hash, kAliasEdge));
  EXPECT_TRUE(has_edge(db, enum_hash, obj_hash, kAliasEdge));
  // ALIAS edges are directional: override -> overridden only.
  EXPECT_FALSE(has_edge(db, obj_hash, url_hash, kAliasEdge));
}

TEST_F(UrldnsCpg, SinkAndSourceAnnotation) {
  const FrozenGraph& db = *frame_;
  NodeId sink = method_node(db, "java.net.InetAddress", "getByName", 1);
  EXPECT_TRUE(db.node_prop_bool(sink, kPropIsSink));
  EXPECT_EQ(db.node_prop_string(sink, kPropSinkType), "SSRF");
  EXPECT_TRUE(db.node_prop_bool(sink, kPropPhantom));  // InetAddress is not in the program
  EXPECT_EQ(int_list(db.node_prop(sink, kPropTriggerCondition)), (std::vector<std::int64_t>{1}));

  NodeId read_object = method_node(db, "java.util.HashMap", "readObject", 1);
  EXPECT_TRUE(db.node_prop_bool(read_object, kPropIsSource));
  // hash() is not a source; URLStreamHandler is not serializable.
  NodeId hash = method_node(db, "java.util.HashMap", "hash", 1);
  EXPECT_FALSE(db.node_prop_bool(hash, kPropIsSource));
  EXPECT_EQ(cpg_->stats.source_methods, 1u);
}

TEST_F(UrldnsCpg, ActionStoredOnMethodNodes) {
  const FrozenGraph& db = *frame_;
  NodeId gha = method_node(db, "java.net.URLStreamHandler", "getHostAddress", 1);
  auto action_value = db.node_prop(gha, kPropAction);
  ASSERT_TRUE(action_value.has_value());
  const auto* action_strings = std::get_if<std::vector<std::string>>(&*action_value);
  ASSERT_NE(action_strings, nullptr);
  analysis::Action action = analysis::Action::from_strings(*action_strings);
  EXPECT_EQ(action.entries.at("return"), analysis::Origin::unknown());  // getByName is phantom
}

TEST_F(UrldnsCpg, StatsAreConsistent) {
  graph::CardinalityStats counts = cpg_->db.cardinality();
  EXPECT_EQ(cpg_->stats.class_nodes, counts.label_count(kClassLabel));
  EXPECT_EQ(cpg_->stats.method_nodes, counts.label_count(kMethodLabel));
  EXPECT_EQ(cpg_->stats.relationship_edges, counts.edges);
  EXPECT_EQ(cpg_->stats.sink_methods,
            frame_->find_nodes(kMethodLabel, kPropIsSink, Value{true}).size());
  EXPECT_GT(cpg_->stats.build_seconds, 0.0);
}

TEST(CpgOptionsTest, PruningRemovesUncontrollableCalls) {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("t.C");
  cls.method("callee").set_static().param("java.lang.String").returns("void").ret();
  cls.method("m")
      .set_static()
      .returns("void")
      .const_str("k", "fixed")
      .invoke_static("", "t.C", "callee", {"k"})
      .ret();
  jir::Program p = pb.build();

  Cpg pruned = build_cpg(p);
  EXPECT_EQ(pruned.stats.call_edges, 0u);
  EXPECT_EQ(pruned.stats.pruned_call_sites, 1u);

  CpgOptions keep;
  keep.prune_uncontrollable_calls = false;
  Cpg raw = build_cpg(p, keep);
  EXPECT_EQ(raw.stats.call_edges, 1u);
  EXPECT_EQ(raw.stats.pruned_call_sites, 0u);
}

TEST(CpgOptionsTest, AliasEdgesCanBeDisabled) {
  jir::Program p = testing::urldns_program();
  CpgOptions options;
  options.build_alias_edges = false;
  Cpg cpg = build_cpg(p, options);
  EXPECT_EQ(cpg.stats.alias_edges, 0u);
}

TEST(CpgOptionsTest, JarNameRecordedOnClassNodes) {
  jir::ProgramBuilder pb;
  pb.add_class("t.C");
  jir::Program p = pb.build();
  CpgOptions options;
  options.jar_name = "demo.jar";
  FrozenGraph db = tabby::testing::freeze(build_cpg(p, options).db);
  auto hits = db.find_nodes(kClassLabel, kPropName, Value{std::string("t.C")});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(db.node_prop_string(hits[0], kPropJar), "demo.jar");
}

TEST(CpgOptionsTest, RepeatedCallsMergeIntoOneEdge) {
  jir::ProgramBuilder pb;
  pb.with_core_classes();
  auto cls = pb.add_class("t.C");
  cls.method("callee").set_static().param("java.lang.Object").returns("void").ret();
  cls.method("m")
      .set_static()
      .param("java.lang.Object")
      .returns("void")
      .const_null("k")
      .invoke_static("", "t.C", "callee", {"k"})     // PP [∞,∞] — alone it would be pruned
      .invoke_static("", "t.C", "callee", {"@p1"})   // PP [∞,1]
      .ret();
  jir::Program p = pb.build();
  Cpg cpg = build_cpg(p);
  // Only the controllable call survives pruning; one edge with PP [∞,1].
  EXPECT_EQ(cpg.stats.call_edges, 1u);
  FrozenGraph db = tabby::testing::freeze(cpg.db);
  std::uint16_t call = *db.edge_type_id(kCallEdge);
  bool found = false;
  for (graph::EdgeId e = 0; e < db.edge_count(); ++e) {
    if (db.edge_type(e) != call) continue;
    std::vector<std::int64_t> pp = int_list(db.edge_prop(e, kPropPollutedPosition));
    ASSERT_EQ(pp.size(), 2u);
    EXPECT_EQ(pp[1], 1);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CpgOptionsTest, EvilObjectGraphShape) {
  jir::Program p = testing::evil_object_program();
  FrozenGraph db = tabby::testing::freeze(build_cpg(p).db);

  // EvilObjectB.toString aliases Object.toString.
  NodeId b_tostring = method_node(db, "demo.EvilObjectB", "toString", 0);
  NodeId obj_tostring = method_node(db, "java.lang.Object", "toString", 0);
  EXPECT_TRUE(has_edge(db, b_tostring, obj_tostring, kAliasEdge));

  // The exec call edge exists with a controllable argument.
  NodeId exec = method_node(db, "java.lang.Runtime", "exec", 1);
  EXPECT_TRUE(db.node_prop_bool(exec, kPropIsSink));
  auto in_calls = db.in_edges_typed_view(exec, *db.edge_type_id(kCallEdge));
  ASSERT_EQ(in_calls.size(), 1u);
  std::vector<std::int64_t> pp = int_list(db.edge_prop(in_calls.edge[0], kPropPollutedPosition));
  ASSERT_EQ(pp.size(), 2u);
  EXPECT_EQ(pp[1], 0);  // cmd comes from this.val2
}


// --- CSV export (neo4j-admin bulk import layout) -------------------------------

TEST(CsvExport, WritesThreeFilesWithCorrectCounts) {
  jir::Program p = testing::urldns_program();
  Cpg cpg = build_cpg(p);
  auto dir = std::filesystem::temp_directory_path() / "tabby_csv_test";
  std::filesystem::remove_all(dir);

  auto stats = export_csv(tabby::testing::freeze(cpg.db), dir);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();
  EXPECT_EQ(stats.value().class_rows, cpg.stats.class_nodes);
  EXPECT_EQ(stats.value().method_rows, cpg.stats.method_nodes);
  EXPECT_EQ(stats.value().relationship_rows, cpg.stats.relationship_edges);

  // Line counts = rows + header.
  auto count_lines = [](const std::filesystem::path& file) {
    std::ifstream in(file);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) ++n;
    return n;
  };
  EXPECT_EQ(count_lines(dir / "CLASSES.csv"), cpg.stats.class_nodes + 1);
  EXPECT_EQ(count_lines(dir / "METHODS.csv"), cpg.stats.method_nodes + 1);
  EXPECT_EQ(count_lines(dir / "RELATIONSHIPS.csv"), cpg.stats.relationship_edges + 1);

  // Spot check: the sink row carries its type and trigger condition.
  std::ifstream methods(dir / "METHODS.csv");
  std::string line;
  bool sink_row_found = false;
  while (std::getline(methods, line)) {
    if (line.find("java.net.InetAddress#getByName/1") != std::string::npos) {
      EXPECT_NE(line.find("SSRF"), std::string::npos);
      EXPECT_NE(line.find("[1]"), std::string::npos);
      sink_row_found = true;
    }
  }
  EXPECT_TRUE(sink_row_found);
  std::filesystem::remove_all(dir);
}

TEST(CsvExport, BadDirectoryFails) {
  jir::Program p = testing::urldns_program();
  Cpg cpg = build_cpg(p);
  auto result = export_csv(tabby::testing::freeze(cpg.db), "/proc/definitely/not/writable");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace tabby::cpg
