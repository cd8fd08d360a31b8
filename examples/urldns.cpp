// The URLDNS chain (paper Figure 3/4): builds the HashMap/URL model with the
// builder API, dumps the relevant CPG neighbourhood, finds the chain via the
// Trigger_Condition traversal, persists the graph, and re-verifies with the
// runtime VM.
//
// Run:  ./urldns [graph-store-path]
#include <cstdio>

#include "corpus/jdk.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "graph/frozen.hpp"
#include "jar/archive.hpp"
#include "jir/builder.hpp"
#include "runtime/objectgraph.hpp"
#include "runtime/vm.hpp"

using namespace tabby;

namespace {

jar::Archive urldns_jar() {
  jir::ProgramBuilder pb;

  auto url = pb.add_class("java.net.URL");
  url.serializable();
  url.field("host", "java.lang.String");
  url.field("handler", "java.net.URLStreamHandler");
  url.method("hashCode")
      .returns("int")
      .field_load("hd", "@this", "handler")
      .invoke_virtual("h", "hd", "java.net.URLStreamHandler", "hashCode", {"@this"})
      .ret("h");

  auto handler = pb.add_class("java.net.URLStreamHandler");
  handler.method("hashCode")
      .param("java.net.URL")
      .returns("int")
      .invoke_virtual("addr", "@this", "java.net.URLStreamHandler", "getHostAddress", {"@p1"})
      .const_int("h", 0)
      .ret("h");
  handler.method("getHostAddress")
      .param("java.net.URL")
      .returns("java.net.InetAddress")
      .field_load("host", "@p1", "host")
      .invoke_static("a", "java.net.InetAddress", "getByName", {"host"})
      .ret("a");

  jar::Archive archive;
  archive.meta.name = "urldns-gadget";
  archive.meta.version = "1.0";
  archive.classes = pb.build().classes();
  return archive;
}

}  // namespace

int main(int argc, char** argv) {
  // Link the gadget jar against the simulated JDK (which provides
  // java.util.HashMap with its readObject -> hash -> hashCode pivot).
  jir::Program program = jar::link({corpus::jdk_base_archive(), urldns_jar()});

  cpg::Cpg cpg = cpg::build_cpg(program);
  std::printf("URLDNS CPG: %zu classes, %zu methods, %zu edges\n", cpg.stats.class_nodes,
              cpg.stats.method_nodes, cpg.stats.relationship_edges);

  // Every read goes through the frozen CSR copy of the graph.
  auto frozen = graph::FrozenGraph::freeze(cpg.db);
  if (!frozen.ok()) {
    std::fprintf(stderr, "graph freeze failed: %s\n", frozen.error().message.c_str());
    return 1;
  }
  const graph::FrozenGraph& frame = frozen.value();

  // Persist the frame the way Tabby keeps its Neo4j store around for re-query.
  const char* path = argc > 1 ? argv[1] : "/tmp/urldns.tfzn";
  bool saved = frame.save(path).ok();

  // Show the ALIAS neighbourhood of Object.hashCode (Figure 4's key edge).
  auto hits = frame.find_nodes(cpg::kMethodLabel, cpg::kPropSignature,
                               graph::Value{std::string("java.lang.Object#hashCode/0")});
  auto alias = frame.edge_type_id(cpg::kAliasEdge);
  if (!hits.empty() && alias.has_value()) {
    std::printf("\noverrides linked to java.lang.Object#hashCode/0 by ALIAS edges:\n");
    graph::AdjacencyView overrides = frame.in_edges_typed_view(hits[0], *alias);
    for (std::uint32_t node : overrides.nbr) {
      std::printf("  %s\n", std::string(frame.node_prop_string(node, cpg::kPropSignature)).c_str());
    }
  }

  finder::GadgetChainFinder finder(frame);
  finder::FinderReport report = finder.find_all();
  std::printf("\n%zu gadget chain(s) found in %.3f s:\n\n", report.chains.size(),
              report.search_seconds);
  for (const finder::GadgetChain& chain : report.chains) {
    std::printf("%s\n", chain.to_string().c_str());
  }

  if (saved) {
    std::printf("graph frame written to %s (reload with graph::FrozenGraph::map_file)\n\n", path);
  }

  // VM verification: HashMap{key = URL{host, handler}}.
  runtime::ObjectGraphSpec spec;
  spec.objects["map"] = runtime::ObjectSpec{"java.util.HashMap", {{"key", runtime::Ref{"url"}}}, {}};
  spec.objects["url"] = runtime::ObjectSpec{
      "java.net.URL",
      {{"host", std::string("x.attacker.example")}, {"handler", runtime::Ref{"h"}}},
      {}};
  spec.objects["h"] = runtime::ObjectSpec{"java.net.URLStreamHandler", {}, {}};
  spec.root = "map";

  jir::Hierarchy hierarchy(program);
  runtime::Interpreter vm(program, hierarchy);
  runtime::ExecutionResult result = vm.deserialize(runtime::instantiate(spec));
  std::printf("VM verification: DNS lookup %s\n",
              result.attack_succeeded("java.net.InetAddress#getByName/1") ? "TRIGGERED"
                                                                          : "not triggered");
  return result.attack_succeeded() ? 0 : 1;
}
