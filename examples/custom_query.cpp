// The RQ4 workflow: build a CPG once, then iterate with ad-hoc queries —
// "security researchers can perform heuristic searches based on the results
// of previous queries" (§II-B). Uses the commons-collections component model
// and the Cypher-subset language.
//
// Run:  ./custom_query ["MATCH ... RETURN ..."]
#include <cstdio>

#include "corpus/components.hpp"
#include "pipeline/engine.hpp"

using namespace tabby;

int main(int argc, char** argv) {
  corpus::Component component = corpus::build_component("commons-collections(3.2.1)");
  jir::Program program = component.link();
  // "Build once, query many" IS the engine's shape: open the analysis one
  // time, keep the handle, iterate. (`tabby serve` does exactly this across
  // processes; here the session lives inside one.)
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto opened = engine.open(program, ctx);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.error().to_string().c_str());
    return 1;
  }
  const pipeline::AnalysisPtr& analysis = opened.value();
  const cpg::CpgStats& stats = analysis->outcome().stats;
  std::printf("CPG for %s: %zu classes, %zu methods, %zu edges\n\n", component.name.c_str(),
              stats.class_nodes, stats.method_nodes, stats.relationship_edges);

  auto run = [&](const char* text) {
    std::printf("> %s\n", text);
    auto result = analysis->query(text, ctx);
    if (!result.ok()) {
      std::printf("  error: %s\n\n", result.error().to_string().c_str());
      return;
    }
    std::printf("%s\n", analysis->render(result.value()).c_str());
  };

  if (argc > 1) {
    run(argv[1]);
    return 0;
  }

  // A typical audit session, narrowing step by step.
  run("MATCH (m:Method {IS_SINK: true}) RETURN m.SIGNATURE, m.SINK_TYPE");
  run("MATCH (c:Class {IS_SERIALIZABLE: true})-[:HAS]->(m:Method {IS_SOURCE: true}) "
      "RETURN m.SIGNATURE LIMIT 8");
  run("MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.SIGNATURE, s.NAME LIMIT 8");
  run("MATCH (m:Method)-[:CALL*1..4]->(s:Method {NAME: \"exec\"}) "
      "WHERE m.IS_SOURCE = true RETURN m.SIGNATURE LIMIT 5");
  run("MATCH p = (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
      "RETURN p LIMIT 3");
  return 0;
}
