// Reproduces Table X (RQ3): gadget chain detection across the five
// development-environment scenes, and dumps the Spring JNDI chains of
// Table XI found by the traversal.
#include <cstdio>
#include <cstdlib>

#include "corpus/scenes.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace tabby;

int main() {
  std::printf("Table X — development-environment detection (RQ3)\n\n");

  util::Table table({"Scene", "Version", "Jar file count", "Code size(MB)", "Result count",
                     "Effective chains", "FPR%", "Search time(s)"});

  std::size_t total_result = 0;
  std::size_t total_effective = 0;
  for (const std::string& name : corpus::scene_names()) {
    corpus::Scene scene = corpus::build_scene(name);
    evalkit::SceneRow row = evalkit::evaluate_scene(scene);
    total_result += row.result;
    total_effective += row.effective;
    table.add_row({row.scene, row.version, std::to_string(row.jar_count),
                   util::format_double(row.code_mb, 1), std::to_string(row.result),
                   std::to_string(row.effective), util::format_double(row.fpr, 1),
                   util::format_double(row.search_seconds, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper rows: Spring 10/7 30.0%%, JDK8 13/10 23.1%%, Tomcat 4/3 25%%, Jetty 6/4 "
              "33.3%%, Dubbo 5/3 40%%\n");
  std::printf("scene totals: %zu results, %zu effective\n\n", total_result, total_effective);

  // --- Table XI: the Spring JNDI chains ------------------------------------
  std::printf("Table XI — JNDI gadget chains found in the Spring scene\n\n");
  corpus::Scene spring = corpus::build_scene("Spring");
  auto cpg = graph::FrozenGraph::freeze(cpg::build_cpg(spring.link()).db);
  if (!cpg.ok()) std::abort();
  finder::FinderReport report = finder::GadgetChainFinder(cpg.value()).find_all();
  for (const finder::GadgetChain& chain : report.chains) {
    if (chain.sink_signature() != "javax.naming.Context#lookup/1") continue;
    bool springframework = false;
    for (const std::string& sig : chain.signatures) {
      if (util::contains(sig, "springframework")) springframework = true;
    }
    if (!springframework) continue;
    std::printf("%s\n", chain.to_string().c_str());
  }
  return 0;
}
