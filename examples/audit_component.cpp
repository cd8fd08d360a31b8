// Full audit of one Table IX component: run Tabby and both baseline tools,
// classify every reported chain against the planted ground truth, and verify
// the ground truth in the runtime VM — one row of the paper's comparison,
// reproduced end to end.
//
// Run:  ./audit_component ["commons-collections(3.2.1)"]
#include <cstdio>

#include "corpus/components.hpp"
#include "evalkit/evalkit.hpp"
#include "pipeline/engine.hpp"
#include "util/strings.hpp"

using namespace tabby;

int main(int argc, char** argv) {
  std::string name = argc > 1 ? argv[1] : "commons-collections(3.2.1)";
  corpus::Component component;
  try {
    component = corpus::build_component(name);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\navailable components:\n", e.what());
    for (const std::string& n : corpus::component_names()) {
      std::fprintf(stderr, "  %s\n", n.c_str());
    }
    return 1;
  }

  std::printf("component: %s\n", component.name.c_str());
  std::printf("  planted ground truth: %zu real chain(s) (%zu known in dataset), %zu fake "
              "structure(s)\n\n",
              component.truths.size(), component.known_in_dataset(), component.fakes.size());

  jir::Program program = component.link();
  std::printf("linked program: %zu classes, %zu methods\n", program.class_count(),
              program.method_count());

  // Tabby's own view of the component, through the session engine (the
  // supported embedding surface).
  pipeline::Engine engine;
  auto opened = engine.open(program);
  if (!opened.ok()) {
    std::fprintf(stderr, "error: %s\n", opened.error().to_string().c_str());
    return 1;
  }
  const pipeline::AnalysisPtr& analysis = opened.value();
  const cpg::CpgStats& stats = analysis->outcome().stats;
  std::printf("CPG: %zu classes, %zu methods, %zu edges, %zu sinks, %zu call sites pruned\n\n",
              stats.class_nodes, stats.method_nodes, stats.relationship_edges,
              stats.sink_methods, stats.pruned_call_sites);

  for (evalkit::Tool tool : {evalkit::Tool::GadgetInspector, evalkit::Tool::Tabby,
                             evalkit::Tool::Serianalyzer}) {
    evalkit::ToolRun run = evalkit::run_tool(tool, program);
    evalkit::Classification c = evalkit::classify(run.chains, component.truths);
    std::printf("%-16s result=%zu fake=%zu known=%zu unknown=%zu  FPR=%s%%  FNR=%s%%  (%.2fs)%s\n",
                std::string(evalkit::tool_name(tool)).c_str(), c.result, c.fake, c.known,
                c.unknown, util::format_double(evalkit::fpr_percent(c), 1).c_str(),
                util::format_double(evalkit::fnr_percent(c, component.known_in_dataset()), 1)
                    .c_str(),
                run.seconds, run.exploded ? "  [X: did not terminate]" : "");
    if (tool == evalkit::Tool::Tabby) {
      for (const finder::GadgetChain& chain : run.chains) {
        std::printf("\n%s", chain.to_string().c_str());
      }
      std::printf("\n");
    }
  }

  evalkit::VerificationOutcome outcome =
      evalkit::verify_ground_truth(program, component.truths, component.fakes);
  std::printf("\nVM ground-truth verification: %zu/%zu real chains fired, %zu/%zu fakes "
              "refuted%s\n",
              outcome.truths_effective, outcome.truths_checked, outcome.fakes_refuted,
              outcome.fakes_checked, outcome.all_good() ? "  [OK]" : "  [MISMATCH]");
  for (const std::string& failure : outcome.failures) {
    std::printf("  !! %s\n", failure.c_str());
  }
  return outcome.all_good() ? 0 : 1;
}
