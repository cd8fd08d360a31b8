#include "evalkit/evalkit.hpp"

#include <algorithm>
#include <stdexcept>

#include "baseline/baselines.hpp"
#include "cpg/builder.hpp"
#include "runtime/vm.hpp"
#include "util/timer.hpp"

namespace tabby::evalkit {

std::string_view tool_name(Tool tool) {
  switch (tool) {
    case Tool::Tabby: return "Tabby";
    case Tool::GadgetInspector: return "GadgetInspector";
    case Tool::Serianalyzer: return "Serianalyzer";
  }
  return "?";
}

namespace {

/// The program's CPG, frozen for the finder.
graph::FrozenGraph frozen_cpg(const jir::Program& program) {
  auto frozen = graph::FrozenGraph::freeze(cpg::build_cpg(program).db);
  if (!frozen.ok()) throw std::runtime_error("graph freeze failed: " + frozen.error().message);
  return std::move(frozen.value());
}

}  // namespace

ToolRun run_tool(Tool tool, const jir::Program& program, const std::string& package_filter) {
  ToolRun run;
  util::Stopwatch watch;
  switch (tool) {
    case Tool::Tabby: {
      graph::FrozenGraph cpg = frozen_cpg(program);
      finder::FinderReport report = finder::GadgetChainFinder(cpg).find_all();
      run.chains = std::move(report.chains);
      run.exploded = report.budget_exhausted;
      break;
    }
    case Tool::GadgetInspector: {
      baseline::BaselineReport report = baseline::run_gadget_inspector(program);
      run.chains = std::move(report.chains);
      run.exploded = report.exploded;
      break;
    }
    case Tool::Serianalyzer: {
      baseline::SerianalyzerOptions options;
      options.package_filter = package_filter;
      baseline::BaselineReport report = baseline::run_serianalyzer(program, options);
      run.chains = std::move(report.chains);
      run.exploded = report.exploded;
      break;
    }
  }
  run.seconds = watch.elapsed_seconds();
  return run;
}

namespace {

bool matches(const finder::GadgetChain& chain, const corpus::GroundTruthChain& truth) {
  if (chain.source_signature() != truth.source_signature) return false;
  if (chain.sink_signature() != truth.sink_signature) return false;
  for (const std::string& witness : truth.witnesses) {
    if (std::find(chain.signatures.begin(), chain.signatures.end(), witness) ==
        chain.signatures.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

Classification classify(const std::vector<finder::GadgetChain>& chains,
                        const std::vector<corpus::GroundTruthChain>& truths) {
  Classification c;
  c.result = chains.size();
  std::vector<bool> truth_matched(truths.size(), false);
  for (const finder::GadgetChain& chain : chains) {
    bool matched = false;
    for (std::size_t i = 0; i < truths.size(); ++i) {
      if (truth_matched[i] || !matches(chain, truths[i])) continue;
      truth_matched[i] = true;
      matched = true;
      if (truths[i].known_in_dataset) {
        ++c.known;
      } else {
        ++c.unknown;
      }
      break;
    }
    if (!matched) ++c.fake;
  }
  return c;
}

double fpr_percent(const Classification& c) {
  // The paper's Table IX writes 0 or 100 for empty result sets depending on
  // whether anything was expected; with result == 0 there are no false
  // positives, so report 0.
  if (c.result == 0) return 0.0;
  return 100.0 * static_cast<double>(c.fake) / static_cast<double>(c.result);
}

double fnr_percent(const Classification& c, std::size_t known_in_dataset) {
  if (known_in_dataset == 0) return 0.0;
  return 100.0 *
         static_cast<double>(known_in_dataset - std::min(c.known, known_in_dataset)) /
         static_cast<double>(known_in_dataset);
}

namespace {

std::string package_of_component(const corpus::Component& component) {
  // Every planted class shares the leading package of the first truth/fake.
  std::string sig;
  if (!component.truths.empty()) {
    sig = component.truths.front().source_signature;
  } else if (!component.fakes.empty()) {
    sig = component.fakes.front().source_signature;
  }
  std::size_t hash_pos = sig.find('#');
  if (hash_pos == std::string::npos) return "";
  std::string cls = sig.substr(0, hash_pos);
  std::size_t last_dot = cls.rfind('.');
  return last_dot == std::string::npos ? cls : cls.substr(0, last_dot);
}

ComparisonRow::PerTool evaluate_tool(Tool tool, const corpus::Component& component,
                                     const jir::Program& program,
                                     const std::string& package_filter) {
  ToolRun run = run_tool(tool, program, package_filter);
  Classification c = classify(run.chains, component.truths);
  ComparisonRow::PerTool out;
  out.result = c.result;
  out.fake = c.fake;
  out.known = c.known;
  out.unknown = c.unknown;
  out.fpr = fpr_percent(c);
  out.fnr = fnr_percent(c, component.known_in_dataset());
  out.seconds = run.seconds;
  out.exploded = run.exploded;
  return out;
}

}  // namespace

ComparisonRow evaluate_component(const corpus::Component& component) {
  jir::Program program = component.link();
  ComparisonRow row;
  row.component = component.name;
  row.known_in_dataset = component.known_in_dataset();
  std::string pkg = package_of_component(component);
  row.gi = evaluate_tool(Tool::GadgetInspector, component, program, pkg);
  row.tb = evaluate_tool(Tool::Tabby, component, program, pkg);
  row.sl = evaluate_tool(Tool::Serianalyzer, component, program, pkg);
  return row;
}

SceneRow evaluate_scene(const corpus::Scene& scene) {
  SceneRow row;
  row.scene = scene.name;
  row.version = scene.version;
  row.jar_count = scene.jar_count();
  row.code_mb = static_cast<double>(scene.total_bytes()) / (1024.0 * 1024.0);

  graph::FrozenGraph cpg = frozen_cpg(scene.link());
  util::Stopwatch watch;
  finder::FinderReport report = finder::GadgetChainFinder(cpg).find_all();
  row.search_seconds = watch.elapsed_seconds();

  Classification c = classify(report.chains, scene.truths);
  row.result = c.result;
  row.effective = c.known + c.unknown;
  row.fpr = fpr_percent(c);
  return row;
}

VerificationOutcome verify_ground_truth(const jir::Program& program,
                                        const std::vector<corpus::GroundTruthChain>& truths,
                                        const std::vector<corpus::FakeStructure>& fakes) {
  VerificationOutcome outcome;
  jir::Hierarchy hierarchy(program);
  runtime::Interpreter vm(program, hierarchy);

  for (const corpus::GroundTruthChain& truth : truths) {
    if (truth.requires_reflection) continue;  // invisible by design
    ++outcome.truths_checked;
    runtime::ObjectPtr root = runtime::instantiate(truth.recipe);
    runtime::ExecutionResult result = vm.deserialize(root);
    if (result.attack_succeeded(truth.sink_signature)) {
      ++outcome.truths_effective;
    } else {
      outcome.failures.push_back("truth " + truth.id + " did not fire its sink (" +
                                 result.fault + ")");
    }
  }
  for (const corpus::FakeStructure& fake : fakes) {
    ++outcome.fakes_checked;
    runtime::ObjectPtr root = runtime::instantiate(fake.attempt_recipe);
    runtime::ExecutionResult result = vm.deserialize(root);
    if (!result.attack_succeeded()) {
      ++outcome.fakes_refuted;
    } else {
      outcome.failures.push_back("fake " + fake.id + " unexpectedly fired a sink");
    }
  }
  return outcome;
}

}  // namespace tabby::evalkit
