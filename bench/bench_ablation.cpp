// Ablation bench: quantifies each design choice DESIGN.md calls out by
// rerunning Tabby with one mechanism disabled at a time on representative
// components. Shows why the paper's pieces exist:
//   - PCG pruning (all-∞ Polluted_Position): path-explosion relief,
//   - ALIAS edges: polymorphic chains are unreachable without them,
//   - interprocedural Action summaries: rejecting sanitised data flows,
//   - Trigger_Condition checking: rejecting uncontrollable sink arguments,
//   - bidirectional ALIAS traversal: the permissive published-plugin mode.
#include <cstdio>
#include <cstdlib>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace tabby;

namespace {

struct Variant {
  const char* name;
  cpg::CpgOptions cpg;
  finder::FinderOptions finder;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"full (paper config)", {}, {}});

  Variant no_prune{"no PCG pruning", {}, {}};
  no_prune.cpg.prune_uncontrollable_calls = false;
  out.push_back(no_prune);

  Variant no_alias{"no ALIAS edges", {}, {}};
  no_alias.cpg.build_alias_edges = false;
  out.push_back(no_alias);

  Variant superclass_alias{"superclass-only aliases (GI polymorphism)", {}, {}};
  superclass_alias.cpg.alias_superclass_only = true;
  out.push_back(superclass_alias);

  Variant intraproc{"no interprocedural Action", {}, {}};
  intraproc.cpg.analysis.interprocedural = false;
  intraproc.cpg.analysis.unknown_return_controllable = true;
  out.push_back(intraproc);

  Variant no_tc{"no Trigger_Condition check", {}, {}};
  no_tc.finder.check_trigger_conditions = true;
  no_tc.finder.check_trigger_conditions = false;
  out.push_back(no_tc);

  Variant bidi{"bidirectional ALIAS traversal", {}, {}};
  bidi.finder.alias_bidirectional = true;
  out.push_back(bidi);

  // Pruning and TC-checking are redundant defences individually; disabling
  // BOTH is the Serianalyzer failure mode (explodes on the const maze).
  Variant sl_mode{"no pruning + no TC (Serianalyzer mode)", {}, {}};
  sl_mode.cpg.prune_uncontrollable_calls = false;
  sl_mode.finder.check_trigger_conditions = false;
  sl_mode.finder.max_expansions = 400'000;
  out.push_back(sl_mode);
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation — Tabby with one mechanism disabled at a time\n\n");

  const char* components[] = {"commons-collections(3.2.1)", "Clojure", "spring-aop"};
  for (const char* name : components) {
    corpus::Component component = corpus::build_component(name);
    jir::Program program = component.link();
    std::printf("component: %s (%zu real chains planted, %zu known in dataset)\n", name,
                component.truths.size(), component.known_in_dataset());

    util::Table table({"variant", "result", "fake", "known", "unknown", "expansions",
                       "exhausted", "time(s)"});
    for (const Variant& variant : variants()) {
      util::Stopwatch watch;
      auto cpg = graph::FrozenGraph::freeze(cpg::build_cpg(program, variant.cpg).db);
      if (!cpg.ok()) std::abort();
      finder::FinderReport report =
          finder::GadgetChainFinder(cpg.value(), variant.finder).find_all();
      double seconds = watch.elapsed_seconds();
      evalkit::Classification c = evalkit::classify(report.chains, component.truths);
      table.add_row({variant.name, std::to_string(c.result), std::to_string(c.fake),
                     std::to_string(c.known), std::to_string(c.unknown),
                     std::to_string(report.expansions),
                     report.budget_exhausted ? "yes" : "no", util::format_double(seconds, 3)});
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("reading guide: 'no ALIAS edges' loses the interface-dispatch chains; 'no "
              "interprocedural Action' admits the sanitiser fakes; 'no Trigger_Condition check' "
              "admits the const-web fakes; 'no PCG pruning' + 'no TC check' together is the "
              "Serianalyzer failure mode.\n");
  return 0;
}
