// Reproduces Table IX (RQ2): the three-tool comparison over the 26
// ysoserial/marshalsec component models. Prints the same columns as the
// paper (Result / Fake / Known / Unknown per tool, FPR, FNR, time), the
// totals row, and a VM ground-truth verification summary (the automated
// equivalent of the paper's hand-written PoCs). "X" marks a Serianalyzer
// run that exhausted its budget (the paper's non-terminating cells).
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "evalkit/evalkit.hpp"
#include "finder/finder.hpp"
#include "finder/verify.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace tabby;

namespace {

std::string fmt_or_x(std::size_t value, bool exploded) {
  return exploded ? "X" : std::to_string(value);
}

std::string pct_or_x(double value, bool exploded) {
  return exploded ? "X" : util::format_double(value, 1);
}

}  // namespace

int main() {
  std::printf("Table IX — comparison with state-of-the-art tools (RQ2)\n");
  std::printf("GI = GadgetInspector-like baseline, TB = Tabby, SL = Serianalyzer-like baseline\n\n");

  util::Table table({"Component", "Known in dataset", "GI res", "TB res", "SL res", "GI fake",
                     "TB fake", "SL fake", "GI known", "TB known", "SL known", "GI unk", "TB unk",
                     "SL unk", "GI FPR%", "TB FPR%", "SL FPR%", "GI FNR%", "TB FNR%", "SL FNR%",
                     "TB time(s)"});

  struct Totals {
    std::size_t result = 0, fake = 0, known = 0, unknown = 0;
    double fpr_sum = 0.0, fnr_sum = 0.0;
    int fpr_rows = 0, fnr_rows = 0;
  } gi_total, tb_total, sl_total;

  std::size_t dataset_total = 0;
  std::size_t truths_checked = 0, truths_ok = 0, fakes_checked = 0, fakes_ok = 0;
  // Verification throughput: the supervised re-validation post-pass
  // (`--verify`) over every statically reported chain, in-process serial —
  // the per-chain cost the crash-isolated mode amortises across workers.
  std::size_t verify_chains_total = 0, verify_effective = 0, verify_refuted = 0,
              verify_unconfirmed = 0, verify_vm_steps = 0;
  double verify_seconds = 0.0;

  for (const std::string& name : corpus::component_names()) {
    corpus::Component component = corpus::build_component(name);
    evalkit::ComparisonRow row = evalkit::evaluate_component(component);
    dataset_total += row.known_in_dataset;

    auto fold = [](Totals& t, const evalkit::ComparisonRow::PerTool& per) {
      if (!per.exploded) {
        t.result += per.result;
        t.fake += per.fake;
        t.known += per.known;
        t.unknown += per.unknown;
        if (per.result > 0) {
          t.fpr_sum += per.fpr;
          ++t.fpr_rows;
        }
      }
      t.fnr_sum += per.fnr;
      ++t.fnr_rows;
    };
    fold(gi_total, row.gi);
    fold(tb_total, row.tb);
    fold(sl_total, row.sl);

    table.add_row({row.component, std::to_string(row.known_in_dataset),
                   fmt_or_x(row.gi.result, row.gi.exploded), std::to_string(row.tb.result),
                   fmt_or_x(row.sl.result, row.sl.exploded),
                   fmt_or_x(row.gi.fake, row.gi.exploded), std::to_string(row.tb.fake),
                   fmt_or_x(row.sl.fake, row.sl.exploded),
                   fmt_or_x(row.gi.known, row.gi.exploded), std::to_string(row.tb.known),
                   fmt_or_x(row.sl.known, row.sl.exploded),
                   fmt_or_x(row.gi.unknown, row.gi.exploded), std::to_string(row.tb.unknown),
                   fmt_or_x(row.sl.unknown, row.sl.exploded),
                   pct_or_x(row.gi.fpr, row.gi.exploded), util::format_double(row.tb.fpr, 1),
                   pct_or_x(row.sl.fpr, row.sl.exploded),
                   pct_or_x(row.gi.fnr, row.gi.exploded), util::format_double(row.tb.fnr, 1),
                   pct_or_x(row.sl.fnr, row.sl.exploded),
                   util::format_double(row.tb.seconds, 3)});

    // Ground-truth verification (the PoC step).
    jir::Program program = component.link();
    evalkit::VerificationOutcome outcome =
        evalkit::verify_ground_truth(program, component.truths, component.fakes);
    truths_checked += outcome.truths_checked;
    truths_ok += outcome.truths_effective;
    fakes_checked += outcome.fakes_checked;
    fakes_ok += outcome.fakes_refuted;

    // Verification throughput over the reported (not ground-truth) chains.
    auto cpg = graph::FrozenGraph::freeze(cpg::build_cpg(program, {}).db);
    if (!cpg.ok()) std::abort();
    std::vector<finder::GadgetChain> chains =
        finder::GadgetChainFinder(cpg.value(), {}).find_all().chains;
    finder::AliasView aliases(cpg.value());
    auto start = std::chrono::steady_clock::now();
    finder::VerifyReport verified =
        finder::verify_chains(program, aliases, chains, finder::VerifyOptions{});
    verify_seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    verify_chains_total += chains.size();
    verify_effective += verified.effective;
    verify_refuted += verified.refuted;
    verify_unconfirmed += verified.unconfirmed;
    verify_vm_steps += verified.steps_total;
  }

  table.add_row({"Total", std::to_string(dataset_total), std::to_string(gi_total.result),
                 std::to_string(tb_total.result), std::to_string(sl_total.result),
                 std::to_string(gi_total.fake), std::to_string(tb_total.fake),
                 std::to_string(sl_total.fake), std::to_string(gi_total.known),
                 std::to_string(tb_total.known), std::to_string(sl_total.known),
                 std::to_string(gi_total.unknown), std::to_string(tb_total.unknown),
                 std::to_string(sl_total.unknown),
                 util::format_double(gi_total.fpr_sum / std::max(1, gi_total.fpr_rows), 1),
                 util::format_double(tb_total.fpr_sum / std::max(1, tb_total.fpr_rows), 1),
                 util::format_double(sl_total.fpr_sum / std::max(1, sl_total.fpr_rows), 1),
                 util::format_double(gi_total.fnr_sum / std::max(1, gi_total.fnr_rows), 1),
                 util::format_double(tb_total.fnr_sum / std::max(1, tb_total.fnr_rows), 1),
                 util::format_double(sl_total.fnr_sum / std::max(1, sl_total.fnr_rows), 1), "-"});

  std::printf("%s\n", table.render().c_str());
  std::printf("paper totals for comparison: dataset 38; GI 129/120/5/4, TB 79/26/26/27, SL "
              "593/585/7/1; avg FPR GI 93.0 TB 32.9 SL 98.6; avg FNR GI 86.8 TB 31.6 SL 81.6\n\n");
  std::printf("VM ground-truth verification: %zu/%zu real chains fired their sink, %zu/%zu fake "
              "structures refuted\n",
              truths_ok, truths_checked, fakes_ok, fakes_checked);
  double chains_per_s = verify_seconds > 0.0
                            ? static_cast<double>(verify_chains_total) / verify_seconds
                            : 0.0;
  std::printf("runtime re-validation (--verify): %zu reported chain(s) in %s s (%s chains/s, "
              "%zu VM steps): %zu EFFECTIVE, %zu REFUTED, %zu UNCONFIRMED\n",
              verify_chains_total, util::format_double(verify_seconds, 3).c_str(),
              util::format_double(chains_per_s, 1).c_str(), verify_vm_steps, verify_effective,
              verify_refuted, verify_unconfirmed);
  if (verify_chains_total > 0) {
    // The FPR effect: the share of statically reported chains the VM refutes
    // — residual false positives dynamic confirmation removes from triage.
    std::printf("  FPR effect: %s%% of reported chains refuted by the VM\n",
                util::format_double(100.0 * static_cast<double>(verify_refuted) /
                                        static_cast<double>(verify_chains_total),
                                    1).c_str());
  }
  return (truths_ok == truths_checked && fakes_ok == fakes_checked) ? 0 : 1;
}
