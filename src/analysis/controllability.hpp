// Algorithm 1 of the paper: the interprocedural, field-sensitive
// controllability (points-to) analysis. For every method it derives
//   - the Action summary (how the method transforms the controllability of
//     its inputs: final parameter states, receiver fields, return value) and
//   - one Polluted_Position (PP) vector per call site in the body.
// Summaries are cached ("the Action property also serves as a caching
// mechanism") and composed across calls with Formulas 2 (calc) and
// 3 (correct). Recursive cycles bottom out at the identity summary.
#pragma once

#include <optional>
#include <vector>

#include "analysis/domain.hpp"
#include "jir/hierarchy.hpp"
#include "jir/model.hpp"

namespace tabby::util {
class Executor;
}

namespace tabby::analysis {

struct AnalysisOptions {
  /// When false, bodies of callees are ignored and every call uses the
  /// identity summary — the imprecise mode the paper attributes to
  /// GadgetInspector/Serianalyzer ("default to it not changing"). Ablation
  /// benches flip this.
  bool interprocedural = true;
  /// Treat the return value of a bodyless/phantom callee as controllable
  /// whenever the receiver or any argument is (the permissive default of the
  /// compared tools). Tabby's default is the conservative `unknown`.
  bool unknown_return_controllable = false;
};

/// Stable digest of every field that can change an analysis result. Folded
/// into the incremental cache's snapshot key so flipping any option (e.g. an
/// ablation run) invalidates snapshots computed under different settings.
std::uint64_t options_fingerprint(const AnalysisOptions& options);

/// One call site inside a method body, with its computed PP.
struct CallSite {
  std::size_t stmt_index = 0;
  const jir::MethodRef* declared = nullptr;  // the invoke's callee, in the program
  jir::InvokeKind kind = jir::InvokeKind::Virtual;
  std::optional<jir::MethodId> resolved;  // static resolution target
  PollutedPosition pp;                    // [0]=receiver, 1..n = arguments
};

struct MethodSummary {
  Action action;
  std::vector<CallSite> call_sites;
};

/// Scheduling telemetry of a precompute() run (see docs/CONCURRENCY.md).
struct PrecomputeStats {
  /// Number of parallel waves the acyclic portion of the call graph was
  /// scheduled into (the longest callee-chain among wave-scheduled methods).
  std::size_t waves = 0;
  /// Methods computed inside parallel waves.
  std::size_t wave_methods = 0;
  /// Methods that are members of a multi-method recursion cycle. Their
  /// summaries depend on the order the serial algorithm first entered the
  /// cycle, so they are delegated to the demand-driven serial path.
  std::size_t cyclic_methods = 0;
  /// Methods left to the serial path: cycle members plus every transitive
  /// caller of one (their values depend on the cycle's values).
  std::size_t serial_methods = 0;
};

struct Call;

class ControllabilityAnalysis {
 public:
  /// Numbers the program's methods. Its field names are numbered before the
  /// first summary is computed, from the whole program, so the ids are the
  /// same whichever path computes a summary. Calls resolve against the
  /// program alone; the hierarchy is not read.
  ControllabilityAnalysis(const jir::Program& program, const jir::Hierarchy& hierarchy,
                          AnalysisOptions options = {});
  ~ControllabilityAnalysis();

  /// Analysis result for one method; computed on first request, cached after.
  const MethodSummary& summary(jir::MethodId id) { return summary_at(dense(id)); }

  /// Computes every method summary ahead of demand, fanning out across
  /// `executor` (nullptr runs the identical schedule inline). The call graph
  /// is condensed into SCCs; acyclic methods are scheduled bottom-up in
  /// dependency waves — a wave only starts once every callee summary from
  /// earlier waves is published in the summary table, so workers read
  /// summaries without any locking. Directly self-recursive methods bottom
  /// out at the identity summary exactly like the serial algorithm.
  /// Methods involved in (or depending on) multi-method cycles fall back to
  /// the demand-driven serial path in all_methods() order, which is the
  /// historical compute order — making the cache contents, and everything
  /// built from them, bit-identical to a pure serial run at any job count.
  void precompute(util::Executor* executor);

  const PrecomputeStats& precompute_stats() const { return precompute_stats_; }

  /// Cache lookup without computing (throws if absent). Requires the summary
  /// to already be cached — precompute() or an earlier summary() call. Pure
  /// read: safe to call from concurrent threads, unlike summary().
  const MethodSummary& cached_summary(jir::MethodId id) const;

  /// The names behind every FieldId in this analysis's summaries.
  const FieldNames& field_names() const { return fields_; }

  /// Summaries computed so far (each method at most once).
  std::size_t analyzed_count() const { return analyzed_; }

 private:
  /// Where a method's summary stands in summaries_.
  enum class State : std::uint8_t { Absent, InProgress, Bottom, Done };

  /// Dense method numbering: all_methods() order.
  std::uint32_t dense(jir::MethodId id) const {
    return class_offset_[id.class_index] + id.method_index;
  }
  const MethodSummary& summary_at(std::uint32_t index);
  MethodSummary compute(std::uint32_t index);
  /// Numbers the field names of every method body into fields_, once;
  /// fans out across `executor` (nullptr: serial).
  void name_fields(util::Executor* executor);

  const jir::Program* program_;
  AnalysisOptions options_;
  FieldNames fields_;
  bool fields_named_ = false;
  std::vector<std::uint32_t> class_offset_;
  std::vector<jir::MethodId> methods_;       // by dense index
  std::vector<MethodSummary> summaries_;     // by dense index
  std::vector<State> states_;                // by dense index
  std::vector<std::vector<Call>> calls_;     // resolved ahead by precompute(), until lowered
  std::size_t analyzed_ = 0;
  PrecomputeStats precompute_stats_;
};

}  // namespace tabby::analysis
