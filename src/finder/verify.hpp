// Supervised runtime re-validation — the verify post-pass. Statically-found
// chains are replayed in the src/runtime mini-VM (the dynamic-confirmation
// step GCMiner/ODDFuzz argue cuts residual false positives from conditional
// guards), as parallel per-chain shards with per-chain step/wall-clock
// budgets, and — under `--verify-workers N` — inside the src/dist
// fork/socketpair supervision so a VM crash or hang on one chain demotes
// that chain instead of killing the coordinator.
//
// The boolean verdict becomes a structured taxonomy:
//   EFFECTIVE            the sink fired with its Trigger_Condition satisfied
//   REFUTED              concrete negative evidence (guard not taken, NPE,
//                        exception, or the chain cannot even be instantiated)
//   UNCONFIRMED(reason)  the VM could not decide: budget | timeout | crash |
//                        fault — the chain is KEPT, never silently dropped,
//                        and the run degrades (exit 3; --strict: 1).
// Verdicts are merged in chain order, so output is byte-identical at any
// --jobs / --verify-workers count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist.hpp"
#include "finder/finder.hpp"
#include "finder/payload.hpp"
#include "util/deadline.hpp"

namespace tabby::util {
class Executor;
}

namespace tabby::finder {

enum class Verdict : std::uint8_t { Effective, Refuted, Unconfirmed };

/// Why an Unconfirmed chain could not be decided (None for the other two
/// verdicts). The machine-readable reason demanded by the exit-code contract.
enum class UnconfirmedReason : std::uint8_t { None, Budget, Timeout, Crash, Fault };

const char* to_string(Verdict verdict);
const char* to_string(UnconfirmedReason reason);

struct ChainVerdict {
  Verdict verdict = Verdict::Unconfirmed;
  UnconfirmedReason reason = UnconfirmedReason::Fault;
  /// Human-readable detail: the VM fault string, a synthesis caveat, or the
  /// dist coordinator's rendered worker error. Empty for clean verdicts.
  std::string detail;
  /// VM steps the re-validation consumed (0 when the shard never ran).
  std::size_t steps = 0;
};

/// "EFFECTIVE" / "REFUTED" / "UNCONFIRMED(budget)" — the single rendering
/// shared by the CLI and the serve daemon.
std::string verdict_line(const ChainVerdict& verdict);

/// The canonical degraded-mode line for one unconfirmed chain, a sibling of
/// degraded_line(PartialSink):
///   "degraded: [verify-crash] <source> -> <sink>: <detail>; chain kept as
///    UNCONFIRMED"
std::string degraded_line(const GadgetChain& chain, const ChainVerdict& verdict);

struct VerifyOptions {
  /// Whole-stage wall-clock budget; chains not started before expiry become
  /// UNCONFIRMED(timeout) without executing. Each chain also runs under the
  /// VM's own step and call-depth budgets (runtime::VmOptions' defaults), so
  /// one adversarial chain cannot starve the rest.
  util::Deadline deadline;
  /// In-process parallelism (verify_workers == 0): per-chain shards on this
  /// executor, merged in chain order. Borrowed, may be null (serial).
  util::Executor* executor = nullptr;
  /// Crash isolation: dist.workers > 0 forks a supervised verifier pool and
  /// runs every chain in a worker process (heartbeats, hang-kill, bounded
  /// retry with deterministic backoff — the src/dist contract).
  dist::DistOptions dist;
};

struct VerifyReport {
  /// One verdict per input chain, same order — the merge is deterministic by
  /// construction, so bytes match at any worker/job count.
  std::vector<ChainVerdict> verdicts;
  std::size_t effective = 0;
  std::size_t refuted = 0;
  std::size_t unconfirmed = 0;
  /// Total VM steps across all shards.
  std::size_t steps_total = 0;
  /// Supervision telemetry (all zero outside --verify-workers mode).
  dist::DistStats dist_stats;

  /// Any chain left undecided degrades the run.
  bool degraded() const { return unconfirmed > 0; }
};

/// Re-validate every chain; verdicts come back parallel to `chains`.
VerifyReport verify_chains(const jir::Program& program, const AliasView& aliases,
                           const std::vector<GadgetChain>& chains, const VerifyOptions& options);

}  // namespace tabby::finder
