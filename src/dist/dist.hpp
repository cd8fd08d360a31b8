// Supervised multi-process shard execution (docs/ROBUSTNESS.md, "Process
// isolation & supervision") — the coordinator/worker substrate behind
// `--workers N`.
//
// One coordinator forks a pool of worker processes and dispatches numbered
// shards to them over per-worker socketpairs, speaking the same
// newline-delimited JSON framing as the `tabby serve` wire protocol
// (serve::Json). Workers are forked, not exec'd: each child inherits the
// coordinator's address space copy-on-write — including the frozen CSR
// frame, which stays a single read-only mmap shared by every worker — runs
// the user-supplied ShardFn for each assigned shard, and streams the result
// back as one JSON line.
//
// The coordinator owns the robustness contract:
//   - crash isolation: a worker that dies (wild pointer, OOM kill, abort)
//     takes only its in-flight shard with it; the coordinator reaps the
//     corpse, respawns a replacement, and retries the shard;
//   - hang detection: workers heartbeat while executing a shard; a worker
//     that stops heartbeating for `hang_timeout` is SIGKILLed and treated as
//     crashed;
//   - bounded retry: each shard gets `max_attempts` tries with exponential
//     backoff and DETERMINISTIC seeded jitter between them (chaos runs
//     replay identically), reassigned to whichever worker is free — the
//     retry of a dead worker's shard usually lands on a survivor;
//   - structured failure: a shard that exhausts its attempts is reported as
//     a failed ShardResult with a rendered error, never an exception — the
//     caller (the finder) degrades it to a PartialSink{WorkerFailure}.
//
// Results are keyed by shard index, so callers merge in shard order and the
// output is byte-identical to in-process execution at any worker count and
// under any injected failure that retries absorb.
//
// Failpoints (all polled in the COORDINATOR, so `*N` budgets are counted in
// one process): dist.worker.crash (the dispatched worker dies abruptly
// mid-shard), dist.worker.hang (the dispatched worker goes silent —
// exercises heartbeat-miss detection), dist.dispatch (the dispatch itself
// fails — exercises the retry path without killing anyone).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tabby::dist {

/// Coordinator/worker tuning. The zero-workers default means "do not use
/// dist at all" — callers check `workers > 0` before calling run_shards.
struct DistOptions {
  /// Worker processes to fork (at least 1, capped at the shard count).
  int workers = 0;
  /// Attempts per shard (first try + retries). A shard failing this many
  /// times is reported failed, not retried forever.
  int max_attempts = 3;
  /// How often a busy worker heartbeats.
  std::chrono::milliseconds heartbeat_interval{25};
  /// A busy worker silent (no heartbeat, no result) for this long is
  /// declared hung and SIGKILLed. 0 disables heartbeat-miss detection.
  std::chrono::milliseconds hang_timeout{2000};
  /// Seed for the deterministic backoff jitter. Fixed default so identical
  /// runs — including chaos replays — sleep identically.
  std::uint64_t backoff_seed = 0x7ab1d157u;
  /// Failpoint sites the coordinator polls at dispatch to inject worker
  /// chaos. Callers running a different workload substitute their own sites
  /// (the verify stage uses runtime.verify.*) so a `site*N` budget targets
  /// the intended stage only. Must be string literals (static storage).
  const char* crash_failpoint = "dist.worker.crash";
  const char* hang_failpoint = "dist.worker.hang";
};

/// Outcome of one shard, indexed by shard number in DistReport::shards.
struct ShardResult {
  bool ok = false;
  /// The ShardFn's return value, verbatim (ok only).
  std::string payload;
  /// Rendered failure after retry exhaustion (!ok only).
  std::string error;
  /// Dispatch attempts consumed (1 = clean first try).
  int attempts = 0;
};

/// Supervision telemetry for one run_shards call (mirrored into dist.*
/// counters and the engine's per-process aggregates).
struct DistStats {
  std::uint64_t workers_spawned = 0;   // initial forks
  std::uint64_t respawns = 0;          // replacement forks after a death
  std::uint64_t crashes = 0;           // worker deaths observed (incl. kills)
  std::uint64_t retries = 0;           // shard re-dispatches
  std::uint64_t reassignments = 0;     // retries that landed on a different worker
  std::uint64_t heartbeat_misses = 0;  // hang detections (heartbeats stopped)

  bool any() const {
    return workers_spawned + respawns + crashes + retries + reassignments + heartbeat_misses > 0;
  }
};

struct DistReport {
  /// One entry per shard, index == shard number.
  std::vector<ShardResult> shards;
  DistStats stats;
};

/// The per-shard work, executed INSIDE a forked worker process. Must be
/// effectively const over inherited state (the finder's searches are), and
/// must not touch thread pools or other machinery whose threads did not
/// survive the fork. An exception escaping the function fails the shard
/// (structured, retriable) without killing the worker.
using ShardFn = std::function<std::string(std::size_t shard)>;

/// Runs `shard_count` shards across a supervised pool of forked workers.
/// Blocks until every shard has either a payload or an exhausted-retries
/// error; never throws for worker failures and never leaks children.
DistReport run_shards(std::size_t shard_count, const ShardFn& fn, const DistOptions& options);

/// The deterministic backoff-before-retry delay for `shard`'s attempt
/// number `attempt` (1-based, the attempt that just failed): 1 ms doubled
/// per earlier attempt, plus seeded jitter below half of that. Exposed for
/// tests — identical inputs yield identical delays on every platform.
std::chrono::microseconds retry_backoff(const DistOptions& options, std::size_t shard,
                                        int attempt);

}  // namespace tabby::dist
