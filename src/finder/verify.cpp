#include "finder/verify.hpp"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "jir/hierarchy.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace tabby::finder {

namespace {

/// Strict decimal u64 parse for the verdict wire codec (counters travel as
/// strings — the wire format's numbers are doubles).
bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

const char* reason_tag(UnconfirmedReason reason) {
  switch (reason) {
    case UnconfirmedReason::Budget: return "budget";
    case UnconfirmedReason::Timeout: return "timeout";
    case UnconfirmedReason::Crash: return "crash";
    case UnconfirmedReason::Fault: return "fault";
    case UnconfirmedReason::None: break;
  }
  return "none";
}

/// Map one executed AutoVerifyResult onto the verdict taxonomy. Modeled
/// Java-level faults and setup failures are concrete negative evidence
/// (REFUTED); budget/deadline/infrastructure faults mean the VM could not
/// decide (UNCONFIRMED with the matching reason).
ChainVerdict classify(const AutoVerifyResult& result) {
  ChainVerdict v;
  v.steps = result.execution.steps;
  if (result.effective) {
    v.verdict = Verdict::Effective;
    v.reason = UnconfirmedReason::None;
    return v;
  }
  switch (result.execution.fault_kind) {
    case runtime::FaultKind::Budget:
      v.verdict = Verdict::Unconfirmed;
      v.reason = UnconfirmedReason::Budget;
      v.detail = result.execution.fault;
      break;
    case runtime::FaultKind::Timeout:
      v.verdict = Verdict::Unconfirmed;
      v.reason = UnconfirmedReason::Timeout;
      v.detail = result.execution.fault;
      break;
    case runtime::FaultKind::Fault:
      v.verdict = Verdict::Unconfirmed;
      v.reason = UnconfirmedReason::Fault;
      v.detail = result.execution.fault;
      break;
    case runtime::FaultKind::None:
    case runtime::FaultKind::Modeled:
    case runtime::FaultKind::Setup:
      v.verdict = Verdict::Refuted;
      v.reason = UnconfirmedReason::None;
      v.detail = result.execution.fault;
      break;
  }
  return v;
}

/// Dist wire codec for one shard's verdict, a single JSON line.
std::string encode_verdict(const ChainVerdict& verdict) {
  serve::Json doc = serve::Json::object();
  doc.set("verdict", std::string(to_string(verdict.verdict)));
  doc.set("reason", std::string(reason_tag(verdict.reason)));
  doc.set("detail", verdict.detail);
  doc.set("steps", std::to_string(static_cast<std::uint64_t>(verdict.steps)));
  return doc.dump();
}

bool decode_verdict(const std::string& payload, ChainVerdict& out) {
  auto doc = serve::Json::parse(payload);
  if (!doc || !doc->is_object()) return false;
  ChainVerdict v;
  std::string verdict = doc->str("verdict");
  if (verdict == "EFFECTIVE") {
    v.verdict = Verdict::Effective;
  } else if (verdict == "REFUTED") {
    v.verdict = Verdict::Refuted;
  } else if (verdict == "UNCONFIRMED") {
    v.verdict = Verdict::Unconfirmed;
  } else {
    return false;
  }
  std::string reason = doc->str("reason");
  if (reason == "none") {
    v.reason = UnconfirmedReason::None;
  } else if (reason == "budget") {
    v.reason = UnconfirmedReason::Budget;
  } else if (reason == "timeout") {
    v.reason = UnconfirmedReason::Timeout;
  } else if (reason == "crash") {
    v.reason = UnconfirmedReason::Crash;
  } else if (reason == "fault") {
    v.reason = UnconfirmedReason::Fault;
  } else {
    return false;
  }
  v.detail = doc->str("detail");
  std::uint64_t steps = 0;
  if (!parse_u64(doc->str("steps"), steps)) return false;
  v.steps = steps;
  out = std::move(v);
  return true;
}

/// A retry-exhausted dist shard: the coordinator's rendered error decides
/// between a hang (timeout) and a crash demotion.
ChainVerdict worker_failure_verdict(const std::string& error) {
  ChainVerdict v;
  v.verdict = Verdict::Unconfirmed;
  bool hang = error.find("hung") != std::string::npos;
  v.reason = hang ? UnconfirmedReason::Timeout : UnconfirmedReason::Crash;
  v.detail = error.empty() ? "verification worker failed" : error;
  return v;
}

}  // namespace

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::Effective: return "EFFECTIVE";
    case Verdict::Refuted: return "REFUTED";
    case Verdict::Unconfirmed: break;
  }
  return "UNCONFIRMED";
}

const char* to_string(UnconfirmedReason reason) { return reason_tag(reason); }

std::string verdict_line(const ChainVerdict& verdict) {
  std::string line = to_string(verdict.verdict);
  if (verdict.verdict == Verdict::Unconfirmed) {
    line += "(";
    line += reason_tag(verdict.reason);
    line += ")";
  }
  return line;
}

std::string degraded_line(const GadgetChain& chain, const ChainVerdict& verdict) {
  std::string line = "degraded: [verify-";
  line += reason_tag(verdict.reason);
  line += "] ";
  line += chain.source_signature();
  line += " -> ";
  line += chain.sink_signature();
  line += ": ";
  line += verdict.detail.empty() ? "verification did not complete" : verdict.detail;
  line += "; chain kept as UNCONFIRMED";
  return line;
}

VerifyReport verify_chains(const jir::Program& program, const AliasView& aliases,
                           const std::vector<GadgetChain>& chains, const VerifyOptions& options) {
  obs::Span span("runtime.verify");
  if (span.active()) span.attr("chains", std::to_string(chains.size()));

  VerifyReport report;
  report.verdicts.resize(chains.size());
  if (chains.empty()) return report;

  // One class hierarchy for every replay: a view of the program that costs
  // nothing to build. Every shard reads it concurrently; its methods are
  // const.
  const jir::Hierarchy hierarchy(program);

  // Re-validate one chain under its own VM budgets. Runs on a pool thread
  // (in-process mode) or inside a forked verifier (--verify-workers).
  auto run_one = [&](std::size_t chain_index) -> ChainVerdict {
    if (options.deadline.expired()) {
      ChainVerdict v;
      v.verdict = Verdict::Unconfirmed;
      v.reason = UnconfirmedReason::Timeout;
      v.detail = "verify deadline expired before the chain ran";
      return v;
    }
    runtime::VmOptions vm;
    vm.max_steps = options.max_steps_per_chain;
    vm.max_call_depth = options.max_call_depth;
    vm.deadline = options.deadline;
    return classify(auto_verify(hierarchy, aliases, chains[chain_index], vm));
  };

  if (options.dist.workers > 0) {
    // Crash-isolated mode: every chain is a shard in the supervised forked
    // pool. The coordinator injects chaos through the runtime.verify.*
    // failpoints (substituted below so `site*N` budgets target this stage,
    // not the finder), absorbs crashes/hangs under the retry budget, and a
    // shard that exhausts retries comes back as a failure we demote — the
    // coordinator never dies with a worker.
    dist::DistOptions dopts = options.dist;
    dopts.crash_failpoint = "runtime.verify.crash";
    dopts.hang_failpoint = "runtime.verify.hang";
    dist::DistReport dist_report = dist::run_shards(
        chains.size(), [&](std::size_t i) { return encode_verdict(run_one(i)); }, dopts);
    report.dist_stats = dist_report.stats;
    for (std::size_t i = 0; i < chains.size(); ++i) {
      dist::ShardResult& shard = dist_report.shards[i];
      ChainVerdict v;
      if (shard.ok && decode_verdict(shard.payload, v)) {
        report.verdicts[i] = std::move(v);
      } else {
        report.verdicts[i] = worker_failure_verdict(
            shard.ok ? "shard payload decode failed" : shard.error);
      }
    }
  } else {
    // In-process mode: per-chain shards on the executor, written straight
    // into their slots (deterministic merge by construction). Chaos is
    // decided serially in ascending chain order BEFORE the parallel loop so
    // `site*N` budgets land on the same chains at any --jobs count.
    enum : std::uint8_t { kNone = 0, kCrash = 1, kHang = 2 };
    std::vector<std::uint8_t> chaos(chains.size(), kNone);
    for (std::size_t i = 0; i < chains.size(); ++i) {
      if (util::failpoint::poll("runtime.verify.crash")) {
        chaos[i] = kCrash;
      } else if (util::failpoint::poll("runtime.verify.hang")) {
        chaos[i] = kHang;
      }
    }
    util::run_indexed(options.executor, chains.size(), [&](std::size_t i) {
      ChainVerdict v;
      if (chaos[i] == kCrash) {
        v = worker_failure_verdict("verifier crashed (failpoint runtime.verify.crash)");
      } else if (chaos[i] == kHang) {
        v = worker_failure_verdict("verifier hung (failpoint runtime.verify.hang)");
      } else {
        try {
          v = run_one(i);
        } catch (const std::exception& e) {
          v.verdict = Verdict::Unconfirmed;
          v.reason = UnconfirmedReason::Fault;
          v.detail = std::string("verifier fault: ") + e.what();
        } catch (...) {
          v.verdict = Verdict::Unconfirmed;
          v.reason = UnconfirmedReason::Fault;
          v.detail = "verifier fault: unknown exception";
        }
      }
      report.verdicts[i] = std::move(v);
    });
  }

  for (const ChainVerdict& v : report.verdicts) {
    report.steps_total += v.steps;
    switch (v.verdict) {
      case Verdict::Effective: ++report.effective; break;
      case Verdict::Refuted: ++report.refuted; break;
      case Verdict::Unconfirmed: ++report.unconfirmed; break;
    }
  }

  // Counters are only bumped when non-zero so non-verify runs keep their
  // historical --metrics bytes.
  obs::counter_add("runtime.chains_verified", chains.size());
  if (report.effective > 0) obs::counter_add("runtime.verify_effective", report.effective);
  if (report.refuted > 0) obs::counter_add("runtime.verify_refuted", report.refuted);
  if (report.unconfirmed > 0) obs::counter_add("runtime.verify_unconfirmed", report.unconfirmed);
  if (report.steps_total > 0) obs::counter_add("runtime.vm_steps", report.steps_total);
  if (span.active()) {
    span.attr("effective", std::to_string(report.effective));
    span.attr("unconfirmed", std::to_string(report.unconfirmed));
  }
  return report;
}

}  // namespace tabby::finder
