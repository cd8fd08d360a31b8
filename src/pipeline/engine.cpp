#include "pipeline/engine.hpp"

#include <exception>
#include <utility>

#include "corpus/jdk.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/strings.hpp"

namespace tabby::pipeline {

namespace {

/// Anchors an optional phase budget as a Deadline starting now — phases own
/// their budgets from the moment they start, never from request arrival.
util::Deadline anchor(const std::optional<std::chrono::milliseconds>& budget) {
  return budget.has_value() ? util::Deadline::after(*budget) : util::Deadline{};
}

/// Bytes an Outcome keeps resident. The frozen frame is exact; a linked
/// program is estimated from its method count. The estimate only has to be
/// stable and monotone in graph size — admission compares sums of it
/// against the cap, it never pretends to be an allocator audit.
std::size_t resident_estimate(const Outcome& outcome) {
  std::size_t bytes = outcome.frozen.frame().size();
  if (outcome.program.has_value()) {
    bytes += outcome.program->method_count() * 512;
  }
  return bytes;
}

/// True when a resident analysis materialized everything `opts` asks for.
bool satisfies(const Outcome& have, const OpenOptions& opts) {
  return !opts.need_program || have.program.has_value();
}

/// The snapshot key of a read classpath, which is also the engine's resident
/// fingerprint: the default CPG options' fingerprint folded with the digest
/// of the simulated JDK (when `with_jdk`) and of every archive, in link
/// order. nullopt when an archive could not be read, since no key could then
/// describe the on-disk bytes.
std::optional<std::uint64_t> key_of(const std::vector<ArchiveRead>& files, bool with_jdk) {
  // Both are constants of the binary, computed on first use.
  static const std::uint64_t options_fp = cpg::options_fingerprint(cpg::CpgOptions{});
  std::vector<std::uint64_t> digests;
  digests.reserve(files.size() + 1);
  if (with_jdk) {
    static const std::uint64_t jdk_digest =
        util::content_digest(jar::write_archive(corpus::jdk_base_archive()));
    digests.push_back(jdk_digest);
  }
  for (const ArchiveRead& file : files) {
    if (file.error.has_value()) return std::nullopt;
    digests.push_back(file.digest);
  }
  return cache::AnalysisCache::snapshot_key(options_fp, digests);
}

}  // namespace

bool is_over_capacity(const util::Error& error) {
  return util::starts_with(error.message, kOverCapacityPrefix);
}

// --- Analysis ---------------------------------------------------------------

FindResult Analysis::find(const ExecContext& ctx) const {
  obs::Span span("engine.find");
  finder::FinderOptions options;
  options.max_depth = ctx.max_depth;
  options.executor = executor_;
  // The finder races whatever is left of the request budget, tightened with
  // its own phase budget anchored now, at finder start.
  util::Deadline deadline = ctx.deadline;
  deadline.bind(ctx.cancel);
  options.deadline = deadline.tightened(anchor(ctx.finder_budget));
  options.frontier_byte_pool = ctx.frontier_byte_pool;
  options.dist.workers = ctx.workers;

  FindResult result;
  result.report = finder::GadgetChainFinder(outcome_.frozen, options).find_all();
  // Every entry point reports the same degradation: the open-phase units
  // merged with the finder's partial view (previously each caller filled
  // partial_sinks/frontier_pruned — or forgot to).
  result.degradation = outcome_.degradation;
  result.degradation.partial_sinks = result.report.partial_sinks.size();
  result.degradation.frontier_pruned = result.report.frontier_pruned;
  if (dist_ != nullptr && result.report.dist_stats.any()) {
    dist_->accumulate(result.report.dist_stats);
  }

  // The verify post-pass (docs/ROBUSTNESS.md, "Runtime re-validation"):
  // supervised per-chain re-execution with its own anchored phase budget.
  // Requires the linked program (OpenOptions::need_program); without one the
  // request simply returns unverified — the CLI opens with need_program
  // whenever --verify is set.
  if (ctx.verify && outcome_.program.has_value()) {
    finder::VerifyOptions vopts;
    util::Deadline verify_deadline = ctx.deadline;
    verify_deadline.bind(ctx.cancel);
    vopts.deadline = verify_deadline.tightened(anchor(ctx.verify_budget));
    vopts.executor = executor_;
    vopts.dist.workers = ctx.verify_workers;
    result.verify = finder::verify_chains(*outcome_.program, finder::AliasView(outcome_.frozen),
                                          result.report.chains, vopts);
    result.verified = true;
    result.degradation.unconfirmed_chains = result.verify.unconfirmed;
    if (dist_ != nullptr && result.verify.dist_stats.any()) {
      dist_->accumulate(result.verify.dist_stats);
    }
  }
  return result;
}

util::Result<cypher::QueryResult> Analysis::query(std::string_view text,
                                                  const ExecContext& ctx) const {
  obs::Span span("engine.query");
  cypher::QueryOptions options;
  options.use_planner = ctx.use_planner;
  options.executor = executor_;
  return cypher::run_query(outcome_.frozen, text, options);
}

std::string Analysis::render(const cypher::QueryResult& result) const {
  std::string out = result.to_string(outcome_.frozen);
  out += "(";
  out += std::to_string(result.rows.size());
  out += " row(s))\n";
  return out;
}

std::string Analysis::render(const FindResult& result, std::vector<std::string>& degraded_lines) {
  const std::vector<finder::GadgetChain>& chains = result.report.chains;
  std::string out = std::to_string(chains.size()) + " gadget chain(s), " +
                    util::format_double(result.report.search_seconds, 3) + " s search\n\n";
  for (std::size_t i = 0; i < chains.size(); ++i) {
    out += chains[i].to_string();
    if (result.verified) {
      out += "  auto-verify: " + finder::verdict_line(result.verify.verdicts[i]) + "\n";
    }
    out += "\n";
  }
  if (result.verified) {
    out += std::to_string(result.verify.effective) + "/" + std::to_string(chains.size()) +
           " chains confirmed effective";
    if (result.verify.unconfirmed > 0) {
      out += ", " + std::to_string(result.verify.unconfirmed) + " unconfirmed";
    }
    out += "\n";
  }
  for (const finder::PartialSink& sink : result.report.partial_sinks) {
    degraded_lines.push_back(finder::degraded_line(sink));
  }
  if (result.verified) {
    // An undecided chain is kept and degrades the run, like a partial sink.
    for (std::size_t i = 0; i < chains.size(); ++i) {
      const finder::ChainVerdict& verdict = result.verify.verdicts[i];
      if (verdict.verdict == finder::Verdict::Unconfirmed) {
        degraded_lines.push_back(finder::degraded_line(chains[i], verdict));
      }
    }
  }
  return out;
}

// --- Engine -----------------------------------------------------------------

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), pool_(make_pool(options_.jobs)) {}

Engine::~Engine() = default;

util::Result<AnalysisPtr> Engine::open(const std::vector<std::string>& jar_paths,
                                       const ExecContext& ctx, const OpenOptions& opts) try {
  obs::Span span("engine.open");
  obs::counter_add("engine.opens");
  util::Deadline deadline = ctx.deadline;
  deadline.bind(ctx.cancel);

  // The one read of the classpath: its digests key the resident and
  // snapshot lookups, and on a miss its bytes feed the loader. An
  // unreadable archive leaves the classpath without a key: the open still
  // runs (quarantine may salvage the rest), but its result is neither
  // resident nor looked up or published as a snapshot.
  std::vector<ArchiveRead> files = read_classpath(jar_paths);
  const std::optional<std::uint64_t> key = key_of(files, options_.with_jdk);
  // The load budget bounds what follows the read, which every open pays.
  const util::Deadline load_deadline = deadline.tightened(anchor(ctx.load_budget));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++opens_;
    auto it = key.has_value() ? resident_.find(*key) : resident_.end();
    // A resident analysis answers this open only when it materialized
    // everything the open needs; otherwise fall through and rebuild (the
    // admission below upgrades the resident entry in place).
    if (it != resident_.end() && satisfies(it->second.analysis->outcome(), opts)) {
      ++it->second.hits;
      ++resident_hits_;
      obs::counter_add("engine.resident_hits");
      lru_.erase(it->second.lru);
      lru_.push_front(*key);
      it->second.lru = lru_.begin();
      return AnalysisPtr(it->second.analysis);
    }
  }

  // Cheap pre-admission check: when even the raw classpath bytes exceed the
  // whole budget, reject before decoding a single archive — no eviction
  // could make the analysis fit.
  const std::size_t cap = options_.memory_budget_bytes;
  if (opts.require_admission && cap > 0) {
    std::size_t raw_bytes = 0;
    for (const ArchiveRead& file : files) raw_bytes += file.bytes.size();
    if (raw_bytes > cap) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++over_capacity_;
      obs::counter_add("engine.over_capacity");
      return util::Error{std::string(kOverCapacityPrefix) + "classpath is " +
                         std::to_string(raw_bytes) + " raw byte(s); engine budget is " +
                         std::to_string(cap) + " byte(s)"};
    }
  }

  Outcome outcome;
  {
    obs::Span run_span("pipeline.run");
    run_span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));
    // A cache that cannot be opened is an infrastructure fault, not a broken
    // input unit: fatal under both policies (the caller asked for caching
    // and would otherwise silently lose it).
    std::optional<cache::AnalysisCache> cache;
    if (!options_.cache_dir.empty()) {
      auto opened = cache::AnalysisCache::open(options_.cache_dir);
      if (!opened.ok()) return opened.error();
      cache.emplace(std::move(opened.value()));
    }

    // Warm start: the frame is the classpath's whole cache entry. A hit maps
    // it zero-copy and reports the build counts it carries; nothing is
    // built, so build_seconds stays 0. A missing frame is a miss; a corrupt
    // or version-skewed one is a miss with a warning, which the build below
    // republishes over.
    if (cache.has_value() && key.has_value()) {
      std::string corrupt_reason;
      if (auto frozen = cache->load_frozen(*key, &corrupt_reason)) {
        outcome.frozen = std::move(*frozen);
        outcome.stats = cpg::stats_from(outcome.frozen.build_counts());
        outcome.warm = true;
      } else if (!corrupt_reason.empty()) {
        outcome.warnings.push_back("cached frozen graph rejected: " + corrupt_reason +
                                   " (rebuilding from the classpath)");
      }
    }

    if (!outcome.warm || opts.need_program) {
      auto program = load_program(std::move(files), options_.with_jdk, pool_.get(), ctx.policy,
                                  &outcome.degradation, load_deadline);
      if (!program.ok()) return program.error();
      if (!outcome.warm && deadline.expired()) {
        // A deadline that fires before the build leaves an empty CPG;
        // freezing it keeps find and query valid on the degraded outcome.
        if (ctx.policy != FailurePolicy::kQuarantine) {
          return util::Error{"deadline exceeded before CPG construction"};
        }
        outcome.degradation.deadline_hit = true;
        util::Status frozen = freeze(graph::GraphDb{}, /*content_key=*/0, outcome);
        if (!frozen.ok()) return frozen.error();
      } else if (!outcome.warm) {
        cpg::CpgOptions cpg_options;
        cpg_options.executor = pool_.get();
        cpg_options.deadline = deadline;
        // Cached or not, the build freezes under the classpath key, so the
        // frame is the same bytes either way; only a cached build publishes.
        util::Status built = build(program.value(), cpg_options, ctx.policy, outcome,
                                   cache.has_value() ? &*cache : nullptr, key);
        if (!built.ok()) return built.error();
      }
      if (opts.need_program) {
        outcome.program = std::move(program.value());
      } else {
        TABBY_SPAN("pipeline.teardown");
        jir::Program dropped = std::move(program.value());
      }
    }
    if (cache.has_value()) outcome.cache_line = cache->stats().to_line();
  }

  auto analysis = std::shared_ptr<Analysis>(new Analysis());
  analysis->outcome_ = std::move(outcome);
  analysis->fingerprint_ = key.value_or(0);
  analysis->executor_ = pool_.get();
  analysis->dist_ = &dist_telemetry_;
  analysis->resident_bytes_ = resident_estimate(analysis->outcome_);

  if (!key.has_value()) return AnalysisPtr(std::move(analysis));

  std::lock_guard<std::mutex> lock(mutex_);
  // Another request may have built and admitted the same classpath while
  // this one ran unlocked; keep whichever is already resident when it
  // satisfies the request (first admit wins — both are byte-identical).
  auto it = resident_.find(*key);
  if (it != resident_.end()) {
    if (satisfies(it->second.analysis->outcome(), opts)) return AnalysisPtr(it->second.analysis);
    evict_locked(*key);
  }
  if (cap > 0) {
    make_room_locked(analysis->resident_bytes_);
    if (resident_bytes_ + analysis->resident_bytes_ > cap) {
      if (opts.require_admission) {
        ++over_capacity_;
        obs::counter_add("engine.over_capacity");
        return util::Error{std::string(kOverCapacityPrefix) + "analysis needs " +
                           std::to_string(analysis->resident_bytes_) +
                           " resident byte(s); engine budget is " +
                           std::to_string(cap) + " byte(s) with " +
                           std::to_string(resident_bytes_) + " already resident"};
      }
      // One-shot caller: hand the analysis back non-resident instead of
      // rejecting — the handle's lifetime is the caller's problem, the
      // engine keeps governing only what it retains.
      return AnalysisPtr(std::move(analysis));
    }
  }
  resident_bytes_ += analysis->resident_bytes_;
  lru_.push_front(*key);
  Entry entry;
  entry.analysis = analysis;
  entry.lru = lru_.begin();
  resident_.emplace(*key, std::move(entry));
  if (options_.max_resident > 0) {
    while (resident_.size() > options_.max_resident && !lru_.empty()) {
      // Evict idle entries beyond the count cap, LRU first. Entries pinned
      // by in-flight requests are skipped; the cap is re-applied on the
      // next open once they quiesce.
      bool evicted = false;
      for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
        if (*rit == *key) continue;  // never evict the analysis just opened
        auto candidate = resident_.find(*rit);
        if (candidate != resident_.end() && candidate->second.analysis.use_count() == 1) {
          evict_locked(*rit);
          evicted = true;
          break;
        }
      }
      if (!evicted) break;
    }
  }
  return AnalysisPtr(std::move(analysis));
} catch (const std::exception& e) {
  // The fail-soft contract is "structured Result, never a crash": stray
  // exceptions (worker-task faults surfaced by Executor::parallel_for,
  // injected pool.task failpoints) become errors here instead of unwinding
  // through the CLI.
  return util::Error{std::string("pipeline: unhandled exception: ") + e.what()};
}

util::Result<AnalysisPtr> Engine::open(const jir::Program& program, const ExecContext& ctx,
                                       const OpenOptions& opts) {
  obs::Span span("engine.open");
  util::Deadline deadline = ctx.deadline;
  deadline.bind(ctx.cancel);
  cpg::CpgOptions cpg_options;
  cpg_options.executor = pool_.get();
  cpg_options.deadline = deadline;
  Outcome outcome;
  // A deadline cut is always absorbed as degradation regardless of policy.
  util::Status built = build(program, cpg_options, FailurePolicy::kQuarantine, outcome);
  if (!built.ok()) return built.error();
  if (opts.need_program) outcome.program = program;
  auto analysis = std::shared_ptr<Analysis>(new Analysis());
  analysis->outcome_ = std::move(outcome);
  analysis->executor_ = pool_.get();
  analysis->dist_ = &dist_telemetry_;
  analysis->resident_bytes_ = resident_estimate(analysis->outcome_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++opens_;
  }
  return AnalysisPtr(std::move(analysis));
}

std::size_t Engine::evict_locked(std::uint64_t fingerprint) {
  auto it = resident_.find(fingerprint);
  if (it == resident_.end()) return 0;
  std::size_t bytes = it->second.analysis->resident_bytes();
  lru_.erase(it->second.lru);
  resident_.erase(it);
  resident_bytes_ -= bytes;
  ++evictions_;
  obs::counter_add("engine.evictions");
  // The callback is the Katana-style eviction hook: by the time it fires
  // the engine no longer references the analysis, so once request holders
  // drop their handles the frozen frame is unmapped.
  if (options_.on_evict) options_.on_evict(fingerprint, bytes);
  return bytes;
}

void Engine::make_room_locked(std::size_t needed) {
  const std::size_t cap = options_.memory_budget_bytes;
  if (cap == 0) return;
  while (resident_bytes_ + needed > cap && !lru_.empty()) {
    bool evicted = false;
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      auto it = resident_.find(*rit);
      if (it != resident_.end() && it->second.analysis.use_count() == 1) {
        evict_locked(*rit);
        evicted = true;
        break;
      }
    }
    if (!evicted) return;  // everything left is pinned by in-flight requests
  }
}

bool Engine::evict(std::uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mutex_);
  return evict_locked(fingerprint) > 0;
}

std::size_t Engine::evict_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (; !lru_.empty(); ++count) evict_locked(lru_.back());
  return count;
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  EngineStats stats;
  stats.resident_bytes = resident_bytes_;
  stats.opens = opens_;
  stats.resident_hits = resident_hits_;
  stats.evictions = evictions_;
  stats.over_capacity = over_capacity_;
  stats.budget_bytes = options_.memory_budget_bytes;
  stats.dist_workers_spawned = dist_telemetry_.workers_spawned.load(std::memory_order_relaxed);
  stats.dist_respawns = dist_telemetry_.respawns.load(std::memory_order_relaxed);
  stats.dist_crashes = dist_telemetry_.crashes.load(std::memory_order_relaxed);
  stats.dist_retries = dist_telemetry_.retries.load(std::memory_order_relaxed);
  stats.dist_reassignments = dist_telemetry_.reassignments.load(std::memory_order_relaxed);
  stats.dist_heartbeat_misses = dist_telemetry_.heartbeat_misses.load(std::memory_order_relaxed);
  for (std::uint64_t fp : lru_) {
    auto it = resident_.find(fp);
    if (it == resident_.end()) continue;
    stats.entries.push_back(
        {fp, it->second.analysis->resident_bytes(), it->second.hits});
  }
  return stats;
}

}  // namespace tabby::pipeline
