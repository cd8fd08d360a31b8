#include "pipeline/pipeline.hpp"

#include <exception>
#include <utility>

#include "corpus/jdk.hpp"
#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/fs.hpp"

namespace tabby::pipeline {

namespace {

/// Maps a builder-level deadline cut into the run's degradation report.
/// Strict policy turns it into the error the caller returns; quarantine
/// records it and keeps the (structurally valid, incomplete) CPG.
util::Status absorb_build_cut(const cpg::Cpg& cpg, FailurePolicy policy, Outcome& outcome) {
  if (!cpg.deadline_hit) return util::Status::ok_status();
  if (policy != FailurePolicy::kQuarantine) {
    return util::Error{"deadline exceeded during CPG construction"};
  }
  outcome.degradation.deadline_hit = true;
  if (cpg.methods_skipped > 0) {
    outcome.degradation.add("cpg-build", "deadline",
                            std::to_string(cpg.methods_skipped) +
                                " method(s) left unsummarised by the deadline cut");
  }
  return util::Status::ok_status();
}

/// Freezes `db` into outcome.frozen, the graph every reader queries. A
/// failed freeze (a graph too large for the dense id space, an injected
/// graph.freeze fault) leaves nothing to read, so it is a run error.
util::Status freeze_into(const graph::GraphDb& db, std::uint64_t content_key,
                         const Options& options, Outcome& outcome) {
  obs::Span span("graph.freeze");
  auto frozen = graph::FrozenGraph::freeze(db, content_key, options.memory);
  if (!frozen.ok()) {
    obs::counter_add("graph.freeze_failures");
    return util::Error{"graph freeze failed: " + frozen.error().message};
  }
  if (span.active()) {
    span.attr("nodes", static_cast<std::uint64_t>(frozen.value().node_count()));
    span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
  }
  outcome.frozen = std::move(frozen.value());
  return util::Status::ok_status();
}

/// Publishes the outcome's frame next to its snapshot; a failed write only
/// costs the next run its warm frozen start.
void publish_frozen(cache::AnalysisCache& cache, std::uint64_t key, Outcome& outcome) {
  auto stored = cache.store_frozen(key, outcome.frozen);
  if (!stored.ok()) {
    outcome.warnings.push_back(stored.error().to_string() +
                               " (continuing without frozen snapshot)");
  }
}

/// Cold back half shared by every run: build the CPG, serialize it when
/// `--store` or the cache needs the bytes, and freeze it. With a cache, a
/// clean build is published under `key`: the snapshot first, then its
/// frame, so a frame never exists without its snapshot. A degraded run, or
/// one whose classpath has no key, is never published: the key describes
/// the on-disk classpath, and a later repaired run with the same bytes must
/// not warm-start from the holes. The builder's graph is dropped on return.
util::Status build_into(const jir::Program& program, const Options& options,
                        const cpg::CpgOptions& cpg_options, Outcome& outcome,
                        cache::AnalysisCache* cache = nullptr,
                        std::optional<std::uint64_t> key = std::nullopt) {
  cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
  util::Status cut = absorb_build_cut(cpg, options.policy, outcome);
  if (!cut.ok()) return cut;
  outcome.stats = cpg.stats;
  const bool publish = cache != nullptr && key.has_value() && !outcome.degradation.degraded();
  if (cache != nullptr && !publish) {
    // Without degradation, the key is missing because a digest read failed
    // that the loader's read then survived (a transient fault).
    outcome.warnings.push_back(outcome.degradation.degraded()
                                   ? "snapshot not published (degraded run)"
                                   : "snapshot not published (an archive could not be digested)");
  }
  std::vector<std::byte> graph_bytes;
  if (options.need_graph_bytes || publish) {
    TABBY_SPAN("graph.serialize");
    graph_bytes = graph::serialize(cpg.db);
  }
  bool published = false;
  if (publish) {
    auto stored = cache->store_snapshot(*key, outcome.stats, graph_bytes);
    if (stored.ok()) {
      published = true;
    } else {
      outcome.warnings.push_back(stored.error().to_string() + " (continuing without snapshot)");
    }
  }
  util::Status frozen = freeze_into(cpg.db, key.value_or(0), options, outcome);
  if (!frozen.ok()) return frozen;
  if (published) publish_frozen(*cache, *key, outcome);
  if (options.need_graph_bytes) outcome.graph_bytes = std::move(graph_bytes);
  return util::Status::ok_status();
}

/// Renders the unit label for a partially-salvaged archive: which classes
/// survived out of how many the header declared.
std::string salvage_unit(const std::string& path, const jar::DecodeDegradation& degradation) {
  return path + " [kept " + std::to_string(degradation.classes_kept) + "/" +
         std::to_string(degradation.classes_kept + degradation.classes_dropped) + " classes]";
}

/// One classpath entry after its read and fail-soft decode.
struct LoadedFile {
  jar::Archive archive;
  jar::DecodeDegradation decode;          // decode-level loss, when any
  std::optional<util::Error> read_error;  // unreadable or deadline-skipped: total loss
  bool deadline_skipped = false;          // read_error came from the deadline, not IO
};

util::Result<Outcome> run_impl(const std::vector<std::string>& jar_paths, const Options& options) {
  obs::Span span("pipeline.run");
  span.attr("archives", static_cast<std::uint64_t>(jar_paths.size()));

  const bool quarantine = options.policy == FailurePolicy::kQuarantine;
  util::Deadline run_deadline = options.deadline;
  run_deadline.bind(options.cancel);
  util::Deadline load_deadline = run_deadline.tightened(options.load_deadline);

  cpg::CpgOptions cpg_options = options.cpg;
  cpg_options.executor = options.executor;
  // The builder polls the run deadline between payload batches (folded with
  // any build deadline the caller set directly) and charges its transient
  // batches to the run ledger.
  cpg_options.deadline = run_deadline.tightened(cpg_options.deadline);
  if (cpg_options.memory == nullptr) cpg_options.memory = options.memory;
  Outcome outcome;

  // A cache that cannot be opened is an infrastructure fault, not a broken
  // input unit: fatal under both policies (the caller asked for caching and
  // would otherwise silently lose it).
  std::optional<cache::AnalysisCache> cache;
  if (!options.cache_dir.empty()) {
    auto opened = cache::AnalysisCache::open(options.cache_dir);
    if (!opened.ok()) return opened.error();
    cache.emplace(std::move(opened.value()));
    cache->set_memory(options.memory);
  }

  // The snapshot key covers the simulated JDK (when included) and every
  // archive's bytes in link order. A classpath with an unreadable archive
  // has no key: it neither warm-starts nor publishes, and the loader below
  // records the loss in classpath order (or fails on it under strict).
  std::optional<std::uint64_t> key;
  if (cache.has_value()) {
    key = classpath_key(jar_paths, options.with_jdk, cpg::options_fingerprint(cpg_options));
  }

  // Frozen-first warm start: mmap the cached CSR frame when one matches.
  // The sibling .tsnp stays the source of truth — a frozen hit still
  // requires it intact (stats + the exact store bytes), but lets
  // load_snapshot skip the expensive graph decode. A corrupt frame is a
  // structured degradation: the store is decoded and re-frozen below as if
  // no frame existed; a frame without an intact snapshot is an orphan and is
  // ignored.
  std::optional<graph::FrozenGraph> warm_frozen;
  std::optional<cache::CachedCpg> snapshot;
  if (key.has_value()) {
    std::string corrupt_reason;
    auto frozen = cache->load_frozen(*key, &corrupt_reason);
    if (frozen.has_value() && !frozen->stats().has_value()) {
      // A frame from before the planner-stats section still attaches, but
      // queries over it would plan with fallback estimates. Treat it like a
      // miss: the store path below re-freezes (now with stats) and
      // republishes, upgrading the cache in place.
      outcome.warnings.push_back(
          "cached frozen graph predates cardinality stats (re-freezing to upgrade)");
      frozen.reset();
    }
    if (frozen.has_value()) {
      warm_frozen = std::move(frozen);
    } else if (!corrupt_reason.empty()) {
      outcome.warnings.push_back("cached frozen graph rejected: " + corrupt_reason +
                                 " (falling back to the graph store)");
    }
    snapshot = cache->load_snapshot(*key, /*need_db=*/!warm_frozen.has_value());
    if (!snapshot.has_value()) warm_frozen.reset();
  }

  if (!snapshot.has_value() || options.need_program) {
    auto program = load_program(jar_paths, options.with_jdk, options.executor, options.policy,
                                &outcome.degradation, load_deadline);
    if (!program.ok()) return program.error();
    if (!snapshot.has_value() && run_deadline.expired()) {
      // A deadline that fires before the build leaves an empty CPG;
      // freezing it keeps find and query valid on the degraded outcome.
      if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
      outcome.degradation.deadline_hit = true;
      util::Status frozen = freeze_into(graph::GraphDb{}, /*content_key=*/0, options, outcome);
      if (!frozen.ok()) return frozen.error();
    } else if (!snapshot.has_value()) {
      util::Status built = build_into(program.value(), options, cpg_options, outcome,
                                      cache.has_value() ? &*cache : nullptr, key);
      if (!built.ok()) return built.error();
    }
    if (options.need_program) outcome.program = std::move(program.value());
  }
  if (snapshot.has_value()) {
    outcome.stats = snapshot->stats;
    outcome.warm = true;
    if (warm_frozen.has_value()) {
      // Frozen warm start: the mmapped frame is the graph; the store decode
      // was skipped.
      outcome.frozen = std::move(*warm_frozen);
    } else {
      // The frame was absent, stale or corrupt: re-freeze from the decoded
      // store and republish so the cache self-heals.
      util::Status frozen = freeze_into(snapshot->db, *key, options, outcome);
      if (!frozen.ok()) return frozen.error();
      publish_frozen(*cache, *key, outcome);
    }
    if (options.need_graph_bytes) outcome.graph_bytes = std::move(snapshot->graph_bytes);
  }
  if (cache.has_value()) outcome.cache_line = cache->stats().to_line();
  return outcome;
}

}  // namespace

std::string DegradedUnit::to_string() const {
  std::string out = "degraded: [" + stage + "] " + unit + ": " + error;
  if (bytes_skipped > 0) out += " (" + std::to_string(bytes_skipped) + " byte(s) skipped)";
  return out;
}

std::string DegradationReport::to_string() const {
  std::string out;
  for (const DegradedUnit& u : units) {
    out += u.to_string();
    out += '\n';
  }
  if (deadline_hit) out += "degraded: deadline exceeded; remaining work was skipped\n";
  if (partial_sinks > 0) {
    out += "degraded: " + std::to_string(partial_sinks) + " sink search(es) cut short\n";
  }
  if (frontier_pruned > 0) {
    out += "degraded: memory budget pressure; " + std::to_string(frontier_pruned) +
           " frontier branch(es) pruned\n";
  }
  if (unconfirmed_chains > 0) {
    out += "degraded: " + std::to_string(unconfirmed_chains) +
           " chain(s) left UNCONFIRMED by runtime re-validation\n";
  }
  return out;
}

std::unique_ptr<util::ThreadPool> make_pool(int jobs) {
  unsigned n = jobs > 0 ? static_cast<unsigned>(jobs) : util::ThreadPool::default_jobs();
  if (n <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(n);
}

std::optional<std::uint64_t> classpath_key(const std::vector<std::string>& jar_paths,
                                           bool with_jdk, std::uint64_t options_fp) {
  std::vector<std::uint64_t> digests;
  digests.reserve(jar_paths.size() + 1);
  if (with_jdk) digests.push_back(util::fnv1a(jar::write_archive(corpus::jdk_base_archive())));
  for (const std::string& path : jar_paths) {
    auto digest = cache::AnalysisCache::digest_file(path);
    if (!digest.ok()) return std::nullopt;
    digests.push_back(digest.value());
  }
  return cache::AnalysisCache::snapshot_key(options_fp, digests);
}

util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor, FailurePolicy policy,
                                        DegradationReport* degradation,
                                        const util::Deadline& deadline) {
  TABBY_SPAN("pipeline.load_program");
  const bool quarantine = policy == FailurePolicy::kQuarantine;
  // Strict checks the budget once, up front; quarantine per archive below.
  if (!quarantine && deadline.expired()) {
    return util::Error{"deadline exceeded before classpath load"};
  }

  // Read and salvage-decode every archive independently, so the decode work
  // fans out across the executor's workers.
  std::vector<LoadedFile> files(paths.size());
  util::run_indexed(executor, paths.size(), [&](std::size_t i) {
    obs::Span span("jar.decode");
    if (span.active()) span.attr("path", paths[i]);
    LoadedFile& file = files[i];
    // Cooperative cancellation: entries whose turn comes after expiry are
    // skipped whole and say so, rather than racing the clock mid-decode.
    if (quarantine && deadline.expired()) {
      file.read_error = util::Error{"deadline exceeded before reading " + paths[i]};
      file.deadline_skipped = true;
      return;
    }
    auto bytes = util::read_file(paths[i]);
    if (!bytes.ok()) {
      file.read_error = bytes.error();
      return;
    }
    file.archive = jar::read_archive_salvage(bytes.value(), file.decode);
    if (!file.decode.error.has_value()) obs::counter_add("jar.archives_decoded");
  });

  // The policy, applied once in classpath order: strict fails on the first
  // lost unit; quarantine records each one and links what survives.
  std::vector<jar::Archive> classpath;
  if (with_jdk) classpath.push_back(corpus::jdk_base_archive());
  DegradationReport local;
  DegradationReport& report = degradation != nullptr ? *degradation : local;
  std::size_t survivors = 0;
  std::size_t quarantined = 0;
  std::optional<util::Error> first_loss;
  for (std::size_t i = 0; i < files.size(); ++i) {
    LoadedFile& file = files[i];
    const std::optional<util::Error>& lost =
        file.read_error.has_value() ? file.read_error : file.decode.error;
    if (lost.has_value() && !quarantine) {
      return util::Error{paths[i] + ": " + lost->message, lost->location};
    }
    if (file.deadline_skipped) {
      // Deadline skips are degradation, never "garbage input": they must
      // not trip the nothing-survived fatal below.
      report.add(paths[i], "deadline", lost->message);
      report.deadline_hit = true;
      continue;
    }
    if (lost.has_value()) {
      ++quarantined;
      if (file.read_error.has_value() || file.archive.classes.empty()) {
        // Nothing salvageable: unreadable, or header/string-pool corruption.
        report.add(paths[i], file.read_error.has_value() ? "fs-read" : "archive-decode",
                   lost->message, file.decode.bytes_skipped);
        if (!first_loss.has_value()) first_loss = util::Error{paths[i] + ": " + lost->message};
        continue;
      }
      report.add(salvage_unit(paths[i], file.decode), "class-decode", lost->message,
                 file.decode.bytes_skipped);
    }
    ++survivors;
    classpath.push_back(std::move(file.archive));
  }
  if (quarantined > 0) obs::counter_add("pipeline.units_quarantined", quarantined);
  if (!paths.empty() && survivors == 0 && first_loss.has_value()) {
    // Quarantine never silently answers "no chains" for a classpath that is
    // entirely garbage — when nothing survives, the run fails like strict.
    return *first_loss;
  }
  return jar::link(classpath);
}

util::Result<Outcome> run(const std::vector<std::string>& jar_paths, const Options& options) {
  // The fail-soft contract is "structured Result, never a crash": stray
  // exceptions (worker-task faults surfaced by Executor::parallel_for,
  // injected pool.task failpoints) become errors here instead of
  // unwinding through the CLI.
  try {
    return run_impl(jar_paths, options);
  } catch (const std::exception& e) {
    return util::Error{std::string("pipeline: unhandled exception: ") + e.what()};
  }
}

util::Result<Outcome> run(const jir::Program& program, const Options& options) {
  obs::Span span("pipeline.run");
  cpg::CpgOptions cpg_options = options.cpg;
  cpg_options.executor = options.executor;
  cpg_options.deadline = options.deadline.tightened(cpg_options.deadline);
  if (cpg_options.memory == nullptr) cpg_options.memory = options.memory;
  Outcome outcome;
  // A deadline cut is always absorbed as degradation regardless of policy.
  Options absorbing = options;
  absorbing.policy = FailurePolicy::kQuarantine;
  util::Status built = build_into(program, absorbing, cpg_options, outcome);
  if (!built.ok()) return built.error();
  if (options.need_program) outcome.program = program;
  return outcome;
}

}  // namespace tabby::pipeline
