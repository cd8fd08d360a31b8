#include "pipeline/pipeline.hpp"

#include <exception>
#include <filesystem>
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

/// A deadline that fires before the build leaves an empty CPG; freezing it
/// keeps find and query valid on the degraded outcome.
util::Status freeze_empty(const Options& options, Outcome& outcome) {
  return freeze_into(graph::GraphDb{}, /*content_key=*/0, options, outcome);
}

/// Cold back half shared by both run() overloads: build the CPG, serialize
/// it when asked and freeze it. The builder's graph is dropped on return.
util::Status build_into(const jir::Program& program, const Options& options,
                        const cpg::CpgOptions& cpg_options, Outcome& outcome) {
  cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
  util::Status cut = absorb_build_cut(cpg, options.policy, outcome);
  if (!cut.ok()) return cut;
  outcome.stats = cpg.stats;
  if (options.need_graph_bytes) {
    TABBY_SPAN("graph.serialize");
    outcome.graph_bytes = graph::serialize(cpg.db);
  }
  return freeze_into(cpg.db, /*content_key=*/0, options, outcome);
}

/// Renders the unit label for a partially-salvaged archive: which classes
/// survived out of how many the header declared.
std::string salvage_unit(const std::string& path, const jar::DecodeDegradation& degradation) {
  return path + " [kept " + std::to_string(degradation.classes_kept) + "/" +
         std::to_string(degradation.classes_kept + degradation.classes_dropped) + " classes]";
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

  if (options.cache_dir.empty()) {
    auto program = load_program(jar_paths, options.with_jdk, options.executor, options.policy,
                                &outcome.degradation, load_deadline);
    if (!program.ok()) return program.error();
    if (run_deadline.expired()) {
      if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
      outcome.degradation.deadline_hit = true;
      util::Status frozen = freeze_empty(options, outcome);
      if (!frozen.ok()) return frozen.error();
      if (options.need_program) outcome.program = std::move(program.value());
      return outcome;
    }
    util::Status built = build_into(program.value(), options, cpg_options, outcome);
    if (!built.ok()) return built.error();
    if (options.need_program) outcome.program = std::move(program.value());
    return outcome;
  }

  // A cache that cannot be opened is an infrastructure fault, not a broken
  // input unit: fatal under both policies (the caller asked for caching and
  // would otherwise silently lose it).
  auto opened = cache::AnalysisCache::open(options.cache_dir);
  if (!opened.ok()) return opened.error();
  cache::AnalysisCache& cache = opened.value();
  cache.set_memory(options.memory);

  // Classpath digests in link order: the simulated JDK (when included) is
  // part of the analyzed world, so its content is part of the key. Under
  // quarantine an unreadable archive is dropped here (stage "fs-read") so
  // the snapshot key covers exactly the surviving classpath.
  std::vector<std::string> surviving;
  std::vector<std::uint64_t> digests;
  std::optional<util::Error> first_loss;
  if (options.with_jdk) {
    digests.push_back(util::fnv1a(jar::write_archive(corpus::jdk_base_archive())));
  }
  for (const std::string& path : jar_paths) {
    auto digest = cache::AnalysisCache::digest_file(path);
    if (!digest.ok()) {
      util::Error error{path + ": " + digest.error().message};
      if (!quarantine) return error;
      outcome.degradation.add(path, "fs-read", digest.error().message);
      obs::counter_add("pipeline.units_quarantined");
      if (!first_loss.has_value()) first_loss = std::move(error);
      continue;
    }
    surviving.push_back(path);
    digests.push_back(digest.value());
  }
  if (quarantine && !jar_paths.empty() && surviving.empty()) {
    return first_loss.value_or(util::Error{"no archive on the classpath survived quarantine"});
  }
  std::uint64_t key =
      cache::AnalysisCache::snapshot_key(cpg::options_fingerprint(cpg_options), digests);

  // Frozen-first warm start: mmap the cached CSR frame when one matches.
  // The sibling .tsnp stays the source of truth — a frozen hit still
  // requires it intact (stats + the exact store bytes), but lets
  // load_snapshot skip the expensive graph decode. A corrupt frame is a
  // structured degradation: the store is decoded and re-frozen below as if
  // no frame existed; a frame without an intact snapshot is an orphan and is
  // ignored.
  std::optional<graph::FrozenGraph> warm_frozen;
  {
    std::string corrupt_reason;
    auto frozen = cache.load_frozen(key, &corrupt_reason);
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
  }
  std::optional<cache::CachedCpg> snapshot =
      cache.load_snapshot(key, /*need_db=*/!warm_frozen.has_value());
  if (!snapshot.has_value()) warm_frozen.reset();
  if (!snapshot.has_value() || options.need_program) {
    // Load the program through per-archive fragments: unchanged archives
    // warm-start, only changed ones are re-decoded from the original bytes.
    // Under quarantine a fragment/decode failure falls back to a fail-soft
    // re-decode of the raw bytes, so the warm path degrades on exactly the
    // same inputs the cold path would.
    std::vector<jar::Archive> classpath;
    if (options.with_jdk) classpath.push_back(corpus::jdk_base_archive());
    std::size_t user_loaded = 0;
    for (const std::string& path : surviving) {
      if (load_deadline.expired()) {
        if (!quarantine) return util::Error{"deadline exceeded before loading " + path};
        outcome.degradation.add(path, "deadline", "deadline exceeded before loading archive");
        outcome.degradation.deadline_hit = true;
        continue;
      }
      auto loaded = cache.load_archive(path);
      if (loaded.ok()) {
        classpath.push_back(std::move(loaded.value().archive));
        ++user_loaded;
        continue;
      }
      if (!quarantine) return util::Error{path + ": " + loaded.error().message};
      if (!first_loss.has_value()) first_loss = util::Error{path + ": " + loaded.error().message};
      auto bytes = util::read_file(path);
      if (!bytes.ok()) {
        outcome.degradation.add(path, "fs-read", bytes.error().message);
        obs::counter_add("pipeline.units_quarantined");
        continue;
      }
      jar::DecodeDegradation degradation;
      jar::Archive salvaged = jar::read_archive_salvage(bytes.value(), degradation);
      if (!degradation.error.has_value()) {
        // The cached fragment failed but the raw bytes decode cleanly (a
        // transient fault): the archive is recovered intact, nothing to
        // quarantine.
        classpath.push_back(std::move(salvaged));
        ++user_loaded;
        continue;
      }
      if (salvaged.classes.empty()) {
        outcome.degradation.add(path, "archive-decode",
                                degradation.error.has_value() ? degradation.error->message
                                                              : loaded.error().message,
                                degradation.bytes_skipped);
        obs::counter_add("pipeline.units_quarantined");
        continue;
      }
      outcome.degradation.add(salvage_unit(path, degradation), "class-decode",
                              degradation.error->message, degradation.bytes_skipped);
      obs::counter_add("pipeline.units_quarantined");
      classpath.push_back(std::move(salvaged));
      ++user_loaded;
    }
    if (quarantine && !jar_paths.empty() && user_loaded == 0 &&
        !outcome.degradation.deadline_hit && first_loss.has_value()) {
      // Same rule as the cold path: a classpath that is entirely garbage is
      // a fatal error, not a quietly empty analysis.
      return *first_loss;
    }
    jir::Program program = jar::link(classpath);
    if (!snapshot.has_value()) {
      if (run_deadline.expired()) {
        if (!quarantine) return util::Error{"deadline exceeded before CPG construction"};
        outcome.degradation.deadline_hit = true;
        util::Status frozen = freeze_empty(options, outcome);
        if (!frozen.ok()) return frozen.error();
        if (options.need_program) outcome.program = std::move(program);
        outcome.cache_line = cache.stats().to_line();
        return outcome;
      }
      cpg::Cpg cpg = cpg::build_cpg(program, cpg_options);
      util::Status cut = absorb_build_cut(cpg, options.policy, outcome);
      if (!cut.ok()) return cut.error();
      outcome.stats = cpg.stats;
      std::vector<std::byte> graph_bytes;
      {
        TABBY_SPAN("graph.serialize");
        graph_bytes = graph::serialize(cpg.db);
      }
      bool snapshot_published = false;
      if (outcome.degradation.degraded()) {
        // Never publish a degraded CPG: the snapshot key describes the
        // on-disk classpath, and a later repaired run with the same bytes
        // must not warm-start from the holes.
        outcome.warnings.push_back("snapshot not published (degraded run)");
      } else {
        auto stored = cache.store_snapshot(key, outcome.stats, graph_bytes);
        if (!stored.ok()) {
          outcome.warnings.push_back(stored.error().to_string() +
                                     " (continuing without snapshot)");
        } else {
          snapshot_published = true;
        }
      }
      // Freeze after the store publish so the frame is only ever published
      // next to its intact snapshot (a companion-less .tfzn is an orphan the
      // warm path would ignore anyway).
      util::Status frozen = freeze_into(cpg.db, key, options, outcome);
      if (!frozen.ok()) return frozen.error();
      if (snapshot_published) publish_frozen(cache, key, outcome);
      if (options.need_graph_bytes) outcome.graph_bytes = std::move(graph_bytes);
    }
    if (options.need_program) outcome.program = std::move(program);
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
      util::Status frozen = freeze_into(snapshot->db, key, options, outcome);
      if (!frozen.ok()) return frozen.error();
      publish_frozen(cache, key, outcome);
    }
    if (options.need_graph_bytes) outcome.graph_bytes = std::move(snapshot->graph_bytes);
  }
  outcome.cache_line = cache.stats().to_line();
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

util::Result<jir::Program> load_program(const std::vector<std::string>& paths, bool with_jdk,
                                        util::Executor* executor, FailurePolicy policy,
                                        DegradationReport* degradation,
                                        const util::Deadline& deadline) {
  TABBY_SPAN("pipeline.load_program");
  std::vector<jar::Archive> classpath;
  if (with_jdk) classpath.push_back(corpus::jdk_base_archive());
  std::vector<std::filesystem::path> files(paths.begin(), paths.end());

  if (policy == FailurePolicy::kStrict) {
    if (deadline.expired()) return util::Error{"deadline exceeded before classpath load"};
    std::vector<util::Result<jar::Archive>> archives = jar::read_archive_files(files, executor);
    for (std::size_t i = 0; i < archives.size(); ++i) {
      if (!archives[i].ok()) {
        return util::Error{paths[i] + ": " + archives[i].error().message,
                           archives[i].error().location};
      }
      classpath.push_back(std::move(archives[i].value()));
    }
    return jar::link(classpath);
  }

  DegradationReport local;
  DegradationReport& report = degradation != nullptr ? *degradation : local;
  std::vector<jar::SalvagedFile> salvaged = jar::read_archive_files_salvage(files, executor,
                                                                           deadline);
  std::size_t survivors = 0;
  std::optional<util::Error> first_loss;
  std::size_t quarantined = 0;
  for (std::size_t i = 0; i < salvaged.size(); ++i) {
    jar::SalvagedFile& file = salvaged[i];
    if (file.read_error.has_value()) {
      report.add(paths[i], file.deadline_skipped ? "deadline" : "fs-read",
                 file.read_error->message);
      if (file.deadline_skipped) {
        // Deadline skips are degradation, never "garbage input": they must
        // not trip the nothing-survived fatal below.
        report.deadline_hit = true;
      } else {
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.read_error->message};
        }
      }
      continue;
    }
    if (file.degradation.error.has_value()) {
      if (file.archive.classes.empty()) {
        // Nothing salvageable: header or string-pool corruption.
        report.add(paths[i], "archive-decode", file.degradation.error->message,
                   file.degradation.bytes_skipped);
        ++quarantined;
        if (!first_loss.has_value()) {
          first_loss = util::Error{paths[i] + ": " + file.degradation.error->message};
        }
        continue;
      }
      report.add(salvage_unit(paths[i], file.degradation), "class-decode",
                 file.degradation.error->message, file.degradation.bytes_skipped);
      ++quarantined;
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
