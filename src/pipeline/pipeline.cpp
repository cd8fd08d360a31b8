#include "pipeline/pipeline.hpp"

#include <utility>

#include "corpus/jdk.hpp"
#include "graph/frozen.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "util/digest.hpp"
#include "util/fs.hpp"

namespace tabby::pipeline {

namespace {

/// Renders the unit label for a partially-salvaged archive: which classes
/// survived out of how many the header declared.
std::string salvage_unit(const std::string& path, const jar::DecodeDegradation& degradation) {
  return path + " [kept " + std::to_string(degradation.classes_kept) + "/" +
         std::to_string(degradation.classes_kept + degradation.classes_dropped) + " classes]";
}

/// One classpath entry after its fail-soft decode.
struct LoadedFile {
  jar::Archive archive;
  jar::DecodeDegradation decode;  // decode-level loss, when any
  bool deadline_skipped = false;  // the deadline expired before its decode
};

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

std::vector<ArchiveRead> read_classpath(const std::vector<std::string>& paths) {
  obs::Span span("pipeline.read_classpath");
  span.attr("archives", static_cast<std::uint64_t>(paths.size()));
  std::vector<ArchiveRead> files(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ArchiveRead& file = files[i];
    file.path = paths[i];
    auto bytes = util::read_file(paths[i]);
    if (!bytes.ok()) {
      file.error = bytes.error();
      continue;
    }
    file.bytes = std::move(bytes.value());
    file.digest = util::content_digest(file.bytes);
  }
  if (span.active()) {
    std::uint64_t total = 0;
    for (const ArchiveRead& file : files) total += file.bytes.size();
    span.attr("bytes", total);
  }
  return files;
}

util::Result<jir::Program> load_program(std::vector<ArchiveRead> files, bool with_jdk,
                                        util::Executor* executor, FailurePolicy policy,
                                        DegradationReport* degradation,
                                        const util::Deadline& deadline) {
  TABBY_SPAN("pipeline.load_program");
  const bool quarantine = policy == FailurePolicy::kQuarantine;
  if (!quarantine && deadline.expired()) {
    return util::Error{"deadline exceeded before classpath load"};
  }

  // Salvage-decode every archive independently, so the decode work fans out
  // across the executor's workers. Each archive's bytes are dropped as soon
  // as it is decoded.
  std::vector<LoadedFile> loaded(files.size());
  util::run_indexed(executor, files.size(), [&](std::size_t i) {
    obs::Span span("jar.decode");
    if (span.active()) span.attr("path", files[i].path);
    LoadedFile& file = loaded[i];
    // Cooperative cancellation: entries whose turn comes after expiry are
    // skipped whole and say so, rather than racing the clock mid-decode.
    if (deadline.expired()) {
      file.deadline_skipped = true;
    } else if (!files[i].error.has_value()) {
      file.archive = jar::read_archive_salvage(files[i].bytes, file.decode);
      if (!file.decode.error.has_value()) obs::counter_add("jar.archives_decoded");
    }
    std::vector<std::byte>().swap(files[i].bytes);
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
    const std::string& path = files[i].path;
    LoadedFile& file = loaded[i];
    if (file.deadline_skipped) {
      // Deadline skips are degradation, never "garbage input": they must
      // not trip the nothing-survived fatal below.
      if (!quarantine) {
        return util::Error{"deadline exceeded during classpath load (before decoding " + path +
                           ")"};
      }
      report.add(path, "deadline", "deadline exceeded before decoding " + path);
      report.deadline_hit = true;
      continue;
    }
    const std::optional<util::Error>& lost =
        files[i].error.has_value() ? files[i].error : file.decode.error;
    if (lost.has_value() && !quarantine) {
      return util::Error{path + ": " + lost->message, lost->location};
    }
    if (lost.has_value()) {
      ++quarantined;
      if (files[i].error.has_value() || file.archive.classes.empty()) {
        // Nothing salvageable: unreadable, or header/string-pool corruption.
        report.add(path, files[i].error.has_value() ? "fs-read" : "archive-decode",
                   lost->message, file.decode.bytes_skipped);
        if (!first_loss.has_value()) first_loss = util::Error{path + ": " + lost->message};
        continue;
      }
      report.add(salvage_unit(path, file.decode), "class-decode", lost->message,
                 file.decode.bytes_skipped);
    }
    ++survivors;
    classpath.push_back(std::move(file.archive));
  }
  if (quarantined > 0) obs::counter_add("pipeline.units_quarantined", quarantined);
  if (!files.empty() && survivors == 0 && first_loss.has_value()) {
    // Quarantine never silently answers "no chains" for a classpath that is
    // entirely garbage — when nothing survives, the load fails like strict.
    return *first_loss;
  }
  return jar::link(classpath);
}

util::Status freeze(const graph::GraphDb& db, std::uint64_t content_key, Outcome& outcome,
                    cache::AnalysisCache* publish_to) {
  {
    obs::Span span("graph.freeze");
    auto frozen = graph::FrozenGraph::freeze(db, content_key);
    if (!frozen.ok()) {
      obs::counter_add("graph.freeze_failures");
      return util::Error{"graph freeze failed: " + frozen.error().message};
    }
    if (span.active()) {
      span.attr("nodes", static_cast<std::uint64_t>(frozen.value().node_count()));
      span.attr("bytes", static_cast<std::uint64_t>(frozen.value().frame().size()));
    }
    outcome.frozen = std::move(frozen.value());
  }
  if (publish_to != nullptr) {
    auto stored = publish_to->store_frozen(content_key, outcome.frozen);
    if (!stored.ok()) {
      outcome.warnings.push_back(stored.error().to_string() + " (continuing without snapshot)");
    }
  }
  return util::Status::ok_status();
}

util::Status build(const jir::Program& program, const cpg::CpgOptions& options,
                   FailurePolicy policy, Outcome& outcome, cache::AnalysisCache* cache,
                   std::optional<std::uint64_t> key) {
  cpg::Cpg cpg = cpg::build_cpg(program, options);
  if (cpg.deadline_hit) {
    if (policy != FailurePolicy::kQuarantine) {
      return util::Error{"deadline exceeded during CPG construction"};
    }
    outcome.degradation.deadline_hit = true;
    if (cpg.methods_skipped > 0) {
      outcome.degradation.add("cpg-build", "deadline",
                              std::to_string(cpg.methods_skipped) +
                                  " method(s) left unsummarised by the deadline cut");
    }
  }
  outcome.stats = cpg.stats;
  const bool publish = cache != nullptr && key.has_value() && !outcome.degradation.degraded();
  // A classpath without a key has an unreadable archive, which its load
  // recorded (or failed on): with a cache, an unpublished build is degraded.
  if (cache != nullptr && !publish) {
    outcome.warnings.push_back("snapshot not published (degraded run)");
  }
  util::Status frozen = freeze(cpg.db, key.value_or(0), outcome, publish ? cache : nullptr);
  if (!frozen.ok()) return frozen;
  {
    // The builder's graph is freed in its own span: on a large classpath
    // the teardown costs as much as a build phase.
    TABBY_SPAN("pipeline.teardown");
    cpg::Cpg dropped = std::move(cpg);
  }
  return util::Status::ok_status();
}

}  // namespace tabby::pipeline
