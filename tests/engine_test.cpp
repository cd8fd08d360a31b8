// The session-oriented engine API (pipeline::Engine / Analysis /
// ExecContext): resident LRU semantics, admission control, degradation
// reporting, and — the acceptance bar — concurrent multi-tenant sessions
// whose find/query results are byte-identical to the one-shot CLI at any
// jobs count, including under a tight global budget that forces eviction
// between requests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "pipeline/engine.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli_capture(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

/// The signature lines (one per chain node) of a find report, in order —
/// the timing-insensitive projection of `tabby find` output.
std::string chain_lines(const std::string& out) {
  std::istringstream lines(out);
  std::string line, chains;
  while (std::getline(lines, line)) {
    if (line.find('#') == std::string::npos) continue;
    chains += line;
    chains += '\n';
  }
  return chains;
}

/// Renders a FindResult's chains the way the CLI does (minus the timing
/// header), for comparison against captured CLI output.
std::string chain_lines(const pipeline::FindResult& result) {
  std::string text;
  for (const finder::GadgetChain& chain : result.report.chains) {
    text += chain.to_string();
    text += "\n";
  }
  return chain_lines(text);
}

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_engine_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_a_ = (dir_ / "beanshell.tjar").string();
    jar_b_ = (dir_ / "rome.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_a_).ok());
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, jar_b_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string jar_a_;
  std::string jar_b_;
};

TEST_F(EngineFixture, SecondOpenIsAResidentHitReturningTheSameAnalysis) {
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto first = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(first.ok());
  auto second = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());

  pipeline::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.opens, 2u);
  EXPECT_EQ(stats.resident_hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  ASSERT_EQ(stats.entries.size(), 1u);
  EXPECT_EQ(stats.entries[0].fingerprint, first.value()->fingerprint());
  EXPECT_EQ(stats.entries[0].hits, 1u);
}

TEST_F(EngineFixture, DistinctClasspathsGetDistinctResidentEntries) {
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto a = engine.open({jar_a_}, ctx);
  auto b = engine.open({jar_b_}, ctx);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->fingerprint(), b.value()->fingerprint());
  EXPECT_EQ(engine.stats().entries.size(), 2u);
  // MRU order: b was opened last.
  EXPECT_EQ(engine.stats().entries[0].fingerprint, b.value()->fingerprint());
}

TEST_F(EngineFixture, FindMatchesOneShotCliByteForByte) {
  CliRun cli = run_cli_capture({"find", jar_a_});
  ASSERT_EQ(cli.code, 0) << cli.err;

  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto analysis = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(analysis.ok());
  pipeline::FindResult found = analysis.value()->find(ctx);
  EXPECT_EQ(chain_lines(found), chain_lines(cli.out));
}

TEST_F(EngineFixture, QueryMatchesOneShotCliByteForByte) {
  const std::string query = "MATCH (m:Method) WHERE m.IS_SINK = true RETURN m.NAME, m.SIGNATURE";
  CliRun cli = run_cli_capture({"query", jar_a_, query});
  ASSERT_EQ(cli.code, 0) << cli.err;

  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto analysis = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(analysis.ok());
  auto result = analysis.value()->query(query, ctx);
  ASSERT_TRUE(result.ok());
  // The CLI's whole stdout for this command is the rendered rows + trailer.
  EXPECT_EQ(analysis.value()->render(result.value()), cli.out);
}

TEST_F(EngineFixture, ResultsAreIdenticalAtAnyJobsCount) {
  pipeline::ExecContext ctx;
  std::string serial_chains, serial_rows;
  pipeline::EngineOptions serial_options;
  serial_options.jobs = 1;
  pipeline::EngineOptions parallel_options;
  parallel_options.jobs = 4;
  {
    pipeline::Engine engine(serial_options);
    auto analysis = engine.open({jar_a_}, ctx);
    ASSERT_TRUE(analysis.ok());
    serial_chains = chain_lines(analysis.value()->find(ctx));
    auto rows = analysis.value()->query("MATCH (m:Method {IS_SINK: true}) RETURN m.NAME", ctx);
    ASSERT_TRUE(rows.ok());
    serial_rows = analysis.value()->render(rows.value());
  }
  pipeline::Engine engine(parallel_options);
  auto analysis = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(chain_lines(analysis.value()->find(ctx)), serial_chains);
  auto rows = analysis.value()->query("MATCH (m:Method {IS_SINK: true}) RETURN m.NAME", ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(engine.stats().resident_hits, 0u);
  EXPECT_EQ(analysis.value()->render(rows.value()), serial_rows);
}

// The ISSUE's concurrency acceptance: two tenants issue interleaved
// find/query requests against different classpaths through ONE engine (a
// shared pool), and every result is byte-identical to the one-shot CLI.
TEST_F(EngineFixture, ConcurrentTenantsMatchTheOneShotCli) {
  CliRun cli_a = run_cli_capture({"find", jar_a_, "--jobs", "2"});
  CliRun cli_b = run_cli_capture({"find", jar_b_, "--jobs", "2"});
  const std::string query = "MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.NAME";
  CliRun cli_qa = run_cli_capture({"query", jar_a_, query, "--jobs", "2"});
  CliRun cli_qb = run_cli_capture({"query", jar_b_, query, "--jobs", "2"});
  ASSERT_EQ(cli_a.code, 0);
  ASSERT_EQ(cli_b.code, 0);
  ASSERT_EQ(cli_qa.code, 0);
  ASSERT_EQ(cli_qb.code, 0);

  pipeline::EngineOptions shared_options;
  shared_options.jobs = 2;
  pipeline::Engine engine(shared_options);
  auto tenant = [&](const std::string& jar, std::string& chains_out, std::string& rows_out) {
    pipeline::ExecContext ctx;
    for (int round = 0; round < 3; ++round) {
      auto analysis = engine.open({jar}, ctx);
      ASSERT_TRUE(analysis.ok());
      chains_out = chain_lines(analysis.value()->find(ctx));
      auto rows = analysis.value()->query(query, ctx);
      ASSERT_TRUE(rows.ok());
      rows_out = analysis.value()->render(rows.value());
    }
  };
  std::string chains_a, rows_a, chains_b, rows_b;
  std::thread ta([&] { tenant(jar_a_, chains_a, rows_a); });
  std::thread tb([&] { tenant(jar_b_, chains_b, rows_b); });
  ta.join();
  tb.join();

  EXPECT_EQ(chains_a, chain_lines(cli_a.out));
  EXPECT_EQ(chains_b, chain_lines(cli_b.out));
  EXPECT_EQ(rows_a, cli_qa.out);
  EXPECT_EQ(rows_b, cli_qb.out);
  // Round 2 and 3 of each tenant were resident hits.
  EXPECT_EQ(engine.stats().resident_hits, 4u);
}

TEST_F(EngineFixture, TightBudgetEvictsLruAndResultsStayByteIdentical) {
  CliRun cli_a = run_cli_capture({"find", jar_a_});
  CliRun cli_b = run_cli_capture({"find", jar_b_});

  // Big enough for either analysis alone, too small for both: every switch
  // of tenant evicts the other's idle analysis. Each keeps only its frozen
  // frame resident (about 230 KiB and 250 KiB).
  std::vector<std::pair<std::uint64_t, std::size_t>> evicted;
  pipeline::EngineOptions options;
  options.memory_budget_bytes = 400 * 1024;
  options.on_evict = [&](std::uint64_t fingerprint, std::size_t bytes) {
    evicted.emplace_back(fingerprint, bytes);
  };
  pipeline::Engine engine(options);
  pipeline::ExecContext ctx;
  pipeline::OpenOptions admit;
  admit.require_admission = true;

  for (int round = 0; round < 2; ++round) {
    auto a = engine.open({jar_a_}, ctx, admit);
    ASSERT_TRUE(a.ok()) << a.error().message;
    EXPECT_EQ(chain_lines(a.value()->find(ctx)), chain_lines(cli_a.out));
    a = util::Result<pipeline::AnalysisPtr>(nullptr);  // drop the handle: idle, evictable
    auto b = engine.open({jar_b_}, ctx, admit);
    ASSERT_TRUE(b.ok()) << b.error().message;
    EXPECT_EQ(chain_lines(b.value()->find(ctx)), chain_lines(cli_b.out));
  }

  pipeline::EngineStats stats = engine.stats();
  EXPECT_GE(stats.evictions, 3u);  // a->b, b->a, a->b at minimum
  EXPECT_EQ(stats.evictions, evicted.size());
  EXPECT_LE(stats.resident_bytes, options.memory_budget_bytes);
  for (const auto& [fingerprint, bytes] : evicted) {
    EXPECT_NE(fingerprint, 0u);
    EXPECT_GT(bytes, 0u);
  }
}

TEST_F(EngineFixture, OverCapacityOpenFailsStructurally) {
  pipeline::EngineOptions options;
  options.memory_budget_bytes = 16 * 1024;  // nothing real fits
  pipeline::Engine engine(options);
  pipeline::ExecContext ctx;
  pipeline::OpenOptions admit;
  admit.require_admission = true;
  auto result = engine.open({jar_a_}, ctx, admit);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(pipeline::is_over_capacity(result.error()));
  EXPECT_EQ(engine.stats().over_capacity, 1u);
  EXPECT_EQ(engine.stats().entries.size(), 0u);
}

TEST_F(EngineFixture, WithoutAdmissionControlTheOpenSucceedsNonResident) {
  pipeline::EngineOptions options;
  options.memory_budget_bytes = 16 * 1024;
  pipeline::Engine engine(options);
  pipeline::ExecContext ctx;
  auto result = engine.open({jar_a_}, ctx);  // one-shot CLI mode
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value()->find(ctx).report.chains.size(), 0u);
  // Usable, but the engine retains nothing it cannot afford.
  EXPECT_EQ(engine.stats().entries.size(), 0u);
  EXPECT_EQ(engine.stats().over_capacity, 0u);
}

TEST_F(EngineFixture, MaxResidentCapsTheLruByCount) {
  pipeline::EngineOptions options;
  options.max_resident = 1;
  pipeline::Engine engine(options);
  pipeline::ExecContext ctx;
  auto a = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(a.ok());
  a = util::Result<pipeline::AnalysisPtr>(nullptr);  // idle
  auto b = engine.open({jar_b_}, ctx);
  ASSERT_TRUE(b.ok());
  pipeline::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.entries.size(), 1u);
  EXPECT_EQ(stats.entries[0].fingerprint, b.value()->fingerprint());
  EXPECT_EQ(stats.evictions, 1u);
}

TEST_F(EngineFixture, ExplicitEvictionDropsTheEntry) {
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto a = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(a.ok());
  std::uint64_t fingerprint = a.value()->fingerprint();
  EXPECT_FALSE(engine.evict(fingerprint ^ 1));  // unknown fingerprint
  EXPECT_TRUE(engine.evict(fingerprint));
  EXPECT_EQ(engine.stats().entries.size(), 0u);
  // The evicted handle stays valid for the holder.
  EXPECT_GT(a.value()->find(ctx).report.chains.size(), 0u);
  // Re-open rebuilds (a fresh Analysis, not the evicted pointer).
  auto again = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().get(), a.value().get());
  EXPECT_EQ(engine.stats().resident_hits, 0u);
}

// Satellite: Analysis::find fills DegradationReport::partial_sinks and
// frontier_pruned for EVERY entry point — callers no longer hand-roll it.
TEST_F(EngineFixture, FindPopulatesDegradationPartials) {
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  auto analysis = engine.open({jar_a_}, ctx);
  ASSERT_TRUE(analysis.ok());

  pipeline::ExecContext starved = ctx;
  starved.finder_budget = std::chrono::milliseconds{0};  // expire at finder start
  pipeline::FindResult found = analysis.value()->find(starved);
  ASSERT_TRUE(found.report.partial());
  EXPECT_EQ(found.degradation.partial_sinks, found.report.partial_sinks.size());
  EXPECT_EQ(found.degradation.frontier_pruned, found.report.frontier_pruned);
  EXPECT_TRUE(found.degradation.degraded());

  // A clean search reports a clean degradation view.
  pipeline::FindResult clean = analysis.value()->find(ctx);
  EXPECT_FALSE(clean.report.partial());
  EXPECT_EQ(clean.degradation.partial_sinks, 0u);
  EXPECT_FALSE(clean.degradation.degraded());
}

TEST_F(EngineFixture, InMemoryOpenIsNonResident) {
  pipeline::Engine engine;
  pipeline::ExecContext ctx;
  corpus::Component component = corpus::build_component("BeanShell1");
  auto opened = engine.open(component.link(), ctx);
  ASSERT_TRUE(opened.ok()) << opened.error().to_string();
  const pipeline::AnalysisPtr& analysis = opened.value();
  ASSERT_NE(analysis, nullptr);
  EXPECT_EQ(analysis->fingerprint(), 0u);
  EXPECT_EQ(engine.stats().entries.size(), 0u);
  EXPECT_GT(analysis->find(ctx).report.chains.size(), 0u);
}

/// Opens `classpath` with every fs.read failing and returns how many reads
/// the open attempted (each one fired). Every archive is lost, so the open
/// fails.
std::uint64_t reads_in_one_open(pipeline::Engine& engine,
                                const std::vector<std::string>& classpath,
                                const pipeline::OpenOptions& opts = {}) {
  util::failpoint::arm();
  util::failpoint::activate("fs.read");
  auto opened = engine.open(classpath, {}, opts);
  std::uint64_t reads = util::failpoint::fired("fs.read");
  util::failpoint::disarm();
  EXPECT_FALSE(opened.ok());
  return reads;
}

/// What one traced, clean open did: its read spans (and the archive count
/// the read recorded), its archive decodes, its frame lookups, and the
/// spans of the store-snapshot path that no open should reach.
struct OpenTrace {
  std::size_t reads = 0;
  std::string archives;
  std::size_t decodes = 0;
  std::size_t frame_lookups = 0;
  std::size_t store_snapshot_spans = 0;
};

OpenTrace traced_open(pipeline::Engine& engine, const std::vector<std::string>& classpath,
                      const pipeline::OpenOptions& opts = {}) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  auto opened = engine.open(classpath, {}, opts);
  obs::TraceReport report = tracer.flush();
  tracer.disable();
  EXPECT_TRUE(opened.ok());
  OpenTrace trace;
  for (const obs::SpanRecord& span : report.spans) {
    if (span.name == "pipeline.read_classpath") {
      ++trace.reads;
      for (const obs::Attr& attr : span.attrs) {
        if (attr.key == "archives") trace.archives = attr.value;
      }
    }
    if (span.name == "jar.decode") ++trace.decodes;
    if (span.name == "cache.load_frozen") ++trace.frame_lookups;
    if (span.name == "cache.load_snapshot" || span.name == "graph.serialize" ||
        span.name == "cache.store_snapshot") {
      ++trace.store_snapshot_spans;
    }
  }
  return trace;
}

// Every open reads each archive exactly once, whatever it finds resident or
// cached. With every read failing, the open's attempts are all the reads
// there are: the first failure leaves the classpath without a key, so no
// snapshot read follows, and the loader decodes the bytes already read.
TEST_F(EngineFixture, EveryOpenReadsEachArchiveOnce) {
  const std::vector<std::string> classpath = {jar_a_, jar_b_};
  pipeline::EngineOptions options;
  options.cache_dir = (dir_ / "cache").string();
  pipeline::OpenOptions need_program;
  need_program.need_program = true;
  {
    pipeline::Engine engine(options);  // a miss: nothing resident or cached
    EXPECT_EQ(reads_in_one_open(engine, classpath), classpath.size());
  }
  pipeline::Engine populated(options);
  ASSERT_TRUE(populated.open(classpath, {}).ok());  // resident, and published
  EXPECT_EQ(reads_in_one_open(populated, classpath), classpath.size());
  {
    pipeline::Engine engine(options);  // the snapshot hit, then need_program
    EXPECT_EQ(reads_in_one_open(engine, classpath), classpath.size());
    EXPECT_EQ(reads_in_one_open(engine, classpath, need_program), classpath.size());
  }

  // The same four opens, reading cleanly: one read of the whole classpath
  // each, and decodes only where the open builds or needs the program.
  options.cache_dir = (dir_ / "traced").string();
  pipeline::Engine cold(options);
  OpenTrace miss = traced_open(cold, classpath);
  OpenTrace resident = traced_open(cold, classpath);
  pipeline::Engine warm(options);
  OpenTrace snapshot = traced_open(warm, classpath);
  OpenTrace linked = traced_open(warm, classpath, need_program);
  for (const OpenTrace& trace : {miss, resident, snapshot, linked}) {
    EXPECT_EQ(trace.reads, 1u);
    EXPECT_EQ(trace.archives, "2");
  }
  EXPECT_EQ(miss.decodes, 2u);
  EXPECT_EQ(miss.frame_lookups, 1u);
  EXPECT_EQ(resident.decodes, 0u);
  EXPECT_EQ(resident.frame_lookups, 0u);
  EXPECT_EQ(snapshot.decodes, 0u);
  EXPECT_EQ(snapshot.frame_lookups, 1u);
  EXPECT_EQ(linked.decodes, 2u);
  EXPECT_EQ(linked.frame_lookups, 1u);
  EXPECT_EQ(warm.stats().resident_hits, 0u);
  EXPECT_EQ(cold.stats().resident_hits, 1u);
}

// A classpath's cache entry is one file, its frame: a cold open publishes
// only <key>.tfzn, and a warm open is one frame lookup that never touches
// the store-snapshot path.
TEST_F(EngineFixture, CachedOpensWriteAndReadOnlyTheFrame) {
  const std::vector<std::string> classpath = {jar_a_, jar_b_};
  pipeline::EngineOptions options;
  options.cache_dir = (dir_ / "cache").string();
  pipeline::Engine cold(options);
  OpenTrace miss = traced_open(cold, classpath);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_ / "cache" / "snapshots")) {
    files.push_back(entry.path().filename().string());
  }
  auto resident = cold.open(classpath, {});
  ASSERT_TRUE(resident.ok());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], util::digest_hex(resident.value()->fingerprint()) + ".tfzn");
  EXPECT_EQ(miss.store_snapshot_spans, 0u);

  pipeline::Engine warm_engine(options);
  OpenTrace warm = traced_open(warm_engine, classpath);
  EXPECT_EQ(warm.frame_lookups, 1u);
  EXPECT_EQ(warm.decodes, 0u);
  EXPECT_EQ(warm.store_snapshot_spans, 0u);
}

// A transient read fault costs the one archive it hits, once: that open
// has no key, so it neither looks up nor publishes a snapshot, and it
// reports the loss in one fs-read line.
TEST_F(EngineFixture, OneFailedReadLosesOneArchiveAndSkipsTheSnapshot) {
  util::failpoint::arm();
  util::failpoint::activate("fs.read", 1);
  CliRun run = run_cli_capture({"find", jar_a_, jar_b_, "--cache", (dir_ / "cache").string()});
  util::failpoint::disarm();
  EXPECT_EQ(run.code, 3) << run.err;
  std::size_t fs_read_lines = 0;
  for (std::size_t at = run.err.find("degraded: [fs-read]"); at != std::string::npos;
       at = run.err.find("degraded: [fs-read]", at + 1)) {
    ++fs_read_lines;
  }
  EXPECT_EQ(fs_read_lines, 1u) << run.err;
  EXPECT_NE(run.out.find("cache: snapshot not consulted"), std::string::npos) << run.out;
}

TEST_F(EngineFixture, CacheDirectoryGivesWarmSecondEngine) {
  std::string cache = (dir_ / "cache").string();
  pipeline::ExecContext ctx;
  pipeline::EngineOptions options;
  options.cache_dir = cache;
  {
    pipeline::Engine cold(options);
    auto analysis = cold.open({jar_a_}, ctx);
    ASSERT_TRUE(analysis.ok());
    EXPECT_FALSE(analysis.value()->outcome().warm);
  }
  pipeline::Engine warm(options);
  auto analysis = warm.open({jar_a_}, ctx);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis.value()->outcome().warm);
}

}  // namespace
}  // namespace tabby
