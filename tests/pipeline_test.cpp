// Tests for the pipeline's stages and its one front end, Engine::open
// (src/pipeline): structured errors, cold builds, cache warm/cold
// equivalence, the in-memory overload and the one read per open — the
// library-level contract the CLI and the examples are thin callers of.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>
#include <vector>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"
#include "support/freeze.hpp"
#include "util/failpoint.hpp"

namespace tabby::pipeline {
namespace {

namespace fs = std::filesystem;

class PipelineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_pipeline_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    corpus::Component component = corpus::build_component("BeanShell1");
    jar_path_ = (dir_ / "component.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(component.jar, jar_path_).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }
  fs::path dir_;
  std::string jar_path_;
};

/// One classpath open on a fresh engine: nothing resident, so every call
/// goes through the cache (when `options` names one) or a cold build. The
/// handle outlives the engine; these tests read only its outcome().
util::Result<AnalysisPtr> open_once(const std::vector<std::string>& classpath,
                                    const EngineOptions& options = {},
                                    const ExecContext& ctx = {}, const OpenOptions& opts = {}) {
  return Engine(options).open(classpath, ctx, opts);
}

const Outcome& out(const util::Result<AnalysisPtr>& opened) { return opened.value()->outcome(); }

EngineOptions cached(const std::string& dir) {
  EngineOptions options;
  options.cache_dir = dir;
  return options;
}

ExecContext with_policy(FailurePolicy policy) {
  ExecContext ctx;
  ctx.policy = policy;
  return ctx;
}

/// True when two opens froze the same graph: equal frames once the content
/// key (header bytes 16..24) and the checksum that covers it are set aside.
bool same_graph(const graph::FrozenGraph& a, const graph::FrozenGraph& b) {
  auto fa = a.frame(), fb = b.frame();
  constexpr std::size_t kKeyEnd = 24, kSum = graph::kFrozenChecksumSize;
  return fa.size() == fb.size() && std::ranges::equal(fa.first(16), fb.first(16)) &&
         std::ranges::equal(fa.subspan(kKeyEnd, fa.size() - kKeyEnd - kSum),
                            fb.subspan(kKeyEnd, fb.size() - kKeyEnd - kSum));
}

TEST(Pipeline, LoadProgramReportsTheOffendingPath) {
  auto result = load_program(read_classpath({"/no/such/archive.tjar"}), /*with_jdk=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("/no/such/archive.tjar"), std::string::npos)
      << result.error().to_string();
}

TEST(Pipeline, RunReportsTheOffendingPathWithAndWithoutCache) {
  auto cold = open_once({"/no/such/archive.tjar"});
  ASSERT_FALSE(cold.ok());
  EXPECT_NE(cold.error().message.find("/no/such/archive.tjar"), std::string::npos);

  std::string cache_dir = (fs::temp_directory_path() / "tabby_pipeline_test_cache_err").string();
  auto cached_run = open_once({"/no/such/archive.tjar"}, cached(cache_dir));
  ASSERT_FALSE(cached_run.ok());
  EXPECT_NE(cached_run.error().message.find("/no/such/archive.tjar"), std::string::npos);
  fs::remove_all(cache_dir);
}

TEST_F(PipelineFixture, LoadProgramLinksTheClasspath) {
  auto program = load_program(read_classpath({jar_path_}), /*with_jdk=*/true);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  EXPECT_GT(program.value().class_count(), 0u);
}

TEST_F(PipelineFixture, ColdRunBuildsACpg) {
  auto result = open_once({jar_path_});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const Outcome& outcome = out(result);
  EXPECT_FALSE(outcome.warm);
  EXPECT_GT(outcome.stats.class_nodes, 0u);
  EXPECT_GT(outcome.stats.sink_methods, 0u);
  EXPECT_TRUE(outcome.cache_line.empty());
  EXPECT_FALSE(outcome.program.has_value());
}

TEST_F(PipelineFixture, GraphBytesAreTheExactStoreSerialization) {
  // An uncached open freezes under the classpath key too, so the frame
  // (what `analyze --store` writes) is the same bytes with or without a
  // cache.
  auto result = open_once({jar_path_});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const std::uint64_t key = result.value()->fingerprint();
  EXPECT_NE(key, 0u);
  EXPECT_EQ(out(result).frozen.content_key(), key);
  auto program = load_program(read_classpath({jar_path_}), /*with_jdk=*/true);
  ASSERT_TRUE(program.ok());
  graph::FrozenGraph expected = tabby::testing::freeze(cpg::build_cpg(program.value()).db, key);
  EXPECT_TRUE(std::ranges::equal(expected.frame(), out(result).frozen.frame()));
}

TEST_F(PipelineFixture, FailedFreezeIsFatalUnderBothPolicies) {
  // Every reader queries the frozen graph, so there is nothing to fall back
  // to: a freeze fault fails the open even under quarantine.
  for (FailurePolicy policy : {FailurePolicy::kStrict, FailurePolicy::kQuarantine}) {
    util::failpoint::arm();
    util::failpoint::activate("graph.freeze");
    auto result = open_once({jar_path_}, {}, with_policy(policy));
    util::failpoint::disarm();
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("graph freeze failed"), std::string::npos)
        << result.error().message;
  }
}

TEST_F(PipelineFixture, NeedProgramKeepsTheLinkedProgram) {
  OpenOptions opts;
  opts.need_program = true;
  auto result = open_once({jar_path_}, {}, {}, opts);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  ASSERT_TRUE(out(result).program.has_value());
  EXPECT_GT(out(result).program->class_count(), 0u);
}

TEST_F(PipelineFixture, WarmRunIsByteIdenticalToCold) {
  auto uncached = open_once({jar_path_});
  ASSERT_TRUE(uncached.ok()) << uncached.error().to_string();
  auto cold = open_once({jar_path_}, cached(path("cache")));
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_FALSE(out(cold).warm);
  EXPECT_NE(out(cold).cache_line.find("snapshot miss"), std::string::npos);

  auto warm = open_once({jar_path_}, cached(path("cache")));
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(out(warm).warm);
  EXPECT_NE(out(warm).cache_line.find("snapshot hit"), std::string::npos);
  EXPECT_TRUE(std::ranges::equal(out(cold).frozen.frame(), out(warm).frozen.frame()));
  EXPECT_TRUE(std::ranges::equal(out(uncached).frozen.frame(), out(cold).frozen.frame()));
  EXPECT_EQ(out(cold).stats.class_nodes, out(warm).stats.class_nodes);
  EXPECT_EQ(out(cold).stats.relationship_edges, out(warm).stats.relationship_edges);
}

TEST_F(PipelineFixture, WarmRunWithNeedProgramStillLinks) {
  ASSERT_TRUE(open_once({jar_path_}, cached(path("cache"))).ok());  // populate

  OpenOptions opts;
  opts.need_program = true;
  auto warm = open_once({jar_path_}, cached(path("cache")), {}, opts);
  ASSERT_TRUE(warm.ok()) << warm.error().to_string();
  EXPECT_TRUE(out(warm).warm);
  ASSERT_TRUE(out(warm).program.has_value());
  EXPECT_GT(out(warm).program->class_count(), 0u);
}

TEST_F(PipelineFixture, InMemoryOverloadMatchesTheArchivePath) {
  auto program = load_program(read_classpath({jar_path_}), /*with_jdk=*/true);
  ASSERT_TRUE(program.ok());

  Engine engine;
  auto from_program = engine.open(program.value());
  ASSERT_TRUE(from_program.ok());
  auto from_archives = engine.open({jar_path_}, {});
  ASSERT_TRUE(from_archives.ok());
  // A program has no classpath key: its frame is unbound, the graph the same.
  EXPECT_EQ(out(from_program).frozen.content_key(), 0u);
  EXPECT_TRUE(same_graph(out(from_program).frozen, out(from_archives).frozen));
}

TEST_F(PipelineFixture, MakePoolHonorsTheSerialContract) {
  EXPECT_EQ(make_pool(1), nullptr);
  auto pool = make_pool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->concurrency(), 3u);
}

TEST_F(PipelineFixture, ParallelRunMatchesSerialByteForByte) {
  EngineOptions parallel;
  parallel.jobs = 4;
  auto a = open_once({jar_path_});
  auto b = open_once({jar_path_}, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(std::ranges::equal(out(a).frozen.frame(), out(b).frozen.frame()));
}

TEST(Pipeline, DegradationReportRendersOneLinePerUnit) {
  DegradationReport report;
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.to_string(), "");
  report.add("a.tjar", "fs-read", "cannot open", 0);
  report.add("b.tjar", "archive-decode", "bad magic", 12);
  report.deadline_hit = true;
  report.partial_sinks = 2;
  EXPECT_TRUE(report.degraded());
  std::string text = report.to_string();
  EXPECT_NE(text.find("degraded: [fs-read] a.tjar: cannot open"), std::string::npos);
  EXPECT_NE(text.find("degraded: [archive-decode] b.tjar: bad magic (12 byte(s) skipped)"),
            std::string::npos);
  EXPECT_NE(text.find("deadline exceeded"), std::string::npos);
  EXPECT_NE(text.find("2 sink search(es)"), std::string::npos);
}

TEST_F(PipelineFixture, QuarantineSalvagesWhatStrictRejects) {
  // A truncated sibling of the clean archive on the same classpath.
  std::vector<std::byte> bytes = jar::write_archive(corpus::build_component("BeanShell1").jar);
  bytes.resize(bytes.size() / 2);
  std::string bad = path("truncated.tjar");
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_FALSE(open_once({jar_path_, bad}).ok());  // library default: fail fast

  auto result = open_once({jar_path_, bad}, {}, with_policy(FailurePolicy::kQuarantine));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_TRUE(out(result).degradation.degraded());
  ASSERT_EQ(out(result).degradation.units.size(), 1u);
  EXPECT_NE(out(result).degradation.units[0].unit.find("truncated.tjar"), std::string::npos);
  EXPECT_GT(out(result).stats.class_nodes, 0u);  // the clean archive survived
}

TEST_F(PipelineFixture, ExpiredDeadlineDegradesQuarantineAndFailsStrict) {
  ExecContext quarantine = with_policy(FailurePolicy::kQuarantine);
  quarantine.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  auto degraded = open_once({jar_path_}, {}, quarantine);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  EXPECT_TRUE(out(degraded).degradation.deadline_hit);
  EXPECT_TRUE(out(degraded).degradation.degraded());

  ExecContext strict;
  strict.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  EXPECT_FALSE(open_once({jar_path_}, {}, strict).ok());
}

TEST_F(PipelineFixture, GenerousDeadlineLeavesOutputByteIdentical) {
  ExecContext bounded = with_policy(FailurePolicy::kQuarantine);
  bounded.deadline = util::Deadline::after(std::chrono::hours{1});
  auto a = open_once({jar_path_});
  auto b = open_once({jar_path_}, {}, bounded);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(out(b).degradation.degraded());
  EXPECT_TRUE(std::ranges::equal(out(a).frozen.frame(), out(b).frozen.frame()));
}

/// Runs a parallel_for in index order and, before index 1, waits until
/// `deadline` has expired: a load budget that runs out, deterministically,
/// after the first archive's decode.
class ExpireAfterFirst final : public util::Executor {
 public:
  explicit ExpireAfterFirst(const util::Deadline& deadline) : deadline_(deadline) {}
  unsigned concurrency() const override { return 2; }
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) override {
    for (std::size_t i = 0; i < n; ++i) {
      while (i == 1 && !deadline_.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      fn(i);
    }
  }

 private:
  const util::Deadline& deadline_;
};

TEST_F(PipelineFixture, StrictFailsOnALoadBudgetThatExpiresMidLoad) {
  std::string second = path("rome.tjar");
  ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, second).ok());
  for (FailurePolicy policy : {FailurePolicy::kStrict, FailurePolicy::kQuarantine}) {
    std::vector<ArchiveRead> files = read_classpath({jar_path_, second});
    // Long enough for the first archive's decode, which starts at once.
    const util::Deadline deadline = util::Deadline::after(std::chrono::milliseconds{200});
    ExpireAfterFirst executor(deadline);
    DegradationReport report;
    auto program = load_program(std::move(files), /*with_jdk=*/true, &executor, policy, &report,
                                deadline);
    if (policy == FailurePolicy::kStrict) {
      // The budget was live when the load started, so this is not the
      // up-front failure: the skipped archive fails the load.
      ASSERT_FALSE(program.ok());
      EXPECT_NE(program.error().message.find("deadline exceeded during classpath load"),
                std::string::npos)
          << program.error().message;
      EXPECT_NE(program.error().message.find("rome.tjar"), std::string::npos);
    } else {
      ASSERT_TRUE(program.ok()) << program.error().to_string();
      EXPECT_TRUE(report.deadline_hit);
      ASSERT_EQ(report.units.size(), 1u);
      EXPECT_EQ(report.units[0].stage, "deadline");
      EXPECT_EQ(report.units[0].unit, second);
      // The read already had the archive; only its decode was skipped.
      EXPECT_EQ(report.units[0].error, "deadline exceeded before decoding " + second);
    }
  }
}

TEST_F(PipelineFixture, DegradedRunsNeverPublishSnapshots) {
  std::vector<std::byte> bytes = jar::write_archive(corpus::build_component("BeanShell1").jar);
  bytes.resize(bytes.size() * 3 / 4);
  std::string bad = path("truncated2.tjar");
  {
    std::ofstream out(bad, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const EngineOptions options = cached(path("cache_degraded"));
  const ExecContext quarantine = with_policy(FailurePolicy::kQuarantine);

  auto first = open_once({jar_path_, bad}, options, quarantine);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_TRUE(out(first).degradation.degraded());
  EXPECT_FALSE(out(first).warm);

  // The degraded CPG was not published: the identical second run is another
  // cold build (which re-observes and re-reports the same degradation), so
  // a later repaired classpath can never warm-start from the holes.
  auto second = open_once({jar_path_, bad}, options, quarantine);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(out(second).warm);
  EXPECT_TRUE(out(second).degradation.degraded());
  EXPECT_EQ(out(first).stats.class_nodes, out(second).stats.class_nodes);
}

}  // namespace
}  // namespace tabby::pipeline
