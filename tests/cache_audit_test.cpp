// Tests for the cache self-repair satellite: cache::audit_cache and the
// `tabby cache` subcommand. A bit-flipped frame (a classpath's whole entry)
// must be detected against its key, reported with reclaimable bytes and
// prunable, without touching intact entries; the next analysis run
// republishes what was pruned. Fragments and verdicts left by older layouts
// (one file per archive, one per verified chain), and store snapshots
// without an intact frame, are orphans.
// Also: concurrent publishes of one entry never tear a reader.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "graph/graph.hpp"
#include "jar/archive.hpp"
#include "support/freeze.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  CliRun result;
  result.code = cli::run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

void flip_byte(const fs::path& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.get(byte);
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(byte ^ 0x5a));
}

/// Files in `dir`, optionally only those with `extension`.
std::vector<fs::path> files_in(const fs::path& dir, const std::string& extension = "") {
  std::vector<fs::path> files;
  if (!fs::exists(dir)) return files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (extension.empty() || entry.path().extension() == extension) {
      files.push_back(entry.path());
    }
  }
  return files;
}

class CacheAuditFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_cache_audit_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar1_ = (dir_ / "one.tjar").string();
    jar2_ = (dir_ / "two.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar1_).ok());
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, jar2_).ok());
    cache_ = (dir_ / "cache").string();
    // Warm the cache: the whole-classpath entry is one frozen frame.
    // Archives themselves are not cached.
    CliRun cold = run({"analyze", jar1_, jar2_, "--cache", cache_});
    ASSERT_EQ(cold.code, 0) << cold.err;
    ASSERT_FALSE(fs::exists(fs::path(cache_) / "fragments"));
    frames_ = files_in(fs::path(cache_) / "snapshots", ".tfzn");
    ASSERT_EQ(frames_.size(), 1u);
    ASSERT_EQ(files_in(fs::path(cache_) / "snapshots").size(), 1u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string jar1_, jar2_, cache_;
  std::vector<fs::path> frames_;
};

TEST_F(CacheAuditFixture, CleanStoreAuditsClean) {
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().fragments_checked, 0u);
  EXPECT_EQ(report.value().snapshots_checked, 0u);
  EXPECT_EQ(report.value().frozen_checked, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes, 0u);

  CliRun cli = run({"cache", cache_});
  EXPECT_EQ(cli.code, 0) << cli.out;
}

TEST_F(CacheAuditFixture, MissingDirectoryIsAnError) {
  auto report = cache::audit_cache(dir_ / "nonexistent", false);
  EXPECT_FALSE(report.ok());
  CliRun cli = run({"cache", (dir_ / "nonexistent").string()});
  EXPECT_EQ(cli.code, 1);
}

TEST_F(CacheAuditFixture, BitFlipIsDetectedWithReclaimableBytes) {
  flip_byte(frames_[0], fs::file_size(frames_[0]) / 2);
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_FALSE(report.value().clean());
  EXPECT_EQ(report.value().corrupt, 1u);
  EXPECT_EQ(report.value().orphaned, 0u);
  EXPECT_EQ(report.value().reclaimable_bytes, fs::file_size(frames_[0]));
  // Audit without --prune is read-only.
  EXPECT_EQ(report.value().reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::exists(frames_[0]));

  CliRun cli = run({"cache", cache_});
  EXPECT_EQ(cli.code, 3);
  EXPECT_NE(cli.out.find("corrupt"), std::string::npos) << cli.out;
  EXPECT_NE(cli.out.find("reclaimable"), std::string::npos) << cli.out;
}

TEST_F(CacheAuditFixture, OrphanedTempFilesAreFlagged) {
  // A publisher that died between write and rename leaves its private temp.
  fs::path leftover = frames_[0];
  leftover += ".4242.0.tmp";
  std::ofstream(leftover) << "leftover";
  std::ofstream(fs::path(cache_) / "snapshots" / "junk.bin") << "noise";
  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
  EXPECT_NE(report.value().to_string().find("leftover temp file"), std::string::npos)
      << report.value().to_string();
}

TEST_F(CacheAuditFixture, LegacyFragmentsAreOrphansThatPruneReclaims) {
  // An older cache layout kept one fragment per archive; nothing reads them.
  fs::path fragments = fs::path(cache_) / "fragments";
  fs::create_directories(fragments);
  std::ofstream(fragments / "0123456789abcdef.tfrag") << "fragment";
  std::ofstream(fragments / "0123456789abcdef.tfrag.tmp") << "leftover";

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
  EXPECT_EQ(report.value().fragments_checked, 0u);
  EXPECT_NE(report.value().to_string().find("per-archive fragment"), std::string::npos)
      << report.value().to_string();

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;
  EXPECT_FALSE(fs::exists(fragments));
  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean()) << healed.value().to_string();
  CliRun warm = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
}

TEST_F(CacheAuditFixture, LegacyVerdictsAreOrphansThatPruneReclaims) {
  // An older cache layout kept one `--verify` verdict per chain; nothing
  // reads them.
  fs::path verdicts = fs::path(cache_) / "verdicts";
  fs::create_directories(verdicts);
  std::ofstream(verdicts / "0123456789abcdef.tvdt") << "verdict";
  std::ofstream(verdicts / "0123456789abcdef.tvdt.4242.0.tmp") << "leftover";

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
  EXPECT_EQ(report.value().frozen_checked, 1u);
  std::string text = report.value().to_string();
  EXPECT_NE(text.find("orphaned: verdicts/0123456789abcdef.tvdt"), std::string::npos) << text;
  EXPECT_NE(text.find("cached verdict (no longer read)"), std::string::npos) << text;
  EXPECT_NE(text.find("leftover temp file"), std::string::npos) << text;
  CliRun audit = run({"cache", cache_});
  EXPECT_EQ(audit.code, 3) << audit.out;

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;
  EXPECT_FALSE(fs::exists(verdicts));
  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean()) << healed.value().to_string();
  CliRun warm = run({"find", jar1_, jar2_, "--verify", "--cache", cache_});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
  EXPECT_FALSE(fs::exists(verdicts)) << "a verify run wrote verdicts again";
}

TEST_F(CacheAuditFixture, PruneHealsAndTheNextRunRepublishesThePrunedEntries) {
  // An intact bystander entry that prune must leave alone: a second
  // classpath's frame.
  CliRun other = run({"analyze", jar1_, "--cache", cache_});
  ASSERT_EQ(other.code, 0) << other.err;
  std::vector<fs::path> bystanders;
  for (const fs::path& frame : files_in(fs::path(cache_) / "snapshots", ".tfzn")) {
    if (frame != frames_[0]) bystanders.push_back(frame);
  }
  ASSERT_EQ(bystanders.size(), 1u);
  // A corrupt frame, and the store snapshot an older layout kept next to it:
  // without an intact frame of its key the snapshot is an orphan.
  flip_byte(frames_[0], fs::file_size(frames_[0]) - 8);
  fs::path snapshot = frames_[0];
  snapshot.replace_extension(".tsnp");
  std::ofstream(snapshot) << "an older layout's store snapshot";

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().corrupt, 1u);
  EXPECT_EQ(report.value().orphaned, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes,
            fs::file_size(snapshot) + fs::file_size(frames_[0]));

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;  // healed store = success
  EXPECT_NE(pruned.out.find("[pruned]"), std::string::npos) << pruned.out;
  EXPECT_NE(pruned.out.find("reclaimed"), std::string::npos) << pruned.out;
  EXPECT_FALSE(fs::exists(frames_[0]));
  EXPECT_FALSE(fs::exists(snapshot)) << "the snapshot outlived its frame";
  EXPECT_TRUE(fs::exists(bystanders[0])) << "prune touched an intact entry";

  // The next run self-heals: it rebuilds and republishes the frame.
  CliRun rebuilt = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(rebuilt.code, 0) << rebuilt.err;
  EXPECT_NE(rebuilt.out.find("snapshot miss"), std::string::npos) << rebuilt.out;

  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean()) << healed.value().to_string();
  EXPECT_EQ(healed.value().snapshots_checked, 0u);
  EXPECT_EQ(healed.value().frozen_checked, 2u);
  CliRun warm = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_NE(warm.out.find("snapshot hit"), std::string::npos) << warm.out;
}

// Two daemon requests that open the same uncached classpath, or two `find
// --cache` processes on one directory, publish the same entry at once. Each
// publish must stay private until its rename, so a reader that maps the
// entry meanwhile sees one whole frame or another, never a torn one.
TEST(CachePublish, ConcurrentPublishesOfOneKeyNeverTearAReader) {
  fs::path dir = fs::temp_directory_path() / ("tabby_cache_publish_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  constexpr std::uint64_t kKey = 0x5eed;
  // A frame of a few megabytes, so one publish takes long enough to overlap
  // the others.
  graph::GraphDb db;
  constexpr std::size_t kNodes = 30000;
  std::vector<graph::NodeId> ids;
  for (std::size_t i = 0; i < kNodes; ++i) {
    ids.push_back(db.add_node("Method"));
    db.set_node_prop(ids.back(), "NAME", graph::Value{"method-" + std::to_string(i)});
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    db.add_edge(ids[i], ids[(i + 1) % kNodes], "CALL");
    db.add_edge(ids[i], ids[(i * 7) % kNodes], "ALIAS");
  }
  graph::FrozenGraph frame = testing::freeze(db, kKey);
  ASSERT_GT(frame.frame().size(), 1u << 20);

  constexpr int kWriters = 4;
  constexpr int kPublishes = 20;
  std::atomic<int> writers_running{kWriters};
  std::atomic<bool> published{false};
  std::atomic<int> failed_publishes{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      auto cache = cache::AnalysisCache::open(dir);
      for (int i = 0; cache.ok() && i < kPublishes; ++i) {
        if (cache.value().store_frozen(kKey, frame).ok()) {
          published.store(true);
        } else {
          ++failed_publishes;
        }
      }
      if (!cache.ok()) ++failed_publishes;
      --writers_running;
    });
  }

  std::size_t loads = 0;
  std::size_t misses = 0;
  auto reader = cache::AnalysisCache::open(dir);
  while (reader.ok() && writers_running.load() > 0) {
    bool after_first_publish = published.load();
    std::optional<graph::FrozenGraph> loaded = reader.value().load_frozen(kKey);
    if (!after_first_publish) continue;
    ++loads;
    if (!loaded.has_value() || loaded->node_count() != frame.node_count()) ++misses;
  }
  for (std::thread& writer : writers) writer.join();

  ASSERT_TRUE(reader.ok()) << reader.error().message;
  EXPECT_EQ(failed_publishes.load(), 0);
  EXPECT_EQ(misses, 0u) << "of " << loads << " load(s) after the first publish";
  EXPECT_TRUE(reader.value().load_frozen(kKey).has_value());
  EXPECT_TRUE(files_in(dir / "snapshots", ".tmp").empty()) << "a publish left its temp file";
  fs::remove_all(dir);
}

TEST_F(CacheAuditFixture, CacheFlagFormAndUsageErrors) {
  CliRun flagged = run({"cache", "--cache", cache_});
  EXPECT_EQ(flagged.code, 0) << flagged.out;
  CliRun missing = run({"cache"});
  EXPECT_EQ(missing.code, 2);
  CliRun extra = run({"cache", cache_, cache_});
  EXPECT_EQ(extra.code, 2);
}

}  // namespace
}  // namespace tabby
