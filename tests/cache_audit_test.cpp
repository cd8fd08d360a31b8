// Tests for the cache self-repair satellite: cache::audit_cache and the
// `tabby cache` subcommand. A bit-flipped fragment or snapshot must be
// detected against its digest, reported with reclaimable bytes, prunable,
// and — the payoff — the next analysis run rebuilds ONLY the pruned entry,
// warm-starting everything else from the surviving fragments.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "util/digest.hpp"

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
    // Warm the cache: two fragments, one whole-classpath snapshot and the
    // frozen frame published next to it.
    CliRun cold = run({"analyze", jar1_, jar2_, "--cache", cache_});
    ASSERT_EQ(cold.code, 0) << cold.err;
    fragments_ = files_in(fs::path(cache_) / "fragments");
    snapshots_ = files_in(fs::path(cache_) / "snapshots", ".tsnp");
    frames_ = files_in(fs::path(cache_) / "snapshots", ".tfzn");
    ASSERT_EQ(fragments_.size(), 2u);
    ASSERT_EQ(snapshots_.size(), 1u);
    ASSERT_EQ(frames_.size(), 1u);
    ASSERT_EQ(files_in(fs::path(cache_) / "snapshots").size(), 2u);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string jar1_, jar2_, cache_;
  std::vector<fs::path> fragments_, snapshots_, frames_;
};

TEST_F(CacheAuditFixture, CleanStoreAuditsClean) {
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().fragments_checked, 2u);
  EXPECT_EQ(report.value().snapshots_checked, 1u);
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
  flip_byte(fragments_[0], fs::file_size(fragments_[0]) / 2);
  auto report = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_FALSE(report.value().clean());
  EXPECT_EQ(report.value().corrupt, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes, fs::file_size(fragments_[0]));
  // Audit without --prune is read-only.
  EXPECT_EQ(report.value().reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::exists(fragments_[0]));

  CliRun cli = run({"cache", cache_});
  EXPECT_EQ(cli.code, 3);
  EXPECT_NE(cli.out.find("corrupt"), std::string::npos) << cli.out;
  EXPECT_NE(cli.out.find("reclaimable"), std::string::npos) << cli.out;
}

TEST_F(CacheAuditFixture, OrphanedTempFilesAreFlagged) {
  std::ofstream(fs::path(cache_) / "fragments" / "orphan.tmp") << "leftover";
  std::ofstream(fs::path(cache_) / "snapshots" / "junk.bin") << "noise";
  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report.value().orphaned, 2u);
  EXPECT_EQ(report.value().corrupt, 0u);
}

TEST_F(CacheAuditFixture, PruneHealsAndOnlyThePrunedFragmentRebuilds) {
  // Corrupt one fragment AND the snapshot: with the snapshot intact a warm
  // run never touches fragments, so rebuilding-only-the-pruned-one needs
  // the snapshot out of the way too.
  flip_byte(fragments_[0], fs::file_size(fragments_[0]) / 2);
  flip_byte(snapshots_[0], fs::file_size(snapshots_[0]) - 8);

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;  // healed store = success
  EXPECT_NE(pruned.out.find("[pruned]"), std::string::npos) << pruned.out;
  EXPECT_NE(pruned.out.find("reclaimed"), std::string::npos) << pruned.out;
  EXPECT_FALSE(fs::exists(fragments_[0]));
  EXPECT_FALSE(fs::exists(snapshots_[0]));
  EXPECT_FALSE(fs::exists(frames_[0])) << "the frame outlived its snapshot";
  EXPECT_TRUE(fs::exists(fragments_[1])) << "prune touched an intact entry";

  // The next run self-heals: the surviving fragment warm-starts, only the
  // pruned one is recomputed, and the snapshot republishes.
  CliRun rebuilt = run({"analyze", jar1_, jar2_, "--cache", cache_});
  EXPECT_EQ(rebuilt.code, 0) << rebuilt.err;
  EXPECT_NE(rebuilt.out.find("snapshot miss"), std::string::npos) << rebuilt.out;
  EXPECT_NE(rebuilt.out.find("fragments 1/2 hit"), std::string::npos) << rebuilt.out;

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean()) << report.value().to_string();
  EXPECT_EQ(report.value().fragments_checked, 2u);
  EXPECT_EQ(report.value().snapshots_checked, 1u);
  EXPECT_EQ(report.value().frozen_checked, 1u);
}

TEST_F(CacheAuditFixture, VerdictFramesRoundTripAndRejectKeyMismatches) {
  auto opened = cache::AnalysisCache::open(cache_);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  cache::AnalysisCache& store = opened.value();

  cache::CachedVerdict verdict;
  verdict.verdict = 1;  // REFUTED
  verdict.reason = 0;
  verdict.steps = 42;
  verdict.detail = "guard not taken";
  ASSERT_TRUE(store.store_verdict(0xabc123, verdict).ok());

  auto loaded = store.load_verdict(0xabc123);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->verdict, verdict.verdict);
  EXPECT_EQ(loaded->reason, verdict.reason);
  EXPECT_EQ(loaded->steps, verdict.steps);
  EXPECT_EQ(loaded->detail, verdict.detail);
  EXPECT_FALSE(store.load_verdict(0xdef456).has_value());

  // A frame copied to another key's slot (collision, tampering) misses: the
  // embedded key must match the requested one.
  fs::path verdicts = fs::path(cache_) / "verdicts";
  fs::copy_file(verdicts / (util::digest_hex(0xabc123) + ".tvdt"),
                verdicts / (util::digest_hex(0xdef456) + ".tvdt"));
  EXPECT_FALSE(store.load_verdict(0xdef456).has_value());
}

TEST_F(CacheAuditFixture, CorruptVerdictFrameIsDetectedAndPruned) {
  {
    auto opened = cache::AnalysisCache::open(cache_);
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    cache::CachedVerdict verdict;
    verdict.verdict = 0;
    verdict.steps = 7;
    ASSERT_TRUE(opened.value().store_verdict(0x77, verdict).ok());
  }

  auto clean = cache::audit_cache(cache_, /*prune=*/false);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.value().clean());
  EXPECT_EQ(clean.value().verdicts_checked, 1u);
  EXPECT_NE(clean.value().to_string().find("1 verdict(s)"), std::string::npos)
      << clean.value().to_string();

  std::vector<fs::path> frames = files_in(fs::path(cache_) / "verdicts");
  ASSERT_EQ(frames.size(), 1u);
  flip_byte(frames[0], fs::file_size(frames[0]) / 2);

  auto report = cache::audit_cache(cache_, false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().corrupt, 1u);
  EXPECT_EQ(report.value().reclaimable_bytes, fs::file_size(frames[0]));

  CliRun pruned = run({"cache", cache_, "--prune"});
  EXPECT_EQ(pruned.code, 0) << pruned.out;
  EXPECT_FALSE(fs::exists(frames[0]));
  auto healed = cache::audit_cache(cache_, false);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed.value().clean());
  EXPECT_EQ(healed.value().verdicts_checked, 0u);
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
