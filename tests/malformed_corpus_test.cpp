// Malformed-input corpus: truncated, bit-flipped and garbage-magic .tjar
// files, plus a mid-file corruption inside the class section. Asserts the
// quarantine contract end to end — salvage keeps the clean prefix, the
// degradation report counts what was lost, the CLI maps it to exit 3 (or 1
// under --strict / total loss) — and that the surviving analysis is
// byte-identical at any --jobs count.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "finder/finder.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"
#include "support/find_output.hpp"
#include "util/deadline.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;
using testsupport::strip_timing;

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

class MalformedCorpusFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_malformed_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    clean_bytes_ = jar::write_archive(corpus::build_component("BeanShell1").jar);
    clean_path_ = write("clean.tjar", clean_bytes_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write(const std::string& name, const std::vector<std::byte>& bytes) {
    fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return p.string();
  }

  std::vector<std::byte> truncated(std::size_t keep) const {
    return {clean_bytes_.begin(), clean_bytes_.begin() + static_cast<std::ptrdiff_t>(keep)};
  }

  /// A copy of the clean archive with one bit flipped, at the first offset
  /// past the middle whose flip actually breaks the strict decode (a flip
  /// that merely alters content would not be quarantined — it is
  /// indistinguishable from a different valid archive).
  std::vector<std::byte> bit_flipped_broken() const {
    for (std::size_t offset = clean_bytes_.size() / 2; offset < clean_bytes_.size(); ++offset) {
      std::vector<std::byte> bytes = clean_bytes_;
      bytes[offset] ^= std::byte{0x40};
      if (!jar::read_archive(bytes).ok()) return bytes;
    }
    ADD_FAILURE() << "no decode-breaking bit flip found";
    return clean_bytes_;
  }

  fs::path dir_;
  std::vector<std::byte> clean_bytes_;
  std::string clean_path_;
};

TEST_F(MalformedCorpusFixture, SalvageOfCleanBytesMatchesStrictDecode) {
  jar::DecodeDegradation degradation;
  jar::Archive salvaged = jar::read_archive_salvage(clean_bytes_, degradation);
  auto strict = jar::read_archive(clean_bytes_);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(degradation.error.has_value());
  EXPECT_EQ(degradation.bytes_skipped, 0u);
  EXPECT_EQ(salvaged.classes.size(), strict.value().classes.size());
  EXPECT_EQ(jar::write_archive(salvaged), clean_bytes_);  // bit-identical round trip
}

TEST_F(MalformedCorpusFixture, TruncatedClassSectionSalvagesThePrefix) {
  // Drop the last 10% of the stream: the envelope (header + string pool)
  // survives, the class section is cut mid-record.
  std::size_t clean_classes = jar::read_archive(clean_bytes_).value().classes.size();
  jar::DecodeDegradation degradation;
  jar::Archive salvaged =
      jar::read_archive_salvage(truncated(clean_bytes_.size() * 9 / 10), degradation);
  EXPECT_FALSE(jar::read_archive(truncated(clean_bytes_.size() * 9 / 10)).ok());
  ASSERT_TRUE(degradation.error.has_value());
  EXPECT_GT(salvaged.classes.size(), 0u);  // ...but a clean prefix was salvaged
  EXPECT_LT(salvaged.classes.size(), clean_classes);
  EXPECT_EQ(degradation.classes_kept, salvaged.classes.size());
  EXPECT_GT(degradation.classes_dropped, 0u);
}

TEST_F(MalformedCorpusFixture, GarbageMagicLosesTheWholeArchive) {
  std::vector<std::byte> garbage(64, std::byte{0xAB});
  jar::DecodeDegradation degradation;
  jar::Archive salvaged = jar::read_archive_salvage(garbage, degradation);
  ASSERT_TRUE(degradation.error.has_value());
  EXPECT_TRUE(salvaged.classes.empty());
  EXPECT_EQ(degradation.classes_kept, 0u);
}

TEST_F(MalformedCorpusFixture, QuarantineLoadKeepsTheSurvivors) {
  std::string bad = write("bad.tjar", truncated(40));
  pipeline::DegradationReport report;
  auto program = pipeline::load_program(pipeline::read_classpath({clean_path_, bad}),
                                        /*with_jdk=*/true, nullptr,
                                        pipeline::FailurePolicy::kQuarantine, &report);
  ASSERT_TRUE(program.ok()) << program.error().to_string();
  ASSERT_EQ(report.units.size(), 1u);
  EXPECT_EQ(report.units[0].stage, "archive-decode");
  EXPECT_NE(report.units[0].unit.find("bad.tjar"), std::string::npos);
  EXPECT_GT(program.value().class_count(), 0u);

  // The same classpath fails outright under the strict policy.
  auto strict = pipeline::load_program(pipeline::read_classpath({clean_path_, bad}),
                                       /*with_jdk=*/true, nullptr,
                                       pipeline::FailurePolicy::kStrict);
  EXPECT_FALSE(strict.ok());
}

TEST_F(MalformedCorpusFixture, AllArchivesLostFailsEvenUnderQuarantine) {
  std::string bad = write("bad.tjar", truncated(8));
  pipeline::DegradationReport report;
  auto program = pipeline::load_program(pipeline::read_classpath({bad}), /*with_jdk=*/true,
                                        nullptr, pipeline::FailurePolicy::kQuarantine, &report);
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.error().message.find("bad.tjar"), std::string::npos);
}

TEST_F(MalformedCorpusFixture, CliExitCodesFollowTheTaxonomy) {
  std::string bad = write("bad.tjar", bit_flipped_broken());

  CliRun clean = run_cli_capture({"analyze", clean_path_});
  EXPECT_EQ(clean.code, 0);
  EXPECT_EQ(clean.err.find("degraded:"), std::string::npos);

  CliRun degraded = run_cli_capture({"analyze", clean_path_, bad});
  EXPECT_EQ(degraded.code, 3);
  EXPECT_NE(degraded.err.find("degraded:"), std::string::npos) << degraded.err;

  CliRun strict = run_cli_capture({"analyze", clean_path_, bad, "--strict"});
  EXPECT_EQ(strict.code, 1);
  EXPECT_NE(strict.err.find("error:"), std::string::npos);

  CliRun all_lost = run_cli_capture({"analyze", write("junk.tjar", truncated(4))});
  EXPECT_EQ(all_lost.code, 1);

  CliRun usage = run_cli_capture({"analyze", clean_path_, "--deadline", "nope"});
  EXPECT_EQ(usage.code, 2);

  // Entries that are not regular files are refused before they are opened:
  // a directory (whose stream reports no usable size) and a FIFO (whose
  // open would block until a writer came).
  const std::string directory = (dir_ / "a_directory").string();
  const std::string fifo = (dir_ / "a_fifo").string();
  ASSERT_TRUE(fs::create_directory(directory));
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& entry : {directory, fifo}) {
    SCOPED_TRACE(entry);
    CliRun quarantined = run_cli_capture({"analyze", clean_path_, entry});
    EXPECT_EQ(quarantined.code, 3) << quarantined.err;
    std::size_t fs_read_lines = 0;
    for (std::size_t at = quarantined.err.find("degraded: [fs-read]"); at != std::string::npos;
         at = quarantined.err.find("degraded: [fs-read]", at + 1)) {
      ++fs_read_lines;
      std::string line = quarantined.err.substr(at, quarantined.err.find('\n', at) - at);
      EXPECT_NE(line.find("not a regular file: " + entry), std::string::npos) << line;
    }
    EXPECT_EQ(fs_read_lines, 1u) << quarantined.err;

    CliRun strict_entry = run_cli_capture({"analyze", clean_path_, entry, "--strict"});
    EXPECT_EQ(strict_entry.code, 1);
    EXPECT_NE(strict_entry.err.find(entry), std::string::npos) << strict_entry.err;

    CliRun alone = run_cli_capture({"analyze", entry});
    EXPECT_EQ(alone.code, 1);
    EXPECT_EQ(alone.err.find("unhandled exception"), std::string::npos) << alone.err;

    CliRun store = run_cli_capture({"query", "--store", entry, "MATCH (m:Method) RETURN m.NAME"});
    EXPECT_EQ(store.code, 1);
    EXPECT_EQ(store.err.find("unhandled exception"), std::string::npos) << store.err;
  }
}

TEST_F(MalformedCorpusFixture, SurvivingChainsAreIdenticalAtAnyJobCount) {
  // A classpath with one bit-flipped and one truncated member: the salvage
  // decision is a pure function of the bytes, so the surviving chains (and
  // every other output byte) must not depend on worker count.
  std::string flipped = write("flipped.tjar", bit_flipped_broken());
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));

  CliRun serial = run_cli_capture({"find", clean_path_, flipped, cut, "--jobs", "1"});
  CliRun parallel = run_cli_capture({"find", clean_path_, flipped, cut, "--jobs", "4"});
  EXPECT_EQ(serial.code, 3);
  EXPECT_EQ(parallel.code, 3);
  EXPECT_EQ(strip_timing(serial.out), strip_timing(parallel.out));
  EXPECT_EQ(serial.err, parallel.err);
}

/// What one Engine::open left behind, reduced to the bytes a caller sees.
struct Observed {
  std::string error;        // Error::to_string(), empty on success
  std::string degradation;  // DegradationReport::to_string()
  std::vector<std::string> chain_keys;

  bool operator==(const Observed&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Observed& observed) {
  os << "error: '" << observed.error << "'\ndegradation:\n" << observed.degradation << "chains:";
  for (const std::string& key : observed.chain_keys) os << "\n  " << key;
  return os;
}

/// Drops the one stderr line only a cached run can print.
std::string without_publish_warning(const std::string& err) {
  std::istringstream lines(err);
  std::string line, kept;
  while (std::getline(lines, line)) {
    if (line == "warning: snapshot not published (degraded run)") continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST_F(MalformedCorpusFixture, CachedAndUncachedRunsDegradeIdentically) {
  // A clean archive, one truncated mid-class (a prefix salvages), one with
  // garbage magic and a path that does not exist; plus the clean archive
  // next to the truncated one alone, where strict must keep the byte
  // location of the decode error.
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));
  std::string garbage = write("garbage.tjar", std::vector<std::byte>(64, std::byte{0xAB}));
  std::string missing = (dir_ / "missing.tjar").string();
  const std::vector<std::vector<std::string>> classpaths = {
      {clean_path_, cut, garbage, missing},
      {clean_path_, cut},
  };

  int fresh = 0;  // a fresh cache directory per cached run: nothing warm-starts
  auto observe = [&](const std::vector<std::string>& classpath, pipeline::FailurePolicy policy,
                     int jobs, bool zero_deadline, bool cached) {
    pipeline::EngineOptions options;
    options.jobs = jobs;
    if (cached) options.cache_dir = (dir_ / ("cache" + std::to_string(fresh++))).string();
    pipeline::ExecContext ctx;
    ctx.policy = policy;
    if (zero_deadline) ctx.deadline = util::Deadline::after(std::chrono::milliseconds(0));
    Observed observed;
    auto analysis = pipeline::Engine(options).open(classpath, ctx);
    if (!analysis.ok()) {
      observed.error = analysis.error().to_string();
      return observed;
    }
    const pipeline::Outcome& outcome = analysis.value()->outcome();
    observed.degradation = outcome.degradation.to_string();
    for (const finder::GadgetChain& chain :
         finder::GadgetChainFinder(outcome.frozen).find_all().chains) {
      observed.chain_keys.push_back(chain.key());
    }
    return observed;
  };

  for (const std::vector<std::string>& classpath : classpaths) {
    for (pipeline::FailurePolicy policy :
         {pipeline::FailurePolicy::kQuarantine, pipeline::FailurePolicy::kStrict}) {
      const bool strict = policy == pipeline::FailurePolicy::kStrict;
      for (int jobs : {1, 4}) {
        for (bool zero_deadline : {false, true}) {
          SCOPED_TRACE(std::to_string(classpath.size()) + " archive(s), " +
                       (strict ? "strict" : "quarantine") + ", --jobs " + std::to_string(jobs) +
                       (zero_deadline ? ", --deadline 0ms" : ""));
          EXPECT_EQ(observe(classpath, policy, jobs, zero_deadline, /*cached=*/false),
                    observe(classpath, policy, jobs, zero_deadline, /*cached=*/true));

          std::vector<std::string> args{"find"};
          args.insert(args.end(), classpath.begin(), classpath.end());
          args.insert(args.end(), {"--jobs", std::to_string(jobs)});
          if (strict) args.push_back("--strict");
          if (zero_deadline) args.insert(args.end(), {"--deadline", "0ms"});
          CliRun uncached = run_cli_capture(args);
          args.insert(args.end(), {"--cache", (dir_ / ("cache" + std::to_string(fresh++))).string()});
          CliRun cached = run_cli_capture(args);
          EXPECT_EQ(uncached.code, cached.code);
          EXPECT_EQ(uncached.err, without_publish_warning(cached.err));
        }
      }
    }
  }
}

TEST_F(MalformedCorpusFixture, QuarantinedChainsAreASubsetOfCleanChains) {
  std::string cut = write("cut.tjar", truncated(clean_bytes_.size() / 2));
  CliRun clean = run_cli_capture({"find", clean_path_});
  CliRun degraded = run_cli_capture({"find", clean_path_, cut});
  EXPECT_EQ(clean.code, 0);
  EXPECT_EQ(degraded.code, 3);
  // Dropping input can only remove chains, never invent them: every chain
  // line found on the degraded classpath exists in the clean report.
  std::istringstream lines(degraded.out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find('#') == std::string::npos) continue;  // not a signature line
    EXPECT_NE(clean.out.find(line), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace tabby
