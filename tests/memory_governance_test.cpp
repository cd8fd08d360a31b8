// Memory-governed finder tests on the pathological alias/CALL fan-out
// fixture (corpus/stress.hpp): under a frontier byte budget the search is
// partial-not-crash, keeps every chain found so far (a subset of the
// ungoverned run's chains), reports MemoryPressure, and stays bit-identical
// at any worker count. Without a budget the governed code paths are inert.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "corpus/jdk.hpp"
#include "corpus/stress.hpp"
#include "cpg/builder.hpp"
#include "finder/finder.hpp"
#include "jar/archive.hpp"
#include "support/freeze.hpp"
#include "util/deadline.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

// One shared CPG for the whole suite: a scaled-down fan-out classpath (the
// CLI-sized default is for the OOM smoke job, not unit tests).
const graph::FrozenGraph& fixture_db() {
  static graph::FrozenGraph cpg = [] {
    corpus::FanoutStressSpec spec;
    spec.hops = 12;
    spec.aliases = 200;
    spec.call_fans = 4;
    jir::Program program =
        jar::link({corpus::jdk_base_archive(), corpus::fanout_stress_archive(spec)});
    return tabby::testing::freeze(cpg::build_cpg(program, {}).db);
  }();
  return cpg;
}

finder::FinderReport search(std::size_t frontier_pool, util::Executor* executor = nullptr) {
  finder::FinderOptions options;
  options.max_depth = 16;
  options.frontier_byte_pool = frontier_pool;
  options.executor = executor;
  finder::GadgetChainFinder finder(fixture_db(), options);
  return finder.find_all();
}

std::set<std::string> chain_keys(const finder::FinderReport& report) {
  std::set<std::string> keys;
  for (const finder::GadgetChain& chain : report.chains) keys.insert(chain.key());
  return keys;
}

TEST(MemoryGovernance, UngovernedRunFindsTheChainAndStaysInert) {
  finder::FinderReport report = search(0);
  EXPECT_GE(report.chains.size(), 1u);
  bool found_exec = false;
  for (const finder::GadgetChain& chain : report.chains) {
    if (chain.key().find("Runtime#exec") != std::string::npos) found_exec = true;
  }
  EXPECT_TRUE(found_exec);
  // Ungoverned: the byte-accounting fields stay at their zero defaults.
  EXPECT_EQ(report.frontier_pruned, 0u);
  EXPECT_EQ(report.spilled_paths, 0u);
  EXPECT_TRUE(report.partial_sinks.empty());
}

TEST(MemoryGovernance, TinyBudgetIsPartialNotCrash) {
  finder::FinderReport free_run = search(0);
  finder::FinderReport tight = search(64 * 1024);

  // The cap bit: branches were pruned, the affected sinks say so and why.
  EXPECT_GT(tight.frontier_pruned, 0u);
  ASSERT_FALSE(tight.partial_sinks.empty());
  bool saw_memory_reason = false;
  for (const finder::PartialSink& sink : tight.partial_sinks) {
    if (sink.reason == finder::PartialReason::MemoryPressure) saw_memory_reason = true;
  }
  EXPECT_TRUE(saw_memory_reason);

  // The never-lose-work bit: everything found is real (subset of the free
  // run) and the deepest-branch-keeps-going guarantee still lands the one
  // true chain.
  std::set<std::string> free_keys = chain_keys(free_run);
  for (const std::string& key : chain_keys(tight)) {
    EXPECT_EQ(free_keys.count(key), 1u) << "invented chain " << key;
  }
  bool found_exec = false;
  for (const finder::GadgetChain& chain : tight.chains) {
    if (chain.key().find("Runtime#exec") != std::string::npos) found_exec = true;
  }
  EXPECT_TRUE(found_exec);

  // Governed searches stream results out of the engine as spills.
  EXPECT_EQ(tight.spilled_paths, tight.chains.size());
  EXPECT_GT(tight.frontier_bytes_charged, 0u);
  EXPECT_GT(tight.peak_frontier_bytes, 0u);
  EXPECT_LE(tight.peak_frontier_bytes, 64u * 1024);
}

TEST(MemoryGovernance, ChainsSubsetInvariantAcrossBudgets) {
  std::set<std::string> free_keys = chain_keys(search(0));
  for (std::size_t pool : {16u * 1024, 64u * 1024, 256u * 1024, 4u * 1024 * 1024}) {
    finder::FinderReport governed = search(pool);
    for (const std::string& key : chain_keys(governed)) {
      EXPECT_EQ(free_keys.count(key), 1u) << "pool " << pool << " invented chain " << key;
    }
  }
}

TEST(MemoryGovernance, GovernedSearchIsBitIdenticalAtAnyJobCount) {
  finder::FinderReport serial = search(64 * 1024);
  for (int jobs : {2, 4, 8}) {
    util::ThreadPool pool(jobs);
    finder::FinderReport parallel = search(64 * 1024, &pool);
    ASSERT_EQ(serial.chains.size(), parallel.chains.size()) << jobs << " jobs";
    for (std::size_t i = 0; i < serial.chains.size(); ++i) {
      EXPECT_EQ(serial.chains[i].key(), parallel.chains[i].key()) << jobs << " jobs, chain " << i;
    }
    // The frontier byte counts are deterministic too: per-sink shards
    // charge single-threadedly against caps derived from the pool size
    // alone.
    EXPECT_EQ(serial.frontier_pruned, parallel.frontier_pruned) << jobs << " jobs";
    EXPECT_EQ(serial.frontier_bytes_charged, parallel.frontier_bytes_charged) << jobs << " jobs";
    EXPECT_EQ(serial.peak_frontier_bytes, parallel.peak_frontier_bytes) << jobs << " jobs";
    EXPECT_EQ(serial.spilled_paths, parallel.spilled_paths) << jobs << " jobs";
    EXPECT_EQ(serial.partial_sinks.size(), parallel.partial_sinks.size()) << jobs << " jobs";
  }
}

TEST(MemoryGovernance, UngovernedFrontierGrowsLinearlyWithDepth) {
  // A pending branch is a fixed-size record and the ancestors live once, in
  // the current path, so doubling the chain length at most doubles the
  // frontier (depth x fan-out records). A path copy per pending branch
  // would grow it by depth^2 x fan-out path elements, more than 3x here.
  finder::FinderReport shallow = search(0);
  finder::FinderReport deep = [] {
    corpus::FanoutStressSpec spec;
    spec.hops = 24;
    spec.aliases = 200;
    spec.call_fans = 4;
    graph::FrozenGraph cpg = tabby::testing::freeze(
        cpg::build_cpg(
            jar::link({corpus::jdk_base_archive(), corpus::fanout_stress_archive(spec)}), {})
            .db);
    finder::FinderOptions options;
    options.max_depth = 28;
    return finder::GadgetChainFinder(cpg, options).find_all();
  }();
  EXPECT_EQ(shallow.expansions, 2471u);
  EXPECT_EQ(deep.expansions, 4931u);
  ASSERT_GT(shallow.peak_frontier_bytes, 0u);
  EXPECT_LE(deep.peak_frontier_bytes * 10, shallow.peak_frontier_bytes * 22)
      << shallow.peak_frontier_bytes << " -> " << deep.peak_frontier_bytes << " bytes";
}

jir::Program small_fixture_program() {
  corpus::FanoutStressSpec spec;
  spec.hops = 8;
  spec.aliases = 64;
  spec.call_fans = 2;
  return jar::link({corpus::jdk_base_archive(), corpus::fanout_stress_archive(spec)});
}

TEST(MemoryGovernance, CpgDeadlineCutSkipsMethodsNotCrash) {
  jir::Program program = small_fixture_program();
  cpg::CpgOptions expired;
  expired.deadline = util::Deadline::after(std::chrono::milliseconds{0});
  cpg::Cpg cut = cpg::build_cpg(program, expired);
  EXPECT_TRUE(cut.deadline_hit);
  EXPECT_GT(cut.methods_skipped, 0u);
  // The ORG (classes) is already built when the payload loop gets cut; the
  // graph stays structurally usable, just under-summarised.
  EXPECT_GT(cut.stats.class_nodes, 0u);
}

TEST(MemoryGovernance, CpgUnsetGovernanceChangesNothing) {
  jir::Program program = small_fixture_program();
  cpg::Cpg baseline = cpg::build_cpg(program, {});
  EXPECT_FALSE(baseline.deadline_hit);
  EXPECT_EQ(baseline.methods_skipped, 0u);
}

TEST(MemoryGovernance, LooseBudgetMatchesUngovernedChains) {
  // A pool comfortably above the fixture's peak must not change the answer.
  finder::FinderReport free_run = search(0);
  finder::FinderReport roomy = search(512u * 1024 * 1024);
  EXPECT_EQ(chain_keys(free_run), chain_keys(roomy));
  EXPECT_EQ(roomy.frontier_pruned, 0u);
  EXPECT_TRUE(roomy.partial_sinks.empty());
}

}  // namespace
}  // namespace tabby
