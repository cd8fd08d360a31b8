// The supervised runtime re-validation post-pass (src/finder/verify): the
// structured EFFECTIVE / REFUTED / UNCONFIRMED(reason) taxonomy, and — at
// every layer from finder::verify_chains up through the CLI and the serve
// daemon — the three contracts the stage exists for:
//
//   1. verdicts are byte-identical at any executor size and any
//      `--verify-workers` count, including under absorbed worker crashes;
//   2. a VM fault, hang or crash on one chain demotes that chain to
//      UNCONFIRMED (kept, never dropped; exit 3, --strict: 1) and never
//      kills the coordinator;
//   3. every chain gets exactly one verdict, with a machine-readable reason,
//      replayed on every run: a cache directory holds frames only.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "corpus/jdk.hpp"
#include "cpg/builder.hpp"
#include "finder/finder.hpp"
#include "finder/verify.hpp"
#include "graph/frozen.hpp"
#include "jar/archive.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/find_output.hpp"
#include "support/freeze.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

using testsupport::strip_timing;

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Every test leaves the process-global failpoint harness disarmed so
/// ordering never matters (the chaos tests arm it programmatically).
class VerifyFixture : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoint::disarm(); }
  void TearDown() override {
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
  }

  /// Unit-test friendly supervision timings (as in dist_test).
  static dist::DistOptions fast(int workers) {
    dist::DistOptions options;
    options.workers = workers;
    options.heartbeat_interval = 20ms;
    options.hang_timeout = 250ms;
    return options;
  }
};

/// One shared linked program + CPG + statically-found chains for the whole
/// suite (BeanShell1 against the jdk base — the shape the CLI builds). The
/// component carries one effective chain and two VM-refutable ones.
struct VerifyWorld {
  jir::Program program;
  graph::FrozenGraph cpg;
  std::vector<finder::GadgetChain> chains;
};

const VerifyWorld& world() {
  static VerifyWorld w = [] {
    jir::Program program =
        jar::link({corpus::jdk_base_archive(), corpus::build_component("BeanShell1").jar});
    graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(program, {}).db);
    std::vector<finder::GadgetChain> chains =
        finder::GadgetChainFinder(cpg, {}).find_all().chains;
    return VerifyWorld{std::move(program), std::move(cpg), std::move(chains)};
  }();
  return w;
}

/// The full deterministic rendering of a report: taxonomy line, detail and
/// step count per chain — what "byte-identical" means below.
std::string verdict_text(const finder::VerifyReport& report) {
  std::string text;
  for (const finder::ChainVerdict& v : report.verdicts) {
    text += finder::verdict_line(v);
    text += " | ";
    text += v.detail;
    text += " | ";
    text += std::to_string(v.steps);
    text += "\n";
  }
  return text;
}

finder::VerifyReport run_verify(const finder::VerifyOptions& options) {
  finder::AliasView aliases(world().cpg);
  return finder::verify_chains(world().program, aliases, world().chains, options);
}

// --- finder::verify_chains -------------------------------------------------

TEST_F(VerifyFixture, EveryChainGetsExactlyOneClassifiedVerdict) {
  finder::VerifyReport report = run_verify({});
  ASSERT_GE(world().chains.size(), 2u);
  ASSERT_EQ(report.verdicts.size(), world().chains.size());
  EXPECT_EQ(report.effective + report.refuted + report.unconfirmed, world().chains.size());
  EXPECT_GE(report.effective, 1u);  // the planted BeanShell1 chain fires
  EXPECT_GE(report.refuted, 1u);    // the guarded/uncontrollable ones die
  EXPECT_EQ(report.unconfirmed, 0u);
  EXPECT_FALSE(report.degraded());
  EXPECT_GT(report.steps_total, 0u);
  for (const finder::ChainVerdict& v : report.verdicts) {
    if (v.verdict == finder::Verdict::Effective) {
      EXPECT_EQ(finder::verdict_line(v), "EFFECTIVE");
      EXPECT_EQ(v.reason, finder::UnconfirmedReason::None);
      EXPECT_GT(v.steps, 0u);
    }
  }
}

TEST_F(VerifyFixture, NoChainsMeansAnEmptyCleanReport) {
  finder::AliasView aliases(world().cpg);
  finder::VerifyReport report =
      finder::verify_chains(world().program, aliases, {}, finder::VerifyOptions{});
  EXPECT_TRUE(report.verdicts.empty());
  EXPECT_FALSE(report.degraded());
}

TEST_F(VerifyFixture, VerdictsAreByteIdenticalAtAnyExecutorAndWorkerCount) {
  finder::VerifyReport serial = run_verify({});
  std::string baseline = verdict_text(serial);

  util::ThreadPool pool(4);
  finder::VerifyOptions pooled;
  pooled.executor = &pool;
  EXPECT_EQ(verdict_text(run_verify(pooled)), baseline) << "in-process pool";

  for (int workers : {1, 2, 4}) {
    finder::VerifyOptions options;
    options.dist = fast(workers);
    finder::VerifyReport dist = run_verify(options);
    EXPECT_EQ(verdict_text(dist), baseline) << "verify-workers=" << workers;
    EXPECT_GT(dist.dist_stats.workers_spawned, 0u);
    EXPECT_EQ(dist.dist_stats.crashes, 0u);
  }
}

TEST_F(VerifyFixture, StepBudgetExhaustionDemotesToUnconfirmedBudget) {
  finder::VerifyOptions options;
  options.max_steps_per_chain = 1;  // any chain that actually runs exceeds it
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.effective, 0u);
  ASSERT_GE(report.unconfirmed, 1u);
  EXPECT_TRUE(report.degraded());
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const finder::ChainVerdict& v = report.verdicts[i];
    if (v.verdict != finder::Verdict::Unconfirmed) continue;
    EXPECT_EQ(v.reason, finder::UnconfirmedReason::Budget);
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(budget)");
    EXPECT_NE(v.detail.find("step budget exceeded"), std::string::npos) << v.detail;
    EXPECT_NE(finder::degraded_line(world().chains[i], v).find("degraded: [verify-budget] "),
              std::string::npos);
  }
}

TEST_F(VerifyFixture, ExpiredDeadlineDemotesEveryChainWithoutExecuting) {
  finder::VerifyOptions options;
  options.deadline = util::Deadline::after(0ms);
  finder::VerifyReport report = run_verify(options);
  EXPECT_EQ(report.unconfirmed, world().chains.size());
  EXPECT_EQ(report.steps_total, 0u);
  for (const finder::ChainVerdict& v : report.verdicts) {
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(timeout)");
    EXPECT_EQ(v.detail, "verify deadline expired before the chain ran");
    EXPECT_EQ(v.steps, 0u);
  }
}

TEST_F(VerifyFixture, InProcessChaosLandsOnTheSameChainAtAnyJobCount) {
  // The chaos decision is serial in chain order, so `site*1` demotes the
  // same (first) chain whether the shards then run serially or on a pool.
  auto run_with_one_crash = [this](util::Executor* executor) {
    util::failpoint::arm();
    util::failpoint::activate("runtime.verify.crash", 1);
    finder::VerifyOptions options;
    options.executor = executor;
    finder::VerifyReport report = run_verify(options);
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
    return report;
  };

  finder::VerifyReport serial = run_with_one_crash(nullptr);
  EXPECT_EQ(serial.unconfirmed, 1u);
  EXPECT_EQ(serial.verdicts[0].verdict, finder::Verdict::Unconfirmed);
  EXPECT_EQ(serial.verdicts[0].reason, finder::UnconfirmedReason::Crash);
  EXPECT_NE(serial.verdicts[0].detail.find("runtime.verify.crash"), std::string::npos);

  util::ThreadPool pool(4);
  finder::VerifyReport pooled = run_with_one_crash(&pool);
  EXPECT_EQ(verdict_text(pooled), verdict_text(serial));
}

TEST_F(VerifyFixture, InProcessHangChaosDemotesToTimeout) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.hang", 1);
  finder::VerifyReport report = run_verify({});
  ASSERT_GE(report.verdicts.size(), 1u);
  EXPECT_EQ(report.verdicts[0].verdict, finder::Verdict::Unconfirmed);
  EXPECT_EQ(report.verdicts[0].reason, finder::UnconfirmedReason::Timeout);
  EXPECT_NE(finder::degraded_line(world().chains[0], report.verdicts[0])
                .find("degraded: [verify-timeout] "),
            std::string::npos);
}

TEST_F(VerifyFixture, DistAbsorbedCrashKeepsVerdictBytes) {
  finder::VerifyReport serial = run_verify({});
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash", 1);
  finder::VerifyOptions options;
  options.dist = fast(2);
  finder::VerifyReport dist = run_verify(options);
  EXPECT_EQ(verdict_text(dist), verdict_text(serial));
  EXPECT_EQ(dist.unconfirmed, 0u);
  EXPECT_EQ(dist.dist_stats.crashes, 1u);
  EXPECT_GE(dist.dist_stats.retries, 1u);
  EXPECT_EQ(util::failpoint::fired("runtime.verify.crash"), 1u);
}

TEST_F(VerifyFixture, DistAbsorbedHangKeepsVerdictBytes) {
  finder::VerifyReport serial = run_verify({});
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.hang", 1);
  finder::VerifyOptions options;
  options.dist = fast(1);
  finder::VerifyReport dist = run_verify(options);
  EXPECT_EQ(verdict_text(dist), verdict_text(serial));
  EXPECT_GE(dist.dist_stats.heartbeat_misses, 1u);
  EXPECT_GE(dist.dist_stats.crashes, 1u);  // the hung verifier is SIGKILLed
}

TEST_F(VerifyFixture, DistRetryExhaustionDemotesEveryChainNotTheCoordinator) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited: every dispatch dies
  finder::VerifyOptions options;
  options.dist = fast(2);
  finder::VerifyReport report = run_verify(options);
  ASSERT_EQ(report.verdicts.size(), world().chains.size());
  EXPECT_EQ(report.unconfirmed, world().chains.size());
  for (std::size_t i = 0; i < report.verdicts.size(); ++i) {
    const finder::ChainVerdict& v = report.verdicts[i];
    EXPECT_EQ(finder::verdict_line(v), "UNCONFIRMED(crash)");
    EXPECT_NE(v.detail.find("worker crashed"), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find("3 attempts"), std::string::npos) << v.detail;
    std::string line = finder::degraded_line(world().chains[i], v);
    EXPECT_NE(line.find("degraded: [verify-crash] "), std::string::npos) << line;
    EXPECT_NE(line.find("; chain kept as UNCONFIRMED"), std::string::npos) << line;
  }
}

// --- CLI -------------------------------------------------------------------

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

class VerifyCliFixture : public VerifyFixture {
 protected:
  void SetUp() override {
    VerifyFixture::SetUp();
    dir_ = fs::temp_directory_path() / ("tabby_verify_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_ = (dir_ / "beanshell.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_).ok());
  }

  void TearDown() override {
    fs::remove_all(dir_);
    VerifyFixture::TearDown();
  }

  fs::path dir_;
  std::string jar_;
};

TEST_F(VerifyCliFixture, CliVerifyIsByteIdenticalAtAnyVerifyWorkerCount) {
  CliRun base = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(base.code, 0) << base.err;
  EXPECT_NE(base.out.find("auto-verify: EFFECTIVE"), std::string::npos) << base.out;
  EXPECT_NE(base.out.find("auto-verify: REFUTED"), std::string::npos) << base.out;
  EXPECT_NE(base.out.find("chains confirmed effective"), std::string::npos) << base.out;
  EXPECT_EQ(base.out.find("unconfirmed"), std::string::npos) << base.out;
  for (const char* workers : {"1", "2", "4"}) {
    CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", workers});
    EXPECT_EQ(dist.code, 0) << dist.err;
    EXPECT_EQ(strip_timing(dist.out), strip_timing(base.out)) << "verify-workers=" << workers;
    EXPECT_EQ(dist.err, base.err) << "verify-workers=" << workers;
  }
}

TEST_F(VerifyCliFixture, CliVerifyAbsorbsACrashByteIdentically) {
  CliRun base = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(base.code, 0) << base.err;
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash", 2);
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2"});
  EXPECT_EQ(dist.code, 0) << dist.err;
  EXPECT_EQ(strip_timing(dist.out), strip_timing(base.out));
  EXPECT_EQ(dist.err, base.err);
}

TEST_F(VerifyCliFixture, CliVerifyRetryExhaustionExitsDegradedWithChainsKept) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2"});
  EXPECT_EQ(dist.code, 3);  // degraded, never a coordinator crash
  EXPECT_NE(dist.out.find("0/"), std::string::npos) << dist.out;
  EXPECT_NE(dist.out.find("unconfirmed"), std::string::npos) << dist.out;
  EXPECT_NE(dist.out.find("auto-verify: UNCONFIRMED(crash)"), std::string::npos) << dist.out;
  EXPECT_NE(dist.err.find("degraded: [verify-crash] "), std::string::npos) << dist.err;
  EXPECT_NE(dist.err.find("; chain kept as UNCONFIRMED"), std::string::npos) << dist.err;
  // The chains themselves stay in the report: same chain count as a clean run.
  util::failpoint::deactivate_all();
  util::failpoint::disarm();
  CliRun clean = run_cli_capture({"find", jar_});
  std::size_t clean_arrows = 0, degraded_arrows = 0;
  for (std::size_t pos = 0; (pos = clean.out.find(" -> ", pos)) != std::string::npos; ++pos)
    ++clean_arrows;
  for (std::size_t pos = 0; (pos = dist.out.find(" -> ", pos)) != std::string::npos; ++pos)
    ++degraded_arrows;
  EXPECT_EQ(degraded_arrows, clean_arrows);
}

TEST_F(VerifyCliFixture, CliStrictPromotesUnconfirmedToFatal) {
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");
  CliRun dist = run_cli_capture({"find", jar_, "--verify", "--verify-workers", "2", "--strict"});
  EXPECT_EQ(dist.code, 1);
  EXPECT_NE(dist.err.find("error: runtime re-validation left"), std::string::npos) << dist.err;
  EXPECT_NE(dist.err.find("UNCONFIRMED"), std::string::npos) << dist.err;
}

TEST_F(VerifyCliFixture, CliVmFaultChaosDegradesInsteadOfCrashing) {
  // runtime.step fires inside the interpreter loop: the poisoned chain is
  // demoted to UNCONFIRMED(fault); the run survives and says why.
  util::failpoint::arm();
  util::failpoint::activate("runtime.step", 1);
  CliRun run = run_cli_capture({"find", jar_, "--verify"});
  EXPECT_EQ(run.code, 3) << run.err;
  EXPECT_NE(run.out.find("auto-verify: UNCONFIRMED(fault)"), std::string::npos) << run.out;
  EXPECT_NE(run.err.find("degraded: [verify-fault] "), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("interpreter fault injected"), std::string::npos) << run.err;

  // Recovery: the next (disarmed) run is clean again.
  util::failpoint::deactivate_all();
  util::failpoint::disarm();
  CliRun clean = run_cli_capture({"find", jar_, "--verify"});
  EXPECT_EQ(clean.code, 0) << clean.err;
}

TEST_F(VerifyCliFixture, CliWarmVerdictCacheIsByteIdenticalAndAuditable) {
  // No verdict is cached: a warm run replays every chain and prints the
  // cold run's bytes; only the snapshot-cache header flips miss -> hit.
  std::string cache_dir = (dir_ / "cache").string();
  CliRun cold = run_cli_capture({"find", jar_, "--verify", "--cache", cache_dir});
  ASSERT_EQ(cold.code, 0) << cold.err;
  EXPECT_NE(cold.out.find("cache: snapshot miss"), std::string::npos) << cold.out;
  CliRun warm = run_cli_capture({"find", jar_, "--verify", "--cache", cache_dir});
  EXPECT_EQ(warm.code, 0) << warm.err;
  EXPECT_NE(warm.out.find("cache: snapshot hit"), std::string::npos) << warm.out;
  auto strip_cache_header = [](const std::string& text) {
    std::istringstream lines(text);
    std::string line, kept;
    while (std::getline(lines, line)) {
      if (line.rfind("cache: ", 0) == 0) continue;
      kept += line;
      kept += '\n';
    }
    return kept;
  };
  EXPECT_EQ(strip_cache_header(strip_timing(warm.out)), strip_cache_header(strip_timing(cold.out)));
  EXPECT_EQ(warm.err, cold.err);

  // The directory holds exactly the classpath's frame, snapshots/<key>.tfzn
  // under the key the cache line names, and no verdicts/.
  std::size_t key_at = cold.out.find("(key ");
  ASSERT_NE(key_at, std::string::npos) << cold.out;
  std::string key = cold.out.substr(key_at + 5, 16);
  std::vector<std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(cache_dir)) {
    files.push_back(fs::relative(entry.path(), cache_dir).generic_string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"snapshots", "snapshots/" + key + ".tfzn"}));

  CliRun audit = run_cli_capture({"cache", cache_dir});
  EXPECT_EQ(audit.code, 0) << audit.out;
  EXPECT_NE(audit.out.find("1 frozen frame(s), 0 corrupt, 0 orphaned"), std::string::npos)
      << audit.out;
}

// --- serve -----------------------------------------------------------------

class VerifyServeFixture : public VerifyCliFixture {
 protected:
  void TearDown() override {
    stop_daemon();
    VerifyCliFixture::TearDown();
  }

  void start_daemon() {
    static int counter = 0;
    socket_ = "/tmp/tvfy_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
    std::vector<std::string> args{"serve", socket_};
    daemon_ = std::thread([this, args] { daemon_code_ = cli::run_cli(args, daemon_out_, daemon_err_); });
  }

  void stop_daemon() {
    if (!daemon_.joinable()) return;
    run_cli_capture({"client", socket_, "shutdown"});
    daemon_.join();
    EXPECT_EQ(daemon_code_, 0) << daemon_err_.str();
  }

  std::optional<serve::Json> round_trip(const serve::Json& request) {
    auto reply = serve::client_request(socket_, request.dump());
    if (!reply.ok()) {
      ADD_FAILURE() << "client_request failed: " << reply.error().to_string();
      return std::nullopt;
    }
    return serve::Json::parse(reply.value());
  }

  serve::Json verify_request() const {
    serve::Json request = serve::Json::object();
    request.set("op", "find");
    serve::Json jars = serve::Json::array();
    jars.push(serve::Json::string(jar_));
    request.set("classpath", std::move(jars));
    request.set("verify", true);
    return request;
  }

  std::string socket_;
  std::thread daemon_;
  int daemon_code_ = -1;
  std::ostringstream daemon_out_;
  std::ostringstream daemon_err_;
};

TEST_F(VerifyServeFixture, ServeVerifyMatchesOneShotAndSurfacesVerdictCounts) {
  CliRun one_shot = run_cli_capture({"find", jar_, "--verify"});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon();
  auto response = round_trip(verify_request());
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_EQ(strip_timing(response->str("text")), strip_timing(one_shot.out));
  EXPECT_TRUE(response->flag("verified"));
  EXPECT_GE(response->num("effective"), 1.0);
  EXPECT_EQ(response->num("unconfirmed"), 0.0);
  EXPECT_EQ(response->num("effective") + response->num("refuted") + response->num("unconfirmed"),
            static_cast<double>(world().chains.size()));
}

TEST_F(VerifyServeFixture, ServeVerifyExhaustionReportsUnconfirmedChainsStructurally) {
  start_daemon();
  util::failpoint::arm();
  util::failpoint::activate("runtime.verify.crash");  // unlimited
  serve::Json request = verify_request();
  request.set("verify_workers", std::int64_t{2});
  auto response = round_trip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");  // degraded, not an error
  EXPECT_TRUE(response->flag("verified"));
  EXPECT_EQ(response->num("effective"), 0.0);
  EXPECT_GE(response->num("unconfirmed"), 1.0);
  std::vector<std::string> lines = response->strings("degraded_lines");
  ASSERT_FALSE(lines.empty());
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("degraded: [verify-crash] ") != std::string::npos &&
        line.find("; chain kept as UNCONFIRMED") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << response->str("text");
}

}  // namespace
}  // namespace tabby
