// The fault-tolerant multi-process finder fan-out (src/dist): supervised
// forked workers, crash/hang/dispatch chaos absorbed by bounded retry,
// deterministic backoff, and — at every layer from dist::run_shards up
// through finder, engine, CLI and the serve daemon — the two contracts the
// subsystem exists for:
//
//   1. `--workers N` output is byte-identical to `--workers 0` at any N,
//      including under absorbed worker crashes;
//   2. retry exhaustion degrades into a structured PartialSink with
//      PartialReason::WorkerFailure (CLI exit 3), never a coordinator crash,
//      merging stably with coexisting degradation sources (memory pressure,
//      deadlines).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "corpus/jdk.hpp"
#include "corpus/stress.hpp"
#include "cpg/builder.hpp"
#include "dist/dist.hpp"
#include "finder/finder.hpp"
#include "jar/archive.hpp"
#include "obs/obs.hpp"
#include "pipeline/engine.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/find_output.hpp"
#include "support/freeze.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"

namespace tabby {
namespace {

using testsupport::strip_timing;

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Every test leaves the process-global failpoint harness disarmed so
/// ordering never matters (the chaos tests arm it programmatically).
class DistFixture : public ::testing::Test {
 protected:
  void SetUp() override { util::failpoint::disarm(); }
  void TearDown() override {
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
  }

  /// Unit-test friendly supervision timings: the 2 s production hang
  /// timeout would dominate the suite's wall clock.
  static dist::DistOptions fast(int workers) {
    dist::DistOptions options;
    options.workers = workers;
    options.heartbeat_interval = 20ms;
    options.hang_timeout = 250ms;
    return options;
  }
};

// --- dist::run_shards ------------------------------------------------------

TEST_F(DistFixture, ShardsRunToCompletionAcrossForkedWorkers) {
  dist::DistReport report = dist::run_shards(
      8, [](std::size_t shard) { return std::to_string(shard * shard + 1); }, fast(3));
  ASSERT_EQ(report.shards.size(), 8u);
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    EXPECT_TRUE(report.shards[i].ok) << report.shards[i].error;
    EXPECT_EQ(report.shards[i].payload, std::to_string(i * i + 1));
    EXPECT_EQ(report.shards[i].attempts, 1);
  }
  EXPECT_EQ(report.stats.workers_spawned, 3u);
  EXPECT_EQ(report.stats.crashes, 0u);
  EXPECT_EQ(report.stats.retries, 0u);
  EXPECT_EQ(report.stats.respawns, 0u);
}

TEST_F(DistFixture, PoolIsCappedAtTheShardCount) {
  dist::DistReport report =
      dist::run_shards(2, [](std::size_t shard) { return std::to_string(shard); }, fast(8));
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.stats.workers_spawned, 2u);  // never more workers than work
}

TEST_F(DistFixture, WorkerExceptionIsRetriedThenReportedStructurally) {
  // A deterministic ShardFn throw fails on every attempt but never kills the
  // worker: the child catches, replies ok:false and stays in the pool.
  dist::DistReport report = dist::run_shards(
      3,
      [](std::size_t shard) -> std::string {
        if (shard == 1) throw std::runtime_error("boom");
        return std::to_string(shard);
      },
      fast(2));
  ASSERT_EQ(report.shards.size(), 3u);
  EXPECT_TRUE(report.shards[0].ok);
  EXPECT_TRUE(report.shards[2].ok);
  EXPECT_FALSE(report.shards[1].ok);
  EXPECT_EQ(report.shards[1].attempts, 3);  // DistOptions::max_attempts default
  EXPECT_NE(report.shards[1].error.find("boom"), std::string::npos) << report.shards[1].error;
  EXPECT_NE(report.shards[1].error.find("3 attempts"), std::string::npos)
      << report.shards[1].error;
  EXPECT_EQ(report.stats.retries, 2u);
  EXPECT_EQ(report.stats.crashes, 0u);
  EXPECT_EQ(report.stats.respawns, 0u);
}

TEST_F(DistFixture, CrashChaosIsAbsorbedByRespawnAndRetry) {
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  dist::DistReport report =
      dist::run_shards(4, [](std::size_t shard) { return std::to_string(shard * 10); }, fast(2));
  ASSERT_EQ(report.shards.size(), 4u);
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    EXPECT_TRUE(report.shards[i].ok) << report.shards[i].error;
    EXPECT_EQ(report.shards[i].payload, std::to_string(i * 10));
  }
  EXPECT_EQ(report.stats.crashes, 1u);
  // The retry runs on a respawned worker, or as a reassignment when the
  // surviving worker has already drained the queue (no respawn is needed).
  EXPECT_GE(report.stats.respawns + report.stats.reassignments, 1u);
  EXPECT_GE(report.stats.retries, 1u);
  EXPECT_EQ(util::failpoint::fired("dist.worker.crash"), 1u);
}

TEST_F(DistFixture, SingleWorkerCrashIsAlwaysRespawned) {
  // With one worker the crash empties the pool, so the retry can only run on
  // a respawned worker.
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  dist::DistReport report =
      dist::run_shards(4, [](std::size_t shard) { return std::to_string(shard * 10); }, fast(1));
  ASSERT_EQ(report.shards.size(), 4u);
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    EXPECT_TRUE(report.shards[i].ok) << report.shards[i].error;
    EXPECT_EQ(report.shards[i].payload, std::to_string(i * 10));
  }
  EXPECT_EQ(report.stats.crashes, 1u);
  EXPECT_EQ(report.stats.respawns, 1u);
  EXPECT_GE(report.stats.retries, 1u);
}

TEST_F(DistFixture, CrashRetryExhaustionIsStructuredNotFatal) {
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash");  // every dispatch crashes
  dist::DistReport report =
      dist::run_shards(2, [](std::size_t shard) { return std::to_string(shard); }, fast(2));
  ASSERT_EQ(report.shards.size(), 2u);
  for (const dist::ShardResult& shard : report.shards) {
    EXPECT_FALSE(shard.ok);
    EXPECT_EQ(shard.attempts, 3);
    EXPECT_NE(shard.error.find("worker crashed"), std::string::npos) << shard.error;
    EXPECT_NE(shard.error.find("3 attempts"), std::string::npos) << shard.error;
  }
  // Every dispatch of every attempt crashed: 2 shards x 3 attempts.
  EXPECT_EQ(report.stats.crashes, 6u);
}

TEST_F(DistFixture, HangChaosIsDetectedByHeartbeatMiss) {
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.hang", 1);
  dist::DistReport report =
      dist::run_shards(2, [](std::size_t shard) { return std::to_string(shard); }, fast(1));
  ASSERT_EQ(report.shards.size(), 2u);
  for (const dist::ShardResult& shard : report.shards) {
    EXPECT_TRUE(shard.ok) << shard.error;
  }
  EXPECT_GE(report.stats.heartbeat_misses, 1u);
  EXPECT_GE(report.stats.crashes, 1u);  // the hung worker is SIGKILLed
  EXPECT_GE(report.stats.retries, 1u);
}

TEST_F(DistFixture, DispatchFaultIsRetriedWithoutAKill) {
  util::failpoint::arm();
  util::failpoint::activate("dist.dispatch", 1);
  dist::DistReport report =
      dist::run_shards(2, [](std::size_t shard) { return std::to_string(shard); }, fast(1));
  ASSERT_EQ(report.shards.size(), 2u);
  for (const dist::ShardResult& shard : report.shards) {
    EXPECT_TRUE(shard.ok) << shard.error;
  }
  EXPECT_GE(report.stats.retries, 1u);
  EXPECT_EQ(report.stats.crashes, 0u);
  EXPECT_EQ(report.stats.respawns, 0u);
}

TEST_F(DistFixture, RetryBackoffIsDeterministicAndExponential) {
  dist::DistOptions options;  // base 1 ms, fixed seed
  for (std::size_t shard : {std::size_t{0}, std::size_t{5}}) {
    for (int attempt : {1, 2, 3}) {
      EXPECT_EQ(dist::retry_backoff(options, shard, attempt),
                dist::retry_backoff(options, shard, attempt));
    }
    // attempt n: base * 2^(n-1) plus jitter < half the base delay, so the
    // attempt-2 floor clears the attempt-1 ceiling.
    auto first = dist::retry_backoff(options, shard, 1);
    auto second = dist::retry_backoff(options, shard, 2);
    EXPECT_GE(first, 1000us);
    EXPECT_LE(first, 1501us);
    EXPECT_GE(second, 2000us);
    EXPECT_LE(second, 3001us);
    EXPECT_GT(second, first);
  }
  // The exponent is clamped: pathological attempt numbers neither overflow
  // nor lose determinism.
  EXPECT_EQ(dist::retry_backoff(options, 0, 60), dist::retry_backoff(options, 0, 60));
  EXPECT_GT(dist::retry_backoff(options, 0, 60).count(), 0);
}

// --- finder integration ----------------------------------------------------

/// One shared component CPG for the finder-level suite (BeanShell1 linked
/// against the jdk base, same shape the CLI builds).
const graph::FrozenGraph& component_db() {
  static graph::FrozenGraph cpg = [] {
    jir::Program program =
        jar::link({corpus::jdk_base_archive(), corpus::build_component("BeanShell1").jar});
    return tabby::testing::freeze(cpg::build_cpg(program, {}).db);
  }();
  return cpg;
}

/// The pathological fan-out fixture: small enough for unit tests, wide
/// enough that a tiny frontier pool forces MemoryPressure partials — on two
/// sinks (dual_sink), so one of them survives the crash chaos that always
/// lands on shard 0 (the lowest sink id) and still reports memory pressure.
const graph::FrozenGraph& stress_db() {
  static graph::FrozenGraph cpg = [] {
    corpus::FanoutStressSpec spec;
    spec.hops = 12;
    spec.aliases = 200;
    spec.call_fans = 4;
    spec.dual_sink = true;
    jir::Program program =
        jar::link({corpus::jdk_base_archive(), corpus::fanout_stress_archive(spec)});
    return tabby::testing::freeze(cpg::build_cpg(program, {}).db);
  }();
  return cpg;
}

std::string chain_text(const finder::FinderReport& report) {
  std::string text;
  for (const finder::GadgetChain& chain : report.chains) {
    text += chain.to_string();
    text += "\n";
  }
  return text;
}

std::set<std::string> chain_keys(const finder::FinderReport& report) {
  std::set<std::string> keys;
  for (const finder::GadgetChain& chain : report.chains) keys.insert(chain.key());
  return keys;
}

bool partials_sorted_by_sink(const finder::FinderReport& report) {
  return std::is_sorted(
      report.partial_sinks.begin(), report.partial_sinks.end(),
      [](const finder::PartialSink& a, const finder::PartialSink& b) { return a.sink < b.sink; });
}

TEST_F(DistFixture, FinderReportIsByteIdenticalAtAnyWorkerCount) {
  finder::FinderOptions base;
  finder::FinderReport serial = finder::GadgetChainFinder(component_db(), base).find_all();
  ASSERT_GE(serial.chains.size(), 1u);
  EXPECT_TRUE(serial.partial_sinks.empty());

  for (int workers : {1, 2, 4}) {
    finder::FinderOptions options;
    options.dist = fast(workers);
    finder::FinderReport dist = finder::GadgetChainFinder(component_db(), options).find_all();
    EXPECT_EQ(chain_text(dist), chain_text(serial)) << "workers=" << workers;
    EXPECT_TRUE(dist.partial_sinks.empty()) << "workers=" << workers;
    EXPECT_EQ(dist.expansions, serial.expansions) << "workers=" << workers;
    EXPECT_GT(dist.dist_stats.workers_spawned, 0u);
  }
}

TEST_F(DistFixture, TracedFindSplitsDistRunIntoSpawnAndReap) {
  component_db();  // build outside the trace
  struct Tracing {
    Tracing() { obs::Tracer::instance().enable(); }
    ~Tracing() { obs::Tracer::instance().disable(); }
  } tracing;
  finder::FinderOptions options;
  options.dist = fast(2);
  finder::FinderReport report = finder::GadgetChainFinder(component_db(), options).find_all();
  obs::TraceReport trace = obs::Tracer::instance().flush();
  ASSERT_GE(report.chains.size(), 1u);

  auto find_span = [&](const std::string& name) {
    return std::find_if(trace.spans.begin(), trace.spans.end(),
                        [&](const obs::SpanRecord& span) { return span.name == name; });
  };
  auto run = find_span("dist.run");
  ASSERT_NE(run, trace.spans.end());
  for (const char* child : {"dist.spawn", "dist.reap"}) {
    auto span = find_span(child);
    ASSERT_NE(span, trace.spans.end()) << child;
    EXPECT_EQ(span->tid, run->tid) << child;
    EXPECT_GE(span->start_ns, run->start_ns) << child;
    EXPECT_LE(span->start_ns + span->dur_ns, run->start_ns + run->dur_ns) << child;
  }
}

TEST_F(DistFixture, AbsorbedCrashKeepsTheFinderReportByteIdentical) {
  finder::FinderOptions base;
  finder::FinderReport serial = finder::GadgetChainFinder(component_db(), base).find_all();

  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  finder::FinderOptions options;
  options.dist = fast(2);
  finder::FinderReport dist = finder::GadgetChainFinder(component_db(), options).find_all();

  EXPECT_EQ(chain_text(dist), chain_text(serial));
  EXPECT_TRUE(dist.partial_sinks.empty());
  EXPECT_EQ(dist.dist_stats.crashes, 1u);
  EXPECT_GE(dist.dist_stats.retries, 1u);
}

TEST_F(DistFixture, WorkerFailureMergesStablyWithMemoryPressure) {
  // Degraded shard 0 (max_attempts=1, one crash firing on the first
  // dispatch) next to memory-governed siblings: the merged partial_sinks
  // list carries both reasons, stays in ascending sink order, and the
  // chains that survive are a subset of the clean run's.
  finder::FinderOptions clean;
  clean.max_depth = 16;  // the planted chains are hops + 1 deep
  finder::FinderReport free_run = finder::GadgetChainFinder(stress_db(), clean).find_all();

  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  finder::FinderOptions options;
  options.max_depth = 16;
  options.frontier_byte_pool = 64 * 1024;
  options.dist = fast(1);
  options.dist.max_attempts = 1;  // the single crash exhausts shard 0
  finder::FinderReport report = finder::GadgetChainFinder(stress_db(), options).find_all();

  ASSERT_GE(report.partial_sinks.size(), 2u);
  EXPECT_TRUE(partials_sorted_by_sink(report));
  std::size_t worker_failures = 0, memory_partials = 0;
  for (const finder::PartialSink& sink : report.partial_sinks) {
    if (sink.reason == finder::PartialReason::WorkerFailure) {
      ++worker_failures;
      EXPECT_NE(sink.detail.find("worker crashed"), std::string::npos) << sink.detail;
      EXPECT_NE(finder::degraded_line(sink).find("degraded: [finder-worker] "), std::string::npos);
    }
    if (sink.reason == finder::PartialReason::MemoryPressure) ++memory_partials;
  }
  EXPECT_EQ(worker_failures, 1u);
  EXPECT_GE(memory_partials, 1u);
  // The first dispatched shard is the lowest sink id, so the worker failure
  // leads the merged list.
  EXPECT_EQ(report.partial_sinks.front().reason, finder::PartialReason::WorkerFailure);

  std::set<std::string> free_keys = chain_keys(free_run);
  for (const std::string& key : chain_keys(report)) {
    EXPECT_EQ(free_keys.count(key), 1u) << "invented chain " << key;
  }
}

TEST_F(DistFixture, ExpansionBudgetPartialsCrossTheWorkerWire) {
  finder::FinderOptions options;
  options.max_depth = 16;
  options.max_expansions = 1000;
  finder::FinderReport local = finder::GadgetChainFinder(stress_db(), options).find_all();
  options.dist = fast(1);
  finder::FinderReport remote = finder::GadgetChainFinder(stress_db(), options).find_all();

  EXPECT_TRUE(local.budget_exhausted);
  EXPECT_TRUE(remote.budget_exhausted);
  ASSERT_EQ(local.partial_sinks.size(), 2u);
  ASSERT_EQ(remote.partial_sinks.size(), local.partial_sinks.size());
  for (std::size_t i = 0; i < local.partial_sinks.size(); ++i) {
    const finder::PartialSink& sink = remote.partial_sinks[i];
    EXPECT_EQ(sink.reason, finder::PartialReason::ExpansionBudget);
    EXPECT_EQ(sink.sink, local.partial_sinks[i].sink);
    EXPECT_EQ(sink.expansions, local.partial_sinks[i].expansions);
    EXPECT_EQ(finder::degraded_line(sink), finder::degraded_line(local.partial_sinks[i]));
    EXPECT_NE(finder::degraded_line(sink).find("degraded: [finder-budget] "), std::string::npos);
  }
  EXPECT_EQ(chain_text(remote), chain_text(local));
  EXPECT_EQ(remote.expansions, local.expansions);
}

TEST_F(DistFixture, WorkerFailureMergesStablyWithDeadlineExpiry) {
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  finder::FinderOptions options;
  options.deadline = util::Deadline::after(0ms);  // every surviving shard expires
  options.dist = fast(1);
  options.dist.max_attempts = 1;
  finder::FinderReport report = finder::GadgetChainFinder(component_db(), options).find_all();

  ASSERT_GE(report.partial_sinks.size(), 2u);
  EXPECT_TRUE(partials_sorted_by_sink(report));
  EXPECT_EQ(report.partial_sinks.front().reason, finder::PartialReason::WorkerFailure);
  std::size_t worker_failures = 0, deadline_partials = 0;
  for (const finder::PartialSink& sink : report.partial_sinks) {
    if (sink.reason == finder::PartialReason::WorkerFailure) ++worker_failures;
    if (sink.reason == finder::PartialReason::Deadline) {
      ++deadline_partials;
      EXPECT_NE(finder::degraded_line(sink).find("degraded: [finder-deadline] "),
                std::string::npos);
    }
  }
  EXPECT_EQ(worker_failures, 1u);
  EXPECT_GE(deadline_partials, 1u);
}

// --- CLI / engine / serve --------------------------------------------------

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

class DistCliFixture : public DistFixture {
 protected:
  void SetUp() override {
    DistFixture::SetUp();
    dir_ = fs::temp_directory_path() / ("tabby_dist_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_ = (dir_ / "beanshell.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_).ok());
  }

  void TearDown() override {
    fs::remove_all(dir_);
    DistFixture::TearDown();
  }

  fs::path dir_;
  std::string jar_;
};

TEST_F(DistCliFixture, CliFindIsByteIdenticalAtAnyWorkerCount) {
  CliRun serial = run_cli_capture({"find", jar_});
  ASSERT_EQ(serial.code, 0) << serial.err;
  for (const char* workers : {"1", "2", "4"}) {
    CliRun dist = run_cli_capture({"find", jar_, "--workers", workers});
    EXPECT_EQ(dist.code, 0) << dist.err;
    EXPECT_EQ(strip_timing(dist.out), strip_timing(serial.out)) << "workers=" << workers;
    EXPECT_EQ(dist.err, serial.err) << "workers=" << workers;
  }
}

TEST_F(DistCliFixture, CliFindAbsorbsACrashByteIdentically) {
  CliRun serial = run_cli_capture({"find", jar_});
  ASSERT_EQ(serial.code, 0) << serial.err;
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  CliRun dist = run_cli_capture({"find", jar_, "--workers", "4"});
  EXPECT_EQ(dist.code, 0) << dist.err;
  EXPECT_EQ(strip_timing(dist.out), strip_timing(serial.out));
  EXPECT_EQ(dist.err, serial.err);
}

TEST_F(DistCliFixture, CliRetryExhaustionExitsDegradedWithNamedSinks) {
  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash");  // unlimited: every shard exhausts
  CliRun dist = run_cli_capture({"find", jar_, "--workers", "2"});
  EXPECT_EQ(dist.code, 3);  // degraded, never a coordinator crash
  EXPECT_NE(dist.out.find("0 gadget chain(s)"), std::string::npos) << dist.out;
  EXPECT_NE(dist.err.find("degraded: [finder-worker] "), std::string::npos) << dist.err;
  EXPECT_NE(dist.err.find("worker crashed (3 attempts)"), std::string::npos) << dist.err;
  // The failing sinks are named, one degraded line per sink.
  EXPECT_NE(dist.err.find("#"), std::string::npos) << dist.err;
}

TEST_F(DistCliFixture, EngineAccumulatesDistTelemetryAcrossFinds) {
  pipeline::Engine engine;
  pipeline::ExecContext serial_ctx;
  auto analysis = engine.open({jar_}, serial_ctx);
  ASSERT_TRUE(analysis.ok());
  pipeline::FindResult serial = analysis.value()->find(serial_ctx);
  EXPECT_EQ(engine.stats().dist_workers_spawned, 0u);  // in-process find

  util::failpoint::arm();
  util::failpoint::activate("dist.worker.crash", 1);
  pipeline::ExecContext dist_ctx;
  dist_ctx.workers = 2;
  pipeline::FindResult dist = analysis.value()->find(dist_ctx);
  EXPECT_EQ(chain_text(dist.report), chain_text(serial.report));

  pipeline::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.dist_workers_spawned, 2u);
  EXPECT_EQ(stats.dist_crashes, 1u);
  // Respawn or reassignment, whichever the race between the crash and the
  // surviving worker draining the queue produced.
  EXPECT_GE(stats.dist_respawns + stats.dist_reassignments, 1u);
  EXPECT_GE(stats.dist_retries, 1u);
}

class DistServeFixture : public DistCliFixture {
 protected:
  void TearDown() override {
    stop_daemon();
    DistCliFixture::TearDown();
  }

  /// Starts `tabby serve` on a fresh short socket path inside a thread (the
  /// sun_path limit rules out paths under the test's temp dir).
  void start_daemon(std::vector<std::string> extra = {}) {
    static int counter = 0;
    socket_ = "/tmp/tdst_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
    std::vector<std::string> args{"serve", socket_};
    args.insert(args.end(), extra.begin(), extra.end());
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

  serve::Json find_request() const {
    serve::Json request = serve::Json::object();
    request.set("op", "find");
    serve::Json jars = serve::Json::array();
    jars.push(serve::Json::string(jar_));
    request.set("classpath", std::move(jars));
    return request;
  }

  std::string socket_;
  std::thread daemon_;
  int daemon_code_ = -1;
  std::ostringstream daemon_out_;
  std::ostringstream daemon_err_;
};

TEST_F(DistServeFixture, RequestWorkersFieldMatchesOneShotAndSurfacesDistStats) {
  CliRun one_shot = run_cli_capture({"find", jar_});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon();
  serve::Json request = find_request();
  request.set("workers", std::int64_t{2});
  auto response = round_trip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_EQ(strip_timing(response->str("text")), strip_timing(one_shot.out));

  serve::Json stats_request = serve::Json::object();
  stats_request.set("op", "stats");
  auto stats = round_trip(stats_request);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->flag("ok"));
  EXPECT_EQ(stats->num("dist_workers_spawned"), 2.0);
  EXPECT_EQ(stats->num("dist_crashes"), 0.0);
}

TEST_F(DistServeFixture, DaemonDefaultWorkersApplyWhenTheRequestSendsNone) {
  CliRun one_shot = run_cli_capture({"find", jar_});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon({"--workers", "2"});
  auto response = round_trip(find_request());
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_EQ(strip_timing(response->str("text")), strip_timing(one_shot.out));

  serve::Json stats_request = serve::Json::object();
  stats_request.set("op", "stats");
  auto stats = round_trip(stats_request);
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->num("dist_workers_spawned"), 2.0);
}

}  // namespace
}  // namespace tabby
