// The `tabby serve` daemon and its wire protocol: an in-process daemon on a
// unix socket, driven through serve::client_request and the `tabby client`
// subcommand. Covers byte-equivalence of daemon find/query vs the one-shot
// CLI, admission control through the protocol, eviction + stats ops, the
// serve.request failpoint (daemon answers the next request cleanly after a
// mid-request fault), and the JSON codec the protocol rides on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "jar/archive.hpp"
#include "serve/json.hpp"
#include "serve/serve.hpp"
#include "support/find_output.hpp"
#include "util/failpoint.hpp"

namespace tabby {
namespace {

using testsupport::strip_timing;

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

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    util::failpoint::disarm();
    dir_ = fs::temp_directory_path() / ("tabby_serve_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_a_ = (dir_ / "beanshell.tjar").string();
    jar_b_ = (dir_ / "rome.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_a_).ok());
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("Rome").jar, jar_b_).ok());
  }

  void TearDown() override {
    stop_daemon();
    util::failpoint::deactivate_all();
    util::failpoint::disarm();
    fs::remove_all(dir_);
  }

  /// Starts `tabby serve` on a fresh short socket path inside a thread (the
  /// sun_path limit rules out paths under the test's temp dir).
  void start_daemon(std::vector<std::string> extra = {}) {
    static int counter = 0;
    socket_ = "/tmp/tsrv_" + std::to_string(::getpid()) + "_" + std::to_string(counter++);
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

  /// One protocol round trip; client_request retries while the daemon's
  /// socket is still coming up, so no explicit readiness wait is needed.
  std::optional<serve::Json> round_trip(const serve::Json& request) {
    auto reply = serve::client_request(socket_, request.dump());
    if (!reply.ok()) {
      ADD_FAILURE() << "client_request failed: " << reply.error().to_string();
      return std::nullopt;
    }
    return serve::Json::parse(reply.value());
  }

  serve::Json request_for(const std::string& op, const std::vector<std::string>& classpath = {}) {
    serve::Json request = serve::Json::object();
    request.set("op", op);
    if (!classpath.empty()) {
      serve::Json jars = serve::Json::array();
      for (const std::string& jar : classpath) jars.push(serve::Json::string(jar));
      request.set("classpath", std::move(jars));
    }
    return request;
  }

  fs::path dir_;
  std::string jar_a_;
  std::string jar_b_;
  std::string socket_;
  std::thread daemon_;
  int daemon_code_ = -1;
  std::ostringstream daemon_out_;
  std::ostringstream daemon_err_;
};

TEST_F(ServeFixture, FindThroughDaemonMatchesOneShotCli) {
  CliRun one_shot = run_cli_capture({"find", jar_a_});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon();
  auto response = round_trip(request_for("find", {jar_a_}));
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_GT(response->num("chains"), 0);
  // The response embeds the exact bytes cmd_find prints; only the timing
  // header line differs between runs.
  EXPECT_EQ(strip_timing(response->str("text")), strip_timing(one_shot.out));
}

TEST_F(ServeFixture, QueryThroughDaemonMatchesOneShotCli) {
  const std::string query = "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SIGNATURE";
  CliRun one_shot = run_cli_capture({"query", jar_a_, query});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  start_daemon();
  serve::Json request = request_for("query", {jar_a_});
  request.set("text", query);
  auto response = round_trip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok")) << response->str("error");
  EXPECT_EQ(response->str("text"), one_shot.out);  // exact: no timing in query output
}

TEST_F(ServeFixture, ClientSubcommandMatchesOneShotCli) {
  CliRun find_direct = run_cli_capture({"find", jar_a_});
  const std::string query = "MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.NAME";
  CliRun query_direct = run_cli_capture({"query", jar_a_, query});
  ASSERT_EQ(find_direct.code, 0);
  ASSERT_EQ(query_direct.code, 0);

  start_daemon();
  CliRun opened = run_cli_capture({"client", socket_, "open", jar_a_});
  EXPECT_EQ(opened.code, 0) << opened.err;
  EXPECT_NE(opened.out.find("opened "), std::string::npos) << opened.out;

  CliRun find_client = run_cli_capture({"client", socket_, "find", jar_a_});
  EXPECT_EQ(find_client.code, find_direct.code);
  EXPECT_EQ(strip_timing(find_client.out), strip_timing(find_direct.out));

  CliRun query_client = run_cli_capture({"client", socket_, "query", jar_a_, query});
  EXPECT_EQ(query_client.code, query_direct.code);
  EXPECT_EQ(query_client.out, query_direct.out);

  // The top of each budget flag's range rounds up past the daemon's limit
  // as a JSON double; the client still gets the one-shot answer.
  const std::vector<std::string> top = {"--mem-budget", "18446744073709551615", "--deadline",
                                        "9223372036854775807ms", "--phase-budget",
                                        "finder=9223372036854775807ms"};
  std::vector<std::string> direct_args = {"find", jar_a_};
  std::vector<std::string> client_args = {"client", socket_, "find", jar_a_};
  direct_args.insert(direct_args.end(), top.begin(), top.end());
  client_args.insert(client_args.end(), top.begin(), top.end());
  CliRun top_direct = run_cli_capture(direct_args);
  CliRun top_client = run_cli_capture(client_args);
  EXPECT_EQ(top_direct.code, 0) << top_direct.err;
  EXPECT_EQ(top_client.code, top_direct.code) << top_client.err;
  EXPECT_EQ(strip_timing(top_client.out), strip_timing(top_direct.out));
}

TEST_F(ServeFixture, TwoTenantsShareOneDaemonAndHitResidency) {
  start_daemon();
  auto tenant = [&](const std::string& jar) {
    for (int round = 0; round < 2; ++round) {
      auto found = round_trip(request_for("find", {jar}));
      ASSERT_TRUE(found.has_value());
      EXPECT_TRUE(found->flag("ok")) << found->str("error");
      serve::Json query = request_for("query", {jar});
      query.set("text", "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME");
      auto rows = round_trip(query);
      ASSERT_TRUE(rows.has_value());
      EXPECT_TRUE(rows->flag("ok")) << rows->str("error");
    }
  };
  std::thread ta([&] { tenant(jar_a_); });
  std::thread tb([&] { tenant(jar_b_); });
  ta.join();
  tb.join();

  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->flag("ok"));
  EXPECT_EQ(stats->num("requests"), 9);  // 2 tenants x 4 + this stats call
  // Each tenant's first open was a miss; the remaining 3 opens were hits.
  EXPECT_EQ(stats->num("opens"), 8);
  EXPECT_EQ(stats->num("resident_hits"), 6);
  EXPECT_EQ(stats->num("evictions"), 0);
  ASSERT_TRUE(stats->find("resident") != nullptr);
  EXPECT_EQ(stats->find("resident")->items().size(), 2u);
}

TEST_F(ServeFixture, OverCapacityOpenIsAStructuredError) {
  start_daemon({"--mem-budget", "64k"});
  auto response = round_trip(request_for("open", {jar_a_}));
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->flag("ok"));
  EXPECT_EQ(response->str("kind"), "over-capacity");
  EXPECT_NE(response->str("error").find("over-capacity"), std::string::npos);

  // The daemon survives the rejection and keeps serving.
  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->flag("ok"));
  EXPECT_EQ(stats->num("over_capacity"), 1);
  EXPECT_EQ(stats->num("resident_bytes"), 0);

  CliRun client = run_cli_capture({"client", socket_, "open", jar_a_});
  EXPECT_EQ(client.code, 1);
  EXPECT_NE(client.err.find("over-capacity"), std::string::npos) << client.err;
}

TEST_F(ServeFixture, TightBudgetEvictsBetweenTenants) {
  // Either tenant's frozen frame fits alone (about 230 KiB and 250 KiB), both
  // do not.
  start_daemon({"--mem-budget", "400k"});
  auto a = round_trip(request_for("open", {jar_a_}));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(a->flag("ok")) << a->str("error");
  auto b = round_trip(request_for("open", {jar_b_}));
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(b->flag("ok")) << b->str("error");

  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->num("evictions"), 1);
  ASSERT_TRUE(stats->find("resident") != nullptr);
  ASSERT_EQ(stats->find("resident")->items().size(), 1u);
  EXPECT_EQ(stats->find("resident")->items()[0].str("fingerprint"), b->str("fingerprint"));

  // Both tenants still get correct answers after the eviction churn.
  auto found = round_trip(request_for("find", {jar_a_}));
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->flag("ok")) << found->str("error");
  EXPECT_GT(found->num("chains"), 0);
}

TEST_F(ServeFixture, EvictOpDropsResidency) {
  start_daemon();
  auto opened = round_trip(request_for("open", {jar_a_}));
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->flag("ok"));
  std::string fingerprint = opened->str("fingerprint");

  CliRun miss = run_cli_capture({"client", socket_, "evict", serve::hex64(0x1234)});
  EXPECT_EQ(miss.code, 0);
  EXPECT_NE(miss.out.find("evicted 0"), std::string::npos) << miss.out;

  serve::Json evict = request_for("evict");
  evict.set("fingerprint", fingerprint);
  auto response = round_trip(evict);
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->flag("ok"));
  EXPECT_EQ(response->num("evicted"), 1);

  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->num("evictions"), 1);
  EXPECT_EQ(stats->find("resident")->items().size(), 0u);
}

TEST_F(ServeFixture, FailpointKillsOneRequestAndTheDaemonAnswersTheNext) {
  start_daemon();
  auto warm = round_trip(request_for("open", {jar_a_}));
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->flag("ok"));

  util::failpoint::arm();
  util::failpoint::activate("serve.request", 1);
  auto killed = round_trip(request_for("find", {jar_a_}));
  ASSERT_TRUE(killed.has_value());
  EXPECT_FALSE(killed->flag("ok"));
  EXPECT_EQ(killed->str("kind"), "internal");
  EXPECT_NE(killed->str("error").find("serve.request"), std::string::npos);
  util::failpoint::disarm();

  // Same connection class, next request: clean answer, fault accounted.
  auto found = round_trip(request_for("find", {jar_a_}));
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(found->flag("ok")) << found->str("error");
  EXPECT_GT(found->num("chains"), 0);

  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->num("failpoint_failures"), 1);
}

TEST_F(ServeFixture, MalformedAndUnknownRequestsGetUsageErrors) {
  start_daemon();
  auto reply = serve::client_request(socket_, "this is not json");
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  auto response = serve::Json::parse(reply.value());
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->flag("ok"));
  EXPECT_EQ(response->str("kind"), "usage");

  serve::Json unknown = request_for("frobnicate");
  unknown.set("id", std::string("req-7"));
  auto echoed = round_trip(unknown);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_FALSE(echoed->flag("ok"));
  EXPECT_EQ(echoed->str("kind"), "usage");
  EXPECT_EQ(echoed->str("id"), "req-7");  // ids echo back even on errors

  auto no_classpath = round_trip(request_for("find"));
  ASSERT_TRUE(no_classpath.has_value());
  EXPECT_FALSE(no_classpath->flag("ok"));
  EXPECT_EQ(no_classpath->str("kind"), "usage");

  // Typed fields: a wrong JSON type, a fraction or a number outside the
  // range the CLI accepts is a usage error naming the field, answered
  // before the classpath is opened.
  const std::pair<const char*, serve::Json> bad_fields[] = {
      {"depth", serve::Json::number(-1)},
      {"depth", serve::Json::number(0)},
      {"depth", serve::Json::number(1e10)},
      {"depth", serve::Json::number(2.5)},
      {"depth", serve::Json::string("12")},
      {"workers", serve::Json::number(-1)},
      {"workers", serve::Json::number(0x1p31)},
      {"verify_workers", serve::Json::number(-1)},
      {"frontier_pool", serve::Json::number(-1)},
      {"frontier_pool", serve::Json::number(0x1p64)},
      {"deadline_ms", serve::Json::number(-5)},
      {"deadline_ms", serve::Json::number(0x1p63)},
      {"deadline_ms", serve::Json::number(1.5)},
      {"load_ms", serve::Json::number(-1)},
      {"finder_ms", serve::Json::string("10")},
      {"verify_ms", serve::Json::boolean(true)},
      {"strict", serve::Json::string("yes")},
      {"verify", serve::Json::number(1)},
      {"explain", serve::Json::number(1)},
      {"no_plan", serve::Json::string("true")},
      {"all", serve::Json::number(1)},
  };
  for (const auto& [field, value] : bad_fields) {
    serve::Json request = request_for("find", {jar_a_});
    request.set(field, value);
    auto rejected = round_trip(request);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_FALSE(rejected->flag("ok")) << request.dump();
    EXPECT_EQ(rejected->str("kind"), "usage") << request.dump();
    EXPECT_NE(rejected->str("error").find(std::string("\"") + field + "\""), std::string::npos)
        << request.dump() << " -> " << rejected->str("error");
  }
  // Every rejection came before the open: no archive read, no worker forked.
  auto stats = round_trip(request_for("stats"));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->num("opens"), 0);
  EXPECT_EQ(stats->num("dist_workers_spawned"), 0);
}

TEST_F(ServeFixture, BadQueryReportsTheQueryErrorKind) {
  start_daemon();
  serve::Json request = request_for("query", {jar_a_});
  request.set("text", "MATCH (m:Method RETURN");
  auto response = round_trip(request);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->flag("ok"));
  EXPECT_EQ(response->str("kind"), "query");
}

TEST_F(ServeFixture, ShutdownStopsTheDaemonCleanly) {
  start_daemon();
  CliRun shutdown = run_cli_capture({"client", socket_, "shutdown"});
  EXPECT_EQ(shutdown.code, 0) << shutdown.err;
  daemon_.join();
  EXPECT_EQ(daemon_code_, 0) << daemon_err_.str();
  EXPECT_NE(daemon_out_.str().find("serving on " + socket_), std::string::npos);
}

/// This process's virtual size in kB (VmSize in /proc/self/status); 0 when
/// the line is missing.
long long vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

TEST_F(ServeFixture, ConnectionThreadsAreReleasedWhenTheirConnectionsEnd) {
  // A daemon that kept each connection's thread until shutdown held one
  // thread stack (8 MB of address space) per connection it had served.
  start_daemon();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(round_trip(request_for("stats")).has_value());
  long long before = vm_size_kb();
  ASSERT_GT(before, 0);
  const std::string stats = request_for("stats").dump();
  for (int i = 0; i < 200; ++i) {
    auto reply = serve::client_request(socket_, stats);
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  }
  long long grown_kb = vm_size_kb() - before;
  EXPECT_LT(grown_kb, 128 * 1024) << "VmSize grew by " << grown_kb << " kB over 200 connections";
  stop_daemon();  // and shutdown is still clean
  EXPECT_NE(daemon_out_.str().find("serving on " + socket_), std::string::npos);
}

// --- the JSON codec under the protocol -------------------------------------

TEST(ServeJsonTest, ObjectsSerializeInInsertionOrderAndLastSetWins) {
  serve::Json object = serve::Json::object();
  object.set("zeta", std::uint64_t{1});
  object.set("alpha", true);
  object.set("zeta", std::uint64_t{2});
  EXPECT_EQ(object.dump(), "{\"zeta\":2,\"alpha\":true}");
}

TEST(ServeJsonTest, IntegersEmitWithoutADecimalPoint) {
  serve::Json object = serve::Json::object();
  object.set("count", std::uint64_t{42});
  object.set("ratio", 0.5);
  std::string dumped = object.dump();
  EXPECT_NE(dumped.find("\"count\":42"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"ratio\":0.5"), std::string::npos) << dumped;
}

TEST(ServeJsonTest, StringsRoundTripThroughEscaping) {
  serve::Json object = serve::Json::object();
  object.set("text", std::string("line1\nline2\t\"quoted\" \\slash\x01"));
  std::string dumped = object.dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);  // newline-delimited protocol
  auto parsed = serve::Json::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->str("text"), "line1\nline2\t\"quoted\" \\slash\x01");
}

TEST(ServeJsonTest, ParserIsStrict) {
  EXPECT_FALSE(serve::Json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(serve::Json::parse("{\"a\":").has_value());
  EXPECT_FALSE(serve::Json::parse("{'a':1}").has_value());
  EXPECT_FALSE(serve::Json::parse("").has_value());
  auto unicode = serve::Json::parse("{\"a\":\"\\u0041\"}");
  ASSERT_TRUE(unicode.has_value());
  EXPECT_EQ(unicode->str("a"), "A");
}

TEST(ServeJsonTest, AccessorsTolerateMissingKeys) {
  auto parsed = serve::Json::parse("{\"name\":\"x\",\"n\":3,\"on\":true,\"list\":[\"a\",\"b\",7]}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->str("name"), "x");
  EXPECT_EQ(parsed->str("missing", "fallback"), "fallback");
  EXPECT_EQ(parsed->num("n"), 3);
  EXPECT_EQ(parsed->num("missing", -1), -1);
  EXPECT_TRUE(parsed->flag("on"));
  EXPECT_FALSE(parsed->flag("missing"));
  std::vector<std::string> list = parsed->strings("list");
  ASSERT_EQ(list.size(), 2u);  // the non-string element is skipped
  EXPECT_EQ(list[0], "a");
  EXPECT_EQ(list[1], "b");
}

TEST(ServeJsonTest, Hex64RoundTripsAllSixtyFourBits) {
  EXPECT_EQ(serve::hex64(0), "0000000000000000");
  std::uint64_t value = 0xdeadbeefcafef00dULL;
  std::string hex = serve::hex64(value);
  EXPECT_EQ(hex.size(), 16u);
  auto back = serve::parse_hex64(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, value);
  EXPECT_FALSE(serve::parse_hex64("deadbeef").has_value());          // too short
  EXPECT_FALSE(serve::parse_hex64(hex + "0").has_value());           // too long
  EXPECT_FALSE(serve::parse_hex64("zzzzzzzzzzzzzzzz").has_value());  // not hex
}

}  // namespace
}  // namespace tabby
