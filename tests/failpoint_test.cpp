// Tests for the robustness primitives: the failpoint harness (util/failpoint),
// cooperative deadlines/cancellation (util/deadline) and the --deadline
// duration grammar (util/strings). These are the building blocks the chaos
// and malformed-corpus suites drive end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "dist/dist.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/strings.hpp"

namespace tabby::util {
namespace {

using namespace std::chrono_literals;

/// Every test leaves the process-global harness exactly as it found it
/// (disarmed, no activations) so ordering never matters.
class FailpointFixture : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::disarm(); }
  void TearDown() override { failpoint::disarm(); }
};

TEST_F(FailpointFixture, DisarmedPollNeverFires) {
  failpoint::activate("fs.read");
  EXPECT_FALSE(failpoint::armed());
  EXPECT_FALSE(failpoint::poll("fs.read"));
  EXPECT_EQ(failpoint::fired("fs.read"), 0u);
}

TEST_F(FailpointFixture, ArmedButInactiveSiteDoesNotFire) {
  failpoint::arm();
  EXPECT_TRUE(failpoint::armed());
  EXPECT_FALSE(failpoint::poll("fs.read"));
}

TEST_F(FailpointFixture, ActivatedSiteFiresEveryPoll) {
  failpoint::arm();
  failpoint::activate("fs.read");
  EXPECT_TRUE(failpoint::poll("fs.read"));
  EXPECT_TRUE(failpoint::poll("fs.read"));
  EXPECT_EQ(failpoint::fired("fs.read"), 2u);
  EXPECT_EQ(failpoint::fired("jar.decode"), 0u);  // unrelated site untouched
}

TEST_F(FailpointFixture, TimesBudgetDisarmsAfterNFirings) {
  failpoint::arm();
  failpoint::activate("jar.decode", 2);
  EXPECT_TRUE(failpoint::poll("jar.decode"));
  EXPECT_TRUE(failpoint::poll("jar.decode"));
  EXPECT_FALSE(failpoint::poll("jar.decode"));  // budget spent
  EXPECT_EQ(failpoint::fired("jar.decode"), 2u);
}

TEST_F(FailpointFixture, DeactivateStopsFiringButKeepsHistory) {
  failpoint::arm();
  failpoint::activate("fs.read");
  EXPECT_TRUE(failpoint::poll("fs.read"));
  failpoint::deactivate("fs.read");
  EXPECT_FALSE(failpoint::poll("fs.read"));
  EXPECT_EQ(failpoint::fired("fs.read"), 1u);  // history survives deactivation
}

TEST_F(FailpointFixture, DisarmClearsActivationsAndHistory) {
  failpoint::arm();
  failpoint::activate("fs.read");
  EXPECT_TRUE(failpoint::poll("fs.read"));
  failpoint::disarm();
  EXPECT_EQ(failpoint::fired("fs.read"), 0u);
  failpoint::arm();
  EXPECT_FALSE(failpoint::poll("fs.read"));  // activation did not survive
}

TEST_F(FailpointFixture, UnknownSitesAreAcceptedButInert) {
  failpoint::arm();
  failpoint::activate("no.such.site");
  EXPECT_EQ(failpoint::fired("no.such.site"), 0u);
}

TEST_F(FailpointFixture, CatalogListsTheCompiledInSites) {
  std::vector<std::string> sites = failpoint::catalog();
  EXPECT_GE(sites.size(), 10u);
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const char* expected : {"cache.publish.rename", "cache.snapshot.publish", "dist.dispatch",
                               "dist.worker.crash", "dist.worker.hang", "fs.read",
                               "graph.deserialize", "jar.decode", "pool.task"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end()) << expected;
  }
}

// --- deterministic retry backoffs ------------------------------------------
//
// Both retry loops (the cache's atomic-publish rename and the dist
// coordinator's shard redispatch) back off with exponential delays whose
// jitter is seeded from stable inputs, never the wall clock — so a chaos
// run replays with identical sleeps and a test can assert exact values.

TEST(PublishBackoff, IsDeterministicPerPathAndAttempt) {
  for (int attempt : {1, 2, 3}) {
    EXPECT_EQ(cache::publish_backoff("/tmp/a.tsnp", attempt),
              cache::publish_backoff("/tmp/a.tsnp", attempt));
  }
}

TEST(PublishBackoff, BaseDoublesPerAttemptWithBoundedJitter) {
  auto first = cache::publish_backoff("/tmp/a.tsnp", 1);
  auto second = cache::publish_backoff("/tmp/a.tsnp", 2);
  EXPECT_GE(first, std::chrono::microseconds(1000));
  EXPECT_LT(first, std::chrono::microseconds(1500));
  EXPECT_GE(second, std::chrono::microseconds(2000));
  EXPECT_LT(second, std::chrono::microseconds(2500));
  EXPECT_GT(second, first);
  // The exponent clamp keeps pathological attempt numbers finite.
  EXPECT_GT(cache::publish_backoff("/tmp/a.tsnp", 99).count(), 0);
}

TEST(PublishBackoff, ConcurrentRunsOnDifferentEntriesDecorrelate) {
  // Seeded from the target path: two processes retrying different cache
  // entries do not march in lockstep (equal jitter would need an fnv1a
  // collision, and these two differ).
  EXPECT_NE(cache::publish_backoff("/tmp/a.tsnp", 1), cache::publish_backoff("/tmp/b.tsnp", 1));
}

TEST(RetryBackoff, IsDeterministicAcrossCalls) {
  dist::DistOptions options;
  for (int attempt : {1, 2, 3}) {
    EXPECT_EQ(dist::retry_backoff(options, 4, attempt), dist::retry_backoff(options, 4, attempt));
  }
  dist::DistOptions reseeded;
  reseeded.backoff_seed = options.backoff_seed + 1;
  EXPECT_NE(dist::retry_backoff(reseeded, 4, 1), dist::retry_backoff(options, 4, 1));
}

TEST(Deadline, DefaultIsUnlimitedAndNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.remaining().has_value());
}

TEST(Deadline, ZeroBudgetIsAlreadyExpired) {
  Deadline d = Deadline::after(0ms);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining().value(), 0ms);
}

TEST(Deadline, GenerousBudgetHasNotExpired) {
  // The largest budget saturates at the clock's end instead of overflowing
  // into the past.
  for (std::chrono::milliseconds budget : {std::chrono::milliseconds{1h},
                                           std::chrono::milliseconds::max()}) {
    Deadline d = Deadline::after(budget);
    EXPECT_FALSE(d.expired()) << budget.count() << " ms";
    EXPECT_GT(d.remaining().value(), 59min) << budget.count() << " ms";
  }
}

TEST(Deadline, CancelTokenReadsAsExpired) {
  CancelToken token;
  Deadline d = Deadline::after(1h);
  d.bind(&token);
  EXPECT_FALSE(d.expired());
  token.cancel();
  EXPECT_TRUE(d.expired());
  // A bound but unexpired deadline is not "unlimited": it can fire.
  Deadline bound_only;
  bound_only.bind(&token);
  EXPECT_FALSE(bound_only.unlimited());
  EXPECT_TRUE(bound_only.expired());
}

TEST(Deadline, TightenedKeepsTheEarlierBound) {
  Deadline loose = Deadline::after(1h);
  Deadline tight = Deadline::after(0ms);
  EXPECT_TRUE(loose.tightened(tight).expired());
  EXPECT_TRUE(tight.tightened(loose).expired());
  EXPECT_FALSE(loose.tightened(Deadline::never()).expired());
  EXPECT_TRUE(Deadline::never().tightened(tight).expired());
}

TEST(ParseDurationMs, AcceptsEveryUnit) {
  EXPECT_EQ(parse_duration_ms("250ms").value(), 250);
  EXPECT_EQ(parse_duration_ms("30s").value(), 30'000);
  EXPECT_EQ(parse_duration_ms("2m").value(), 120'000);
  EXPECT_EQ(parse_duration_ms("1h").value(), 3'600'000);
  EXPECT_EQ(parse_duration_ms("0ms").value(), 0);
}

TEST(ParseDurationMs, RejectsMalformedInput) {
  EXPECT_FALSE(parse_duration_ms("").ok());
  EXPECT_FALSE(parse_duration_ms("10").ok());     // unit is mandatory
  EXPECT_FALSE(parse_duration_ms("ms").ok());     // digits are mandatory
  EXPECT_FALSE(parse_duration_ms("-5s").ok());
  EXPECT_FALSE(parse_duration_ms("1.5s").ok());
  EXPECT_FALSE(parse_duration_ms("bogus").ok());
  EXPECT_FALSE(parse_duration_ms("10 s").ok());
  EXPECT_FALSE(parse_duration_ms("99999999999999999999h").ok());  // overflow
}

}  // namespace
}  // namespace tabby::util
