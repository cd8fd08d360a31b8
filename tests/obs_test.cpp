// Tests for the observability subsystem (src/obs): the free disabled path,
// span recording and nesting, counter merging across threads, the Chrome
// trace-event exporter, and the counters' agreement with cpg::CpgStats.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "obs/obs.hpp"
#include "support/json_lite.hpp"
#include "util/thread_pool.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it, so a
// test can assert a code region performed zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace tabby::obs {
namespace {

/// Enables the tracer for one test body and guarantees disable on exit, so a
/// failing test cannot leak an enabled tracer into its neighbours.
struct ScopedTracing {
  ScopedTracing() { Tracer::instance().enable(); }
  ~ScopedTracing() { Tracer::instance().disable(); }
};

TEST(ObsDisabled, SpanAndCounterAreAllocationFree) {
  Tracer& tracer = Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  // Warm up: the first instance() call and thread registration may touch the
  // heap once; the steady state must not.
  {
    TABBY_SPAN("warmup");
    counter_add("warmup");
  }
  std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    Span span("obs_test.disabled");
    span.attr("key", std::uint64_t{42});
    counter_add("obs_test.disabled_counter", 7);
  }
  std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(ObsDisabled, NothingIsRecorded) {
  {
    TABBY_SPAN("obs_test.ghost");
    counter_add("obs_test.ghost");
  }
  ScopedTracing tracing;
  TraceReport report = Tracer::instance().flush();
  EXPECT_TRUE(report.spans.empty());
  EXPECT_EQ(report.counter("obs_test.ghost"), 0u);
}

TEST(ObsSpans, NestedSpansAreEnclosedAndSorted) {
  ScopedTracing tracing;
  {
    Span outer("obs_test.outer");
    outer.attr("what", std::string("outer"));
    {
      TABBY_SPAN("obs_test.inner_a");
    }
    {
      TABBY_SPAN("obs_test.inner_b");
    }
  }
  TraceReport report = Tracer::instance().flush();
  ASSERT_EQ(report.spans.size(), 3u);
  // flush() sorts by start time with parents before children; the outer span
  // started first and ended last.
  const SpanRecord& outer = report.spans[0];
  EXPECT_EQ(outer.name, "obs_test.outer");
  ASSERT_EQ(outer.attrs.size(), 1u);
  EXPECT_EQ(outer.attrs[0].key, "what");
  EXPECT_EQ(outer.attrs[0].value, "outer");
  std::uint64_t outer_end = outer.start_ns + outer.dur_ns;
  for (std::size_t i = 1; i < report.spans.size(); ++i) {
    const SpanRecord& inner = report.spans[i];
    EXPECT_GE(inner.start_ns, outer.start_ns) << inner.name;
    EXPECT_LE(inner.start_ns + inner.dur_ns, outer_end) << inner.name;
    EXPECT_GE(inner.start_ns, report.spans[i - 1].start_ns);  // ascending
  }
  EXPECT_EQ(report.spans[1].name, "obs_test.inner_a");
  EXPECT_EQ(report.spans[2].name, "obs_test.inner_b");
}

TEST(ObsSpans, EnableStartsAFreshEpoch) {
  ScopedTracing tracing;
  { TABBY_SPAN("obs_test.first_epoch"); }
  Tracer::instance().enable();  // re-enable clears undrained data
  { TABBY_SPAN("obs_test.second_epoch"); }
  TraceReport report = Tracer::instance().flush();
  ASSERT_EQ(report.spans.size(), 1u);
  EXPECT_EQ(report.spans[0].name, "obs_test.second_epoch");
}

TEST(ObsCounters, MergedAcrossThreads) {
  ScopedTracing tracing;
  util::ThreadPool pool(4);
  pool.parallel_for(64, [](std::size_t) { counter_add("obs_test.parallel", 2); });
  TraceReport report = Tracer::instance().flush();
  EXPECT_EQ(report.counter("obs_test.parallel"), 128u);
  EXPECT_EQ(report.counter("obs_test.absent"), 0u);
}

TEST(ObsCounters, WorkerThreadsGetNamedTracks) {
  ScopedTracing tracing;
  util::ThreadPool pool(3);
  pool.parallel_for(256, [](std::size_t) { TABBY_SPAN("obs_test.task"); });
  TraceReport report = Tracer::instance().flush();
  ASSERT_FALSE(report.thread_names.empty());
  EXPECT_EQ(report.thread_names[0], "main");
  // Worker threads register asynchronously at startup; at least one must
  // have run tasks for a 256-iteration parallel_for on a 3-thread pool.
  int workers = 0;
  for (const std::string& name : report.thread_names) {
    if (name.rfind("worker-", 0) == 0) ++workers;
  }
  EXPECT_GE(workers, 1);
  EXPECT_LE(workers, 3);
  for (const SpanRecord& span : report.spans) {
    ASSERT_LT(span.tid, report.thread_names.size());
  }
}

TEST(ObsExport, ChromeJsonIsWellFormed) {
  ScopedTracing tracing;
  {
    Span span("obs_test.export");
    span.attr("answer", std::uint64_t{42});
    span.attr("quoted", std::string("a \"b\"\nc\\d"));
  }
  counter_add("obs_test.export_counter", 5);
  TraceReport report = Tracer::instance().flush();
  auto doc = testsupport::parse_json(report.to_chrome_json());
  ASSERT_TRUE(doc.has_value()) << report.to_chrome_json();
  ASSERT_TRUE(doc->is_array());

  bool saw_meta = false, saw_span = false, saw_counter = false;
  for (const auto& event : doc->array) {
    ASSERT_TRUE(event.is_object());
    ASSERT_TRUE(event.has("ph"));
    const std::string& ph = event.at("ph").string;
    if (ph == "M") {
      saw_meta = event.at("name").string == "thread_name";
    } else if (ph == "X") {
      EXPECT_TRUE(event.has("ts"));
      EXPECT_TRUE(event.has("dur"));
      EXPECT_TRUE(event.has("tid"));
      if (event.at("name").string == "obs_test.export") {
        saw_span = true;
        ASSERT_TRUE(event.has("args"));
        EXPECT_EQ(event.at("args").at("answer").string, "42");
      }
    } else if (ph == "C") {
      if (event.at("name").string == "obs_test.export_counter") {
        saw_counter = true;
        EXPECT_EQ(event.at("args").at("value").number, 5);
      }
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
}

TEST(ObsExport, MetricsSummaryListsSpansAndCounters) {
  ScopedTracing tracing;
  { TABBY_SPAN("obs_test.summary"); }
  counter_add("obs_test.summary_counter", 3);
  TraceReport report = Tracer::instance().flush();
  std::string summary = report.metrics_summary();
  EXPECT_NE(summary.find("metrics: span "), std::string::npos) << summary;
  EXPECT_NE(summary.find("obs_test.summary"), std::string::npos) << summary;
  EXPECT_NE(summary.find("metrics: counter obs_test.summary_counter = 3"), std::string::npos)
      << summary;
}

TEST(ObsPipeline, CpgCountersMatchCpgStats) {
  corpus::Component component = corpus::build_component("BeanShell1");
  jir::Program program = component.link();
  ScopedTracing tracing;
  // A pool engages the SCC-wave precompute path, so the wave counters fire.
  util::ThreadPool pool(2);
  cpg::CpgOptions options;
  options.executor = &pool;
  cpg::Cpg cpg = cpg::build_cpg(program, options);
  TraceReport report = Tracer::instance().flush();

  EXPECT_EQ(report.counter("cpg.class_nodes"), cpg.stats.class_nodes);
  EXPECT_EQ(report.counter("cpg.method_nodes"), cpg.stats.method_nodes);
  EXPECT_EQ(report.counter("cpg.call_edges"), cpg.stats.call_edges);
  EXPECT_EQ(report.counter("cpg.alias_edges"), cpg.stats.alias_edges);
  EXPECT_EQ(report.counter("cpg.call_sites_pruned"), cpg.stats.pruned_call_sites);
  EXPECT_GT(report.counter("analysis.methods_analyzed"), 0u);
  EXPECT_GT(report.counter("analysis.scc_waves"), 0u);

  // The build phases all recorded spans nested under cpg.build.
  EXPECT_GT(report.total_seconds("cpg.build"), 0.0);
  for (const char* phase : {"cpg.org", "cpg.pcg", "cpg.mag"}) {
    bool found = false;
    for (const SpanRecord& span : report.spans) found |= span.name == phase;
    EXPECT_TRUE(found) << phase;
  }
}

TEST(ObsPipeline, TracingDoesNotChangeTheCpg) {
  corpus::Component component = corpus::build_component("BeanShell1");
  jir::Program program = component.link();
  cpg::Cpg plain = cpg::build_cpg(program);
  cpg::Cpg traced = [&] {
    ScopedTracing tracing;
    return cpg::build_cpg(program);
  }();
  EXPECT_EQ(plain.stats.class_nodes, traced.stats.class_nodes);
  EXPECT_EQ(plain.stats.method_nodes, traced.stats.method_nodes);
  EXPECT_EQ(plain.stats.relationship_edges, traced.stats.relationship_edges);
  EXPECT_EQ(plain.stats.call_edges, traced.stats.call_edges);
  EXPECT_EQ(plain.stats.pruned_call_sites, traced.stats.pruned_call_sites);
}

}  // namespace
}  // namespace tabby::obs
