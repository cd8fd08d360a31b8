// perfbench_layers — the compiled half of the benchmark (see README.md).
//
//   perfbench_layers gen WORKLOAD DIR
//       Writes the workload's .tjar files under DIR from the deterministic
//       corpus API and a manifest, DIR/manifest.tsv, with one line per
//       classpath: NAME<TAB>JAR<TAB>JAR... The simulated JDK is never
//       written; the engine prefixes it to every classpath.
//
//   perfbench_layers trace MANIFEST WORK_DIR DEPTH REPS
//       The traced run. Calls each layer's public functions in pipeline
//       order, REPS times, for every classpath of the manifest, and records
//       one span per call from this file's own clock (never the program's
//       obs spans, so moving an internal span cannot change a number here).
//       Prints one JSON line: the spans, each metric's summed self time per
//       rep, the exact counts (which must repeat across reps), and the
//       sorted chain keys for the output oracle.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/controllability.hpp"
#include "cache/cache.hpp"
#include "corpus/components.hpp"
#include "corpus/jdk.hpp"
#include "corpus/stress.hpp"
#include "cpg/builder.hpp"
#include "cypher/cypher.hpp"
#include "finder/finder.hpp"
#include "finder/payload.hpp"
#include "finder/verify.hpp"
#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "jir/hierarchy.hpp"
#include "pipeline/engine.hpp"
#include "runtime/objectgraph.hpp"
#include "runtime/vm.hpp"
#include "serve/json.hpp"
#include "util/digest.hpp"

namespace fs = std::filesystem;
using namespace tabby;

namespace {

// The three fixed query texts every workload runs (README.md).
const std::vector<std::pair<std::string, std::string>> kQueries = {
    {"q_sinks", "MATCH (m:Method {IS_SINK: true}) RETURN m.NAME, m.SIGNATURE"},
    {"q_callers", "MATCH (m:Method)-[:CALL]->(s:Method {IS_SINK: true}) RETURN m.SIGNATURE, s.NAME"},
    {"q_paths",
     "MATCH (m:Method {IS_SOURCE: true})-[:CALL*1..6]->(s:Method {IS_SINK: true}) "
     "RETURN m.SIGNATURE LIMIT 50"},
};

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "perfbench_layers: " << message << "\n";
  std::exit(1);
}

// --- Spans ------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::string metric;  // the per-layer metric its self time counts towards
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  int parent = -1;
  int request = 0;  // the repetition this span belongs to
};

/// Spans kept in memory, written once at the end. Single-threaded: every
/// span is opened and closed on the main thread around one library call.
class Recorder {
 public:
  int begin(std::string name, std::string metric) {
    SpanRecord span;
    span.name = std::move(name);
    span.metric = std::move(metric);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    span.start_us = now_us();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int index) {
    spans_[index].end_us = now_us();
    open_.pop_back();
  }
  void set_request(int request) { request_ = request; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
  int request_ = 0;
};

class Scope {
 public:
  Scope(Recorder& recorder, std::string name, std::string metric = "")
      : recorder_(recorder), index_(recorder.begin(std::move(name), std::move(metric))) {}
  ~Scope() { recorder_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& recorder_;
  int index_;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals (children of one span never overlap here, so a sum suffices).
std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].end_us - spans[i].start_us;
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) self[span.parent] -= span.end_us - span.start_us;
  }
  return self;
}

// --- Workloads ----------------------------------------------------------------

struct Classpath {
  std::string name;
  std::vector<std::string> jars;
};

/// The file name `tabby gen` gives an archive.
std::string file_name(const std::string& archive_name) {
  std::string file = archive_name;
  for (char& c : file) {
    if (c == '/' || c == ' ' || c == '(' || c == ')') c = '_';
  }
  if (file.size() < 5 || file.compare(file.size() - 5, 5, ".tjar") != 0) file += ".tjar";
  return file;
}

Classpath write_classpath(const std::string& name, const std::vector<jar::Archive>& archives,
                          const fs::path& dir) {
  fs::create_directories(dir);
  Classpath classpath{name, {}};
  for (const jar::Archive& archive : archives) {
    fs::path path = dir / file_name(archive.meta.name);
    auto status = jar::write_archive_file(archive, path);
    if (!status.ok()) fail(status.error().to_string());
    classpath.jars.push_back(path.string());
  }
  return classpath;
}

int cmd_gen(const std::string& workload, const fs::path& dir) {
  std::vector<Classpath> classpaths;
  if (workload == "ysoserial") {
    std::vector<jar::Archive> archives;
    for (const std::string& name : corpus::component_names()) {
      archives.push_back(corpus::build_component(name).jar);
    }
    classpaths.push_back(write_classpath("ysoserial", archives, dir / "ysoserial"));
  } else if (workload == "fanout-stress") {
    classpaths.push_back(write_classpath("fanout-stress", {corpus::fanout_stress_archive()},
                                         dir / "fanout-stress"));
  } else {
    fail("unknown workload: " + workload);
  }
  std::ofstream manifest(dir / "manifest.tsv", std::ios::trunc);
  for (const Classpath& classpath : classpaths) {
    manifest << classpath.name;
    for (const std::string& jar : classpath.jars) manifest << '\t' << jar;
    manifest << '\n';
  }
  if (!manifest.flush()) fail("cannot write " + (dir / "manifest.tsv").string());
  return 0;
}

std::vector<Classpath> read_manifest(const fs::path& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read manifest " + path.string());
  std::vector<Classpath> classpaths;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Classpath classpath;
    std::getline(fields, classpath.name, '\t');
    for (std::string jar; std::getline(fields, jar, '\t');) classpath.jars.push_back(jar);
    classpaths.push_back(std::move(classpath));
  }
  return classpaths;
}

// --- The traced run ---------------------------------------------------------

/// Exact counts of one repetition, summed over the workload's classpaths.
using Counts = std::map<std::string, double>;

template <typename T>
T expect_ok(util::Result<T> result, const std::string& what) {
  if (!result.ok()) fail(what + ": " + result.error().to_string());
  return std::move(result.value());
}

std::vector<std::string> chain_keys(const finder::FinderReport& report) {
  std::vector<std::string> keys;
  for (const finder::GadgetChain& chain : report.chains) keys.push_back(chain.key());
  return keys;
}

/// Steps 1-9 of the traced run for one classpath (README.md, "Traced run").
void trace_classpath(Recorder& rec, const Classpath& cp, const fs::path& cache_dir, int depth,
                     util::Executor* pool, Counts& counts, std::vector<std::string>& keys) {
  Scope whole(rec, "classpath " + cp.name);
  std::vector<jar::Archive> archives;
  archives.push_back(corpus::jdk_base_archive());

  // 1. Decode every archive, then link.
  {
    Scope s(rec, "jar.decode", "jar.decode_ms");
    for (const std::string& path : cp.jars) {
      Scope a(rec, "jar.read_archive_file", "jar.decode_ms");
      archives.push_back(expect_ok(jar::read_archive_file(path), path));
    }
  }
  jir::Program program = [&] {
    Scope s(rec, "jar.link", "jar.link_ms");
    return jar::link(archives);
  }();
  counts["jar.archives"] += static_cast<double>(cp.jars.size());
  counts["jar.classes"] += static_cast<double>(program.class_count());

  // 2. The controllability analysis on its own: build_cpg repeats it inside,
  // so this call estimates the analysis share of cpg.build_ms.
  {
    Scope s(rec, "analysis.precompute", "analysis.precompute_ms");
    jir::Hierarchy hierarchy(program);
    analysis::ControllabilityAnalysis analysis(program, hierarchy);
    analysis.precompute(pool);
    counts["analysis.methods"] += static_cast<double>(analysis.analyzed_count());
    counts["analysis.waves"] += static_cast<double>(analysis.precompute_stats().waves);
  }

  // 3. The whole CPG build.
  cpg::CpgOptions cpg_options;
  cpg_options.executor = pool;
  cpg::Cpg cpg = [&] {
    Scope s(rec, "cpg.build_cpg", "cpg.build_ms");
    return cpg::build_cpg(program, cpg_options);
  }();
  counts["cpg.classes"] += static_cast<double>(cpg.stats.class_nodes);
  counts["cpg.methods"] += static_cast<double>(cpg.stats.method_nodes);
  counts["cpg.edges"] += static_cast<double>(cpg.stats.relationship_edges);
  counts["cpg.call_edges"] += static_cast<double>(cpg.stats.call_edges);
  counts["cpg.alias_edges"] += static_cast<double>(cpg.stats.alias_edges);
  counts["cpg.pruned_call_sites"] += static_cast<double>(cpg.stats.pruned_call_sites);

  // 4. Freeze, serialize, publish — keyed exactly as the pipeline keys it.
  cache::AnalysisCache cache = expect_ok(cache::AnalysisCache::open(cache_dir), "cache open");
  std::uint64_t key = 0;
  {
    Scope s(rec, "cache.snapshot_key", "cache.publish_ms");
    std::vector<std::uint64_t> digests{util::fnv1a(jar::write_archive(archives.front()))};
    for (const std::string& path : cp.jars) {
      digests.push_back(expect_ok(cache::AnalysisCache::digest_file(path), path));
    }
    key = cache::AnalysisCache::snapshot_key(cpg::options_fingerprint(cpg_options), digests);
  }
  graph::FrozenGraph frozen = [&] {
    Scope s(rec, "graph.freeze", "graph.freeze_ms");
    return expect_ok(graph::FrozenGraph::freeze(cpg.db, key), "freeze");
  }();
  std::vector<std::byte> store = [&] {
    Scope s(rec, "graph.serialize", "graph.serialize_ms");
    return graph::serialize(cpg.db);
  }();
  {
    Scope s(rec, "cache.publish", "cache.publish_ms");
    auto stored = cache.store_snapshot(key, cpg.stats, store);
    if (!stored.ok()) fail("store_snapshot: " + stored.error().to_string());
    stored = cache.store_frozen(key, frozen);
    if (!stored.ok()) fail("store_frozen: " + stored.error().to_string());
  }
  counts["graph.frame_bytes"] += static_cast<double>(frozen.frame().size());
  counts["graph.store_bytes"] += static_cast<double>(store.size());

  // 5. The warm load a re-scan performs: digests, frame mmap, snapshot.
  {
    Scope s(rec, "cache.warm_load", "cache.warm_load_ms");
    for (const std::string& path : cp.jars) {
      expect_ok(cache::AnalysisCache::digest_file(path), path);
    }
    if (!cache.load_frozen(key).has_value()) fail("warm load: frozen frame missed");
    if (!cache.load_snapshot(key, /*need_db=*/false).has_value()) fail("warm load: snapshot missed");
  }

  // 6. A resident engine: the first open misses, the second is a hit.
  {
    pipeline::EngineOptions engine_options;
    engine_options.jobs = 0;
    pipeline::Engine engine(engine_options);
    pipeline::OpenOptions open_options;
    open_options.need_program = true;
    {
      Scope s(rec, "pipeline.open_miss");
      expect_ok(engine.open(cp.jars, {}, open_options), "engine open");
    }
    {
      Scope s(rec, "pipeline.open_hit", "pipeline.open_hit_ms");
      expect_ok(engine.open(cp.jars, {}, open_options), "engine open");
    }
    if (engine.stats().resident_hits != 1) fail("second engine open was not a resident hit");
  }

  // 7. The chain search, in process and in two crash-isolated workers.
  finder::FinderOptions finder_options;
  finder_options.max_depth = depth;
  finder_options.executor = pool;
  finder::FinderReport report = [&] {
    Scope s(rec, "finder.find_all", "finder.find_ms");
    return finder::GadgetChainFinder(frozen, finder_options).find_all();
  }();
  finder_options.dist.workers = 2;
  finder::FinderReport isolated = [&] {
    Scope s(rec, "dist.find_all", "dist.find_ms");
    return finder::GadgetChainFinder(frozen, finder_options).find_all();
  }();
  if (chain_keys(isolated) != chain_keys(report)) fail(cp.name + ": workers=2 changed the chains");
  counts["finder.chains"] += static_cast<double>(report.chains.size());
  counts["finder.expansions"] += static_cast<double>(report.expansions);
  counts["finder.peak_frontier_bytes"] =
      std::max(counts["finder.peak_frontier_bytes"], static_cast<double>(report.peak_frontier_bytes));
  counts["dist.workers_spawned"] += static_cast<double>(isolated.dist_stats.workers_spawned);
  for (std::string& key_text : chain_keys(report)) keys.push_back(cp.name + "\n" + key_text);

  // 8. Verification decomposed per chain, then the verify stage itself.
  finder::AliasView aliases(frozen);
  std::size_t steps = 0;
  std::size_t effective = 0;
  for (const finder::GadgetChain& chain : report.chains) {
    Scope c(rec, "finder.auto_verify");
    finder::PayloadResult payload = [&] {
      Scope s(rec, "finder.synthesize_payload", "finder.payload_ms");
      return finder::synthesize_payload(program, aliases, chain);
    }();
    std::unique_ptr<jir::Hierarchy> hierarchy;
    {
      Scope s(rec, "jir.hierarchy", "jir.hierarchy_ms");
      hierarchy = std::make_unique<jir::Hierarchy>(program);
    }
    Scope s(rec, "runtime.deserialize", "runtime.vm_ms");
    runtime::Interpreter vm(program, *hierarchy);
    runtime::ExecutionResult result = vm.deserialize(runtime::instantiate(payload.recipe));
    steps += result.steps;
    effective += result.attack_succeeded(chain.sink_signature()) ? 1 : 0;
  }
  finder::VerifyOptions verify_options;
  verify_options.executor = pool;
  finder::VerifyReport verified = [&] {
    Scope s(rec, "finder.verify_chains", "finder.verify_ms");
    return finder::verify_chains(program, aliases, report.chains, verify_options);
  }();
  if (verified.effective != effective || verified.steps_total != steps) {
    fail(cp.name + ": verify_chains disagrees with the per-chain replay");
  }
  counts["runtime.steps"] += static_cast<double>(steps);
  counts["runtime.effective"] += static_cast<double>(verified.effective);
  counts["runtime.refuted"] += static_cast<double>(verified.refuted);
  counts["runtime.unconfirmed"] += static_cast<double>(verified.unconfirmed);

  // 9. The fixed query texts over the frozen graph.
  cypher::QueryOptions query_options;
  query_options.executor = pool;
  for (const auto& [name, text] : kQueries) {
    Scope s(rec, "cypher." + name, "cypher." + name + "_ms");
    cypher::QueryResult rows = expect_ok(cypher::run_query(frozen, text, query_options), name);
    counts["cypher.rows." + name] += static_cast<double>(rows.rows.size());
  }
}

serve::Json numbers(const std::vector<double>& values) {
  serve::Json list = serve::Json::array();
  for (double value : values) list.push(serve::Json::number(value));
  return list;
}

/// Cost of recording one span, for the tracing-overhead figure.
double span_cost_us() {
  constexpr int kSpans = 20000;
  Recorder probe;
  std::int64_t start = now_us();
  for (int i = 0; i < kSpans; ++i) Scope s(probe, "probe", "probe");
  return static_cast<double>(now_us() - start) / kSpans;
}

int cmd_trace(const fs::path& manifest, const fs::path& work, int depth, int reps) {
  std::vector<Classpath> classpaths = read_manifest(manifest);
  if (classpaths.empty()) fail("empty manifest");
  std::unique_ptr<util::ThreadPool> pool = pipeline::make_pool(0);

  Recorder rec;
  std::vector<Counts> counts(reps);
  std::vector<std::string> keys;
  for (int rep = 0; rep < reps; ++rep) {
    rec.set_request(rep);
    fs::path cache_dir = work / ("trace-cache-" + std::to_string(rep));
    fs::remove_all(cache_dir);
    std::vector<std::string> rep_keys;
    {
      Scope s(rec, "traced run");
      for (const Classpath& cp : classpaths) {
        trace_classpath(rec, cp, cache_dir, depth, pool.get(), counts[rep], rep_keys);
      }
      // 10. The offline audit over everything this repetition published.
      Scope a(rec, "cache.audit_cache", "cache.audit_ms");
      cache::CacheAuditReport report = expect_ok(cache::audit_cache(cache_dir, false), "audit");
      if (!report.clean()) fail("cache audit found corrupt or orphaned entries");
      counts[rep]["cache.audited_entries"] = static_cast<double>(
          report.fragments_checked + report.snapshots_checked + report.frozen_checked);
    }
    fs::remove_all(cache_dir);
    if (rep == 0) keys = std::move(rep_keys);
  }

  const std::vector<SpanRecord>& spans = rec.spans();
  std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, std::vector<double>> metrics;  // metric -> ms per rep
  std::vector<double> rep_ms(reps, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) rep_ms[spans[i].request] = (spans[i].end_us - spans[i].start_us) / 1e3;
    if (spans[i].metric.empty()) continue;
    std::vector<double>& per_rep = metrics[spans[i].metric];
    per_rep.resize(reps, 0.0);
    per_rep[spans[i].request] += self[i] / 1e3;
  }

  serve::Json out = serve::Json::object();
  out.set("reps", static_cast<std::int64_t>(reps));
  out.set("counts_stable", std::all_of(counts.begin(), counts.end(),
                                       [&](const Counts& c) { return c == counts[0]; }));
  out.set("span_cost_us", span_cost_us());
  out.set("spans_per_rep", static_cast<std::uint64_t>(spans.size() / reps));
  out.set("rep_ms", numbers(rep_ms));
  serve::Json metric_times = serve::Json::object();
  for (const auto& [name, values] : metrics) metric_times.set(name, numbers(values));
  out.set("metrics", std::move(metric_times));
  serve::Json exact = serve::Json::object();
  for (const auto& [name, value] : counts[0]) exact.set(name, value);
  out.set("counts", std::move(exact));
  serve::Json key_list = serve::Json::array();
  for (const std::string& key : keys) key_list.push(serve::Json::string(key));
  out.set("chain_keys", std::move(key_list));
  serve::Json span_list = serve::Json::array();
  for (const SpanRecord& span : spans) {
    serve::Json row = serve::Json::array();
    row.push(serve::Json::string(span.name));
    row.push(serve::Json::number(static_cast<double>(span.start_us)));
    row.push(serve::Json::number(static_cast<double>(span.end_us)));
    row.push(serve::Json::number(span.parent));
    row.push(serve::Json::number(span.request));
    span_list.push(std::move(row));
  }
  out.set("spans", std::move(span_list));
  std::cout << out.dump() << "\n" << std::flush;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_layers gen WORKLOAD DIR\n"
               "       perfbench_layers trace MANIFEST WORK_DIR DEPTH REPS\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 3 && args[0] == "gen") return cmd_gen(args[1], args[2]);
  if (args.size() == 5 && args[0] == "trace") {
    int depth = std::stoi(args[3]);
    int reps = std::stoi(args[4]);
    if (depth < 1 || reps < 1) return usage();
    return cmd_trace(args[1], args[2], depth, reps);
  }
  return usage();
}
