// Tests for the frozen CSR snapshot (src/graph/frozen.hpp, docs/GRAPH.md):
// accessor-level equivalence with the append-only GraphDb it freezes, byte-level
// determinism of the frame, the fail-closed validation contract (truncation,
// bit flips, version skew are structured errors, never UB), and the cache's
// .tfzn publish/load/audit integration with the pipeline's warm frozen start
// and self-healing republish.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cli/cli.hpp"
#include "corpus/components.hpp"
#include "graph/frozen.hpp"
#include "graph/graph.hpp"
#include "graph/serialize.hpp"
#include "jar/archive.hpp"
#include "pipeline/engine.hpp"
#include "support/freeze.hpp"
#include "support/random_graph.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace tabby {
namespace {

namespace fs = std::filesystem;

/// A small graph exercising every property encoding the column format has:
/// typed bool/int/real/string/int-list columns, a heterogeneous (Mixed)
/// column, string lists, explicit nulls, and absent entries.
graph::GraphDb kitchen_sink_graph() {
  graph::GraphDb db;
  auto a = db.add_node("Method");
  auto b = db.add_node("Method");
  auto c = db.add_node("Class");
  auto d = db.add_node("Field");
  db.set_node_prop(a, "NAME", graph::Value{std::string("readObject")});
  db.set_node_prop(b, "NAME", graph::Value{std::string("exec")});
  db.set_node_prop(a, "IS_SOURCE", graph::Value{true});
  db.set_node_prop(b, "IS_SINK", graph::Value{true});
  db.set_node_prop(c, "ACCESS", graph::Value{std::int64_t{33}});
  db.set_node_prop(c, "SCORE", graph::Value{2.5});
  db.set_node_prop(d, "TAGS", graph::Value{std::vector<std::string>{"a", "bb"}});
  // Heterogeneous key: int on one node, string on another -> Mixed column.
  db.set_node_prop(a, "MIXED", graph::Value{std::int64_t{7}});
  db.set_node_prop(b, "MIXED", graph::Value{std::string("seven")});
  db.set_node_prop(c, "MIXED", graph::Value{false});
  db.set_node_prop(d, "NOTHING", graph::Value{});  // explicit null
  db.add_edge(a, b, "CALL",
              {{"POLLUTED_POSITION", graph::Value{std::vector<std::int64_t>{0, -1}}}});
  db.add_edge(b, c, "CALL",
              {{"POLLUTED_POSITION", graph::Value{std::vector<std::int64_t>{2}}},
               {"ORDER", graph::Value{std::int64_t{1}}}});
  db.add_edge(c, d, "CONTAINS");
  db.add_edge(a, c, "ALIAS");
  return db;
}

/// Randomized graph (shared generator in tests/support/).
using testsupport::random_graph;

/// The scalar reads a frame promises, taken from the value itself.
std::string string_or_empty(const graph::Value& v) {
  const std::string* s = std::get_if<std::string>(&v);
  return s != nullptr ? *s : std::string{};
}
bool true_bool(const graph::Value& v) {
  const bool* b = std::get_if<bool>(&v);
  return b != nullptr && *b;
}
std::int64_t int_or(const graph::Value& v, std::int64_t fallback) {
  const std::int64_t* i = std::get_if<std::int64_t>(&v);
  return i != nullptr ? *i : fallback;
}

/// Asserts every accessor of `fg` agrees with the buffer it froze. The
/// buffer never removes anything, so both share node and edge ids; the
/// reference adjacency is the edges in insertion order.
void expect_equivalent(const graph::GraphDb& db, const graph::FrozenGraph& fg) {
  ASSERT_EQ(fg.node_count(), db.node_count());
  ASSERT_EQ(fg.edge_count(), db.edge_count());
  const std::vector<graph::Node>& nodes = db.nodes();
  const std::vector<graph::Edge>& edges = db.edges();

  std::vector<std::vector<graph::EdgeId>> out(nodes.size()), in(nodes.size());
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(fg.edge_from(e), edges[e].from);
    EXPECT_EQ(fg.edge_to(e), edges[e].to);
    EXPECT_EQ(fg.edge_type_name(fg.edge_type(e)), edges[e].type);
    out[edges[e].from].push_back(e);
    in[edges[e].to].push_back(e);
  }

  for (graph::NodeId i = 0; i < nodes.size(); ++i) {
    const graph::Node& node = nodes[i];
    EXPECT_EQ(fg.label(i), node.label);

    // Untyped iteration must replay insertion order exactly.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
    fg.for_each_out_ordered(i, [&](std::uint32_t e, std::uint32_t nbr) {
      got.emplace_back(e, nbr);
    });
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want;
    for (graph::EdgeId e : out[i]) want.emplace_back(e, edges[e].to);
    EXPECT_EQ(got, want) << "out adjacency of node " << i;

    got.clear();
    fg.for_each_in_ordered(i, [&](std::uint32_t e, std::uint32_t nbr) {
      got.emplace_back(e, nbr);
    });
    want.clear();
    for (graph::EdgeId e : in[i]) want.emplace_back(e, edges[e].from);
    EXPECT_EQ(got, want) << "in adjacency of node " << i;

    // Typed slices preserve the filtered insertion order.
    for (std::uint16_t t = 0; t < fg.edge_type_count(); ++t) {
      std::string_view type = fg.edge_type_name(t);
      auto view = fg.out_edges_typed_view(i, t);
      std::vector<graph::EdgeId> typed;
      for (graph::EdgeId e : out[i])
        if (edges[e].type == type) typed.push_back(e);
      ASSERT_EQ(view.size(), typed.size());
      for (std::size_t j = 0; j < typed.size(); ++j) {
        EXPECT_EQ(view.edge[j], typed[j]);
        EXPECT_EQ(view.nbr[j], edges[typed[j]].to);
      }
    }

    // Every property round-trips through the columnar encoding.
    for (const auto& [key, value] : node.props) {
      auto got_value = fg.node_prop(i, key);
      ASSERT_TRUE(got_value.has_value()) << key;
      EXPECT_TRUE(*got_value == value) << key;
      EXPECT_EQ(fg.node_prop_string(i, key), string_or_empty(value));
      EXPECT_EQ(fg.node_prop_bool(i, key), true_bool(value));
      EXPECT_EQ(fg.node_prop_int(i, key, -7), int_or(value, -7));
    }
    EXPECT_FALSE(fg.node_prop(i, "NO_SUCH_KEY").has_value());
  }

  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    for (const auto& [key, value] : edges[e].props) {
      auto got_value = fg.edge_prop(e, key);
      ASSERT_TRUE(got_value.has_value()) << key;
      EXPECT_TRUE(*got_value == value) << key;
    }
  }

  // Label scans list ascending ids.
  for (std::uint16_t l = 0; l < fg.label_count(); ++l) {
    std::string_view label = fg.label_name(l);
    std::vector<graph::NodeId> want;
    for (graph::NodeId i = 0; i < nodes.size(); ++i)
      if (nodes[i].label == label) want.push_back(i);
    EXPECT_EQ(fg.nodes_with_label(label), want) << label;
  }
  EXPECT_TRUE(fg.nodes_with_label("NoSuchLabel").empty());
}

TEST(FrozenGraph, KitchenSinkRoundTrip) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = testing::freeze(db);
  expect_equivalent(db, fg);

  // find_nodes compares with value_equals, including on the Mixed column.
  auto sinks = fg.find_nodes("Method", "IS_SINK", graph::Value{true});
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(fg.node_prop_string(sinks[0], "NAME"), "exec");
  EXPECT_EQ(fg.find_nodes("Method", "MIXED", graph::Value{std::string("seven")}).size(), 1u);
  EXPECT_EQ(fg.find_nodes("Class", "MIXED", graph::Value{false}).size(), 1u);
  EXPECT_TRUE(fg.find_nodes("Method", "IS_SINK", graph::Value{false}).empty());
}

TEST(FrozenGraph, FreezeIsDeterministicAndStoreStable) {
  graph::GraphDb db = random_graph(11);
  graph::FrozenGraph once = testing::freeze(db, 99);
  graph::FrozenGraph twice = testing::freeze(db, 99);
  ASSERT_EQ(once.frame().size(), twice.frame().size());
  EXPECT_EQ(std::memcmp(once.frame().data(), twice.frame().data(), once.frame().size()), 0);

  // Freezing a store round trip yields the same bytes: both keep the
  // buffer's dense ids.
  auto bytes = graph::serialize(db);
  auto restored = graph::deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  graph::FrozenGraph thawed = testing::freeze(restored.value(), 99);
  ASSERT_EQ(once.frame().size(), thawed.frame().size());
  EXPECT_EQ(std::memcmp(once.frame().data(), thawed.frame().data(), once.frame().size()), 0);
}

TEST(FrozenGraph, SaveMapFileAndFromBytesRoundTrip) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = testing::freeze(db, 0xDEADBEEF);
  EXPECT_EQ(fg.content_key(), 0xDEADBEEFu);
  EXPECT_FALSE(fg.mapped());

  fs::path path = fs::temp_directory_path() / ("tabby_frozen_" + std::to_string(::getpid()));
  ASSERT_TRUE(fg.save(path).ok());
  ASSERT_EQ(fs::file_size(path), fg.frame().size());

  auto mapped = graph::FrozenGraph::map_file(path);
  ASSERT_TRUE(mapped.ok()) << mapped.error().message;
  EXPECT_TRUE(mapped.value().mapped());
  EXPECT_EQ(mapped.value().content_key(), 0xDEADBEEFu);
  expect_equivalent(db, mapped.value());

  auto copied = graph::FrozenGraph::from_bytes(fg.frame());
  ASSERT_TRUE(copied.ok()) << copied.error().message;
  EXPECT_FALSE(copied.value().mapped());
  expect_equivalent(db, copied.value());
  fs::remove(path);
}

/// Hand-built adjacency shapes that a per-node bucketing of edges gets wrong
/// first: no edges at all, self-loops, one node's out- and in-edges of three
/// types arriving interleaved, and nodes that only receive edges.
std::vector<std::pair<std::string, graph::GraphDb>> adjacency_edge_cases() {
  std::vector<std::pair<std::string, graph::GraphDb>> cases;
  cases.emplace_back("empty", graph::GraphDb{});
  {
    graph::GraphDb db;
    for (int i = 0; i < 5; ++i) db.add_node(i % 2 == 0 ? "Method" : "Class");
    cases.emplace_back("edgeless", std::move(db));
  }
  {
    graph::GraphDb db;
    auto a = db.add_node("Method");
    auto b = db.add_node("Method");
    db.add_edge(a, a, "CALL");
    db.add_edge(a, b, "ALIAS");
    db.add_edge(a, a, "ALIAS");
    db.add_edge(b, b, "CALL");
    db.add_edge(a, a, "CALL", {{"W", graph::Value{std::int64_t{3}}}});
    cases.emplace_back("self-loops", std::move(db));
  }
  {
    graph::GraphDb db;
    auto hub = db.add_node("Method");
    auto x = db.add_node("Class");
    auto y = db.add_node("Method");
    const char* types[] = {"HAS", "CALL", "ALIAS"};
    for (int k = 0; k < 12; ++k) {
      const char* type = types[(k * 7) % 3];
      if (k % 2 == 0) {
        db.add_edge(hub, k % 4 == 0 ? x : y, type);
      } else {
        db.add_edge(k % 3 == 0 ? y : x, hub, type);
      }
    }
    cases.emplace_back("interleaved-types", std::move(db));
  }
  {
    graph::GraphDb db;
    auto src = db.add_node("Method");
    auto sink1 = db.add_node("Method");
    auto sink2 = db.add_node("Class");
    db.add_node("Class");  // isolated between receivers
    auto sink3 = db.add_node("Method");
    db.add_edge(src, sink3, "CALL");
    db.add_edge(src, sink1, "CALL");
    db.add_edge(src, sink2, "HAS");
    db.add_edge(src, sink1, "ALIAS");
    db.add_edge(src, sink3, "CALL");
    cases.emplace_back("in-edges-only", std::move(db));
  }
  return cases;
}

TEST(FrozenGraph, EquivalenceFuzz) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    graph::GraphDb db = random_graph(seed);
    graph::FrozenGraph fg = testing::freeze(db);
    expect_equivalent(db, fg);
  }
  for (const auto& [name, db] : adjacency_edge_cases()) {
    SCOPED_TRACE(name);
    graph::FrozenGraph fg = testing::freeze(db);
    expect_equivalent(db, fg);
  }
}

TEST(FrozenGraph, TruncationIsACleanError) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = testing::freeze(db);
  std::vector<std::byte> frame(fg.frame().begin(), fg.frame().end());
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{47},
                          frame.size() / 2, frame.size() - 1}) {
    auto result =
        graph::FrozenGraph::from_bytes(std::span<const std::byte>(frame.data(), len));
    ASSERT_FALSE(result.ok()) << "truncated to " << len << " bytes";
    EXPECT_FALSE(result.error().message.empty());
  }
}

TEST(FrozenGraph, EveryBitFlipIsDetected) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = testing::freeze(db, 77);
  std::vector<std::byte> pristine(fg.frame().begin(), fg.frame().end());
  // Sample offsets across the whole frame (header, directory, sections,
  // trailing checksum included); the trailing checksum must catch each flip.
  std::size_t step = std::max<std::size_t>(1, pristine.size() / 64);
  for (std::size_t off = 0; off < pristine.size(); off += step) {
    std::vector<std::byte> frame = pristine;
    frame[off] ^= std::byte{0x40};
    auto result = graph::FrozenGraph::from_bytes(frame);
    EXPECT_FALSE(result.ok()) << "flip at offset " << off << " went undetected";
  }
  std::vector<std::byte> last = pristine;
  last.back() ^= std::byte{0x01};
  EXPECT_FALSE(graph::FrozenGraph::from_bytes(last).ok());
}

TEST(FrozenGraph, VersionSkewAndBadMagicAreStructuredErrors) {
  graph::GraphDb db = kitchen_sink_graph();
  graph::FrozenGraph fg = testing::freeze(db);
  std::vector<std::byte> frame(fg.frame().begin(), fg.frame().end());

  // Re-signing an untouched frame at the current version attaches, so the
  // helper signs with the frame's own digest and the rejections below are
  // the version's alone.
  EXPECT_TRUE(
      graph::FrozenGraph::from_bytes(testing::with_frame_version(frame, graph::kFrozenVersion))
          .ok());

  // A newer and two older versions, re-signed so the checksum cannot mask
  // the skew: version 1 is the layout before the stats section was fixed
  // and the build counts were added; version 2 is this layout signed with
  // FNV-1a64.
  for (std::uint16_t version :
       {std::uint16_t(graph::kFrozenVersion + 1), std::uint16_t{1}, std::uint16_t{2}}) {
    auto skewed = graph::FrozenGraph::from_bytes(testing::with_frame_version(frame, version));
    ASSERT_FALSE(skewed.ok()) << version;
    EXPECT_NE(skewed.error().message.find("version " + std::to_string(version)),
              std::string::npos)
        << skewed.error().message;
  }

  auto resign = [](std::vector<std::byte>& f) {
    std::uint64_t sum = util::content_digest(
        std::span<const std::byte>(f.data(), f.size() - graph::kFrozenChecksumSize));
    std::memcpy(f.data() + f.size() - graph::kFrozenChecksumSize, &sum, sizeof sum);
  };

  std::vector<std::byte> untouched = frame;
  resign(untouched);
  EXPECT_TRUE(graph::FrozenGraph::from_bytes(untouched).ok());

  std::vector<std::byte> wrong = frame;
  std::uint32_t magic = 0x12345678;
  std::memcpy(wrong.data(), &magic, sizeof magic);
  resign(wrong);
  EXPECT_FALSE(graph::FrozenGraph::from_bytes(wrong).ok());
}

// --- Cache + pipeline + CLI integration -------------------------------------

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

class FrozenCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("tabby_frozen_cache_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    jar_ = (dir_ / "one.tjar").string();
    ASSERT_TRUE(jar::write_archive_file(corpus::build_component("BeanShell1").jar, jar_).ok());
    cache_dir_ = (dir_ / "cache").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<fs::path> frozen_frames() {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(fs::path(cache_dir_) / "snapshots"))
      if (entry.path().extension() == ".tfzn") out.push_back(entry.path());
    return out;
  }

  fs::path dir_;
  std::string jar_, cache_dir_;
};

TEST_F(FrozenCacheFixture, StoreAndLoadFrozenRoundTrip) {
  auto cache = cache::AnalysisCache::open(cache_dir_);
  ASSERT_TRUE(cache.ok()) << cache.error().message;

  graph::GraphDb db = kitchen_sink_graph();
  std::uint64_t key = 0xABCD;
  graph::FrozenGraph fg = testing::freeze(db, key);
  ASSERT_TRUE(cache.value().store_frozen(key, fg).ok());

  std::string reason = "sentinel";
  auto loaded = cache.value().load_frozen(key, &reason);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(reason.empty());
  EXPECT_EQ(loaded->content_key(), key);
  expect_equivalent(db, *loaded);

  // Content-key mismatch on publish is an error, not a silent bad entry.
  EXPECT_FALSE(cache.value().store_frozen(key + 1, fg).ok());

  // A miss on an absent key leaves the corrupt reason empty.
  reason = "sentinel";
  EXPECT_FALSE(cache.value().load_frozen(key + 2, &reason).has_value());
  EXPECT_TRUE(reason.empty());

  // A bit-flipped frame is a miss WITH a structural reason.
  auto frames = frozen_frames();
  ASSERT_EQ(frames.size(), 1u);
  flip_byte(frames[0], fs::file_size(frames[0]) / 2);
  reason.clear();
  EXPECT_FALSE(cache.value().load_frozen(key, &reason).has_value());
  EXPECT_FALSE(reason.empty());
}

TEST_F(FrozenCacheFixture, AuditSeesFrozenFramesAndPrunesOrphans) {
  // Warm the cache through the pipeline: the frame is the whole entry.
  CliRun cold = run({"find", jar_, "--cache", cache_dir_});
  ASSERT_EQ(cold.code, 0) << cold.err;
  ASSERT_EQ(frozen_frames().size(), 1u);

  auto report = cache::audit_cache(cache_dir_, /*prune=*/false);
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().frozen_checked, 1u);
  bool saw_frozen = false;
  for (const auto& entry : report.value().entries)
    saw_frozen |= entry.kind == cache::CacheAuditEntry::Kind::FrozenSnapshot;
  EXPECT_TRUE(saw_frozen);

  // A store snapshot under the frame's key (what an older layout published
  // next to each frame) round-trips its stats, and is intact while the
  // frame is.
  const fs::path frame = frozen_frames()[0];
  const std::uint64_t key = std::stoull(frame.stem().string(), nullptr, 16);
  {
    auto cache = cache::AnalysisCache::open(cache_dir_);
    ASSERT_TRUE(cache.ok()) << cache.error().message;
    cpg::CpgStats stats = cpg::stats_from({1, 2, 3, 4, 5, 6, 7, 8});
    stats.build_seconds = 0.5;
    graph::GraphDb db = kitchen_sink_graph();
    ASSERT_TRUE(cache.value().store_snapshot(key, stats, graph::serialize(db)).ok());
    auto loaded = cache.value().load_snapshot(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(cpg::build_counts(loaded->stats), cpg::build_counts(stats));
    EXPECT_EQ(loaded->stats.build_seconds, 0.5);
  }
  auto paired = cache::audit_cache(cache_dir_, /*prune=*/false);
  ASSERT_TRUE(paired.ok()) << paired.error().message;
  EXPECT_TRUE(paired.value().clean()) << paired.value().to_string();
  EXPECT_EQ(paired.value().snapshots_checked, 1u);

  // Deleting the frame orphans the snapshot; prune reclaims it.
  fs::remove(frame);
  auto orphaned = cache::audit_cache(cache_dir_, /*prune=*/true);
  ASSERT_TRUE(orphaned.ok()) << orphaned.error().message;
  EXPECT_EQ(orphaned.value().orphaned, 1u);
  EXPECT_GT(orphaned.value().reclaimed_bytes, 0u);
  EXPECT_TRUE(fs::is_empty(fs::path(cache_dir_) / "snapshots"));
}

TEST_F(FrozenCacheFixture, WarmFrozenStartSkipsTheStoreDecode) {
  pipeline::EngineOptions options;
  options.cache_dir = cache_dir_;
  // A fresh engine per open, so each one consults the cache.
  auto open_fresh = [&] { return pipeline::Engine(options).open({jar_}, {}); };
  auto cold_open = open_fresh();
  ASSERT_TRUE(cold_open.ok()) << cold_open.error().message;
  const pipeline::Outcome& cold = cold_open.value()->outcome();
  EXPECT_FALSE(cold.warm);
  EXPECT_FALSE(cold.frozen.mapped());

  // The warm run maps the published frame; there is nothing else to read.
  auto warm_open = open_fresh();
  ASSERT_TRUE(warm_open.ok()) << warm_open.error().message;
  const pipeline::Outcome& warm = warm_open.value()->outcome();
  EXPECT_TRUE(warm.warm);
  EXPECT_TRUE(warm.frozen.mapped());
  EXPECT_TRUE(std::ranges::equal(warm.frozen.frame(), cold.frozen.frame()));

  // Corrupt the cached frame: the next run warns, rebuilds from the
  // classpath — and self-heals by republishing the same frame.
  auto frames = frozen_frames();
  ASSERT_EQ(frames.size(), 1u);
  std::vector<char> before(fs::file_size(frames[0]));
  std::ifstream(frames[0], std::ios::binary).read(before.data(), before.size());
  flip_byte(frames[0], fs::file_size(frames[0]) - 3);
  auto healed_open = open_fresh();
  ASSERT_TRUE(healed_open.ok()) << healed_open.error().message;
  const pipeline::Outcome& healed = healed_open.value()->outcome();
  EXPECT_FALSE(healed.warm);
  EXPECT_FALSE(healed.frozen.mapped());
  EXPECT_NE(healed.cache_line.find("snapshot miss"), std::string::npos) << healed.cache_line;
  bool warned = false;
  for (const auto& warning : healed.warnings)
    warned |= warning.find("frozen") != std::string::npos;
  EXPECT_TRUE(warned);
  std::vector<char> after(fs::file_size(frames[0]));
  std::ifstream(frames[0], std::ios::binary).read(after.data(), after.size());
  EXPECT_EQ(before, after);  // byte-identical republish
}

// A warm open reports what the cold build counted, from the frame alone;
// only the wall time differs, because nothing was built.
TEST_F(FrozenCacheFixture, WarmStatsEqualTheColdBuildsCounts) {
  pipeline::EngineOptions options;
  options.cache_dir = cache_dir_;
  auto cold_open = pipeline::Engine(options).open({jar_}, {});
  auto warm_open = pipeline::Engine(options).open({jar_}, {});
  ASSERT_TRUE(cold_open.ok()) << cold_open.error().message;
  ASSERT_TRUE(warm_open.ok()) << warm_open.error().message;
  const cpg::CpgStats& cold = cold_open.value()->outcome().stats;
  const cpg::CpgStats& warm = warm_open.value()->outcome().stats;
  ASSERT_TRUE(warm_open.value()->outcome().warm);
  EXPECT_GT(cold.method_nodes, 0u);
  EXPECT_GT(cold.sink_methods, 0u);
  EXPECT_EQ(warm.class_nodes, cold.class_nodes);
  EXPECT_EQ(warm.method_nodes, cold.method_nodes);
  EXPECT_EQ(warm.relationship_edges, cold.relationship_edges);
  EXPECT_EQ(warm.call_edges, cold.call_edges);
  EXPECT_EQ(warm.alias_edges, cold.alias_edges);
  EXPECT_EQ(warm.pruned_call_sites, cold.pruned_call_sites);
  EXPECT_EQ(warm.source_methods, cold.source_methods);
  EXPECT_EQ(warm.sink_methods, cold.sink_methods);
  EXPECT_EQ(warm.build_seconds, 0.0);
  EXPECT_EQ(cpg::build_counts(cold), warm_open.value()->outcome().frozen.build_counts());
}

// A version-1 or version-2 frame under the classpath's key (what an older
// tabby left) is a miss: the open rebuilds, republishes a current frame
// over it, and the next open is a hit.
TEST_F(FrozenCacheFixture, VersionOneFrameIsAMissThatRepublishes) {
  pipeline::EngineOptions options;
  options.cache_dir = cache_dir_;
  auto cold_open = pipeline::Engine(options).open({jar_}, {});
  ASSERT_TRUE(cold_open.ok()) << cold_open.error().message;
  auto frames = frozen_frames();
  ASSERT_EQ(frames.size(), 1u);
  for (std::uint16_t version : {std::uint16_t{1}, std::uint16_t{2}}) {
    SCOPED_TRACE("version " + std::to_string(version));
    {
      std::vector<std::byte> old =
          testing::with_frame_version(cold_open.value()->outcome().frozen.frame(), version);
      std::ofstream out(frames[0], std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(old.data()),
                static_cast<std::streamsize>(old.size()));
    }

    auto upgraded = pipeline::Engine(options).open({jar_}, {});
    ASSERT_TRUE(upgraded.ok()) << upgraded.error().message;
    EXPECT_FALSE(upgraded.value()->outcome().warm);
    EXPECT_NE(upgraded.value()->outcome().cache_line.find("snapshot miss"), std::string::npos);
    auto republished = graph::FrozenGraph::map_file(frames[0]);
    ASSERT_TRUE(republished.ok()) << republished.error().message;
    EXPECT_TRUE(std::ranges::equal(republished.value().frame(),
                                   cold_open.value()->outcome().frozen.frame()));

    auto warm = pipeline::Engine(options).open({jar_}, {});
    ASSERT_TRUE(warm.ok()) << warm.error().message;
    EXPECT_TRUE(warm.value()->outcome().warm);
  }
}

}  // namespace
}  // namespace tabby
