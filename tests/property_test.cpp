// Cross-module property tests, swept over every Table IX component model:
// archive and text round trips, CPG structural invariants, chain soundness
// (every reported chain is a CALL/ALIAS-connected source-to-sink path whose
// Trigger_Condition survives), and persistence stability of search results.
#include <gtest/gtest.h>

#include "analysis/domain.hpp"
#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "cpg/schema.hpp"
#include "finder/finder.hpp"
#include "graph/serialize.hpp"
#include "jir/parser.hpp"
#include "jir/printer.hpp"
#include "support/freeze.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace tabby {
namespace {

class ComponentProperty : public ::testing::TestWithParam<std::string> {
 public:
  static std::string sanitize(const std::string& name) {
    std::string out = name;
    for (char& c : out) {
      if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
    }
    return out;
  }
};

TEST_P(ComponentProperty, ArchiveBinaryRoundTrip) {
  corpus::Component component = corpus::build_component(GetParam());
  auto bytes = jar::write_archive(component.jar);
  auto reread = jar::read_archive(bytes);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  ASSERT_EQ(reread.value().classes.size(), component.jar.classes.size());
  // Canonical text must be identical class-by-class.
  for (std::size_t i = 0; i < component.jar.classes.size(); ++i) {
    EXPECT_EQ(jir::to_text(reread.value().classes[i]), jir::to_text(component.jar.classes[i]));
  }
}

TEST_P(ComponentProperty, TextualRoundTrip) {
  corpus::Component component = corpus::build_component(GetParam());
  jir::Program program = component.link();
  std::string text = jir::to_text(program);
  auto reparsed = jir::parse_program(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(jir::to_text(reparsed.value()), text);
}

TEST_P(ComponentProperty, CpgStructuralInvariants) {
  corpus::Component component = corpus::build_component(GetParam());
  graph::FrozenGraph db = tabby::testing::freeze(cpg::build_cpg(component.link()).db);

  for (graph::EdgeId e = 0; e < db.edge_count(); ++e) {
    graph::NodeId from = db.edge_from(e);
    graph::NodeId to = db.edge_to(e);
    std::string_view type = db.edge_type_name(db.edge_type(e));
    if (type == cpg::kHasEdge) {
      EXPECT_EQ(db.label(from), cpg::kClassLabel);
      EXPECT_EQ(db.label(to), cpg::kMethodLabel);
      // The method's CLASSNAME is its owning class's NAME.
      EXPECT_EQ(db.node_prop_string(to, cpg::kPropClassName),
                db.node_prop_string(from, cpg::kPropName));
    } else if (type == cpg::kExtendEdge || type == cpg::kInterfaceEdge) {
      EXPECT_EQ(db.label(from), cpg::kClassLabel);
      EXPECT_EQ(db.label(to), cpg::kClassLabel);
    } else if (type == cpg::kCallEdge) {
      EXPECT_EQ(db.label(from), cpg::kMethodLabel);
      EXPECT_EQ(db.label(to), cpg::kMethodLabel);
      // Every surviving CALL edge has a PP with at least one controllable
      // position (the PCG pruning invariant).
      auto pp = db.edge_prop(e, cpg::kPropPollutedPosition);
      ASSERT_TRUE(pp.has_value());
      const auto* weights = std::get_if<std::vector<std::int64_t>>(&*pp);
      ASSERT_NE(weights, nullptr);
      EXPECT_FALSE(weights->empty());
      bool any_controllable = false;
      for (std::int64_t w : *weights) any_controllable |= analysis::is_controllable(w);
      EXPECT_TRUE(any_controllable);
    } else if (type == cpg::kAliasEdge) {
      // ALIAS links methods with identical name and arity.
      EXPECT_EQ(db.node_prop_string(from, cpg::kPropName), db.node_prop_string(to, cpg::kPropName));
      EXPECT_EQ(db.node_prop_int(from, cpg::kPropParamCount),
                db.node_prop_int(to, cpg::kPropParamCount));
    }
  }

  // Every source node sits in a serializable class.
  for (graph::NodeId id : db.find_nodes(cpg::kMethodLabel, cpg::kPropIsSource, graph::Value{true})) {
    std::string owner(db.node_prop_string(id, cpg::kPropClassName));
    auto classes = db.find_nodes(cpg::kClassLabel, cpg::kPropName, graph::Value{owner});
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_TRUE(db.node_prop_bool(classes[0], cpg::kPropSerializable)) << owner;
  }
}

TEST_P(ComponentProperty, ReportedChainsAreConnectedSourceToSinkPaths) {
  corpus::Component component = corpus::build_component(GetParam());
  graph::FrozenGraph cpg = tabby::testing::freeze(cpg::build_cpg(component.link()).db);
  auto has_edge = [&](graph::NodeId from, graph::NodeId to, std::string_view type) {
    auto id = cpg.edge_type_id(type);
    if (!id.has_value()) return false;
    graph::AdjacencyView out = cpg.out_edges_typed_view(from, *id);
    return std::find(out.nbr.begin(), out.nbr.end(), to) != out.nbr.end();
  };
  finder::GadgetChainFinder finder(cpg);
  for (const finder::GadgetChain& chain : finder.find_all().chains) {
    ASSERT_GE(chain.nodes.size(), 2u);
    EXPECT_TRUE(cpg.node_prop_bool(chain.nodes.front(), cpg::kPropIsSource));
    EXPECT_TRUE(cpg.node_prop_bool(chain.nodes.back(), cpg::kPropIsSink));
    for (std::size_t i = 0; i + 1 < chain.nodes.size(); ++i) {
      // Forward CALL (caller -> callee) or reverse ALIAS (override <- decl).
      bool connected = has_edge(chain.nodes[i], chain.nodes[i + 1], cpg::kCallEdge) ||
                       has_edge(chain.nodes[i + 1], chain.nodes[i], cpg::kAliasEdge);
      EXPECT_TRUE(connected) << chain.signatures[i] << " -/-> " << chain.signatures[i + 1];
    }
    // No node repeats (NodePath uniqueness).
    std::set<graph::NodeId> unique(chain.nodes.begin(), chain.nodes.end());
    EXPECT_EQ(unique.size(), chain.nodes.size());
  }
}

TEST_P(ComponentProperty, SearchResultsSurviveGraphPersistence) {
  corpus::Component component = corpus::build_component(GetParam());
  cpg::Cpg cpg = cpg::build_cpg(component.link());
  graph::FrozenGraph built = tabby::testing::freeze(cpg.db);
  auto chains_before = finder::GadgetChainFinder(built).find_all().chains;

  auto loaded = graph::deserialize(graph::serialize(cpg.db));
  ASSERT_TRUE(loaded.ok());
  graph::FrozenGraph reloaded = tabby::testing::freeze(loaded.value());
  auto chains_after = finder::GadgetChainFinder(reloaded).find_all().chains;

  ASSERT_EQ(chains_after.size(), chains_before.size());
  std::multiset<std::string> keys_before, keys_after;
  for (const auto& c : chains_before) keys_before.insert(c.key());
  for (const auto& c : chains_after) keys_after.insert(c.key());
  EXPECT_EQ(keys_before, keys_after);
}

TEST_P(ComponentProperty, PrunedGraphIsSubsetOfUnpruned) {
  corpus::Component component = corpus::build_component(GetParam());
  jir::Program program = component.link();
  cpg::Cpg pruned = cpg::build_cpg(program);
  cpg::CpgOptions raw_options;
  raw_options.prune_uncontrollable_calls = false;
  cpg::Cpg raw = cpg::build_cpg(program, raw_options);
  EXPECT_LE(pruned.stats.call_edges, raw.stats.call_edges);
  EXPECT_EQ(pruned.stats.call_edges + pruned.stats.pruned_call_sites >= raw.stats.call_edges,
            true);
  // Pruning must not change what the finder reports (TC checking already
  // rejects those edges): result sets are identical.
  graph::FrozenGraph pruned_frame = tabby::testing::freeze(pruned.db);
  graph::FrozenGraph raw_frame = tabby::testing::freeze(raw.db);
  finder::GadgetChainFinder on_pruned(pruned_frame);
  finder::GadgetChainFinder on_raw(raw_frame);
  std::multiset<std::string> a, b;
  for (const auto& c : on_pruned.find_all().chains) a.insert(c.key());
  for (const auto& c : on_raw.find_all().chains) b.insert(c.key());
  EXPECT_EQ(a, b);
}

// --- Content-digest properties backing the incremental cache keys ---------

/// The digest of an archive is a pure function of its bytes: computing it
/// serially, in reverse enumeration order, or concurrently across a worker
/// pool yields the same value per archive. (Archive *ordering* still matters
/// to the combined snapshot key — the linker's first-wins rule — but never
/// to the per-archive digests the key is folded from.)
TEST(DigestProperty, StableAcrossOrderingsAndJobCounts) {
  const std::vector<std::string>& names = corpus::component_names();
  std::vector<std::vector<std::byte>> archives;
  for (const std::string& name : names) {
    archives.push_back(jar::write_archive(corpus::build_component(name).jar));
  }

  std::vector<std::uint64_t> forward(archives.size()), reverse(archives.size()),
      parallel(archives.size());
  for (std::size_t i = 0; i < archives.size(); ++i) forward[i] = util::content_digest(archives[i]);
  for (std::size_t i = archives.size(); i-- > 0;) reverse[i] = util::content_digest(archives[i]);
  util::ThreadPool pool(4);
  pool.parallel_for(archives.size(),
                    [&](std::size_t i) { parallel[i] = util::content_digest(archives[i]); });

  EXPECT_EQ(forward, reverse);
  EXPECT_EQ(forward, parallel);

  // Distinct components produce distinct digests (no accidental aliasing
  // that would let one component's snapshot answer for another).
  std::set<std::uint64_t> unique(forward.begin(), forward.end());
  EXPECT_EQ(unique.size(), forward.size());
}

/// Every content-digest step is a bijection of the 64-bit state and
/// injective in its input, so for equal-length inputs a single-byte change
/// *always* changes the digest — exhaustively checked at every offset of a
/// real archive. A stale snapshot can therefore never be served for a .tjar
/// that was mutated in place.
TEST(DigestProperty, AnySingleByteMutationChangesTheDigest) {
  std::vector<std::byte> bytes = jar::write_archive(corpus::build_component("BeanShell1").jar);
  ASSERT_FALSE(bytes.empty());
  std::uint64_t original = util::content_digest(bytes);
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    std::byte saved = bytes[offset];
    bytes[offset] ^= std::byte{0x01};
    EXPECT_NE(util::content_digest(bytes), original) << "digest collision at offset " << offset;
    bytes[offset] = saved;
  }
}

/// `length` bytes of a fixed pattern whose period (251) is prime to the
/// 32-byte stripe, so no two stripes repeat.
std::vector<std::byte> digest_pattern(std::size_t length) {
  std::vector<std::byte> bytes(length);
  for (std::size_t i = 0; i < length; ++i) bytes[i] = static_cast<std::byte>(i % 251);
  return bytes;
}

/// The same guarantee at every length 0..130: every tail length (0..31)
/// on both sides of the stripe boundary, every offset and every bit.
TEST(DigestProperty, SingleBitFlipsChangeTheDigestAtEveryLengthAndOffset) {
  for (std::size_t length = 0; length <= 130; ++length) {
    std::vector<std::byte> bytes = digest_pattern(length);
    const std::uint64_t original = util::content_digest(bytes);
    for (std::size_t offset = 0; offset < length; ++offset) {
      for (int bit = 0; bit < 8; ++bit) {
        const std::byte mask = static_cast<std::byte>(1u << bit);
        bytes[offset] ^= mask;
        EXPECT_NE(util::content_digest(bytes), original)
            << "collision at length " << length << ", offset " << offset << ", bit " << bit;
        bytes[offset] ^= mask;
      }
    }
  }
}

/// Cache keys and frame checksums are persisted, so the digest is a format:
/// any change to it must be deliberate (it misses every cache entry and
/// rejects every frame). Lengths cover the empty input, a tail alone, one
/// stripe either side, and many stripes plus a tail.
TEST(DigestProperty, ContentDigestMatchesPinnedValues) {
  const std::vector<std::pair<std::size_t, std::uint64_t>> pinned = {
      {0, 0xfa97fbe5e9d7f58aULL},  {1, 0x14496bb0aec68c04ULL},  {31, 0x84048f727450cd92ULL},
      {32, 0x459c11f7ca08cb94ULL}, {33, 0x1cde536c97a32782ULL}, {1000, 0x98545f591ccd5745ULL},
  };
  for (const auto& [length, digest] : pinned) {
    EXPECT_EQ(util::digest_hex(util::content_digest(digest_pattern(length))),
              util::digest_hex(digest))
        << "length " << length;
  }
}

TEST(DigestProperty, HexRenderingIsFixedWidthAndDistinct) {
  EXPECT_EQ(util::digest_hex(0), "0000000000000000");
  EXPECT_EQ(util::digest_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
  EXPECT_NE(util::digest_hex(util::fnv1a("a")), util::digest_hex(util::fnv1a("b")));
}

INSTANTIATE_TEST_SUITE_P(AllComponents, ComponentProperty,
                         ::testing::ValuesIn(corpus::component_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return ComponentProperty::sanitize(info.param);
                         });

}  // namespace
}  // namespace tabby
