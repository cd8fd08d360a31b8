// Fuzz-style corruption coverage for the versioned graph-store format
// (graph/serialize). The store parses untrusted bytes, so every corruption —
// truncation at any offset, a flipped byte anywhere, a wrong magic, a
// version skew, a pre-versioning store, a zero-length file — must surface as
// a util::Result error with a useful message, and must never crash, leak or
// read out of bounds (this suite runs under the CI sanitizer job). The file
// cases load the frame `analyze --store` writes (graph/frozen).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "corpus/components.hpp"
#include "cpg/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/serialize.hpp"
#include "util/bytes.hpp"

namespace tabby::graph {
namespace {

namespace fs = std::filesystem;

/// A small graph exercising every Value tag the format can carry.
GraphDb tiny_graph() {
  GraphDb db;
  PropertyMap props;
  props["null"] = Value{std::monostate{}};
  props["flag"] = Value{true};
  props["int"] = Value{std::int64_t{-42}};
  props["pi"] = Value{3.14159};
  props["name"] = Value{std::string{"node"}};
  props["ints"] = Value{std::vector<std::int64_t>{-1, 0, 7}};
  props["strs"] = Value{std::vector<std::string>{"a", "bc"}};
  NodeId a = db.add_node("Method", props);
  NodeId b = db.add_node("Method", {{"name", Value{std::string{"callee"}}}});
  db.add_edge(a, b, "CALL", {{"pp", Value{std::vector<std::int64_t>{0}}}});
  return db;
}

std::vector<std::byte> flip(std::vector<std::byte> bytes, std::size_t offset) {
  bytes[offset] ^= std::byte{0xFF};
  return bytes;
}

TEST(SerializeRobustness, RoundTripIsByteStable) {
  std::vector<std::byte> first = serialize(tiny_graph());
  auto loaded = deserialize(first);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_EQ(serialize(loaded.value()), first);

  // And for a realistic CPG, the property the warm `--store` path relies on.
  corpus::Component component = corpus::build_component("BeanShell1");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  auto reloaded = deserialize(store);
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().to_string();
  EXPECT_EQ(serialize(reloaded.value()), store);
}

TEST(SerializeRobustness, ZeroLengthInputIsRejected) {
  auto r = deserialize({});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("truncated"), std::string::npos);
}

TEST(SerializeRobustness, TruncationAtEveryOffsetIsRejected) {
  std::vector<std::byte> store = serialize(tiny_graph());
  std::span<const std::byte> all(store);
  for (std::size_t len = 0; len < store.size(); ++len) {
    auto r = deserialize(all.first(len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed successfully";
  }
}

TEST(SerializeRobustness, TruncationOfRealStoreAtSectionBoundariesIsRejected) {
  corpus::Component component = corpus::build_component("C3P0");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  std::span<const std::byte> all(store);
  // Section boundaries: inside magic, after magic, after version, after the
  // declared length, the first payload byte, mid-payload, inside the
  // trailing checksum — plus a stride sweep across the whole store.
  std::vector<std::size_t> cuts{0, 2, 4, 6, 13, 14, 15, store.size() / 2, store.size() - 8,
                                store.size() - 1};
  for (std::size_t len = 0; len < store.size(); len += 97) cuts.push_back(len);
  for (std::size_t len : cuts) {
    auto r = deserialize(all.first(len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes parsed successfully";
  }
}

TEST(SerializeRobustness, EverySingleByteFlipIsRejected) {
  // The checksum covers header and payload, so no single corrupted byte may
  // survive — including corruption of the checksum itself.
  std::vector<std::byte> store = serialize(tiny_graph());
  for (std::size_t offset = 0; offset < store.size(); ++offset) {
    auto r = deserialize(flip(store, offset));
    EXPECT_FALSE(r.ok()) << "flip at offset " << offset << " parsed successfully";
  }
}

TEST(SerializeRobustness, SampledByteFlipsOfRealStoreAreRejected) {
  corpus::Component component = corpus::build_component("C3P0");
  std::vector<std::byte> store = serialize(cpg::build_cpg(component.link()).db);
  for (std::size_t offset = 0; offset < store.size(); offset += 131) {
    auto r = deserialize(flip(store, offset));
    EXPECT_FALSE(r.ok()) << "flip at offset " << offset << " parsed successfully";
  }
}

TEST(SerializeRobustness, BadMagicIsDiagnosed) {
  auto r = deserialize(flip(serialize(tiny_graph()), 0));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("magic"), std::string::npos) << r.error().to_string();
}

TEST(SerializeRobustness, ChecksumMismatchIsDiagnosed) {
  // Flip a payload byte: magic/version/length still parse, the checksum
  // must catch it before any payload decoding happens.
  std::vector<std::byte> store = serialize(tiny_graph());
  auto r = deserialize(flip(store, store.size() / 2));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("checksum mismatch"), std::string::npos)
      << r.error().to_string();
}

TEST(SerializeRobustness, TrailingGarbageIsDiagnosed) {
  std::vector<std::byte> store = serialize(tiny_graph());
  store.push_back(std::byte{0x00});
  auto r = deserialize(store);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("truncated or oversized"), std::string::npos)
      << r.error().to_string();
}

TEST(SerializeRobustness, FutureVersionIsRejectedWithDiagnostic) {
  std::vector<std::byte> store = serialize(tiny_graph());
  store[4] = std::byte{99};  // version field lives right after the magic
  store[5] = std::byte{0};
  auto r = deserialize(store);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("unsupported graph store version 99"), std::string::npos)
      << r.error().to_string();
}

// Regression: the pre-versioning (version 1) layout had no payload length
// and no checksum, and load() used to accept arbitrary bytes after the
// 6-byte prefix. Such stores must now fail closed with a message that tells
// the user how to recover.
TEST(SerializeRobustness, PreVersioningStoreIsRejectedWithHelpfulMessage) {
  util::ByteWriter legacy;
  legacy.u32(kGraphStoreMagic);
  legacy.u16(1);           // the old version field
  legacy.uvarint(1);       // node count
  legacy.bytes("Method");  // label
  legacy.uvarint(0);       // no props
  legacy.uvarint(0);       // edge count
  // Pad past the minimum store size so the version check, not the length
  // check, is what rejects it.
  for (int i = 0; i < 16; ++i) legacy.u8(0);
  auto r = deserialize(legacy.data());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().to_string().find("version 1 predates"), std::string::npos)
      << r.error().to_string();
  EXPECT_NE(r.error().to_string().find("tabby analyze --store"), std::string::npos)
      << r.error().to_string();
}

TEST(SerializeRobustness, LoadRejectsMissingEmptyAndGarbageFiles) {
  fs::path dir = fs::temp_directory_path() / ("tabby_ser_robust_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  auto missing = FrozenGraph::map_file(dir / "does_not_exist.tfzn");
  EXPECT_FALSE(missing.ok());

  {
    std::ofstream empty(dir / "empty.tfzn", std::ios::binary);
  }
  auto empty = FrozenGraph::map_file(dir / "empty.tfzn");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.error().to_string().find("truncated"), std::string::npos);

  {
    // Longer than a frame's fixed header, so the magic is what rejects it.
    std::ofstream text(dir / "garbage.tfzn", std::ios::binary);
    for (int i = 0; i < 32; ++i) text << "this is not a frozen graph, just some text. ";
  }
  auto garbage = FrozenGraph::map_file(dir / "garbage.tfzn");
  ASSERT_FALSE(garbage.ok());
  EXPECT_NE(garbage.error().to_string().find("magic"), std::string::npos);

  fs::remove_all(dir);
}

TEST(SerializeRobustness, SaveLoadRoundTripsThroughDisk) {
  fs::path dir = fs::temp_directory_path() / ("tabby_ser_disk_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  GraphDb db = tiny_graph();
  auto frozen = FrozenGraph::freeze(db);
  ASSERT_TRUE(frozen.ok()) << frozen.error().to_string();
  ASSERT_TRUE(frozen.value().save(dir / "ok.tfzn").ok());
  auto loaded = FrozenGraph::map_file(dir / "ok.tfzn");
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  EXPECT_TRUE(std::ranges::equal(loaded.value().frame(), frozen.value().frame()));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tabby::graph
