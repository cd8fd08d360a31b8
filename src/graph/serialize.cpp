#include "graph/serialize.hpp"

#include "util/bytes.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"

namespace tabby::graph {

namespace {

using util::ByteReader;
using util::ByteWriter;
using util::Error;
using util::Result;

// Header: magic + version + payload length; the checksum trails the payload.
constexpr std::size_t kHeaderSize = 4 + 2 + 8;
constexpr std::size_t kChecksumSize = 8;

}  // namespace

void write_value(ByteWriter& out, const Value& v) {
  struct Visitor {
    ByteWriter& out;
    void operator()(std::monostate) { out.u8(0); }
    void operator()(bool b) {
      out.u8(1);
      out.u8(b ? 1 : 0);
    }
    void operator()(std::int64_t i) {
      out.u8(2);
      out.svarint(i);
    }
    void operator()(double d) {
      out.u8(3);
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof d);
      __builtin_memcpy(&bits, &d, sizeof bits);
      out.uvarint(bits);
    }
    void operator()(const std::string& s) {
      out.u8(4);
      out.bytes(s);
    }
    void operator()(const std::vector<std::int64_t>& xs) {
      out.u8(5);
      out.uvarint(xs.size());
      for (std::int64_t x : xs) out.svarint(x);
    }
    void operator()(const std::vector<std::string>& xs) {
      out.u8(6);
      out.uvarint(xs.size());
      for (const std::string& x : xs) out.bytes(x);
    }
  };
  std::visit(Visitor{out}, v);
}

Result<Value> read_value(ByteReader& in) {
  auto tag = in.u8();
  if (!tag.ok()) return tag.error();
  switch (tag.value()) {
    case 0:
      return Value{std::monostate{}};
    case 1: {
      auto b = in.u8();
      if (!b.ok()) return b.error();
      return Value{b.value() != 0};
    }
    case 2: {
      auto i = in.svarint();
      if (!i.ok()) return i.error();
      return Value{i.value()};
    }
    case 3: {
      auto bits = in.uvarint();
      if (!bits.ok()) return bits.error();
      double d;
      std::uint64_t raw = bits.value();
      __builtin_memcpy(&d, &raw, sizeof d);
      return Value{d};
    }
    case 4: {
      auto s = in.bytes();
      if (!s.ok()) return s.error();
      return Value{std::move(s.value())};
    }
    case 5: {
      auto n = in.count("int list");
      if (!n.ok()) return n.error();
      std::vector<std::int64_t> xs;
      xs.reserve(n.value());
      for (std::size_t i = 0; i < n.value(); ++i) {
        auto x = in.svarint();
        if (!x.ok()) return x.error();
        xs.push_back(x.value());
      }
      return Value{std::move(xs)};
    }
    case 6: {
      auto n = in.count("string list");
      if (!n.ok()) return n.error();
      std::vector<std::string> xs;
      xs.reserve(n.value());
      for (std::size_t i = 0; i < n.value(); ++i) {
        auto x = in.bytes();
        if (!x.ok()) return x.error();
        xs.push_back(std::move(x.value()));
      }
      return Value{std::move(xs)};
    }
    default:
      return Error{"bad value tag", in.position()};
  }
}

namespace {

void write_props(ByteWriter& out, const PropertyMap& props) {
  out.uvarint(props.size());
  for (const auto& [key, value] : props) {
    out.bytes(key);
    write_value(out, value);
  }
}

Result<PropertyMap> read_props(ByteReader& in) {
  auto n = in.count("property");
  if (!n.ok()) return n.error();
  PropertyMap props;
  props.reserve(n.value());
  for (std::size_t i = 0; i < n.value(); ++i) {
    auto key = in.bytes();
    if (!key.ok()) return key.error();
    auto value = read_value(in);
    if (!value.ok()) return value.error();
    // Keys were emitted in map order, so appending at the end is O(1); a
    // corrupt out-of-order key degrades to a normal insert, not an error.
    props.emplace_hint(props.end(), std::move(key.value()), std::move(value.value()));
  }
  return props;
}

}  // namespace

void encode_stats(ByteWriter& out, const CardinalityStats& stats) {
  out.uvarint(stats.nodes);
  out.uvarint(stats.edges);
  out.uvarint(stats.labels.size());
  for (const auto& [label, count] : stats.labels) {
    out.bytes(label);
    out.uvarint(count);
  }
  out.uvarint(stats.edge_types.size());
  for (const auto& [type, count] : stats.edge_types) {
    out.bytes(type);
    out.uvarint(count);
  }
}

Result<CardinalityStats> decode_stats(ByteReader& in) {
  CardinalityStats stats;
  auto nodes = in.uvarint();
  if (!nodes.ok()) return nodes.error();
  stats.nodes = nodes.value();
  auto edges = in.uvarint();
  if (!edges.ok()) return edges.error();
  stats.edges = edges.value();
  for (auto* entries : {&stats.labels, &stats.edge_types}) {
    auto n = in.count("stats entry");
    if (!n.ok()) return n.error();
    entries->reserve(n.value());
    for (std::size_t i = 0; i < n.value(); ++i) {
      auto name = in.bytes();
      if (!name.ok()) return name.error();
      auto count = in.uvarint();
      if (!count.ok()) return count.error();
      if (!entries->empty() && entries->back().first >= name.value()) {
        return Error{"cardinality stats entries out of order", in.position()};
      }
      entries->emplace_back(std::move(name.value()), count.value());
    }
  }
  return stats;
}

std::vector<std::byte> serialize(const GraphDb& db, bool with_stats) {
  // Payload first: the header needs its size, the trailer its checksum.
  // Ids are dense, so an edge's endpoints are written as they are.
  ByteWriter out;
  out.uvarint(db.node_count());
  for (const Node& n : db.nodes()) {
    out.bytes(n.label);
    write_props(out, n.props);
  }
  out.uvarint(db.edge_count());
  for (const Edge& e : db.edges()) {
    out.uvarint(e.from);
    out.uvarint(e.to);
    out.bytes(e.type);
    write_props(out, e.props);
  }
  std::vector<std::byte> payload = out.take();

  ByteWriter store;
  store.u32(kGraphStoreMagic);
  store.u16(kGraphStoreVersion);
  store.u64(payload.size());
  for (std::byte b : payload) store.u8(static_cast<std::uint8_t>(b));
  if (with_stats) {
    ByteWriter stats;
    encode_stats(stats, db.cardinality());
    std::vector<std::byte> stats_payload = stats.take();
    store.u32(kGraphStoreStatsMagic);
    store.u64(stats_payload.size());
    for (std::byte b : stats_payload) store.u8(static_cast<std::uint8_t>(b));
  }
  store.u64(util::fnv1a(store.data()));
  return store.take();
}

util::Result<GraphDb> deserialize(std::span<const std::byte> data) {
  if (util::failpoint::poll("graph.deserialize")) {
    return Error{"failpoint: injected graph store decode failure", 0};
  }
  if (data.size() < kHeaderSize + kChecksumSize) {
    return Error{"graph store truncated: " + std::to_string(data.size()) +
                     " byte(s), smaller than the fixed header",
                 data.size()};
  }
  ByteReader header(data);
  auto magic = header.u32();
  if (!magic.ok()) return magic.error();
  if (magic.value() != kGraphStoreMagic) {
    return Error{"not a tabby graph store (bad magic)", 0};
  }
  auto version = header.u16();
  if (!version.ok()) return version.error();
  if (version.value() != kGraphStoreVersion) {
    if (version.value() < kGraphStoreVersion) {
      return Error{"graph store version " + std::to_string(version.value()) +
                       " predates the checksummed format (this build reads version " +
                       std::to_string(kGraphStoreVersion) +
                       "); regenerate it with `tabby analyze --store`",
                   4};
    }
    return Error{"unsupported graph store version " + std::to_string(version.value()) +
                     " (this build reads version " + std::to_string(kGraphStoreVersion) + ")",
                 4};
  }
  auto declared = header.u64();
  if (!declared.ok()) return declared.error();
  std::size_t body = data.size() - kHeaderSize - kChecksumSize;
  if (declared.value() > body) {
    return Error{"graph store truncated: header declares " + std::to_string(declared.value()) +
                     " payload byte(s) but only " + std::to_string(body) + " are present",
                 kHeaderSize};
  }
  // Bytes beyond the declared payload must be exactly one stats block
  // (stores written before the planner existed end right at the payload).
  // Size-check the tail before the checksum so a store with appended or
  // missing bytes is diagnosed as such rather than as generic corruption.
  std::size_t stats_size = body - declared.value();
  constexpr std::size_t kStatsHeaderSize = 4 + 8;
  if (stats_size != 0) {
    if (stats_size < kStatsHeaderSize) {
      return Error{"graph store truncated or oversized: " + std::to_string(stats_size) +
                       " trailing byte(s) after the payload, too few for a stats block",
                   kHeaderSize + declared.value()};
    }
    ByteReader sizing(data.subspan(kHeaderSize + declared.value(), kStatsHeaderSize));
    auto sizing_magic = sizing.u32();
    if (!sizing_magic.ok()) return sizing_magic.error();
    if (sizing_magic.value() != kGraphStoreStatsMagic) {
      return Error{"trailing bytes after graph store payload are not a stats block",
                   kHeaderSize + declared.value()};
    }
    auto sizing_len = sizing.u64();
    if (!sizing_len.ok()) return sizing_len.error();
    if (kStatsHeaderSize + sizing_len.value() != stats_size) {
      return Error{"graph store truncated or oversized: stats block declares " +
                       std::to_string(sizing_len.value()) + " byte(s) but " +
                       std::to_string(stats_size - kStatsHeaderSize) + " follow",
                   kHeaderSize + declared.value() + 4};
    }
  }
  ByteReader trailer(data.subspan(data.size() - kChecksumSize));
  auto stored_sum = trailer.u64();
  if (!stored_sum.ok()) return stored_sum.error();
  std::uint64_t actual_sum = util::fnv1a(data.first(data.size() - kChecksumSize));
  if (stored_sum.value() != actual_sum) {
    return Error{"graph store checksum mismatch (corrupt or tampered store): expected " +
                     util::digest_hex(stored_sum.value()) + ", computed " +
                     util::digest_hex(actual_sum),
                 data.size() - kChecksumSize};
  }

  std::optional<CardinalityStats> stored_stats;
  if (stats_size != 0) {
    ByteReader tail(data.subspan(kHeaderSize + declared.value(), stats_size));
    auto stats_magic = tail.u32();
    if (!stats_magic.ok()) return stats_magic.error();
    if (stats_magic.value() != kGraphStoreStatsMagic) {
      return Error{"trailing bytes after graph store payload are not a stats block",
                   kHeaderSize + declared.value()};
    }
    auto stats_len = tail.u64();
    if (!stats_len.ok()) return stats_len.error();
    if (stats_len.value() != stats_size - kStatsHeaderSize) {
      return Error{"graph store stats block length mismatch: declares " +
                       std::to_string(stats_len.value()) + " byte(s) but " +
                       std::to_string(stats_size - kStatsHeaderSize) + " are present",
                   kHeaderSize + declared.value() + 4};
    }
    auto stats = decode_stats(tail);
    if (!stats.ok()) return stats.error();
    if (!tail.at_end()) {
      return Error{"trailing bytes after graph store stats block", tail.position()};
    }
    stored_stats = std::move(stats.value());
  }

  ByteReader in(data.subspan(kHeaderSize, declared.value()));
  GraphDb db;
  auto node_count = in.count("node");
  if (!node_count.ok()) return node_count.error();
  db.reserve(node_count.value(), 0);
  for (std::size_t i = 0; i < node_count.value(); ++i) {
    auto label = in.bytes();
    if (!label.ok()) return label.error();
    auto props = read_props(in);
    if (!props.ok()) return props.error();
    db.add_node(std::move(label.value()), std::move(props.value()));
  }
  auto edge_count = in.count("edge");
  if (!edge_count.ok()) return edge_count.error();
  db.reserve(node_count.value(), edge_count.value());
  for (std::size_t i = 0; i < edge_count.value(); ++i) {
    auto from = in.uvarint();
    if (!from.ok()) return from.error();
    auto to = in.uvarint();
    if (!to.ok()) return to.error();
    if (from.value() >= db.node_count() || to.value() >= db.node_count()) {
      return Error{"edge endpoint out of range", in.position()};
    }
    auto type = in.bytes();
    if (!type.ok()) return type.error();
    auto props = read_props(in);
    if (!props.ok()) return props.error();
    db.add_edge(from.value(), to.value(), std::move(type.value()), std::move(props.value()));
  }
  if (!in.at_end()) return Error{"trailing bytes after graph store payload", in.position()};
  // A stats block that disagrees with the graph it rides next to is as
  // corrupt as a bad checksum: reject rather than hand the planner lies.
  if (stored_stats.has_value() && !(*stored_stats == db.cardinality())) {
    return Error{"graph store stats block disagrees with the decoded graph",
                 kHeaderSize + declared.value()};
  }
  return db;
}

}  // namespace tabby::graph
