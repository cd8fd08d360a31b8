// FrozenGraph: a build-once, immutable CSR freeze of a constructed CPG
// (docs/GRAPH.md). The append-only GraphDb is only what the builder writes;
// every reader (finder shards, cypher evaluation, verify, the baselines)
// reads this, and `analyze --store` writes it:
//
//   - adjacency is two CSR layouts (out/in): one offset array per direction
//     plus three parallel flat arrays (neighbor, dense edge index, interned
//     edge-type id), so expansion is a contiguous scan with no per-edge
//     Edge deref and no string compare;
//   - per-node adjacency entries are sorted by (type id, edge index), so a
//     typed expansion is one binary search into the node's segment while
//     within-type order is the builder's insertion order (the invariant
//     that keeps finder output byte-identical);
//   - node/edge properties live in columnar side arrays keyed by property
//     name: typed columns (bool/int/real bitmap+array, string pool, int-list
//     pool) with a presence bitmap, falling back to a serialized-value blob
//     for heterogeneous keys.
//
// The whole graph serializes as one versioned, checksummed, mmap-able frame
// (same magic/version/length/trailing-checksum discipline as the graph
// store v2): freeze() *is* the serializer — it builds the frame bytes and
// attaches views into them, so save() is a plain write and a warm start
// maps the file and re-attaches zero-copy. The frame is also the whole
// cache entry of a classpath: besides the graph it carries the planner's
// cardinality stats and the builder's counts. Validation is fail-closed: a
// truncated, bit-flipped or version-skewed frame is a structured error,
// never UB — a cache caller rebuilds from the classpath.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "util/result.hpp"

namespace tabby::graph {

// Frame layout constants (little-endian; see docs/GRAPH.md for the full
// byte-level tables):
//   magic        u32  = 0x5A524654 ("TFRZ" on disk)
//   version      u16  = 3
//   reserved     u16  = 0
//   frame length u64  total bytes including the trailing checksum
//   content key  u64  binds a cache-published frame to its snapshot key
//                     (0 = unbound standalone frame)
//   node count   u64
//   edge count   u64
//   section cnt  u64  = 18
//   directory    18 x { id u32, reserved u32, offset u64, length u64 }
//   sections     each 8-byte aligned (ids 1..18, see kSec* below)
//   checksum     u64  util::content_digest over every byte before it
// Section 17 carries the graph's CardinalityStats for the cypher planner
// (same payload codec as the store v2 stats block); section 18 the
// producer's BuildCounts. Older frames fail attach as version skew:
// version 1 (16 or 17 sections, no build counts) and version 2 (this
// layout, signed with FNV-1a64 instead of the content digest).
inline constexpr std::uint32_t kFrozenMagic = 0x5A524654;
inline constexpr std::uint16_t kFrozenVersion = 3;
inline constexpr std::size_t kFrozenHeaderSize = 48;
inline constexpr std::size_t kFrozenSectionCount = 18;
inline constexpr std::size_t kFrozenDirEntrySize = 24;
inline constexpr std::size_t kFrozenChecksumSize = 8;

// Section ids, in file order.
inline constexpr std::uint32_t kSecNodeLabels = 1;    // string table
inline constexpr std::uint32_t kSecEdgeTypes = 2;     // string table
inline constexpr std::uint32_t kSecNodeLabelIds = 3;  // u16[N]
inline constexpr std::uint32_t kSecOutOffsets = 4;    // u64[N+1]
inline constexpr std::uint32_t kSecOutNbr = 5;        // u32[M]
inline constexpr std::uint32_t kSecOutEdge = 6;       // u32[M]
inline constexpr std::uint32_t kSecOutType = 7;       // u16[M]
inline constexpr std::uint32_t kSecInOffsets = 8;     // u64[N+1]
inline constexpr std::uint32_t kSecInNbr = 9;         // u32[M]
inline constexpr std::uint32_t kSecInEdge = 10;       // u32[M]
inline constexpr std::uint32_t kSecInType = 11;       // u16[M]
inline constexpr std::uint32_t kSecEdgeFrom = 12;     // u32[M]
inline constexpr std::uint32_t kSecEdgeTo = 13;       // u32[M]
inline constexpr std::uint32_t kSecEdgeType = 14;     // u16[M]
inline constexpr std::uint32_t kSecNodeProps = 15;    // column blocks
inline constexpr std::uint32_t kSecEdgeProps = 16;    // column blocks
inline constexpr std::uint32_t kSecStats = 17;        // u64 len + stats payload
inline constexpr std::uint32_t kSecBuildCounts = 18;  // u64[8]

/// Column value encodings inside the property sections. A column is typed
/// when every present value holds the same scalar alternative; anything else
/// (mixed alternatives, string lists, explicit nulls) falls back to Mixed —
/// per-element serialized values in the graph-store wire encoding.
enum class FrozenColumnKind : std::uint8_t {
  Bool = 0,
  Int = 1,
  Real = 2,
  Str = 3,
  IntList = 4,
  Mixed = 5,
};

/// One property column: presence bitmap + kind-specific value arrays, all
/// spans into the frozen frame (zero-copy). Accessors are unchecked beyond
/// the presence bit — indices come from the validated graph.
class FrozenColumn {
 public:
  FrozenColumnKind kind() const { return kind_; }

  bool has(std::uint64_t i) const {
    return ((presence_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  /// False for absent entries and non-Bool columns (matches prop_bool).
  bool get_bool(std::uint64_t i) const {
    if (kind_ != FrozenColumnKind::Bool) return mixed_bool(i);
    return has(i) && ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  std::int64_t get_int(std::uint64_t i, std::int64_t fallback = 0) const {
    if (kind_ != FrozenColumnKind::Int) return mixed_int(i, fallback);
    if (!has(i)) return fallback;
    return ints_[i];
  }
  /// Empty for absent entries and non-string values (matches prop_string).
  /// A string inside a Mixed column reads as a view into its serialized
  /// cell — the wire encoding stores the chars verbatim, so no allocation.
  std::string_view get_string(std::uint64_t i) const {
    if (kind_ != FrozenColumnKind::Str) return mixed_string(i);
    if (!has(i)) return {};
    return std::string_view(chars_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  /// Empty for absent entries and non-IntList columns.
  std::span<const std::int64_t> get_intlist(std::uint64_t i) const {
    if (kind_ != FrozenColumnKind::IntList || !has(i)) return {};
    return ints_.subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  /// Materializes the value whatever the column kind (decodes Mixed cells);
  /// nullopt when absent.
  std::optional<Value> get_value(std::uint64_t i) const;

 private:
  friend class FrozenGraph;

  /// Slow paths for the scalar reads over a Mixed column (a bool/int/string
  /// stored next to heterogeneous siblings still reads as that scalar). Each
  /// returns its fallback for any other column kind.
  bool mixed_bool(std::uint64_t i) const;
  std::int64_t mixed_int(std::uint64_t i, std::int64_t fallback) const;
  std::string_view mixed_string(std::uint64_t i) const;

  FrozenColumnKind kind_ = FrozenColumnKind::Mixed;
  std::span<const std::uint64_t> presence_;  // ceil(n/64) words
  std::span<const std::uint64_t> words_;     // Bool value bits / Real f64 bits
  std::span<const std::int64_t> ints_;       // Int values / IntList pool
  std::span<const std::uint64_t> offsets_;   // Str/IntList/Mixed: n+1 entries
  std::span<const char> chars_;              // Str blob
  std::span<const std::byte> blob_;          // Mixed serialized-value blob
};

/// One direction of a node's adjacency (or a typed slice of it): three
/// parallel spans into the CSR arrays. Entries are sorted by (type, edge),
/// so within one type the order is the builder's insertion order.
struct AdjacencyView {
  std::span<const std::uint32_t> nbr;   // dense neighbor node ids
  std::span<const std::uint32_t> edge;  // dense edge indexes
  std::span<const std::uint16_t> type;  // interned edge-type ids

  std::size_t size() const { return nbr.size(); }
  bool empty() const { return nbr.empty(); }
};

class FrozenGraph {
 public:
  FrozenGraph() = default;
  FrozenGraph(const FrozenGraph&) = delete;
  FrozenGraph& operator=(const FrozenGraph&) = delete;
  FrozenGraph(FrozenGraph&&) = default;
  FrozenGraph& operator=(FrozenGraph&&) = default;

  // --- Construction ---------------------------------------------------------

  /// Freezes a GraphDb, keeping its dense node and edge ids. Builds the
  /// serialized frame and attaches views to it — freeze() output always
  /// round-trips save()/map_file().
  /// `content_key` binds the frame to a cache snapshot key (0 = unbound).
  /// The frame carries db.cardinality() and db.build_counts() too.
  /// Fails when the graph exceeds the dense u32/u16 id spaces, or at the
  /// `graph.freeze` failpoint.
  static util::Result<FrozenGraph> freeze(const GraphDb& db, std::uint64_t content_key = 0);

  /// Validates and attaches a frame, copying the bytes into owned storage.
  static util::Result<FrozenGraph> from_bytes(std::span<const std::byte> frame);

  /// Validates and attaches a frame the caller hands over (no copy).
  static util::Result<FrozenGraph> adopt(std::vector<std::byte> frame);

  /// Maps `path` read-only and attaches the frame it holds. Falls back to a
  /// plain read when mmap is unavailable.
  static util::Result<FrozenGraph> map_file(const std::filesystem::path& path);

  /// Writes the frame verbatim (the exact bytes map_file/from_bytes accept).
  util::Status save(const std::filesystem::path& path) const;

  // --- Frame ---------------------------------------------------------------

  std::span<const std::byte> frame() const { return frame_; }
  std::uint64_t content_key() const { return content_key_; }
  /// True when the frame is backed by a file mapping rather than heap bytes.
  bool mapped() const { return mapping_ != nullptr; }

  // --- Topology ------------------------------------------------------------

  std::size_t node_count() const { return node_count_; }
  std::size_t edge_count() const { return edge_count_; }

  std::string_view label(NodeId n) const { return label_name(node_label_ids_[n]); }
  std::uint16_t node_label_id(NodeId n) const { return node_label_ids_[n]; }
  std::string_view label_name(std::uint16_t id) const { return table_entry(label_table_, id); }
  std::size_t label_count() const { return label_table_.count; }
  /// Interned id for a label string; nullopt when no node carries it.
  std::optional<std::uint16_t> label_id(std::string_view label) const;

  std::string_view edge_type_name(std::uint16_t id) const { return table_entry(type_table_, id); }
  std::size_t edge_type_count() const { return type_table_.count; }
  std::optional<std::uint16_t> edge_type_id(std::string_view type) const;

  NodeId edge_from(EdgeId e) const { return edge_from_[e]; }
  NodeId edge_to(EdgeId e) const { return edge_to_[e]; }
  std::uint16_t edge_type(EdgeId e) const { return edge_type_[e]; }

  AdjacencyView out_edges_view(NodeId n) const {
    return slice(out_nbr_, out_edge_, out_type_, out_offsets_[n], out_offsets_[n + 1]);
  }
  AdjacencyView in_edges_view(NodeId n) const {
    return slice(in_nbr_, in_edge_, in_type_, in_offsets_[n], in_offsets_[n + 1]);
  }
  /// The (contiguous) slice of a node's adjacency with one edge type: a
  /// binary search over the type-sorted segment. Within the slice, entries
  /// ascend by edge index — the builder's insertion order.
  AdjacencyView out_edges_typed_view(NodeId n, std::uint16_t type) const {
    return typed_slice(out_nbr_, out_edge_, out_type_, out_offsets_[n], out_offsets_[n + 1], type);
  }
  AdjacencyView in_edges_typed_view(NodeId n, std::uint16_t type) const {
    return typed_slice(in_nbr_, in_edge_, in_type_, in_offsets_[n], in_offsets_[n + 1], type);
  }

  /// Visits out/in edges in global insertion order (ascending edge index)
  /// regardless of type — what untyped cypher patterns iterate. Single-type
  /// adjacencies pass through directly; mixed ones gather and sort.
  template <typename Fn>  // fn(edge u32, neighbor u32)
  void for_each_out_ordered(NodeId n, Fn&& fn) const {
    each_ordered(out_edges_view(n), std::forward<Fn>(fn));
  }
  template <typename Fn>
  void for_each_in_ordered(NodeId n, Fn&& fn) const {
    each_ordered(in_edges_view(n), std::forward<Fn>(fn));
  }

  // --- Properties ----------------------------------------------------------

  /// Column handles; nullptr when no element carries the key.
  const FrozenColumn* node_column(std::string_view key) const;
  const FrozenColumn* edge_column(std::string_view key) const;

  /// Property reads that materialize a Value (nullopt when absent).
  /// Cold-path conveniences — hot paths hold the column handle.
  std::optional<Value> node_prop(NodeId n, std::string_view key) const;
  std::optional<Value> edge_prop(EdgeId e, std::string_view key) const;
  std::string_view node_prop_string(NodeId n, std::string_view key) const;
  bool node_prop_bool(NodeId n, std::string_view key) const;
  std::int64_t node_prop_int(NodeId n, std::string_view key, std::int64_t fallback = 0) const;

  // --- Scans (cypher candidate enumeration) --------------------------------

  /// Ascending dense ids.
  std::vector<NodeId> nodes_with_label(std::string_view label) const;
  /// Equality scan in ascending id order (value_equals semantics).
  std::vector<NodeId> find_nodes(std::string_view label, std::string_view key,
                                 const Value& value) const;

  // --- Stats ----------------------------------------------------------------

  /// The cardinality stats the cypher planner reads (section 17).
  const CardinalityStats& stats() const { return stats_; }
  /// The producer's build counts, as the frozen GraphDb held them
  /// (section 18).
  const BuildCounts& build_counts() const { return build_counts_; }

 private:
  struct StringTable {
    std::uint64_t count = 0;
    std::span<const std::uint64_t> offsets;  // count + 1
    std::span<const char> chars;
  };

  std::string_view table_entry(const StringTable& t, std::uint16_t id) const {
    return std::string_view(t.chars.data() + t.offsets[id], t.offsets[id + 1] - t.offsets[id]);
  }

  static AdjacencyView slice(std::span<const std::uint32_t> nbr,
                             std::span<const std::uint32_t> edge,
                             std::span<const std::uint16_t> type, std::uint64_t b,
                             std::uint64_t e) {
    return {nbr.subspan(b, e - b), edge.subspan(b, e - b), type.subspan(b, e - b)};
  }
  static AdjacencyView typed_slice(std::span<const std::uint32_t> nbr,
                                   std::span<const std::uint32_t> edge,
                                   std::span<const std::uint16_t> type, std::uint64_t b,
                                   std::uint64_t e, std::uint16_t t);

  template <typename Fn>
  void each_ordered(AdjacencyView a, Fn&& fn) const {
    if (a.empty()) return;
    if (a.type.front() == a.type.back()) {
      // One type run: edge indexes already ascend (insertion order).
      for (std::size_t i = 0; i < a.size(); ++i) fn(a.edge[i], a.nbr[i]);
      return;
    }
    std::vector<std::uint32_t> order(a.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    std::sort(order.begin(), order.end(),
              [&a](std::uint32_t x, std::uint32_t y) { return a.edge[x] < a.edge[y]; });
    for (std::uint32_t i : order) fn(a.edge[i], a.nbr[i]);
  }

  /// Validates `frame` and wires every span; `storage`/`mapping` carry
  /// ownership (exactly one is set; both empty for borrowed test frames).
  static util::Result<FrozenGraph> attach(std::span<const std::byte> frame,
                                          std::vector<std::byte> storage,
                                          std::shared_ptr<void> mapping);

  // Ownership: exactly one of owned_ / mapping_ backs frame_.
  std::vector<std::byte> owned_;
  std::shared_ptr<void> mapping_;  // munmaps (or frees) on release
  std::span<const std::byte> frame_;

  std::uint64_t content_key_ = 0;
  std::size_t node_count_ = 0;
  std::size_t edge_count_ = 0;

  StringTable label_table_;
  StringTable type_table_;
  std::span<const std::uint16_t> node_label_ids_;
  std::span<const std::uint64_t> out_offsets_;
  std::span<const std::uint32_t> out_nbr_;
  std::span<const std::uint32_t> out_edge_;
  std::span<const std::uint16_t> out_type_;
  std::span<const std::uint64_t> in_offsets_;
  std::span<const std::uint32_t> in_nbr_;
  std::span<const std::uint32_t> in_edge_;
  std::span<const std::uint16_t> in_type_;
  std::span<const std::uint32_t> edge_from_;
  std::span<const std::uint32_t> edge_to_;
  std::span<const std::uint16_t> edge_type_;

  // Sorted by key (string_views into the frame).
  std::vector<std::pair<std::string_view, FrozenColumn>> node_columns_;
  std::vector<std::pair<std::string_view, FrozenColumn>> edge_columns_;

  CardinalityStats stats_;
  BuildCounts build_counts_{};
};

}  // namespace tabby::graph
