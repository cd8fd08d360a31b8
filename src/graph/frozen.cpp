#include "graph/frozen.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

#include "graph/serialize.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"
#include "util/fs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TABBY_FROZEN_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace tabby::graph {

// The frame is defined little-endian and the attached views reinterpret its
// arrays in place, so the zero-copy reader requires a little-endian host
// (every supported target). A big-endian port would byte-swap at attach.
static_assert(std::endian::native == std::endian::little,
              "FrozenGraph's zero-copy frame layout requires a little-endian host");

namespace {

using util::Error;
using util::Result;

constexpr std::size_t kDirSize = kFrozenSectionCount * kFrozenDirEntrySize;
constexpr std::size_t kMinFrameSize = kFrozenHeaderSize + kDirSize + kFrozenChecksumSize;

std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

// --- Frame writing ----------------------------------------------------------

/// Append-only little-endian buffer with 8-byte alignment control and
/// back-patching — what the ByteWriter (varint, byte-at-a-time) is not.
struct FrameWriter {
  std::vector<std::byte> buf;

  std::size_t size() const { return buf.size(); }
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const std::byte*>(p);
    buf.insert(buf.end(), b, b + n);
  }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void zeros(std::size_t n) { buf.insert(buf.end(), n, std::byte{0}); }
  void pad8() { zeros(align8(buf.size()) - buf.size()); }
  void patch_u64(std::size_t at, std::uint64_t v) { std::memcpy(buf.data() + at, &v, sizeof v); }
  void patch_u32(std::size_t at, std::uint32_t v) { std::memcpy(buf.data() + at, &v, sizeof v); }
};

// --- Frame reading ----------------------------------------------------------

std::uint64_t rd_u64(std::span<const std::byte> frame, std::size_t at) {
  std::uint64_t v;
  std::memcpy(&v, frame.data() + at, sizeof v);
  return v;
}
std::uint32_t rd_u32(std::span<const std::byte> frame, std::size_t at) {
  std::uint32_t v;
  std::memcpy(&v, frame.data() + at, sizeof v);
  return v;
}
std::uint16_t rd_u16(std::span<const std::byte> frame, std::size_t at) {
  std::uint16_t v;
  std::memcpy(&v, frame.data() + at, sizeof v);
  return v;
}

/// Reinterprets `count` elements of T at `at`. Caller has bounds-checked;
/// alignment holds because every array starts on an 8-byte boundary of an
/// 8-byte-aligned frame.
template <typename T>
std::span<const T> typed_span(std::span<const std::byte> frame, std::uint64_t at,
                              std::uint64_t count) {
  return std::span<const T>(reinterpret_cast<const T*>(frame.data() + at),
                            static_cast<std::size_t>(count));
}

Error frozen_err(std::string msg, std::size_t at = 0) {
  return Error{"frozen graph: " + std::move(msg), at};
}

// --- Column classification --------------------------------------------------

/// Present cells of one property key, in ascending element order.
struct ColumnCells {
  std::vector<std::pair<std::uint32_t, const Value*>> cells;
};

FrozenColumnKind classify(const ColumnCells& col) {
  std::size_t first = std::variant_npos;
  for (const auto& [idx, v] : col.cells) {
    std::size_t alt = v->index();
    if (first == std::variant_npos) {
      first = alt;
    } else if (alt != first) {
      return FrozenColumnKind::Mixed;
    }
  }
  switch (first) {
    case 1:
      return FrozenColumnKind::Bool;
    case 2:
      return FrozenColumnKind::Int;
    case 3:
      return FrozenColumnKind::Real;
    case 4:
      return FrozenColumnKind::Str;
    case 5:
      return FrozenColumnKind::IntList;
    default:
      // Nulls, string lists, or an empty column: the serialized-value blob
      // covers every alternative.
      return FrozenColumnKind::Mixed;
  }
}

void write_column(FrameWriter& w, std::string_view key, const ColumnCells& col, std::uint64_t n) {
  w.u64(key.size());
  w.raw(key.data(), key.size());
  w.pad8();

  FrozenColumnKind kind = classify(col);
  w.u64(static_cast<std::uint64_t>(kind));

  std::uint64_t words = (n + 63) / 64;
  std::vector<std::uint64_t> presence(words, 0);
  for (const auto& [idx, v] : col.cells) presence[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  w.u64(words);
  w.raw(presence.data(), presence.size() * sizeof(std::uint64_t));

  switch (kind) {
    case FrozenColumnKind::Bool: {
      std::vector<std::uint64_t> bits(words, 0);
      for (const auto& [idx, v] : col.cells) {
        if (std::get<bool>(*v)) bits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
      }
      w.raw(bits.data(), bits.size() * sizeof(std::uint64_t));
      break;
    }
    case FrozenColumnKind::Int: {
      std::vector<std::int64_t> vals(n, 0);
      for (const auto& [idx, v] : col.cells) vals[idx] = std::get<std::int64_t>(*v);
      w.raw(vals.data(), vals.size() * sizeof(std::int64_t));
      break;
    }
    case FrozenColumnKind::Real: {
      std::vector<std::uint64_t> vals(n, 0);
      for (const auto& [idx, v] : col.cells) {
        std::uint64_t bits;
        double d = std::get<double>(*v);
        std::memcpy(&bits, &d, sizeof bits);
        vals[idx] = bits;
      }
      w.raw(vals.data(), vals.size() * sizeof(std::uint64_t));
      break;
    }
    case FrozenColumnKind::Str: {
      std::vector<std::uint64_t> offsets(n + 1, 0);
      std::uint64_t total = 0;
      auto cell = col.cells.begin();
      for (std::uint64_t i = 0; i < n; ++i) {
        offsets[i] = total;
        if (cell != col.cells.end() && cell->first == i) {
          total += std::get<std::string>(*cell->second).size();
          ++cell;
        }
      }
      offsets[n] = total;
      w.raw(offsets.data(), offsets.size() * sizeof(std::uint64_t));
      w.u64(total);
      for (const auto& [idx, v] : col.cells) {
        const std::string& s = std::get<std::string>(*v);
        w.raw(s.data(), s.size());
      }
      w.pad8();
      break;
    }
    case FrozenColumnKind::IntList: {
      std::vector<std::uint64_t> offsets(n + 1, 0);
      std::uint64_t total = 0;
      auto cell = col.cells.begin();
      for (std::uint64_t i = 0; i < n; ++i) {
        offsets[i] = total;
        if (cell != col.cells.end() && cell->first == i) {
          total += std::get<std::vector<std::int64_t>>(*cell->second).size();
          ++cell;
        }
      }
      offsets[n] = total;
      w.raw(offsets.data(), offsets.size() * sizeof(std::uint64_t));
      w.u64(total);
      for (const auto& [idx, v] : col.cells) {
        const auto& xs = std::get<std::vector<std::int64_t>>(*v);
        w.raw(xs.data(), xs.size() * sizeof(std::int64_t));
      }
      break;
    }
    case FrozenColumnKind::Mixed: {
      // Per-cell serialized values (graph-store wire encoding).
      std::vector<std::uint64_t> offsets(n + 1, 0);
      util::ByteWriter blob;
      auto cell = col.cells.begin();
      for (std::uint64_t i = 0; i < n; ++i) {
        offsets[i] = blob.size();
        if (cell != col.cells.end() && cell->first == i) {
          write_value(blob, *cell->second);
          ++cell;
        }
      }
      offsets[n] = blob.size();
      w.raw(offsets.data(), offsets.size() * sizeof(std::uint64_t));
      w.u64(blob.size());
      w.raw(blob.data().data(), blob.size());
      w.pad8();
      break;
    }
  }
}

}  // namespace

// --- FrozenColumn -----------------------------------------------------------

std::optional<Value> FrozenColumn::get_value(std::uint64_t i) const {
  if (!has(i)) return std::nullopt;
  switch (kind_) {
    case FrozenColumnKind::Bool:
      return Value{((words_[i >> 6] >> (i & 63)) & 1) != 0};
    case FrozenColumnKind::Int:
      return Value{ints_[i]};
    case FrozenColumnKind::Real: {
      double d;
      std::uint64_t bits = words_[i];
      std::memcpy(&d, &bits, sizeof d);
      return Value{d};
    }
    case FrozenColumnKind::Str:
      return Value{std::string(get_string(i))};
    case FrozenColumnKind::IntList: {
      auto xs = get_intlist(i);
      return Value{std::vector<std::int64_t>(xs.begin(), xs.end())};
    }
    case FrozenColumnKind::Mixed: {
      util::ByteReader in(blob_.subspan(offsets_[i], offsets_[i + 1] - offsets_[i]));
      auto v = read_value(in);
      // Cells were written by write_value into a checksummed frame; a decode
      // failure means a writer bug, reported as absence rather than UB.
      if (!v.ok() || !in.at_end()) return std::nullopt;
      return std::move(v.value());
    }
  }
  return std::nullopt;
}

bool FrozenColumn::mixed_bool(std::uint64_t i) const {
  auto v = get_value(i);
  if (!v.has_value()) return false;
  const bool* b = std::get_if<bool>(&v.value());
  return b != nullptr && *b;
}

std::int64_t FrozenColumn::mixed_int(std::uint64_t i, std::int64_t fallback) const {
  if (kind_ != FrozenColumnKind::Mixed) return fallback;
  auto v = get_value(i);
  if (!v.has_value()) return fallback;
  const std::int64_t* x = std::get_if<std::int64_t>(&v.value());
  return x != nullptr ? *x : fallback;
}

std::string_view FrozenColumn::mixed_string(std::uint64_t i) const {
  if (kind_ != FrozenColumnKind::Mixed || !has(i)) return {};
  auto cell = blob_.subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
  util::ByteReader in(cell);
  auto tag = in.u8();
  if (!tag.ok() || tag.value() != 4) return {};  // 4 = the string wire tag
  auto len = in.uvarint();
  // write_value stores the chars verbatim after the length, so the cell's
  // tail IS the string — no allocation, same lifetime as the frame.
  if (!len.ok() || in.remaining() != len.value()) return {};
  return std::string_view(reinterpret_cast<const char*>(cell.data()) + in.position(),
                          len.value());
}

// --- Freeze -----------------------------------------------------------------

util::Result<FrozenGraph> FrozenGraph::freeze(const GraphDb& db, std::uint64_t content_key) {
  if (util::failpoint::poll("graph.freeze")) {
    return Error{"failpoint: injected graph freeze failure", 0};
  }

  // Ids are dense, so the frame keeps the builder's ids.
  const std::vector<Node>& nodes = db.nodes();
  const std::vector<Edge>& edges = db.edges();
  const std::uint64_t n = nodes.size();
  const std::uint64_t m = edges.size();
  if (n > UINT32_MAX || m > UINT32_MAX) {
    return frozen_err("graph exceeds the dense 32-bit id space (" + std::to_string(n) +
                      " nodes, " + std::to_string(m) + " edges)");
  }

  // Intern labels/types in first-use order of the ascending scans (a pure
  // function of graph content, never of construction history).
  auto intern = [](std::unordered_map<std::string_view, std::uint16_t>& ids,
                   std::vector<std::string_view>& names, std::string_view s) {
    auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    auto id = static_cast<std::uint16_t>(names.size());
    ids.emplace(s, id);
    names.push_back(s);
    return id;
  };
  std::unordered_map<std::string_view, std::uint16_t> label_ids, type_ids;
  std::vector<std::string_view> label_names, type_names;
  std::vector<std::uint16_t> node_label(n);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (label_names.size() > 0xFFFF) return frozen_err("label table exceeds the 16-bit id space");
    node_label[i] = intern(label_ids, label_names, nodes[i].label);
  }

  struct AdjEntry {
    std::uint16_t type;
    std::uint32_t edge;
    std::uint32_t nbr;
  };
  std::vector<std::vector<AdjEntry>> out_adj(n), in_adj(n);
  std::vector<std::uint32_t> efrom(m), eto(m);
  std::vector<std::uint16_t> etype(m);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (type_names.size() > 0xFFFF) {
      return frozen_err("edge-type table exceeds the 16-bit id space");
    }
    auto from = static_cast<std::uint32_t>(edges[e].from);
    auto to = static_cast<std::uint32_t>(edges[e].to);
    std::uint16_t t = intern(type_ids, type_names, edges[e].type);
    efrom[e] = from;
    eto[e] = to;
    etype[e] = t;
    auto de = static_cast<std::uint32_t>(e);
    out_adj[from].push_back({t, de, to});
    in_adj[to].push_back({t, de, from});
  }
  // Sort each node's adjacency by (type, edge): typed lookups become one
  // binary search, and within a type the ascending edge order *is* the
  // builder's insertion order (the byte-identical-output invariant).
  auto by_type_then_edge = [](const AdjEntry& a, const AdjEntry& b) {
    return a.type != b.type ? a.type < b.type : a.edge < b.edge;
  };
  for (auto& adj : out_adj) std::sort(adj.begin(), adj.end(), by_type_then_edge);
  for (auto& adj : in_adj) std::sort(adj.begin(), adj.end(), by_type_then_edge);

  // Property columns, keyed ascending (std::map order == file order).
  std::map<std::string_view, ColumnCells> node_cols, edge_cols;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const auto& [key, value] : nodes[i].props) {
      node_cols[key].cells.emplace_back(static_cast<std::uint32_t>(i), &value);
    }
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    for (const auto& [key, value] : edges[e].props) {
      edge_cols[key].cells.emplace_back(static_cast<std::uint32_t>(e), &value);
    }
  }

  // --- Emit the frame ---
  FrameWriter w;
  w.u32(kFrozenMagic);
  w.u16(kFrozenVersion);
  w.u16(0);
  w.u64(0);  // frame length, patched below
  w.u64(content_key);
  w.u64(n);
  w.u64(m);
  w.u64(kFrozenSectionCount);
  const std::size_t dir_at = w.size();
  w.zeros(kDirSize);

  std::uint32_t next_id = 0;
  std::size_t section_start = 0;
  auto begin_section = [&] {
    w.pad8();
    section_start = w.size();
  };
  auto end_section = [&] {
    w.pad8();
    std::size_t entry = dir_at + next_id * kFrozenDirEntrySize;
    w.patch_u32(entry, next_id + 1);  // ids are 1-based
    w.patch_u64(entry + 8, section_start);
    w.patch_u64(entry + 16, w.size() - section_start);
    ++next_id;
  };
  auto string_table = [&](const std::vector<std::string_view>& names) {
    begin_section();
    w.u64(names.size());
    std::uint64_t total = 0;
    for (std::string_view s : names) {
      w.u64(total);
      total += s.size();
    }
    w.u64(total);
    for (std::string_view s : names) w.raw(s.data(), s.size());
    end_section();
  };
  auto raw_section = [&](const void* p, std::size_t bytes) {
    begin_section();
    w.raw(p, bytes);
    end_section();
  };
  auto csr_sections = [&](const std::vector<std::vector<AdjEntry>>& adj) {
    std::vector<std::uint64_t> offsets(n + 1, 0);
    std::vector<std::uint32_t> nbr(m), edge(m);
    std::vector<std::uint16_t> type(m);
    std::uint64_t at = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      offsets[i] = at;
      for (const AdjEntry& a : adj[i]) {
        nbr[at] = a.nbr;
        edge[at] = a.edge;
        type[at] = a.type;
        ++at;
      }
    }
    offsets[n] = at;
    raw_section(offsets.data(), offsets.size() * sizeof(std::uint64_t));
    raw_section(nbr.data(), nbr.size() * sizeof(std::uint32_t));
    raw_section(edge.data(), edge.size() * sizeof(std::uint32_t));
    raw_section(type.data(), type.size() * sizeof(std::uint16_t));
  };
  auto prop_sections = [&](const std::map<std::string_view, ColumnCells>& cols,
                           std::uint64_t count) {
    begin_section();
    w.u64(cols.size());
    for (const auto& [key, col] : cols) write_column(w, key, col, count);
    end_section();
  };

  string_table(label_names);                                            // 1
  string_table(type_names);                                             // 2
  raw_section(node_label.data(), node_label.size() * sizeof(std::uint16_t));  // 3
  csr_sections(out_adj);                                                // 4..7
  csr_sections(in_adj);                                                 // 8..11
  raw_section(efrom.data(), efrom.size() * sizeof(std::uint32_t));      // 12
  raw_section(eto.data(), eto.size() * sizeof(std::uint32_t));          // 13
  raw_section(etype.data(), etype.size() * sizeof(std::uint16_t));      // 14
  prop_sections(node_cols, n);                                          // 15
  prop_sections(edge_cols, m);                                          // 16
  {                                                                     // 17
    util::ByteWriter stats;
    encode_stats(stats, db.cardinality());
    std::vector<std::byte> stats_payload = stats.take();
    begin_section();
    w.u64(stats_payload.size());
    w.raw(stats_payload.data(), stats_payload.size());
    end_section();
  }
  const BuildCounts& counts = db.build_counts();
  raw_section(counts.data(), counts.size() * sizeof(std::uint64_t));    // 18

  w.patch_u64(8, w.size() + kFrozenChecksumSize);
  w.u64(util::content_digest(w.buf));

  std::vector<std::byte> bytes = std::move(w.buf);
  std::span<const std::byte> frame(bytes);
  return attach(frame, std::move(bytes), nullptr);
}

// --- Attach (validate + wire views) -----------------------------------------

util::Result<FrozenGraph> FrozenGraph::attach(std::span<const std::byte> frame,
                                              std::vector<std::byte> storage,
                                              std::shared_ptr<void> mapping) {
  if ((reinterpret_cast<std::uintptr_t>(frame.data()) & 7) != 0) {
    return frozen_err("frame storage is not 8-byte aligned");
  }
  if (frame.size() < kMinFrameSize) {
    return frozen_err("truncated: " + std::to_string(frame.size()) +
                          " byte(s), smaller than the fixed header",
                      frame.size());
  }
  if (rd_u32(frame, 0) != kFrozenMagic) {
    return frozen_err("not a tabby frozen graph (bad magic)");
  }
  std::uint16_t version = rd_u16(frame, 4);
  if (version != kFrozenVersion) {
    return frozen_err("unsupported frozen snapshot version " + std::to_string(version) +
                          " (this build reads version " + std::to_string(kFrozenVersion) + ")",
                      4);
  }
  std::uint64_t declared = rd_u64(frame, 8);
  if (declared != frame.size()) {
    return frozen_err("truncated or oversized: header declares " + std::to_string(declared) +
                          " byte(s) but " + std::to_string(frame.size()) + " are present",
                      8);
  }
  std::uint64_t stored_sum = rd_u64(frame, frame.size() - kFrozenChecksumSize);
  std::uint64_t actual_sum =
      util::content_digest(frame.first(frame.size() - kFrozenChecksumSize));
  if (stored_sum != actual_sum) {
    return frozen_err("checksum mismatch (corrupt or tampered snapshot): expected " +
                          util::digest_hex(stored_sum) + ", computed " +
                          util::digest_hex(actual_sum),
                      frame.size() - kFrozenChecksumSize);
  }

  FrozenGraph g;
  g.content_key_ = rd_u64(frame, 16);
  std::uint64_t n = rd_u64(frame, 24);
  std::uint64_t m = rd_u64(frame, 32);
  std::uint64_t section_count = rd_u64(frame, 40);
  if (section_count != kFrozenSectionCount) {
    return frozen_err("bad section count " + std::to_string(section_count), 40);
  }
  if (n > UINT32_MAX || m > UINT32_MAX) {
    return frozen_err("node/edge count exceeds the dense 32-bit id space", 24);
  }
  g.node_count_ = static_cast<std::size_t>(n);
  g.edge_count_ = static_cast<std::size_t>(m);

  // Directory: ids 1..count in order, sections 8-aligned, in-bounds,
  // non-overlapping and ascending.
  struct Section {
    std::uint64_t off = 0;
    std::uint64_t len = 0;
  };
  std::vector<Section> sections(kFrozenSectionCount);
  const std::uint64_t body_end = frame.size() - kFrozenChecksumSize;
  std::uint64_t prev_end = kFrozenHeaderSize + kDirSize;
  for (std::size_t i = 0; i < kFrozenSectionCount; ++i) {
    std::size_t entry = kFrozenHeaderSize + i * kFrozenDirEntrySize;
    std::uint32_t id = rd_u32(frame, entry);
    if (id != i + 1) {
      return frozen_err("directory entry " + std::to_string(i) + " has id " + std::to_string(id),
                        entry);
    }
    std::uint64_t off = rd_u64(frame, entry + 8);
    std::uint64_t len = rd_u64(frame, entry + 16);
    if ((off & 7) != 0 || off < prev_end || len > body_end - off) {
      return frozen_err("section " + std::to_string(id) + " out of bounds", entry);
    }
    sections[i] = {off, len};
    prev_end = off + len;
  }

  // --- String tables ---
  auto parse_table = [&](const Section& s, const char* what,
                         StringTable& table) -> util::Status {
    if (s.len < 8) return frozen_err(std::string(what) + " table truncated", s.off);
    std::uint64_t count = rd_u64(frame, s.off);
    if (count > 0x10000) return frozen_err(std::string(what) + " table count out of range", s.off);
    std::uint64_t head = 8 + (count + 1) * 8;
    if (s.len < head) return frozen_err(std::string(what) + " table truncated", s.off);
    auto offsets = typed_span<std::uint64_t>(frame, s.off + 8, count + 1);
    if (offsets[0] != 0) return frozen_err(std::string(what) + " table offsets corrupt", s.off);
    for (std::uint64_t i = 1; i <= count; ++i) {
      if (offsets[i] < offsets[i - 1]) {
        return frozen_err(std::string(what) + " table offsets not monotonic", s.off);
      }
    }
    if (offsets[count] > s.len - head) {
      return frozen_err(std::string(what) + " table blob out of bounds", s.off);
    }
    table.count = count;
    table.offsets = offsets;
    table.chars = typed_span<char>(frame, s.off + head, offsets[count]);
    return util::Status::ok_status();
  };
  if (auto st = parse_table(sections[kSecNodeLabels - 1], "label", g.label_table_); !st.ok()) {
    return st.error();
  }
  if (auto st = parse_table(sections[kSecEdgeTypes - 1], "edge-type", g.type_table_); !st.ok()) {
    return st.error();
  }

  // --- Fixed-width arrays ---
  auto fixed = [&](std::uint32_t id, std::uint64_t count,
                   std::uint64_t elem) -> Result<std::uint64_t> {
    const Section& s = sections[id - 1];
    if (s.len < count * elem) {
      return frozen_err("section " + std::to_string(id) + " truncated", s.off);
    }
    return s.off;
  };
  auto span_u16 = [&](std::uint32_t id, std::uint64_t count) -> Result<std::span<const std::uint16_t>> {
    auto off = fixed(id, count, 2);
    if (!off.ok()) return off.error();
    return typed_span<std::uint16_t>(frame, off.value(), count);
  };
  auto span_u32 = [&](std::uint32_t id, std::uint64_t count) -> Result<std::span<const std::uint32_t>> {
    auto off = fixed(id, count, 4);
    if (!off.ok()) return off.error();
    return typed_span<std::uint32_t>(frame, off.value(), count);
  };
  auto span_u64 = [&](std::uint32_t id, std::uint64_t count) -> Result<std::span<const std::uint64_t>> {
    auto off = fixed(id, count, 8);
    if (!off.ok()) return off.error();
    return typed_span<std::uint64_t>(frame, off.value(), count);
  };

  {
    auto s = span_u16(kSecNodeLabelIds, n);
    if (!s.ok()) return s.error();
    g.node_label_ids_ = s.value();
    for (std::uint16_t id : g.node_label_ids_) {
      if (id >= g.label_table_.count) return frozen_err("node label id out of range");
    }
  }
  auto load_csr = [&](std::uint32_t base, std::span<const std::uint64_t>& offsets,
                      std::span<const std::uint32_t>& nbr, std::span<const std::uint32_t>& edge,
                      std::span<const std::uint16_t>& type) -> util::Status {
    auto so = span_u64(base, n + 1);
    if (!so.ok()) return so.error();
    offsets = so.value();
    if (offsets[0] != 0 || offsets[n] != m) return frozen_err("adjacency offsets corrupt");
    for (std::uint64_t i = 1; i <= n; ++i) {
      if (offsets[i] < offsets[i - 1]) return frozen_err("adjacency offsets not monotonic");
    }
    auto sn = span_u32(base + 1, m);
    if (!sn.ok()) return sn.error();
    nbr = sn.value();
    auto se = span_u32(base + 2, m);
    if (!se.ok()) return se.error();
    edge = se.value();
    auto st = span_u16(base + 3, m);
    if (!st.ok()) return st.error();
    type = st.value();
    for (std::uint64_t i = 0; i < m; ++i) {
      if (nbr[i] >= n || edge[i] >= m || type[i] >= g.type_table_.count) {
        return frozen_err("adjacency entry out of range");
      }
    }
    // Per-node (type, edge) strict ordering: what typed binary search and
    // the insertion-order fast path rely on.
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t k = offsets[i] + 1; k < offsets[i + 1]; ++k) {
        bool ordered = type[k - 1] != type[k] ? type[k - 1] < type[k] : edge[k - 1] < edge[k];
        if (!ordered) return frozen_err("adjacency not sorted by (type, edge)");
      }
    }
    return util::Status::ok_status();
  };
  if (auto st = load_csr(kSecOutOffsets, g.out_offsets_, g.out_nbr_, g.out_edge_, g.out_type_);
      !st.ok()) {
    return st.error();
  }
  if (auto st = load_csr(kSecInOffsets, g.in_offsets_, g.in_nbr_, g.in_edge_, g.in_type_);
      !st.ok()) {
    return st.error();
  }
  {
    auto sf = span_u32(kSecEdgeFrom, m);
    if (!sf.ok()) return sf.error();
    g.edge_from_ = sf.value();
    auto st = span_u32(kSecEdgeTo, m);
    if (!st.ok()) return st.error();
    g.edge_to_ = st.value();
    auto sy = span_u16(kSecEdgeType, m);
    if (!sy.ok()) return sy.error();
    g.edge_type_ = sy.value();
    for (std::uint64_t e = 0; e < m; ++e) {
      if (g.edge_from_[e] >= n || g.edge_to_[e] >= n || g.edge_type_[e] >= g.type_table_.count) {
        return frozen_err("edge endpoint out of range");
      }
    }
    // Cross-check adjacency against the edge table: every out/in entry must
    // cite an edge whose endpoints and type agree. Together with the strict
    // per-node ordering this makes each direction a permutation of 0..M-1.
    for (std::uint64_t i = 0; i < n; ++i) {
      for (std::uint64_t k = g.out_offsets_[i]; k < g.out_offsets_[i + 1]; ++k) {
        std::uint32_t e = g.out_edge_[k];
        if (g.edge_from_[e] != i || g.edge_to_[e] != g.out_nbr_[k] ||
            g.edge_type_[e] != g.out_type_[k]) {
          return frozen_err("out-adjacency disagrees with the edge table");
        }
      }
      for (std::uint64_t k = g.in_offsets_[i]; k < g.in_offsets_[i + 1]; ++k) {
        std::uint32_t e = g.in_edge_[k];
        if (g.edge_to_[e] != i || g.edge_from_[e] != g.in_nbr_[k] ||
            g.edge_type_[e] != g.in_type_[k]) {
          return frozen_err("in-adjacency disagrees with the edge table");
        }
      }
    }
  }

  // --- Property columns ---
  auto parse_columns = [&](std::uint32_t id, std::uint64_t count, const char* what,
                           std::vector<std::pair<std::string_view, FrozenColumn>>& out)
      -> util::Status {
    const Section& s = sections[id - 1];
    std::uint64_t pos = s.off;
    const std::uint64_t end = s.off + s.len;
    auto bad = [&](std::string msg) {
      return frozen_err(std::string(what) + " column " + std::move(msg), pos);
    };
    auto need = [&](std::uint64_t bytes) { return bytes <= end - pos; };
    if (!need(8)) return bad("section truncated");
    std::uint64_t ncols = rd_u64(frame, pos);
    pos += 8;
    const std::uint64_t words = (count + 63) / 64;
    std::string_view prev_key;
    out.reserve(static_cast<std::size_t>(ncols));
    for (std::uint64_t c = 0; c < ncols; ++c) {
      if (!need(8)) return bad("key truncated");
      std::uint64_t key_len = rd_u64(frame, pos);
      pos += 8;
      if (!need(key_len)) return bad("key truncated");
      std::string_view key(reinterpret_cast<const char*>(frame.data() + pos),
                           static_cast<std::size_t>(key_len));
      pos = align8(pos + key_len);
      if (c > 0 && !(prev_key < key)) return bad("keys not strictly ascending");
      prev_key = key;
      if (pos > end || !need(16)) return bad("header truncated");
      std::uint64_t kind_raw = rd_u64(frame, pos);
      pos += 8;
      if (kind_raw > static_cast<std::uint64_t>(FrozenColumnKind::Mixed)) {
        return bad("has a bad kind tag");
      }
      std::uint64_t stored_words = rd_u64(frame, pos);
      pos += 8;
      if (stored_words != words) return bad("presence bitmap size mismatch");
      if (!need(words * 8)) return bad("presence bitmap truncated");
      FrozenColumn col;
      col.kind_ = static_cast<FrozenColumnKind>(kind_raw);
      col.presence_ = typed_span<std::uint64_t>(frame, pos, words);
      pos += words * 8;
      auto offsets_block = [&](std::uint64_t& total) -> util::Status {
        if (!need((count + 1) * 8 + 8)) return bad("offsets truncated");
        col.offsets_ = typed_span<std::uint64_t>(frame, pos, count + 1);
        pos += (count + 1) * 8;
        if (col.offsets_[0] != 0) return bad("offsets corrupt");
        for (std::uint64_t i = 1; i <= count; ++i) {
          if (col.offsets_[i] < col.offsets_[i - 1]) return bad("offsets not monotonic");
        }
        total = rd_u64(frame, pos);
        pos += 8;
        if (col.offsets_[count] != total) return bad("blob length disagrees with offsets");
        return util::Status::ok_status();
      };
      switch (col.kind_) {
        case FrozenColumnKind::Bool: {
          if (!need(words * 8)) return bad("value bitmap truncated");
          col.words_ = typed_span<std::uint64_t>(frame, pos, words);
          pos += words * 8;
          break;
        }
        case FrozenColumnKind::Int: {
          if (!need(count * 8)) return bad("values truncated");
          col.ints_ = typed_span<std::int64_t>(frame, pos, count);
          pos += count * 8;
          break;
        }
        case FrozenColumnKind::Real: {
          if (!need(count * 8)) return bad("values truncated");
          col.words_ = typed_span<std::uint64_t>(frame, pos, count);
          pos += count * 8;
          break;
        }
        case FrozenColumnKind::Str: {
          std::uint64_t total = 0;
          if (auto st = offsets_block(total); !st.ok()) return st;
          if (!need(total)) return bad("string blob truncated");
          col.chars_ = typed_span<char>(frame, pos, total);
          pos = align8(pos + total);
          if (pos > end) return bad("string blob truncated");
          break;
        }
        case FrozenColumnKind::IntList: {
          std::uint64_t total = 0;
          if (auto st = offsets_block(total); !st.ok()) return st;
          if (!need(total * 8)) return bad("int-list pool truncated");
          col.ints_ = typed_span<std::int64_t>(frame, pos, total);
          pos += total * 8;
          break;
        }
        case FrozenColumnKind::Mixed: {
          std::uint64_t total = 0;
          if (auto st = offsets_block(total); !st.ok()) return st;
          if (!need(total)) return bad("value blob truncated");
          col.blob_ = frame.subspan(pos, total);
          pos = align8(pos + total);
          if (pos > end) return bad("value blob truncated");
          break;
        }
      }
      out.emplace_back(key, col);
    }
    if (pos != end) return bad("section has trailing bytes");
    return util::Status::ok_status();
  };
  if (auto st = parse_columns(kSecNodeProps, n, "node", g.node_columns_); !st.ok()) {
    return st.error();
  }
  if (auto st = parse_columns(kSecEdgeProps, m, "edge", g.edge_columns_); !st.ok()) {
    return st.error();
  }

  // --- Cardinality stats (section 17) ---
  {
    const Section& s = sections[kSecStats - 1];
    if (s.len < 8) return frozen_err("stats section truncated", s.off);
    std::uint64_t payload_len = rd_u64(frame, s.off);
    if (payload_len > s.len - 8) return frozen_err("stats payload out of bounds", s.off);
    util::ByteReader in(frame.subspan(s.off + 8, payload_len));
    auto stats = decode_stats(in);
    if (!stats.ok()) return frozen_err("stats section corrupt: " + stats.error().message, s.off);
    if (!in.at_end()) return frozen_err("trailing bytes in the stats section", s.off);
    // The totals must agree with the frame header; a lying stats section is
    // as fatal as any other structural corruption.
    if (stats.value().nodes != n || stats.value().edges != m) {
      return frozen_err("stats section disagrees with the frame's node/edge counts", s.off);
    }
    g.stats_ = std::move(stats.value());
  }

  // --- Build counts (section 18) ---
  {
    auto counts = span_u64(kSecBuildCounts, g.build_counts_.size());
    if (!counts.ok()) return counts.error();
    std::copy(counts.value().begin(), counts.value().end(), g.build_counts_.begin());
  }

  g.owned_ = std::move(storage);
  g.mapping_ = std::move(mapping);
  g.frame_ = frame;
  return g;
}

util::Result<FrozenGraph> FrozenGraph::from_bytes(std::span<const std::byte> frame) {
  std::vector<std::byte> copy(frame.begin(), frame.end());
  return adopt(std::move(copy));
}

util::Result<FrozenGraph> FrozenGraph::adopt(std::vector<std::byte> frame) {
  std::span<const std::byte> view(frame);
  return attach(view, std::move(frame), nullptr);
}

util::Result<FrozenGraph> FrozenGraph::map_file(const std::filesystem::path& path) {
#ifdef TABBY_FROZEN_HAVE_MMAP
  // O_NONBLOCK: opening a FIFO must not wait for a writer. Only a regular
  // file maps; anything else falls through to read_file, which refuses it.
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Error{"cannot stat: " + path.string()};
    }
    auto file_size = static_cast<std::size_t>(st.st_size);
    // An empty file cannot be mapped; attach() reports it as truncated.
    void* base = file_size == 0 || !S_ISREG(st.st_mode)
                     ? MAP_FAILED
                     : ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base != MAP_FAILED) {
      std::shared_ptr<void> mapping(base, [file_size](void* p) { ::munmap(p, file_size); });
      std::span<const std::byte> frame(static_cast<const std::byte*>(base), file_size);
      return attach(frame, {}, std::move(mapping));
    }
    // mmap refused (an empty file, an unusual filesystem) or not a regular
    // file — read instead.
  }
#endif
  auto bytes = util::read_file(path);
  if (!bytes.ok()) return bytes.error();
  return adopt(std::move(bytes.value()));
}

util::Status FrozenGraph::save(const std::filesystem::path& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Error{"cannot open for write: " + path.string()};
  out.write(reinterpret_cast<const char*>(frame_.data()),
            static_cast<std::streamsize>(frame_.size()));
  if (!out) return Error{"write failed: " + path.string()};
  return util::Status::ok_status();
}

// --- Lookups ----------------------------------------------------------------

std::optional<std::uint16_t> FrozenGraph::label_id(std::string_view label) const {
  for (std::uint64_t i = 0; i < label_table_.count; ++i) {
    if (table_entry(label_table_, static_cast<std::uint16_t>(i)) == label) {
      return static_cast<std::uint16_t>(i);
    }
  }
  return std::nullopt;
}

std::optional<std::uint16_t> FrozenGraph::edge_type_id(std::string_view type) const {
  for (std::uint64_t i = 0; i < type_table_.count; ++i) {
    if (table_entry(type_table_, static_cast<std::uint16_t>(i)) == type) {
      return static_cast<std::uint16_t>(i);
    }
  }
  return std::nullopt;
}

AdjacencyView FrozenGraph::typed_slice(std::span<const std::uint32_t> nbr,
                                       std::span<const std::uint32_t> edge,
                                       std::span<const std::uint16_t> type, std::uint64_t b,
                                       std::uint64_t e, std::uint16_t t) {
  auto first = type.begin() + static_cast<std::ptrdiff_t>(b);
  auto last = type.begin() + static_cast<std::ptrdiff_t>(e);
  auto lo = std::lower_bound(first, last, t);
  auto hi = std::upper_bound(lo, last, t);
  auto begin = static_cast<std::uint64_t>(lo - type.begin());
  auto end = static_cast<std::uint64_t>(hi - type.begin());
  return slice(nbr, edge, type, begin, end);
}

const FrozenColumn* FrozenGraph::node_column(std::string_view key) const {
  auto it = std::lower_bound(
      node_columns_.begin(), node_columns_.end(), key,
      [](const auto& entry, std::string_view k) { return entry.first < k; });
  return it != node_columns_.end() && it->first == key ? &it->second : nullptr;
}

const FrozenColumn* FrozenGraph::edge_column(std::string_view key) const {
  auto it = std::lower_bound(
      edge_columns_.begin(), edge_columns_.end(), key,
      [](const auto& entry, std::string_view k) { return entry.first < k; });
  return it != edge_columns_.end() && it->first == key ? &it->second : nullptr;
}

std::optional<Value> FrozenGraph::node_prop(NodeId n, std::string_view key) const {
  const FrozenColumn* col = node_column(key);
  return col != nullptr ? col->get_value(n) : std::nullopt;
}

std::optional<Value> FrozenGraph::edge_prop(EdgeId e, std::string_view key) const {
  const FrozenColumn* col = edge_column(key);
  return col != nullptr ? col->get_value(e) : std::nullopt;
}

std::string_view FrozenGraph::node_prop_string(NodeId n, std::string_view key) const {
  const FrozenColumn* col = node_column(key);
  return col != nullptr ? col->get_string(n) : std::string_view{};
}

bool FrozenGraph::node_prop_bool(NodeId n, std::string_view key) const {
  const FrozenColumn* col = node_column(key);
  return col != nullptr && col->get_bool(n);
}

std::int64_t FrozenGraph::node_prop_int(NodeId n, std::string_view key,
                                        std::int64_t fallback) const {
  const FrozenColumn* col = node_column(key);
  return col != nullptr ? col->get_int(n, fallback) : fallback;
}

std::vector<NodeId> FrozenGraph::nodes_with_label(std::string_view label) const {
  std::vector<NodeId> out;
  auto id = label_id(label);
  if (!id.has_value()) return out;
  for (std::uint64_t i = 0; i < node_count_; ++i) {
    if (node_label_ids_[i] == *id) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> FrozenGraph::find_nodes(std::string_view label, std::string_view key,
                                            const Value& value) const {
  std::vector<NodeId> out;
  auto id = label_id(label);
  if (!id.has_value()) return out;
  const FrozenColumn* col = node_column(key);
  if (col == nullptr) return out;
  for (std::uint64_t i = 0; i < node_count_; ++i) {
    if (node_label_ids_[i] != *id || !col->has(i)) continue;
    auto v = col->get_value(i);
    if (v.has_value() && value_equals(*v, value)) out.push_back(i);
  }
  return out;
}

}  // namespace tabby::graph
