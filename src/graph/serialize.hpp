// The graph-store codec: a GraphDb's nodes and edges as one checksummed
// blob. The cache's .tsnp snapshots embed it (cache/cache.hpp); `--store`
// files are frozen frames instead (graph/frozen.hpp).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace tabby::graph {

// Store layout (little-endian, version 2 — the checksummed format):
//   magic    u32  = 0x54474442 ("TGDB")
//   version  u16  = 2
//   length   u64  payload size in bytes
//   payload       node and edge records (see serialize.cpp)
//   [stats]       optional cardinality-stats block (see below)
//   checksum u64  FNV-1a64 over every byte before it (header + payload +
//                 optional stats block)
// The optional stats block sits between payload and checksum:
//   magic    u32  = 0x54535453 ("TSTS")
//   length   u64  stats payload size in bytes
//   payload       CardinalityStats (see docs/GRAPH.md "Cardinality stats")
// deserialize() validates magic, version, declared length and checksum
// before touching the payload, so truncated, corrupted or pre-versioning
// stores fail closed with a diagnostic instead of undefined behavior.
// Stats-less stores (anything serialized before the planner existed, or
// with with_stats=false) still load; a present block must parse exactly and
// agree with the decoded graph or the whole store is rejected.
inline constexpr std::uint32_t kGraphStoreMagic = 0x54474442;
inline constexpr std::uint16_t kGraphStoreVersion = 2;
inline constexpr std::uint32_t kGraphStoreStatsMagic = 0x54535453;

std::vector<std::byte> serialize(const GraphDb& db, bool with_stats = true);
util::Result<GraphDb> deserialize(std::span<const std::byte> data);

// Cardinality-stats payload codec, shared between the store v2 tail block
// and the frozen frame's stats section (one wire format, two carriers).
void encode_stats(util::ByteWriter& out, const CardinalityStats& stats);
util::Result<CardinalityStats> decode_stats(util::ByteReader& in);

// Single-value wire encoding (tag byte + payload), shared with the frozen
// snapshot's Mixed property columns so one codec covers every Value
// alternative on disk. Tags: 0 null, 1 bool, 2 int (svarint), 3 double
// (uvarint of the bit pattern), 4 string, 5 int list, 6 string list.
void write_value(util::ByteWriter& out, const Value& v);
util::Result<Value> read_value(util::ByteReader& in);

}  // namespace tabby::graph
