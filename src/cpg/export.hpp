// CSV export of a CPG in neo4j-admin bulk-import layout. The real Tabby
// writes exactly such CSV files and imports them into Neo4j; this keeps the
// interchange path available (e.g. to load a CPG produced here into an
// actual Neo4j instance).
//
// Files written into `dir`:
//   CLASSES.csv        id:ID, :LABEL, NAME, IS_INTERFACE, IS_SERIALIZABLE, ...
//   METHODS.csv        id:ID, :LABEL, NAME, CLASSNAME, SIGNATURE, ...
//   RELATIONSHIPS.csv  :START_ID, :END_ID, :TYPE, POLLUTED_POSITION
#pragma once

#include <filesystem>

#include "graph/frozen.hpp"
#include "util/result.hpp"

namespace tabby::cpg {

struct CsvExportStats {
  std::size_t class_rows = 0;
  std::size_t method_rows = 0;
  std::size_t relationship_rows = 0;
};

/// Node ids are the frame's dense ids, which are the builder's ids.
util::Result<CsvExportStats> export_csv(const graph::FrozenGraph& db,
                                        const std::filesystem::path& dir);

}  // namespace tabby::cpg
