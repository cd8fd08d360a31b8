#include "cpg/export.hpp"

#include <fstream>

#include "cpg/schema.hpp"

namespace tabby::cpg {

namespace {

/// RFC-4180-ish escaping: quote when the cell contains comma/quote/newline.
std::string csv_escape(const std::string& cell) {
  bool needs_quotes = cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

/// One cell: empty when absent or null, strings verbatim, anything else in
/// its value rendering.
std::string cell(const std::optional<graph::Value>& v) {
  if (!v.has_value() || graph::is_null(*v)) return "";
  if (const auto* s = std::get_if<std::string>(&*v)) return csv_escape(*s);
  return csv_escape(graph::to_string(*v));
}

}  // namespace

util::Result<CsvExportStats> export_csv(const graph::FrozenGraph& db,
                                        const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);

  std::ofstream classes(dir / "CLASSES.csv");
  std::ofstream methods(dir / "METHODS.csv");
  std::ofstream rels(dir / "RELATIONSHIPS.csv");
  if (!classes || !methods || !rels) {
    return util::Error{"cannot open CSV files in " + dir.string()};
  }

  classes << "id:ID,:LABEL,NAME,IS_INTERFACE,IS_SERIALIZABLE,IS_ABSTRACT,IS_PHANTOM,SUPER,JAR\n";
  methods << "id:ID,:LABEL,NAME,CLASSNAME,SIGNATURE,PARAM_COUNT,IS_STATIC,IS_ABSTRACT,"
             "IS_SOURCE,IS_SINK,SINK_TYPE,TRIGGER_CONDITION\n";
  rels << ":START_ID,:END_ID,:TYPE,POLLUTED_POSITION\n";

  CsvExportStats stats;
  for (graph::NodeId n = 0; n < db.node_count(); ++n) {
    auto prop = [&](std::string_view key) { return cell(db.node_prop(n, key)); };
    std::string_view label = db.label(n);
    if (label == kClassLabel) {
      classes << n << ',' << label << ',' << prop(kPropName) << ',' << prop(kPropInterface) << ','
              << prop(kPropSerializable) << ',' << prop(kPropAbstractClass) << ','
              << prop(kPropPhantom) << ',' << prop(kPropSuper) << ',' << prop(kPropJar) << '\n';
      ++stats.class_rows;
    } else if (label == kMethodLabel) {
      methods << n << ',' << label << ',' << prop(kPropName) << ',' << prop(kPropClassName) << ','
              << prop(kPropSignature) << ',' << prop(kPropParamCount) << ',' << prop(kPropStatic)
              << ',' << prop(kPropAbstract) << ',' << prop(kPropIsSource) << ','
              << prop(kPropIsSink) << ',' << prop(kPropSinkType) << ','
              << prop(kPropTriggerCondition) << '\n';
      ++stats.method_rows;
    }
  }
  for (graph::EdgeId e = 0; e < db.edge_count(); ++e) {
    rels << db.edge_from(e) << ',' << db.edge_to(e) << ','
         << db.edge_type_name(db.edge_type(e)) << ','
         << cell(db.edge_prop(e, kPropPollutedPosition)) << '\n';
    ++stats.relationship_rows;
  }

  if (!classes.good() || !methods.good() || !rels.good()) {
    return util::Error{"write failure while exporting CSVs to " + dir.string()};
  }
  return stats;
}

}  // namespace tabby::cpg
