// The CPG schema: node labels, relationship types (Table II) and property
// keys. Kept in one header so every producer (builder) and consumer (finder,
// Cypher queries, baselines) agrees on names — these are the strings a user
// would also type into the query language.
#pragma once

#include <string>
#include <string_view>

namespace tabby::cpg {

// Node labels.
inline constexpr std::string_view kClassLabel = "Class";
inline constexpr std::string_view kMethodLabel = "Method";

// Relationship types (Table II).
inline constexpr std::string_view kExtendEdge = "EXTEND";
inline constexpr std::string_view kInterfaceEdge = "INTERFACE";
inline constexpr std::string_view kHasEdge = "HAS";
inline constexpr std::string_view kCallEdge = "CALL";
inline constexpr std::string_view kAliasEdge = "ALIAS";

// Shared properties.
inline constexpr std::string_view kPropName = "NAME";
inline constexpr std::string_view kPropPhantom = "IS_PHANTOM";

// Class node properties.
inline constexpr std::string_view kPropInterface = "IS_INTERFACE";
inline constexpr std::string_view kPropSerializable = "IS_SERIALIZABLE";
inline constexpr std::string_view kPropAbstractClass = "IS_ABSTRACT";
inline constexpr std::string_view kPropSuper = "SUPER";

// Method node properties.
inline constexpr std::string_view kPropClassName = "CLASSNAME";
inline constexpr std::string_view kPropSignature = "SIGNATURE";
inline constexpr std::string_view kPropStatic = "IS_STATIC";
inline constexpr std::string_view kPropAbstract = "IS_ABSTRACT";
inline constexpr std::string_view kPropParamCount = "PARAM_COUNT";
inline constexpr std::string_view kPropIsSource = "IS_SOURCE";
inline constexpr std::string_view kPropIsSink = "IS_SINK";
inline constexpr std::string_view kPropSinkType = "SINK_TYPE";
inline constexpr std::string_view kPropTriggerCondition = "TRIGGER_CONDITION";
inline constexpr std::string_view kPropAction = "ACTION";

// CALL edge properties.
inline constexpr std::string_view kPropPollutedPosition = "POLLUTED_POSITION";
inline constexpr std::string_view kPropStmtIndex = "STMT_INDEX";
inline constexpr std::string_view kPropInvokeKind = "INVOKE_KIND";

/// "owner#name/nargs" — the unique method key used by SIGNATURE lookups.
inline std::string method_signature(std::string_view owner, std::string_view name, int nargs) {
  return std::string(owner) + "#" + std::string(name) + "/" + std::to_string(nargs);
}

}  // namespace tabby::cpg
