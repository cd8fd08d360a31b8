// Declarative attack-object recipes. A ground-truth gadget chain in the
// corpus carries one of these: the object graph an attacker would serialize.
// instantiate() materialises it (cycles allowed) for the VM to deserialize.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "runtime/vm.hpp"

namespace tabby::runtime {

/// A field value in a recipe: a literal, or a reference to another named
/// object in the same graph.
struct Ref {
  std::string name;
};
using FieldSpec = std::variant<std::monostate, std::int64_t, std::string, Ref>;

struct ObjectSpec {
  std::string class_name;
  std::map<std::string, FieldSpec> fields;
  std::vector<FieldSpec> elements;  // for array-like objects
};

struct ObjectGraphSpec {
  std::map<std::string, ObjectSpec> objects;
  std::string root;

  bool empty() const { return objects.empty() || root.empty(); }
};

/// Materialise the graph. References to undefined names become null.
/// Returns nullptr when the spec is empty or the root is undefined. The
/// returned pointer owns every object of the graph: when its last copy is
/// dropped, their fields and elements are cleared, so a cyclic graph is
/// freed too. Hold it while using objects reached from it.
ObjectPtr instantiate(const ObjectGraphSpec& spec);

}  // namespace tabby::runtime
