// The JIR program model: classes, fields, methods and the whole-program
// container. This is the substrate the paper gets from Soot's class loading
// (§III-B1 "Semantic Information Extraction").
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "jir/stmt.hpp"
#include "jir/type.hpp"

namespace tabby::jir {

/// Subset of Java modifiers the analyses care about.
struct Modifiers {
  bool is_public = true;
  bool is_static = false;
  bool is_abstract = false;
  bool is_final = false;
  bool is_native = false;

  bool operator==(const Modifiers&) const = default;
};

struct Field {
  std::string name;
  Type type;
  Modifiers mods;
};

struct Method {
  std::string name;
  std::vector<Type> params;
  Type ret = void_type();
  Modifiers mods;
  std::vector<Stmt> body;  // empty for abstract/native methods

  int nargs() const { return static_cast<int>(params.size()); }
  bool has_body() const { return !mods.is_abstract && !mods.is_native; }
};

struct ClassDecl {
  std::string name;
  bool is_interface = false;
  Modifiers mods;
  std::string super;                    // empty only for java.lang.Object and interfaces
  std::vector<std::string> interfaces;  // direct superinterfaces
  std::vector<Field> fields;
  std::vector<Method> methods;

  const Method* find_method(std::string_view method_name, int nargs) const;
  const Field* find_field(std::string_view field_name) const;
};

/// Stable handle for a method inside a Program.
struct MethodId {
  std::uint32_t class_index = 0;
  std::uint32_t method_index = 0;

  bool operator==(const MethodId&) const = default;
};

struct MethodIdHash {
  std::size_t operator()(const MethodId& id) const {
    return (static_cast<std::size_t>(id.class_index) << 20) ^ id.method_index;
  }
};

/// A closed-world collection of classes, as loaded from one or more archives.
/// Lookup structures are rebuilt lazily after mutation via reindex().
class Program {
 public:
  Program() = default;

  /// Appends a class. Duplicate class names are rejected (throws
  /// std::invalid_argument) — archives must be deduplicated by the loader.
  std::uint32_t add_class(ClassDecl cls);

  /// Pre-sizes the class list and name index for `classes` classes.
  void reserve(std::size_t classes);

  const std::vector<ClassDecl>& classes() const { return classes_; }
  std::size_t class_count() const { return classes_.size(); }
  std::size_t method_count() const;

  const ClassDecl* find_class(std::string_view name) const;
  std::optional<std::uint32_t> class_index(std::string_view name) const;

  const ClassDecl& class_of(MethodId id) const { return classes_.at(id.class_index); }
  const Method& method(MethodId id) const {
    return classes_.at(id.class_index).methods.at(id.method_index);
  }

  /// Exact lookup in the named class only (no hierarchy walk).
  std::optional<MethodId> find_method(std::string_view owner, std::string_view name,
                                      int nargs) const;

  /// JVM-style resolution: search `owner`, then its supertypes breadth-first,
  /// each class's superclass queued ahead of its interfaces. Returns the
  /// first declaration reached; absent classes end their path.
  std::optional<MethodId> resolve_method(std::string_view owner, std::string_view name,
                                         int nargs) const;

  /// All methods, in deterministic (class, method) order.
  std::vector<MethodId> all_methods() const;

 private:
  /// Lets by_name_ answer a string_view without building a std::string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<ClassDecl> classes_;
  std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>> by_name_;
};

}  // namespace tabby::jir
