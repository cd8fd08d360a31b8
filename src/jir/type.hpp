// JIR types. The reproduction's IR is deliberately close to Soot's Jimple:
// every analysis in the paper (Table IV transfer rules, Algorithm 1) is
// defined over Jimple statement forms, so the substitution substrate keeps
// the same shape. Types are nominal: a qualified class name plus array depth;
// a closed set of primitive names is recognised.
#pragma once

#include <string>
#include <string_view>

namespace tabby::jir {

/// Well-known class names the analyses treat specially.
inline constexpr std::string_view kObjectClass = "java.lang.Object";
inline constexpr std::string_view kSerializableInterface = "java.io.Serializable";
inline constexpr std::string_view kExternalizableInterface = "java.io.Externalizable";
inline constexpr std::string_view kStringClass = "java.lang.String";

/// A JIR type: primitive ("int", "void", ...) or reference (qualified class
/// name), with `dims` array dimensions stacked on top.
struct Type {
  std::string name;
  int dims = 0;

  bool operator==(const Type&) const = default;

  bool is_void() const { return dims == 0 && name == "void"; }
  bool is_primitive() const;
  bool is_array() const { return dims > 0; }
  bool is_reference() const { return dims > 0 || !is_primitive(); }

  /// Element type of an array type. Precondition: is_array().
  Type element() const { return Type{name, dims - 1}; }

  /// "java.lang.String[][]" style rendering.
  std::string to_string() const;
};

/// Parse "java.lang.String[][]" style text into a Type.
Type parse_type(std::string_view text);

inline Type void_type() { return Type{"void", 0}; }

}  // namespace tabby::jir
