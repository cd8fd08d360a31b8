// Class-hierarchy queries over a Program: supertype closures, subtyping,
// serializability and virtual dispatch, as the runtime VM replays a chain.
// A Hierarchy is a view: every query walks the program's own declarations,
// so it keeps no index and constructing one costs nothing. The CPG builder
// computes serializability for a whole program in one pass of its own and
// walks supertypes itself for the Method Alias Graph (Formula 1).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jir/model.hpp"

namespace tabby::jir {

/// Read-only queries over one Program, which must outlive the view.
class Hierarchy {
 public:
  explicit Hierarchy(const Program& program) : program_(&program) {}

  const Program& program() const { return *program_; }

  /// Direct supertypes (superclass first, then direct interfaces). Unknown
  /// class names resolve to an empty list.
  std::vector<std::string> direct_supertypes(std::string_view cls) const;

  /// Transitive supertype closure, excluding `cls` itself. Includes names of
  /// classes absent from the Program (phantom supertypes), as Soot does.
  std::vector<std::string> all_supertypes(std::string_view cls) const;

  /// True if the class transitively implements java.io.Serializable or
  /// java.io.Externalizable.
  bool is_serializable(std::string_view cls) const;

  /// Dispatch a virtual/interface call: the method actually run when invoking
  /// name/nargs on a receiver whose dynamic type is `receiver_class`.
  std::optional<MethodId> dispatch(std::string_view receiver_class, std::string_view name,
                                   int nargs) const;

 private:
  const Program* program_;
};

}  // namespace tabby::jir
