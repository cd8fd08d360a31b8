// The controllability domain of §III-C: variable origins, controllability
// weights (Table V), the Action method summary (Table III), the
// Polluted_Position (PP) call-edge property, and Formulas 2 (calc) and
// 3 (correct).
//
// Weights:  0   = comes from the caller's `this` or a class property
//           i>0 = comes from method parameter i (1-based)
//           ∞   = uncontrollable (represented as kUncontrollable)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/strings.hpp"

namespace tabby::analysis {

using Weight = std::int64_t;

/// The paper's ∞. Large sentinel rather than a separate variant so weight
/// comparison ("more controllable" = smaller) stays a plain <.
inline constexpr Weight kUncontrollable = 1'000'000'000;

inline bool is_controllable(Weight w) { return w < kUncontrollable; }

/// Human-readable weight ("∞" for uncontrollable) used in dumps and tests.
std::string weight_to_string(Weight w);

/// Where a value came from, relative to the *enclosing method's* inputs.
/// Field sensitivity is one level deep, exactly like the paper's examples
/// (init-param-1.b etc.); deeper accesses collapse onto the first field.
struct Origin {
  enum class Kind : std::uint8_t { Unknown, This, Param };

  Kind kind = Kind::Unknown;
  int param = 0;      // 1-based, Kind::Param only
  std::string field;  // optional single field suffix

  bool operator==(const Origin&) const = default;

  static Origin unknown() { return {}; }
  static Origin this_origin(std::string field = {}) {
    return Origin{Kind::This, 0, std::move(field)};
  }
  static Origin param_origin(int index_1_based, std::string field = {}) {
    return Origin{Kind::Param, index_1_based, std::move(field)};
  }

  bool is_unknown() const { return kind == Kind::Unknown; }

  /// Table V weight of this origin.
  Weight weight() const {
    switch (kind) {
      case Kind::Unknown: return kUncontrollable;
      case Kind::This: return 0;
      case Kind::Param: return param;
    }
    return kUncontrollable;
  }

  /// Accessing `.f` on a value with this origin (depth-1 collapse).
  Origin member(const std::string& f) const {
    Origin o = *this;
    if (o.field.empty()) o.field = f;
    return o;
  }

  /// Paper rendering: "null", "this", "this.x", "init-param-2",
  /// "init-param-2.x".
  std::string to_string() const;

  /// Parse the to_string() form back (used by graph round-trips).
  static Origin parse(std::string_view text);
};

/// Picks the *more controllable* origin — the optimistic merge used at CFG
/// joins. This is deliberately path-insensitive: the paper attributes
/// Tabby's residual false positives to exactly this ("conditional execution
/// statements", §IV-C).
inline const Origin& merge(const Origin& a, const Origin& b) {
  return b.weight() < a.weight() ? b : a;
}

// --- Action (Table III) -----------------------------------------------------

/// Keys of an Action entry: "this", "this.x", "final-param-i",
/// "final-param-i.x", "return". Values are Origins in the callee's input
/// frame ("init-param-j" etc., "null" for uncontrollable).
struct Action {
  std::map<std::string, Origin> entries;

  bool operator==(const Action&) const = default;

  /// Identity summary for an `nargs`-parameter method: parameters keep their
  /// inputs, `this` stays `this`, the return value is unknown. Used for
  /// bodyless methods and as the bottom for recursive cycles.
  static Action identity(int nargs, bool is_static);

  void set(std::string key, Origin value) { entries[std::move(key)] = std::move(value); }

  /// Serialize as "key=value" strings (the graph stores Actions this way).
  std::vector<std::string> to_strings() const;
  static Action from_strings(const std::vector<std::string>& lines);

  std::string to_string() const;
};

inline std::string final_param_key(int i, const std::string& field = {}) {
  std::string key = "final-param-" + std::to_string(i);
  if (!field.empty()) key += "." + field;
  return key;
}
inline std::string this_key(const std::string& field = {}) {
  return field.empty() ? "this" : "this." + field;
}
inline constexpr std::string_view kReturnKey = "return";

// --- Polluted_Position ------------------------------------------------------

/// PP[0] = receiver weight (∞ for static calls), PP[i] = weight of argument
/// i. Stored on CALL edges as an int list.
using PollutedPosition = std::vector<Weight>;

// --- Formulas 2 and 3 -------------------------------------------------------

/// f_calc for one Action entry: Formula 2. The caller-frame weight of a
/// callee output whose callee-frame origin is `origin`, given the call
/// site's PP, which holds the caller-frame weights of the callee's inputs
/// (the paper's `in`): "this" weighs pp[0], "init-param-i" weighs pp[i] for
/// 1 <= i < pp.size(), and anything else is ∞. A field suffix inherits its
/// base input's weight: the caller controls the whole object graph of a
/// controllable input.
Weight calc(const Origin& origin, const PollutedPosition& pp);

std::string pp_to_string(const PollutedPosition& pp);

/// True when every position is ∞ — the PCG pruning criterion.
inline bool all_uncontrollable(const PollutedPosition& pp) {
  for (Weight w : pp) {
    if (is_controllable(w)) return false;
  }
  return true;
}

}  // namespace tabby::analysis
