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
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tabby::analysis {

using Weight = std::int64_t;

/// The paper's ∞. Large sentinel rather than a separate variant so weight
/// comparison ("more controllable" = smaller) stays a plain <.
inline constexpr Weight kUncontrollable = 1'000'000'000;

inline bool is_controllable(Weight w) { return w < kUncontrollable; }

/// Human-readable weight ("∞" for uncontrollable) used in dumps and tests.
std::string weight_to_string(Weight w);

// --- Field names --------------------------------------------------------------

/// A field name's id in one FieldNames table. kNoField means "no field".
using FieldId = std::uint32_t;
inline constexpr FieldId kNoField = 0;

/// The field names one analysis can meet, numbered in the byte order of the
/// names: comparing two ids compares the names, so Action keys ordered by id
/// are ordered exactly as their renderings are by bytes. Besides the named
/// fields it holds the array-element pseudo-field, which renders "[]" but is
/// an id of its own, so a field that is really named "[]" stays a different
/// field.
class FieldNames {
 public:
  FieldNames() : FieldNames(std::vector<std::string_view>{}) {}
  /// Numbers the distinct `names`. The views must outlive the table.
  explicit FieldNames(std::vector<std::string_view> names);

  /// The id of the field `name`; kNoField when the table does not hold it.
  FieldId find(std::string_view name) const;
  /// The array-element pseudo-field.
  FieldId element() const { return element_; }
  std::string_view name(FieldId id) const { return names_[id]; }

 private:
  std::vector<std::string_view> names_;  // by id; names_[kNoField] is unused
  FieldId element_ = kNoField;
};

// --- Origins ------------------------------------------------------------------

/// Where a value came from, relative to the *enclosing method's* inputs.
/// Field sensitivity is one level deep, exactly like the paper's examples
/// (init-param-1.b etc.); deeper accesses collapse onto the first field.
struct Origin {
  enum class Kind : std::uint8_t { Unknown, This, Param };

  Kind kind = Kind::Unknown;
  int param = 0;              // 1-based, Kind::Param only
  FieldId field = kNoField;   // optional single field suffix

  bool operator==(const Origin&) const = default;

  static Origin unknown() { return {}; }
  static Origin this_origin(FieldId field = kNoField) { return Origin{Kind::This, 0, field}; }
  static Origin param_origin(int index_1_based, FieldId field = kNoField) {
    return Origin{Kind::Param, index_1_based, field};
  }

  /// Table V weight of this origin.
  Weight weight() const {
    switch (kind) {
      case Kind::Unknown: return kUncontrollable;
      case Kind::This: return 0;
      case Kind::Param: return param;
    }
    return kUncontrollable;
  }

  /// Accessing `.f` on a value with this origin (depth-1 collapse). An
  /// unknown origin stays plain unknown: a field would neither weigh nor
  /// render differently.
  Origin member(FieldId f) const {
    Origin o = *this;
    if (o.kind != Kind::Unknown && o.field == kNoField) o.field = f;
    return o;
  }

  /// Paper rendering: "null", "this", "this.x", "init-param-2",
  /// "init-param-2.x".
  std::string to_string(const FieldNames& names) const;
};

/// Picks the *more controllable* origin — the optimistic merge used at CFG
/// joins. This is deliberately path-insensitive: the paper attributes
/// Tabby's residual false positives to exactly this ("conditional execution
/// statements", §IV-C).
inline const Origin& merge(const Origin& a, const Origin& b) {
  return b.weight() < a.weight() ? b : a;
}

// --- Action (Table III) -----------------------------------------------------

/// Key of an Action entry, rendered "final-param-i", "final-param-i.x",
/// "return", "this" or "this.x".
struct ActionKey {
  /// In the byte order of the renderings' heads.
  enum class Kind : std::uint8_t { FinalParam, Return, This };

  Kind kind = Kind::Return;
  int param = 0;             // 1-based, Kind::FinalParam only
  FieldId field = kNoField;  // Kind::FinalParam and Kind::This only

  bool operator==(const ActionKey&) const = default;
};

/// The byte order of the renderings: "final-param-1" < "final-param-1.x" <
/// "final-param-10" < "final-param-2" < "return" < "this" < "this.x".
bool operator<(const ActionKey& a, const ActionKey& b);

inline ActionKey final_param_key(int i, FieldId field = kNoField) {
  return {ActionKey::Kind::FinalParam, i, field};
}
inline ActionKey this_key(FieldId field = kNoField) { return {ActionKey::Kind::This, 0, field}; }
inline constexpr ActionKey kReturnKey{ActionKey::Kind::Return, 0, kNoField};

/// A method summary: for each key, an Origin in the callee's input frame
/// ("init-param-j" etc., "null" for uncontrollable).
struct Action {
  struct Entry {
    ActionKey key;
    Origin value;

    bool operator==(const Entry&) const = default;
  };

  /// Sorted by key, one entry per key. A caller folds them in this order,
  /// and the frame lists them in it.
  std::vector<Entry> entries;

  bool operator==(const Action&) const = default;

  /// Identity summary for an `nargs`-parameter method: parameters keep their
  /// inputs, `this` stays `this`, the return value is unknown. Used for
  /// bodyless methods and as the bottom for recursive cycles.
  static Action identity(int nargs, bool is_static);

  /// The value at `key`, inserted as `value` when absent; the flag says
  /// whether it was inserted.
  std::pair<Origin*, bool> try_emplace(const ActionKey& key, const Origin& value);
  void set(const ActionKey& key, const Origin& value) { *try_emplace(key, value).first = value; }

  /// The value at `key`; throws std::out_of_range when absent.
  const Origin& at(const ActionKey& key) const;

  /// Serialize as "key=value" strings (the graph stores Actions this way).
  std::vector<std::string> to_strings(const FieldNames& names) const;
  std::string to_string(const FieldNames& names) const;
};

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
