#include "analysis/domain.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace tabby::analysis {

std::string weight_to_string(Weight w) {
  return is_controllable(w) ? std::to_string(w) : std::string("∞");
}

FieldNames::FieldNames(std::vector<std::string_view> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  // The element pseudo-field takes the place "[]" sorts to, ahead of a field
  // that is really named "[]".
  constexpr std::string_view kElement = "[]";
  auto at = std::lower_bound(names.begin(), names.end(), kElement);
  element_ = static_cast<FieldId>(at - names.begin()) + 1;
  names.insert(at, kElement);
  names_.reserve(names.size() + 1);
  names_.emplace_back();
  names_.insert(names_.end(), names.begin(), names.end());
}

FieldId FieldNames::find(std::string_view name) const {
  auto at = std::lower_bound(names_.begin() + 1, names_.end(), name);
  if (at - names_.begin() == element_) ++at;  // the pseudo-field has no name
  return at != names_.end() && *at == name ? static_cast<FieldId>(at - names_.begin()) : kNoField;
}

namespace {

/// Appends ".name" for a field id other than kNoField.
void append_field(std::string& out, const FieldNames& names, FieldId field) {
  if (field == kNoField) return;
  out += '.';
  out += names.name(field);
}

void append_origin(std::string& out, const Origin& origin, const FieldNames& names) {
  switch (origin.kind) {
    case Origin::Kind::Unknown:
      out += "null";
      return;
    case Origin::Kind::This:
      out += "this";
      break;
    case Origin::Kind::Param:
      out += "init-param-";
      out += std::to_string(origin.param);
      break;
  }
  append_field(out, names, origin.field);
}

void append_key(std::string& out, const ActionKey& key, const FieldNames& names) {
  switch (key.kind) {
    case ActionKey::Kind::FinalParam:
      out += "final-param-";
      out += std::to_string(key.param);
      break;
    case ActionKey::Kind::Return:
      out += "return";
      return;
    case ActionKey::Kind::This:
      out += "this";
      break;
  }
  append_field(out, names, key.field);
}

}  // namespace

std::string Origin::to_string(const FieldNames& names) const {
  std::string out;
  append_origin(out, *this, names);
  return out;
}

bool operator<(const ActionKey& a, const ActionKey& b) {
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.param != b.param && a.param < 10 && b.param < 10) return a.param < b.param;
  if (a.param != b.param) {
    // Decimal strings in byte order. When one is a prefix of the other, the
    // shorter key sorts first whatever follows it: '.' sorts below digits.
    char x[16], y[16];
    char* x_end = std::to_chars(x, x + sizeof x, a.param).ptr;
    char* y_end = std::to_chars(y, y + sizeof y, b.param).ptr;
    return std::string_view(x, static_cast<std::size_t>(x_end - x)) <
           std::string_view(y, static_cast<std::size_t>(y_end - y));
  }
  return a.field < b.field;
}

Action Action::identity(int nargs, bool is_static) {
  Action action;
  action.entries.reserve(static_cast<std::size_t>(nargs) + 2);
  for (int i = 1; i <= nargs; ++i) action.try_emplace(final_param_key(i), Origin::param_origin(i));
  action.try_emplace(kReturnKey, Origin::unknown());
  if (!is_static) action.try_emplace(this_key(), Origin::this_origin());
  return action;
}

std::pair<Origin*, bool> Action::try_emplace(const ActionKey& key, const Origin& value) {
  auto at = std::lower_bound(entries.begin(), entries.end(), key,
                             [](const Entry& e, const ActionKey& k) { return e.key < k; });
  if (at != entries.end() && at->key == key) return {&at->value, false};
  at = entries.insert(at, Entry{key, value});
  return {&at->value, true};
}

const Origin& Action::at(const ActionKey& key) const {
  auto it = std::lower_bound(entries.begin(), entries.end(), key,
                             [](const Entry& e, const ActionKey& k) { return e.key < k; });
  if (it == entries.end() || !(it->key == key)) throw std::out_of_range("Action::at: no such key");
  return it->value;
}

std::vector<std::string> Action::to_strings(const FieldNames& names) const {
  std::vector<std::string> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    std::string& line = out.emplace_back();
    append_key(line, e.key, names);
    line += '=';
    append_origin(line, e.value, names);
  }
  return out;
}

std::string Action::to_string(const FieldNames& names) const {
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) out += ", ";
    first = false;
    append_key(out, e.key, names);
    out += ": ";
    append_origin(out, e.value, names);
  }
  return out + "}";
}

Weight calc(const Origin& origin, const PollutedPosition& pp) {
  switch (origin.kind) {
    case Origin::Kind::Unknown:
      return kUncontrollable;
    case Origin::Kind::This:
      return pp.empty() ? kUncontrollable : pp[0];
    case Origin::Kind::Param:
      return origin.param >= 1 && static_cast<std::size_t>(origin.param) < pp.size()
                 ? pp[static_cast<std::size_t>(origin.param)]
                 : kUncontrollable;
  }
  return kUncontrollable;
}

std::string pp_to_string(const PollutedPosition& pp) {
  std::string out = "[";
  for (std::size_t i = 0; i < pp.size(); ++i) {
    if (i != 0) out += ",";
    out += weight_to_string(pp[i]);
  }
  return out + "]";
}

}  // namespace tabby::analysis
