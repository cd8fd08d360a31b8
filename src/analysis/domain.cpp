#include "analysis/domain.hpp"

#include <cstdlib>

namespace tabby::analysis {

std::string weight_to_string(Weight w) {
  return is_controllable(w) ? std::to_string(w) : std::string("∞");
}

std::string Origin::to_string() const {
  std::string base;
  switch (kind) {
    case Kind::Unknown:
      return "null";
    case Kind::This:
      base = "this";
      break;
    case Kind::Param:
      base = "init-param-" + std::to_string(param);
      break;
  }
  if (!field.empty()) base += "." + field;
  return base;
}

Origin Origin::parse(std::string_view text) {
  if (text == "null" || text.empty()) return unknown();
  std::string field;
  // Split a trailing ".field" unless the dot belongs to "init-param-i".
  auto split_field = [&](std::string_view head_prefix) -> std::string_view {
    std::string_view rest = text.substr(head_prefix.size());
    std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos) return rest;
    field = std::string(rest.substr(dot + 1));
    return rest.substr(0, dot);
  };
  if (util::starts_with(text, "init-param-")) {
    std::string_view num = split_field("init-param-");
    return param_origin(std::atoi(std::string(num).c_str()), std::move(field));
  }
  if (util::starts_with(text, "this")) {
    if (text == "this") return this_origin();
    if (text.size() > 5 && text[4] == '.') return this_origin(std::string(text.substr(5)));
  }
  return unknown();
}

Action Action::identity(int nargs, bool is_static) {
  Action action;
  if (!is_static) action.set("this", Origin::this_origin());
  for (int i = 1; i <= nargs; ++i) action.set(final_param_key(i), Origin::param_origin(i));
  action.set(std::string(kReturnKey), Origin::unknown());
  return action;
}

std::vector<std::string> Action::to_strings() const {
  std::vector<std::string> out;
  out.reserve(entries.size());
  for (const auto& [key, value] : entries) out.push_back(key + "=" + value.to_string());
  return out;
}

Action Action::from_strings(const std::vector<std::string>& lines) {
  Action action;
  for (const std::string& line : lines) {
    std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    action.set(line.substr(0, eq), Origin::parse(std::string_view(line).substr(eq + 1)));
  }
  return action;
}

std::string Action::to_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : entries) {
    if (!first) out += ", ";
    first = false;
    out += key + ": " + value.to_string();
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
