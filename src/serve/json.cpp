#include "serve/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

namespace tabby::serve {

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string Json::str(std::string_view key, std::string fallback) const {
  const Json* value = find(key);
  if (value == nullptr || value->kind_ != Kind::String) return fallback;
  return value->string_;
}

double Json::num(std::string_view key, double fallback) const {
  const Json* value = find(key);
  if (value == nullptr || value->kind_ != Kind::Number) return fallback;
  return value->number_;
}

bool Json::flag(std::string_view key, bool fallback) const {
  const Json* value = find(key);
  if (value == nullptr || value->kind_ != Kind::Bool) return fallback;
  return value->bool_;
}

std::vector<std::string> Json::strings(std::string_view key) const {
  std::vector<std::string> out;
  const Json* value = find(key);
  if (value == nullptr || value->kind_ != Kind::Array) return out;
  for (const Json& item : value->items_) {
    if (item.kind_ == Kind::String) out.push_back(item.string_);
  }
  return out;
}

Json& Json::set(std::string key, Json value) {
  kind_ = Kind::Object;
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  kind_ = Kind::Array;
  items_.push_back(std::move(value));
  return *this;
}

namespace {

void escape_into(const std::string& text, std::string& out) {
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_into(double value, std::string& out) {
  // Protocol numbers are counts and byte sizes: emit integers without a
  // decimal point so responses are deterministic and grep-able.
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    out += std::to_string(static_cast<long long>(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::Null: out = "null"; break;
    case Kind::Bool: out = bool_ ? "true" : "false"; break;
    case Kind::Number: number_into(number_, out); break;
    case Kind::String: escape_into(string_, out); break;
    case Kind::Array: {
      out = "[";
      bool first = true;
      for (const Json& item : items_) {
        if (!first) out += ',';
        first = false;
        out += item.dump();
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out = "{";
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) out += ',';
        first = false;
        escape_into(name, out);
        out += ':';
        out += value.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

namespace {

/// Deepest nesting of arrays and objects a document may have. The parser
/// recurses per level, so a deeper line fails to parse instead of
/// overflowing the stack of the thread parsing it. The protocol nests 2
/// levels deep and the dist payloads 4.
constexpr int kMaxNesting = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> value = parse_value();
    if (!value) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing junk
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    std::string_view w(word);
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return std::nullopt;
            }
            pos_ += 4;
            // The protocol only escapes control characters; anything else
            // round-trips as UTF-8 bytes already.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return std::nullopt;
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  /// `depth` counts the arrays and objects enclosing the value.
  std::optional<Json> parse_value(int depth = 0) {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if ((c == '{' || c == '[') && depth == kMaxNesting) return std::nullopt;
    if (c == '{') {
      ++pos_;
      Json value = Json::object();
      if (eat('}')) return value;
      while (true) {
        skip_ws();
        auto key = parse_string();
        if (!key || !eat(':')) return std::nullopt;
        auto member = parse_value(depth + 1);
        if (!member) return std::nullopt;
        value.set(std::move(*key), std::move(*member));
        if (eat(',')) continue;
        if (eat('}')) return value;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      Json value = Json::array();
      if (eat(']')) return value;
      while (true) {
        auto element = parse_value(depth + 1);
        if (!element) return std::nullopt;
        value.push(std::move(*element));
        if (eat(',')) continue;
        if (eat(']')) return value;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json::string(std::move(*s));
    }
    if (literal("true")) return Json::boolean(true);
    if (literal("false")) return Json::boolean(false);
    if (literal("null")) return Json();
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    try {
      return Json::number(std::stod(std::string(text_.substr(start, pos_ - start))));
    } catch (...) {
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) { return Parser(text).parse(); }

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return value;
}

}  // namespace tabby::serve
