#include "ranycast/io/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ranycast::io {

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::int64_t Json::int_or(std::string_view key, std::int64_t fallback) const {
  const Json* v = find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return checked_integer<std::int64_t>(std::trunc(v->as_number())).value_or(fallback);
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string Json::string_or(std::string_view key, std::string fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::move(fallback);
}

std::string ConfigError::to_string() const {
  std::string out = file.empty() ? std::string("<config>") : file;
  if (offset != 0) {
    out += ":byte ";
    out += std::to_string(offset);
  }
  if (!field.empty()) {
    out += ": field '";
    out += field;
    out += "'";
  }
  out += ": ";
  out += message;
  return out;
}

ConfigError field_error(std::string_view file, std::string field, std::string message) {
  ConfigError err;
  err.file = std::string(file);
  err.field = std::move(field);
  err.message = std::move(message);
  return err;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<std::int64_t>(d));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, as_number());
  } else if (is_string()) {
    dump_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i) out.push_back(',');
      newline_indent(out, indent, depth + 1);
      arr[i].dump_to(out, indent, depth + 1);
    }
    if (!arr.empty()) newline_indent(out, indent, depth);
    out.push_back(']');
  } else {
    const auto& obj = as_object();
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline_indent(out, indent, depth + 1);
      dump_string(out, key);
      out.push_back(':');
      if (indent > 0) out.push_back(' ');
      value.dump_to(out, indent, depth + 1);
    }
    if (!obj.empty()) newline_indent(out, indent, depth);
    out.push_back('}');
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::variant<Json, JsonParseError> parse_document() {
    skip_ws();
    auto value = parse_value();
    if (error_) return *error_;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after document");
    return std::move(*value);
  }

 private:
  // The parser recurses per nesting level; a hostile document ("[[[[…")
  // would otherwise overflow the stack. 256 levels is far beyond any real
  // configuration and keeps worst-case stack usage bounded.
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) {
      if (++parser->depth_ > kMaxDepth) parser->fail("nesting exceeds 256 levels");
    }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  JsonParseError fail(std::string message) {
    if (!error_) error_ = JsonParseError{pos_, std::move(message)};
    return *error_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  std::optional<Json> parse_value() {
    if (error_) return std::nullopt;
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't') {
      if (consume_literal("true")) return Json(true);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 'f') {
      if (consume_literal("false")) return Json(false);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 'n') {
      if (consume_literal("null")) return Json(nullptr);
      fail("invalid literal");
      return std::nullopt;
    }
    return parse_number();
  }

  std::optional<Json> parse_number() {
    double value = 0.0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [next, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{}) {
      fail("invalid number");
      return std::nullopt;
    }
    pos_ += static_cast<std::size_t>(next - begin);
    return Json(value);
  }

  std::optional<Json> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Json(std::move(out));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          const auto [next, ec] = std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4,
                                                  code, 16);
          if (ec != std::errc{} || next != text_.data() + pos_ + 4) {
            fail("invalid \\u escape");
            return std::nullopt;
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs unsupported:
          // config files do not need them).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("invalid escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    const DepthGuard guard(this);
    if (error_) return std::nullopt;
    JsonArray out;
    skip_ws();
    if (consume(']')) return Json(std::move(out));
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push_back(std::move(*value));
      skip_ws();
      if (consume(']')) return Json(std::move(out));
      if (!consume(',')) {
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    const DepthGuard guard(this);
    if (error_) return std::nullopt;
    JsonObject out;
    skip_ws();
    if (consume('}')) return Json(std::move(out));
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      auto key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after key");
        return std::nullopt;
      }
      skip_ws();
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.emplace(key->as_string(), std::move(*value));
      skip_ws();
      if (consume('}')) return Json(std::move(out));
      if (!consume(',')) {
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
  int depth_{0};
  std::optional<JsonParseError> error_;
};

}  // namespace

std::variant<Json, JsonParseError> parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

Json parse_json_or_throw(std::string_view text) {
  auto result = parse_json(text);
  if (const auto* error = std::get_if<JsonParseError>(&result)) {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(error->position) +
                             ": " + error->message);
  }
  return std::move(std::get<Json>(result));
}

}  // namespace ranycast::io
