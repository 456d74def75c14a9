#include "core/json.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace nectar::core {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json parse error at byte ") +
                             std::to_string(pos) + ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (pos >= text.size() || text[pos] != c) fail("unexpected character");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("bad \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Stats strings are ASCII; encode BMP code points as UTF-8.
          if (v < 0x80) {
            out += static_cast<char>(v);
          } else if (v < 0x800) {
            out += static_cast<char>(0xC0 | (v >> 6));
            out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (v >> 12));
            out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool is_double = false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c >= '0' && c <= '9') {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail("expected value");
    const std::string tok(text.substr(start, pos - start));
    try {
      if (is_double) return Json(std::stod(tok));
      return Json(static_cast<std::int64_t>(std::stoll(tok)));
    } catch (const std::exception&) {
      fail("bad number");
    }
  }
};

// The member of `prev` that pairs with member `i`, named `key`, of the
// walked object: the one at the same position if its name matches (the
// usual case: two documents of one shape), else the one of that name.
const Json* member_in(const Json* prev, std::size_t i, const std::string& key) {
  if (prev == nullptr || !prev->is_object()) return nullptr;
  const Json::Object& m = prev->members();
  if (i < m.size() && m[i].first == key) return &m[i].second;
  return prev->find(key);
}

void walk_scalars(const Json& v, const Json* prev, std::string& path,
                  const ScalarVisitor& fn) {
  const std::size_t len = path.size();
  if (v.is_array()) {
    const bool paired = prev != nullptr && prev->is_array();
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      path += '[' + std::to_string(i) + ']';
      walk_scalars(v.items()[i],
                   paired && i < prev->items().size() ? &prev->items()[i]
                                                      : nullptr,
                   path, fn);
      path.resize(len);
    }
  } else if (v.is_object()) {
    for (std::size_t i = 0; i < v.members().size(); ++i) {
      const auto& [key, member] = v.members()[i];
      if (len != 0) path += '.';
      path += key;
      walk_scalars(member, member_in(prev, i, key), path, fn);
      path.resize(len);
    }
  } else {
    const bool scalar =
        prev != nullptr && !prev->is_array() && !prev->is_object();
    fn(path, v, scalar ? prev : nullptr);
  }
}

}  // namespace

Json& Json::set(std::string_view key, Json value) {
  type_ = Type::kObject;
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::push_back(Json value) {
  type_ = Type::kArray;
  array_.push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kDouble: append_double(out, double_); break;
    case Type::kString: append_escaped(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out += ',';
        first = false;
        if (pretty) newline_pad(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        if (pretty) newline_pad(depth + 1);
        append_escaped(out, k);
        out += pretty ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      if (pretty) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing garbage");
  return v;
}

bool write_json_file(const std::string& path, const Json& j) {
  std::ofstream out(path);
  if (!out) return false;
  out << j.dump(2) << '\n';
  return out.good();
}

void for_each_scalar(const Json& doc, const Json* prev,
                     const ScalarVisitor& fn) {
  std::string path;
  walk_scalars(doc, prev, path, fn);
}

}  // namespace nectar::core
