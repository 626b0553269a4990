#include "robust/obs/json_lite.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace robust::obs::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::Object) {
    return nullptr;
  }
  for (const auto& [name, value] : object) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    Value v = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after the document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error("json: " + message + " at byte " +
                             std::to_string(pos_));
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + peek() + "'");
    }
    ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Value parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.string = parseString();
        return v;
      }
      case 't':
        if (consumeLiteral("true")) {
          Value v;
          v.kind = Value::Kind::Bool;
          v.boolean = true;
          return v;
        }
        fail("invalid literal");
      case 'f':
        if (consumeLiteral("false")) {
          Value v;
          v.kind = Value::Kind::Bool;
          v.boolean = false;
          return v;
        }
        fail("invalid literal");
      case 'n':
        if (consumeLiteral("null")) {
          return Value{};
        }
        fail("invalid literal");
      default:
        return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Value v;
    v.kind = Value::Kind::Object;
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      v.object.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parseArray() {
    expect('[');
    Value v;
    v.kind = Value::Kind::Array;
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          // strtol would accept signs and leading whitespace; require four
          // literal hex digits so "\u-12f" is rejected, not mangled.
          unsigned code = 0;
          for (std::size_t i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            if (std::isxdigit(static_cast<unsigned char>(h)) == 0) {
              fail("invalid \\u escape");
            }
            const unsigned digit =
                h <= '9' ? static_cast<unsigned>(h - '0')
                         : static_cast<unsigned>((h | 0x20) - 'a') + 10;
            code = code * 16 + digit;
          }
          if (code >= 0xd800 && code <= 0xdfff) {
            // Surrogate halves never appear in this library's writers
            // (they escape only control bytes); pairs are out of scope.
            fail("surrogate \\u escapes are not supported by this reader");
          }
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          pos_ += 4;
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number '" + token + "'");
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.number = parsed;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

Value parse(std::string_view text) { return Parser(text).parseDocument(); }

Value parseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("json: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace robust::obs::json
