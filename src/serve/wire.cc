#include "src/serve/wire.h"

#include <cctype>

namespace dlcirc {
namespace serve {

const JsonValue* JsonValue::Find(std::string_view name) const {
  for (const auto& [key, value] : members) {
    if (key == name) return &value;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    if (!Value(&v)) return Error();
    SkipSpace();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after JSON value";
      return Error();
    }
    return v;
  }

 private:
  Result<JsonValue> Error() const {
    return Result<JsonValue>::Error("JSON error at byte " +
                                    std::to_string(pos_) + ": " + error_);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      error_ = "unexpected end of input";
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object(out);
      case '[':
        return Array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return String(&out->text);
      case 't':
        out->kind = JsonValue::Kind::kTrue;
        if (Literal("true")) return true;
        error_ = "bad literal";
        return false;
      case 'f':
        out->kind = JsonValue::Kind::kFalse;
        if (Literal("false")) return true;
        error_ = "bad literal";
        return false;
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        if (Literal("null")) return true;
        error_ = "bad literal";
        return false;
      default:
        return Number(out);
    }
  }

  /// Depth guard for Object/Array: the grammar recurses through Value, so
  /// container depth bounds stack depth. Callers must pair a successful
  /// Descend with --depth_ on their success paths (error paths abort the
  /// whole parse, where a stale counter is unobservable).
  bool Descend() {
    if (depth_ >= kMaxJsonDepth) {
      error_ = "nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " containers";
      return false;
    }
    ++depth_;
    return true;
  }

  bool Object(JsonValue* out) {
    if (!Descend()) return false;
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !String(&key)) {
        error_ = "expected object key string";
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        error_ = "expected ':' after object key";
        return false;
      }
      ++pos_;
      JsonValue value;
      if (!Value(&value)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) {
        error_ = "unterminated object";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        --depth_;
        return true;
      }
      error_ = "expected ',' or '}' in object";
      return false;
    }
  }

  bool Array(JsonValue* out) {
    if (!Descend()) return false;
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!Value(&item)) return false;
      out->items.push_back(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) {
        error_ = "unterminated array";
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        --depth_;
        return true;
      }
      error_ = "expected ',' or ']' in array";
      return false;
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (!UnicodeEscape(out)) return false;
            break;
          }
          default:
            error_ = "unsupported string escape";
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    error_ = "unterminated string";
    return false;
  }

  // \uXXXX, with the leading "\u" already consumed. The protocol is ASCII,
  // so only code points <= 0x7F decode (that covers everything JsonEscape
  // emits); surrogates and non-ASCII code points are errors, not UTF-8.
  bool UnicodeEscape(std::string* out) {
    if (text_.size() - pos_ < 4) {
      error_ = "truncated \\u escape (need 4 hex digits)";
      return false;
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_ + i];
      unsigned digit;
      if (h >= '0' && h <= '9') {
        digit = h - '0';
      } else if (h >= 'a' && h <= 'f') {
        digit = h - 'a' + 10;
      } else if (h >= 'A' && h <= 'F') {
        digit = h - 'A' + 10;
      } else {
        error_ = "bad hex digit in \\u escape";
        return false;
      }
      code = code * 16 + digit;
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      error_ = "UTF-16 surrogates are not supported (the protocol is ASCII)";
      return false;
    }
    if (code > 0x7F) {
      error_ = "\\u escapes above U+007F are not supported (ASCII protocol)";
      return false;
    }
    pos_ += 4;
    out->push_back(static_cast<char>(code));
    return true;
  }

  size_t Digits() {
    size_t n = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      ++n;
    }
    return n;
  }

  // RFC 8259: -? ( 0 | [1-9][0-9]* ) frac? exp?. The lexeme is forwarded
  // verbatim to semiring value parsers, so anything the RFC rejects must be
  // a parse error here, not a best-effort prefix.
  bool Number(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    size_t int_start = pos_;
    if (Digits() == 0) {
      error_ = "expected a value";
      pos_ = start;
      return false;
    }
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      error_ = "leading zeros are not allowed in numbers";
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (Digits() == 0) {
        error_ = "expected digits after '.' in number";
        return false;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (Digits() == 0) {
        error_ = "expected digits in number exponent";
        return false;
      }
    }
    out->kind = JsonValue::Kind::kNumber;
    out->text = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_ = "invalid JSON";
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

namespace {

void WriteValue(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kTrue:
      *out += "true";
      return;
    case JsonValue::Kind::kFalse:
      *out += "false";
      return;
    case JsonValue::Kind::kNumber:
      *out += v.text;  // preserved source lexeme (see file comment)
      return;
    case JsonValue::Kind::kString:
      out->push_back('"');
      *out += JsonEscape(v.text);
      out->push_back('"');
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items) {
        if (!first) out->push_back(',');
        first = false;
        WriteValue(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        *out += JsonEscape(key);
        *out += "\":";
        WriteValue(value, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

std::string WriteJson(const JsonValue& v) {
  std::string out;
  WriteValue(v, &out);
  return out;
}

}  // namespace serve
}  // namespace dlcirc
