#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.hpp"

namespace cmc::util {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

JsonObject& JsonObject::putSerialized(const std::string& key,
                                      std::string value) {
  if (!body_.empty()) body_ += ", ";
  body_ += '"';
  body_ += jsonEscape(key);
  body_ += "\": ";
  body_ += value;
  return *this;
}

JsonObject& JsonObject::put(const std::string& key, std::string_view value) {
  return putSerialized(key, '"' + jsonEscape(value) + '"');
}

JsonObject& JsonObject::putBool(const std::string& key, bool value) {
  return putSerialized(key, value ? "true" : "false");
}

JsonObject& JsonObject::putUint(const std::string& key, std::uint64_t value) {
  return putSerialized(key, std::to_string(value));
}

JsonObject& JsonObject::putDouble(const std::string& key, double value) {
  return putSerialized(key, jsonNumber(value));
}

JsonObject& JsonObject::putRaw(const std::string& key,
                               std::string_view json) {
  return putSerialized(key, std::string(json));
}

std::string JsonObject::str() const { return "{" + body_ + "}"; }

namespace {

void appendUtf8(std::uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

/// A member name that occurs twice, or nullptr.
const std::string* duplicateKey(const std::vector<std::string>& keys) {
  if (keys.size() < 2) return nullptr;
  std::vector<const std::string*> sorted;
  sorted.reserve(keys.size());
  for (const std::string& key : keys) sorted.push_back(&key);
  std::sort(sorted.begin(), sorted.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (*sorted[i] == *sorted[i - 1]) return sorted[i];
  }
  return nullptr;
}

}  // namespace

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  bool parse(JsonValue* out, std::string* error) {
    skipSpace();
    bool ok = value(out, 0);
    if (ok) {
      skipSpace();
      ok = at_ == s_.size() || fail("unexpected data after the value");
    }
    if (!ok && error != nullptr) *error = error_;
    return ok;
  }

 private:
  bool fail(const std::string& what) { return failAt(at_, what); }
  bool failAt(std::size_t at, const std::string& what) {
    error_ = what + " at byte " + std::to_string(at);
    return false;
  }

  void skipSpace() {
    while (at_ < s_.size() && (s_[at_] == ' ' || s_[at_] == '\t' ||
                               s_[at_] == '\n' || s_[at_] == '\r')) {
      ++at_;
    }
  }

  bool consume(char c) {
    if (at_ >= s_.size() || s_[at_] != c) return false;
    ++at_;
    return true;
  }

  /// One or more digits.
  bool digits() {
    const std::size_t start = at_;
    while (at_ < s_.size() && s_[at_] >= '0' && s_[at_] <= '9') ++at_;
    return at_ > start;
  }

  /// `depth` counts the objects and arrays enclosing this value.
  bool value(JsonValue* out, int depth) {
    if (at_ >= s_.size()) return fail("unexpected end of input");
    switch (s_[at_]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out->type_ = JsonValue::Type::String;
        return string(&out->text_);
      case 't':
        out->type_ = JsonValue::Type::Bool;
        out->bool_ = true;
        return literal("true");
      case 'f':
        out->type_ = JsonValue::Type::Bool;
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number(out);
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(at_, word.size()) != word) return fail("invalid literal");
    at_ += word.size();
    return true;
  }

  bool number(JsonValue* out) {
    const std::size_t start = at_;
    consume('-');
    if (!consume('0') && !digits()) return failAt(start, "invalid value");
    if (consume('.') && !digits()) return fail("digit expected");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return fail("digit expected");
    }
    out->type_ = JsonValue::Type::Number;
    out->text_.assign(s_.substr(start, at_ - start));
    return true;
  }

  bool hex4(std::uint32_t* out) {
    if (s_.size() - at_ < 4) return false;
    std::uint32_t code = 0;
    for (std::size_t k = 0; k < 4; ++k) {
      const char h = s_[at_ + k];
      int nibble = 0;
      if (h >= '0' && h <= '9') nibble = h - '0';
      else if (h >= 'a' && h <= 'f') nibble = h - 'a' + 10;
      else if (h >= 'A' && h <= 'F') nibble = h - 'A' + 10;
      else return false;
      code = (code << 4) | static_cast<std::uint32_t>(nibble);
    }
    at_ += 4;
    *out = code;
    return true;
  }

  /// One escape sequence; at_ is on the backslash.
  bool escape(std::string* out) {
    const std::size_t start = at_++;
    if (at_ >= s_.size()) return failAt(start, "truncated escape");
    switch (s_[at_++]) {
      case '"': out->push_back('"'); return true;
      case '\\': out->push_back('\\'); return true;
      case '/': out->push_back('/'); return true;
      case 'b': out->push_back('\b'); return true;
      case 'f': out->push_back('\f'); return true;
      case 'n': out->push_back('\n'); return true;
      case 'r': out->push_back('\r'); return true;
      case 't': out->push_back('\t'); return true;
      case 'u': break;
      default: return failAt(start, "invalid escape");
    }
    std::uint32_t code = 0;
    if (!hex4(&code)) return failAt(start, "truncated \\u escape");
    if (code >= 0xDC00 && code <= 0xDFFF) {
      return failAt(start, "lone surrogate");
    }
    if (code >= 0xD800 && code <= 0xDBFF) {
      std::uint32_t low = 0;
      if (s_.substr(at_, 2) != "\\u") return failAt(start, "lone surrogate");
      at_ += 2;
      if (!hex4(&low) || low < 0xDC00 || low > 0xDFFF) {
        return failAt(start, "lone surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    appendUtf8(code, out);
    return true;
  }

  /// A string literal; at_ is on the opening quote.
  bool string(std::string* out) {
    ++at_;
    out->clear();
    while (true) {
      const std::size_t run = at_;
      while (at_ < s_.size() && s_[at_] != '"' && s_[at_] != '\\' &&
             static_cast<unsigned char>(s_[at_]) >= 0x20) {
        ++at_;
      }
      out->append(s_.data() + run, at_ - run);
      if (at_ >= s_.size()) return fail("unterminated string");
      if (s_[at_] == '"') {
        ++at_;
        return true;
      }
      if (s_[at_] != '\\') return fail("raw control character in string");
      if (!escape(out)) return false;
    }
  }

  bool object(JsonValue* out, int depth) {
    const std::size_t start = at_++;
    if (depth > kMaxJsonDepth) {
      return failAt(start, "nesting deeper than " +
                               std::to_string(kMaxJsonDepth) + " levels");
    }
    out->type_ = JsonValue::Type::Object;
    skipSpace();
    if (consume('}')) return true;
    while (true) {
      if (at_ >= s_.size() || s_[at_] != '"') {
        return fail("member name expected");
      }
      out->keys_.emplace_back();
      if (!string(&out->keys_.back())) return false;
      skipSpace();
      if (!consume(':')) return fail("':' expected");
      skipSpace();
      out->members_.emplace_back();
      if (!value(&out->members_.back(), depth)) return false;
      skipSpace();
      if (consume('}')) break;
      if (!consume(',')) return fail("',' or '}' expected");
      skipSpace();
    }
    if (const std::string* dup = duplicateKey(out->keys_)) {
      return failAt(start, "duplicate member name \"" + jsonEscape(*dup) +
                               "\" in the object");
    }
    return true;
  }

  bool array(JsonValue* out, int depth) {
    const std::size_t start = at_++;
    if (depth > kMaxJsonDepth) {
      return failAt(start, "nesting deeper than " +
                               std::to_string(kMaxJsonDepth) + " levels");
    }
    out->type_ = JsonValue::Type::Array;
    skipSpace();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;  // checked, then dropped: arrays are not kept
      if (!value(&element, depth)) return false;
      skipSpace();
      if (consume(']')) return true;
      if (!consume(',')) return fail("',' or ']' expected");
      skipSpace();
    }
  }

  std::string_view s_;
  std::size_t at_ = 0;
  std::string error_;
};

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &members_[i];
  }
  return nullptr;
}

const JsonValue* JsonValue::member(std::string_view key, Type type,
                                   JsonField* field) const noexcept {
  const JsonValue* v = find(key);
  *field = v == nullptr        ? JsonField::Absent
           : v->type_ == type ? JsonField::Ok
                              : JsonField::WrongType;
  return *field == JsonField::Ok ? v : nullptr;
}

JsonField JsonValue::get(std::string_view key, std::string* out) const {
  JsonField field = JsonField::Absent;
  if (const JsonValue* v = member(key, Type::String, &field)) *out = v->text_;
  return field;
}

JsonField JsonValue::get(std::string_view key, std::uint64_t* out) const {
  JsonField field = JsonField::Absent;
  const JsonValue* v = member(key, Type::Number, &field);
  if (v != nullptr && !parseUint(v->text_, out)) return JsonField::WrongType;
  return field;
}

JsonField JsonValue::get(std::string_view key, double* out) const {
  JsonField field = JsonField::Absent;
  if (const JsonValue* v = member(key, Type::Number, &field)) {
    *out = std::strtod(v->text_.c_str(), nullptr);
  }
  return field;
}

JsonField JsonValue::get(std::string_view key, bool* out) const {
  JsonField field = JsonField::Absent;
  if (const JsonValue* v = member(key, Type::Bool, &field)) *out = v->bool_;
  return field;
}

bool parseJson(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue value;
  if (!JsonParser(text).parse(&value, error)) return false;
  *out = std::move(value);
  return true;
}

}  // namespace cmc::util
