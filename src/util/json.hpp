// JSON for every cmc wire and disk line: the writer behind trace events,
// reports, journal and cache-store lines and protocol messages, and the one
// strict reader every wire and disk reader parses those lines with.
//
// Writer.  JsonObject is a deliberately tiny builder: insertion-ordered
// keys, no nesting except through putRaw(), everything serialized eagerly.
// The repo has no JSON dependency, and its output is flat enough not to
// want one.
//
// Reader.  parseJson is a recursive-descent RFC 8259 parser that reads a
// line once.  Whitespace may appear wherever the RFC allows it.  It
// rejects, naming the byte offset: a syntax error or anything but
// whitespace after the value; a raw control character inside a string; a
// lone surrogate escape; a duplicate member name; and nesting deeper than
// kMaxJsonDepth.  \uXXXX escapes decode to UTF-8 (surrogate pairs
// combined); raw bytes >= 0x80 pass through unvalidated, so every line a
// cmc writer has emitted reads back.  Numbers keep their lexeme and the
// typed getters decide what they accept.  Objects keep their members;
// arrays are checked but not kept, because no cmc reader needs one, so a
// long array costs no memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cmc::util {

/// Escape a string for inclusion in a JSON string literal.
std::string jsonEscape(std::string_view s);

/// Serialize a double the way JSON wants it (no inf/nan, %g precision).
std::string jsonNumber(double value);

class JsonObject {
 public:
  JsonObject& put(const std::string& key, std::string_view value);
  JsonObject& put(const std::string& key, const char* value) {
    return put(key, std::string_view(value));
  }
  JsonObject& putBool(const std::string& key, bool value);
  JsonObject& putUint(const std::string& key, std::uint64_t value);
  JsonObject& putDouble(const std::string& key, double value);
  /// Insert a pre-serialized JSON value (object, array, ...) verbatim.
  JsonObject& putRaw(const std::string& key, std::string_view json);

  /// The serialized object, e.g. {"event": "job_start", "t": 0.01}.
  std::string str() const;

 private:
  JsonObject& putSerialized(const std::string& key, std::string value);

  std::string body_;  ///< comma-joined "key": value pairs
};

/// Deepest nesting of objects and arrays the reader accepts.
constexpr int kMaxJsonDepth = 64;

/// What a typed member read found.
enum class JsonField {
  Absent,     ///< no such member (or the value is not an object)
  Ok,         ///< present with the asked-for type; the output is written
  WrongType,  ///< present with another type; the output is untouched
};

/// One parsed JSON value.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Type type() const noexcept { return type_; }
  bool isObject() const noexcept { return type_ == Type::Object; }

  /// The member named `key` of an object, or nullptr.
  const JsonValue* find(std::string_view key) const noexcept;

  /// Typed member reads.  A string reads its decoded bytes.  An integer
  /// is only 0|[1-9][0-9]* up to UINT64_MAX: no sign, fraction or
  /// exponent.  A double is any JSON number.  A bool is true or false.
  JsonField get(std::string_view key, std::string* out) const;
  JsonField get(std::string_view key, std::uint64_t* out) const;
  JsonField get(std::string_view key, double* out) const;
  JsonField get(std::string_view key, bool* out) const;

  /// A required member: present with the asked-for type.
  template <typename T>
  bool req(std::string_view key, T* out) const {
    return get(key, out) == JsonField::Ok;
  }
  /// An optional member: absent (*out untouched) or of the asked-for type.
  template <typename T>
  bool opt(std::string_view key, T* out) const {
    return get(key, out) != JsonField::WrongType;
  }

 private:
  friend class JsonParser;

  const JsonValue* member(std::string_view key, Type type,
                          JsonField* field) const noexcept;

  Type type_ = Type::Null;
  bool bool_ = false;
  std::string text_;                ///< String: decoded bytes; Number: lexeme
  std::vector<std::string> keys_;   ///< Object member names, in order
  std::vector<JsonValue> members_;  ///< Object member values
};

/// Parse one JSON text.  False with "<what> at byte N" in *error (when
/// non-null) on anything the reader rejects (see the header comment).
bool parseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace cmc::util
