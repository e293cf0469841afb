// Minimal JSON for the newline-delimited serve protocol (dlcirc serve).
//
// The protocol needs flat objects, arrays, strings, numbers, booleans and
// null — nothing that justifies an external dependency. Numbers keep their
// source lexeme: tag values are re-parsed by the semiring's own
// ParseSemiringValue, so "0.5" must survive verbatim rather than round-trip
// through a double. The protocol is ASCII (semiring values, fact names,
// lane ids): \uXXXX escapes are parsed for code points up to 0x7F — the
// range JsonEscape itself emits for control characters — so every line the
// writer produces re-parses with this parser (round-trip closure over bytes
// 0x00–0x7F). Escapes naming non-ASCII code points or UTF-16 surrogates are
// rejected with a clear error rather than decoded into multi-byte UTF-8.
//
// The parser is hardened against adversarial input, since `dlcirc serve`
// feeds it raw network-ish bytes:
//   * Nesting is capped at kMaxJsonDepth (64) containers. The grammar is
//     recursive (Value -> Object/Array -> Value), so without the cap a
//     request line of `[[[[...` recurses once per byte and overflows the
//     stack; at the cap the parser returns a normal parse error and the
//     serve loop answers it like any malformed line. The protocol itself
//     needs depth 3 (request object -> "set" array -> pair array).
//   * Numbers are validated against the exact RFC 8259 grammar:
//       -? ( 0 | [1-9][0-9]* ) ( "." [0-9]+ )? ( [eE] [+-]? [0-9]+ )?
//     A bare `-`, a `.` or exponent with no following digits (`1.`, `1e`,
//     `1e+`) and leading zeros (`01`, `-01.5`) are parse errors, not
//     accepted lexemes — the lexeme travels verbatim into semiring value
//     parsers, which must never see a non-JSON number.
#ifndef DLCIRC_SERVE_WIRE_H_
#define DLCIRC_SERVE_WIRE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/json.h"
#include "src/util/result.h"

namespace dlcirc {
namespace serve {

/// Maximum container (object/array) nesting ParseJson accepts; deeper input
/// is a parse error (see file comment).
inline constexpr int kMaxJsonDepth = 64;

/// One parsed JSON value. Strings hold their decoded text; numbers hold
/// their source lexeme (see file comment); kTrue/kFalse/kNull carry nothing.
struct JsonValue {
  enum class Kind { kNull, kTrue, kFalse, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  std::string text;                                     // kString / kNumber
  std::vector<JsonValue> items;                         // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  /// Member lookup (first match), or nullptr.
  const JsonValue* Find(std::string_view name) const;
};

/// Parses exactly one JSON value spanning the whole input (trailing
/// whitespace allowed). Errors carry a byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// The library's one escaper (src/util/json.h), under its protocol name.
using ::dlcirc::JsonEscape;

/// Serializes a JsonValue back to one-line JSON. Inverse of ParseJson over
/// the protocol's value space: ParseJson(WriteJson(v)) succeeds and is
/// value-equal to v for any v whose strings are bytes 0x00–0x7F (numbers
/// are emitted as their preserved source lexeme, so they survive verbatim).
std::string WriteJson(const JsonValue& v);

}  // namespace serve
}  // namespace dlcirc

#endif  // DLCIRC_SERVE_WIRE_H_
