// JSON string escaping: the one escaper behind every JSON writer in the
// library (serve wire responses, explain objects, planner trees, analysis
// diagnostics, Chrome traces, and the CLI's json output). Dependency-free,
// so src/obs can use it too.
#ifndef DLCIRC_UTIL_JSON_H_
#define DLCIRC_UTIL_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace dlcirc {

/// Escapes `s` for embedding in a JSON string literal (quotes not
/// included). RFC 8259: every control character below 0x20 must be escaped,
/// so `"`, `\`, `\n`, `\r` and `\t` get their short forms and the rest
/// `\u00XX` — a tab in a vertex name or a decoded `\b` in a lane name would
/// otherwise re-emit as a raw byte and make the output invalid JSON.
inline std::string JsonEscape(std::string_view s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace dlcirc

#endif  // DLCIRC_UTIL_JSON_H_
