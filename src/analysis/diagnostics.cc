#include "src/analysis/diagnostics.h"

#include <sstream>

#include "src/util/json.h"

namespace dlcirc {
namespace analysis {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

DiagnosticCounts Count(const std::vector<Diagnostic>& diagnostics) {
  DiagnosticCounts counts;
  for (const Diagnostic& d : diagnostics) {
    switch (d.severity) {
      case Severity::kError:
        ++counts.errors;
        break;
      case Severity::kWarning:
        ++counts.warnings;
        break;
      case Severity::kNote:
        ++counts.notes;
        break;
    }
  }
  return counts;
}

std::string RenderTextLine(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << SeverityName(diagnostic.severity) << "[" << diagnostic.code << "]";
  if (diagnostic.span.known()) {
    out << " line " << diagnostic.span.line;
    if (diagnostic.span.col > 0) out << ", col " << diagnostic.span.col;
  }
  out << ": " << diagnostic.message;
  return out.str();
}

std::string RenderText(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << RenderTextLine(d) << "\n";
    if (!d.note.empty()) out << "  note: " << d.note << "\n";
  }
  return out.str();
}

std::string RenderJson(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "{\"diagnostics\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out << ", ";
    out << "{\"code\": \"" << JsonEscape(d.code) << "\", \"severity\": \""
        << SeverityName(d.severity) << "\"";
    if (d.span.known()) {
      out << ", \"line\": " << d.span.line;
      if (d.span.col > 0) out << ", \"col\": " << d.span.col;
    }
    out << ", \"message\": \"" << JsonEscape(d.message) << "\"";
    if (!d.note.empty()) out << ", \"note\": \"" << JsonEscape(d.note) << "\"";
    out << "}";
  }
  const DiagnosticCounts counts = Count(diagnostics);
  out << "], \"errors\": " << counts.errors
      << ", \"warnings\": " << counts.warnings << "}";
  return out.str();
}

int ExitCode(const std::vector<Diagnostic>& diagnostics) {
  const DiagnosticCounts counts = Count(diagnostics);
  if (counts.errors > 0) return 1;
  if (counts.warnings > 0) return 2;
  return 0;
}

std::string RenderLegacy(const Diagnostic& diagnostic) {
  if (!diagnostic.span.known()) return diagnostic.message;
  std::string out = "line " + std::to_string(diagnostic.span.line);
  if (diagnostic.span.col > 0) {
    out += ", col " + std::to_string(diagnostic.span.col);
  }
  return out + ": " + diagnostic.message;
}

}  // namespace analysis
}  // namespace dlcirc
