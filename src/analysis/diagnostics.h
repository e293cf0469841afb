// Structured diagnostics: the one vocabulary every static-analysis surface
// in the repo speaks — parser errors (src/datalog/parser, src/lang), the
// program linter (src/analysis/lint.h), and the circuit verifier
// (src/analysis/verify.h).
//
// A Diagnostic is a machine-readable finding: a stable dotted code
// ("parse.unsafe-rule", "verify.topological-order"), a severity, an optional
// source span (1-based line/col; 0 = unknown), a one-line message, and an
// optional note carrying the elaboration or theorem reference. Renderers
// produce a deterministic text form (one finding per line, suitable for
// golden tests) and a deterministic JSON form (for CI consumers); ExitCode
// maps a finding list to the CI convention `dlcirc check` exits with.
//
// This module is a leaf: it depends on nothing but the standard library, so
// the parser layers underneath the AST can emit structured errors without
// an include cycle.
#ifndef DLCIRC_ANALYSIS_DIAGNOSTICS_H_
#define DLCIRC_ANALYSIS_DIAGNOSTICS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dlcirc {
namespace analysis {

/// A source position, 1-based; 0 means unknown (e.g. a whole-file finding
/// or a verifier finding with no source text at all).
struct Span {
  int line = 0;
  int col = 0;
  bool known() const { return line > 0; }
};

enum class Severity : uint8_t { kNote, kWarning, kError };

std::string_view SeverityName(Severity severity);

/// One finding. `code` is a stable dotted identifier, namespaced by the
/// producing surface: parse.* (syntax/safety), lint.* (program linter),
/// verify.* (plan/circuit invariants), snapshot.* (file-level problems).
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kError;
  Span span;
  std::string message;
  std::string note;  ///< optional elaboration, often a theorem reference
};

/// Counts by severity, for exit codes and summaries.
struct DiagnosticCounts {
  size_t errors = 0;
  size_t warnings = 0;
  size_t notes = 0;
};
DiagnosticCounts Count(const std::vector<Diagnostic>& diagnostics);

/// One finding per line (plus an indented `note:` line when present):
///
///   error[parse.unsafe-rule] line 3, col 1: unsafe rule ...
///     note: every head variable must occur in the body
///
/// Renders findings in input order — producers emit deterministically, so
/// the text is byte-identical across runs.
std::string RenderText(const std::vector<Diagnostic>& diagnostics);

/// Renders one finding (the text form's single line, without trailing '\n').
std::string RenderTextLine(const Diagnostic& diagnostic);

/// Deterministic JSON object:
///
///   {"diagnostics": [{"code": ..., "severity": ..., "line": N, "col": N,
///     "message": ..., "note": ...}, ...], "errors": N, "warnings": N}
///
/// line/col are omitted when unknown; note when empty. Key order is fixed.
std::string RenderJson(const std::vector<Diagnostic>& diagnostics);

/// CI convention: 0 = clean (notes allowed), 1 = at least one error,
/// 2 = warnings but no errors.
int ExitCode(const std::vector<Diagnostic>& diagnostics);

/// Legacy string form for Result<T> error channels: "line N, col M: message"
/// (span-less findings render as just "message"). Keeps the established
/// parser error shape while the structured form carries the same data.
std::string RenderLegacy(const Diagnostic& diagnostic);

}  // namespace analysis
}  // namespace dlcirc

#endif  // DLCIRC_ANALYSIS_DIAGNOSTICS_H_
