#include "src/analysis/verify.h"

#include <string>
#include <vector>

#include "src/pipeline/session.h"

namespace dlcirc {
namespace analysis {

namespace {

/// Collects error findings up to kMaxFindings, then records one truncation
/// note.
class Reporter {
 public:
  void Error(const char* code, std::string message, std::string note = {}) {
    if (findings_.size() >= kMaxFindings) {
      if (!truncated_) {
        truncated_ = true;
        findings_.push_back({"verify.truncated", Severity::kNote, {},
                             "more findings suppressed (cap " +
                                 std::to_string(kMaxFindings) + ")",
                             {}});
      }
      return;
    }
    findings_.push_back(
        {code, Severity::kError, {}, std::move(message), std::move(note)});
  }

  std::vector<Diagnostic> Take() { return std::move(findings_); }

 private:
  std::vector<Diagnostic> findings_;
  bool truncated_ = false;
};

}  // namespace

std::vector<Diagnostic> VerifyCircuitParts(const std::vector<Gate>& gates,
                                           const std::vector<GateId>& outputs,
                                           uint32_t num_vars) {
  Reporter report;
  const auto gate = [](size_t i) { return "gate " + std::to_string(i); };
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    switch (g.kind) {
      case GateKind::kZero:
      case GateKind::kOne:
        break;
      case GateKind::kInput:
        if (g.a >= num_vars) {
          report.Error("verify.input-var-range",
                       gate(i) + ": input variable x" + std::to_string(g.a) +
                           " out of range (num_vars " +
                           std::to_string(num_vars) + ")");
        }
        break;
      case GateKind::kPlus:
      case GateKind::kTimes:
        if (g.a >= i || g.b >= i) {
          report.Error(
              "verify.topological-order",
              gate(i) + ": child gate " + std::to_string(g.a >= i ? g.a : g.b) +
                  " does not precede its parent (children must be strictly "
                  "earlier in topological order)");
        }
        break;
      default:
        report.Error("verify.gate-kind",
                     gate(i) + ": invalid gate kind " +
                         std::to_string(static_cast<int>(g.kind)));
        break;
    }
  }
  for (GateId o : outputs) {
    if (o >= gates.size()) {
      report.Error("verify.slot-bounds",
                   "circuit output gate " + std::to_string(o) +
                       " out of range (arena size " +
                       std::to_string(gates.size()) + ")");
    }
  }
  return report.Take();
}

std::vector<Diagnostic> VerifyCircuit(const Circuit& circuit) {
  return VerifyCircuitParts(circuit.gates(), circuit.outputs(),
                            circuit.num_vars());
}

std::vector<Diagnostic> VerifyPlanKey(const pipeline::PlanKey& key) {
  using pipeline::Construction;
  Reporter report;
  switch (key.construction) {
    case Construction::kGrounded:
      break;
    case Construction::kUvg:
      if (!(key.absorptive && key.plus_idempotent)) {
        report.Error("verify.semiring-precondition",
                     "UVG plan keyed without the absorptive flags",
                     "the UVG construction (Theorem 6.2) is only sound over "
                     "absorptive semirings");
      }
      break;
    case Construction::kFiniteRpq:
      if (!key.plus_idempotent) {
        report.Error("verify.semiring-precondition",
                     "finite-RPQ plan keyed without plus-idempotence",
                     "Theorem 5.8 sums once per word; only plus-idempotent "
                     "semirings collapse the per-derivation difference");
      }
      break;
    case Construction::kBounded:
      if (!key.plus_idempotent && !(key.absorptive && key.times_idempotent)) {
        report.Error("verify.semiring-precondition",
                     "bounded plan keyed without plus-idempotence or the "
                     "absorptive x-idempotent pair",
                     "the Theorem 4.3 truncation is sound over plus-idempotent "
                     "semirings (chain-exact bounds) or absorptive "
                     "times-idempotent ones (Corollary 4.7)");
      }
      break;
    case Construction::kBellmanFord:
    case Construction::kRepeatedSquaring:
      if (!key.absorptive) {
        report.Error("verify.semiring-precondition",
                     "path-construction plan keyed without absorption",
                     "Theorems 5.6/5.7 sum over walks up to a layer bound; "
                     "only absorptive semirings collapse the longer walks");
      }
      break;
    default:
      report.Error("verify.construction",
                   "unknown construction " +
                       std::to_string(static_cast<int>(key.construction)));
      break;
  }
  return report.Take();
}

bool Clean(const std::vector<Diagnostic>& diagnostics) {
  return FirstError(diagnostics) == nullptr;
}

const Diagnostic* FirstError(const std::vector<Diagnostic>& diagnostics) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) return &d;
  }
  return nullptr;
}

}  // namespace analysis
}  // namespace dlcirc
