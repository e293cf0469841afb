// Circuit verifier: every structural invariant EvalPlan::Build and the
// Circuit constructor rely on, checked as recoverable diagnostics instead of
// CHECK-aborts, plus the per-construction semiring preconditions of a
// PlanKey.
//
// Three consumers share these checks:
//   1. Debug builds re-verify the circuit after every optimizer pass
//      (Session::Compile wires a PassObserver naming the pass that broke an
//      invariant).
//   2. serve::LoadPlan verifies a snapshot's circuit before constructing it
//      and rebuilding its plan — mmap'd untrusted data must never reach the
//      evaluator with an out-of-bounds index, and a corrupted file is
//      rejected with a diagnostic naming the violated invariant
//      (fuzz-tested in tests/snapshot_fuzz_test.cc). LoadPlan memoizes the
//      pass per file identity + payload checksum.
//   3. `dlcirc check --snapshot FILE` reports the same findings to users.
//
// A snapshot stores no plan, so there is no plan to verify: the plan's
// invariants (layers, CSR indexes) hold by construction of EvalPlan::Build,
// and tests/eval_test.cc and tests/delta_test.cc pin them. Every check is a
// single O(gates) forward pass. Findings carry codes verify.* with the
// invariant named in the message, all Severity::kError. Reporting is capped
// (kMaxFindings) so a garbage blob cannot produce megabytes of diagnostics.
#ifndef DLCIRC_ANALYSIS_VERIFY_H_
#define DLCIRC_ANALYSIS_VERIFY_H_

#include <cstdint>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/circuit/circuit.h"

namespace dlcirc {
namespace pipeline {
struct PlanKey;
}  // namespace pipeline

namespace analysis {

/// Findings per Verify* call are capped here; a final note diagnostic
/// reports the truncation.
inline constexpr size_t kMaxFindings = 32;

/// Circuit arena well-formedness over raw parts (what a snapshot decoder
/// holds before it dares construct a Circuit): children strictly precede
/// parents, input variable ids < num_vars, outputs in range.
std::vector<Diagnostic> VerifyCircuitParts(const std::vector<Gate>& gates,
                                           const std::vector<GateId>& outputs,
                                           uint32_t num_vars);

/// The same checks on a built Circuit.
std::vector<Diagnostic> VerifyCircuit(const Circuit& circuit);

/// Per-construction semiring-trait preconditions, mirroring the gating in
/// Session::Compile (theorem-named): kUvg needs absorptive (Thm 6.2),
/// kFiniteRpq needs plus-idempotent (Thm 5.8), kBellmanFord /
/// kRepeatedSquaring need absorptive (Thms 5.6/5.7), kBounded needs
/// plus-idempotent (chain-exact) or absorptive x-idempotent (Cor 4.7).
std::vector<Diagnostic> VerifyPlanKey(const pipeline::PlanKey& key);

/// True iff no finding in `diagnostics` is an error (warnings/notes pass).
bool Clean(const std::vector<Diagnostic>& diagnostics);

/// First error in `diagnostics`, or nullptr.
const Diagnostic* FirstError(const std::vector<Diagnostic>& diagnostics);

}  // namespace analysis
}  // namespace dlcirc

#endif  // DLCIRC_ANALYSIS_VERIFY_H_
