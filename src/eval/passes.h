// Circuit -> circuit optimizer passes, run before a circuit is compiled
// into an EvalPlan. Shrinking the circuit once pays off across every
// evaluation (and every batch lane) that follows.
//
// Passes:
//   CompactCone    drop gates outside the output cone and renumber; a pure
//                  relabeling, valid over any semiring.
//   FoldConstants  re-apply the universal identities 0+x=x, 0*x=0, 1*x=x
//                  bottom-up, collapsing constant 0/1 subtrees that appear
//                  after substitution; valid over any semiring.
//   GlobalCse      re-hash the whole cone, merging structurally identical
//                  gates the builder's incremental view missed (e.g. gates
//                  that became equal after folding); valid over any semiring.
//   AbsorbPrune    apply x+x=x (if plus_idempotent) and 1+x=1 (if
//                  absorptive); ONLY sound over semirings with the matching
//                  property, so it is gated on PassOptions flags mirroring
//                  CircuitBuilder::Options and is the identity when both
//                  flags are off.
//
// Every pass preserves the values of all outputs (over the semiring class
// its flags permit) and never increases the output-cone size.
//
// Fold, CSE and absorb are each one bottom-up CircuitBuilder rebuild of the
// cone under a subset of the builder's rules, so OptimizeForEval runs that
// rebuild once under every rule the flags permit ("canonicalize") and then
// CompactCone, to drop the gates its rewrites orphaned. The four passes stay
// composable, and chained compact -> fold -> CSE -> absorb they are the
// tests' reference (tests/pass_chain.h). On a circuit whose gates already
// satisfy the universal identities, as every CircuitBuilder product does,
// the two give the same plan slot for slot. On an arbitrary arena a gate
// that folding orphans can still fix where its live structural twin lands,
// so gates may come in another order, with the same cone and values.
#ifndef DLCIRC_EVAL_PASSES_H_
#define DLCIRC_EVAL_PASSES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"

namespace dlcirc {
namespace eval {

/// Semiring properties the optimizer may exploit; must match the class of
/// semirings the circuit will be evaluated over (see CircuitBuilder::Options).
struct PassOptions {
  bool plus_idempotent = false;  ///< permit x + x = x
  bool absorptive = false;       ///< permit 1 + x = 1 (implies plus_idempotent)

  static PassOptions ForAbsorptive() { return {true, true}; }
};

Circuit CompactCone(const Circuit& circuit, const PassOptions& options);
Circuit FoldConstants(const Circuit& circuit, const PassOptions& options);
Circuit GlobalCse(const Circuit& circuit, const PassOptions& options);
Circuit AbsorbPrune(const Circuit& circuit, const PassOptions& options);

/// One pipeline step's effect. gates_* count output-cone gates — the
/// quantity every pass is guaranteed never to increase. arena_* count all
/// gates in the backing arena (dead ones included), which is what
/// CompactCone shrinks and what evaluation memory scales with; after any
/// pass the arena is the cone plus at most the two constant gates the
/// builder always allocates.
struct PassStats {
  std::string name;
  uint64_t gates_before = 0;
  uint64_t gates_after = 0;
  uint64_t arena_before = 0;
  uint64_t arena_after = 0;
};

struct PipelineResult {
  Circuit circuit;
  std::vector<PassStats> stats;
};

/// Called after each executed pass with the pass name and its output.
/// Debug builds hang the structural verifier here (src/analysis/verify.h)
/// so a pass that emits an ill-formed circuit is caught — and named — at
/// the pass boundary instead of surfacing as a CHECK deep in EvalPlan.
using PassObserver =
    std::function<void(std::string_view pass_name, const Circuit& after)>;

/// Rebuilds the cone once under dedup and every rewrite `options` permit
/// (step "canonicalize"), then compacts it (step "compact-cone"), recording
/// each step's shrinkage. `observer` (optional) fires after each step.
PipelineResult OptimizeForEval(const Circuit& circuit,
                               const PassOptions& options,
                               const PassObserver& observer = {});

}  // namespace eval
}  // namespace dlcirc

#endif  // DLCIRC_EVAL_PASSES_H_
