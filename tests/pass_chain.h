// The optimizer's reference chain and a slot-for-slot plan comparison.
// OptimizeForEval runs one canonicalizing rebuild; the suites check that its
// plan is the plan of the four single-purpose passes chained the long way,
// compact -> fold -> CSE -> absorb.
#ifndef DLCIRC_TESTS_PASS_CHAIN_H_
#define DLCIRC_TESTS_PASS_CHAIN_H_

#include <gtest/gtest.h>

#include <cstddef>

#include "src/circuit/circuit.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"

namespace dlcirc {
namespace testing {

/// AbsorbPrune ∘ GlobalCse ∘ FoldConstants ∘ CompactCone, the absorb step
/// only when `options` permit a rewrite.
inline Circuit ReferencePassChain(const Circuit& circuit,
                                  const eval::PassOptions& options) {
  Circuit out = eval::GlobalCse(
      eval::FoldConstants(eval::CompactCone(circuit, options), options),
      options);
  if (options.plus_idempotent || options.absorptive) {
    out = eval::AbsorbPrune(out, options);
  }
  return out;
}

/// Expects `got` to equal `expected` slot for slot: every gate's kind and
/// children (or variable), the layer boundaries, and the output slots.
inline void ExpectSamePlan(const eval::EvalPlan& expected,
                           const eval::EvalPlan& got) {
  ASSERT_EQ(expected.num_slots(), got.num_slots());
  EXPECT_EQ(expected.layer_starts(), got.layer_starts());
  EXPECT_EQ(expected.output_slots(), got.output_slots());
  size_t differing = 0;
  size_t first = 0;
  for (size_t s = 0; s < expected.num_slots(); ++s) {
    const Gate& e = expected.gates()[s];
    const Gate& g = got.gates()[s];
    if (e.kind != g.kind || e.a != g.a || e.b != g.b) {
      if (differing++ == 0) first = s;
    }
  }
  EXPECT_EQ(differing, 0u) << "first differing slot: " << first;
}

}  // namespace testing
}  // namespace dlcirc

#endif  // DLCIRC_TESTS_PASS_CHAIN_H_
