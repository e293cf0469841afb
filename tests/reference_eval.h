// The tests' reference evaluation of a Session's plans: compile, then one
// eval::EvaluateBatch sweep, reading the requested facts out of the outputs.
// Serving (PlanStore, Server) is what the suites test; this is the plain
// path they compare it with.
#ifndef DLCIRC_TESTS_REFERENCE_EVAL_H_
#define DLCIRC_TESTS_REFERENCE_EVAL_H_

#include <cstdint>
#include <vector>

#include "src/eval/batch.h"
#include "src/eval/evaluator.h"
#include "src/pipeline/session.h"
#include "src/util/result.h"

namespace dlcirc {
namespace testing {

template <Semiring S>
using LaneValues = std::vector<std::vector<typename S::Value>>;

/// Values of `facts` (grounded IDB fact ids; kNotFound reads Zero) under
/// every lane, swept through `plan`: result[lane][i] is facts[i] under lane
/// `lane`. Each lane holds one value per EDB fact.
template <Semiring S>
LaneValues<S> EvaluateFacts(const eval::EvalPlan& plan,
                            const LaneValues<S>& lanes,
                            const std::vector<uint32_t>& facts) {
  eval::Evaluator evaluator(eval::EvalOptions{.num_threads = 1});
  const LaneValues<S> outputs = eval::EvaluateBatch<S>(evaluator, plan, lanes);
  LaneValues<S> out(lanes.size());
  for (size_t b = 0; b < lanes.size(); ++b) {
    for (uint32_t f : facts) {
      out[b].push_back(f == pipeline::Session::kNotFound ? S::Zero()
                                                         : outputs[b][f]);
    }
  }
  return out;
}

/// Compiles `key` through `session`, then EvaluateFacts over the plan.
template <Semiring S>
Result<LaneValues<S>> EvaluateFacts(pipeline::Session& session,
                                    const pipeline::PlanKey& key,
                                    const LaneValues<S>& lanes,
                                    const std::vector<uint32_t>& facts) {
  auto compiled = session.Compile(key);
  if (!compiled.ok()) return Result<LaneValues<S>>::Error(compiled.error());
  return EvaluateFacts<S>(compiled.value()->plan, lanes, facts);
}

}  // namespace testing
}  // namespace dlcirc

#endif  // DLCIRC_TESTS_REFERENCE_EVAL_H_
