// Randomized differential-testing harness: every evaluation path in the
// engine — the seed Circuit::Evaluate, serial and parallel plan evaluation,
// the optimizer pass pipeline, SoA batched evaluation, the bit-packed
// Boolean kernel, and incremental delta updates (including the full-re-eval
// fallback) — must agree with the naive recursive oracle (tests/oracle.h)
// on random circuits and random delta streams, across all nine semirings.
//
// Reproducibility: every case derives its own seed as base + index and every
// assertion is wrapped in a SCOPED_TRACE carrying that seed. To re-run one
// failing case:
//
//   DLCIRC_DIFF_SEED=<case seed> DLCIRC_DIFF_CASES=1 ./differential_test
//
// DLCIRC_DIFF_CASES (default 100) scales the number of cases per semiring;
// DLCIRC_DIFF_SEED (default 20260731) moves the whole sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/eval/batch.h"
#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/semiring/instances.h"
#include "src/util/rng.h"
#include "tests/oracle.h"
#include "tests/random_circuits.h"

namespace dlcirc {
namespace {

using eval::DeltaOptions;
using eval::EvalOptions;
using eval::EvalPlan;
using eval::EvalState;
using eval::Evaluator;
using eval::IncrementalEvaluator;
using eval::PassOptions;
using eval::TagDelta;
using testing::ExpectSameValues;
using testing::OracleEvaluate;
using testing::RandomAssignment;
using testing::RandomCaseCircuit;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

uint64_t BaseSeed() { return EnvOr("DLCIRC_DIFF_SEED", 20260731); }
size_t NumCases() { return static_cast<size_t>(EnvOr("DLCIRC_DIFF_CASES", 100)); }

/// One (circuit, tagging batch, delta stream) case, seeded by `case_seed`.
template <Semiring S>
void RunCase(uint64_t case_seed) {
  Rng rng(case_seed);
  Circuit circuit = RandomCaseCircuit(rng);
  const uint32_t num_vars = circuit.num_vars();

  Evaluator serial(EvalOptions{.num_threads = 1});
  // Thresholds forced low so the worker pool genuinely runs on small plans.
  Evaluator parallel(EvalOptions{
      .num_threads = 4, .min_parallel_work = 1, .min_work_per_chunk = 1});
  EvalPlan plan = EvalPlan::Build(circuit);

  // The optimizer pipeline under S's own rewrite flags: the optimized
  // circuit must stay oracle-exact and its plan must serve updates too.
  PassOptions popts;
  popts.plus_idempotent = S::kIsIdempotent;
  popts.absorptive = S::kIsAbsorptive;
  Circuit optimized = eval::OptimizeForEval(circuit, popts).circuit;
  EvalPlan opt_plan = EvalPlan::Build(optimized);

  // --- full-evaluation paths -----------------------------------------------
  // The lane count covers one lane, counts off the kernel's lane block, and
  // a second 64-lane word of the bit-packed kernel.
  const size_t lane_counts[] = {1, 3, 8, 16, 64, 65};
  const size_t num_lanes = lane_counts[rng.NextBounded(std::size(lane_counts))];
  std::vector<std::vector<typename S::Value>> lanes;
  for (size_t b = 0; b < num_lanes; ++b) {
    lanes.push_back(RandomAssignment<S>(rng, num_vars));
  }
  auto batched = eval::EvaluateBatch<S>(serial, plan, lanes);
  auto batched_par = eval::EvaluateBatch<S>(parallel, plan, lanes);
  for (size_t b = 0; b < lanes.size(); ++b) {
    auto oracle = OracleEvaluate<S>(circuit, lanes[b]);
    ExpectSameValues<S>(oracle, circuit.Evaluate<S>(lanes[b]), "seed Evaluate");
    ExpectSameValues<S>(oracle, serial.Evaluate<S>(plan, lanes[b]),
                        "plan serial");
    ExpectSameValues<S>(oracle, parallel.Evaluate<S>(plan, lanes[b]),
                        "plan parallel");
    ExpectSameValues<S>(oracle, serial.Evaluate<S>(opt_plan, lanes[b]),
                        "optimized plan");
    ExpectSameValues<S>(oracle, batched[b], "batched");
    ExpectSameValues<S>(oracle, batched_par[b], "batched parallel");
  }
  if constexpr (std::is_same_v<typename S::Value, bool>) {
    auto bits = eval::EvaluateBooleanBitBatch(serial, plan, lanes);
    auto bits_par = eval::EvaluateBooleanBitBatch(parallel, plan, lanes);
    for (size_t b = 0; b < lanes.size(); ++b) {
      auto oracle = OracleEvaluate<S>(circuit, lanes[b]);
      ExpectSameValues<S>(oracle, bits[b], "bit batch");
      ExpectSameValues<S>(oracle, bits_par[b], "bit batch parallel");
    }
  }

  // --- incremental path: a random delta stream against lane 0 ------------
  // The dirty budget is drawn per case so the sweep exercises the always-
  // fallback, mixed, and never-fallback regimes.
  DeltaOptions dopts = DeltaOptions::For<S>();
  const double budgets[] = {0.0, 0.25, 1.0};
  dopts.max_dirty_fraction = budgets[rng.NextBounded(3)];
  IncrementalEvaluator inc(serial, dopts);
  std::vector<typename S::Value> assignment = lanes[0];
  EvalState<S> state = inc.Materialize<S>(plan, assignment);
  EvalState<S> opt_state = inc.Materialize<S>(opt_plan, assignment);
  for (int step = 0; step < 6; ++step) {
    TagDelta<S> delta;
    for (size_t k = 0, n = 1 + rng.NextBounded(3); k < n; ++k) {
      uint32_t var = static_cast<uint32_t>(rng.NextBounded(num_vars));
      typename S::Value v = S::RandomValue(rng);
      assignment[var] = v;
      delta.push_back({var, v});
    }
    inc.Update<S>(plan, &state, delta);
    inc.Update<S>(opt_plan, &opt_state, delta);
    auto oracle = OracleEvaluate<S>(circuit, assignment);
    ExpectSameValues<S>(oracle, eval::StateOutputs<S>(plan, state),
                        "incremental");
    ExpectSameValues<S>(oracle, eval::StateOutputs<S>(opt_plan, opt_state),
                        "incremental on optimized plan");
  }
}

template <typename S>
class DifferentialTest : public ::testing::Test {};

using AllSemirings =
    ::testing::Types<BooleanSemiring, TropicalSemiring, TropicalZSemiring,
                     CountingSemiring, ViterbiSemiring, FuzzySemiring,
                     LukasiewiczSemiring, CapacitySemiring, ArcticSemiring>;
TYPED_TEST_SUITE(DifferentialTest, AllSemirings);

TYPED_TEST(DifferentialTest, AllEnginePathsAgreeWithOracle) {
  const uint64_t base = BaseSeed();
  const size_t cases = NumCases();
  for (size_t i = 0; i < cases; ++i) {
    const uint64_t case_seed = base + i;
    SCOPED_TRACE("case " + std::to_string(i) + " of " + std::to_string(cases) +
                 ", seed " + std::to_string(case_seed) +
                 " — reproduce with DLCIRC_DIFF_SEED=" +
                 std::to_string(case_seed) + " DLCIRC_DIFF_CASES=1");
    RunCase<TypeParam>(case_seed);
    if (::testing::Test::HasFailure()) break;  // one seed is enough to debug
  }
}

}  // namespace
}  // namespace dlcirc
