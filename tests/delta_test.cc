// Tests for src/eval/delta.h: the plan dependents index (CSR invariants),
// incremental updates vs full re-evaluation across all semirings, the
// short-circuit behavior, and the full-re-eval fallback heuristic.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"
#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/semiring/instances.h"
#include "src/util/rng.h"
#include "tests/random_circuits.h"

namespace dlcirc {
namespace {

using eval::DeltaOptions;
using eval::DeltaStats;
using eval::EvalOptions;
using eval::EvalPlan;
using eval::EvalState;
using eval::Evaluator;
using eval::IncrementalEvaluator;
using eval::TagDelta;
using eval::TagUpdate;
using testing::ExpectSameValues;
using testing::RandomAssignment;
using testing::RandomCircuit;

TEST(DependentsIndexTest, CsrMatchesForwardEdgesExactly) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    Circuit c = RandomCircuit(rng, 7, 180);
    EvalPlan plan = EvalPlan::Build(c);
    const auto& gates = plan.gates();
    ASSERT_EQ(plan.dep_starts().size(), plan.num_slots() + 1);
    EXPECT_EQ(plan.dep_starts().front(), 0u);
    // Every forward child edge appears exactly once in the reverse index.
    std::vector<std::vector<uint32_t>> expected(plan.num_slots());
    for (uint32_t s = 0; s < plan.num_slots(); ++s) {
      const Gate& g = gates[s];
      if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
        expected[g.a].push_back(s);
        expected[g.b].push_back(s);
      }
    }
    size_t total = 0;
    for (uint32_t s = 0; s < plan.num_slots(); ++s) {
      std::vector<uint32_t> got(
          plan.dependents().begin() + plan.dep_starts()[s],
          plan.dependents().begin() + plan.dep_starts()[s + 1]);
      std::sort(got.begin(), got.end());
      std::sort(expected[s].begin(), expected[s].end());
      EXPECT_EQ(got, expected[s]) << "dependents of slot " << s;
      total += got.size();
      // Dependents live in strictly higher layers: parent slot ids are
      // always beyond this layer's end.
      for (uint32_t d : got) EXPECT_GT(d, s);
    }
    EXPECT_EQ(plan.dependents().size(), total);

    // Var index covers exactly the kInput slots, keyed by the variables
    // read (ascending), so it has one entry per read variable plus one.
    std::map<uint32_t, std::vector<uint32_t>> by_var;
    for (uint32_t s = 0; s < plan.num_slots(); ++s) {
      if (gates[s].kind == GateKind::kInput) by_var[gates[s].a].push_back(s);
    }
    const std::vector<uint32_t>& vars = plan.input_vars();
    ASSERT_EQ(vars.size(), by_var.size());
    ASSERT_EQ(plan.var_starts().size(), vars.size() + 1);
    EXPECT_EQ(plan.var_starts().back(), plan.var_input_slots().size());
    size_t i = 0;
    for (const auto& [v, slots] : by_var) {
      ASSERT_EQ(vars[i], v);
      EXPECT_EQ(plan.InputVarIndex(v), i);
      std::vector<uint32_t> got(
          plan.var_input_slots().begin() + plan.var_starts()[i],
          plan.var_input_slots().begin() + plan.var_starts()[i + 1]);
      EXPECT_EQ(got, slots) << "input slots of var " << v;
      ++i;
    }
    // A variable no slot reads has no index entry.
    for (uint32_t v = 0; v < plan.num_vars(); ++v) {
      if (by_var.count(v) == 0) {
        EXPECT_EQ(plan.InputVarIndex(v), vars.size()) << "var " << v;
      }
    }
  }
}

template <typename S>
class DeltaSemiringTest : public ::testing::Test {};

using AllSemirings =
    ::testing::Types<BooleanSemiring, TropicalSemiring, TropicalZSemiring,
                     CountingSemiring, ViterbiSemiring, FuzzySemiring,
                     LukasiewiczSemiring, CapacitySemiring, ArcticSemiring>;
TYPED_TEST_SUITE(DeltaSemiringTest, AllSemirings);

TYPED_TEST(DeltaSemiringTest, UpdatesMatchFullReEvaluation) {
  using S = TypeParam;
  Rng rng(20260731);
  Evaluator full(EvalOptions{.num_threads = 1});
  IncrementalEvaluator inc(full, DeltaOptions::For<S>());
  for (int trial = 0; trial < 4; ++trial) {
    Circuit c = RandomCircuit(rng, 8, 160);
    EvalPlan plan = EvalPlan::Build(c);
    auto assignment = RandomAssignment<S>(rng, 8);
    EvalState<S> state = inc.Materialize<S>(plan, assignment);
    ExpectSameValues<S>(c.Evaluate<S>(assignment),
                        eval::StateOutputs<S>(plan, state), "materialized");
    for (int step = 0; step < 10; ++step) {
      TagDelta<S> delta;
      const size_t k = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < k; ++i) {
        uint32_t var = static_cast<uint32_t>(rng.NextBounded(8));
        typename S::Value v = S::RandomValue(rng);
        assignment[var] = v;
        delta.push_back(TagUpdate<S>{var, v});
      }
      inc.Update<S>(plan, &state, delta);
      ExpectSameValues<S>(c.Evaluate<S>(assignment),
                          eval::StateOutputs<S>(plan, state), "after update");
      // The state's full slot vector must equal a fresh materialization,
      // not just the outputs: later updates build on interior values.
      EvalState<S> fresh = inc.Materialize<S>(plan, assignment);
      ASSERT_EQ(fresh.slots.size(), state.slots.size());
      for (size_t s = 0; s < fresh.slots.size(); ++s) {
        EXPECT_TRUE(S::Eq(static_cast<typename S::Value>(fresh.slots[s]),
                          static_cast<typename S::Value>(state.slots[s])))
            << "slot " << s << " diverged over " << S::Name();
      }
    }
  }
}

TYPED_TEST(DeltaSemiringTest, FallbackPathMatchesToo) {
  using S = TypeParam;
  Rng rng(4242);
  Evaluator full(EvalOptions{.num_threads = 1});
  // A zero budget forces the fallback on any propagation at all.
  DeltaOptions opts = DeltaOptions::For<S>();
  opts.max_dirty_fraction = 0.0;
  IncrementalEvaluator inc(full, opts);
  Circuit c = RandomCircuit(rng, 6, 120);
  EvalPlan plan = EvalPlan::Build(c);
  auto assignment = RandomAssignment<S>(rng, 6);
  EvalState<S> state = inc.Materialize<S>(plan, assignment);
  for (int step = 0; step < 5; ++step) {
    uint32_t var = static_cast<uint32_t>(rng.NextBounded(6));
    typename S::Value v = S::RandomValue(rng);
    assignment[var] = v;
    inc.Update<S>(plan, &state, {TagUpdate<S>{var, v}});
    ExpectSameValues<S>(c.Evaluate<S>(assignment),
                        eval::StateOutputs<S>(plan, state), "fallback");
  }
}

TEST(DeltaTest, NoOpDeltaTouchesNothing) {
  Rng rng(7);
  Circuit c = RandomCircuit(rng, 5, 100);
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator full(EvalOptions{.num_threads = 1});
  IncrementalEvaluator inc(full, DeltaOptions::For<TropicalSemiring>());
  auto assignment = RandomAssignment<TropicalSemiring>(rng, 5);
  auto state = inc.Materialize<TropicalSemiring>(plan, assignment);
  // Re-assigning the current value is a no-op: nothing recomputed beyond
  // the input refresh check, nothing changed.
  DeltaStats stats = inc.Update<TropicalSemiring>(
      plan, &state, {{0, assignment[0]}, {3, assignment[3]}});
  EXPECT_EQ(stats.recomputed, 0u);
  EXPECT_EQ(stats.changed, 0u);
  EXPECT_FALSE(stats.full_fallback);
}

TEST(DeltaTest, ShortCircuitStopsPropagationAtUnchangedMin) {
  // Tropical: out = min(x0, x1) (x) x2-chain. Raising x0 above x1 changes
  // nothing past the min gate; the update must touch O(1) gates, not the
  // whole chain above it.
  CircuitBuilder b(3);
  GateId m = b.Plus(b.Input(0), b.Input(1));
  GateId acc = m;
  for (int i = 0; i < 50; ++i) acc = b.Times(acc, b.Input(2));
  Circuit c = b.Build({acc});
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator full(EvalOptions{.num_threads = 1});
  // Disable the fallback so the second update's full-chain recompute is
  // observable in the stats instead of being handed to the full evaluator.
  DeltaOptions opts = DeltaOptions::For<TropicalSemiring>();
  opts.max_dirty_fraction = 1.0;
  IncrementalEvaluator inc(full, opts);
  auto state = inc.Materialize<TropicalSemiring>(plan, {5, 3, 1});
  // x0: 5 -> 7. min(7,3)=3 unchanged; only the input slot and the min gate
  // recompute.
  DeltaStats stats =
      inc.Update<TropicalSemiring>(plan, &state, {{0, uint64_t{7}}});
  EXPECT_EQ(stats.changed, 1u);     // just the input slot
  EXPECT_LE(stats.recomputed, 3u);  // input + min gate (+ nothing above)
  EXPECT_FALSE(stats.full_fallback);
  EXPECT_EQ(eval::StateOutputs<TropicalSemiring>(plan, state)[0], 53u);
  // x1: 3 -> 9. Now the min changes (to 7) and the whole chain recomputes.
  stats = inc.Update<TropicalSemiring>(plan, &state, {{1, uint64_t{9}}});
  EXPECT_GE(stats.changed, 50u);
  EXPECT_EQ(eval::StateOutputs<TropicalSemiring>(plan, state)[0], 57u);
}

TEST(DeltaTest, FrontierIsReusableAcrossPlans) {
  // The scratch frontier lives in the state, but a fresh state on a second
  // plan shape must not be confused by a stale tracker (sizes differ).
  Rng rng(11);
  Evaluator full(EvalOptions{.num_threads = 1});
  IncrementalEvaluator inc(full, DeltaOptions::For<BooleanSemiring>());
  for (int i = 0; i < 3; ++i) {
    Circuit c = RandomCircuit(rng, 4, 40 + 30 * i);
    EvalPlan plan = EvalPlan::Build(c);
    std::vector<bool> assignment = RandomAssignment<BooleanSemiring>(rng, 4);
    auto state = inc.Materialize<BooleanSemiring>(plan, assignment);
    for (int step = 0; step < 4; ++step) {
      uint32_t var = static_cast<uint32_t>(rng.NextBounded(4));
      bool v = rng.NextBool(0.5);
      assignment[var] = v;
      inc.Update<BooleanSemiring>(plan, &state, {{var, v}});
      ExpectSameValues<BooleanSemiring>(
          c.Evaluate<BooleanSemiring>(assignment),
          eval::StateOutputs<BooleanSemiring>(plan, state), "reuse");
    }
  }
}

}  // namespace
}  // namespace dlcirc
