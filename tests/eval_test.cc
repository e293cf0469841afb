// Tests for the src/eval/ evaluation engine: EvalPlan layering invariants,
// parity of serial / parallel / batched evaluation with the seed
// Circuit::Evaluate across every semiring in src/semiring/instances.h, the
// compact row map batch sweeps use, and optimizer-pass safety (value
// preservation, cone never grows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"
#include "src/constructions/path_circuits.h"
#include "src/eval/batch.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/graph/labeled_graph.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/serve/snapshot.h"
#include "src/util/rng.h"
#include "tests/random_circuits.h"

namespace dlcirc {
namespace {

using eval::BatchAssignment;
using eval::EvalOptions;
using eval::EvalPlan;
using eval::Evaluator;
using eval::PassOptions;
using testing::ExpectSameValues;
using testing::RandomAssignment;
using testing::RandomCircuit;

template <typename S>
class EvalSemiringTest : public ::testing::Test {};

using AllSemirings =
    ::testing::Types<BooleanSemiring, TropicalSemiring, TropicalZSemiring,
                     CountingSemiring, ViterbiSemiring, FuzzySemiring,
                     LukasiewiczSemiring, CapacitySemiring, ArcticSemiring>;
TYPED_TEST_SUITE(EvalSemiringTest, AllSemirings);

TYPED_TEST(EvalSemiringTest, SerialParallelBatchedAgreeWithSeedEvaluate) {
  using S = TypeParam;
  Rng rng(20250731);
  Evaluator serial(EvalOptions{.num_threads = 1});
  // Force the parallel path even on tiny circuits.
  Evaluator parallel(EvalOptions{
      .num_threads = 4, .min_parallel_work = 1, .min_work_per_chunk = 1});
  for (int trial = 0; trial < 6; ++trial) {
    Circuit c = RandomCircuit(rng, 6, 150);
    EvalPlan plan = EvalPlan::Build(c);
    std::vector<std::vector<typename S::Value>> assigns;
    for (int b = 0; b < 5; ++b) assigns.push_back(RandomAssignment<S>(rng, 6));

    auto batched = eval::EvaluateBatch<S>(serial, plan, assigns);
    auto batched_par = eval::EvaluateBatch<S>(parallel, plan, assigns);
    for (size_t b = 0; b < assigns.size(); ++b) {
      auto expected = c.Evaluate<S>(assigns[b]);
      ExpectSameValues<S>(expected, serial.Evaluate<S>(plan, assigns[b]),
                          "plan serial");
      ExpectSameValues<S>(expected, parallel.Evaluate<S>(plan, assigns[b]),
                          "plan parallel");
      ExpectSameValues<S>(expected, batched[b], "batched");
      ExpectSameValues<S>(expected, batched_par[b], "batched parallel");
    }
  }
}

TYPED_TEST(EvalSemiringTest, PassesPreserveValuesAndNeverGrowCone) {
  using S = TypeParam;
  using Pass = Circuit (*)(const Circuit&, const PassOptions&);
  // AbsorbPrune's rewrites are gated on the flags we pass; taking them from
  // S's own traits makes the pass sound over S by construction (and a no-op
  // relabeling when S has neither property).
  PassOptions opts;
  opts.plus_idempotent = S::kIsIdempotent;
  opts.absorptive = S::kIsAbsorptive;
  const std::pair<const char*, Pass> passes[] = {
      {"compact-cone", &eval::CompactCone},
      {"fold-constants", &eval::FoldConstants},
      {"global-cse", &eval::GlobalCse},
      {"absorb-prune", &eval::AbsorbPrune},
  };
  Rng rng(777);
  for (int trial = 0; trial < 6; ++trial) {
    Circuit c = RandomCircuit(rng, 5, 120);
    auto assignment = RandomAssignment<S>(rng, 5);
    auto expected = c.Evaluate<S>(assignment);
    for (const auto& [name, pass] : passes) {
      Circuit optimized = pass(c, opts);
      ExpectSameValues<S>(expected, optimized.Evaluate<S>(assignment), name);
      EXPECT_LE(optimized.Size(), c.Size()) << name;
      EXPECT_TRUE(optimized.IsWellFormed()) << name;
    }
    eval::PipelineResult pipeline = eval::OptimizeForEval(c, opts);
    ExpectSameValues<S>(expected, pipeline.circuit.Evaluate<S>(assignment),
                        "pipeline");
    EXPECT_LE(pipeline.circuit.Size(), c.Size());
    ASSERT_GE(pipeline.stats.size(), 3u);
    for (const eval::PassStats& ps : pipeline.stats) {
      EXPECT_LE(ps.gates_after, ps.gates_before) << ps.name;
      // Arena may gain only the always-present constant gates.
      EXPECT_LE(ps.arena_after, ps.arena_before + 2) << ps.name;
    }
  }
}

TEST(EvalPlanTest, LayersAreTopologicalAndCoverExactlyTheCone) {
  Rng rng(42);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c = RandomCircuit(rng, 8, 200);
    EvalPlan plan = EvalPlan::Build(c);
    EXPECT_EQ(plan.num_slots(), c.ComputeStats().size);
    EXPECT_EQ(plan.num_outputs(), c.outputs().size());
    EXPECT_EQ(plan.num_vars(), c.num_vars());
    const auto& starts = plan.layer_starts();
    ASSERT_GE(starts.size(), 2u);
    EXPECT_EQ(starts.front(), 0u);
    EXPECT_EQ(starts.back(), plan.num_slots());
    size_t widest = 0;
    for (size_t l = 0; l + 1 < starts.size(); ++l) {
      ASSERT_LE(starts[l], starts[l + 1]);
      widest = std::max<size_t>(widest, starts[l + 1] - starts[l]);
      for (size_t i = starts[l]; i < starts[l + 1]; ++i) {
        const Gate& g = plan.gates()[i];
        if (g.kind == GateKind::kPlus || g.kind == GateKind::kTimes) {
          // Children strictly below this layer: parallel-safe within layers.
          EXPECT_LT(g.a, starts[l]);
          EXPECT_LT(g.b, starts[l]);
        } else {
          EXPECT_EQ(l, 0u) << "leaf gate above layer 0";
        }
      }
    }
    EXPECT_EQ(plan.max_layer_width(), widest);
    for (uint32_t slot : plan.output_slots()) EXPECT_LT(slot, plan.num_slots());
  }
}

TEST(EvalPlanTest, ConstantOnlyCircuit) {
  CircuitBuilder b(2);
  Circuit c = b.Build({b.One(), b.Zero()});
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator ev(EvalOptions{.num_threads = 1});
  auto out = ev.Evaluate<CountingSemiring>(plan, {9, 9});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
}

TEST(EvalPlanTest, DuplicateOutputsKeepTheirOrder) {
  CircuitBuilder b(2);
  GateId sum = b.Plus(b.Input(0), b.Input(1));
  Circuit c = b.Build({sum, sum, b.Input(0)});
  Evaluator ev(EvalOptions{.num_threads = 1});
  auto out = ev.Evaluate<CountingSemiring>(EvalPlan::Build(c), {3, 4});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 7u);
  EXPECT_EQ(out[1], 7u);
  EXPECT_EQ(out[2], 3u);
}

/// Checks the layer invariants the sweep and the delta frontier rely on:
/// layer_of() is the inverse of layer_starts(), and every child sits in a
/// strictly lower layer than its parent. Then replays `plan`'s layer order
/// with an owner-per-row table. Each layer's writes go before its reads,
/// the order in which a layer-parallel sweep would expose a gate
/// overwriting a row its own layer still reads.
void ExpectValidRowMap(const EvalPlan& plan) {
  const std::vector<uint32_t>& starts = plan.layer_starts();
  const std::vector<uint32_t>& layer_of = plan.layer_of();
  ASSERT_EQ(layer_of.size(), plan.num_slots());
  ASSERT_EQ(starts.back(), plan.num_slots());
  for (uint32_t l = 0; l + 1 < starts.size(); ++l) {
    for (uint32_t s = starts[l]; s < starts[l + 1]; ++s) {
      ASSERT_EQ(layer_of[s], l) << "slot " << s;
      const Gate& g = plan.gates()[s];
      if (g.kind != GateKind::kPlus && g.kind != GateKind::kTimes) continue;
      EXPECT_LT(layer_of[g.a], l) << "slot " << s << " child " << g.a;
      EXPECT_LT(layer_of[g.b], l) << "slot " << s << " child " << g.b;
    }
  }

  const std::vector<uint32_t>& row_of = plan.row_of();
  ASSERT_EQ(row_of.size(), plan.num_slots());
  EXPECT_LE(plan.num_rows(), plan.num_slots());
  constexpr uint32_t kFree = UINT32_MAX;
  std::vector<uint32_t> owner(plan.num_rows(), kFree);
  for (size_t l = 0; l + 1 < starts.size(); ++l) {
    for (uint32_t s = starts[l]; s < starts[l + 1]; ++s) {
      ASSERT_LT(row_of[s], plan.num_rows()) << "slot " << s;
      const uint32_t prev = owner[row_of[s]];
      ASSERT_TRUE(prev == kFree || prev < starts[l])
          << "slots " << prev << " and " << s << " of layer " << l
          << " share row " << row_of[s];
      owner[row_of[s]] = s;
    }
    for (uint32_t s = starts[l]; s < starts[l + 1]; ++s) {
      const Gate& g = plan.gates()[s];
      if (g.kind != GateKind::kPlus && g.kind != GateKind::kTimes) continue;
      for (uint32_t child : {g.a, g.b}) {
        ASSERT_EQ(owner[row_of[child]], child)
            << "slot " << s << " reads row " << row_of[child] << " of child "
            << child << " after it was reassigned";
      }
    }
  }
  // Output rows are never reassigned, and distinct output slots (duplicate
  // outputs may share one) hold distinct rows.
  std::map<uint32_t, uint32_t> slot_of_row;
  for (size_t k = 0; k < plan.num_outputs(); ++k) {
    const uint32_t s = plan.output_slots()[k];
    const uint32_t r = plan.output_row(k);
    EXPECT_EQ(owner[r], s) << "output " << k << " lost row " << r;
    EXPECT_EQ(slot_of_row.emplace(r, s).first->second, s)
        << "output slots share row " << r;
  }
}

/// Theorem 5.6's Bellman-Ford transitive closure over the circulant digraph
/// v_i -> v_(i+k mod n), one output per (s, t) pair.
Circuit CirculantBellmanFord(uint32_t n, const std::vector<uint32_t>& ks) {
  LabeledGraph graph(n);
  std::vector<uint32_t> edge_vars;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t k : ks) {
      graph.AddEdge(i, (i + k) % n);
      edge_vars.push_back(static_cast<uint32_t>(edge_vars.size()));
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> outputs;
  for (uint32_t s = 0; s < n; ++s) {
    for (uint32_t t = 0; t < n; ++t) outputs.push_back({s, t});
  }
  return BellmanFordCircuitMulti(graph, edge_vars,
                                 static_cast<uint32_t>(edge_vars.size()),
                                 outputs);
}

TEST(RowMapTest, DifferentialCircuitsAndTheirOptimizedPlans) {
  for (uint64_t seed = 20260731; seed < 20260731 + 60; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    Rng rng(seed);
    Circuit c = testing::RandomCaseCircuit(rng);
    EvalPlan plan = EvalPlan::Build(c);
    ExpectValidRowMap(plan);
    for (bool absorptive : {false, true}) {
      PassOptions opts;
      opts.plus_idempotent = absorptive;
      opts.absorptive = absorptive;
      EvalPlan optimized =
          EvalPlan::Build(eval::OptimizeForEval(c, opts).circuit);
      ExpectValidRowMap(optimized);
    }
  }
}

TEST(RowMapTest, CirculantBellmanFordPlanHoldsOnlyLiveRows) {
  EvalPlan plan = EvalPlan::Build(CirculantBellmanFord(12, {1, 3, 5}));
  ExpectValidRowMap(plan);
  // Each relaxation round reads only the round before it and the edges.
  EXPECT_LT(plan.num_rows() * 4, plan.num_slots());
}

TEST(RowMapTest, SnapshotRoundTripDerivesTheSameRows) {
  pipeline::CompiledPlan compiled;
  compiled.key = pipeline::PlanKey::For<TropicalSemiring>(
      pipeline::Construction::kBellmanFord);
  compiled.circuit = CirculantBellmanFord(10, {1, 4});
  compiled.plan = EvalPlan::Build(compiled.circuit);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dlcirc_row_map_snapshot";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "plan.dlcp").string();
  ASSERT_TRUE(serve::SavePlan(compiled, 1, 2, path).ok());
  auto loaded = serve::LoadPlan(path, 1, 2, compiled.key);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const EvalPlan& plan = loaded.value()->plan;
  ExpectValidRowMap(plan);
  EXPECT_EQ(plan.row_of(), compiled.plan.row_of());
  EXPECT_EQ(plan.num_rows(), compiled.plan.num_rows());
}

TEST(CircuitEvaluateTest, RestrictsWorkToOutputCone) {
  // Dead gates reference variables 2 and 3, but the cone only uses variable
  // 0 — an assignment covering just the cone must suffice. (The unfixed
  // Evaluate walked the whole arena and CHECK-failed on the dead inputs.)
  CircuitBuilder b(4);
  GateId live = b.Input(0);
  b.Times(b.Input(3), b.Input(2));  // dead
  Circuit c = b.Build({live});
  std::vector<uint64_t> assignment = {41};
  EXPECT_EQ(c.Evaluate<CountingSemiring>(assignment)[0], 41u);
}

TEST(EvaluatorTest, DefaultThresholdsAgreeOnLargerCircuit) {
  // Big enough to clear min_parallel_work so the pool path really runs with
  // production thresholds (not the forced ones used in the typed tests).
  Rng rng(5);
  Circuit c = RandomCircuit(rng, 12, 40000, /*num_outputs=*/5);
  EvalPlan plan = EvalPlan::Build(c);
  auto assignment = RandomAssignment<TropicalSemiring>(rng, 12);
  auto expected = c.Evaluate<TropicalSemiring>(assignment);
  for (int threads : {1, 2, 8}) {
    Evaluator ev(EvalOptions{.num_threads = threads});
    ExpectSameValues<TropicalSemiring>(
        expected, ev.Evaluate<TropicalSemiring>(plan, assignment), "threads");
  }
}

TEST(EvaluatorTest, EvaluatorIsReusableAcrossPlans) {
  Rng rng(11);
  Evaluator ev(EvalOptions{
      .num_threads = 3, .min_parallel_work = 1, .min_work_per_chunk = 1});
  for (int i = 0; i < 4; ++i) {
    Circuit c = RandomCircuit(rng, 4, 60);
    EvalPlan plan = EvalPlan::Build(c);
    auto assignment = RandomAssignment<BooleanSemiring>(rng, 4);
    ExpectSameValues<BooleanSemiring>(
        c.Evaluate<BooleanSemiring>(assignment),
        ev.Evaluate<BooleanSemiring>(plan, assignment), "reuse");
  }
}

TEST(BatchTest, PackIsVariableMajor) {
  std::vector<std::vector<uint64_t>> assigns = {{1, 2, 3}, {4, 5, 6}};
  auto batch = BatchAssignment<CountingSemiring>::Pack(assigns, 3);
  EXPECT_EQ(batch.batch_size, 2u);
  // values[v * B + b]
  std::vector<uint64_t> expected = {1, 4, 2, 5, 3, 6};
  EXPECT_EQ(batch.values, expected);
}

TEST(BatchTest, SingleLaneBatchMatchesScalarPath) {
  Rng rng(21);
  Circuit c = RandomCircuit(rng, 6, 80);
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator ev(EvalOptions{.num_threads = 1});
  auto assignment = RandomAssignment<ViterbiSemiring>(rng, 6);
  auto out = eval::EvaluateBatch<ViterbiSemiring>(ev, plan, {assignment});
  ASSERT_EQ(out.size(), 1u);
  ExpectSameValues<ViterbiSemiring>(c.Evaluate<ViterbiSemiring>(assignment),
                                    out[0], "single lane");
}

TEST(BatchTest, LaneTilingPreservesResults) {
  // Budgets in rows: EvaluateBatch sweeps compact rows, so one lane holds
  // num_rows() values. One lane per tile gives 7 tiles; two lanes per tile
  // leave a partial final tile (2 + 2 + 2 + 1). Both must match the
  // single-tile result.
  Rng rng(61);
  Circuit c = RandomCircuit(rng, 6, 100);
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator ev(EvalOptions{.num_threads = 1});
  std::vector<std::vector<uint64_t>> assigns;
  for (int b = 0; b < 7; ++b) {
    assigns.push_back(RandomAssignment<TropicalSemiring>(rng, 6));
  }
  std::vector<std::vector<uint64_t>> one_tile;
  {
    testing::SweepCounter counter;
    one_tile = eval::EvaluateBatch<TropicalSemiring>(ev, plan, assigns);
    EXPECT_EQ(counter.sweeps(), 1u);
  }
  const size_t lane_bytes = plan.num_rows() * sizeof(uint64_t);
  const std::pair<size_t, uint64_t> budgets[] = {{lane_bytes, 7},
                                                 {2 * lane_bytes, 4}};
  for (const auto& [budget, tiles] : budgets) {
    std::vector<std::vector<uint64_t>> tiled;
    {
      testing::SweepCounter counter;
      tiled = eval::EvaluateBatch<TropicalSemiring>(ev, plan, assigns, budget);
      EXPECT_EQ(counter.sweeps(), tiles) << "budget " << budget;
    }
    ASSERT_EQ(tiled.size(), one_tile.size());
    for (size_t b = 0; b < tiled.size(); ++b) {
      ExpectSameValues<TropicalSemiring>(one_tile[b], tiled[b], "tiled");
    }
  }
}

TEST(BatchTest, SweepInTilesSplitsLanesEvenly) {
  // As few tiles as the budget allows, as even as the lane count allows:
  // a budget of 5 lanes splits 7 lanes 4 + 3, not 5 + 2, and one of 56
  // lanes splits 64 lanes 32 + 32, not 56 + 8.
  Rng rng(67);
  Circuit c = RandomCircuit(rng, 6, 100);
  EvalPlan plan = EvalPlan::Build(c);
  Evaluator ev(EvalOptions{.num_threads = 1});
  const size_t lane_bytes = plan.num_rows() * sizeof(uint64_t);
  const std::tuple<size_t, size_t, std::vector<size_t>> cases[] = {
      {7, 5, {4, 3}}, {64, 56, {32, 32}}, {64, 64, {64}}, {3, 1, {1, 1, 1}}};
  for (const auto& [lanes, budget_lanes, want] : cases) {
    std::vector<std::vector<uint64_t>> assigns;
    for (size_t b = 0; b < lanes; ++b) {
      assigns.push_back(RandomAssignment<TropicalSemiring>(rng, 6));
    }
    std::vector<uint64_t> buffer;
    std::vector<size_t> widths;
    size_t next = 0;
    eval::SweepInTiles<TropicalSemiring>(
        ev, plan, assigns, budget_lanes * lane_bytes, &buffer,
        [&](size_t start, size_t n, const std::vector<uint64_t>&) {
          EXPECT_EQ(start, next);
          next += n;
          widths.push_back(n);
        });
    EXPECT_EQ(widths, want) << lanes << " lanes, budget of " << budget_lanes;
  }
}

TEST(BatchTest, BooleanBitBatchMatchesSeedEvaluate) {
  Rng rng(31);
  Evaluator serial(EvalOptions{.num_threads = 1});
  Evaluator parallel(EvalOptions{
      .num_threads = 4, .min_parallel_work = 1, .min_work_per_chunk = 1});
  for (size_t lanes : {1u, 63u, 64u, 130u}) {  // straddle word boundaries
    Circuit c = RandomCircuit(rng, 7, 120);
    EvalPlan plan = EvalPlan::Build(c);
    std::vector<std::vector<bool>> assigns(lanes, std::vector<bool>(7));
    for (auto& a : assigns) {
      for (size_t v = 0; v < a.size(); ++v) a[v] = rng.NextBool(0.5);
    }
    auto packed = eval::EvaluateBooleanBitBatch(serial, plan, assigns);
    auto packed_par = eval::EvaluateBooleanBitBatch(parallel, plan, assigns);
    ASSERT_EQ(packed.size(), lanes);
    for (size_t b = 0; b < lanes; ++b) {
      auto expected = c.Evaluate<BooleanSemiring>(assigns[b]);
      ASSERT_EQ(packed[b].size(), expected.size());
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k], packed[b][k]) << "lane " << b << " out " << k;
        EXPECT_EQ(expected[k], packed_par[b][k]) << "lane " << b << " out " << k;
      }
    }
  }
}

TEST(PassesTest, FoldConstantsCollapsesConstantSubtrees) {
  // The builder folds constants as it goes, so hand-build an arena the way
  // they actually arise (e.g. after tagging some EDB facts out): the output
  // is (x0 * 0) + x0, which must fold to just x0.
  std::vector<Gate> gates = {
      {GateKind::kZero, 0, 0},   // 0
      {GateKind::kOne, 0, 0},    // 1
      {GateKind::kInput, 0, 0},  // 2: x0
      {GateKind::kTimes, 2, 0},  // 3: x0 * 0
      {GateKind::kPlus, 3, 2},   // 4: (x0 * 0) + x0
  };
  Circuit c(gates, {4}, 1);
  EXPECT_EQ(c.Size(), 4u);
  Circuit folded = eval::FoldConstants(c, PassOptions{});
  EXPECT_EQ(folded.Size(), 1u);  // just the input gate
  EXPECT_EQ(folded.Depth(), 0u);
  EXPECT_EQ(folded.EvaluateOutput<CountingSemiring>({7}), 7u);
}

TEST(PassesTest, GlobalCseMergesDuplicatesAcrossTheCone) {
  // Two structurally identical (+)-gates feeding a (x): CSE must merge them
  // so the product becomes g * g (3 cone gates above the inputs -> 4 total).
  std::vector<Gate> gates = {
      {GateKind::kZero, 0, 0},   // 0
      {GateKind::kOne, 0, 0},    // 1
      {GateKind::kInput, 0, 0},  // 2: x0
      {GateKind::kInput, 1, 0},  // 3: x1
      {GateKind::kPlus, 2, 3},   // 4: x0 + x1
      {GateKind::kPlus, 2, 3},   // 5: x0 + x1 (duplicate)
      {GateKind::kTimes, 4, 5},  // 6
  };
  Circuit c(gates, {6}, 2);
  EXPECT_EQ(c.Size(), 5u);
  Circuit merged = eval::GlobalCse(c, PassOptions{});
  EXPECT_EQ(merged.Size(), 4u);
  EXPECT_EQ(merged.EvaluateOutput<CountingSemiring>({2, 3}), 25u);
}

TEST(PassesTest, AbsorbPruneIsGatedOnFlags)  {
  // 1 + x: absorptive semirings collapse it to 1; without the flag the
  // pass must leave the gate alone.
  std::vector<Gate> gates = {
      {GateKind::kZero, 0, 0},
      {GateKind::kOne, 0, 0},
      {GateKind::kInput, 0, 0},
      {GateKind::kPlus, 1, 2},  // 1 + x0
  };
  Circuit c(gates, {3}, 1);
  Circuit kept = eval::AbsorbPrune(c, PassOptions{});
  EXPECT_EQ(kept.Size(), c.Size());
  EXPECT_EQ(kept.EvaluateOutput<CountingSemiring>({5}), 6u);  // still 1 + 5
  Circuit pruned = eval::AbsorbPrune(c, PassOptions::ForAbsorptive());
  EXPECT_EQ(pruned.Size(), 1u);  // constant One
  EXPECT_EQ(pruned.EvaluateOutput<TropicalSemiring>({5}), 0u);  // One = 0
}

}  // namespace
}  // namespace dlcirc
