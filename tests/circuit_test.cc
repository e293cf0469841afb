// Tests for the circuit IR and hash-consing builder: gate dedup, local
// simplification rules and their semiring-validity flags, balanced folds,
// metrics over output cones, evaluation over several semirings, formula-size
// DP, input substitution, and DOT export.
#include <gtest/gtest.h>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"
#include "src/circuit/formula.h"
#include "src/semiring/instances.h"
#include "src/semiring/provenance_poly.h"

namespace dlcirc {
namespace {

TEST(BuilderTest, DedupsIdenticalGates) {
  CircuitBuilder b(4);
  GateId p1 = b.Plus(b.Input(0), b.Input(1));
  GateId p2 = b.Plus(b.Input(0), b.Input(1));
  EXPECT_EQ(p1, p2);
}

TEST(BuilderTest, NormalizesCommutativeChildren) {
  CircuitBuilder b(4);
  EXPECT_EQ(b.Plus(b.Input(0), b.Input(1)), b.Plus(b.Input(1), b.Input(0)));
  EXPECT_EQ(b.Times(b.Input(2), b.Input(3)), b.Times(b.Input(3), b.Input(2)));
}

TEST(BuilderTest, DedupIsExactAcrossTableGrowth) {
  // ~135k distinct (+)/(x) gates: over every pair of 300 inputs, then (x)
  // over neighbouring (+) gates, so children range over the whole arena.
  // The hash-cons table starts small and grows many times on the way.
  struct Call {
    GateKind kind;
    GateId x, y;
  };
  constexpr uint32_t kVars = 300;
  auto emit = [](CircuitBuilder& b, const Call& c) {
    return c.kind == GateKind::kPlus ? b.Plus(c.x, c.y) : b.Times(c.x, c.y);
  };
  auto make_calls = [&](CircuitBuilder& b) {
    std::vector<GateId> in, plus;
    for (uint32_t v = 0; v < kVars; ++v) in.push_back(b.Input(v));
    std::vector<Call> calls;
    for (uint32_t i = 0; i < kVars; ++i) {
      for (uint32_t j = i + 1; j < kVars; ++j) {
        calls.push_back({GateKind::kPlus, in[i], in[j]});
        plus.push_back(emit(b, calls.back()));
        calls.push_back({GateKind::kTimes, in[i], in[j]});
        emit(b, calls.back());
      }
    }
    for (size_t k = 0; k + 1 < plus.size(); ++k) {
      calls.push_back({GateKind::kTimes, plus[k], plus[k + 1]});
      emit(b, calls.back());
    }
    return calls;
  };

  CircuitBuilder dedup(kVars);
  const std::vector<Call> calls = make_calls(dedup);
  ASSERT_GE(calls.size(), 100000u);
  // Every call made a gate of its own, in call order after the inputs.
  const GateId first = 2 + kVars;
  ASSERT_EQ(dedup.num_gates(), first + calls.size());
  size_t wrong = 0;
  for (size_t k = 0; k < calls.size(); ++k) {
    const GateId id = first + static_cast<GateId>(k);
    const Call& c = calls[k];
    if (emit(dedup, c) != id || emit(dedup, {c.kind, c.y, c.x}) != id) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_EQ(dedup.num_gates(), first + calls.size());

  CircuitBuilder::Options off;
  off.dedup = false;
  CircuitBuilder plain(kVars, off);
  const std::vector<Call> plain_calls = make_calls(plain);
  ASSERT_EQ(plain_calls.size(), calls.size());
  size_t shared = 0;
  for (const Call& c : plain_calls) {
    const size_t before = plain.num_gates();
    if (emit(plain, c) != before || plain.num_gates() != before + 1) ++shared;
  }
  EXPECT_EQ(shared, 0u);
}

TEST(BuilderTest, InputGatesAreDeduped) {
  CircuitBuilder b(2);
  EXPECT_EQ(b.Input(1), b.Input(1));
  EXPECT_NE(b.Input(0), b.Input(1));
}

TEST(BuilderTest, UniversalSimplifications) {
  CircuitBuilder b(2);
  GateId x = b.Input(0);
  EXPECT_EQ(b.Plus(b.Zero(), x), x);
  EXPECT_EQ(b.Plus(x, b.Zero()), x);
  EXPECT_EQ(b.Times(b.Zero(), x), b.Zero());
  EXPECT_EQ(b.Times(x, b.One()), x);
  EXPECT_EQ(b.Times(b.One(), x), x);
}

TEST(BuilderTest, AbsorptiveRulesOnlyWhenEnabled) {
  CircuitBuilder plain(2);
  GateId x = plain.Input(0);
  EXPECT_NE(plain.Plus(plain.One(), x), plain.One());  // 1+x stays a gate
  EXPECT_NE(plain.Plus(x, x), x);                      // x+x stays a gate

  CircuitBuilder abs = CircuitBuilder::ForAbsorptive(2);
  GateId y = abs.Input(0);
  EXPECT_EQ(abs.Plus(abs.One(), y), abs.One());
  EXPECT_EQ(abs.Plus(y, y), y);
}

TEST(BuilderTest, PlusNIsBalancedAndCorrect) {
  CircuitBuilder b(8);
  std::vector<GateId> xs;
  for (uint32_t i = 0; i < 8; ++i) xs.push_back(b.Input(i));
  Circuit c = b.Build({b.PlusN(xs)});
  EXPECT_EQ(c.Depth(), 3u);  // ceil(log2 8)
  std::vector<uint64_t> w = {5, 3, 9, 1, 7, 2, 8, 4};
  EXPECT_EQ(c.EvaluateOutput<TropicalSemiring>(w), 1u);
}

TEST(BuilderTest, PlusNEmptyIsZeroTimesNEmptyIsOne) {
  CircuitBuilder b(1);
  EXPECT_EQ(b.PlusN({}), b.Zero());
  EXPECT_EQ(b.TimesN({}), b.One());
}

TEST(BuilderTest, TimesNProduct) {
  CircuitBuilder b(5);
  std::vector<GateId> xs;
  for (uint32_t i = 0; i < 5; ++i) xs.push_back(b.Input(i));
  Circuit c = b.Build({b.TimesN(xs)});
  std::vector<uint64_t> w = {1, 2, 3, 4, 5};
  EXPECT_EQ(c.EvaluateOutput<CountingSemiring>(w), 120u);
  EXPECT_EQ(c.Depth(), 3u);
}

TEST(CircuitTest, StatsCountOnlyOutputCone) {
  CircuitBuilder b(3);
  GateId used = b.Plus(b.Input(0), b.Input(1));
  b.Times(b.Input(2), used);  // dead gate, not an output
  Circuit c = b.Build({used});
  Circuit::Stats s = c.ComputeStats();
  EXPECT_EQ(s.num_plus, 1u);
  EXPECT_EQ(s.num_times, 0u);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.depth, 1u);
  EXPECT_EQ(s.size, 3u);  // 2 inputs + 1 plus
}

TEST(CircuitTest, StatsStayFreshAcrossBuilderMutation) {
  // Regression: a Build -> Size() -> more builder mutations -> Build sequence
  // must give each circuit stats for ITS arena snapshot. Build copies the
  // arena and Circuit computes stats at construction, so the first circuit's
  // cached numbers must not move and the second's must see the new gates.
  CircuitBuilder b(3);
  GateId sum = b.Plus(b.Input(0), b.Input(1));
  Circuit first = b.Build({sum});
  const uint64_t first_size = first.Size();
  const uint32_t first_depth = first.Depth();
  EXPECT_EQ(first_size, 3u);   // x0, x1, (+)
  EXPECT_EQ(first_depth, 1u);

  // Mutate the builder after the Size()/Depth() calls.
  GateId deeper = b.Times(sum, b.Input(2));
  Circuit second = b.Build({deeper});
  EXPECT_EQ(second.Size(), 5u);
  EXPECT_EQ(second.Depth(), 2u);
  // The first circuit's cached stats are untouched by the mutation.
  EXPECT_EQ(first.Size(), first_size);
  EXPECT_EQ(first.Depth(), first_depth);
  EXPECT_EQ(first.ComputeStats().num_plus, 1u);
  EXPECT_EQ(first.ComputeStats().num_times, 0u);
}

TEST(CircuitStatsDeathTest, MovedFromCircuitRefusesToServeStaleStats) {
  // The only mutation a Circuit supports is being moved from: the arena
  // leaves but Stats (a plain struct) survives the move. The accessors must
  // CHECK-fail rather than serve numbers for a vanished arena.
  CircuitBuilder b(2);
  Circuit c = b.Build({b.Plus(b.Input(0), b.Input(1))});
  EXPECT_EQ(c.Size(), 3u);
  Circuit moved = std::move(c);
  EXPECT_EQ(moved.Size(), 3u);
  EXPECT_DEATH(c.Size(), "stale Stats");
}

TEST(CircuitTest, MultiOutputEvaluation) {
  CircuitBuilder b(2);
  GateId sum = b.Plus(b.Input(0), b.Input(1));
  GateId prod = b.Times(b.Input(0), b.Input(1));
  Circuit c = b.Build({sum, prod});
  auto vals = c.Evaluate<CountingSemiring>({3, 5});
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], 8u);
  EXPECT_EQ(vals[1], 15u);
}

TEST(CircuitTest, EvaluatesOverSorp) {
  // (x0 + x1) * x2 in Sorp: x0*x2 + x1*x2.
  CircuitBuilder b = CircuitBuilder::ForAbsorptive(3);
  Circuit c = b.Build({b.Times(b.Plus(b.Input(0), b.Input(1)), b.Input(2))});
  std::vector<Poly> assign = {SorpSemiring::Var(0), SorpSemiring::Var(1),
                              SorpSemiring::Var(2)};
  Poly out = c.EvaluateOutput<SorpSemiring>(assign);
  EXPECT_EQ(out.ToString(), "x0*x2 + x1*x2");
}

TEST(CircuitTest, ConstantGatesEvaluate) {
  CircuitBuilder b(1);
  Circuit c = b.Build({b.Plus(b.Times(b.One(), b.Input(0)), b.Zero())});
  EXPECT_EQ(c.EvaluateOutput<CountingSemiring>({7}), 7u);
}

TEST(CircuitTest, FormulaSizesDoublesOnSharedGate) {
  // f = g * g where g = x0 + x1: circuit has 4 gates in cone; formula
  // expansion duplicates g: 1 + 2*3 = 7 nodes.
  CircuitBuilder b(2);
  GateId g = b.Plus(b.Input(0), b.Input(1));
  // Times(g, g) normalizes to (g, g); dedup can't collapse a*a.
  Circuit c = b.Build({b.Times(g, g)});
  auto fs = c.FormulaSizes();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].exact(), 7u);
}

TEST(CircuitTest, FormulaSizesSaturateGracefully) {
  // Chain of 80 squarings: formula size ~ 2^81 saturates but log2 tracks.
  CircuitBuilder b(1);
  GateId g = b.Input(0);
  for (int i = 0; i < 80; ++i) g = b.Times(g, g);
  Circuit c = b.Build({g});
  BigCount fs = c.FormulaSizes()[0];
  EXPECT_TRUE(fs.saturated());
  EXPECT_GT(fs.log2(), 79.0);
}

TEST(CircuitTest, IsWellFormedRejectsBadChildren) {
  std::vector<Gate> gates = {{GateKind::kZero, 0, 0},
                             {GateKind::kPlus, 5, 0}};  // child 5 out of range
  Circuit c;  // default is fine
  EXPECT_TRUE(c.IsWellFormed());
  // Constructing the bad one must die on the well-formedness CHECK.
  EXPECT_DEATH(Circuit(gates, {1}, 1), "malformed");
}

TEST(CircuitTest, DotExportMentionsGatesAndOutputs) {
  CircuitBuilder b(2);
  Circuit c = b.Build({b.Plus(b.Input(0), b.Input(1))});
  std::string dot = c.ToDot();
  EXPECT_NE(dot.find("x0"), std::string::npos);
  EXPECT_NE(dot.find("\"+\""), std::string::npos);
  EXPECT_NE(dot.find("out0"), std::string::npos);
}

TEST(SubstituteInputsTest, MapsVarsConstantsAndSimplifies) {
  // c = (x0 * x1) + x2; substitute x0 -> y1, x1 -> 1, x2 -> 0.
  CircuitBuilder b(3);
  Circuit c = b.Build({b.Plus(b.Times(b.Input(0), b.Input(1)), b.Input(2))});
  std::vector<InputSubstitution> subs = {InputSubstitution::Var(1),
                                         InputSubstitution::One(),
                                         InputSubstitution::Zero()};
  Circuit r = SubstituteInputs(c, subs, /*new_num_vars=*/2, {});
  // Result should be just y1.
  EXPECT_EQ(r.EvaluateOutput<CountingSemiring>({100, 41}), 41u);
  EXPECT_EQ(r.Depth(), 0u);
}

TEST(SubstituteInputsTest, PreservesSemanticsOnRandomAssignments) {
  CircuitBuilder b = CircuitBuilder::ForAbsorptive(4);
  GateId g1 = b.Plus(b.Times(b.Input(0), b.Input(1)), b.Input(2));
  GateId g2 = b.Times(g1, b.Plus(b.Input(3), b.Input(0)));
  Circuit c = b.Build({g2});
  std::vector<InputSubstitution> subs = {
      InputSubstitution::Var(2), InputSubstitution::Var(0),
      InputSubstitution::One(), InputSubstitution::Var(1)};
  CircuitBuilder::Options abs_opts;
  abs_opts.absorptive = true;
  Circuit r = SubstituteInputs(c, subs, 3, abs_opts);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint64_t> y(3);
    for (auto& v : y) v = TropicalSemiring::RandomValue(rng);
    // Mirror the substitution manually on the original circuit.
    std::vector<uint64_t> x = {y[2], y[0], TropicalSemiring::One(), y[1]};
    EXPECT_EQ(c.EvaluateOutput<TropicalSemiring>(x),
              r.EvaluateOutput<TropicalSemiring>(y));
  }
}

TEST(SubstituteInputsTest, DoesNotIncreaseSizeOrDepth) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Formula f = RandomFormula(rng, 6, 60);
    Circuit c = FormulaToCircuit(f, {});
    std::vector<InputSubstitution> subs;
    for (uint32_t v = 0; v < 6; ++v) {
      uint64_t roll = rng.NextBounded(3);
      subs.push_back(roll == 0   ? InputSubstitution::Var(v)
                     : roll == 1 ? InputSubstitution::One()
                                 : InputSubstitution::Zero());
    }
    Circuit r = SubstituteInputs(c, subs, 6, {});
    EXPECT_LE(r.Size(), c.Size());
    EXPECT_LE(r.Depth(), c.Depth());
  }
}

}  // namespace
}  // namespace dlcirc
