// Shared randomized-circuit workload generator, value-comparison helper and
// sweep counter for the eval/delta/differential suites. Circuits are built
// with all rewrite flags off, so they are faithful expressions over ANY
// semiring; outputs are biased toward late gates so cones are nontrivial
// and some gates end up dead — exactly what plans and passes must handle.
#ifndef DLCIRC_TESTS_RANDOM_CIRCUITS_H_
#define DLCIRC_TESTS_RANDOM_CIRCUITS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/circuit/builder.h"
#include "src/circuit/circuit.h"
#include "src/obs/metrics.h"
#include "src/semiring/semiring.h"
#include "src/util/rng.h"

namespace dlcirc {
namespace testing {

/// Random DAG over `num_vars` inputs with `num_internal` (+)/(x) gates drawn
/// over earlier gates and the constants.
inline Circuit RandomCircuit(Rng& rng, uint32_t num_vars, uint32_t num_internal,
                             size_t num_outputs = 3) {
  CircuitBuilder b(num_vars);
  std::vector<GateId> pool = {b.Zero(), b.One()};
  for (uint32_t v = 0; v < num_vars; ++v) pool.push_back(b.Input(v));
  for (uint32_t i = 0; i < num_internal; ++i) {
    GateId x = pool[rng.NextBounded(pool.size())];
    GateId y = pool[rng.NextBounded(pool.size())];
    pool.push_back(rng.NextBool(0.5) ? b.Plus(x, y) : b.Times(x, y));
  }
  std::vector<GateId> outs;
  for (size_t k = 0; k < num_outputs; ++k) {
    size_t tail = std::min<size_t>(pool.size(), 8);
    outs.push_back(pool[pool.size() - 1 - rng.NextBounded(tail)]);
  }
  return b.Build(outs);
}

/// One case circuit of the differential harness (tests/differential_test.cc):
/// 4-10 variables, 40-299 (+)/(x) gates and 1-4 outputs, all drawn from
/// `rng`.
inline Circuit RandomCaseCircuit(Rng& rng) {
  const uint32_t num_vars = 4 + static_cast<uint32_t>(rng.NextBounded(7));
  const uint32_t num_internal = 40 + static_cast<uint32_t>(rng.NextBounded(260));
  const size_t num_outputs = 1 + rng.NextBounded(4);
  return RandomCircuit(rng, num_vars, num_internal, num_outputs);
}

/// One random value per variable, drawn from S's own test generator.
template <Semiring S>
std::vector<typename S::Value> RandomAssignment(Rng& rng, uint32_t num_vars) {
  std::vector<typename S::Value> a;
  a.reserve(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) a.push_back(S::RandomValue(rng));
  return a;
}

/// Element-wise S::Eq comparison with a readable failure message; `what`
/// names the engine path under test.
template <Semiring S>
void ExpectSameValues(const std::vector<typename S::Value>& expected,
                      const std::vector<typename S::Value>& got,
                      const char* what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(S::Eq(expected[i], got[i]))
        << what << " output " << i << ": expected " << S::ToString(expected[i])
        << ", got " << S::ToString(got[i]) << " over " << S::Name();
  }
}

/// Counts the plan sweeps run while it lives: Evaluator::ForEachLayer
/// records one sample per sweep into dlcirc_eval_sweep_ns while the default
/// obs registry is enabled, so the counter enables it and restores the
/// previous setting on destruction.
class SweepCounter {
 public:
  SweepCounter() : was_enabled_(Registry().enabled()), start_(Sweeps().count()) {
    Registry().set_enabled(true);
  }
  ~SweepCounter() { Registry().set_enabled(was_enabled_); }
  SweepCounter(const SweepCounter&) = delete;
  SweepCounter& operator=(const SweepCounter&) = delete;

  uint64_t sweeps() const { return Sweeps().count() - start_; }

 private:
  static obs::Registry& Registry() { return obs::Registry::Default(); }
  static obs::Histogram& Sweeps() {
    return Registry().GetHistogram("dlcirc_eval_sweep_ns");
  }
  bool was_enabled_;
  uint64_t start_;
};

}  // namespace testing
}  // namespace dlcirc

#endif  // DLCIRC_TESTS_RANDOM_CIRCUITS_H_
