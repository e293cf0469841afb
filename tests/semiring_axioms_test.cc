// Property tests: every declared semiring satisfies the commutative-semiring
// axioms and its declared trait flags; positive semirings pass the positivity
// homomorphism check; absorptive semirings are 0-stable; the counterexample
// semirings (TropicalZ, Arctic) demonstrably fail absorption; the
// branch-free saturating ops agree with their branchy definitions.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/semiring/axioms.h"
#include "src/semiring/instances.h"
#include "src/semiring/provenance_poly.h"
#include "src/util/rng.h"

namespace dlcirc {
namespace {

constexpr int kIters = 300;

template <typename S>
class SemiringAxiomsTest : public ::testing::Test {};

using AllSemirings =
    ::testing::Types<BooleanSemiring, TropicalSemiring, TropicalZSemiring,
                     CountingSemiring, ViterbiSemiring, FuzzySemiring,
                     LukasiewiczSemiring, CapacitySemiring, ArcticSemiring,
                     SorpSemiring, WhySemiring>;
TYPED_TEST_SUITE(SemiringAxiomsTest, AllSemirings);

TYPED_TEST(SemiringAxiomsTest, SatisfiesAxiomsAndDeclaredTraits) {
  Rng rng(42);
  EXPECT_EQ(CheckSemiringAxioms<TypeParam>(rng, kIters), "");
}

TYPED_TEST(SemiringAxiomsTest, PositiveSemiringsPassPositivity) {
  if (!TypeParam::kIsPositive) GTEST_SKIP() << "not declared positive";
  Rng rng(43);
  EXPECT_EQ(CheckPositive<TypeParam>(rng, kIters), "");
}

TYPED_TEST(SemiringAxiomsTest, AbsorptiveImpliesZeroStable) {
  if (!TypeParam::kIsAbsorptive) GTEST_SKIP() << "not absorptive";
  Rng rng(44);
  EXPECT_EQ(CheckPStable<TypeParam>(rng, /*p=*/0, kIters), "");
}

TYPED_TEST(SemiringAxiomsTest, AbsorptiveImpliesPlusIdempotent) {
  // Paper Section 2.2: absorption forces x+x = x(1+1) = x.
  if (!TypeParam::kIsAbsorptive) GTEST_SKIP() << "not absorptive";
  static_assert(!TypeParam::kIsAbsorptive || TypeParam::kIsIdempotent);
}

TEST(CounterexampleTest, TropicalZIsNotAbsorptive) {
  using S = TropicalZSemiring;
  EXPECT_FALSE(S::Eq(S::Plus(S::One(), -5), S::One()));
}

TEST(CounterexampleTest, ArcticIsNotAbsorptive) {
  using S = ArcticSemiring;
  EXPECT_FALSE(S::Eq(S::Plus(S::One(), 5), S::One()));
}

TEST(CounterexampleTest, ArcticIsNotPStableForSmallP) {
  // 1 + u + ... + u^p keeps growing under max-plus for u > 0.
  using S = ArcticSemiring;
  Rng rng(45);
  for (unsigned p = 0; p < 3; ++p) {
    EXPECT_NE(CheckPStable<S>(rng, p, 200), "") << "p=" << p;
  }
}

TEST(NaturalOrderTest, TropicalOrderIsReverseNumeric) {
  using S = TropicalSemiring;
  EXPECT_TRUE(NaturalLeq<S>(S::Zero(), 7));   // inf <= 7 (0 is bottom)
  EXPECT_TRUE(NaturalLeq<S>(9, 3));           // min(9,3)=3
  EXPECT_FALSE(NaturalLeq<S>(3, 9));
}

TEST(NaturalOrderTest, BooleanOrder) {
  using S = BooleanSemiring;
  EXPECT_TRUE(NaturalLeq<S>(false, true));
  EXPECT_FALSE(NaturalLeq<S>(true, false));
}

// The branchy definitions Tropical Times and Counting Plus/Times had before
// they became branch-free, kept as the reference the new ones must match.
constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
uint64_t ReferenceTropicalTimes(uint64_t a, uint64_t b) {
  if (a == kMax || b == kMax) return kMax;
  return (a > kMax - b) ? kMax : a + b;
}
uint64_t ReferenceCountingPlus(uint64_t a, uint64_t b) {
  return (a > kMax - b) ? kMax : a + b;
}
uint64_t ReferenceCountingTimes(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return (a > kMax / b) ? kMax : a * b;
}

TEST(SaturatingOpsTest, BranchFreeOpsMatchBranchyReference) {
  const uint64_t edges[] = {0, 1, 2, kMax / 2, kMax - 1, kMax};
  for (uint64_t a : edges) {
    for (uint64_t b : edges) {
      EXPECT_EQ(TropicalSemiring::Times(a, b), ReferenceTropicalTimes(a, b))
          << a << " (x) " << b;
      EXPECT_EQ(CountingSemiring::Plus(a, b), ReferenceCountingPlus(a, b))
          << a << " (+) " << b;
      EXPECT_EQ(CountingSemiring::Times(a, b), ReferenceCountingTimes(a, b))
          << a << " (x) " << b;
    }
  }
}

TEST(PowerHelpersTest, TimesPowAndPlusPow) {
  using S = CountingSemiring;
  EXPECT_EQ(TimesPow<S>(3, 4), 81u);
  EXPECT_EQ(TimesPow<S>(3, 0), 1u);
  EXPECT_EQ(PlusPow<S>(5, 3), 15u);
}

}  // namespace
}  // namespace dlcirc
