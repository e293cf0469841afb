// Concrete numeric semirings (paper Section 2.2).
//
// Absorptive (0-stable) members: Boolean, Tropical, Viterbi, Fuzzy,
// Lukasiewicz. Idempotent-but-not-absorptive: TropicalZ (T-), Arctic.
// Neither: Counting. The non-absorptive ones exist as counterexample
// semirings for tests (e.g. Proposition 2.4 genuinely fails over them).
#ifndef DLCIRC_SEMIRING_INSTANCES_H_
#define DLCIRC_SEMIRING_INSTANCES_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "src/semiring/semiring.h"
#include "src/util/rng.h"

namespace dlcirc {

/// B = ({false,true}, or, and, false, true). Absorptive, x-idempotent.
struct BooleanSemiring {
  using Value = bool;
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = true;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return false; }
  static Value One() { return true; }
  static Value Plus(Value a, Value b) { return a || b; }
  static Value Times(Value a, Value b) { return a && b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return a ? "true" : "false"; }
  static Value RandomValue(Rng& rng) { return rng.NextBool(0.5); }
  static std::string Name() { return "Boolean"; }
};

/// T = (N u {+inf}, min, +, +inf, 0). Absorptive, naturally ordered.
struct TropicalSemiring {
  using Value = uint64_t;
  static constexpr Value kInf = std::numeric_limits<uint64_t>::max();
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return kInf; }
  static Value One() { return 0; }
  static Value Plus(Value a, Value b) { return std::min(a, b); }
  /// Saturating add, branch-free: a wrapped sum is smaller than a, and
  /// kInf + 0 = kInf, so +inf absorbs without a test of its own.
  static Value Times(Value a, Value b) {
    const Value s = a + b;
    return s < a ? kInf : s;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return a == kInf ? "inf" : std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    // Small weights plus occasional infinity exercise both regimes.
    return rng.NextBool(0.1) ? kInf : rng.NextBounded(100);
  }
  static std::string Name() { return "Tropical"; }
};

/// T- = (Z u {+inf}, min, +, +inf, 0). Idempotent but NOT absorptive:
/// min(0, -1) = -1 != 0. (Paper Section 2.2.)
struct TropicalZSemiring {
  using Value = int64_t;
  static constexpr Value kInf = std::numeric_limits<int64_t>::max();
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = false;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return kInf; }
  static Value One() { return 0; }
  static Value Plus(Value a, Value b) { return std::min(a, b); }
  static Value Times(Value a, Value b) {
    if (a == kInf || b == kInf) return kInf;
    return a + b;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return a == kInf ? "inf" : std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    return rng.NextBool(0.1) ? kInf : rng.NextInRange(-50, 50);
  }
  static std::string Name() { return "TropicalZ"; }
};

/// C = (N, +, *, 0, 1) with saturation. Positive, not idempotent. Infinite
/// Datalog sums are NOT well-defined over C; it is used for non-recursive
/// polynomials (UCQ circuits) and as a counterexample semiring.
struct CountingSemiring {
  using Value = uint64_t;
  static constexpr Value kMax = std::numeric_limits<uint64_t>::max();
  static constexpr bool kIsIdempotent = false;
  static constexpr bool kIsAbsorptive = false;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return 0; }
  static Value One() { return 1; }
  /// Saturating add and multiply, branch-free.
  static Value Plus(Value a, Value b) {
    const Value s = a + b;
    return s < a ? kMax : s;
  }
  static Value Times(Value a, Value b) {
    Value p = 0;
    return __builtin_mul_overflow(a, b, &p) ? kMax : p;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return std::to_string(a); }
  static Value RandomValue(Rng& rng) { return rng.NextBounded(50); }
  static std::string Name() { return "Counting"; }
};

/// Viterbi V = ([0,1], max, *, 0, 1). Absorptive; best-probability derivation.
struct ViterbiSemiring {
  using Value = double;
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return a * b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    // Dyadic rationals keep products exact in double arithmetic.
    return static_cast<double>(rng.NextBounded(33)) / 32.0 * 0.5;
  }
  static std::string Name() { return "Viterbi"; }
};

/// Fuzzy F = ([0,1], max, min, 0, 1). Absorptive AND x-idempotent: a bounded
/// distributive lattice, i.e. a member of the class Chom of Theorem 4.6.
struct FuzzySemiring {
  using Value = double;
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = true;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return std::min(a, b); }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    return static_cast<double>(rng.NextBounded(65)) / 64.0;
  }
  static std::string Name() { return "Fuzzy"; }
};

/// Lukasiewicz L = ([0,1], max, max(0, a+b-1), 0, 1). Absorptive, not
/// x-idempotent. Values kept on a 1/64 grid so arithmetic is exact.
struct LukasiewiczSemiring {
  using Value = double;
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = false;  // a (x) b can be 0 for a,b != 0
  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return std::max(0.0, a + b - 1.0); }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    return static_cast<double>(rng.NextBounded(65)) / 64.0;
  }
  static std::string Name() { return "Lukasiewicz"; }
};

/// Capacity/bottleneck semiring (N u {inf}, max, min, 0, inf): widest-path /
/// max-min provenance. Absorptive AND x-idempotent (a bounded distributive
/// lattice, class Chom) — the natural-number cousin of Fuzzy.
struct CapacitySemiring {
  using Value = uint64_t;
  static constexpr Value kInf = std::numeric_limits<uint64_t>::max();
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = true;
  static constexpr bool kIsTimesIdempotent = true;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return 0; }
  static Value One() { return kInf; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return std::min(a, b); }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return a == kInf ? "inf" : std::to_string(a); }
  static Value RandomValue(Rng& rng) {
    return rng.NextBool(0.1) ? kInf : rng.NextBounded(100);
  }
  static std::string Name() { return "Capacity"; }
};

/// Arctic A = (N u {-inf}, max, +, -inf, 0). Idempotent, naturally ordered,
/// NOT absorptive (max(0, 5) = 5). Counterexample semiring: absorptive-only
/// constructions are unsound over it.
struct ArcticSemiring {
  using Value = int64_t;
  static constexpr Value kNegInf = std::numeric_limits<int64_t>::min();
  static constexpr bool kIsIdempotent = true;
  static constexpr bool kIsAbsorptive = false;
  static constexpr bool kIsTimesIdempotent = false;
  static constexpr bool kIsNaturallyOrdered = true;
  static constexpr bool kIsPositive = true;
  static Value Zero() { return kNegInf; }
  static Value One() { return 0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) {
    if (a == kNegInf || b == kNegInf) return kNegInf;
    return a + b;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) {
    return a == kNegInf ? "-inf" : std::to_string(a);
  }
  static Value RandomValue(Rng& rng) {
    return rng.NextBool(0.1) ? kNegInf : rng.NextInRange(0, 100);
  }
  static std::string Name() { return "Arctic"; }
};

}  // namespace dlcirc

#endif  // DLCIRC_SEMIRING_INSTANCES_H_
