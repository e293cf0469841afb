// Hash-consing circuit builder.
//
// The builder deduplicates structurally identical gates (commutative
// children are normalized) and applies only semiring-valid local rewrites:
//   always:                0 + x = x,  0 * x = 0,  1 * x = x
//   if plus_idempotent:    x + x = x          (valid for idempotent +)
//   if absorptive:         1 + x = 1          (valid for absorptive semirings)
// The flags must match the class of semirings the circuit will be evaluated
// over; the paper's constructions (Sections 3-6) assume absorptive semirings,
// while the UCQ construction (Prop 3.7) is valid over any semiring and must
// be built with both flags off.
#ifndef DLCIRC_CIRCUIT_BUILDER_H_
#define DLCIRC_CIRCUIT_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/circuit/circuit.h"

namespace dlcirc {

class CircuitBuilder {
 public:
  struct Options {
    bool plus_idempotent = false;  ///< enable x + x = x
    bool absorptive = false;       ///< enable 1 + x = 1 (implies plus_idempotent)
    bool dedup = true;             ///< hash-cons structurally equal gates (exact)
  };

  /// Builder for circuits over arbitrary semirings (no idempotent rewrites).
  explicit CircuitBuilder(uint32_t num_vars) : CircuitBuilder(num_vars, Options{}) {}
  CircuitBuilder(uint32_t num_vars, Options options);

  /// Builder preset for absorptive semirings (the paper's setting).
  static CircuitBuilder ForAbsorptive(uint32_t num_vars);

  GateId Zero() const { return kZeroId; }
  GateId One() const { return kOneId; }
  /// The (deduplicated) input gate for variable `var` (< num_vars).
  GateId Input(uint32_t var);
  GateId Plus(GateId x, GateId y);
  GateId Times(GateId x, GateId y);

  /// Balanced (+)-fold: depth ceil(log2 n) above the deepest operand.
  /// Empty yields Zero().
  GateId PlusN(std::span<const GateId> xs);
  /// Balanced (x)-fold; empty yields One().
  GateId TimesN(std::span<const GateId> xs);

  uint32_t num_vars() const { return num_vars_; }
  /// Gates allocated so far (including ones later outside any output cone).
  size_t num_gates() const { return gates_.size(); }

  /// Finalizes into an immutable Circuit with the given outputs. The builder
  /// may keep being used afterwards (gates are copied).
  Circuit Build(std::vector<GateId> outputs) const;

 private:
  static constexpr GateId kZeroId = 0;
  static constexpr GateId kOneId = 1;

  GateId Emit(GateKind kind, uint32_t a, uint32_t b);
  /// Doubles table_ and re-inserts every (+)/(x) gate.
  void GrowTable();

  uint32_t num_vars_;
  Options options_;
  std::vector<Gate> gates_;
  // Hash-cons table (used when options_.dedup): open addressing with linear
  // probing over gate ids, kNoGate marking an empty cell. Its size is a
  // power of two and it is kept at most half full. A probe compares the
  // stored gate's (kind, a, b), so dedup is exact: two gates share an id iff
  // their triples are equal. The triple's hash goes through a 64-bit
  // finalizer before the table masks its low bits: the masked packed
  // triple would be child b's low bits alone, so every gate sharing a b
  // would land in one probe run.
  std::vector<GateId> table_;
  size_t table_entries_ = 0;
  std::vector<GateId> input_gate_;  // var -> gate id (or kNoGate)
};

/// How to rewire one input variable when transplanting a circuit.
struct InputSubstitution {
  enum class Kind { kVar, kOne, kZero };
  Kind kind = Kind::kZero;
  uint32_t var = 0;  ///< target variable id when kind == kVar

  static InputSubstitution Var(uint32_t v) {
    return {Kind::kVar, v};
  }
  static InputSubstitution One() { return {Kind::kOne, 0}; }
  static InputSubstitution Zero() { return {Kind::kZero, 0}; }
};

/// Rebuilds `circuit` with every input variable v replaced per subs[v]
/// (subs.size() must equal circuit.num_vars()). Used by the circuit-level
/// reductions of Theorems 5.9/5.11/6.8, where hard-instance inputs are mapped
/// to original variables or to the constant 1. Simplifications may shrink the
/// result; they never increase size or depth.
Circuit SubstituteInputs(const Circuit& circuit,
                         const std::vector<InputSubstitution>& subs,
                         uint32_t new_num_vars, CircuitBuilder::Options options);

/// Rebuilds `circuit` with a single output: the balanced (+)-sum of all its
/// outputs (used e.g. to sum an RPQ circuit over DFA accept states).
Circuit CombineOutputsWithPlus(const Circuit& circuit,
                               CircuitBuilder::Options options);

}  // namespace dlcirc

#endif  // DLCIRC_CIRCUIT_BUILDER_H_
