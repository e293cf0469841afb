// Incremental (delta) re-evaluation: serve sparse tag updates against a
// materialized evaluation instead of re-walking the whole plan.
//
// The serving shape this targets: one shared provenance circuit, a user who
// flips a handful of EDB tags (an edge weight changes, a fact is deleted)
// and wants fresh output values. A full plan sweep is O(gates); an update
// only needs to touch the cone of gates whose *value* actually changes,
// which value-level short-circuiting keeps far smaller than the structural
// dependents cone (e.g. raising one edge weight rarely changes a min).
//
// Pieces:
//   EvalPlan::dependents()   reverse adjacency (slot -> consumers, CSR) and
//                            the var -> input-slot index, built once in
//                            EvalPlan::Build alongside the layers.
//   EvalState<S>             a materialized evaluation: the full assignment
//                            plus every slot's value, extracted from a full
//                            sweep (Materialize) and kept current by Update.
//   DirtyFrontier            epoch-stamped dirty-slot tracker bucketed by
//                            plan layer; reused across updates so steady-
//                            state updates allocate nothing.
//   IncrementalEvaluator     applies a sparse TagDelta: seeds the frontier
//                            at the changed input slots, propagates layer by
//                            layer through the dependents index, recomputes
//                            each dirty gate once, and stops propagating
//                            wherever the recomputed value equals the old
//                            one. Falls back to a full re-evaluation through
//                            the same plan when the dirty set exceeds
//                            DeltaOptions::max_dirty_fraction of the slots.
//
// See src/eval/README.md ("Incremental updates") and bench_eval_delta.cc.
#ifndef DLCIRC_EVAL_DELTA_H_
#define DLCIRC_EVAL_DELTA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/semiring/semiring.h"
#include "src/util/check.h"

namespace dlcirc {
namespace eval {

/// One sparse tag change: variable `var` takes `value`.
template <Semiring S>
struct TagUpdate {
  uint32_t var = 0;
  typename S::Value value;
};

/// A sparse update batch, applied atomically by IncrementalEvaluator::Update.
template <Semiring S>
using TagDelta = std::vector<TagUpdate<S>>;

/// Epoch-stamped dirty-slot tracker, bucketed by plan layer. Reset() starts
/// a new round in O(used layers) without clearing the stamp array; Mark()
/// is O(1) (the plan's layer_of table). One frontier serves one plan shape
/// at a time but may be Reset() onto another plan.
class DirtyFrontier {
 public:
  /// Starts a new round over `plan`, forgetting all marks.
  void Reset(const EvalPlan& plan);
  /// Marks `slot` dirty; returns false when it already was this round.
  bool Mark(uint32_t slot);
  /// Slots marked in `layer` this round, in mark order.
  const std::vector<uint32_t>& LayerSlots(size_t layer) const {
    return by_layer_[layer];
  }
  /// Total slots marked this round.
  size_t num_marked() const { return num_marked_; }
  /// Highest layer holding a mark this round (0 when nothing is marked;
  /// internal gates always land in layers >= 1). Lets the propagation loop
  /// stop at the frontier's ceiling instead of sweeping every plan layer.
  size_t max_marked_layer() const { return max_marked_layer_; }

 private:
  size_t LayerOf(uint32_t slot) const;

  const EvalPlan* plan_ = nullptr;
  std::vector<uint32_t> epoch_of_;
  uint32_t epoch_ = 0;
  std::vector<std::vector<uint32_t>> by_layer_;
  std::vector<uint32_t> used_layers_;
  size_t num_marked_ = 0;
  size_t max_marked_layer_ = 0;
};

/// A materialized evaluation of one plan under one assignment: every slot's
/// value plus the assignment itself, ready for sparse updates. Obtain from
/// IncrementalEvaluator::Materialize; read outputs with StateOutputs.
template <Semiring S>
struct EvalState {
  std::vector<typename S::Value> assignment;  ///< current full tagging
  std::vector<SlotValue<S>> slots;            ///< value of every plan slot
  DirtyFrontier scratch;  ///< reused across updates; not part of the value
};

/// Semiring-class knobs for incremental propagation. The rewrite flags
/// mirror CircuitBuilder::Options / PassOptions and enable sound early
/// exits during gate recomputation (see RecomputeGate); they must match the
/// semiring the state is evaluated over — DeltaOptions::For<S>() reads them
/// off the semiring's traits.
struct DeltaOptions {
  bool plus_idempotent = false;  ///< permit the x (+) x = x early exit
  bool absorptive = false;       ///< permit the 1 (+) x = 1 early exit
  /// When the dirty set grows past this fraction of the plan's slots, stop
  /// propagating and re-run a full evaluation through the same plan (the
  /// per-gate bookkeeping would cost more than the straight sweep). >= 1
  /// disables the fallback.
  double max_dirty_fraction = 0.25;

  template <Semiring S>
  static DeltaOptions For() {
    DeltaOptions o;
    o.plus_idempotent = S::kIsIdempotent;
    o.absorptive = S::kIsAbsorptive;
    return o;
  }
};

/// What one Update did, for tests, benches, and serving telemetry.
struct DeltaStats {
  size_t recomputed = 0;       ///< gates re-evaluated (incl. input refreshes)
  size_t changed = 0;          ///< of those, gates whose value changed
  bool full_fallback = false;  ///< dirty cone blew the budget; full re-eval ran
};

namespace internal {
/// Obs hook for IncrementalEvaluator::Update — the recomputed-gates and
/// dirty-fraction distributions (parts-per-million of plan slots marked);
/// the recomputed histogram's count is the update count. Defined in delta.cc so the header-templated Update calls
/// one opaque function per update instead of inlining registry machinery
/// into every semiring instantiation; it early-outs while the default
/// registry is disabled.
void RecordUpdateObs(const DeltaStats& stats, size_t num_slots,
                     size_t num_marked);
}  // namespace internal

/// Recomputes one gate from current slot values, with the semiring-class
/// early exits `options` permits: 0 (x) x = 0 (universal), 1 (+) x = 1
/// (absorptive), x (+) x = x (plus-idempotent). The early exits skip the
/// semiring operation entirely, which matters for expensive value types
/// (provenance polynomials).
template <Semiring S>
SlotValue<S> RecomputeGate(const Gate& g, const std::vector<SlotValue<S>>& vals,
                           const std::vector<typename S::Value>& assignment,
                           const DeltaOptions& options) {
  switch (g.kind) {
    case GateKind::kZero:
      return static_cast<SlotValue<S>>(S::Zero());
    case GateKind::kOne:
      return static_cast<SlotValue<S>>(S::One());
    case GateKind::kInput:
      DLCIRC_CHECK_LT(g.a, assignment.size());
      return static_cast<SlotValue<S>>(assignment[g.a]);
    case GateKind::kPlus: {
      const SlotValue<S>& a = vals[g.a];
      const SlotValue<S>& b = vals[g.b];
      if (options.absorptive &&
          (S::Eq(a, S::One()) || S::Eq(b, S::One()))) {
        return static_cast<SlotValue<S>>(S::One());
      }
      if (options.plus_idempotent && S::Eq(a, b)) return a;
      return static_cast<SlotValue<S>>(S::Plus(a, b));
    }
    case GateKind::kTimes: {
      const SlotValue<S>& a = vals[g.a];
      const SlotValue<S>& b = vals[g.b];
      if (S::Eq(a, S::Zero()) || S::Eq(b, S::Zero())) {
        return static_cast<SlotValue<S>>(S::Zero());
      }
      return static_cast<SlotValue<S>>(S::Times(a, b));
    }
  }
  DLCIRC_CHECK(false) << "bad gate kind";
  return static_cast<SlotValue<S>>(S::Zero());
}

/// Reads the output values out of a materialized state (matching what
/// Evaluator::Evaluate would return for the state's assignment).
template <Semiring S>
std::vector<typename S::Value> StateOutputs(const EvalPlan& plan,
                                            const EvalState<S>& state) {
  DLCIRC_CHECK_EQ(state.slots.size(), plan.num_slots());
  std::vector<typename S::Value> out;
  out.reserve(plan.num_outputs());
  for (uint32_t s : plan.output_slots()) {
    out.push_back(static_cast<typename S::Value>(state.slots[s]));
  }
  return out;
}

/// Applies sparse tag deltas to materialized states. Holds a reference to a
/// full Evaluator for the initial materialization and the fallback path;
/// like the Evaluator itself, one IncrementalEvaluator may be used from one
/// thread at a time, while plans and options are freely shared.
class IncrementalEvaluator {
 public:
  explicit IncrementalEvaluator(const Evaluator& full,
                                DeltaOptions options = {})
      : full_(&full), options_(options) {
    DLCIRC_CHECK_GE(options_.max_dirty_fraction, 0.0);
    if (options_.absorptive) options_.plus_idempotent = true;
  }

  const DeltaOptions& options() const { return options_; }

  /// Full evaluation of `plan` under `assignment`, materialized for updates.
  template <Semiring S>
  EvalState<S> Materialize(const EvalPlan& plan,
                           std::vector<typename S::Value> assignment) const {
    EvalState<S> state;
    full_->EvaluateInto<S>(plan, assignment, &state.slots);
    state.assignment = std::move(assignment);
    return state;
  }

  /// Applies `delta` to `state` (assignment and slot values), propagating a
  /// dirty frontier through the plan's dependents index. After the call the
  /// state is exactly what Materialize would produce for the updated
  /// assignment; StateOutputs reads the refreshed outputs.
  template <Semiring S>
  DeltaStats Update(const EvalPlan& plan, EvalState<S>* state,
                    const TagDelta<S>& delta) const {
    DLCIRC_CHECK(state != nullptr);
    DLCIRC_CHECK_EQ(state->slots.size(), plan.num_slots());
    DeltaStats stats;
    DirtyFrontier& dirty = state->scratch;
    dirty.Reset(plan);
    auto& vals = state->slots;
    const std::vector<uint32_t>& dep_starts = plan.dep_starts();
    const std::vector<uint32_t>& dependents = plan.dependents();

    // Seed: apply the delta to the assignment, refresh the affected input
    // slots, and mark their consumers dirty. Unchanged values (and vars the
    // plan never reads) propagate nothing.
    for (const TagUpdate<S>& u : delta) {
      DLCIRC_CHECK_LT(u.var, state->assignment.size());
      if (S::Eq(state->assignment[u.var], u.value)) continue;
      state->assignment[u.var] = u.value;
      const size_t i = plan.InputVarIndex(u.var);
      if (i == plan.input_vars().size()) continue;
      for (uint32_t k = plan.var_starts()[i]; k < plan.var_starts()[i + 1];
           ++k) {
        const uint32_t s = plan.var_input_slots()[k];
        ++stats.recomputed;
        if (S::Eq(static_cast<typename S::Value>(vals[s]), u.value)) continue;
        vals[s] = static_cast<SlotValue<S>>(u.value);
        ++stats.changed;
        for (uint32_t d = dep_starts[s]; d < dep_starts[s + 1]; ++d) {
          dirty.Mark(dependents[d]);
        }
      }
    }

    // Propagate layer by layer. Every dependent lives in a strictly higher
    // layer than its children, so when layer L is processed all changed
    // children are final; a gate recomputing to its old value stops its
    // branch of the propagation dead.
    const size_t budget =
        options_.max_dirty_fraction >= 1.0
            ? std::numeric_limits<size_t>::max()
            : static_cast<size_t>(options_.max_dirty_fraction *
                                  static_cast<double>(plan.num_slots()));
    const std::vector<Gate>& gates = plan.gates();
    // The bound re-reads max_marked_layer() every iteration: processing a
    // layer pushes marks upward, raising the ceiling as the wave climbs. An
    // update whose frontier dies early never visits the layers above it.
    for (size_t l = 1; l <= dirty.max_marked_layer(); ++l) {
      if (dirty.num_marked() > budget) {
        stats.full_fallback = true;
        full_->EvaluateInto<S>(plan, state->assignment, &state->slots);
        internal::RecordUpdateObs(stats, plan.num_slots(),
                                  dirty.num_marked());
        return stats;
      }
      for (uint32_t s : dirty.LayerSlots(l)) {
        ++stats.recomputed;
        SlotValue<S> nv =
            RecomputeGate<S>(gates[s], vals, state->assignment, options_);
        if (S::Eq(static_cast<typename S::Value>(vals[s]),
                  static_cast<typename S::Value>(nv))) {
          continue;
        }
        vals[s] = std::move(nv);
        ++stats.changed;
        for (uint32_t d = dep_starts[s]; d < dep_starts[s + 1]; ++d) {
          dirty.Mark(dependents[d]);
        }
      }
    }
    internal::RecordUpdateObs(stats, plan.num_slots(), dirty.num_marked());
    return stats;
  }

 private:
  const Evaluator* full_;
  DeltaOptions options_;
};

}  // namespace eval
}  // namespace dlcirc

#endif  // DLCIRC_EVAL_DELTA_H_
