// Batched, parallel circuit evaluation engine.
//
// The seed Circuit::Evaluate walks the whole arena single-threaded for one
// assignment at a time. This subsystem splits evaluation into a precomputed
// EvalPlan (output-cone compaction + topological layering, done once per
// circuit) and an Evaluator that executes plans either serially or with a
// persistent worker pool that parallelizes within each layer. All gates in
// one layer depend only on gates in strictly earlier layers, so a layer can
// be evaluated in parallel with no synchronization beyond a barrier between
// layers. See src/eval/README.md for the architecture and batch.h for the
// structure-of-arrays batch API built on top of the same plans.
#ifndef DLCIRC_EVAL_EVALUATOR_H_
#define DLCIRC_EVAL_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/semiring/semiring.h"
#include "src/util/check.h"

namespace dlcirc {
namespace eval {

/// A circuit compiled for repeated evaluation: gates restricted to the
/// output cone, renumbered into dense "slots", and grouped into topological
/// layers. Slot ids are layer-ordered: layer L occupies the contiguous slot
/// range [layer_starts()[L], layer_starts()[L+1]), and every child of a gate
/// in layer L lives in a layer < L. Plans are immutable and cheap to share
/// across threads and batches.
class EvalPlan {
 public:
  /// Compiles `circuit` into a plan. O(gates) time and memory.
  static EvalPlan Build(const Circuit& circuit);

  /// Cone gates, slot-indexed; children of kPlus/kTimes are slot ids.
  const std::vector<Gate>& gates() const { return gates_; }
  /// Layer boundaries (size num_layers()+1); layer L is slots
  /// [layer_starts()[L], layer_starts()[L+1]).
  const std::vector<uint32_t>& layer_starts() const { return layer_starts_; }
  /// Slot of each circuit output, in the circuit's output order.
  const std::vector<uint32_t>& output_slots() const { return output_slots_; }

  /// Reverse adjacency in CSR layout: the slots that read slot s as a child
  /// are dependents()[dep_starts()[s] .. dep_starts()[s+1]). A gate with
  /// both children equal to s appears twice. Dependents always live in a
  /// strictly higher layer than s. This is what incremental re-evaluation
  /// (src/eval/delta.h) walks to push a dirty frontier upward.
  const std::vector<uint32_t>& dep_starts() const { return dep_starts_; }
  const std::vector<uint32_t>& dependents() const { return dependents_; }

  /// Input-slot index in CSR layout over the variables the plan reads:
  /// input_vars() lists them in ascending order, and the kInput slots
  /// reading input_vars()[i] are
  /// var_input_slots()[var_starts()[i] .. var_starts()[i+1]), in slot order.
  /// Keyed by the variables read rather than by variable id, the index is
  /// sized by the plan's input slots whatever the ids are, so a snapshot's
  /// 4-byte variable fields cannot make Build allocate past the file's
  /// gates. (The builder dedups inputs, so each list usually has one entry,
  /// but plans built from arbitrary arenas may carry duplicates.)
  const std::vector<uint32_t>& input_vars() const { return input_vars_; }
  const std::vector<uint32_t>& var_starts() const { return var_starts_; }
  const std::vector<uint32_t>& var_input_slots() const { return var_input_slots_; }
  /// Position of variable v in input_vars(), or input_vars().size() when no
  /// slot reads v. O(log input_vars()).
  size_t InputVarIndex(uint32_t v) const;

  /// Layer of each slot (the inverse of layer_starts, O(1) per lookup; the
  /// dirty-frontier hot path in src/eval/delta.h cannot afford a binary
  /// search per marked gate).
  const std::vector<uint32_t>& layer_of() const { return layer_of_; }

  /// Buffer row of each slot in a compact sweep (RowMap::kCompact), which
  /// holds only the values still to be read. A slot's row is released after
  /// the last layer that reads it and reused from the next layer on, so no
  /// gate writes a row that a gate of its own layer still reads; rows of
  /// output slots are never released.
  const std::vector<uint32_t>& row_of() const { return row_of_; }
  /// Row of output k (in the circuit's output order) in a compact sweep.
  uint32_t output_row(size_t k) const { return row_of_[output_slots_[k]]; }
  /// Rows a compact sweep holds: the peak number of live values.
  size_t num_rows() const { return num_rows_; }

  size_t num_slots() const { return gates_.size(); }
  size_t num_layers() const { return layer_starts_.size() - 1; }
  size_t num_outputs() const { return output_slots_.size(); }
  /// The circuit's input space: valid variable ids are [0, num_vars()).
  uint32_t num_vars() const { return num_vars_; }
  /// Widest layer (max gates evaluable concurrently).
  size_t max_layer_width() const { return max_layer_width_; }

 private:
  /// Fills row_of_ and num_rows_ from the gates, layers and outputs (see
  /// row_of()).
  void DeriveRows();

  std::vector<Gate> gates_;
  std::vector<uint32_t> layer_starts_ = {0};
  std::vector<uint32_t> output_slots_;
  std::vector<uint32_t> dep_starts_ = {0};
  std::vector<uint32_t> dependents_;
  std::vector<uint32_t> input_vars_;
  std::vector<uint32_t> var_starts_ = {0};
  std::vector<uint32_t> var_input_slots_;
  std::vector<uint32_t> layer_of_;
  std::vector<uint32_t> row_of_;
  uint32_t num_vars_ = 0;
  size_t max_layer_width_ = 0;
  size_t num_rows_ = 0;
};

/// Where a sweep stores each slot's value.
enum class RowMap {
  kEverySlot,  ///< row = slot: every value stays readable after the sweep
  kCompact,    ///< row = plan.row_of()[slot]: only outputs stay readable
};

namespace internal {

/// Runtime-width lane loops advance in blocks of this many lanes, so the
/// per-gate inner loop has a fixed trip count the compiler unrolls.
inline constexpr size_t kLaneBlock = 8;

/// Calls f(b) for every lane b < width. kWidth > 0 fixes the width at
/// compile time; kWidth == 0 walks `width` in kLaneBlock blocks plus a tail.
template <size_t kWidth, typename F>
inline void ForEachLane(size_t width, F&& f) {
  if constexpr (kWidth > 0) {
    for (size_t b = 0; b < kWidth; ++b) f(b);
  } else {
    size_t b = 0;
    for (; b + kLaneBlock <= width; b += kLaneBlock) {
      for (size_t k = 0; k < kLaneBlock; ++k) f(b + k);
    }
    for (; b < width; ++b) f(b);
  }
}

}  // namespace internal

/// Element type of the per-slot scratch buffers. For bool-valued semirings
/// this widens to unsigned char: std::vector<bool> packs 64 elements per
/// word, so concurrent workers writing *different* slots of one layer would
/// race on the shared word. One byte per slot gives every slot its own
/// memory location. (Batch lanes of 64 bools per word live in
/// EvaluateBooleanBitBatch, where one thread owns the whole word.)
template <Semiring S>
using SlotValue =
    std::conditional_t<std::is_same_v<typename S::Value, bool>, unsigned char,
                       typename S::Value>;

struct EvalOptions {
  /// Worker threads including the calling thread; 0 = hardware concurrency.
  int num_threads = 0;
  /// Plans with fewer value-ops than this are evaluated serially (the
  /// layer-barrier overhead would dominate). Measured in gate-evaluations,
  /// i.e. num_slots * batch_size.
  size_t min_parallel_work = 1 << 14;
  /// Minimum value-ops handed to a worker at once within a layer.
  size_t min_work_per_chunk = 1 << 11;
};

/// Executes EvalPlans. Owns a persistent worker pool (created lazily on the
/// first parallel evaluation) so repeated evaluations don't pay thread
/// startup. An Evaluator with num_threads == 1 never spawns threads.
/// Evaluate/EvaluateInto may be called from one thread at a time per
/// Evaluator instance; plans may be shared freely.
class Evaluator {
 public:
  explicit Evaluator(EvalOptions options = {});
  ~Evaluator();

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Resolved thread count (>= 1).
  int num_threads() const { return num_threads_; }

  /// Evaluates all outputs of `plan` under `assignment` (one value per
  /// variable id, as in Circuit::Evaluate).
  template <Semiring S>
  std::vector<typename S::Value> Evaluate(
      const EvalPlan& plan,
      const std::vector<typename S::Value>& assignment) const {
    std::vector<SlotValue<S>> slots;
    EvaluateInto<S>(plan, assignment, &slots);
    std::vector<typename S::Value> out;
    out.reserve(plan.num_outputs());
    for (uint32_t s : plan.output_slots()) {
      out.push_back(static_cast<typename S::Value>(slots[s]));
    }
    return out;
  }

  /// Evaluates into a caller-owned per-slot buffer (resized to
  /// plan.num_slots()); reusing the buffer across calls avoids
  /// reallocation on hot paths. Keeps every slot's value: lane states,
  /// delta updates and explains read interior slots.
  template <Semiring S>
  void EvaluateInto(const EvalPlan& plan,
                    const std::vector<typename S::Value>& assignment,
                    std::vector<SlotValue<S>>* slots) const {
    slots->resize(plan.num_slots());
    Sweep<S, 1, RowMap::kEverySlot>(plan, assignment, 1, slots->data());
  }

  /// The engine's one per-gate kernel, shared by EvaluateInto and the batch
  /// sweeps of batch.h. Evaluates every slot of `plan` in topological order
  /// over `Ops` (a semiring, or any type with its Zero/One/Plus/Times),
  /// storing lane b of slot s at vals[row * width + b], where row is s under
  /// RowMap::kEverySlot and plan.row_of()[s] under RowMap::kCompact; `vals`
  /// must hold num_slots() or num_rows() rows of `width` elements
  /// respectively. Lane b of variable v is read from in[v * width + b].
  /// kWidth > 0 fixes `width` at compile time, and a runtime width of 1
  /// runs as kWidth = 1. Every row is written before it is read, so `vals`
  /// needs no initialization.
  template <typename Ops, size_t kWidth, RowMap kRows, typename T,
            typename In>
  void Sweep(const EvalPlan& plan, const In& in, size_t width, T* vals) const {
    // A one-element row (a single lane, or one 64-lane word) costs less
    // than the runtime-width loop's setup around it: on a 345k-slot
    // Bellman-Ford plan, on a 4-vCPU Xeon, the fixed width measured about
    // 30% less per single-lane Tropical sweep and 40% less per 16-lane bit
    // sweep (BENCH_sweep.json, "narrow_rows").
    if constexpr (kWidth == 0) {
      if (width == 1) return Sweep<Ops, 1, kRows>(plan, in, 1, vals);
    }
    ForEachLayer(plan, width, [&](size_t begin, size_t end) {
      // Locals, not captures: a store through `out` may alias a captured
      // size_t, which would force a reload of the width on every gate.
      const Gate* const gates = plan.gates().data();
      const uint32_t* const row_of = plan.row_of().data();
      const size_t w = kWidth > 0 ? kWidth : width;
      T* const base = vals;
      auto row = [=](size_t s) -> T* {
        const size_t r = kRows == RowMap::kCompact ? row_of[s] : s;
        return base + r * w;
      };
      for (size_t i = begin; i < end; ++i) {
        const Gate& g = gates[i];
        T* __restrict out = row(i);
        switch (g.kind) {
          case GateKind::kZero:
            internal::ForEachLane<kWidth>(
                w, [&](size_t b) { out[b] = static_cast<T>(Ops::Zero()); });
            break;
          case GateKind::kOne:
            internal::ForEachLane<kWidth>(
                w, [&](size_t b) { out[b] = static_cast<T>(Ops::One()); });
            break;
          case GateKind::kInput: {
            const size_t src = static_cast<size_t>(g.a) * w;
            DLCIRC_CHECK_LE(src + w, in.size());
            internal::ForEachLane<kWidth>(
                w, [&](size_t b) { out[b] = static_cast<T>(in[src + b]); });
            break;
          }
          case GateKind::kPlus: {
            const T* __restrict x = row(g.a);
            const T* __restrict y = row(g.b);
            internal::ForEachLane<kWidth>(w, [&](size_t b) {
              out[b] = static_cast<T>(Ops::Plus(x[b], y[b]));
            });
            break;
          }
          case GateKind::kTimes: {
            const T* __restrict x = row(g.a);
            const T* __restrict y = row(g.b);
            internal::ForEachLane<kWidth>(w, [&](size_t b) {
              out[b] = static_cast<T>(Ops::Times(x[b], y[b]));
            });
            break;
          }
        }
      }
    });
  }

  /// Runs `eval_range(begin, end)` over every slot of `plan` in topological
  /// order: serially in one call when the plan is small (or the evaluator is
  /// single-threaded), otherwise layer by layer with wide layers split
  /// across the worker pool. `work_per_gate` scales the parallelism
  /// thresholds (batch evaluation passes its batch size). This is the
  /// scheduling core of Sweep. A layer's ranges may run concurrently, and
  /// the barrier after each layer is what orders a row's last read before
  /// a later layer rewrites it.
  void ForEachLayer(const EvalPlan& plan, size_t work_per_gate,
                    const std::function<void(size_t, size_t)>& eval_range) const;

 private:
  class Pool;

  /// Splits [begin, end) into chunks of >= `grain` and runs `fn` on them
  /// across the pool (caller participates). Blocks until all chunks finish.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn) const;

  EvalOptions options_;
  int num_threads_;
  mutable std::unique_ptr<Pool> pool_;  // lazily created
};

}  // namespace eval
}  // namespace dlcirc

#endif  // DLCIRC_EVAL_EVALUATOR_H_
