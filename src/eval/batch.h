// Batched evaluation: one EvalPlan, B assignments at once.
//
// This is the "millions of users" story: many concurrent queries share one
// provenance circuit and differ only in their EDB tagging, so the topology
// walk (gate dispatch, layer scheduling, memory traffic over the plan) is
// paid once per batch instead of once per query. Values live in
// structure-of-arrays rows — vals[row * B + b] — so the inner loop over
// the batch is a tight, contiguous sweep, walked in fixed-width lane blocks.
//
// Batch buffers hold rows, not slots: a sweep keeps only the values still
// to be read (EvalPlan::row_of), so a plan of millions of slots sweeps a
// buffer sized by its widest live set, and only outputs are readable
// afterwards. Callers that need every slot (lane states, which serve delta
// updates and explains) evaluate one lane at a time with
// Evaluator::EvaluateInto instead.
//
// Parallelism composes with the Evaluator: wide layers are split across the
// worker pool exactly as in single-assignment evaluation, with thresholds
// scaled by the batch size. All kernels here run Evaluator::Sweep.
#ifndef DLCIRC_EVAL_BATCH_H_
#define DLCIRC_EVAL_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/eval/evaluator.h"
#include "src/semiring/semiring.h"
#include "src/util/check.h"

namespace dlcirc {
namespace eval {

/// B assignments in variable-major SoA layout: value of variable v in batch
/// lane b at values[v * batch_size + b].
template <Semiring S>
struct BatchAssignment {
  size_t batch_size = 0;
  std::vector<typename S::Value> values;  // num_vars * batch_size

  /// Transposes per-query assignment vectors (each of length >= num_vars)
  /// into SoA form. All assignments must cover [0, num_vars).
  static BatchAssignment Pack(
      const std::vector<std::vector<typename S::Value>>& assignments,
      uint32_t num_vars) {
    return PackRange(assignments, 0, assignments.size(), num_vars);
  }

  /// Packs lanes [start, start + count) of `assignments` directly — no
  /// intermediate copy of the lane vectors (used by SweepInTiles).
  static BatchAssignment PackRange(
      const std::vector<std::vector<typename S::Value>>& assignments,
      size_t start, size_t count, uint32_t num_vars) {
    DLCIRC_CHECK_GT(count, 0u) << "empty batch";
    DLCIRC_CHECK_LE(start + count, assignments.size());
    BatchAssignment batch;
    batch.batch_size = count;
    batch.values.assign(static_cast<size_t>(num_vars) * count, S::Zero());
    for (size_t b = 0; b < count; ++b) {
      DLCIRC_CHECK_LE(num_vars, assignments[start + b].size());
      for (uint32_t v = 0; v < num_vars; ++v) {
        batch.values[static_cast<size_t>(v) * count + b] =
            assignments[start + b][v];
      }
    }
    return batch;
  }
};

/// Evaluates `plan` under all lanes of `batch` at once. `slots` ends up
/// holding plan.num_rows() rows of batch_size values, row-major: lane b of
/// slot s was written to (*slots)[plan.row_of()[s] * batch_size + b], and
/// rows are reused once their last reader has run, so only outputs survive
/// the sweep: output k of lane b is at
/// (*slots)[plan.output_row(k) * batch_size + b]. The buffer is resized,
/// never cleared.
template <Semiring S>
void EvaluateBatchInto(const Evaluator& evaluator, const EvalPlan& plan,
                       const BatchAssignment<S>& batch,
                       std::vector<SlotValue<S>>* slots) {
  const size_t B = batch.batch_size;
  DLCIRC_CHECK_GT(B, 0u);
  DLCIRC_CHECK_LE(static_cast<size_t>(plan.num_vars()) * B,
                  batch.values.size());
  slots->resize(plan.num_rows() * B);
  evaluator.Sweep<S, 0, RowMap::kCompact>(plan, batch.values, B,
                                          slots->data());
}

/// Byte budget of one batch sweep's buffer, shared by every tiled caller
/// (batch evaluation and serving). Beyond it lanes are swept in tiles, each
/// re-walking the shared plan. On wide plans of 75k to 373k live rows,
/// 64-lane sweeps in 32 MB tiles measured within run-to-run spread of one
/// 256 MB sweep, or faster (BENCH_sweep.json, "tile_budget").
inline constexpr size_t kTileBudgetBytes = size_t{32} << 20;

/// The one tile rule: sweeps `assignments` through `plan` in as few tiles
/// as fit `budget_bytes` (at least one lane each) and after each tile calls
/// consume(start, lanes, *buffer) with lanes [start, start + lanes) laid
/// out as EvaluateBatchInto documents. Tiles are as even as the lane count
/// allows: a short last tile would pay a whole plan walk for a few lanes.
template <Semiring S, typename Consume>
void SweepInTiles(const Evaluator& evaluator, const EvalPlan& plan,
                  const std::vector<std::vector<typename S::Value>>& assignments,
                  size_t budget_bytes, std::vector<SlotValue<S>>* buffer,
                  Consume&& consume) {
  const size_t B = assignments.size();
  DLCIRC_CHECK_GT(B, 0u);
  const size_t lane_bytes =
      std::max<size_t>(1, plan.num_rows() * sizeof(SlotValue<S>));
  const size_t widest = std::clamp<size_t>(budget_bytes / lane_bytes, 1, B);
  const size_t tiles = (B + widest - 1) / widest;
  const size_t tile = (B + tiles - 1) / tiles;
  for (size_t start = 0; start < B; start += tile) {
    const size_t lanes = std::min(tile, B - start);
    BatchAssignment<S> batch =
        BatchAssignment<S>::PackRange(assignments, start, lanes, plan.num_vars());
    EvaluateBatchInto<S>(evaluator, plan, batch, buffer);
    consume(start, lanes, *buffer);
  }
}

/// Convenience wrapper: evaluates and returns per-lane output vectors,
/// result[b][k] = value of output k under assignment b (matching what
/// Circuit::Evaluate would return for assignment b). Lanes are swept in
/// tiles within `tile_budget_bytes` (SweepInTiles).
template <Semiring S>
std::vector<std::vector<typename S::Value>> EvaluateBatch(
    const Evaluator& evaluator, const EvalPlan& plan,
    const std::vector<std::vector<typename S::Value>>& assignments,
    size_t tile_budget_bytes = kTileBudgetBytes) {
  std::vector<std::vector<typename S::Value>> out(assignments.size());
  for (auto& lane : out) lane.reserve(plan.num_outputs());
  std::vector<SlotValue<S>> buffer;
  SweepInTiles<S>(
      evaluator, plan, assignments, tile_budget_bytes, &buffer,
      [&](size_t start, size_t lanes, const std::vector<SlotValue<S>>& vals) {
        for (size_t k = 0; k < plan.num_outputs(); ++k) {
          const size_t row = plan.output_row(k);
          for (size_t b = 0; b < lanes; ++b) {
            out[start + b].push_back(
                static_cast<typename S::Value>(vals[row * lanes + b]));
          }
        }
      });
  return out;
}

namespace internal {

/// The Boolean semiring on 64 lanes at once, one lane per bit of a word:
/// (+) is bitwise OR and (x) is bitwise AND.
struct BitLanes {
  using Value = uint64_t;
  static Value Zero() { return 0; }
  static Value One() { return ~uint64_t{0}; }
  static Value Plus(Value a, Value b) { return a | b; }
  static Value Times(Value a, Value b) { return a & b; }
};

}  // namespace internal

/// Boolean batches taken to the SoA limit: 64 lanes per machine word. Lane b
/// of slot s lives in bit (b % 64) of word vals[row * W + b / 64] with
/// W = ceil(B / 64) and row = plan.row_of()[s], so (+) is bitwise OR and (x)
/// is bitwise AND — one word op evaluates a gate under 64 taggings at once.
/// Returns result[b][k] = value of output k under assignment b, matching
/// Circuit::Evaluate. Bits past lane B-1 are garbage; only the first B bits
/// are ever unpacked.
inline std::vector<std::vector<bool>> EvaluateBooleanBitBatch(
    const Evaluator& evaluator, const EvalPlan& plan,
    const std::vector<std::vector<bool>>& assignments) {
  const size_t B = assignments.size();
  DLCIRC_CHECK_GT(B, 0u);
  const size_t W = (B + 63) / 64;
  // Pack assignments variable-major: word w of variable v at in[v * W + w].
  std::vector<uint64_t> in(static_cast<size_t>(plan.num_vars()) * W, 0);
  for (size_t b = 0; b < B; ++b) {
    DLCIRC_CHECK_LE(plan.num_vars(), assignments[b].size());
    const uint64_t bit = 1ULL << (b % 64);
    for (uint32_t v = 0; v < plan.num_vars(); ++v) {
      if (assignments[b][v]) in[static_cast<size_t>(v) * W + b / 64] |= bit;
    }
  }
  auto vals = std::make_unique_for_overwrite<uint64_t[]>(plan.num_rows() * W);
  evaluator.Sweep<internal::BitLanes, 0, RowMap::kCompact>(plan, in, W,
                                                           vals.get());
  std::vector<std::vector<bool>> out(B,
                                     std::vector<bool>(plan.num_outputs()));
  for (size_t k = 0; k < plan.num_outputs(); ++k) {
    const size_t row = static_cast<size_t>(plan.output_row(k)) * W;
    for (size_t b = 0; b < B; ++b) {
      out[b][k] = (vals[row + b / 64] >> (b % 64)) & 1;
    }
  }
  return out;
}

}  // namespace eval
}  // namespace dlcirc

#endif  // DLCIRC_EVAL_BATCH_H_
