#include "src/eval/delta.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace dlcirc {
namespace eval {

void DirtyFrontier::Reset(const EvalPlan& plan) {
  plan_ = &plan;
  if (epoch_of_.size() != plan.num_slots()) {
    epoch_of_.assign(plan.num_slots(), 0);
    epoch_ = 0;
  }
  if (by_layer_.size() < plan.num_layers()) by_layer_.resize(plan.num_layers());
  for (uint32_t l : used_layers_) by_layer_[l].clear();
  used_layers_.clear();
  num_marked_ = 0;
  max_marked_layer_ = 0;
  if (++epoch_ == 0) {
    // Epoch counter wrapped: the stamps are ambiguous, start clean.
    epoch_of_.assign(epoch_of_.size(), 0);
    epoch_ = 1;
  }
}

bool DirtyFrontier::Mark(uint32_t slot) {
  DLCIRC_CHECK_LT(slot, epoch_of_.size());
  if (epoch_of_[slot] == epoch_) return false;
  epoch_of_[slot] = epoch_;
  ++num_marked_;
  const size_t layer = LayerOf(slot);
  if (by_layer_[layer].empty()) {
    used_layers_.push_back(static_cast<uint32_t>(layer));
  }
  by_layer_[layer].push_back(slot);
  max_marked_layer_ = std::max(max_marked_layer_, layer);
  return true;
}

size_t DirtyFrontier::LayerOf(uint32_t slot) const {
  return plan_->layer_of()[slot];
}

namespace internal {

void RecordUpdateObs(const DeltaStats& stats, size_t num_slots,
                     size_t num_marked) {
  obs::Registry& reg = obs::Registry::Default();
  if (!reg.enabled()) return;
  static obs::Histogram& dirty_ppm = reg.GetHistogram(
      "dlcirc_delta_dirty_ppm", "",
      "Plan slots marked dirty per update, parts per million");
  static obs::Histogram& recomputed = reg.GetHistogram(
      "dlcirc_delta_recomputed", "", "Gates re-evaluated per update");
  if (num_slots > 0) {
    dirty_ppm.Record(static_cast<uint64_t>(num_marked) * 1000000 / num_slots);
  }
  recomputed.Record(stats.recomputed);
}

}  // namespace internal

}  // namespace eval
}  // namespace dlcirc
