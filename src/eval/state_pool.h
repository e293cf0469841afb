// Pooled evaluation scratch for concurrent serving (src/serve).
//
// Every coalesced batch sweep needs a value buffer of num_rows * batch_size
// elements: it holds the plan's live rows only (EvalPlan::row_of), since a
// burst's responses read outputs alone. A server dispatching coalesced
// batches would otherwise allocate that buffer on every burst; the pool
// keeps returned buffers (capacity intact) on a free list so steady-state
// serving reuses warm memory. The same pool hands out whole EvalState<S>
// objects for lane materialization. Those keep every slot, because lanes
// serve delta updates and explains that read interior values, so their slot
// vectors dominate the pool's footprint.
//
// Thread safety: Acquire/Release are mutex-guarded and safe from any thread;
// the handed-out buffer itself is exclusively the caller's until released.
// RAII handles return buffers on scope exit, including on early error paths.
#ifndef DLCIRC_EVAL_STATE_POOL_H_
#define DLCIRC_EVAL_STATE_POOL_H_

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/semiring/semiring.h"

namespace dlcirc {
namespace eval {

/// A thread-safe free list of T (vectors or EvalStates). Released objects
/// keep their heap capacity; Acquire prefers the most recently released
/// object (warmest cache). The pool is bounded: releases beyond `max_idle`
/// free the object instead of growing the list without limit.
template <typename T>
class ObjectPool {
 public:
  explicit ObjectPool(size_t max_idle = 16) : max_idle_(max_idle) {}

  /// An exclusively-owned object that returns to the pool on destruction.
  class Handle {
   public:
    Handle() = default;
    Handle(ObjectPool* pool, T object)
        : pool_(pool), object_(std::move(object)), live_(true) {}
    Handle(Handle&& o) noexcept { *this = std::move(o); }
    Handle& operator=(Handle&& o) noexcept {
      Reset();
      pool_ = o.pool_;
      object_ = std::move(o.object_);
      live_ = o.live_;
      o.live_ = false;
      return *this;
    }
    ~Handle() { Reset(); }

    T& operator*() { return object_; }
    T* operator->() { return &object_; }

   private:
    void Reset() {
      if (live_) pool_->Release(std::move(object_));
      live_ = false;
    }
    ObjectPool* pool_ = nullptr;
    T object_{};
    bool live_ = false;
  };

  Handle Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.empty()) return Handle(this, T{});
    T object = std::move(idle_.back());
    idle_.pop_back();
    return Handle(this, std::move(object));
  }

  size_t num_idle() const {
    std::lock_guard<std::mutex> lock(mu_);
    return idle_.size();
  }

 private:
  void Release(T object) {
    std::lock_guard<std::mutex> lock(mu_);
    if (idle_.size() < max_idle_) idle_.push_back(std::move(object));
  }

  mutable std::mutex mu_;
  size_t max_idle_;
  std::vector<T> idle_;
};

/// Per-semiring scratch pools for one serving channel: row-major batch
/// buffers (EvaluateBatchInto targets, compact rows) and materialized
/// EvalStates (lane storage, every slot). Dispatcher threads share one
/// EvalStatePool per channel.
template <Semiring S>
struct EvalStatePool {
  ObjectPool<std::vector<SlotValue<S>>> batch_buffers;
  ObjectPool<EvalState<S>> states;
};

}  // namespace eval
}  // namespace dlcirc

#endif  // DLCIRC_EVAL_STATE_POOL_H_
