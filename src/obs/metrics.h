// Observability metrics: latency and size histograms.
//
// The serving stack (src/serve), the pipeline (src/pipeline), and the eval
// engine (src/eval) record distributions into one process-wide Registry.
// Counts and levels do not live here: each owner keeps them in its own
// always-on stats (serve::ServerStats, PlanStoreStats, NetStats), and
// src/serve renders those beside this registry's exposition, so every event
// is counted in one place. The design constraints, in order:
//
//   1. Near-zero cost while disabled. Every Record starts with one relaxed
//      atomic load of the registry's enable flag and branches away; no
//      clock is read, no cache line is written. The registry starts
//      disabled, so a library user who never opts in pays a predictable,
//      branch-predicted test per instrumentation point and nothing else
//      (measured in EXPERIMENTS.md E16).
//   2. Lock-free on the hot path while enabled. Histograms use relaxed
//      atomic bucket adds (bucket contention is spread by the value
//      distribution itself). Reads (Snapshot, RenderPrometheus) sum over
//      buckets and may observe a torn *set* of concurrent updates — each
//      individual update is atomic and none is lost, which is the usual
//      monitoring contract.
//   3. Quantiles without samples. Histograms are log-bucketed (8 sub-buckets
//      per power of two): values 0..15 are exact, larger values land in a
//      bucket whose width is 1/8 of its magnitude, so any nearest-rank
//      quantile extracted from the buckets is within ~6.25% of the exact
//      sample quantile (the bucket-midpoint error bound; tests/obs_test.cc
//      asserts it on randomized distributions). Bucket arrays are a few KB,
//      mergeable across threads and processes, and never grow.
//
// Metric identity is (name, labels): `GetHistogram("dlcirc_serve_batch_size",
// "channel=\"tropical/grounded\"")`. GetHistogram registers on first use and
// returns a stable reference; hot paths resolve once and keep the reference.
// RenderPrometheus emits the text exposition format (histograms as summaries
// with p50/p90/p99 quantile lines).
//
// No dependencies outside src/util; src/eval, src/pipeline, and src/serve
// depend on this module, never the reverse.
#ifndef DLCIRC_OBS_METRICS_H_
#define DLCIRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dlcirc {
namespace obs {

/// Monotonic wall time in nanoseconds (steady clock; process-relative
/// origin). The one clock every obs timestamp and duration comes from.
uint64_t NowNs();

/// Dense small id for the calling thread (0, 1, 2, ... in first-call order).
/// Labels trace events; stable for the thread's life.
uint32_t ThreadIndex();

/// The log-bucket layout shared by Histogram (atomic) and LocalHistogram
/// (plain). Values 0..2*kSubBuckets-1 get one exact bucket each; beyond
/// that, each power-of-two octave splits into kSubBuckets equal buckets, so
/// bucket width never exceeds 1/kSubBuckets of the bucket's lower bound.
struct BucketLayout {
  static constexpr uint32_t kSubBucketBits = 3;
  static constexpr uint32_t kSubBuckets = 1u << kSubBucketBits;  // 8
  /// Exact region: values < 2*kSubBuckets map to themselves.
  static constexpr uint32_t kExact = 2 * kSubBuckets;  // 16
  /// Octaves above the exact region for 64-bit values: bit widths
  /// kSubBucketBits+2 .. 64, one octave each.
  static constexpr uint32_t kNumBuckets =
      kExact + (64 - (kSubBucketBits + 1)) * kSubBuckets;  // 496

  static uint32_t Index(uint64_t v) {
    if (v < kExact) return static_cast<uint32_t>(v);
    // Highest kSubBucketBits+1 significant bits pick (octave, sub-bucket).
    const uint32_t bits = 64 - static_cast<uint32_t>(__builtin_clzll(v));
    const uint32_t shift = bits - (kSubBucketBits + 1);
    const uint32_t top = static_cast<uint32_t>(v >> shift);  // in [8, 16)
    return kExact + (bits - (kSubBucketBits + 2)) * kSubBuckets +
           (top - kSubBuckets);
  }

  /// Inclusive lower bound of bucket i.
  static uint64_t LowerBound(uint32_t i) {
    if (i < kExact) return i;
    const uint32_t k = i - kExact;
    const uint32_t octave = k / kSubBuckets;  // 0 = values [16, 32)
    const uint32_t sub = k % kSubBuckets;
    return static_cast<uint64_t>(kSubBuckets + sub) << (octave + 1);
  }

  /// Representative value reported for bucket i: the exact value in the
  /// exact region, the bucket midpoint above it (error <= width/2, i.e.
  /// <= 1/(2*kSubBuckets) of the true value).
  static uint64_t Representative(uint32_t i) {
    if (i < kExact) return i;
    const uint32_t octave = (i - kExact) / kSubBuckets;
    const uint64_t width = static_cast<uint64_t>(1) << (octave + 1);
    return LowerBound(i) + width / 2;
  }
};

/// Plain (single-threaded) histogram over the shared bucket layout: the
/// merge/quantile arithmetic, used directly by bench binaries and as the
/// read-side snapshot of the atomic Histogram. Copyable.
class LocalHistogram {
 public:
  void Record(uint64_t value) {
    ++buckets_[BucketLayout::Index(value)];
    ++count_;
    sum_ += value;
    if (value > max_) max_ = value;
  }
  void Merge(const LocalHistogram& other) {
    for (uint32_t i = 0; i < BucketLayout::kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.max_ > max_) max_ = other.max_;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Nearest-rank quantile: the representative of the bucket holding the
  /// ceil(q * count)-th smallest sample (rank clamped to [1, count]); 0 when
  /// empty. With q = 0.5 and two samples this reports the *first* — the
  /// standard nearest-rank convention, exact for every sample the bucket
  /// layout stores exactly (values < 16) and within the layout's relative
  /// error bound above it.
  uint64_t Quantile(double q) const;

 private:
  friend class Histogram;  // Snapshot() fills the arrays directly
  std::array<uint64_t, BucketLayout::kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

/// Thread-safe histogram: relaxed atomic bucket adds, snapshot reads.
/// Typical unit: nanoseconds (latencies) or plain counts (batch widths).
class Histogram {
 public:
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  void Record(uint64_t value) {
    if (!enabled()) return;
    buckets_[BucketLayout::Index(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev && !max_.compare_exchange_weak(
                               prev, value, std::memory_order_relaxed)) {
    }
  }

  /// Records NowNs() - start_ns when start_ns is a real timestamp; the 0
  /// sentinel means "the enable check already failed when the clock would
  /// have been read" and records nothing. Pairs with StartTimeNs().
  void RecordSince(uint64_t start_ns) {
    if (start_ns != 0) Record(NowNs() - start_ns);
  }
  /// NowNs() when this histogram is enabled, else the 0 sentinel — the
  /// pattern that keeps clock reads off the disabled path.
  uint64_t StartTimeNs() const { return enabled() ? NowNs() : 0; }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Coherent-enough copy for quantile math (see file comment on torn sets).
  LocalHistogram Snapshot() const;

 private:
  friend class Registry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::array<std::atomic<uint64_t>, BucketLayout::kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// RAII latency timer: reads the clock only when `h` is enabled at
/// construction, records the elapsed ns at destruction (or at Stop(), for
/// timing a prefix of the scope, e.g. a lock acquisition).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) : h_(&h), start_(h.StartTimeNs()) {}
  ~ScopedTimer() { Stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records now; the destructor then does nothing. Idempotent.
  void Stop() {
    h_->RecordSince(start_);
    start_ = 0;
  }

 private:
  Histogram* h_;
  uint64_t start_;
};

/// Process-wide named-histogram registry. GetHistogram registers (name,
/// labels) on first use under a mutex and returns a stable reference —
/// resolve once, then the histogram itself is lock-free. Disabled at
/// construction; flipping set_enabled(true) activates every histogram
/// retroactively (they share the registry's flag).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide default registry every dlcirc subsystem reports to.
  static Registry& Default();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// `labels` is the rendered Prometheus label body without braces, e.g.
  /// `channel="tropical/grounded"`, or empty. `help` is kept from the first
  /// registration of `name`.
  Histogram& GetHistogram(std::string_view name, std::string_view labels = "",
                          std::string_view help = "");

  /// Prometheus text exposition: histograms as summaries
  /// (quantile="0.5|0.9|0.99" lines plus _sum/_count/_max), sorted by
  /// (name, labels); empty histograms still render (a count of 0 is
  /// information).
  std::string RenderPrometheus() const;

  /// Zeroes every registered histogram. For tests and benches that need a
  /// clean slate without a process restart; concurrent writers may land
  /// samples during the sweep.
  void ResetValuesForTest();

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Histogram> histogram;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards registration and iteration, not updates
  /// (name, labels) -> histogram; std::map for stable references and sorted
  /// exposition output.
  std::map<std::pair<std::string, std::string>, Entry> entries_;
};

}  // namespace obs
}  // namespace dlcirc

#endif  // DLCIRC_OBS_METRICS_H_
