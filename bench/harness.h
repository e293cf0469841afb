// Shared helpers for the benchmark harness binaries: banner printing, sweep
// descriptors, and latency recording. Each bench binary regenerates one
// table/figure/claim of the paper; EXPERIMENTS.md indexes them.
#ifndef DLCIRC_BENCH_HARNESS_H_
#define DLCIRC_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace dlcirc {
namespace bench {

/// Prints a standard experiment banner (id, paper artifact, description).
void Banner(const std::string& experiment_id, const std::string& paper_artifact,
            const std::string& description);

/// Prints a one-line verdict ("[OK] ..." / "[WARN] ...") used to summarize
/// whether the measured shape matches the paper's claim.
void Verdict(bool ok, const std::string& message);

/// Milliseconds elapsed on the steady clock since `start`.
inline double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Latency sink for bench client loops: the obs log-bucketed histogram
/// (nearest-rank quantiles) instead of the sort-the-samples math the benches
/// used to hand-roll, so benches and the server report quantiles through
/// identical arithmetic — including the small-sample cases where a naive
/// `p * (n - 1)` index disagrees with nearest rank. Single-threaded by
/// design: give each client thread its own recorder and Merge at the end.
class LatencyRecorder {
 public:
  void RecordNs(uint64_t ns) { hist_.Record(ns); }
  void Merge(const LatencyRecorder& other) { hist_.Merge(other.hist_); }

  uint64_t count() const { return hist_.count(); }
  /// Nearest-rank quantile in milliseconds (q in [0, 1]).
  double QuantileMs(double q) const {
    return static_cast<double>(hist_.Quantile(q)) * 1e-6;
  }
  double MeanMs() const { return hist_.mean() * 1e-6; }
  double MaxMs() const { return static_cast<double>(hist_.max()) * 1e-6; }

 private:
  obs::LocalHistogram hist_;
};

}  // namespace bench
}  // namespace dlcirc

#endif  // DLCIRC_BENCH_HARNESS_H_
