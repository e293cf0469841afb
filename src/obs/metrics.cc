#include "src/obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace dlcirc {
namespace obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

uint64_t LocalHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  uint64_t seen = 0;
  for (uint32_t i = 0; i < BucketLayout::kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Never report past the true maximum (the top bucket's midpoint can).
      const uint64_t rep = BucketLayout::Representative(i);
      return rep > max_ ? max_ : rep;
    }
  }
  return max_;  // unreachable when count_ matches bucket totals
}

LocalHistogram Histogram::Snapshot() const {
  LocalHistogram out;
  // count is recomputed from the copied buckets (not count_) so quantile
  // ranks always agree with the bucket totals even mid-update.
  uint64_t count = 0;
  for (uint32_t i = 0; i < BucketLayout::kNumBuckets; ++i) {
    const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    out.buckets_[i] = n;
    count += n;
  }
  out.count_ = count;
  out.sum_ = sum_.load(std::memory_order_relaxed);
  out.max_ = max_.load(std::memory_order_relaxed);
  return out;
}

Registry& Registry::Default() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  std::string_view labels,
                                  std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[{std::string(name), std::string(labels)}];
  if (e.histogram == nullptr) {
    e.help = std::string(help);
    e.histogram.reset(new Histogram(&enabled_));
  }
  return *e.histogram;
}

namespace {

// `name{labels,extra}` or `name{labels}` or `name{extra}` or `name`.
void AppendSeries(std::ostringstream& out, const std::string& name,
                  const std::string& labels, std::string_view extra) {
  out << name;
  if (!labels.empty() || !extra.empty()) {
    out << '{' << labels;
    if (!labels.empty() && !extra.empty()) out << ',';
    out << extra << '}';
  }
}

}  // namespace

std::string Registry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  const std::string* last_name_with_help = nullptr;
  for (const auto& kv : entries_) {
    const std::string& name = kv.first.first;
    const std::string& labels = kv.first.second;
    const Entry& e = kv.second;
    if (!e.help.empty() &&
        (last_name_with_help == nullptr || *last_name_with_help != name)) {
      out << "# HELP " << name << ' ' << e.help << '\n';
      out << "# TYPE " << name << " summary\n";
      last_name_with_help = &name;
    }
    const LocalHistogram snap = e.histogram->Snapshot();
    static const struct {
      const char* label;
      double q;
    } kQuantiles[] = {{"quantile=\"0.5\"", 0.5},
                      {"quantile=\"0.9\"", 0.9},
                      {"quantile=\"0.99\"", 0.99}};
    for (const auto& qv : kQuantiles) {
      AppendSeries(out, name, labels, qv.label);
      out << ' ' << snap.Quantile(qv.q) << '\n';
    }
    AppendSeries(out, name + "_sum", labels, "");
    out << ' ' << snap.sum() << '\n';
    AppendSeries(out, name + "_count", labels, "");
    out << ' ' << snap.count() << '\n';
    AppendSeries(out, name + "_max", labels, "");
    out << ' ' << snap.max() << '\n';
  }
  return out.str();
}

void Registry::ResetValuesForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : entries_) {
    Histogram& h = *kv.second.histogram;
    for (auto& b : h.buckets_) b.store(0, std::memory_order_relaxed);
    h.count_.store(0, std::memory_order_relaxed);
    h.sum_.store(0, std::memory_order_relaxed);
    h.max_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace obs
}  // namespace dlcirc
