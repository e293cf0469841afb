#include "src/obs/trace.h"

#include "src/util/json.h"

namespace dlcirc {
namespace obs {

TraceRecorder& TraceRecorder::Default() {
  static TraceRecorder* r = new TraceRecorder();  // leaked: outlives threads
  return *r;
}

void TraceRecorder::Record(std::string_view category, std::string_view name,
                           uint64_t start_ns, uint64_t dur_ns,
                           std::string args_json) {
  if (!enabled()) return;
  const uint32_t thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(Event{std::string(category), std::string(name), start_ns,
                          dur_ns, thread, std::move(args_json)});
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

void TraceRecorder::WriteChromeTrace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Rebase timestamps to the earliest span so the viewer opens at t=0
  // instead of hours into a steady-clock epoch.
  uint64_t origin_ns = 0;
  bool first = true;
  for (const Event& e : events_) {
    if (first || e.start_ns < origin_ns) origin_ns = e.start_ns;
    first = false;
  }
  out << "{\"traceEvents\":[";
  std::string buf;
  bool need_comma = false;
  for (const Event& e : events_) {
    buf.clear();
    if (need_comma) buf += ',';
    need_comma = true;
    buf += "{\"name\":\"";
    buf += JsonEscape(e.name);
    buf += "\",\"cat\":\"";
    buf += JsonEscape(e.category);
    buf += "\",\"ph\":\"X\",\"ts\":";
    // Microseconds with sub-microsecond precision kept as a decimal.
    const uint64_t rel = e.start_ns - origin_ns;
    buf += std::to_string(rel / 1000);
    buf += '.';
    buf += static_cast<char>('0' + (rel / 100) % 10);
    buf += static_cast<char>('0' + (rel / 10) % 10);
    buf += static_cast<char>('0' + rel % 10);
    buf += ",\"dur\":";
    buf += std::to_string(e.dur_ns / 1000);
    buf += '.';
    buf += static_cast<char>('0' + (e.dur_ns / 100) % 10);
    buf += static_cast<char>('0' + (e.dur_ns / 10) % 10);
    buf += static_cast<char>('0' + e.dur_ns % 10);
    buf += ",\"pid\":1,\"tid\":";
    buf += std::to_string(e.thread);
    if (!e.args_json.empty()) {
      buf += ",\"args\":{";
      buf += e.args_json;
      buf += '}';
    }
    buf += '}';
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace obs
}  // namespace dlcirc
