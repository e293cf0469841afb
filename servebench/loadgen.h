// Closed-loop NDJSON-over-TCP load generator for servebench.
//
// One thread drives every connection through one poll loop. Each connection
// keeps `depth` requests outstanding and sends its next request only when a
// response line arrives (a closed loop: a slower server receives less load).
// Connection i cycles through scripts[i]; every line is sent with an
// injected `"id":<seq>` member, seq counting requests on that connection.
//
// Time runs in three phases: warm-up (responses recorded, not in the
// window), the measured window, cut into equal slices, and a drain after
// the window during which nothing new is sent and the outstanding
// responses are collected.
#ifndef SERVEBENCH_LOADGEN_H_
#define SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace servebench {

/// CLOCK_MONOTONIC in nanoseconds.
uint64_t MonotonicNs();

/// One request/response pair. `line` is the response line, newline
/// stripped; it is left empty when LoopOptions::keep_lines is false.
struct Record {
  uint32_t conn = 0;
  uint64_t seq = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  std::string line;
};

struct LoopOptions {
  uint16_t port = 0;
  int depth = 1;
  double warmup_s = 0.5;
  double window_s = 1.0;
  int slices = 1;
  double drain_timeout_s = 30.0;
  bool keep_lines = true;
  /// Called on the loop thread at each slice boundary k = 0..slices: k = 0
  /// opens the window, k = slices closes it.
  std::function<void(int)> on_boundary;
};

struct LoopResult {
  std::vector<uint64_t> boundaries_ns;  ///< when each boundary was crossed
  uint64_t window_start_ns() const { return boundaries_ns.front(); }
  uint64_t window_end_ns() const { return boundaries_ns.back(); }
  std::vector<uint64_t> sent;    ///< per connection, warm-up included
  std::vector<Record> records;   ///< responses, in arrival order
  std::string error;             ///< empty on success
};

/// Prefixes `line` (a JSON object) with an `"id":seq` member.
std::string WithId(const std::string& line, uint64_t seq);

/// Runs the closed loop against 127.0.0.1:port with one connection per
/// script. Returns with error set when a connection fails or the drain
/// times out; records collected so far are kept.
LoopResult RunClosedLoop(const std::vector<std::vector<std::string>>& scripts,
                         const LoopOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H_
