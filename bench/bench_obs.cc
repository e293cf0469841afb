// E16 — observability overhead (src/obs): the instrumentation is only
// admissible if it is free when disabled and near-free when enabled.
//
// Part 1 (micro): ns/op for the two hot primitives — Histogram::Record and
// Histogram::StartTimeNs/RecordSince (the timer pair) — with the registry
// disabled vs enabled. Disabled must be a single relaxed load (sub-ns to
// ~1 ns on any modern core). The registry holds only histograms: counts
// are plain always-on atomics in their owners (serve::ServerStats and
// friends), so there is no counter primitive to gate.
//
// Part 2 (macro): the E14 closed-loop serve workload (tropical TC, eval
// requests, 4 clients) run three ways — registry disabled, registry
// enabled, registry + trace recorder enabled — reporting QPS and p99.
// Run-to-run noise on a shared machine dwarfs a 5% effect, so the three
// modes are interleaved over several repetitions and each mode is scored
// by its best repetition (max QPS, min p99): systematic overhead survives
// best-of, scheduler hiccups do not. Verdict: enabled best-QPS within 5%
// of disabled and best-p99 within 5% (plus a small absolute floor).
//
// Usage: bench_obs [--small] [--json FILE] [--duration-ms N]
//   --small          CI smoke mode: tiny graph, short windows, no verdict
//                    thresholds beyond sanity
//   --json FILE      machine-readable results (BENCH_obs.json convention)
//   --duration-ms N  measured window per serve point [1500]
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/session.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/util/rng.h"

using namespace dlcirc;

namespace {

constexpr const char* kTcProgram =
    "@target T. T(X,Y) :- E(X,Y). T(X,Y) :- T(X,Z), E(Z,Y).";

using Clock = std::chrono::steady_clock;

std::string JsonNum(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

// ---------------------------------------------------------------------------
// Part 1: primitive micro-bench.

struct MicroPoint {
  std::string op;
  double disabled_ns = 0;
  double enabled_ns = 0;
};

/// Times `iters` calls of `body` and returns ns/op. The accumulator is
/// returned through `sink` so the loop cannot be elided.
template <typename Fn>
double NsPerOp(uint64_t iters, uint64_t* sink, Fn&& body) {
  Clock::time_point t0 = Clock::now();
  uint64_t acc = 0;
  for (uint64_t i = 0; i < iters; ++i) acc += body(i);
  *sink += acc;
  double total_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return total_ns / static_cast<double>(iters);
}

std::vector<MicroPoint> RunMicro(uint64_t iters) {
  obs::Registry& reg = obs::Registry::Default();
  obs::Histogram& hist =
      reg.GetHistogram("dlcirc_bench_obs_hist", "", "E16 micro histogram");

  uint64_t sink = 0;
  std::vector<MicroPoint> points(2);
  points[0].op = "histogram_record";
  points[1].op = "timer_pair";
  for (bool enabled : {false, true}) {
    reg.set_enabled(enabled);
    double rec_ns = NsPerOp(iters, &sink, [&](uint64_t i) {
      hist.Record(i & 0xffff);
      return i & 1;
    });
    // The timer pair is what the serve path actually pays per request:
    // one StartTimeNs at submit, one RecordSince at respond.
    double timer_ns = NsPerOp(iters, &sink, [&](uint64_t i) {
      uint64_t t = hist.StartTimeNs();
      hist.RecordSince(t);
      return i & 1;
    });
    (enabled ? points[0].enabled_ns : points[0].disabled_ns) = rec_ns;
    (enabled ? points[1].enabled_ns : points[1].disabled_ns) = timer_ns;
  }
  reg.set_enabled(false);
  if (sink == 0xdeadbeef) std::cout << "";  // keep `sink` observable
  return points;
}

// ---------------------------------------------------------------------------
// Part 2: serve closed loop, disabled vs enabled vs enabled+trace.

std::string MakeGraphCsv(uint32_t n, uint32_t m, Rng* rng) {
  StGraph g = RandomConnectedGraph(n, m, /*num_labels=*/1, *rng);
  std::ostringstream csv;
  for (uint32_t e = 0; e < g.graph.num_edges(); ++e) {
    csv << "v" << g.graph.edge(e).src << ",v" << g.graph.edge(e).dst << "\n";
  }
  return csv.str();
}

pipeline::Session MakeSession(const std::string& graph_csv) {
  auto session_r = pipeline::Session::FromDatalog(kTcProgram);
  DLCIRC_CHECK(session_r.ok()) << session_r.error();
  pipeline::Session session = std::move(session_r).value();
  auto loaded = session.LoadGraphCsv(graph_csv);
  DLCIRC_CHECK(loaded.ok()) << loaded.error();
  return session;
}

struct ServePoint {
  std::string mode;  // "disabled", "enabled", "enabled_trace"
  int rep = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t requests = 0;
};

/// Best repetition per mode: max QPS, min p99 (scored independently — each
/// is a separate "how fast can this mode go when the machine cooperates").
struct ModeBest {
  double qps = 0;
  double p99_ms = 1e300;
  uint64_t requests = 0;
};

ServePoint RunServe(pipeline::Session& session, serve::PlanStore& store,
                    const std::string& mode, int clients, double duration_ms,
                    const std::vector<std::vector<std::string>>& tag_sets,
                    const std::vector<uint32_t>& facts, uint64_t seed) {
  obs::Registry::Default().set_enabled(mode != "disabled");
  obs::TraceRecorder::Default().set_enabled(mode == "enabled_trace");
  obs::TraceRecorder::Default().Clear();

  serve::ServerOptions options;
  options.max_coalesce = 64;
  serve::Server server(session, store, options);

  const double warmup_ms = duration_ms / 5;
  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  std::vector<uint64_t> completed(clients, 0);
  std::vector<bench::LatencyRecorder> latencies(clients);

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<uint64_t>(c) * 7919);
      size_t next_set = static_cast<size_t>(c);
      while (!done.load(std::memory_order_relaxed)) {
        serve::ServeRequest req;
        req.kind = serve::ServeRequest::Kind::kEval;
        req.semiring = "tropical";
        req.facts = facts;
        req.tags = tag_sets[next_set++ % tag_sets.size()];
        Clock::time_point start = Clock::now();
        serve::ServeResponse r = server.Submit(std::move(req)).get();
        DLCIRC_CHECK(r.ok) << r.error;
        if (measuring.load(std::memory_order_relaxed)) {
          ++completed[c];
          latencies[c].RecordNs(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - start)
                  .count()));
        }
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(warmup_ms));
  Clock::time_point window_start = Clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(duration_ms));
  measuring.store(false);
  double window_ms = bench::MsSince(window_start);
  done.store(true);
  for (std::thread& t : threads) t.join();

  obs::Registry::Default().set_enabled(false);
  obs::TraceRecorder::Default().set_enabled(false);

  ServePoint point;
  point.mode = mode;
  bench::LatencyRecorder all;
  for (int c = 0; c < clients; ++c) {
    point.requests += completed[c];
    all.Merge(latencies[c]);
  }
  point.qps = static_cast<double>(point.requests) / (window_ms / 1000.0);
  point.p50_ms = all.QuantileMs(0.50);
  point.p99_ms = all.QuantileMs(0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  double duration_ms = 1500;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::stod(argv[++i]);
    }
  }
  if (small) duration_ms = std::min(duration_ms, 250.0);

  bench::Banner("E16", "src/obs (metrics + tracing overhead)",
                "ns/op for disabled vs enabled histograms, and "
                "closed-loop serve QPS/p99 with instrumentation off/on/on+"
                "trace");

  // Part 1: primitives.
  const uint64_t iters = small ? 2'000'000 : 20'000'000;
  std::vector<MicroPoint> micro = RunMicro(iters);
  std::cout << "primitive ns/op over " << iters << " iterations:\n";
  for (const MicroPoint& p : micro) {
    std::cout << "  " << p.op << ": disabled " << JsonNum(p.disabled_ns)
              << " ns, enabled " << JsonNum(p.enabled_ns) << " ns\n";
  }
  // Disabled-path sanity: one relaxed load + branch. Allow slack for slow
  // CI machines; the point is "no clock read, no atomic RMW".
  double worst_disabled = 0;
  for (const MicroPoint& p : micro) {
    worst_disabled = std::max(worst_disabled, p.disabled_ns);
  }
  bench::Verdict(worst_disabled <= 5.0,
                 "disabled primitives cost " + JsonNum(worst_disabled) +
                     " ns/op worst case (target <= 5 ns: flag check only)");

  // Part 2: serve closed loop.
  const uint32_t n = small ? 12 : 20;
  const uint32_t m = small ? 24 : 60;
  const int clients = 4;
  Rng rng(20260807);
  const std::string graph_csv = MakeGraphCsv(n, m, &rng);
  pipeline::Session session = MakeSession(graph_csv);
  const uint32_t num_facts = session.db().num_facts();
  serve::PlanStore store;
  auto warmed =
      store.GetOrCompile(session, pipeline::PlanKey::For<TropicalSemiring>());
  DLCIRC_CHECK(warmed.ok()) << warmed.error();

  std::vector<std::vector<std::string>> tag_sets(16);
  for (auto& set : tag_sets) {
    set.reserve(num_facts);
    for (uint32_t v = 0; v < num_facts; ++v) {
      set.push_back(std::to_string(1 + rng.NextBounded(9)));
    }
  }
  std::vector<uint32_t> facts = {session.TargetFacts().front()};

  const int reps = small ? 1 : 3;
  const std::vector<std::string> modes = {"disabled", "enabled",
                                          "enabled_trace"};
  std::cout << "\nserve closed loop: tropical TC, " << clients
            << " clients, window " << duration_ms << " ms, " << reps
            << " interleaved rep(s)\n";
  std::vector<ServePoint> serve_points;
  ModeBest best[3];
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t m = 0; m < modes.size(); ++m) {
      ServePoint p = RunServe(session, store, modes[m], clients, duration_ms,
                              tag_sets, facts, rng.Next());
      p.rep = rep;
      serve_points.push_back(p);
      best[m].qps = std::max(best[m].qps, p.qps);
      best[m].p99_ms = std::min(best[m].p99_ms, p.p99_ms);
      best[m].requests += p.requests;
      std::cout << "  rep " << rep << " " << p.mode << ": " << JsonNum(p.qps)
                << " QPS, p50 " << JsonNum(p.p50_ms) << " ms, p99 "
                << JsonNum(p.p99_ms) << " ms (" << p.requests << " reqs)\n";
    }
  }
  for (size_t m = 0; m < modes.size(); ++m) {
    std::cout << "  best " << modes[m] << ": " << JsonNum(best[m].qps)
              << " QPS, p99 " << JsonNum(best[m].p99_ms) << " ms\n";
  }

  const ModeBest& off = best[0];
  const ModeBest& on = best[1];
  double qps_drop = off.qps > 0 ? 1.0 - on.qps / off.qps : 0;
  // p99 overhead is relative with a 20 us absolute floor: on sub-ms
  // latencies a single scheduler hiccup is bigger than any counter.
  double p99_delta_ms = on.p99_ms - off.p99_ms;
  bool p99_ok = on.p99_ms <= off.p99_ms * 1.05 || p99_delta_ms <= 0.020;
  if (!small) {
    bench::Verdict(qps_drop <= 0.05,
                   "enabled metrics cost " + JsonNum(qps_drop * 100) +
                       "% best-rep QPS vs disabled (target <= 5%)");
    bench::Verdict(p99_ok, "enabled best-rep p99 " + JsonNum(on.p99_ms) +
                               " ms vs disabled " + JsonNum(off.p99_ms) +
                               " ms (target <= 5% or <= 20 us delta)");
  } else {
    bench::Verdict(off.requests > 0 && on.requests > 0,
                   "smoke run complete; all three modes served requests");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"E16\",\n  \"micro_iters\": " << iters
        << ",\n  \"micro\": [\n";
    for (size_t i = 0; i < micro.size(); ++i) {
      const MicroPoint& p = micro[i];
      out << "    {\"op\": \"" << p.op << "\", \"disabled_ns\": "
          << JsonNum(p.disabled_ns) << ", \"enabled_ns\": "
          << JsonNum(p.enabled_ns) << "}" << (i + 1 < micro.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"serve\": {\"clients\": " << clients
        << ", \"duration_ms\": " << duration_ms << ", \"reps\": " << reps
        << ", \"points\": [\n";
    for (size_t i = 0; i < serve_points.size(); ++i) {
      const ServePoint& p = serve_points[i];
      out << "    {\"mode\": \"" << p.mode << "\", \"rep\": " << p.rep
          << ", \"qps\": " << JsonNum(p.qps) << ", \"p50_ms\": "
          << JsonNum(p.p50_ms) << ", \"p99_ms\": " << JsonNum(p.p99_ms)
          << ", \"requests\": " << p.requests << "}"
          << (i + 1 < serve_points.size() ? "," : "") << "\n";
    }
    out << "  ], \"best\": [\n";
    for (size_t m = 0; m < modes.size(); ++m) {
      out << "    {\"mode\": \"" << modes[m] << "\", \"qps\": "
          << JsonNum(best[m].qps) << ", \"p99_ms\": " << JsonNum(best[m].p99_ms)
          << "}" << (m + 1 < modes.size() ? "," : "") << "\n";
    }
    out << "  ]},\n  \"qps_overhead_enabled\": " << JsonNum(qps_drop) << "\n}"
        << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
