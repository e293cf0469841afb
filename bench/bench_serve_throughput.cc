// E14 — concurrent serving throughput (src/serve) on a transitive-closure
// workload: the "millions of users" story measured end to end.
//
// Part 1 (throughput/latency): a closed-loop load generator — K client
// threads, each submitting one inline-tag eval request at a time against a
// shared compiled TC plan and waiting for its response — swept over K in
// {1, 2, 4, 8} and over >= 3 semirings, plus a mixed read/update workload
// (per-client lanes, 20% incremental updates). Reports sustained QPS and
// p50/p99 latency. The scaling mechanism under test is request coalescing:
// one client yields batches of 1 (a full plan sweep per request); 8 clients
// yield SoA batches of up to 8 whose topology walk is shared, so QPS rises
// with client count even on a single core.
//
// Part 2 (warm start): plan snapshot SavePlan/LoadPlan vs a cold compile of
// the same (program, EDB, key), with output parity differential-checked
// across semirings.
//
// Usage: bench_serve_throughput [--small] [--json FILE] [--duration-ms N]
//   --small          CI smoke mode: tiny graph, short runs, no 4x/10x claims
//   --json FILE      machine-readable results (BENCH_serve.json convention)
//   --duration-ms N  measured window per point [1500]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/graph/generators.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace dlcirc;

namespace {

constexpr const char* kTcProgram =
    "@target T. T(X,Y) :- E(X,Y). T(X,Y) :- T(X,Z), E(Z,Y).";

using Clock = std::chrono::steady_clock;

struct LoadPoint {
  std::string semiring;
  std::string workload;  // "eval" or "mixed"
  int clients = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t requests = 0;
  uint64_t max_batch = 0;
};

/// Builds the shared TC session over a random connected graph; returns the
/// graph CSV so callers can rebuild an identical session.
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

/// Pre-rendered random taggings (strings, as they arrive on the wire).
std::vector<std::vector<std::string>> MakeTagSets(const std::string& semiring,
                                                  uint32_t num_facts,
                                                  size_t count, Rng* rng) {
  std::vector<std::vector<std::string>> sets(count);
  for (auto& set : sets) {
    set.reserve(num_facts);
    for (uint32_t v = 0; v < num_facts; ++v) {
      uint64_t w = 1 + rng->NextBounded(9);
      if (semiring == "boolean") {
        set.push_back(rng->NextBool(0.9) ? "true" : "false");
      } else if (semiring == "fuzzy" || semiring == "lukasiewicz" ||
                 semiring == "viterbi") {
        set.push_back("0." + std::to_string(w));
      } else {
        set.push_back(std::to_string(w));
      }
    }
  }
  return sets;
}

/// One closed-loop sweep: `clients` threads against `server`, each waiting
/// out its own requests, for `duration_ms` (after a 20% warmup).
LoadPoint RunClosedLoop(serve::Server& server, const std::string& semiring,
                        const std::string& workload, int clients,
                        double duration_ms,
                        const std::vector<std::vector<std::string>>& tag_sets,
                        const std::vector<uint32_t>& facts, uint32_t num_facts,
                        uint64_t seed) {
  const double warmup_ms = duration_ms / 5;
  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  std::vector<uint64_t> completed(clients, 0);
  // Per-client recorders (merged at the end): the shared obs histogram,
  // nearest-rank quantiles — the same arithmetic the server's metrics
  // report, not a private sort-the-samples variant.
  std::vector<bench::LatencyRecorder> latencies(clients);

  const uint64_t before_max_batch = server.stats().max_batch;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed + static_cast<uint64_t>(c) * 7919);
      const std::string lane = "client-" + std::to_string(c);
      if (workload == "mixed") {
        serve::ServeRequest make;
        make.kind = serve::ServeRequest::Kind::kMakeLane;
        make.semiring = semiring;
        make.lane = lane;
        make.tags = tag_sets[c % tag_sets.size()];
        make.facts = facts;
        server.Submit(std::move(make)).get();
      }
      size_t next_set = static_cast<size_t>(c);
      while (!done.load(std::memory_order_relaxed)) {
        serve::ServeRequest req;
        req.semiring = semiring;
        req.facts = facts;
        if (workload == "mixed" && rng.NextBool(0.2)) {
          req.kind = serve::ServeRequest::Kind::kUpdate;
          req.lane = lane;
          const auto& tags = tag_sets[next_set++ % tag_sets.size()];
          for (int k = 0; k < 3; ++k) {
            uint32_t var = static_cast<uint32_t>(rng.NextBounded(num_facts));
            req.delta.emplace_back(var, tags[var]);
          }
        } else if (workload == "mixed") {
          req.kind = serve::ServeRequest::Kind::kEval;
          req.lane = lane;
        } else {
          req.kind = serve::ServeRequest::Kind::kEval;
          req.tags = tag_sets[next_set++ % tag_sets.size()];
        }
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

  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(warmup_ms));
  Clock::time_point window_start = Clock::now();
  measuring.store(true);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(duration_ms));
  measuring.store(false);
  double window_ms = bench::MsSince(window_start);
  done.store(true);
  for (std::thread& t : threads) t.join();

  LoadPoint point;
  point.semiring = semiring;
  point.workload = workload;
  point.clients = clients;
  bench::LatencyRecorder all;
  for (int c = 0; c < clients; ++c) {
    point.requests += completed[c];
    all.Merge(latencies[c]);
  }
  point.qps = static_cast<double>(point.requests) / (window_ms / 1000.0);
  point.p50_ms = all.QuantileMs(0.50);
  point.p99_ms = all.QuantileMs(0.99);
  point.max_batch = std::max(server.stats().max_batch, before_max_batch);
  return point;
}

struct SnapshotResult {
  std::string semiring;
  double compile_ms = 0;
  double load_ms = 0;
  double speedup = 0;
  bool parity = false;
};

/// Cold compile vs snapshot load of the same plan, with output parity
/// checked on random taggings.
template <Semiring S>
SnapshotResult SnapshotRoundTrip(const std::string& graph_csv,
                                 const std::string& dir, Rng* rng) {
  SnapshotResult result;
  result.semiring = S::Name();
  pipeline::PlanKey key = pipeline::PlanKey::For<S>();

  pipeline::Session cold = MakeSession(graph_csv);
  Clock::time_point t0 = Clock::now();
  auto compiled = cold.Compile(key);
  result.compile_ms = bench::MsSince(t0);
  DLCIRC_CHECK(compiled.ok()) << compiled.error();

  const std::string path =
      dir + "/" + serve::SnapshotFileName(cold.ProgramDigest(),
                                          cold.EdbDigest(), key);
  auto saved = serve::SavePlan(*compiled.value(), cold.ProgramDigest(),
                               cold.EdbDigest(), path);
  DLCIRC_CHECK(saved.ok()) << saved.error();

  t0 = Clock::now();
  auto loaded =
      serve::LoadPlan(path, cold.ProgramDigest(), cold.EdbDigest(), key);
  result.load_ms = bench::MsSince(t0);
  DLCIRC_CHECK(loaded.ok()) << loaded.error();
  result.speedup = result.compile_ms / std::max(result.load_ms, 1e-6);

  // Parity: same outputs from the fresh and the reloaded plan under random
  // taggings (three of them), through the same evaluator.
  eval::Evaluator evaluator;
  result.parity = true;
  for (int round = 0; round < 3; ++round) {
    std::vector<typename S::Value> tags;
    tags.reserve(cold.db().num_facts());
    for (uint32_t v = 0; v < cold.db().num_facts(); ++v) {
      tags.push_back(S::RandomValue(*rng));
    }
    auto fresh = evaluator.Evaluate<S>(compiled.value()->plan, tags);
    auto warm = evaluator.Evaluate<S>(loaded.value()->plan, tags);
    DLCIRC_CHECK_EQ(fresh.size(), warm.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      if (!S::Eq(fresh[i], warm[i])) result.parity = false;
    }
  }
  return result;
}

std::string JsonNum(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
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
  if (small) duration_ms = std::min(duration_ms, 300.0);

  bench::Banner("E14", "src/serve (concurrent serving of a compiled plan)",
                "Closed-loop QPS/latency vs client count with request "
                "coalescing, plus plan-snapshot warm start vs cold compile");

  const uint32_t n = small ? 12 : 20;
  const uint32_t m = small ? 24 : 60;
  Rng rng(20260731);
  const std::string graph_csv = MakeGraphCsv(n, m, &rng);
  pipeline::Session session = MakeSession(graph_csv);
  const uint32_t num_facts = session.db().num_facts();

  const std::vector<std::string> semirings = {"tropical", "boolean",
                                              "counting"};
  const std::vector<int> client_counts = small ? std::vector<int>{1, 4}
                                               : std::vector<int>{1, 2, 4, 8};

  // One shared fact to query (the classic T(s,t)); every target fact would
  // dominate response formatting on dense closures.
  std::vector<uint32_t> facts = {session.TargetFacts().front()};

  std::cout << "workload: TC over RandomConnectedGraph(n=" << n << ", m=" << m
            << "), " << num_facts << " EDB facts; plan "
            << session.Compile(pipeline::PlanKey::For<TropicalSemiring>())
                   .value()
                   ->plan.num_slots()
            << " slots (tropical)\n"
            << "hardware_concurrency: " << std::thread::hardware_concurrency()
            << "\n\n";

  std::vector<LoadPoint> points;
  // One PlanStore across every sweep (plans compile once per semiring); a
  // fresh Server per point keeps lane state and stats from leaking. Every
  // plan is compiled up front so the measured windows contain serving only.
  serve::PlanStore store;
  for (const std::string& semiring : semirings) {
    pipeline::DispatchSemiring(semiring, [&]<Semiring S>() {
      auto warmed = store.GetOrCompile(session, pipeline::PlanKey::For<S>());
      DLCIRC_CHECK(warmed.ok()) << warmed.error();
    });
  }
  for (const std::string& semiring : semirings) {
    for (const std::string& workload : {std::string("eval"), std::string("mixed")}) {
      auto tag_sets = MakeTagSets(semiring, num_facts, 16, &rng);
      for (int clients : client_counts) {
        serve::ServerOptions options;
        options.max_coalesce = 64;
        serve::Server server(session, store, options);
        LoadPoint p = RunClosedLoop(server, semiring, workload, clients,
                                    duration_ms, tag_sets, facts, num_facts,
                                    rng.Next());
        points.push_back(p);
        std::cout << semiring << "/" << workload << " clients=" << clients
                  << ": " << JsonNum(p.qps) << " QPS, p50 "
                  << JsonNum(p.p50_ms) << " ms, p99 " << JsonNum(p.p99_ms)
                  << " ms (" << p.requests << " reqs, widest batch "
                  << p.max_batch << ")\n";
      }
    }
  }

  // Scaling verdict: QPS at max clients vs 1 client, eval workload.
  double best_scaling = 0;
  std::string best_semiring;
  for (const std::string& semiring : semirings) {
    double qps1 = 0, qpsN = 0;
    for (const LoadPoint& p : points) {
      if (p.semiring != semiring || p.workload != "eval") continue;
      if (p.clients == client_counts.front()) qps1 = p.qps;
      if (p.clients == client_counts.back()) qpsN = p.qps;
    }
    double scaling = qps1 > 0 ? qpsN / qps1 : 0;
    std::cout << semiring << ": eval QPS x" << JsonNum(scaling) << " from "
              << client_counts.front() << " -> " << client_counts.back()
              << " client(s)\n";
    if (scaling > best_scaling) {
      best_scaling = scaling;
      best_semiring = semiring;
    }
  }

  // Snapshot warm start vs cold compile.
  std::string dir = "bench_serve_snapshots";
  (void)system(("mkdir -p " + dir).c_str());
  std::vector<SnapshotResult> snapshots;
  snapshots.push_back(
      SnapshotRoundTrip<TropicalSemiring>(graph_csv, dir, &rng));
  snapshots.push_back(SnapshotRoundTrip<BooleanSemiring>(graph_csv, dir, &rng));
  snapshots.push_back(
      SnapshotRoundTrip<CountingSemiring>(graph_csv, dir, &rng));
  std::cout << "\n";
  double worst_speedup = 1e30;
  bool all_parity = true;
  for (const SnapshotResult& s : snapshots) {
    std::cout << "snapshot " << s.semiring << ": cold compile "
              << JsonNum(s.compile_ms) << " ms, load " << JsonNum(s.load_ms)
              << " ms (x" << JsonNum(s.speedup) << "), parity "
              << (s.parity ? "ok" : "FAIL") << "\n";
    worst_speedup = std::min(worst_speedup, s.speedup);
    all_parity = all_parity && s.parity;
  }

  if (!small) {
    bench::Verdict(best_scaling >= 4.0,
                   "coalesced serving scales x" + JsonNum(best_scaling) +
                       " (best: " + best_semiring + ") from " +
                       std::to_string(client_counts.front()) + " to " +
                       std::to_string(client_counts.back()) +
                       " clients (target >= 4x)");
    bench::Verdict(worst_speedup >= 10.0 && all_parity,
                   "snapshot warm start x" + JsonNum(worst_speedup) +
                       " over cold compile with bit-exact outputs "
                       "(target >= 10x)");
  } else {
    bench::Verdict(all_parity, "smoke run complete; snapshot parity holds");
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"E14\",\n  \"workload\": {\"program\": "
           "\"TC\", \"n\": "
        << n << ", \"m\": " << m << ", \"edb_facts\": " << num_facts
        << "},\n  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n  \"duration_ms\": "
        << duration_ms << ",\n  \"throughput\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const LoadPoint& p = points[i];
      out << "    {\"semiring\": \"" << p.semiring << "\", \"workload\": \""
          << p.workload << "\", \"clients\": " << p.clients
          << ", \"qps\": " << JsonNum(p.qps) << ", \"p50_ms\": "
          << JsonNum(p.p50_ms) << ", \"p99_ms\": " << JsonNum(p.p99_ms)
          << ", \"requests\": " << p.requests << ", \"max_batch\": "
          << p.max_batch << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"eval_scaling_best\": {\"semiring\": \"" << best_semiring
        << "\", \"factor\": " << JsonNum(best_scaling) << "},\n"
        << "  \"snapshot\": [\n";
    for (size_t i = 0; i < snapshots.size(); ++i) {
      const SnapshotResult& s = snapshots[i];
      out << "    {\"semiring\": \"" << s.semiring << "\", \"compile_ms\": "
          << JsonNum(s.compile_ms) << ", \"load_ms\": " << JsonNum(s.load_ms)
          << ", \"speedup\": " << JsonNum(s.speedup) << ", \"parity\": "
          << (s.parity ? "true" : "false") << "}"
          << (i + 1 < snapshots.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
