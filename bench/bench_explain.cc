// E19 — online explanation serving (src/explain through src/serve): the
// claim is that provenance extraction is cheap enough to serve inline with
// evaluation, and that it is *correct* while doing so.
//
// Workload: tropical TC over random connected digraphs at two sizes. A lane
// is materialized per server and closed-loop clients issue `explain`
// requests (proofs mode, k swept over {1, 4, 16}; then why mode at two
// budgets), reporting QPS and p50/p99 per point. Each client parses every
// response it receives and HARD-GATES the tentpole invariant: the response
// value, the explanation object's "value", and the top-1 proof "weight"
// must be the same rendered string — a single mismatch fails the bench.
// That makes E19 a continuously-running differential check, not just a
// speedometer: the k-best extractor reads its rank-0 weight bitwise from
// the very slot vector the serve path answers from, so any drift is a bug.
//
// Expected shape: QPS decreases gently with k (lazy k-best touches only
// the output cone's frontier), and why-mode cost scales with the monomial
// budget. Verdict: every sampled response satisfies the weight==value
// gate, and every point sustained > 0 QPS.
//
// Usage: bench_explain [--small] [--json FILE] [--duration-ms N]
//   --small          CI smoke mode: tiny graph, short windows
//   --json FILE      machine-readable results (BENCH_explain.json)
//   --duration-ms N  measured window per point [800]
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

/// First `"key":"..."` in a rendered explanation object.
std::string JsonStringField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return "";
  const size_t start = pos + needle.size();
  return json.substr(start, json.find('"', start) - start);
}

struct Point {
  std::string mode;       // "proofs" or "why"
  uint32_t k = 1;         // proofs: trees requested
  uint64_t max_trees = 0; // why: monomial budget
  uint32_t graph_n = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t requests = 0;
  uint64_t gate_checks = 0;    ///< responses that carried a proof weight
  uint64_t gate_failures = 0;  ///< weight/value mismatches (must be 0)
};

Point RunPoint(pipeline::Session& session, serve::PlanStore& store,
               uint32_t fact, const std::string& mode, uint32_t k,
               uint64_t max_trees, int clients, double duration_ms,
               const std::vector<std::string>& tags, uint64_t seed) {
  serve::Server server(session, store, {});
  serve::ServeRequest make;
  make.kind = serve::ServeRequest::Kind::kMakeLane;
  make.semiring = "tropical";
  make.lane = "bench";
  make.tags = tags;
  make.facts = {fact};
  serve::ServeResponse made = server.Submit(std::move(make)).get();
  DLCIRC_CHECK(made.ok) << made.error;

  const double warmup_ms = duration_ms / 5;
  std::atomic<bool> measuring{false};
  std::atomic<bool> done{false};
  std::vector<uint64_t> completed(clients, 0);
  std::vector<uint64_t> checks(clients, 0), failures(clients, 0);
  std::vector<bench::LatencyRecorder> latencies(clients);

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!done.load(std::memory_order_relaxed)) {
        serve::ServeRequest req;
        req.kind = serve::ServeRequest::Kind::kExplain;
        req.semiring = "tropical";
        req.lane = "bench";
        req.facts = {fact};
        req.explain_mode = mode;
        req.explain_k = k;
        req.explain_max_trees = max_trees == 0 ? 512 : max_trees;
        Clock::time_point start = Clock::now();
        serve::ServeResponse r = server.Submit(std::move(req)).get();
        DLCIRC_CHECK(r.ok) << r.error;
        // The hard gate: value served == value explained == top-1 weight.
        const std::string ex_value = JsonStringField(r.explain_json, "value");
        const bool has_weight =
            r.explain_json.find("\"weight\":\"") != std::string::npos;
        if (mode == "proofs" && has_weight) {
          ++checks[c];
          const std::string weight = JsonStringField(r.explain_json, "weight");
          if (r.values.empty() || ex_value != r.values[0] ||
              weight != r.values[0]) {
            ++failures[c];
          }
        } else if (!r.values.empty() && ex_value != r.values[0]) {
          ++failures[c];  // why/formula still reports the slot value
        }
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

  Point p;
  p.mode = mode;
  p.k = k;
  p.max_trees = max_trees;
  bench::LatencyRecorder merged;
  for (int c = 0; c < clients; ++c) {
    p.requests += completed[c];
    p.gate_checks += checks[c];
    p.gate_failures += failures[c];
    merged.Merge(latencies[c]);
  }
  p.qps = static_cast<double>(p.requests) / (window_ms / 1000.0);
  p.p50_ms = merged.QuantileMs(0.50);
  p.p99_ms = merged.QuantileMs(0.99);
  (void)seed;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string json_path;
  double duration_ms = 800;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      duration_ms = std::stod(argv[++i]);
    }
  }
  if (small) duration_ms = std::min(duration_ms, 200.0);

  bench::Banner("E19", "src/explain (online top-k proofs + why-provenance)",
                "closed-loop explain QPS/p99 vs k and vs monomial budget, "
                "with every response hard-gated: top-1 proof weight == "
                "served value (same lane, same epoch)");

  Rng rng(20250807);
  const int clients = small ? 2 : 4;
  std::vector<std::pair<uint32_t, uint32_t>> sizes;
  if (small) {
    sizes = {{10, 20}};
  } else {
    sizes = {{14, 34}, {26, 80}};
  }

  std::vector<Point> points;
  uint64_t gate_checks = 0, gate_failures = 0, total_requests = 0;
  for (auto [n, m] : sizes) {
    std::string csv = MakeGraphCsv(n, m, &rng);
    pipeline::Session session = MakeSession(csv);
    serve::PlanStore store;
    const std::vector<uint32_t>& targets = session.TargetFacts();
    DLCIRC_CHECK(!targets.empty());
    // The most derivation-rich target makes k > 1 meaningful.
    const uint32_t fact = targets[targets.size() / 2];
    std::vector<std::string> tags;
    tags.reserve(session.db().num_facts());
    for (uint32_t v = 0; v < session.db().num_facts(); ++v) {
      tags.push_back(std::to_string(1 + rng.NextBounded(9)));
    }

    std::cout << "\ngraph n=" << n << " m=" << m << ", " << clients
              << " clients, window " << duration_ms << " ms\n";
    for (uint32_t k : {1u, 4u, 16u}) {
      Point p = RunPoint(session, store, fact, "proofs", k, 0, clients,
                         duration_ms, tags, rng.Next());
      p.graph_n = n;
      std::cout << "  proofs k=" << k << ": " << JsonNum(p.qps)
                << " QPS, p50 " << JsonNum(p.p50_ms) << " ms, p99 "
                << JsonNum(p.p99_ms) << " ms (" << p.requests << " reqs, "
                << p.gate_checks << " gated)\n";
      points.push_back(p);
    }
    for (uint64_t budget : {16ull, 256ull}) {
      Point p = RunPoint(session, store, fact, "why", 1, budget, clients,
                         duration_ms, tags, rng.Next());
      p.graph_n = n;
      std::cout << "  why max_trees=" << budget << ": " << JsonNum(p.qps)
                << " QPS, p50 " << JsonNum(p.p50_ms) << " ms, p99 "
                << JsonNum(p.p99_ms) << " ms (" << p.requests << " reqs)\n";
      points.push_back(p);
    }
  }
  for (const Point& p : points) {
    gate_checks += p.gate_checks;
    gate_failures += p.gate_failures;
    total_requests += p.requests;
  }

  bench::Verdict(gate_failures == 0 && gate_checks > 0,
                 "weight==value hard gate: " + std::to_string(gate_failures) +
                     " mismatches over " + std::to_string(gate_checks) +
                     " gated proofs responses");
  bool all_served = total_requests > 0;
  for (const Point& p : points) all_served = all_served && p.qps > 0;
  bench::Verdict(all_served, "all " + std::to_string(points.size()) +
                                 " points sustained explain traffic (" +
                                 std::to_string(total_requests) + " reqs)");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"experiment\": \"E19\",\n  \"clients\": " << clients
        << ",\n  \"duration_ms\": " << duration_ms
        << ",\n  \"gate_checks\": " << gate_checks
        << ",\n  \"gate_failures\": " << gate_failures << ",\n  \"points\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      out << "    {\"mode\": \"" << p.mode << "\", \"k\": " << p.k
          << ", \"max_trees\": " << p.max_trees << ", \"graph_n\": "
          << p.graph_n << ", \"qps\": " << JsonNum(p.qps) << ", \"p50_ms\": "
          << JsonNum(p.p50_ms) << ", \"p99_ms\": " << JsonNum(p.p99_ms)
          << ", \"requests\": " << p.requests << "}"
          << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return gate_failures == 0 ? 0 : 1;
}
