// E17 — route quality of the cost-based planner (src/pipeline/planner):
// on the E2/E13/E15-style workload shapes, compile the planner-picked
// construction AND every other applicable candidate, then compare compiled
// circuit size/depth and batched serving time. The claims under test:
//
//   * the pick is never worse than grounded by more than noise, and on at
//     least one workload a non-grounded pick beats forced-grounded outright
//     (the Section 4-6 constructions earn their keep end to end);
//   * every applicable route returns the same values (parity is a gate,
//     even in --small mode).
//
// Usage: bench_planner_routes [--small]
//   --small    CI smoke mode: tiny instances, few lanes, relaxed verdicts
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/eval/batch.h"
#include "src/pipeline/planner.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace dlcirc;
using pipeline::Construction;
using pipeline::PlanKey;
using pipeline::Session;

namespace {

constexpr const char* kTcText = R"(
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- T(X,Z), E(Z,Y).
)";

constexpr const char* kBoundedText = R"(
@target T.
T(X,Y) :- E(X,Y).
T(X,Y) :- A(X), T(Z,Y).
)";

constexpr const char* kReachText = R"(
@target U.
U(X) :- A(X).
U(X) :- U(Y), E(X,Y).
)";

constexpr const char* kFiniteChainText = R"(
@target S.
S(X,Y) :- A(X,Y).
S(X,Y) :- A(X,Z), B(Z,Y).
)";

std::string SparseTcFacts(uint32_t n, Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    out << "E(v" << i << ",v" << i + 1 << "). ";  // a spine keeps it connected
  }
  for (uint32_t i = 0; i < n; ++i) {  // ~2m/n = 4: sparse, BF territory
    out << "E(v" << rng.NextBounded(n) << ",v" << rng.NextBounded(n) << "). ";
  }
  return out.str();
}

std::string DenseDagFacts(uint32_t n) {
  std::ostringstream out;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) out << "E(v" << i << ",v" << j << "). ";
  }
  return out.str();
}

std::string BoundedFacts(uint32_t n, Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i + 1 < n; ++i) out << "E(v" << i << ",v" << i + 1 << "). ";
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) out << "A(v" << i << "). ";
  }
  out << "A(v0). ";
  return out.str();
}

std::string ReachFacts(uint32_t n, Rng& rng) {
  std::ostringstream out;
  out << SparseTcFacts(n, rng) << "A(v0). ";
  return out.str();
}

std::string TwoLabelFacts(uint32_t n, Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i < 3 * n; ++i) {
    out << (rng.NextBool(0.5) ? "A" : "B") << "(v" << rng.NextBounded(n)
        << ",v" << rng.NextBounded(n) << "). ";
  }
  return out.str();
}

struct RouteRun {
  Construction construction = Construction::kGrounded;
  bool picked = false;
  uint64_t size = 0;
  uint32_t depth = 0;
  double compile_ms = 0;
  double eval_ms = 0;
};

/// Compiles and serves every applicable route for one workload; returns one
/// row per route with the planner's pick flagged. Parity across routes is a
/// hard gate (exit 1).
template <Semiring S>
std::vector<RouteRun> RunWorkload(const char* program, const std::string& facts,
                                  uint32_t lanes_count, uint32_t reps,
                                  Rng& rng) {
  Result<Session> s = Session::FromDatalog(program);
  if (!s.ok()) {
    std::cerr << "session: " << s.error() << "\n";
    std::exit(1);
  }
  Session session = std::move(s).value();
  Result<bool> loaded = session.LoadFactsText(facts);
  if (!loaded.ok()) {
    std::cerr << "facts: " << loaded.error() << "\n";
    std::exit(1);
  }
  std::vector<std::vector<typename S::Value>> lanes(lanes_count);
  for (auto& lane : lanes) {
    lane.reserve(session.db().num_facts());
    for (uint32_t v = 0; v < session.db().num_facts(); ++v) {
      lane.push_back(S::RandomValue(rng));
    }
  }
  pipeline::RouteDecision decision =
      session.PlanConstruction(pipeline::SemiringTraits::For<S>());
  std::vector<RouteRun> runs;
  std::vector<std::vector<typename S::Value>> oracle;
  eval::Evaluator evaluator;
  for (const pipeline::PlanCandidate& cand : decision.candidates) {
    if (!cand.applicable) {
      if (std::getenv("DLCIRC_BENCH_DEBUG")) {
        std::cerr << "  [debug] " << pipeline::ConstructionName(cand.construction)
                  << " inapplicable: " << cand.reason << "\n";
      }
      continue;
    }
    RouteRun run;
    run.construction = cand.construction;
    run.picked = cand.construction == decision.construction;
    PlanKey key = PlanKey::For<S>(cand.construction);

    auto t0 = std::chrono::steady_clock::now();
    auto compiled = session.Compile(key);
    run.compile_ms = bench::MsSince(t0);
    if (!compiled.ok()) {
      std::cerr << pipeline::ConstructionName(cand.construction) << ": "
                << compiled.error() << "\n";
      std::exit(1);
    }
    Circuit::Stats stats = compiled.value()->circuit.ComputeStats();
    run.size = stats.size;
    run.depth = stats.depth;

    // Output i of every construction's plan is IDB fact i, so the batch
    // outputs are every grounded fact's value, in fact-id order.
    t0 = std::chrono::steady_clock::now();
    std::vector<std::vector<typename S::Value>> out;
    for (uint32_t r = 0; r < reps; ++r) {
      out = eval::EvaluateBatch<S>(evaluator, compiled.value()->plan, lanes);
    }
    run.eval_ms = bench::MsSince(t0) / reps;

    if (cand.construction == Construction::kGrounded) {
      oracle = out;
    } else if (!oracle.empty()) {
      for (size_t b = 0; b < oracle.size(); ++b) {
        for (size_t i = 0; i < oracle[b].size(); ++i) {
          bool same;
          if constexpr (std::is_same_v<typename S::Value, double>) {
            double a = out[b][i], o = oracle[b][i];
            same = std::abs(a - o) <= 1e-9 * std::max({1.0, std::abs(a),
                                                       std::abs(o)});
          } else {
            same = S::Eq(out[b][i], oracle[b][i]);
          }
          if (!same) {
            std::cerr << "PARITY FAIL: "
                      << pipeline::ConstructionName(cand.construction)
                      << " disagrees with grounded on fact " << i << "\n";
            std::exit(1);
          }
        }
      }
    }
    runs.push_back(run);
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  bench::Banner("E17", "planner route quality (Sections 3-6 end to end)",
                "planner pick vs every forced construction: size, depth, "
                "batched serving ms; parity gated");

  const uint32_t n = small ? 10 : 24;
  const uint32_t dense_n = small ? 8 : 14;
  const uint32_t lanes = small ? 2 : 8;
  const uint32_t reps = small ? 2 : 10;
  Rng rng(20260807);

  struct Workload {
    const char* name;
    const char* semiring;
    std::vector<RouteRun> runs;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"sparse-tc/tropical", "tropical",
       RunWorkload<TropicalSemiring>(kTcText, SparseTcFacts(n, rng), lanes,
                                     reps, rng)});
  workloads.push_back(
      {"dense-dag/tropical", "tropical",
       RunWorkload<TropicalSemiring>(kTcText, DenseDagFacts(dense_n), lanes,
                                     reps, rng)});
  workloads.push_back(
      {"bounded/fuzzy", "fuzzy",
       RunWorkload<FuzzySemiring>(kBoundedText, BoundedFacts(n, rng), lanes,
                                  reps, rng)});
  workloads.push_back(
      {"reach/boolean", "boolean",
       RunWorkload<BooleanSemiring>(kReachText, ReachFacts(n, rng), lanes,
                                    reps, rng)});
  workloads.push_back(
      {"finite-chain/boolean", "boolean",
       RunWorkload<BooleanSemiring>(kFiniteChainText, TwoLabelFacts(n, rng),
                                    lanes, reps, rng)});

  Table table({"workload", "route", "picked", "size", "depth", "compile ms",
               "eval ms/batch"});
  bool pick_beats_grounded_somewhere = false;
  uint32_t grounded_reality_wins = 0;
  for (const Workload& w : workloads) {
    const RouteRun* grounded = nullptr;
    const RouteRun* picked = nullptr;
    for (const RouteRun& r : w.runs) {
      if (r.construction == Construction::kGrounded) grounded = &r;
      if (r.picked) picked = &r;
      table.AddRow({w.name, std::string(pipeline::ConstructionName(r.construction)),
                    r.picked ? "*" : "", Table::Fmt(r.size),
                    Table::Fmt(r.depth), Table::Fmt(r.compile_ms, 3),
                    Table::Fmt(r.eval_ms, 3)});
    }
    if (grounded == nullptr || picked == nullptr) {
      std::cerr << w.name << ": missing grounded baseline or pick\n";
      return 1;
    }
    if (picked->construction != Construction::kGrounded &&
        picked->size < grounded->size) {
      pick_beats_grounded_somewhere = true;
    }
    if (picked->construction != Construction::kGrounded &&
        picked->size > grounded->size) {
      ++grounded_reality_wins;
    }
  }
  table.Print(std::cout);

  // Getting here means no parity mismatch exited above: every applicable
  // route agreed with grounded on every IDB fact across every lane.
  bench::Verdict(true, "parity held for every applicable route");
  bench::Verdict(pick_beats_grounded_somewhere,
                 "a non-grounded planner pick beats forced-grounded on at "
                 "least one workload");
  // Known cost-model limitation, reported but not failed: the planner
  // prices grounded at its static worst case (num_idb_facts + 1 ICO
  // layers), while at runtime the ICO often hits a structural fixpoint in
  // O(diameter) layers. On shallow instances that can make forced-grounded
  // smaller than a depth-motivated pick (typically uvg). See
  // src/pipeline/README.md.
  bench::Verdict(grounded_reality_wins <= 1,
                 std::to_string(grounded_reality_wins) +
                     " workload(s) where grounded's early structural "
                     "fixpoint beat the pick (static worst-case pricing)");
  return pick_beats_grounded_somewhere ? 0 : 1;
}
