// E15 — serving chain-Datalog/RPQ workloads through the cost-based planner,
// whose Section 5 candidates come from the dichotomy analysis
// (src/pipeline/chain_planner):
//
// Part 1 (planned serving vs direct evaluation): a finite chain workload is
// compiled ONCE under the planner's pick for each semiring (the finite-RPQ
// construction, Theorem 5.8, for all four selective semirings here); each
// tagging request is then a batched EvalPlan sweep. The baseline is
// the src/cflr/ Knuth solver, which re-runs its priority-queue fixpoint
// from scratch per tagging — the compile-once/evaluate-many asymmetry the
// circuit story exists for. Output parity is differential-checked per
// request on every target pair.
//
// Part 2 (the depth dichotomy, served): sweeping graph size n, the
// finite-RPQ circuit of a finite chain language keeps depth Theta(log n)
// while the grounded construction of an infinite one (TC) grows its depth
// linearly with the ICO layer count — the two sides of Theorems 5.6-5.8,
// measured on the circuits the serving layer actually evaluates.
//
// Usage: bench_rpq_serve [--small]
//   --small    CI smoke mode: tiny graphs, few requests, relaxed verdicts
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cflr/cflr.h"
#include "src/eval/batch.h"
#include "src/graph/generators.h"
#include "src/lang/cfg.h"
#include "src/pipeline/chain_planner.h"
#include "src/semiring/instances.h"
#include "src/pipeline/session.h"
#include "src/util/fit.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace dlcirc;

namespace {

using pipeline::Construction;
using pipeline::PlanKey;
using pipeline::Session;

using Clock = std::chrono::steady_clock;

// Finite chain workload over labels {a, b, c}: longest word 3, which the
// planner sends to finite-rpq. The infinite workload is TC (E+), which part
// 2 compiles grounded to measure its ICO-layer depth.
constexpr char kFiniteGrammar[] = "S -> A b A\nA -> a | c";
constexpr char kInfiniteGrammar[] = "T -> E | T E";

struct Workload {
  Cfg cfg;
  LabeledGraph graph{0};
  std::string csv;
};

Workload MakeWorkload(const char* grammar, uint32_t n, uint32_t m, Rng* rng) {
  Workload w{ParseCfgText(grammar).value(), LabeledGraph{0}, ""};
  StGraph sg = RandomConnectedGraph(
      n, m, static_cast<uint32_t>(w.cfg.num_terminals()), *rng);
  w.graph = sg.graph;
  std::ostringstream csv;
  for (const LabeledEdge& e : w.graph.edges()) {
    csv << "v" << e.src << ",v" << e.dst << ","
        << w.cfg.terminals().Name(e.label) << "\n";
  }
  w.csv = csv.str();
  return w;
}

Session MakeSession(const Workload& w) {
  Session session = Session::FromCfg(w.cfg).value();
  Result<bool> loaded = session.LoadGraphCsv(w.csv);
  if (!loaded.ok()) {
    std::cerr << "graph load failed: " << loaded.error() << "\n";
    std::exit(1);
  }
  return session;
}

template <Semiring S>
std::vector<typename S::Value> RandomEdgeValues(size_t n, Rng* rng) {
  std::vector<typename S::Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<typename S::Value, bool>) {
      out.push_back(rng->NextBool(0.85));
    } else if constexpr (std::is_same_v<typename S::Value, uint64_t>) {
      out.push_back(rng->NextBounded(50) + 1);
    } else {
      out.push_back(0.05 + 0.9 * rng->NextDouble());
    }
  }
  return out;
}

/// Part 1 for one semiring: R requests through the planner's plan (one
/// batched sweep, the serving path) vs R Knuth fixpoints; parity on every
/// (u,v).
template <Semiring S>
bool RoutedVsCflr(const Workload& w, size_t requests, Rng* rng, Table* table) {
  Session session = MakeSession(w);
  PlanKey key = PlanKey::For<S>(
      session.PlanConstruction(pipeline::SemiringTraits::For<S>())
          .construction);

  std::vector<std::vector<typename S::Value>> edge_values;
  std::vector<std::vector<typename S::Value>> lanes;
  for (size_t r = 0; r < requests; ++r) {
    edge_values.push_back(RandomEdgeValues<S>(w.graph.num_edges(), rng));
    std::vector<typename S::Value> lane(session.db().num_facts(), S::Zero());
    for (size_t i = 0; i < edge_values.back().size(); ++i) {
      uint32_t var = session.edge_vars()[i];
      lane[var] = S::Plus(lane[var], edge_values.back()[i]);
    }
    lanes.push_back(std::move(lane));
  }
  const std::vector<uint32_t>& facts = session.TargetFacts();

  // Planned: compile once (outside the serving clock, like a warm server),
  // then one batched sweep over all request lanes.
  auto compiled = session.Compile(key);
  if (!compiled.ok()) {
    std::cerr << compiled.error() << "\n";
    return false;
  }
  eval::Evaluator evaluator;
  Clock::time_point t0 = Clock::now();
  const std::vector<std::vector<typename S::Value>> outputs =
      eval::EvaluateBatch<S>(evaluator, compiled.value()->plan, lanes);
  double routed_ms = bench::MsSince(t0);

  // Baseline: the Knuth solver re-runs per request.
  Cfg cnf = w.cfg.ToCnf();
  std::vector<std::unordered_map<uint64_t, typename S::Value>> solved;
  t0 = Clock::now();
  for (size_t r = 0; r < requests; ++r) {
    solved.push_back(SolveCflReachability<S>(cnf, w.graph, edge_values[r]));
  }
  double cflr_ms = bench::MsSince(t0);

  // Parity, every target fact of every request. Grounded tuples hold domain
  // constant ids; translate back to graph vertex numbers via the "v<i>"
  // naming the CSV was generated with.
  const GroundedProgram& g = session.grounded();
  std::vector<uint32_t> vertex_of_const(session.db().domain().size(), 0);
  for (uint32_t v = 0; v < w.graph.num_vertices(); ++v) {
    uint32_t id = session.db().domain().Find("v" + std::to_string(v));
    if (id != Interner::kNotFound) vertex_of_const[id] = v;
  }
  bool parity = true;
  for (size_t r = 0; r < requests && parity; ++r) {
    for (size_t i = 0; i < facts.size() && parity; ++i) {
      const GroundedProgram::IdbFact& f = g.idb_facts()[facts[i]];
      auto it = solved[r].find(CflrKey(cnf.start(),
                                       vertex_of_const[f.tuple[0]],
                                       vertex_of_const[f.tuple[1]]));
      typename S::Value expected =
          it == solved[r].end() ? S::Zero() : it->second;
      typename S::Value got = outputs[r][facts[i]];
      if constexpr (std::is_same_v<typename S::Value, double>) {
        double scale = std::max(1.0, std::max(std::abs(got), std::abs(expected)));
        parity = std::abs(got - expected) <= 1e-9 * scale;
      } else {
        parity = S::Eq(got, expected);
      }
    }
  }
  const pipeline::CompiledPlan& plan = *compiled.value();
  table->AddRow({S::Name(), pipeline::ConstructionName(key.construction).data(),
                 Table::Fmt(static_cast<uint64_t>(requests)),
                 Table::Fmt(routed_ms, 2), Table::Fmt(cflr_ms, 2),
                 Table::Fmt(cflr_ms / std::max(routed_ms, 1e-6), 1) + "x",
                 Table::Fmt(plan.circuit.Size()), parity ? "ok" : "MISMATCH"});
  return parity;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }
  bench::Banner("E15", "Thm 5.6-5.8 dichotomy, served",
                "routed finite-RPQ serving vs the cflr Knuth baseline, and "
                "the O(log n) vs O(n)-ish depth separation on served plans");
  Rng rng(20260715);

  // ------------------------------------------------------------- part 1
  const uint32_t n1 = small ? 10 : 26;
  const uint32_t m1 = small ? 30 : 90;
  const size_t requests = small ? 8 : 64;
  Workload finite = MakeWorkload(kFiniteGrammar, n1, m1, &rng);
  std::cout << "\npart 1: " << requests << " tagging requests, graph n=" << n1
            << " m=" << m1 << " (compile once, sweep batched vs per-request "
            << "Knuth fixpoint)\n";
  Table t1({"semiring", "construction", "req", "routed ms", "cflr ms",
            "speedup", "circuit", "parity"});
  bool parity = true;
  parity &= RoutedVsCflr<TropicalSemiring>(finite, requests, &rng, &t1);
  parity &= RoutedVsCflr<BooleanSemiring>(finite, requests, &rng, &t1);
  parity &= RoutedVsCflr<ViterbiSemiring>(finite, requests, &rng, &t1);
  parity &= RoutedVsCflr<FuzzySemiring>(finite, requests, &rng, &t1);
  t1.Print(std::cout);
  bench::Verdict(parity, "routed circuits agree with the Knuth oracle on "
                         "every target pair of every request");

  // ------------------------------------------------------------- part 2
  std::cout << "\npart 2: depth of the served circuit vs graph size\n";
  // The infinite branch's grounded circuit grows ~n^3 gates (facts x rules
  // x ICO layers), so the sweep stops at 48 — by then the separation is two
  // orders of magnitude, which is the point.
  std::vector<uint32_t> sizes = small ? std::vector<uint32_t>{8, 16, 32}
                                      : std::vector<uint32_t>{8, 16, 32, 48};
  Table t2({"n", "finite depth", "d/lg n", "grounded (TC) depth", "d/n"});
  std::vector<double> fdepths, lgs, udepths, ns;
  for (uint32_t n : sizes) {
    Workload fin = MakeWorkload(kFiniteGrammar, n, 3 * n, &rng);
    Session fs = MakeSession(fin);
    auto fplan =
        fs.Compile(PlanKey::For<BooleanSemiring>(Construction::kFiniteRpq));
    Workload inf = MakeWorkload(kInfiniteGrammar, n, 2 * n, &rng);
    Session is = MakeSession(inf);
    auto uplan =
        is.Compile(PlanKey::For<BooleanSemiring>(Construction::kGrounded));
    if (!fplan.ok() || !uplan.ok()) {
      std::cerr << "compile failed\n";
      return 1;
    }
    double fd = fplan.value()->circuit.Depth();
    double ud = uplan.value()->circuit.Depth();
    double lg = std::log2(static_cast<double>(n));
    t2.AddRow({Table::Fmt(n), Table::Fmt(static_cast<uint64_t>(fd)),
               Table::Fmt(fd / lg, 2), Table::Fmt(static_cast<uint64_t>(ud)),
               Table::Fmt(ud / n, 2)});
    fdepths.push_back(fd);
    lgs.push_back(lg);
    udepths.push_back(ud);
    ns.push_back(n);
  }
  t2.Print(std::cout);
  double fspread = ThetaRatioSpread(fdepths, lgs);
  double uspread = ThetaRatioSpread(udepths, ns);
  // The separation: finite-route depth tracks log n; the infinite branch
  // tracks its ICO layer count, i.e. grows ~linearly on these graphs.
  double sep = (udepths.back() / fdepths.back()) /
               (udepths.front() / fdepths.front());
  bool ok = fspread < 3.0 && sep > (small ? 1.5 : 2.5);
  bench::Verdict(
      ok, "finite depth tracks log n (spread " + Table::Fmt(fspread, 2) +
              "), grounded/finite depth ratio grew " + Table::Fmt(sep, 1) +
              "x across the sweep (TC spread vs n " + Table::Fmt(uspread, 2) +
              ") — the dichotomy's separation, served");
  // Parity is a correctness gate even in --small CI mode; the depth verdict
  // is measurement-shaped and only gates the full run.
  return (parity && (ok || small)) ? 0 : 1;
}
