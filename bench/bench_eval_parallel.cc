// E12 — the src/eval/ engine: optimizer pipeline + layered parallel
// evaluation + batched (SoA) evaluation, on a transitive-closure provenance
// circuit (repeated squaring, Theorem 5.7). Compares the seed
// Circuit::Evaluate against plan-based evaluation at 1/2/4/8 threads and
// against batched evaluation of 64 taggings, over Boolean, Tropical, and the
// provenance-polynomial semiring Sorp(X).
//
// Usage: bench_eval_parallel [--small]
//   --small  CI smoke mode: tiny graph, one repetition, no 1e6-gate claim.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/constructions/path_circuits.h"
#include "src/datalog/engine.h"
#include "src/eval/batch.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/graph/generators.h"
#include "src/semiring/instances.h"
#include "src/semiring/provenance_poly.h"
#include "src/util/table.h"

using namespace dlcirc;
using eval::EvalOptions;
using eval::EvalPlan;
using eval::Evaluator;

namespace {

template <typename F>
double TimeMs(int reps, F&& body) {
  auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  double total = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return total / reps;
}

template <Semiring S>
bool SameOutputs(const std::vector<typename S::Value>& a,
                 const std::vector<typename S::Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!S::Eq(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  bench::Banner("E12", "src/eval engine (Thm 5.7 circuit as workload)",
                "Optimizer passes + layered parallel + batched SoA evaluation "
                "vs the seed single-threaded Evaluate");
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "hardware_concurrency: " << hw
            << (small ? "  (smoke mode: --small)\n" : "\n");

  // Transitive-closure provenance by repeated squaring: wide layers, depth
  // O(log^2 n) — the shape layer-parallelism is built for.
  const uint32_t n = small ? 12 : 72;
  Rng rng(42);
  StGraph sg = RandomGraph(n, 4 * n, 1, rng);
  Circuit circuit = RepeatedSquaringCircuitIdentity(sg);
  std::cout << "TC circuit (repeated squaring, n=" << n
            << "): arena " << circuit.gates().size() << " gates, cone "
            << circuit.Size() << ", depth " << circuit.Depth() << "\n";

  // ---- optimizer pipeline -------------------------------------------------
  eval::PipelineResult opt =
      eval::OptimizeForEval(circuit, eval::PassOptions::ForAbsorptive());
  {
    Table t({"pass", "arena before", "arena after", "cone after", "arena kept %"});
    for (const eval::PassStats& ps : opt.stats) {
      double kept = ps.arena_before
                        ? 100.0 * static_cast<double>(ps.arena_after) /
                              static_cast<double>(ps.arena_before)
                        : 100.0;
      t.AddRow({ps.name, Table::Fmt(ps.arena_before), Table::Fmt(ps.arena_after),
                Table::Fmt(ps.gates_after), Table::Fmt(kept, 1)});
    }
    t.Print(std::cout);
  }
  const Circuit& optimized = opt.circuit;

  EvalPlan plan = EvalPlan::Build(optimized);
  std::cout << "plan: " << plan.num_slots() << " slots in "
            << plan.num_layers() << " layers (widest "
            << plan.max_layer_width() << "), " << plan.num_rows()
            << " live rows\n";

  // Tropical tagging: edge i weighs 1 + (i mod 50).
  std::vector<uint64_t> weights(circuit.num_vars());
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 1 + (i % 50);
  std::vector<bool> bools(circuit.num_vars(), true);

  // Parity gate before timing anything.
  auto seed_trop = circuit.Evaluate<TropicalSemiring>(weights);
  auto seed_bool = circuit.Evaluate<BooleanSemiring>(bools);
  Evaluator serial(EvalOptions{.num_threads = 1});
  if (!SameOutputs<TropicalSemiring>(
          seed_trop, serial.Evaluate<TropicalSemiring>(plan, weights)) ||
      !SameOutputs<BooleanSemiring>(
          seed_bool, serial.Evaluate<BooleanSemiring>(plan, bools))) {
    std::cerr << "PARITY FAILURE: optimized plan disagrees with seed Evaluate\n";
    return 1;
  }

  // ---- single-assignment scaling -----------------------------------------
  const int reps = small ? 1 : 5;
  double serial_ms_trop = 0;
  double speedup4 = 0;
  {
    Table t({"semiring", "engine", "ms/eval", "speedup vs plan@1"});
    struct Lane {
      const char* name;
      double seed_ms;
      std::vector<std::pair<int, double>> per_threads;
    };
    for (int which = 0; which < 2; ++which) {
      const char* name = which == 0 ? "Tropical" : "Boolean";
      double seed_ms =
          which == 0
              ? TimeMs(reps, [&] { circuit.Evaluate<TropicalSemiring>(weights); })
              : TimeMs(reps, [&] { circuit.Evaluate<BooleanSemiring>(bools); });
      double base_ms = 0;
      for (int threads : {1, 2, 4, 8}) {
        Evaluator ev(EvalOptions{.num_threads = threads});
        double ms =
            which == 0
                ? TimeMs(reps,
                         [&] { ev.Evaluate<TropicalSemiring>(plan, weights); })
                : TimeMs(reps, [&] { ev.Evaluate<BooleanSemiring>(plan, bools); });
        if (threads == 1) base_ms = ms;
        if (which == 0 && threads == 1) serial_ms_trop = ms;
        if (which == 0 && threads == 4 && ms > 0) speedup4 = base_ms / ms;
        t.AddRow({name, "plan @" + Table::Fmt(threads) + "t", Table::Fmt(ms, 3),
                  Table::Fmt(ms > 0 ? base_ms / ms : 0.0, 2)});
      }
      t.AddRow({name, "seed Evaluate", Table::Fmt(seed_ms, 3),
                Table::Fmt(seed_ms > 0 ? base_ms / seed_ms : 0.0, 2)});
    }
    t.Print(std::cout);
  }

  // ---- batched evaluation: 64 taggings, one topology walk ----------------
  const size_t B = 64;
  std::vector<std::vector<uint64_t>> taggings(B);
  Rng trng(7);
  for (size_t b = 0; b < B; ++b) {
    taggings[b].resize(circuit.num_vars());
    for (auto& w : taggings[b]) w = 1 + trng.NextBounded(50);
  }
  double serial64_ms = TimeMs(1, [&] {
    for (size_t b = 0; b < B; ++b) circuit.Evaluate<TropicalSemiring>(taggings[b]);
  });
  std::vector<std::vector<uint64_t>> batch_out;
  double batch_ms = TimeMs(1, [&] {
    batch_out = eval::EvaluateBatch<TropicalSemiring>(serial, plan, taggings);
  });
  Evaluator pooled(EvalOptions{});  // hardware threads
  double batch_par_ms = TimeMs(1, [&] {
    eval::EvaluateBatch<TropicalSemiring>(pooled, plan, taggings);
  });
  for (size_t b = 0; b < B; ++b) {
    if (!SameOutputs<TropicalSemiring>(
            circuit.Evaluate<TropicalSemiring>(taggings[b]), batch_out[b])) {
      std::cerr << "PARITY FAILURE: batched lane " << b << " disagrees\n";
      return 1;
    }
  }
  double batch_speedup = batch_ms > 0 ? serial64_ms / batch_ms : 0.0;

  // Boolean taggings through the bit-packed kernel: 64 lanes = 1 word/gate.
  std::vector<std::vector<bool>> bool_tags(B,
                                           std::vector<bool>(circuit.num_vars()));
  Rng brng(13);
  for (auto& tag : bool_tags) {
    for (size_t v = 0; v < tag.size(); ++v) tag[v] = brng.NextBool(0.9);
  }
  double bool64_ms = TimeMs(1, [&] {
    for (size_t b = 0; b < B; ++b) circuit.Evaluate<BooleanSemiring>(bool_tags[b]);
  });
  std::vector<std::vector<bool>> bit_out;
  double bit_ms = TimeMs(1, [&] {
    bit_out = eval::EvaluateBooleanBitBatch(serial, plan, bool_tags);
  });
  for (size_t b = 0; b < B; ++b) {
    auto expected = circuit.Evaluate<BooleanSemiring>(bool_tags[b]);
    for (size_t k = 0; k < expected.size(); ++k) {
      if (expected[k] != bit_out[b][k]) {
        std::cerr << "PARITY FAILURE: bit-batch lane " << b << "\n";
        return 1;
      }
    }
  }
  double bit_speedup = bit_ms > 0 ? bool64_ms / bit_ms : 0.0;
  {
    Table t({"workload, 64 taggings", "ms total", "speedup"});
    t.AddRow({"Tropical: 64 x seed Evaluate", Table::Fmt(serial64_ms, 1), "1.00"});
    t.AddRow({"Tropical: batched SoA @1t", Table::Fmt(batch_ms, 1),
              Table::Fmt(batch_speedup, 2)});
    t.AddRow({"Tropical: batched SoA @pool", Table::Fmt(batch_par_ms, 1),
              Table::Fmt(batch_par_ms > 0 ? serial64_ms / batch_par_ms : 0.0, 2)});
    t.AddRow({"Boolean: 64 x seed Evaluate", Table::Fmt(bool64_ms, 1), "1.00"});
    t.AddRow({"Boolean: bit-packed batch @1t", Table::Fmt(bit_ms, 1),
              Table::Fmt(bit_speedup, 2)});
    t.Print(std::cout);
  }

  // ---- provenance polynomials: the symbolic semiring through the same
  // engine (kept tiny: Sorp values grow combinatorially) -------------------
  {
    Rng prng(3);
    StGraph psg = RandomGraph(10, 24, 1, prng);
    Circuit pc = RepeatedSquaringCircuitIdentity(psg);
    eval::PipelineResult popt =
        eval::OptimizeForEval(pc, eval::PassOptions::ForAbsorptive());
    EvalPlan pplan = EvalPlan::Build(popt.circuit);
    const size_t PB = 8;
    std::vector<std::vector<Poly>> ptags(
        PB, IdentityTagging<SorpSemiring>(pc.num_vars()));
    double sorp_serial = TimeMs(1, [&] {
      for (size_t b = 0; b < PB; ++b) pc.Evaluate<SorpSemiring>(ptags[b]);
    });
    double sorp_batch = TimeMs(1, [&] {
      eval::EvaluateBatch<SorpSemiring>(serial, pplan, ptags);
    });
    std::cout << "Sorp(X) (n=10, B=8): 8 x seed " << Table::Fmt(sorp_serial, 1)
              << " ms vs batched " << Table::Fmt(sorp_batch, 1) << " ms\n";
  }

  bench::Verdict(true, "optimized plan + batched lanes match seed Evaluate "
                       "(Tropical, Boolean, all 64 taggings)");
  if (!small) {
    bench::Verdict(circuit.Size() >= 1000000,
                   "workload cone has >= 1e6 gates (actual " +
                       Table::Fmt(circuit.Size()) + ")");
  }
  bench::Verdict(
      speedup4 >= 2.0,
      "plan @4t >= 2x over plan @1t (got " + Table::Fmt(speedup4, 2) + "x" +
          (hw < 4 ? ", only " + Table::Fmt(hw) + " hardware thread(s) visible"
                  : "") +
          ")");
  double best_batch = std::max(batch_speedup, bit_speedup);
  bench::Verdict(best_batch >= 4.0,
                 "batched 64 taggings >= 4x over 64 serial Evaluate calls "
                 "(Tropical SoA " + Table::Fmt(batch_speedup, 2) +
                 "x, Boolean bit-packed " + Table::Fmt(bit_speedup, 2) + "x)");
  std::cout << "serial plan eval: " << Table::Fmt(serial_ms_trop, 3)
            << " ms/eval over " << plan.num_slots() << " slots\n";
  return 0;
}
