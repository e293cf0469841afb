// E13 — incremental tag-update evaluation (src/eval/delta) on the Theorem
// 5.7 transitive-closure circuit: the serving-update story. One >= 1e6-gate
// repeated-squaring TC plan, a materialized EvalState per "user", and sparse
// tag deltas (single flips and k-tag batches) propagated through the
// dependents index with value-level short-circuiting — measured against a
// full re-evaluation through the SAME plan, over Tropical and Boolean, plus
// a small Sorp(X) provenance run (symbolic values, where a skipped gate is
// a skipped polynomial multiplication).
//
// Usage: bench_eval_delta [--small]
//   --small  CI smoke mode: tiny graph, no 1e6-gate or 10x claims.
#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/constructions/path_circuits.h"
#include "src/datalog/engine.h"
#include "src/eval/delta.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/graph/generators.h"
#include "src/semiring/instances.h"
#include "src/semiring/provenance_poly.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace dlcirc;
using eval::DeltaOptions;
using eval::DeltaStats;
using eval::EvalOptions;
using eval::EvalPlan;
using eval::EvalState;
using eval::Evaluator;
using eval::IncrementalEvaluator;
using eval::TagDelta;

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

struct DeltaRow {
  double ms_per_update = 0;
  double avg_recomputed = 0;
  size_t fallbacks = 0;
};


/// Applies `num_updates` random k-tag deltas to a materialized state and
/// averages time and touched gates. Updates persist (each builds on the
/// last), matching how a served lane drifts under live traffic.
template <Semiring S, typename MakeValue>
DeltaRow RunDeltas(const IncrementalEvaluator& inc, const EvalPlan& plan,
                   EvalState<S>* state, size_t k, int num_updates, Rng& rng,
                   MakeValue&& make_value) {
  DeltaRow row;
  size_t recomputed = 0;
  // Variables the plan actually reads (the optimizer may have pruned input
  // gates): deltas are drawn from these so every update is a live one.
  const std::vector<uint32_t>& live = plan.input_vars();
  double total_ms = TimeMs(1, [&] {
    for (int u = 0; u < num_updates; ++u) {
      TagDelta<S> delta;
      delta.reserve(k);
      for (size_t i = 0; i < k; ++i) {
        uint32_t var = live[rng.NextBounded(live.size())];
        delta.push_back({var, make_value(rng)});
      }
      DeltaStats st = inc.Update<S>(plan, state, delta);
      recomputed += st.recomputed;
      if (st.full_fallback) ++row.fallbacks;
    }
  });
  row.ms_per_update = total_ms / num_updates;  // TimeMs(1) returned the total
  row.avg_recomputed =
      static_cast<double>(recomputed) / static_cast<double>(num_updates);
  return row;
}

template <Semiring S>
bool StateMatchesFullEval(const Evaluator& full, const EvalPlan& plan,
                          const EvalState<S>& state) {
  std::vector<eval::SlotValue<S>> fresh;
  full.EvaluateInto<S>(plan, state.assignment, &fresh);
  for (uint32_t s : plan.output_slots()) {
    if (!S::Eq(static_cast<typename S::Value>(fresh[s]),
               static_cast<typename S::Value>(state.slots[s]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
  }

  bench::Banner("E13", "src/eval/delta (Thm 5.7 circuit as serving workload)",
                "Sparse tag updates through the dependents index vs full "
                "re-evaluation through the same plan");

  // RandomConnectedGraph: t must be reachable, else the cone (and the
  // delta workload) collapses to the constant 0.
  const uint32_t n = small ? 12 : 72;
  Rng rng(42);
  StGraph sg = RandomConnectedGraph(n, 4 * n, 1, rng);
  Circuit circuit = RepeatedSquaringCircuitIdentity(sg);
  eval::PipelineResult opt =
      eval::OptimizeForEval(circuit, eval::PassOptions::ForAbsorptive());
  EvalPlan plan = EvalPlan::Build(opt.circuit);
  std::cout << "TC circuit (repeated squaring, n=" << n << "): cone "
            << opt.circuit.Size() << " gates -> plan " << plan.num_slots()
            << " slots in " << plan.num_layers() << " layers"
            << (small ? "  (smoke mode: --small)" : "") << "\n";

  Evaluator serial(EvalOptions{.num_threads = 1});
  const int reps = small ? 2 : 3;
  const int num_updates = small ? 32 : 128;
  bool parity_ok = true;
  double trop_speedup1 = 0;

  Table t({"semiring", "delta size k", "ms/update", "full ms", "speedup",
           "avg gates touched", "fallbacks"});

  // ---- Tropical, two tagging regimes -------------------------------------
  // "dense": every edge carries a finite weight and updates redraw weights
  // uniformly — the adversarial case, where one edge perturbs every product
  // through it and the dirty cone is a sizable slice of the plan.
  // "sparse": the serving shape — each lane activates ~30% of the EDB (the
  // rest tagged out with 0 = +inf, e.g. per-user visibility) and updates
  // churn edges in and out. Value changes then stay local and the
  // short-circuit pays off.
  IncrementalEvaluator trop_inc(serial, DeltaOptions::For<TropicalSemiring>());
  for (int regime = 0; regime < 2; ++regime) {
    const bool sparse = regime == 1;
    const double drop = sparse ? 0.7 : 0.0;
    std::vector<uint64_t> weights(plan.num_vars());
    Rng wrng(7);
    for (auto& w : weights) {
      w = wrng.NextBool(drop) ? TropicalSemiring::kInf
                              : 1 + wrng.NextBounded(50);
    }
    std::vector<eval::SlotValue<TropicalSemiring>> scratch;
    double full_ms = TimeMs(reps, [&] {
      serial.EvaluateInto<TropicalSemiring>(plan, weights, &scratch);
    });
    EvalState<TropicalSemiring> state =
        trop_inc.Materialize<TropicalSemiring>(plan, weights);
    auto weight = [drop](Rng& r) {
      return r.NextBool(drop) ? TropicalSemiring::kInf
                              : 1 + r.NextBounded(50);
    };
    const char* label = sparse ? "Tropical sparse" : "Tropical dense";
    for (size_t k : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
      Rng drng(1000 + k);
      DeltaRow row = RunDeltas<TropicalSemiring>(trop_inc, plan, &state, k,
                                                 num_updates, drng, weight);
      double speedup = row.ms_per_update > 0 ? full_ms / row.ms_per_update : 0;
      if (k == 1 && sparse) trop_speedup1 = speedup;
      t.AddRow({label, Table::Fmt(k), Table::Fmt(row.ms_per_update, 4),
                Table::Fmt(full_ms, 2), Table::Fmt(speedup, 1),
                Table::Fmt(row.avg_recomputed, 1), Table::Fmt(row.fallbacks)});
    }
    parity_ok = parity_ok &&
                StateMatchesFullEval<TropicalSemiring>(serial, plan, state);
  }

  // ---- Boolean: reachability under fact insertions/deletions -------------
  double bool_speedup1 = 0;
  {
    std::vector<bool> tags(plan.num_vars());
    Rng brng(13);
    for (size_t v = 0; v < tags.size(); ++v) tags[v] = brng.NextBool(0.9);
    std::vector<eval::SlotValue<BooleanSemiring>> scratch;
    double full_ms = TimeMs(reps, [&] {
      serial.EvaluateInto<BooleanSemiring>(plan, tags, &scratch);
    });
    IncrementalEvaluator inc(serial, DeltaOptions::For<BooleanSemiring>());
    EvalState<BooleanSemiring> state =
        inc.Materialize<BooleanSemiring>(plan, tags);
    auto coin = [](Rng& r) { return r.NextBool(0.9); };
    for (size_t k : {size_t{1}, size_t{16}}) {
      Rng drng(2000 + k);
      DeltaRow row = RunDeltas<BooleanSemiring>(inc, plan, &state, k,
                                                num_updates, drng, coin);
      double speedup = row.ms_per_update > 0 ? full_ms / row.ms_per_update : 0;
      if (k == 1) bool_speedup1 = speedup;
      t.AddRow({"Boolean", Table::Fmt(k), Table::Fmt(row.ms_per_update, 4),
                Table::Fmt(full_ms, 2), Table::Fmt(speedup, 1),
                Table::Fmt(row.avg_recomputed, 1), Table::Fmt(row.fallbacks)});
    }
    parity_ok = parity_ok &&
                StateMatchesFullEval<BooleanSemiring>(serial, plan, state);
  }

  // ---- Sorp(X): symbolic provenance, where skipped gates are skipped
  // polynomial arithmetic (kept small: values grow combinatorially) --------
  {
    Rng prng(3);
    StGraph psg = RandomConnectedGraph(10, 24, 1, prng);
    Circuit pc = RepeatedSquaringCircuitIdentity(psg);
    eval::PipelineResult popt =
        eval::OptimizeForEval(pc, eval::PassOptions::ForAbsorptive());
    EvalPlan pplan = EvalPlan::Build(popt.circuit);
    std::vector<Poly> ptags = IdentityTagging<SorpSemiring>(pc.num_vars());
    std::vector<eval::SlotValue<SorpSemiring>> scratch;
    double full_ms = TimeMs(reps, [&] {
      serial.EvaluateInto<SorpSemiring>(pplan, ptags, &scratch);
    });
    IncrementalEvaluator inc(serial, DeltaOptions::For<SorpSemiring>());
    EvalState<SorpSemiring> state =
        inc.Materialize<SorpSemiring>(pplan, ptags);
    // Fact deletion/restoration: the sparse-update pattern a provenance
    // service actually sees (tag a fact out with 0, put it back as x_v).
    Rng drng(31);
    size_t recomputed = 0, fallbacks = 0;
    const int poly_updates = small ? 8 : 32;
    const std::vector<uint32_t>& live = pplan.input_vars();
    double ms = TimeMs(1, [&] {
      for (int u = 0; u < poly_updates; ++u) {
        uint32_t var = live[drng.NextBounded(live.size())];
        Poly v = drng.NextBool(0.5) ? SorpSemiring::Zero()
                                    : SorpSemiring::Var(var);
        DeltaStats st =
            inc.Update<SorpSemiring>(pplan, &state, {{var, std::move(v)}});
        recomputed += st.recomputed;
        if (st.full_fallback) ++fallbacks;
      }
    });
    double per = ms / poly_updates;
    t.AddRow({"Sorp(X) (n=10)", "1", Table::Fmt(per, 4), Table::Fmt(full_ms, 2),
              Table::Fmt(per > 0 ? full_ms / per : 0, 1),
              Table::Fmt(static_cast<double>(recomputed) / poly_updates, 1),
              Table::Fmt(fallbacks)});
    parity_ok =
        parity_ok && StateMatchesFullEval<SorpSemiring>(serial, pplan, state);
  }
  t.Print(std::cout);

  bench::Verdict(parity_ok,
                 "incremental states match full re-evaluation through the "
                 "same plan (Tropical, Boolean, Sorp(X)) after every stream");
  if (!small) {
    bench::Verdict(plan.num_slots() >= 1000000,
                   "workload plan has >= 1e6 gates (actual " +
                       Table::Fmt(plan.num_slots()) + ")");
    bench::Verdict(trop_speedup1 >= 10.0 && bool_speedup1 >= 10.0,
                   "single-tag update >= 10x faster than full re-eval in the "
                   "serving regimes (Tropical sparse " +
                       Table::Fmt(trop_speedup1, 1) + "x, Boolean " +
                       Table::Fmt(bool_speedup1, 1) + "x)");
  }
  return parity_ok ? 0 : 1;
}
