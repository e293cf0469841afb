#include "src/pipeline/planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "src/lang/chain_datalog.h"
#include "src/lang/dfa.h"
#include "src/util/check.h"
#include "src/util/json.h"

namespace dlcirc {
namespace pipeline {

namespace {

double Lg(double x) { return std::log2(std::max(2.0, x)); }

/// Structural test for L(dfa) = Sigma+ on a *minimized* DFA: exactly two
/// states — a non-accepting start and an accepting sink — with every label
/// moving both into the sink. (Deciding L = Sigma+ is undecidable for CFGs
/// but trivial for the regular languages left-linear chain programs have.)
bool DfaIsSigmaPlus(const Dfa& dfa) {
  if (dfa.num_labels() == 0 || dfa.num_states() != 2) return false;
  const uint32_t start = dfa.start();
  const uint32_t sink = 1 - start;
  if (dfa.accept(start) || !dfa.accept(sink)) return false;
  for (uint32_t l = 0; l < dfa.num_labels(); ++l) {
    if (dfa.Next(start, l) != static_cast<int32_t>(sink)) return false;
    if (dfa.Next(sink, l) != static_cast<int32_t>(sink)) return false;
  }
  return true;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

std::string TraitsSummary(const SemiringTraits& t) {
  std::string out;
  if (t.plus_idempotent) out += "plus-idempotent";
  if (t.times_idempotent) out += std::string(out.empty() ? "" : ", ") + "times-idempotent";
  if (t.absorptive) out += std::string(out.empty() ? "" : ", ") + "absorptive";
  if (out.empty()) out = "no class flags";
  return out;
}

}  // namespace

std::string_view ConstructionName(Construction c) {
  switch (c) {
    case Construction::kGrounded:
      return "grounded";
    case Construction::kUvg:
      return "uvg";
    case Construction::kFiniteRpq:
      return "finite-rpq";
    case Construction::kBounded:
      return "bounded";
    case Construction::kBellmanFord:
      return "bellman-ford";
    case Construction::kRepeatedSquaring:
      return "repeated-squaring";
  }
  return "?";
}

Result<Construction> ParseConstruction(std::string_view name) {
  if (name == "grounded") return Construction::kGrounded;
  if (name == "uvg") return Construction::kUvg;
  if (name == "finite-rpq") return Construction::kFiniteRpq;
  if (name == "bounded") return Construction::kBounded;
  if (name == "bellman-ford") return Construction::kBellmanFord;
  if (name == "repeated-squaring") return Construction::kRepeatedSquaring;
  return Result<Construction>::Error(
      "unknown construction `" + std::string(name) +
      "` (expected grounded, uvg, finite-rpq, bounded, bellman-ford, or "
      "repeated-squaring)");
}

PlannerContext BuildPlannerContext(const Program& program, const Database& db,
                                   const GroundedProgram& grounded,
                                   const ExpansionLimits& limits) {
  PlannerContext ctx;
  ctx.analysis = Analyze(program);
  ctx.chain = PlanChainRoute(program);

  // Sigma+ detection. The chain route carries DFAs only on the finite side,
  // so the infinite side rebuilds them: left-linear programs only — the
  // structural test needs a minimized DFA per predicate.
  if (ctx.chain.ok() && !ctx.chain.value().finite) {
    Result<ChainNfa> nfa_r = LeftLinearChainToNfa(program);
    if (nfa_r.ok()) {
      const ChainNfa& cn = nfa_r.value();
      bool all_sigma_plus = true;
      bool any_nonempty = false;
      for (size_t p = 0; p < program.num_preds(); ++p) {
        if (!ctx.analysis.idb_mask[p]) continue;
        const uint32_t state = cn.pred_state[p];
        DLCIRC_CHECK_NE(state, ChainNfa::kNoState);
        Nfa nfa = cn.nfa;
        nfa.accept.assign(nfa.num_states, false);
        nfa.accept[state] = true;
        Dfa dfa = Dfa::Determinize(nfa).Minimize();
        if (dfa.IsEmptyLanguage()) continue;
        if (!DfaIsSigmaPlus(dfa)) {
          all_sigma_plus = false;
          break;
        }
        any_nonempty = true;
      }
      ctx.sigma_plus = all_sigma_plus && any_nonempty;
    }
  }

  ctx.bounded = CheckBoundedness(program, limits);
  if (ctx.bounded.verdict == BoundednessReport::Verdict::kBounded) {
    // Chain-exact bounds count word length; ICO layers must also cover
    // unit-rule chains between length-reducing steps, hence the
    // (num_preds+1) factor. Chom bounds count rule applications, which
    // dominate derivation-tree height directly.
    ctx.bounded_layer_cap =
        ctx.bounded.chain_exact
            ? (ctx.bounded.bound + 1) *
                      (static_cast<uint32_t>(program.num_preds()) + 1) +
                  1
            : ctx.bounded.bound + 1;
  }

  ctx.grounded_size = grounded.TotalSize();
  ctx.num_idb_facts = grounded.num_idb_facts();
  ctx.num_vertices = static_cast<uint32_t>(db.domain().size());
  std::vector<uint32_t> indeg(ctx.num_vertices, 0);
  for (uint32_t var = 0; var < db.num_facts(); ++var) {
    const auto& tuple = db.fact(var).tuple;
    if (tuple.size() != 2) {
      ctx.binary_edb = false;
      continue;
    }
    ++ctx.num_edges;
    ctx.max_indegree = std::max(ctx.max_indegree, ++indeg[tuple[1]]);
  }
  // All-source BFS diameter of the EDB graph, for the grounded depth cap
  // (see PlannerContext::edb_diameter_bound). Budgeted: O(V * (V + E)) is
  // plan-time-only work, so probe up to 4096 vertices and leave the bound
  // unknown (0) beyond that — estimates must never dominate compile time.
  // Unary facts (vertex labels like A(x)) are not edges, so the probe runs
  // over the binary-fact subgraph whether or not the whole EDB is binary.
  constexpr uint32_t kDiameterProbeLimit = 4096;
  if (ctx.num_edges > 0 && ctx.num_vertices <= kDiameterProbeLimit) {
    std::vector<std::vector<uint32_t>> adj(ctx.num_vertices);
    for (uint32_t var = 0; var < db.num_facts(); ++var) {
      const auto& tuple = db.fact(var).tuple;
      if (tuple.size() == 2) adj[tuple[0]].push_back(tuple[1]);
    }
    std::vector<uint32_t> dist(ctx.num_vertices);
    std::vector<uint32_t> queue;
    queue.reserve(ctx.num_vertices);
    for (uint32_t src = 0; src < ctx.num_vertices; ++src) {
      if (adj[src].empty()) continue;
      dist.assign(ctx.num_vertices, UINT32_MAX);
      dist[src] = 0;
      queue.clear();
      queue.push_back(src);
      for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t u = queue[head];
        for (uint32_t w : adj[u]) {
          if (dist[w] != UINT32_MAX) continue;
          dist[w] = dist[u] + 1;
          ctx.edb_diameter_bound = std::max(ctx.edb_diameter_bound, dist[w]);
          queue.push_back(w);
        }
      }
    }
  }
  std::vector<bool> is_source(ctx.num_vertices, false);
  for (const auto& fact : grounded.idb_facts()) {
    if (fact.tuple.size() != 2) {
      ctx.binary_idb = false;
      continue;
    }
    if (fact.tuple[0] == fact.tuple[1]) ctx.has_diagonal_fact = true;
    if (!is_source[fact.tuple[0]]) {
      is_source[fact.tuple[0]] = true;
      ++ctx.num_idb_sources;
    }
  }
  return ctx;
}

RouteDecision PlanRoute(const PlannerContext& c, const SemiringTraits& s,
                        const PlannerOptions& o) {
  const double g = static_cast<double>(std::max<uint64_t>(1, c.grounded_size));
  const double n_idb = std::max<uint32_t>(1, c.num_idb_facts);
  const double m = std::max<uint32_t>(1, c.num_edges);
  const double v = std::max<uint32_t>(1, c.num_vertices);
  // Depth of one ICO layer: a PlusN over the ground rules of a fact, each a
  // TimesN — log of the average fan-in, plus the two gate levels.
  const double layer_depth = 2.0 + Lg(g / n_idb + 1.0);

  RouteDecision d;
  d.depth_weight = o.depth_weight;
  auto reject = [&](Construction cons, std::string reason) {
    d.candidates.push_back({cons, false, std::move(reason), 0, 0, 0});
  };
  auto score = [&](Construction cons, std::string reason, double est_size,
                   double est_depth) {
    d.candidates.push_back({cons, true, std::move(reason), est_size, est_depth,
                            est_size + o.depth_weight * est_depth});
  };

  // kGrounded (Theorem 3.1): always applicable; the baseline everything
  // else must beat. The depth estimate is instance-aware (the E17 gap):
  // on a graph-shaped EDB the structural fixpoint lands after about
  // diameter-many ICO layers, so a shallow instance must not be priced at
  // the num_idb_facts+1 static worst case — that mispriced depth is what
  // made depth-motivated routes beat forced-grounded picks that E17
  // measured as faster. Compile still iterates to the true fixpoint; this
  // caps only the cost estimate.
  double grounded_layers = n_idb + 1;
  std::string grounded_reason =
      "always applicable (Theorem 3.1): " +
      std::to_string(c.num_idb_facts + 1) + " ICO layers worst case";
  if (c.edb_diameter_bound > 0 && c.edb_diameter_bound + 1 < grounded_layers) {
    grounded_layers = c.edb_diameter_bound + 1;
    grounded_reason = "always applicable (Theorem 3.1): ~" +
                      std::to_string(c.edb_diameter_bound + 1) +
                      " ICO layers (EDB diameter bound; static worst case " +
                      std::to_string(c.num_idb_facts + 1) + ")";
  }
  score(Construction::kGrounded, std::move(grounded_reason), g * (n_idb + 1),
        grounded_layers * layer_depth);

  // kUvg (Theorem 6.2).
  if (!(s.absorptive && s.plus_idempotent)) {
    reject(Construction::kUvg, "needs an absorptive semiring (Theorem 6.2); " +
                                   s.name + " is not absorptive");
  } else if (!c.analysis.is_linear) {
    reject(Construction::kUvg,
           "program is not linear, so no polynomial-fringe guarantee "
           "(Corollary 6.3)");
  } else if (!c.analysis.is_recursive) {
    reject(Construction::kUvg,
           "program is not recursive; the grounded construction already "
           "converges in O(1) layers");
  } else {
    score(Construction::kUvg,
          "linear recursive program over an absorptive semiring: depth "
          "O(log^2 m) with a polynomial fringe (Theorem 6.2, Corollary 6.3)",
          g * n_idb, Lg(g) * Lg(g));
  }

  // kFiniteRpq (Theorem 5.8).
  if (!c.chain.ok()) {
    reject(Construction::kFiniteRpq,
           "not a basic chain program: " + c.chain.error());
  } else if (!c.chain.value().finite) {
    reject(Construction::kFiniteRpq, c.chain.value().reason);
  } else if (!s.plus_idempotent) {
    reject(Construction::kFiniteRpq,
           "finite chain languages, but " + s.name +
               " is not plus-idempotent (the construction sums per word, "
               "the program per derivation)");
  } else {
    const uint32_t longest = c.chain.value().longest_word;
    score(Construction::kFiniteRpq,
          c.chain.value().reason + "; size O(m), depth O(log n)",
          m * (longest + 1) + n_idb, Lg(longest + 1) + Lg(m));
  }

  // kBounded (Theorem 4.3 via Section 4 boundedness).
  if (c.bounded.verdict != BoundednessReport::Verdict::kBounded) {
    reject(Construction::kBounded,
           c.bounded.horizon_limited
               ? "no bound found within the expansion horizon (Theorem 4.5 "
                 "semi-decision)"
               : "program is unbounded");
  } else if (c.bounded.chain_exact ? !s.plus_idempotent
                                   : !(s.absorptive && s.times_idempotent)) {
    reject(Construction::kBounded,
           c.bounded.chain_exact
               ? "chain-exact bound " + std::to_string(c.bounded.bound) +
                     ", but " + s.name +
                     " is not plus-idempotent, so truncating repeated unit "
                     "cycles changes the sum"
               : "Chom bound " + std::to_string(c.bounded.bound) + ", but " +
                     s.name +
                     " is outside Chom (absorptive + times-idempotent), so "
                     "Corollary 4.7 does not transfer the bound");
  } else {
    score(Construction::kBounded,
          std::string("bounded (") +
              (c.bounded.chain_exact ? "chain-exact, Prop 5.5"
                                     : "Chom semi-decision, Theorem 4.6") +
              ", bound " + std::to_string(c.bounded.bound) + "): " +
              std::to_string(c.bounded_layer_cap) +
              " ICO layers suffice, depth O(log n) (Theorem 4.3)",
          g * std::max<uint32_t>(1, c.bounded_layer_cap),
          std::max<uint32_t>(1, c.bounded_layer_cap) * layer_depth);
  }

  // kBellmanFord / kRepeatedSquaring (Theorems 5.6/5.7): TC-shaped chain
  // programs, i.e. every non-empty language is Sigma+.
  std::string tc_shape_rejection;
  if (!c.chain.ok()) {
    tc_shape_rejection = "not a basic chain program: " + c.chain.error();
  } else if (!c.sigma_plus) {
    tc_shape_rejection =
        "not TC-shaped: some chain language differs from Sigma+ (or the "
        "program is finite/not left-linear)";
  } else if (!c.binary_edb || !c.binary_idb) {
    tc_shape_rejection = "EDB/IDB facts are not all binary edges";
  } else if (!s.absorptive) {
    tc_shape_rejection = "needs an absorptive semiring; " + s.name +
                         " is not absorptive (walks beyond the layer bound "
                         "would not be absorbed)";
  }
  if (!tc_shape_rejection.empty()) {
    reject(Construction::kBellmanFord, tc_shape_rejection);
    reject(Construction::kRepeatedSquaring, tc_shape_rejection);
  } else {
    const double srcs = std::max<uint32_t>(1, c.num_idb_sources);
    score(Construction::kBellmanFord,
          "TC-shaped chain program: layered Bellman-Ford relaxation, size "
          "O(mn) — wins on sparse graphs (Theorem 5.6)",
          m * v * srcs, v * (1.0 + Lg(c.max_indegree + 1.0)));
    if (c.has_diagonal_fact) {
      reject(Construction::kRepeatedSquaring,
             "a grounded IDB fact P(v,v) exists (closed walks); the "
             "repeated-squaring matrix fixes the diagonal at 1 — use "
             "bellman-ford");
    } else {
      score(Construction::kRepeatedSquaring,
            "TC-shaped chain program: repeated matrix squaring, size "
            "O(n^3 log n), depth O(log^2 n) — wins on dense graphs "
            "(Theorem 5.7)",
            v * v * v * Lg(v), Lg(v) * (Lg(v) + 1.0));
    }
  }

  // Lowest score wins; enum order (grounded first) breaks ties.
  const PlanCandidate* best = nullptr;
  for (const PlanCandidate& cand : d.candidates) {
    if (!cand.applicable) continue;
    if (best == nullptr || cand.score < best->score) best = &cand;
  }
  DLCIRC_CHECK(best != nullptr) << "kGrounded is always applicable";
  d.construction = best->construction;
  d.reason = best->reason;
  return d;
}

std::string RenderExplainText(const RouteDecision& d,
                              const SemiringTraits& traits) {
  std::string out = "plan tree (semiring " + traits.name + ": " +
                    TraitsSummary(traits) +
                    "), chosen: " + std::string(ConstructionName(d.construction)) +
                    "\n";
  for (const PlanCandidate& cand : d.candidates) {
    out += (cand.construction == d.construction ? "  * " : "    ");
    out += std::string(ConstructionName(cand.construction));
    if (cand.applicable) {
      out += "  score " + Num(cand.score) + " = size " + Num(cand.est_size) +
             " + " + Num(d.depth_weight) + " x depth " + Num(cand.est_depth);
    } else {
      out += "  inapplicable";
    }
    out += "\n        " + cand.reason + "\n";
  }
  return out;
}

std::string RenderExplainJson(const RouteDecision& d,
                              const SemiringTraits& traits) {
  std::string out = "{\"semiring\": \"" + JsonEscape(traits.name) +
                    "\", \"construction\": \"" +
                    std::string(ConstructionName(d.construction)) +
                    "\", \"reason\": \"" + JsonEscape(d.reason) +
                    "\", \"candidates\": [";
  for (size_t i = 0; i < d.candidates.size(); ++i) {
    const PlanCandidate& cand = d.candidates[i];
    if (i > 0) out += ", ";
    out += "{\"construction\": \"" +
           std::string(ConstructionName(cand.construction)) +
           "\", \"applicable\": " + (cand.applicable ? "true" : "false");
    if (cand.applicable) {
      out += ", \"score\": " + Num(cand.score) +
             ", \"est_size\": " + Num(cand.est_size) +
             ", \"est_depth\": " + Num(cand.est_depth);
    }
    out += ", \"reason\": \"" + JsonEscape(cand.reason) + "\"}";
  }
  out += "]}";
  return out;
}

Result<EdbGraph> EdbAsGraph(const Program& program, const Database& db) {
  EdbGraph out;
  out.graph = LabeledGraph(static_cast<uint32_t>(db.domain().size()), 1);
  out.edge_vars.reserve(db.num_facts());
  for (uint32_t var = 0; var < db.num_facts(); ++var) {
    const auto& tuple = db.fact(var).tuple;
    if (tuple.size() != 2) {
      return Result<EdbGraph>::Error(
          "EDB fact " + db.FactToString(program, var) +
          " is not a binary edge; the Theorem 5.6/5.7 constructions need a "
          "graph-shaped EDB");
    }
    out.graph.AddEdge(tuple[0], tuple[1], 0);
    out.edge_vars.push_back(var);
  }
  return out;
}

}  // namespace pipeline
}  // namespace dlcirc
