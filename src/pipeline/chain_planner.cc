#include "src/pipeline/chain_planner.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/constructions/finite_rpq_circuit.h"
#include "src/datalog/analysis.h"
#include "src/graph/labeled_graph.h"
#include "src/lang/cfg.h"
#include "src/lang/chain_datalog.h"
#include "src/util/check.h"

namespace dlcirc {
namespace pipeline {

namespace {

constexpr uint32_t kNoLabel = 0xffffffffu;

/// Trie-shaped NFA accepting exactly `words` (each a label-id sequence).
/// Finite languages are regular; this is the constructive witness.
Nfa TrieNfa(const std::vector<std::vector<uint32_t>>& words,
            uint32_t num_labels) {
  Nfa nfa;
  nfa.num_states = 1;  // root
  nfa.num_labels = num_labels;
  nfa.start = 0;
  nfa.accept = {false};
  std::vector<std::unordered_map<uint32_t, uint32_t>> children(1);
  for (const std::vector<uint32_t>& word : words) {
    uint32_t state = 0;
    for (uint32_t label : word) {
      auto [it, inserted] = children[state].try_emplace(label, nfa.num_states);
      if (inserted) {
        nfa.transitions.push_back({state, label, nfa.num_states});
        nfa.accept.push_back(false);
        children.emplace_back();
        ++nfa.num_states;
      }
      state = it->second;
    }
    nfa.accept[state] = true;
  }
  return nfa;
}

std::string GroundedReason(const std::string& pred_name,
                           const std::string& why) {
  return "L(" + pred_name + ") " + why +
         ": grounded/TC construction (Theorems 5.6-5.7)";
}

}  // namespace

Result<ChainRoute> PlanChainRoute(const Program& program,
                                  ChainPlannerOptions options) {
  Result<Cfg> cfg_r = ChainProgramToCfg(program);
  if (!cfg_r.ok()) return Result<ChainRoute>::Error(cfg_r.error());
  const Cfg& cfg = cfg_r.value();
  ProgramAnalysis a = Analyze(program);

  ChainRoute route;
  // Label alphabet: EDB predicates in program id order — the same order
  // LeftLinearChainToNfa and ChainProgramToCfg's terminal interner use, so
  // label id == CFG terminal id == ChainNfa label id.
  for (size_t p = 0; p < program.num_preds(); ++p) {
    if (!a.idb_mask[p]) {
      route.label_preds.push_back(program.preds.Name(static_cast<uint32_t>(p)));
    }
  }
  for (uint32_t l = 0; l < route.label_preds.size(); ++l) {
    DLCIRC_CHECK_EQ(cfg.terminals().Find(route.label_preds[l]), l)
        << "CFG terminal order diverged from the EDB label order";
  }

  // Every IDB predicate with a non-empty language must be finite for the
  // finite route: the grounded program serves provenance for all of them,
  // and one infinite predicate already makes the workload TC-hard.
  Result<ChainNfa> nfa_r = LeftLinearChainToNfa(program);
  if (nfa_r.ok()) {
    route.left_linear = true;
    const ChainNfa& cn = nfa_r.value();
    for (size_t p = 0; p < program.num_preds(); ++p) {
      if (!a.idb_mask[p]) continue;
      uint32_t state = cn.pred_state[p];
      DLCIRC_CHECK_NE(state, ChainNfa::kNoState);
      Nfa nfa = cn.nfa;
      nfa.accept.assign(nfa.num_states, false);
      nfa.accept[state] = true;
      Dfa dfa = Dfa::Determinize(nfa).Minimize();
      if (dfa.IsEmptyLanguage()) continue;
      if (!dfa.IsFiniteLanguage()) {
        route.reason = GroundedReason(
            program.preds.Name(static_cast<uint32_t>(p)),
            "is infinite (regular pumping, Theorem 5.9)");
        return route;
      }
      uint32_t longest = dfa.LongestAcceptedWordLength();
      route.pred_langs.push_back(
          {static_cast<uint32_t>(p), std::move(dfa), longest});
    }
  } else {
    for (size_t p = 0; p < program.num_preds(); ++p) {
      if (!a.idb_mask[p]) continue;
      const std::string& name = program.preds.Name(static_cast<uint32_t>(p));
      Cfg sub = cfg;
      uint32_t nt = cfg.nonterminals().Find(name);
      DLCIRC_CHECK_NE(nt, Interner::kNotFound);
      sub.SetStart(nt);
      if (sub.IsEmptyLanguage()) continue;
      if (!sub.IsFiniteLanguage()) {
        route.reason =
            GroundedReason(name, "is infinite (CFG pumping, Prop 5.5)");
        return route;
      }
      std::optional<uint32_t> longest = sub.LongestWordLength();
      DLCIRC_CHECK(longest.has_value());
      if (*longest > options.max_word_length) {
        route.reason = GroundedReason(
            name, "is finite but its longest word (" +
                      std::to_string(*longest) + ") exceeds the planner cap (" +
                      std::to_string(options.max_word_length) + ")");
        return route;
      }
      std::vector<std::vector<uint32_t>> words =
          sub.EnumerateWords(*longest, options.max_words + 1);
      DLCIRC_CHECK(!words.empty());
      if (words.size() > options.max_words) {
        route.reason = GroundedReason(
            name, "is finite but has more than " +
                      std::to_string(options.max_words) +
                      " words (planner cap)");
        return route;
      }
      Dfa dfa = Dfa::Determinize(TrieNfa(
                    words, static_cast<uint32_t>(route.label_preds.size())))
                    .Minimize();
      route.pred_langs.push_back(
          {static_cast<uint32_t>(p), std::move(dfa), *longest});
    }
  }

  route.finite = true;
  for (const PredLanguage& pl : route.pred_langs) {
    route.longest_word = std::max(route.longest_word, pl.longest_word);
  }
  route.reason = "every chain language is finite (longest word " +
                 std::to_string(route.longest_word) +
                 "): finite-RPQ construction (Theorem 5.8)";
  return route;
}

Result<Circuit> BuildFiniteChainCircuit(const ChainRoute& route,
                                        const Program& program,
                                        const Database& db,
                                        const GroundedProgram& grounded) {
  DLCIRC_CHECK(route.finite) << "finite route required";
  std::vector<uint32_t> label_of(program.num_preds(), kNoLabel);
  for (uint32_t l = 0; l < route.label_preds.size(); ++l) {
    uint32_t pred = program.preds.Find(route.label_preds[l]);
    DLCIRC_CHECK_NE(pred, Interner::kNotFound);
    label_of[pred] = l;
  }

  // The EDB as a labeled graph: vertex id = domain constant id, one edge
  // per fact, the fact's provenance variable as the edge variable.
  LabeledGraph graph(
      static_cast<uint32_t>(db.domain().size()),
      std::max<uint32_t>(1, static_cast<uint32_t>(route.label_preds.size())));
  std::vector<uint32_t> edge_vars;
  edge_vars.reserve(db.num_facts());
  for (uint32_t var = 0; var < db.num_facts(); ++var) {
    const Database::FactInfo& f = db.fact(var);
    if (label_of[f.pred] == kNoLabel || f.tuple.size() != 2) {
      return Result<Circuit>::Error(
          "EDB fact " + db.FactToString(program, var) +
          " is not a binary chain edge; the finite-RPQ construction needs a "
          "labeled-graph EDB");
    }
    graph.AddEdge(f.tuple[0], f.tuple[1], label_of[f.pred]);
    edge_vars.push_back(var);
  }

  std::vector<const PredLanguage*> lang_of(program.num_preds(), nullptr);
  for (const PredLanguage& pl : route.pred_langs) lang_of[pl.pred] = &pl;

  // Grounded IDB facts grouped by (pred, source vertex): one unrolling of
  // the graph x DFA product per group covers every target vertex at once.
  std::unordered_map<uint64_t, std::vector<std::pair<uint32_t, uint32_t>>>
      by_source;  // (pred << 32 | src) -> [(dst, fact id)]
  const std::vector<GroundedProgram::IdbFact>& facts = grounded.idb_facts();
  for (uint32_t i = 0; i < facts.size(); ++i) {
    DLCIRC_CHECK_EQ(facts[i].tuple.size(), 2u) << "chain IDBs are binary";
    uint64_t key = (static_cast<uint64_t>(facts[i].pred) << 32) |
                   facts[i].tuple[0];
    by_source[key].push_back({facts[i].tuple[1], i});
  }

  // Any-semiring builder (no absorptive rewrites), like FiniteRpqCircuit;
  // the optimizer passes apply the key's semiring-class rewrites later. The
  // in-edge index is hoisted: one O(n+m) build serves every source
  // unrolling.
  CircuitBuilder b(db.num_facts());
  std::vector<std::vector<uint32_t>> in_edges = graph.InEdgeIndex();
  std::vector<GateId> outputs(grounded.num_idb_facts(), b.Zero());
  for (const auto& [key, group] : by_source) {
    uint32_t pred = static_cast<uint32_t>(key >> 32);
    uint32_t src = static_cast<uint32_t>(key & 0xffffffffu);
    const PredLanguage* pl = lang_of[pred];
    if (pl == nullptr) {
      return Result<Circuit>::Error(
          "grounded fact of `" + program.preds.Name(pred) +
          "` but the route has no language for it (planner/grounder "
          "disagreement)");
    }
    std::vector<std::vector<GateId>> terms =
        FiniteRpqReachTerms(b, graph, in_edges, edge_vars, pl->dfa, src);
    for (const auto& [dst, fact_id] : group) {
      outputs[fact_id] = b.PlusN(terms[dst]);
    }
  }
  return b.Build(std::move(outputs));
}

}  // namespace pipeline
}  // namespace dlcirc
