// The Section 5 dichotomy analysis for chain-Datalog / RPQ workloads.
//
// Proposition 5.2 identifies basic chain programs with CFGs; Theorems
// 5.6-5.9 split them by *language finiteness*:
//
//   finite L    -> a circuit of size O(m) and depth O(log n) exists
//                  (Theorem 5.8; finite languages are regular, so the
//                  graph x DFA product unrolled LongestWord steps covers
//                  every matched path), while
//   infinite L  -> the program is transitive-closure-hard and the layered
//                  constructions (grounded, Theorems 5.6/5.7) are the
//                  right tool.
//
// PlanChainRoute runs that analysis for a whole program — every IDB
// predicate's language, not just the target's, since the grounded program
// serves provenance for all of them — and, on the finite side, compiles
// each predicate's language to a minimized DFA over the EDB-label
// alphabet:
//
//   * left-linear programs (Prop 5.2's regular case) go through
//     LeftLinearChainToNfa with the accept set re-targeted per predicate,
//     then Dfa::Determinize/Minimize and Dfa::IsFiniteLanguage;
//   * general chain programs go through Cfg::IsFiniteLanguage and
//     Cfg::LongestWordLength per start symbol, enumerate the (finite) word
//     set, and build a trie DFA. Enumeration is capped
//     (ChainPlannerOptions); a blown cap leaves the finite route out rather
//     than building an unbounded circuit.
//
// BuildFiniteChainCircuit then emits the Theorem 5.8 construction as a
// normal multi-output circuit — output i is the provenance of grounded IDB
// fact i, the same contract as the grounded and UVG constructions — so the
// optimizer passes, EvalPlan, batching, incremental updates, serving, and
// snapshots downstream apply unchanged.
//
// Exactness: the DFA run of a word is unique, so each matched path
// contributes once per *word*, while the grounded program sums once per
// *derivation*. The two coincide whenever duplicate identical terms
// collapse, i.e. over plus-idempotent semirings; the planner only scores
// the finite route there, and Session::Compile rejects other keys.
//
// The analysis decides nothing on its own: it is a candidate generator of
// the cost-based planner (src/pipeline/planner.h). BuildPlannerContext runs
// PlanChainRoute once per Session and keeps the result as
// PlannerContext::chain, which feeds the kFiniteRpq candidate and the
// Theorem 5.6/5.7 TC-shape test next to the Section 4 bounded route;
// Compile(kFiniteRpq) reads its DFAs from there.
#ifndef DLCIRC_PIPELINE_CHAIN_PLANNER_H_
#define DLCIRC_PIPELINE_CHAIN_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/datalog/ast.h"
#include "src/datalog/database.h"
#include "src/datalog/grounding.h"
#include "src/lang/dfa.h"
#include "src/util/result.h"

namespace dlcirc {
namespace pipeline {

struct ChainPlannerOptions {
  /// Per-predicate cap on enumerated words (general, non-left-linear CFGs
  /// only). Exceeding it leaves the finite route out (finite = false).
  size_t max_words = 4096;
  /// Cap on the longest enumerated word, same fallback.
  uint32_t max_word_length = 64;
};

/// One IDB predicate's finite chain language, compiled to a DFA over the
/// planner's EDB-label alphabet (label id -> ChainRoute::label_preds).
struct PredLanguage {
  uint32_t pred = 0;        ///< program predicate id
  Dfa dfa;                  ///< minimized; L(dfa) = the predicate's language
  uint32_t longest_word = 0;
};

/// The dichotomy analysis of one basic chain program.
struct ChainRoute {
  bool finite = false;       ///< finite branch (Theorem 5.8) applies
  bool left_linear = false;  ///< decided via the NFA/DFA pipeline
  std::string reason;        ///< human-readable explanation of the branch
  std::vector<std::string> label_preds;  ///< DFA label id -> EDB pred name
  /// Finite routes only: one entry per IDB predicate with a non-empty
  /// language. Predicates with empty languages derive no facts and need no
  /// DFA.
  std::vector<PredLanguage> pred_langs;
  uint32_t longest_word = 0;  ///< max over pred_langs (the unrolling bound)
};

/// Runs the dichotomy analysis for `program` (see file comment). Fails
/// when the program is not basic chain Datalog.
Result<ChainRoute> PlanChainRoute(const Program& program,
                                  ChainPlannerOptions options = {});

/// Builds the Theorem 5.8 multi-output circuit for a finite route: inputs
/// are the EDB provenance variables of `db`, output i the provenance of
/// grounded IDB fact i. Requires route.finite; fails when the EDB contains
/// a fact of a predicate the route has no language for (a non-binary or
/// non-EDB label — impossible for databases loaded against the same chain
/// program).
Result<Circuit> BuildFiniteChainCircuit(const ChainRoute& route,
                                        const Program& program,
                                        const Database& db,
                                        const GroundedProgram& grounded);

}  // namespace pipeline
}  // namespace dlcirc

#endif  // DLCIRC_PIPELINE_CHAIN_PLANNER_H_
