// The cost-based planner: the one route decision for every construction the
// paper proves. Every automatic pick resolves here — `dlcirc run|serve
// --construction auto`, its `--grammar FILE` shorthand, and a serve
// request's "construction": "auto" — and the Section 5 dichotomy
// (chain_planner.h) is one of its candidate generators. It makes a single
// scored choice per (program, EDB, semiring):
//
//   kGrounded          Theorem 3.1  — always applicable, layers = ICO steps.
//   kBounded           Theorem 4.3  — a bounded program needs only a
//                      constant number of ICO layers, so the grounded
//                      construction capped at the bound has depth O(log n).
//                      The bound comes from src/boundedness: exact for basic
//                      chain programs (Prop 5.5), else the Theorem 4.5/4.6
//                      Chom semi-decision. Soundness of the truncation:
//                      chain-exact bounds need a plus-idempotent semiring
//                      (extra derivations beyond the cap repeat a unit cycle
//                      and contribute identical monomials); Chom bounds need
//                      an absorptive x-idempotent semiring (Corollary 4.7 —
//                      deeper expansions are homomorphically contained, so
//                      their monomials are absorbed).
//   kFiniteRpq         Theorem 5.8  — finite chain languages; size O(m),
//                      depth O(log n); plus-idempotent semirings.
//   kBellmanFord       Theorem 5.6  — TC-shaped chain programs (every
//                      non-empty language is Sigma+) on sparse graphs: size
//                      O(mn); absorptive semirings.
//   kRepeatedSquaring  Theorem 5.7  — same programs on dense graphs: size
//                      O(n^3 log n), depth O(log^2 n). The E2 bench
//                      measures the crossover the cost model encodes.
//   kUvg               Theorem 6.2  — linear recursive programs (polynomial
//                      fringe, Corollary 6.3): depth O(log^2 m); absorptive
//                      semirings.
//
// PlanRoute scores every candidate (score = est_size + depth_weight *
// est_depth over coarse closed-form estimates; inapplicable candidates keep
// a reason instead of a score) and returns an explainable RouteDecision —
// the plan tree `dlcirc run|serve --explain` renders. Session::PlanConstruction
// is the front door; the chosen Construction goes into the ordinary PlanKey,
// so the PlanStore, snapshots, and serve channels apply unchanged.
#ifndef DLCIRC_PIPELINE_PLANNER_H_
#define DLCIRC_PIPELINE_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/boundedness/boundedness.h"
#include "src/datalog/analysis.h"
#include "src/datalog/ast.h"
#include "src/datalog/database.h"
#include "src/datalog/grounding.h"
#include "src/graph/labeled_graph.h"
#include "src/pipeline/chain_planner.h"
#include "src/semiring/semiring.h"
#include "src/util/result.h"

namespace dlcirc {
namespace pipeline {

/// Circuit constructions the Session can pick from src/constructions (see
/// file comment for the theorem and applicability of each).
enum class Construction : uint8_t {
  kGrounded,
  kUvg,
  kFiniteRpq,
  kBounded,
  kBellmanFord,
  kRepeatedSquaring,
};
inline constexpr uint32_t kNumConstructions = 6;

std::string_view ConstructionName(Construction c);
Result<Construction> ParseConstruction(std::string_view name);

/// The semiring-class flags the planner routes on — a runtime mirror of the
/// compile-time Semiring constants, so one RouteDecision can be computed
/// per request semiring without instantiating templates.
struct SemiringTraits {
  std::string name;
  bool plus_idempotent = false;
  bool absorptive = false;
  bool times_idempotent = false;

  template <Semiring S>
  static SemiringTraits For() {
    return {S::Name(), S::kIsIdempotent, S::kIsAbsorptive,
            S::kIsTimesIdempotent};
  }
};

/// Everything the planner knows about one (program, EDB) pair, computed
/// once per Session and shared by every per-semiring routing decision.
/// Semiring-independent by construction (Corollary 4.7 makes the Chom
/// boundedness verdict class-wide; the chain language analysis never
/// looked at values).
struct PlannerContext {
  ProgramAnalysis analysis;

  // Section 5 chain shape.
  /// The dichotomy analysis (PlanChainRoute) the context was built from:
  /// per-predicate language finiteness and, on the finite side, the DFAs
  /// Compile(kFiniteRpq) builds from. An error says why the program is not
  /// basic chain (the CFG correspondence of Prop 5.2 does not hold).
  Result<ChainRoute> chain = Result<ChainRoute>::Error("no chain analysis");
  /// Left-linear chain where every IDB predicate's non-empty language is
  /// exactly Sigma+ (all non-empty label words) — the TC shape Theorems
  /// 5.6/5.7 are stated for, detected structurally on the minimized DFAs.
  bool sigma_plus = false;

  // Section 4 boundedness (combined chain-exact / Chom verdict).
  BoundednessReport bounded;
  /// ICO layer cap Compile(kBounded) uses: bound+1 for Chom bounds; a
  /// unit-cycle-safe (longest_word+1)*(num_preds+1)+1 for chain-exact ones.
  uint32_t bounded_layer_cap = 0;

  // Instance shape for the cost model.
  uint64_t grounded_size = 0;   ///< GroundedProgram::TotalSize()
  uint32_t num_idb_facts = 0;
  bool binary_idb = true;       ///< every grounded IDB fact is binary
  bool has_diagonal_fact = false;  ///< some grounded IDB fact P(v,v)
  uint32_t num_idb_sources = 0;    ///< distinct source vertices of IDB facts
  bool binary_edb = true;       ///< every EDB fact is binary (graph-shaped)
  uint32_t num_vertices = 0;    ///< EDB graph: |domain|
  uint32_t num_edges = 0;       ///< EDB graph: binary facts
  uint32_t max_indegree = 0;
  /// Directed diameter of the EDB graph (longest finite shortest-path
  /// distance, all-source BFS), or 0 when unknown — non-graph EDB, no
  /// edges, or more vertices than the probe budget. Caps the grounded
  /// candidate's ICO-layer depth estimate: on shallow instances the
  /// grounded construction reaches its structural fixpoint in ~diameter
  /// layers, far below the static num_idb_facts+1 worst case (the E17 gap).
  uint32_t edb_diameter_bound = 0;
};

/// Builds the context, running PlanChainRoute on `program` (a non-chain
/// program's error is kept in `chain`, not propagated). `limits` bound the
/// Chom expansion enumeration.
PlannerContext BuildPlannerContext(const Program& program, const Database& db,
                                   const GroundedProgram& grounded,
                                   const ExpansionLimits& limits = {});

struct PlannerOptions {
  /// Relative weight of depth against size in the score. Size dominates
  /// (it is what compile time, memory, and batched-sweep work track);
  /// depth breaks ties toward the paper's shallow constructions, which is
  /// what the parallel evaluator's layer sweeps care about.
  double depth_weight = 8.0;
};

/// One scored candidate in the plan tree.
struct PlanCandidate {
  Construction construction = Construction::kGrounded;
  bool applicable = false;
  std::string reason;    ///< applicability story or rejection, theorem refs
  double est_size = 0;   ///< cost-model gate estimate (applicable only)
  double est_depth = 0;  ///< cost-model depth estimate (applicable only)
  double score = 0;      ///< est_size + depth_weight * est_depth
};

/// The planner's output: the winning construction plus the full scored
/// candidate list (the explainable plan tree).
struct RouteDecision {
  Construction construction = Construction::kGrounded;
  std::string reason;  ///< the winner's candidate reason
  double depth_weight = 8.0;  ///< the weight the scores were computed with
  std::vector<PlanCandidate> candidates;  ///< one per Construction value
};

/// Scores every construction for `traits` over `context` and picks the
/// applicable candidate with the lowest score. kGrounded is always
/// applicable, so a decision always exists.
RouteDecision PlanRoute(const PlannerContext& context,
                        const SemiringTraits& traits,
                        const PlannerOptions& options = {});

/// Renderings of the plan tree for `dlcirc --explain`: an indented text
/// dump and a JSON object (keys: semiring, construction, reason,
/// candidates[]). Both list candidates in enum order with scores for the
/// applicable ones.
std::string RenderExplainText(const RouteDecision& decision,
                              const SemiringTraits& traits);
std::string RenderExplainJson(const RouteDecision& decision,
                              const SemiringTraits& traits);

/// The EDB as an unlabeled graph: vertex = domain constant id, one edge per
/// binary fact carrying the fact's provenance variable. The shared front
/// half of the Theorem 5.6/5.7 compile paths (the finite-RPQ path keeps its
/// labeled variant in chain_planner.cc). Errors on a non-binary fact.
struct EdbGraph {
  LabeledGraph graph = LabeledGraph(0);
  std::vector<uint32_t> edge_vars;  ///< edge index -> provenance variable
};
Result<EdbGraph> EdbAsGraph(const Program& program, const Database& db);

}  // namespace pipeline
}  // namespace dlcirc

#endif  // DLCIRC_PIPELINE_PLANNER_H_
