// The pipeline's compiler: one object per (program, EDB) pair that runs the
// paper's flow (Sections 2-6) up to a compiled plan —
//
//   program (Datalog text or CFG workload)      src/lang, src/datalog
//     -> EDB (facts text or edge-list graph)    src/datalog, src/graph
//     -> relevant grounding                     src/datalog/grounding
//     -> provenance circuit construction        src/constructions
//     -> optimizer pass pipeline                src/eval/passes
//     -> compiled EvalPlan                      src/eval/evaluator
//
// Parsing, grounding, the planner context and the digests happen once per
// Session; Compile builds a fresh plan for a PlanKey = (construction,
// semiring-class flags, layer bound) on every call. Compiled plans are owned
// by serve::PlanStore (compile once per key, share, snapshot, evict) and
// evaluated by serve::Server (coalesced batch sweeps, named lanes with
// incremental updates, explains); tools/dlcirc_cli.cc fronts both.
//
// Thread contract: the digests are fixed when the program parses and the
// EDB loads, so ProgramDigest/EdbDigest are const reads safe from any
// thread. Compile and the lazy getters (grounded, planner_context,
// TargetFacts) fill caches and are NOT thread-safe. serve::PlanStore is the
// one concurrent caller and serializes every Compile under its compile
// lock; serve::Server warms the lazy caches before its dispatchers start,
// after which the naming calls (FindFact, FactName, EdbFactName,
// TargetFacts) and PlanConstruction only read and may run on one
// foreground thread beside it.
#ifndef DLCIRC_PIPELINE_SESSION_H_
#define DLCIRC_PIPELINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/datalog/ast.h"
#include "src/datalog/database.h"
#include "src/datalog/grounding.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/lang/cfg.h"
#include "src/pipeline/planner.h"
#include "src/util/hash.h"
#include "src/util/result.h"

namespace dlcirc {
namespace pipeline {

/// Everything that identifies one compiled plan for a fixed (program, EDB):
/// which construction (src/pipeline/planner.h), which semiring-class
/// rewrites the circuit may use (mirroring CircuitBuilder::Options /
/// eval::PassOptions), and the ICO layer bound for the grounded family
/// (0 = the construction's own safe default).
struct PlanKey {
  Construction construction = Construction::kGrounded;
  bool plus_idempotent = true;
  bool absorptive = true;
  /// Only keyed for kBounded: no rewrite consumes it, but the Theorem 4.3
  /// truncation of a Chom-derived bound is sound exactly over absorptive
  /// times-idempotent semirings, and Tropical/Fuzzy agree on every other
  /// flag — without this bit they would share a bounded plan unsoundly.
  /// For<S> zeroes it elsewhere so all other constructions keep their
  /// cross-semiring plan sharing.
  bool times_idempotent = false;
  uint32_t max_layers = 0;

  /// Key with the rewrite flags a given semiring permits.
  template <Semiring S>
  static PlanKey For(Construction c = Construction::kGrounded) {
    return {c, S::kIsIdempotent, S::kIsAbsorptive,
            c == Construction::kBounded && S::kIsTimesIdempotent, 0};
  }

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    // Pack every field into one word, then run the splitmix finalizer so the
    // bits spread over the whole size_t. (The obvious shifted-XOR combine is
    // a trap here: size_t may be 32 bits, where `construction << 34` is
    // gone entirely and all flag combinations collide; and even on 64 bits
    // unordered_map only consumes the hash modulo a bucket count, so
    // max_layers must not sit verbatim in the low bits.)
    uint64_t packed = static_cast<uint64_t>(k.max_layers) |
                      (static_cast<uint64_t>(k.construction) << 32) |
                      (static_cast<uint64_t>(k.plus_idempotent) << 40) |
                      (static_cast<uint64_t>(k.absorptive) << 41) |
                      (static_cast<uint64_t>(k.times_idempotent) << 42);
    return static_cast<size_t>(SplitMix64(packed));
  }
};

/// One compilation: the optimized circuit, its EvalPlan, and the provenance
/// of how it was produced. Immutable and shared; output i of both `circuit`
/// and `plan` computes the provenance of IDB fact i.
struct CompiledPlan {
  PlanKey key;
  Circuit circuit;
  eval::EvalPlan plan;
  std::vector<eval::PassStats> pass_stats;  ///< optimizer pipeline shrinkage
  Circuit::Stats unoptimized;               ///< construction output, pre-passes
  uint32_t layers_used = 0;  ///< ICO layers (grounded) or stages (UVG)
  bool reached_fixpoint = false;  ///< grounded: structural fixpoint hit early
};

/// Wall-clock breakdown of the compile pipeline, milliseconds. Parse and
/// ground are once per Session; route is the planner context build (chain
/// analysis, boundedness, instance statistics); construct/passes/plan_build
/// reflect the most recent Compile. Phases are timed unconditionally — each
/// runs once per compiled plan, so two clock reads per phase vanish against
/// the work they bracket — which is what lets `dlcirc run --profile` report
/// them even when the flag is parsed after the session was built.
struct PhaseProfile {
  double parse_ms = 0;       ///< Datalog/CFG text -> Program
  double ground_ms = 0;      ///< relevant grounding
  double route_ms = 0;       ///< planner context (BuildPlannerContext)
  double construct_ms = 0;   ///< provenance circuit construction
  double passes_ms = 0;      ///< optimizer pass pipeline
  double plan_build_ms = 0;  ///< EvalPlan::Build
};

class Session {
 public:
  /// Parses a Datalog program (src/datalog/parser.h syntax).
  static Result<Session> FromDatalog(std::string_view program_text);
  /// Adopts a CFG workload via the chain-Datalog correspondence (Prop 5.2):
  /// terminal a becomes binary EDB a, the start symbol the target.
  static Result<Session> FromCfg(const Cfg& cfg);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Loads the EDB from ground-fact text (src/datalog/parser.h syntax).
  /// A Session's EDB may be loaded exactly once.
  Result<bool> LoadFactsText(std::string_view facts_text);

  /// Loads the EDB from edge-list graph CSV (src/pipeline/io.h syntax).
  Result<bool> LoadGraphCsv(std::string_view csv_text);

  const Program& program() const { return program_; }
  bool has_database() const { return db_.has_value(); }
  const Database& db() const;
  /// Edge index -> provenance variable; empty unless graph-loaded.
  const std::vector<uint32_t>& edge_vars() const { return edge_vars_; }

  /// The grounded program (computed lazily, once). Requires a loaded EDB.
  const GroundedProgram& grounded();

  /// Everything the cost-based planner knows about this (program, EDB) —
  /// the Section 5 chain analysis (with the DFAs kFiniteRpq compiles from),
  /// Sigma+ detection, the Section 4 boundedness verdict, and the instance
  /// statistics the cost model scores with. Computed lazily once (grounding
  /// first) and shared by every per-semiring PlanConstruction call and by
  /// Compile. Requires a loaded EDB.
  const PlannerContext& planner_context();

  /// The routing decision for one request semiring — the only one there
  /// is: scores every construction over planner_context() and returns the
  /// full plan tree (src/pipeline/planner.h). decision.construction is what
  /// `--construction auto` (and `--grammar`) compiles. Requires a loaded
  /// EDB.
  RouteDecision PlanConstruction(const SemiringTraits& traits,
                                 const PlannerOptions& options = {});

  /// Compiles a fresh plan for `key` (no caching: serve::PlanStore owns
  /// and shares compiled plans). Fails when the key is inconsistent (UVG
  /// without absorptive flags, bounded without a boundedness verdict, ...).
  /// Requires a loaded EDB.
  Result<std::shared_ptr<const CompiledPlan>> Compile(const PlanKey& key);

  const PhaseProfile& phase_profile() const { return phases_; }

  /// Content digests identifying what a compiled plan was built from, for
  /// the serving layer's plan registry and snapshot files (src/serve): two
  /// sessions agree on both digests iff they parsed an equivalent program
  /// and loaded the same EDB facts in the same provenance-variable order.
  /// Computed over canonical renderings (FNV-1a), stable across runs and
  /// platforms, once: when the program parses and when the EDB loads.
  /// EdbDigest requires a loaded EDB.
  uint64_t ProgramDigest() const { return program_digest_; }
  uint64_t EdbDigest() const;

  /// IDB fact ids of the target predicate (grounds if needed).
  const std::vector<uint32_t>& TargetFacts();
  /// Grounded id of IDB fact pred(constants), kNotFound when the fact is
  /// not derivable (its provenance is 0), or an error for unknown
  /// predicates/constants or arity mismatches.
  Result<uint32_t> FindFact(std::string_view pred_name,
                            const std::vector<std::string>& constants);
  static constexpr uint32_t kNotFound = GroundedProgram::kNotFound;

  /// Renderings for output: IDB fact id -> "T(s,t)", EDB var -> "E(s,u1)".
  std::string FactName(uint32_t idb_fact);
  std::string EdbFactName(uint32_t var) const;

 private:
  explicit Session(Program program);

  Program program_;
  std::optional<Database> db_;
  std::vector<uint32_t> edge_vars_;
  std::optional<GroundedProgram> grounded_;
  std::optional<PlannerContext> planner_context_;
  PhaseProfile phases_;
  uint64_t program_digest_ = 0;
  uint64_t edb_digest_ = 0;
};

}  // namespace pipeline
}  // namespace dlcirc

#endif  // DLCIRC_PIPELINE_SESSION_H_
