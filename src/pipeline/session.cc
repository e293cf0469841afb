#include "src/pipeline/session.h"

#include <utility>

#include "src/analysis/verify.h"
#include "src/constructions/grounded_circuit.h"
#include "src/constructions/path_circuits.h"
#include "src/constructions/uvg_circuit.h"
#include "src/datalog/parser.h"
#include "src/graph/graph_db.h"
#include "src/lang/chain_datalog.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/chain_planner.h"
#include "src/pipeline/io.h"
#include "src/util/check.h"

namespace dlcirc {
namespace pipeline {

namespace {

double MsSince(uint64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) * 1e-6;
}

// Program::ToString renders interned names, so two programs that parse to
// the same rules digest equally regardless of source whitespace or
// comments. The target predicate is part of the rendering's identity.
uint64_t DigestProgram(const Program& program) {
  Fnv1a64 h;
  h.String(program.ToString());
  h.String(program.preds.Name(program.target_pred));
  return h.digest();
}

// Facts in provenance-variable order: the digest pins not just the set of
// facts but the variable numbering a tagging lane is written in.
uint64_t DigestEdb(const Program& program, const Database& db) {
  Fnv1a64 h;
  h.U32(db.num_facts());
  for (uint32_t v = 0; v < db.num_facts(); ++v) {
    h.String(db.FactToString(program, v));
  }
  return h.digest();
}

}  // namespace

Session::Session(Program program)
    : program_(std::move(program)), program_digest_(DigestProgram(program_)) {}

Result<Session> Session::FromDatalog(std::string_view program_text) {
  const uint64_t t0 = obs::NowNs();
  obs::TraceSpan span("compile", "parse");
  Result<Program> program = ParseProgram(program_text);
  if (!program.ok()) return Result<Session>::Error(program.error());
  Session session(std::move(program).value());
  session.phases_.parse_ms = MsSince(t0);
  return session;
}

Result<Session> Session::FromCfg(const Cfg& cfg) {
  if (cfg.IsEmptyLanguage()) {
    return Result<Session>::Error(
        "CFG generates the empty language; no reachability program to run");
  }
  const uint64_t t0 = obs::NowNs();
  obs::TraceSpan span("compile", "parse");
  Session session(CfgToChainProgram(cfg));
  session.phases_.parse_ms = MsSince(t0);
  return session;
}

Result<bool> Session::LoadFactsText(std::string_view facts_text) {
  if (db_.has_value()) return Result<bool>::Error("EDB already loaded");
  Result<Database> db = ParseFacts(program_, facts_text);
  if (!db.ok()) return Result<bool>::Error(db.error());
  db_ = std::move(db).value();
  edb_digest_ = DigestEdb(program_, *db_);
  return true;
}

Result<bool> Session::LoadGraphCsv(std::string_view csv_text) {
  if (db_.has_value()) return Result<bool>::Error("EDB already loaded");
  Result<GraphCsv> parsed = ParseGraphCsv(csv_text, program_);
  if (!parsed.ok()) return Result<bool>::Error(parsed.error());
  GraphCsv csv = std::move(parsed).value();
  GraphDatabase gdb = GraphToDatabase(program_, csv.graph, csv.label_preds,
                                      &csv.vertex_names);
  db_ = std::move(gdb.db);
  edge_vars_ = std::move(gdb.edge_vars);
  edb_digest_ = DigestEdb(program_, *db_);
  return true;
}

const Database& Session::db() const {
  DLCIRC_CHECK(db_.has_value()) << "no EDB loaded";
  return *db_;
}

const GroundedProgram& Session::grounded() {
  DLCIRC_CHECK(db_.has_value()) << "no EDB loaded";
  if (!grounded_.has_value()) {
    const uint64_t t0 = obs::NowNs();
    obs::TraceSpan span("compile", "ground");
    grounded_ = Ground(program_, *db_);
    phases_.ground_ms = MsSince(t0);
  }
  return *grounded_;
}

const PlannerContext& Session::planner_context() {
  if (!planner_context_.has_value()) {
    // Ground first so ground/route phase attribution stays clean, then time
    // only the context build itself under route_ms.
    const GroundedProgram& g = grounded();
    const uint64_t t0 = obs::NowNs();
    obs::TraceSpan span("compile", "route");
    planner_context_ = BuildPlannerContext(program_, db(), g);
    phases_.route_ms = MsSince(t0);
  }
  return *planner_context_;
}

RouteDecision Session::PlanConstruction(const SemiringTraits& traits,
                                        const PlannerOptions& options) {
  return PlanRoute(planner_context(), traits, options);
}

Result<std::shared_ptr<const CompiledPlan>> Session::Compile(const PlanKey& key) {
  using Out = Result<std::shared_ptr<const CompiledPlan>>;
  if (!db_.has_value()) return Out::Error("no EDB loaded");
  if (key.construction == Construction::kUvg &&
      !(key.absorptive && key.plus_idempotent)) {
    return Out::Error(
        "the UVG construction (Theorem 6.2) is only sound over absorptive "
        "semirings; use the grounded construction instead");
  }
  if (key.construction == Construction::kFiniteRpq) {
    if (!key.plus_idempotent) {
      return Out::Error(
          "the finite-RPQ construction (Theorem 5.8) sums once per word "
          "while the program sums once per derivation; only plus-idempotent "
          "semirings collapse the difference — use the grounded "
          "construction instead");
    }
    const Result<ChainRoute>& route = planner_context().chain;
    if (!route.ok()) return Out::Error(route.error());
    if (!route.value().finite) {
      return Out::Error("the finite-RPQ construction does not apply: " +
                        route.value().reason);
    }
  }
  if (key.construction == Construction::kBounded) {
    const PlannerContext& ctx = planner_context();
    if (ctx.bounded.verdict != BoundednessReport::Verdict::kBounded) {
      return Out::Error(
          "the bounded construction (Theorem 4.3) needs a boundedness "
          "verdict, and none was found" +
          std::string(ctx.bounded.horizon_limited
                          ? " within the expansion horizon (Theorem 4.5 "
                            "semi-decision)"
                          : " (the program is unbounded)") +
          " — use the grounded construction instead");
    }
    if (ctx.bounded.chain_exact ? !key.plus_idempotent
                                : !(key.absorptive && key.times_idempotent)) {
      return Out::Error(
          ctx.bounded.chain_exact
              ? "the chain-exact bound truncates repeated unit cycles, which "
                "is only sound over plus-idempotent semirings — use the "
                "grounded construction instead"
              : "the Chom boundedness verdict (Theorem 4.6) only transfers "
                "to absorptive times-idempotent semirings (Corollary 4.7) — "
                "use the grounded construction instead");
    }
  }
  if (key.construction == Construction::kBellmanFord ||
      key.construction == Construction::kRepeatedSquaring) {
    const PlannerContext& ctx = planner_context();
    if (!key.absorptive) {
      return Out::Error(
          "the Theorem 5.6/5.7 path constructions sum over walks up to a "
          "layer bound; only absorptive semirings collapse the longer walks "
          "— use the grounded construction instead");
    }
    if (!ctx.sigma_plus || !ctx.binary_edb || !ctx.binary_idb) {
      return Out::Error(
          "the Theorem 5.6/5.7 path constructions apply to TC-shaped chain "
          "programs (every non-empty language Sigma+ over a binary EDB) — "
          "use the grounded construction instead");
    }
    if (key.construction == Construction::kRepeatedSquaring &&
        ctx.has_diagonal_fact) {
      return Out::Error(
          "a grounded IDB fact P(v,v) exists (closed walks) and the "
          "repeated-squaring matrix fixes the diagonal at 1 — use "
          "bellman-ford instead");
    }
  }

  auto compiled = std::make_shared<CompiledPlan>();
  compiled->key = key;
  Circuit built;
  uint64_t t0 = obs::NowNs();
  obs::TraceSpan construct_span("compile", "construct");
  switch (key.construction) {
    case Construction::kGrounded:
    case Construction::kBounded: {
      GroundedCircuitOptions options;
      // kBounded is the grounded construction truncated at the Theorem 4.3
      // layer cap; serve channels key plans with max_layers = 0, so the cap
      // comes from the planner context rather than the key.
      options.max_layers = key.max_layers != 0 ? key.max_layers
                           : key.construction == Construction::kBounded
                               ? planner_context().bounded_layer_cap
                               : 0;
      options.builder.plus_idempotent = key.plus_idempotent;
      options.builder.absorptive = key.absorptive;
      GroundedCircuitResult r = GroundedProgramCircuit(grounded(), options);
      built = std::move(r.circuit);
      compiled->layers_used = r.layers_used;
      compiled->reached_fixpoint = r.reached_structural_fixpoint ||
                                   key.construction == Construction::kBounded;
      break;
    }
    case Construction::kUvg: {
      UvgResult r = UvgCircuit(grounded());
      built = std::move(r.circuit);
      compiled->layers_used = r.stages_used;
      compiled->reached_fixpoint = true;  // UVG always covers all proofs
      break;
    }
    case Construction::kFiniteRpq: {
      const ChainRoute& route = planner_context().chain.value();
      Result<Circuit> built_r =
          BuildFiniteChainCircuit(route, program_, db(), grounded());
      if (!built_r.ok()) return Out::Error(built_r.error());
      built = std::move(built_r).value();
      // The unrolling bound plays the role the ICO layer count plays for
      // the grounded construction, and the construction covers every
      // matched path by definition.
      compiled->layers_used = route.longest_word;
      compiled->reached_fixpoint = true;
      break;
    }
    case Construction::kBellmanFord:
    case Construction::kRepeatedSquaring: {
      Result<EdbGraph> graph_r = EdbAsGraph(program_, db());
      if (!graph_r.ok()) return Out::Error(graph_r.error());
      const EdbGraph& eg = graph_r.value();
      std::vector<std::pair<uint32_t, uint32_t>> outputs;
      const std::vector<GroundedProgram::IdbFact>& facts =
          grounded().idb_facts();
      outputs.reserve(facts.size());
      for (const GroundedProgram::IdbFact& f : facts) {
        DLCIRC_CHECK_EQ(f.tuple.size(), 2u) << "gated on binary_idb above";
        outputs.push_back({f.tuple[0], f.tuple[1]});
      }
      const uint32_t n = eg.graph.num_vertices();
      if (key.construction == Construction::kBellmanFord) {
        built = BellmanFordCircuitMulti(eg.graph, eg.edge_vars,
                                        db().num_facts(), outputs,
                                        key.max_layers);
        compiled->layers_used = key.max_layers != 0 ? key.max_layers : n;
      } else {
        built = RepeatedSquaringCircuit(eg.graph, eg.edge_vars,
                                        db().num_facts(), outputs);
        uint32_t rounds = 0;
        for (uint32_t len = 1; len < n; len *= 2) ++rounds;
        compiled->layers_used = rounds;
      }
      // Both constructions cover every walk length that can matter
      // (absorption collapses the rest) — the plan is a true fixpoint.
      compiled->reached_fixpoint = true;
      break;
    }
  }
  compiled->unoptimized = built.ComputeStats();
  construct_span.End();
  phases_.construct_ms = MsSince(t0);

  eval::PassOptions pass_options;
  pass_options.plus_idempotent = key.plus_idempotent;
  pass_options.absorptive = key.absorptive;
  t0 = obs::NowNs();
  obs::TraceSpan passes_span("compile", "passes");
  eval::PassObserver pass_observer;
#ifndef NDEBUG
  // Debug builds re-verify the circuit at every pass boundary, so a pass
  // that emits an ill-formed circuit is caught with its name attached
  // instead of surfacing as a CHECK deep inside EvalPlan::Build.
  pass_observer = [](std::string_view pass_name, const Circuit& after) {
    std::vector<analysis::Diagnostic> findings = analysis::VerifyCircuit(after);
    const analysis::Diagnostic* e = analysis::FirstError(findings);
    DLCIRC_CHECK(e == nullptr)
        << "optimizer pass `" << std::string(pass_name)
        << "` broke a circuit invariant [" << (e ? e->code : "") << "]: "
        << (e ? e->message : "");
  };
#endif
  eval::PipelineResult optimized =
      eval::OptimizeForEval(built, pass_options, pass_observer);
  compiled->pass_stats = std::move(optimized.stats);
  compiled->circuit = std::move(optimized.circuit);
  passes_span.End();
  phases_.passes_ms = MsSince(t0);
  t0 = obs::NowNs();
  obs::TraceSpan plan_span("compile", "plan_build");
  compiled->plan = eval::EvalPlan::Build(compiled->circuit);
  plan_span.End();
  phases_.plan_build_ms = MsSince(t0);
  return std::shared_ptr<const CompiledPlan>(std::move(compiled));
}

const std::vector<uint32_t>& Session::TargetFacts() {
  return grounded().target_facts();
}

Result<uint32_t> Session::FindFact(std::string_view pred_name,
                                   const std::vector<std::string>& constants) {
  uint32_t pred = program_.preds.Find(pred_name);
  if (pred == Interner::kNotFound) {
    return Result<uint32_t>::Error("unknown predicate `" + std::string(pred_name) +
                                   "`");
  }
  if (!program_.IdbMask()[pred]) {
    return Result<uint32_t>::Error("`" + std::string(pred_name) +
                                   "` is an EDB predicate; queries name IDB facts");
  }
  if (program_.arities[pred] != constants.size()) {
    return Result<uint32_t>::Error(
        "`" + std::string(pred_name) + "` has arity " +
        std::to_string(program_.arities[pred]) + ", got " +
        std::to_string(constants.size()) + " arguments");
  }
  Tuple tuple;
  for (const std::string& c : constants) {
    uint32_t id = db().domain().Find(c);
    // A constant outside the active domain cannot appear in a derivable
    // fact; the query is well-formed and its provenance is 0.
    if (id == Interner::kNotFound) return kNotFound;
    tuple.push_back(id);
  }
  return grounded().FindIdbFact(pred, tuple);
}

std::string Session::FactName(uint32_t idb_fact) {
  return grounded().FactToString(program_, db(), idb_fact);
}

std::string Session::EdbFactName(uint32_t var) const {
  return db().FactToString(program_, var);
}

uint64_t Session::EdbDigest() const {
  DLCIRC_CHECK(db_.has_value()) << "no EDB loaded";
  return edb_digest_;
}

}  // namespace pipeline
}  // namespace dlcirc
