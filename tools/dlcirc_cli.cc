// dlcirc — command-line front door over src/pipeline (the Session compiler)
// and src/serve (the PlanStore and the request broker).
//
// One command reproduces the paper's whole flow: program + EDB -> grounding
// -> provenance circuit -> optimizer passes -> compiled EvalPlan -> batched
// semiring taggings. `run` and `explain` are clients of the broker: they
// queue their batch (inline evals, or named lanes plus updates) and their
// explains on an in-process serve::Server, so they print exactly what
// `dlcirc serve` would answer. Examples:
//
//   dlcirc run --program tc.dl --facts fig1.facts --semiring tropical
//              --batch fig1.tags.csv --query "T(s,t)"
//   dlcirc run --program tc.dl --facts fig1.facts --semiring tropical
//              --batch fig1.tags.csv --updates fig1.updates.csv
//              --query "T(s,t)"                 # incremental delta replay
//   dlcirc run --program tc.dl --graph fig1.graph.csv --semiring boolean
//   dlcirc run --cfg dyck1.cfg --graph word.csv --construction uvg
//              --semiring viterbi --format json
//   dlcirc serve --program tc.dl --facts fig1.facts --semiring tropical
//                --snapshot-dir /var/cache/dlcirc    # NDJSON on stdin/stdout
//   dlcirc serve --program tc.dl --facts fig1.facts --semiring tropical
//                --listen 127.0.0.1:8125             # NDJSON over TCP
//   dlcirc semirings
//   dlcirc check --program tc.dl --json              # static analysis only
//
// `dlcirc serve` speaks newline-delimited JSON (one request per line, one
// response per line, in request order) through the src/serve request
// broker — over stdin/stdout by default, or over persistent, pipelined TCP
// connections with `--listen HOST:PORT` (src/serve/net.h; port 0 picks an
// ephemeral port, announced on stderr). See src/serve/README.md for the
// protocol and the admission-control behavior.
//
// See README.md ("One-command pipeline") and EXPERIMENTS.md for the
// per-bench invocations.
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/lint.h"
#include "src/analysis/verify.h"
#include "src/datalog/parser.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/io.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/serve/net.h"
#include "src/serve/plan_store.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/wire.h"
#include "src/util/json.h"

namespace dlcirc {
namespace {

using pipeline::Session;

struct Args {
  std::string program_file;
  std::string cfg_file;
  std::string facts_file;
  std::string graph_file;
  std::string batch_file;
  std::string updates_file;
  std::string semiring = "boolean";
  std::string construction = "grounded";  ///< a Construction name or "auto"
  std::string format = "text";
  std::string snapshot_dir;
  std::string requests_file;
  std::string listen;        ///< serve: HOST:PORT TCP front door ("" = stdin)
  int max_connections = 256; ///< serve --listen: admission cap on connections
  std::vector<std::string> queries;
  int threads = 0;  // 0 = unset; resolved via DLCIRC_THREADS, then 1
  int dispatchers = 1;
  int max_batch = 64;
  int queue_capacity = 1024;
  bool show_facts = false;
  bool quiet = false;
  bool profile = false;    ///< --profile: compile/eval phase table on stderr
  bool explain = false;    ///< --explain: the planner's scored plan tree
  std::string trace_out;   ///< --trace-out: Chrome trace JSON dump path
  std::string explain_fact;          ///< run: fact to explain after results
  std::string explain_mode = "proofs";  ///< proofs | why | sorp | formula
  int topk = 1;                      ///< proofs mode: trees per explanation
  int max_trees = 512;               ///< extraction budget (src/explain)
  bool explain_only = false;         ///< `dlcirc explain`: only explanations
  std::string check_snapshot;        ///< check: snapshot file to verify
  bool json = false;                 ///< check: JSON diagnostics rendering
};

/// --threads wins, then DLCIRC_THREADS, then single-threaded.
int ResolveThreads(const Args& args) {
  if (args.threads > 0) return args.threads;
  if (const char* env = std::getenv("DLCIRC_THREADS")) {
    try {
      size_t used = 0;
      int n = std::stoi(env, &used);
      if (used == std::string(env).size() && n >= 1) return n;
    } catch (...) {
    }
    std::cerr << "dlcirc: ignoring malformed DLCIRC_THREADS `" << env << "`\n";
  }
  return 1;
}

int Usage(std::ostream& out, int code) {
  out << R"usage(usage: dlcirc <command> [flags]

commands:
  run         run the full pipeline: parse, ground, build, optimize, compile, tag
  serve       serve NDJSON tagging requests over stdin/stdout (src/serve)
  explain     like run, but print only provenance explanations (src/explain):
              one JSON object per tagging lane for one fact (--query or
              --explain-fact picks it; see the run flags below)
  check       static analysis without running: parse with positions, lint the
              program (src/analysis), verify a plan snapshot's structural
              invariants; exit 0 = clean, 1 = errors, 2 = warnings only
  semirings   list the registered semirings
  help        show this message

run flags:
  --program FILE       Datalog program (src/datalog/parser.h syntax)
  --cfg FILE           CFG workload instead (src/lang ParseCfgText syntax),
                       converted to chain Datalog via Proposition 5.2
  --grammar FILE       shorthand for --cfg FILE --construction auto
  --facts FILE         EDB as ground facts, e.g. `E(s,u1). E(u1,t).`
  --graph FILE         EDB as edge CSV: `src,dst[,label]` per line
  --batch FILE         tagging CSV: one lane per line, one value per EDB fact
                       (default: a single lane tagging every fact with 1)
  --updates FILE       delta-stream CSV replayed after the initial results:
                       `lane,var,value[,var,value]...` per line mutates that
                       lane's tagging in place (vars are EDB provenance
                       variables, `x3` or `3`) and reports the refreshed
                       queried facts through the incremental evaluator
  --semiring NAME      semiring to tag over (default boolean; see `semirings`)
  --construction NAME  grounded (Thm 3.1, any program), uvg (Thm 6.2),
                       finite-rpq (Thm 5.8), bounded (Thm 4.3),
                       bellman-ford (Thm 5.6), repeated-squaring (Thm 5.7),
                       or auto — score every applicable construction with
                       the cost-based planner and pick the cheapest
                       [grounded]
  --explain            print the planner's scored plan tree: every
                       candidate construction with its size/depth estimate
                       or the reason it is inapplicable (text/csv formats:
                       stdout/stderr; json: an "explain" object)
  --query "T(s,t)"     IDB fact to report; repeatable (default: all facts of
                       the target predicate)
  --explain-fact "T(s,t)"  also emit a provenance explanation of this fact,
                       one JSON object per tagging lane (src/explain); text
                       format prints them after the results, json adds an
                       "explanations" array (csv refuses the flag)
  --explain-mode NAME  proofs (top-k best proof trees; idempotent semirings),
                       why / sorp (monomial enumeration, budget-truncated),
                       or formula (Spira-balanced formula with its Theorem
                       3.2 depth bound) [proofs]
  --topk K             proofs mode: number of proof trees to extract [1]
  --max-trees N        extraction budget: candidate expansions (proofs) or
                       monomials kept per gate (why/sorp); exceeding it sets
                       "truncated": true in the output [512]
  --format NAME        text, csv, or json [text]
  --threads N          evaluator worker threads [$DLCIRC_THREADS, else 1]
  --snapshot-dir DIR   plan snapshot cache: load compiled plans from DIR when
                       present, save fresh compiles into it (warm starts)
  --show-facts         print the EDB fact <-> provenance variable table
  --profile            print the compile/eval phase table (parse, ground,
                       route, construct, passes, plan build; plan-cache
                       hits/misses; eval sweeps) on stderr after the results
  --trace-out FILE     dump recorded phase spans as Chrome trace_event JSON
                       (open in about:tracing or ui.perfetto.dev)
  --quiet              suppress the pipeline narration; results only

serve flags: --program/--cfg/--grammar, --facts/--graph, --semiring,
  --construction, --explain (dumps the default semiring's plan tree to
  stderr at startup and adds "construction" to responses), --threads,
  --snapshot-dir, --trace-out and --quiet as above, plus:
  --requests FILE      read NDJSON requests from FILE instead of stdin
  --listen HOST:PORT   serve the same NDJSON protocol over TCP instead of
                       stdin: persistent connections, pipelined requests,
                       per-connection response ordering (port 0 picks an
                       ephemeral port, reported on stderr); runs until
                       SIGINT/SIGTERM
  --max-conns N        --listen: connections beyond N are refused with a
                       structured "busy" error line [256]
  --dispatchers N      broker threads draining the request queue [1]
  --max-batch N        max requests coalesced into one batched sweep [64]
  --queue N            bounded request-queue capacity [1024]; with --listen
                       also the admission threshold: requests arriving at
                       full queue depth get a "busy" error instead of
                       blocking the socket loop

check flags: --program/--cfg/--grammar as above (program optional when
  --snapshot is given), plus:
  --facts/--graph FILE EDB to lint routing against: adds the cost-based
                       planner's decision and per-candidate reasons as notes
  --semiring NAME      semiring class the routing notes assume [boolean]
  --snapshot FILE      decode FILE and run the plan/circuit verifier
                       (src/analysis/verify.h) over its contents
  --json               render diagnostics as one JSON object instead of text

serve protocol (one JSON object per line; `id` is echoed back):
  {"op":"eval","tags":["1","2",...],"query":["T(s,t)"]}
  {"op":"lane","lane":"alice","tags":["1","2",...]}
  {"op":"eval","lane":"alice"}            {"op":"update","lane":"alice",
  {"op":"drop","lane":"alice"}             "set":[["x3","5"],["x0","inf"]]}
  {"op":"ping"}                 {"op":"stats"}                {"op":"metrics"}
  {"op":"explain","lane":"alice","query":["T(s,t)"],"mode":"proofs","k":3}
  {"op":"explain","tags":["1",...],"query":["T(s,t)"],"mode":"why",
   "max_trees":16}        (modes: proofs | why | sorp | formula; exactly one
   query fact; a lane explains that lane's current epoch-consistent tagging,
   inline tags evaluate on the spot; budget overruns set "truncated": true)
  optional per-request: "semiring", "construction", "query", "id"
  ("construction": "auto" asks the cost-based planner for the request's
   semiring; without "construction", a request under another semiring
   resolves the --construction default again for that semiring; "metrics"
   returns Prometheus text as one JSON string: the counts "stats" reports,
   as counters and gauges, then the obs registry's histograms)
)usage";
  return code;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Fail(const std::string& message) {
  std::cerr << "dlcirc: " << message << "\n";
  return 1;
}

/// The one construction resolver, for `run`, `serve`'s startup default and
/// a serve request's "construction": a construction name, or "auto" for the
/// cost-based planner's pick under `semiring`'s traits.
Result<pipeline::Construction> ResolveConstruction(Session& session,
                                                   const std::string& name,
                                                   const std::string& semiring) {
  using Out = Result<pipeline::Construction>;
  if (name == "auto") {
    pipeline::Construction c = pipeline::Construction::kGrounded;
    if (!pipeline::DispatchSemiring(semiring, [&]<Semiring S>() {
          c = session.PlanConstruction(pipeline::SemiringTraits::For<S>())
                  .construction;
        })) {
      return Out::Error("unknown semiring `" + semiring + "`");
    }
    return c;
  }
  Out parsed = pipeline::ParseConstruction(name);
  if (parsed.ok()) return parsed;
  std::string names = "auto";
  for (uint32_t i = 0; i < pipeline::kNumConstructions; ++i) {
    names += ", " + std::string(pipeline::ConstructionName(
                        static_cast<pipeline::Construction>(i)));
  }
  return Out::Error("unknown construction `" + name + "` (one of: " + names +
                    ")");
}

/// "T(s,t)" -> pred "T", constants {"s","t"}.
bool ParseQuery(const std::string& text, std::string* pred,
                std::vector<std::string>* constants) {
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') return false;
  *pred = text.substr(0, open);
  std::string args = text.substr(open + 1, text.size() - open - 2);
  for (const std::string& field : pipeline::internal::SplitCsvLine(args)) {
    if (field.empty()) return false;
    constants->push_back(field);
  }
  return !pred->empty() && !constants->empty();
}

/// RFC-4180 quoting: fact names like T(s,t) contain commas and must not
/// split into extra columns.
std::string CsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// One parsed --updates line: an atomic sparse delta against one lane. The
/// values stay text: the Server parses them, as it does wire requests.
struct UpdateStep {
  int line = 0;
  size_t lane = 0;
  std::vector<std::pair<uint32_t, std::string>> delta;
};

/// Parses the --updates CSV: `lane,var,value[,var,value]...` per line, vars
/// as plain indices or `xN` (the --show-facts rendering). Values are checked
/// against S up front, so a malformed line fails before anything is served.
template <Semiring S>
Result<std::vector<UpdateStep>> ParseUpdatesCsv(std::string_view text,
                                                size_t num_lanes,
                                                uint32_t num_facts) {
  using Steps = std::vector<UpdateStep>;
  auto fail = [](int line, const std::string& what) {
    return Result<Steps>::Error("updates line " + std::to_string(line) + ": " +
                                what);
  };
  // The `xN` alias (the --show-facts rendering) is valid for EDB variables
  // ONLY; a lane field must be a bare index, so a shifted/misordered line
  // like `x1,0,5` is rejected instead of silently updating lane 1.
  auto parse_index = [](const std::string& field, uint32_t limit,
                        bool allow_var_prefix, uint32_t* out) {
    std::string digits = (allow_var_prefix && !field.empty() && field[0] == 'x')
                             ? field.substr(1)
                             : field;
    try {
      size_t used = 0;
      unsigned long v = std::stoul(digits, &used);
      if (used != digits.size() || digits.empty() || v >= limit) return false;
      *out = static_cast<uint32_t>(v);
      return true;
    } catch (...) {
      return false;
    }
  };
  Steps steps;
  for (const auto& [number, line] : pipeline::internal::SignificantLines(text)) {
    std::vector<std::string> fields = pipeline::internal::SplitCsvLine(line);
    if (fields.size() < 3 || fields.size() % 2 == 0) {
      return fail(number, "expected lane,var,value[,var,value]...");
    }
    UpdateStep step;
    step.line = number;
    uint32_t lane = 0;
    if (!parse_index(fields[0], static_cast<uint32_t>(num_lanes),
                     /*allow_var_prefix=*/false, &lane)) {
      return fail(number, "bad lane `" + fields[0] + "` (batch has " +
                              std::to_string(num_lanes) + " lane(s))");
    }
    step.lane = lane;
    for (size_t i = 1; i + 1 < fields.size(); i += 2) {
      uint32_t var = 0;
      if (!parse_index(fields[i], num_facts, /*allow_var_prefix=*/true, &var)) {
        return fail(number, "bad EDB variable `" + fields[i] + "` (EDB has " +
                                std::to_string(num_facts) + " facts)");
      }
      Result<typename S::Value> v = pipeline::ParseSemiringValue<S>(fields[i + 1]);
      if (!v.ok()) return fail(number, v.error());
      step.delta.emplace_back(var, fields[i + 1]);
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

/// `dlcirc run` and `dlcirc explain`: a client of an in-process
/// serve::Server over one PlanStore, so the values printed here come from the
/// same code `dlcirc serve` answers with. The whole run is queued on a paused
/// server and served as one burst, which keeps the plan-cache counts it
/// reports deterministic.
template <Semiring S>
int RunTyped(const Args& args, Session& session) {
  const uint32_t num_facts = session.db().num_facts();

  // Tagging lanes: the batch file's value fields (checked against S here,
  // parsed by the Server), or one unit lane (no tags = every fact tagged 1).
  std::vector<std::vector<std::string>> taggings;
  if (!args.batch_file.empty()) {
    std::string text, error;
    if (!ReadFile(args.batch_file, &text, &error)) return Fail(error);
    auto lanes = pipeline::ParseTagCsv<S>(text, num_facts);
    if (!lanes.ok()) return Fail(args.batch_file + ": " + lanes.error());
    for (const auto& [number, line] :
         pipeline::internal::SignificantLines(text)) {
      taggings.push_back(pipeline::internal::SplitCsvLine(line));
    }
  } else {
    taggings.emplace_back();
  }

  // Delta stream: parsed up front so malformed lines fail before serving.
  std::vector<UpdateStep> updates;
  if (!args.updates_file.empty()) {
    std::string text, error;
    if (!ReadFile(args.updates_file, &text, &error)) return Fail(error);
    auto parsed = ParseUpdatesCsv<S>(text, taggings.size(), num_facts);
    if (!parsed.ok()) return Fail(args.updates_file + ": " + parsed.error());
    updates = std::move(parsed).value();
  }

  // Facts to report: explicit queries or every target-predicate fact.
  std::vector<uint32_t> facts;
  std::vector<std::string> fact_names;
  if (!args.queries.empty()) {
    for (const std::string& q : args.queries) {
      std::string pred;
      std::vector<std::string> constants;
      if (!ParseQuery(q, &pred, &constants)) {
        return Fail("bad --query `" + q + "` (expected Pred(c1,...,ck))");
      }
      Result<uint32_t> fact = session.FindFact(pred, constants);
      if (!fact.ok()) return Fail("--query `" + q + "`: " + fact.error());
      facts.push_back(fact.value());
      fact_names.push_back(q);
    }
  } else {
    facts = session.TargetFacts();
    if (facts.empty() && !args.explain_only) {
      return Fail("no derivable facts of the target predicate `" +
                  session.program().preds.Name(session.program().target_pred) +
                  "`; pass --query to report a specific fact");
    }
    for (uint32_t f : facts) fact_names.push_back(session.FactName(f));
  }

  // Compile explicitly so the narration can show plan provenance; the
  // Server's burst then hits the store. --explain renders the planner's
  // plan tree even when the construction is forced, so a forced run still
  // documents what the planner would have picked.
  std::optional<pipeline::RouteDecision> decision;
  if (args.explain) {
    decision = session.PlanConstruction(pipeline::SemiringTraits::For<S>());
  }
  Result<pipeline::Construction> construction =
      ResolveConstruction(session, args.construction, args.semiring);
  if (!construction.ok()) return Fail(construction.error());
  pipeline::PlanKey key = pipeline::PlanKey::For<S>(construction.value());
  // With a snapshot directory the store warm-starts off disk when a valid
  // snapshot exists and persists fresh compiles.
  serve::PlanStore store(args.snapshot_dir);
  auto compiled = store.GetOrCompile(session, key);
  if (!compiled.ok()) return Fail(compiled.error());
  const pipeline::CompiledPlan& plan = *compiled.value();

  // Provenance explanations (src/explain): `dlcirc explain` prints only
  // these, `run --explain-fact` appends them to the normal output. One
  // inline explain per lane, evaluated on the spot — the proof weights are
  // read bitwise from that evaluation, so the top-1 weight always equals the
  // reported value.
  const std::string explain_query =
      !args.explain_fact.empty()
          ? args.explain_fact
          : (args.explain_only && args.queries.size() == 1 ? args.queries[0]
                                                           : "");
  if (args.explain_only && explain_query.empty()) {
    return Fail(
        "dlcirc explain needs --explain-fact \"Pred(c1,...,ck)\" "
        "(or exactly one --query)");
  }
  std::optional<uint32_t> explain_fact;
  if (!explain_query.empty()) {
    std::string pred;
    std::vector<std::string> constants;
    if (!ParseQuery(explain_query, &pred, &constants)) {
      return Fail("bad --explain-fact `" + explain_query +
                  "` (expected Pred(c1,...,ck))");
    }
    Result<uint32_t> fact = session.FindFact(pred, constants);
    if (!fact.ok()) {
      return Fail("--explain-fact `" + explain_query + "`: " + fact.error());
    }
    explain_fact = fact.value();
  }

  // The run as requests, in order: one explain per lane, then the batch —
  // inline evals, or (with a delta stream) one named lane per tagging plus
  // the updates against them.
  using Kind = serve::ServeRequest::Kind;
  std::vector<serve::ServeRequest> requests;
  auto add = [&](Kind kind, const std::vector<std::string>& tags) {
    serve::ServeRequest& r = requests.emplace_back();
    r.kind = kind;
    r.semiring = args.semiring;
    r.construction = key.construction;
    r.tags = tags;
    r.facts = facts;
    return &r;
  };
  if (explain_fact.has_value()) {
    for (const std::vector<std::string>& tags : taggings) {
      serve::ServeRequest* r = add(Kind::kExplain, tags);
      r->facts = {*explain_fact};
      r->explain_mode = args.explain_mode;
      r->explain_k = static_cast<uint32_t>(args.topk);
      r->explain_max_trees = static_cast<uint64_t>(args.max_trees);
      r->explain_fact_name = explain_query;
    }
  }
  const size_t num_explains = requests.size();
  if (!args.explain_only) {
    for (size_t b = 0; b < taggings.size(); ++b) {
      if (updates.empty()) {
        add(Kind::kEval, taggings[b]);
      } else {
        add(Kind::kMakeLane, taggings[b])->lane = std::to_string(b);
      }
    }
    for (const UpdateStep& u : updates) {
      serve::ServeRequest* r = add(Kind::kUpdate, {});
      r->lane = std::to_string(u.lane);
      r->delta = u.delta;
    }
  }

  serve::ServerOptions options;
  options.queue_capacity = options.max_coalesce = requests.size();
  options.eval.num_threads = ResolveThreads(args);
  options.paused = true;
  serve::Server server(session, store, options);
  std::vector<std::future<serve::ServeResponse>> futures;
  futures.reserve(requests.size());
  for (serve::ServeRequest& r : requests) {
    futures.push_back(server.Submit(std::move(r)));
  }
  server.Resume();
  const size_t first_update = num_explains + taggings.size();
  std::vector<std::vector<std::string>> values;  // per request, per fact
  std::vector<std::string> explanations;         // one JSON object per lane
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::ServeResponse r = futures[i].get();
    if (!r.ok && i < first_update) return Fail(r.error);
    if (!r.ok) {
      return Fail("updates line " +
                  std::to_string(updates[i - first_update].line) + ": " +
                  r.error);
    }
    if (i < num_explains) {
      explanations.push_back(std::move(r.explain_json));
    } else {
      values.push_back(std::move(r.values));
    }
  }
  if (args.explain_only) {
    for (const std::string& e : explanations) std::cout << e << "\n";
    return 0;
  }
  // values: one row per lane, then one refreshed row per update step.
  const size_t lanes = taggings.size();
  const serve::PlanStoreStats cache = store.stats();
  const uint64_t cache_misses = cache.compiles + cache.snapshot_loads;

  if (args.format == "text") {
    if (!args.quiet) {
      const GroundedProgram& g = session.grounded();
      std::cout << "program: " << session.program().rules.size() << " rules, "
                << num_facts << " EDB facts\n"
                << "grounding: " << g.num_idb_facts() << " IDB facts, "
                << g.rules().size() << " ground rules (size " << g.TotalSize()
                << ")\n"
                << "construction: "
                << pipeline::ConstructionName(key.construction) << ", "
                << plan.layers_used
                << (key.construction == pipeline::Construction::kGrounded
                        ? " ICO layers"
                        : key.construction == pipeline::Construction::kFiniteRpq
                              ? " unroll steps"
                              : " stages")
                << ", circuit size " << plan.unoptimized.size << " -> "
                << plan.circuit.Size() << " after "
                << plan.pass_stats.size() << " passes\n"
                << "plan: " << plan.plan.num_slots() << " slots in "
                << plan.plan.num_layers() << " layers; cache " << cache.hits
                << " hit(s) / " << cache_misses << " miss(es)\n"
                << "semiring: " << S::Name() << ", " << lanes << " tagging lane(s)\n";
      if (args.show_facts) {
        std::cout << "EDB taggings are ordered:\n";
        for (uint32_t v = 0; v < num_facts; ++v) {
          std::cout << "  x" << v << " = " << session.EdbFactName(v) << "\n";
        }
      }
      std::cout << "\n";
    }
    if (args.explain && decision.has_value()) {
      std::cout << pipeline::RenderExplainText(
                       *decision, pipeline::SemiringTraits::For<S>())
                << "\n";
    }
    for (size_t i = 0; i < facts.size(); ++i) {
      std::cout << fact_names[i] << " =";
      for (size_t b = 0; b < lanes; ++b) std::cout << " " << values[b][i];
      std::cout << "\n";
    }
    for (size_t b = 0; b < explanations.size(); ++b) {
      std::cout << "explain lane " << b << ": " << explanations[b] << "\n";
    }
    for (size_t s = 0; s < updates.size(); ++s) {
      std::cout << "update " << s + 1 << " lane " << updates[s].lane << ":";
      for (size_t i = 0; i < facts.size(); ++i) {
        std::cout << (i ? ", " : " ") << fact_names[i] << " = "
                  << values[lanes + s][i];
      }
      std::cout << "\n";
    }
    if (!updates.empty() && !args.quiet) {
      const serve::ServerStats st = server.stats();
      std::cout << "updates: " << st.updates << " applied, "
                << st.update_fallbacks << " full re-evaluation fallback(s)\n";
    }
  } else if (args.format == "csv") {
    // The plan tree goes to stderr so csv stdout stays machine-clean.
    if (args.explain && decision.has_value()) {
      std::cerr << pipeline::RenderExplainText(
          *decision, pipeline::SemiringTraits::For<S>());
    }
    std::cout << "fact";
    for (size_t b = 0; b < lanes; ++b) std::cout << ",lane_" << b;
    std::cout << "\n";
    for (size_t i = 0; i < facts.size(); ++i) {
      std::cout << CsvField(fact_names[i]);
      for (size_t b = 0; b < lanes; ++b) std::cout << "," << values[b][i];
      std::cout << "\n";
    }
    if (!updates.empty()) std::cout << "update,lane,fact,value\n";
    for (size_t s = 0; s < updates.size(); ++s) {
      for (size_t i = 0; i < facts.size(); ++i) {
        std::cout << s + 1 << "," << updates[s].lane << ","
                  << CsvField(fact_names[i]) << "," << values[lanes + s][i]
                  << "\n";
      }
    }
  } else if (args.format == "json") {
    std::cout << "{\n  \"semiring\": \"" << S::Name() << "\",\n"
              << "  \"construction\": \""
              << pipeline::ConstructionName(key.construction) << "\",\n";
    if (args.explain && decision.has_value()) {
      std::cout << "  \"explain\": "
                << pipeline::RenderExplainJson(
                       *decision, pipeline::SemiringTraits::For<S>())
                << ",\n";
    }
    std::cout
              << "  \"circuit\": {\"size\": " << plan.circuit.Size()
              << ", \"depth\": " << plan.circuit.Depth()
              << ", \"layers_used\": " << plan.layers_used << "},\n"
              << "  \"plan\": {\"slots\": " << plan.plan.num_slots()
              << ", \"layers\": " << plan.plan.num_layers()
              << ", \"cache_hits\": " << cache.hits
              << ", \"cache_misses\": " << cache_misses
              << "},\n  \"lanes\": " << lanes << ",\n  \"results\": [\n";
    for (size_t i = 0; i < facts.size(); ++i) {
      std::cout << "    {\"fact\": \"" << JsonEscape(fact_names[i])
                << "\", \"values\": [";
      for (size_t b = 0; b < lanes; ++b) {
        std::cout << (b ? ", " : "") << "\"" << values[b][i] << "\"";
      }
      std::cout << "]}" << (i + 1 < facts.size() ? "," : "") << "\n";
    }
    std::cout << "  ]";
    if (!explanations.empty()) {
      std::cout << ",\n  \"explanations\": [\n";
      for (size_t b = 0; b < explanations.size(); ++b) {
        std::cout << "    " << explanations[b]
                  << (b + 1 < explanations.size() ? "," : "") << "\n";
      }
      std::cout << "  ]";
    }
    if (!updates.empty()) {
      std::cout << ",\n  \"updates\": [\n";
      for (size_t s = 0; s < updates.size(); ++s) {
        std::cout << "    {\"update\": " << s + 1
                  << ", \"lane\": " << updates[s].lane << ", \"values\": [";
        for (size_t i = 0; i < facts.size(); ++i) {
          std::cout << (i ? ", " : "") << "\"" << values[lanes + s][i] << "\"";
        }
        std::cout << "]}" << (s + 1 < updates.size() ? "," : "") << "\n";
      }
      std::cout << "  ]";
    }
    std::cout << "\n}\n";
  }

  // The phase table goes to stderr so csv/json stdout stays machine-clean.
  if (args.profile) {
    const pipeline::PhaseProfile& ph = session.phase_profile();
    std::ostringstream prof;
    prof.setf(std::ios::fixed);
    prof << std::setprecision(3)
         << "profile: phase table (ms)\n"
         << "  parse       " << ph.parse_ms << "\n"
         << "  ground      " << ph.ground_ms << "\n"
         << "  route       " << ph.route_ms << "\n"
         << "  construct   " << ph.construct_ms << "\n"
         << "  passes      " << ph.passes_ms << "\n"
         << "  plan-build  " << ph.plan_build_ms << "\n"
         << "profile: plan cache " << cache.hits << " hit(s) / "
         << cache_misses << " miss(es)\n";
    const obs::LocalHistogram sweeps =
        obs::Registry::Default()
            .GetHistogram("dlcirc_eval_sweep_ns")
            .Snapshot();
    if (sweeps.count() > 0) {
      prof << "profile: eval sweeps " << sweeps.count() << ", p50 "
           << static_cast<double>(sweeps.Quantile(0.5)) * 1e-3 << " us, p99 "
           << static_cast<double>(sweeps.Quantile(0.99)) * 1e-3 << " us\n";
    }
    std::cerr << prof.str();
  }
  return 0;
}

/// Builds the Session every command shares: program/CFG + EDB.
Result<Session> BuildSession(const Args& args) {
  if (args.program_file.empty() == args.cfg_file.empty()) {
    return Result<Session>::Error(
        "pass exactly one of --program, --cfg, or --grammar");
  }
  if (args.facts_file.empty() == args.graph_file.empty()) {
    return Result<Session>::Error("pass exactly one of --facts or --graph");
  }
  Result<Session> session_r = [&]() -> Result<Session> {
    std::string text, error;
    if (!args.program_file.empty()) {
      if (!ReadFile(args.program_file, &text, &error)) {
        return Result<Session>::Error(error);
      }
      return Session::FromDatalog(text);
    }
    if (!ReadFile(args.cfg_file, &text, &error)) {
      return Result<Session>::Error(error);
    }
    Result<Cfg> cfg = ParseCfgText(text);
    if (!cfg.ok()) return Result<Session>::Error(args.cfg_file + ": " + cfg.error());
    return Session::FromCfg(cfg.value());
  }();
  if (!session_r.ok()) return session_r;
  Session session = std::move(session_r).value();

  {
    std::string text, error;
    const std::string& path =
        !args.facts_file.empty() ? args.facts_file : args.graph_file;
    if (!ReadFile(path, &text, &error)) return Result<Session>::Error(error);
    Result<bool> loaded = !args.facts_file.empty()
                              ? session.LoadFactsText(text)
                              : session.LoadGraphCsv(text);
    if (!loaded.ok()) {
      return Result<Session>::Error(path + ": " + loaded.error());
    }
  }
  return session;
}

int Run(const Args& args) {
  if (args.format != "text" && args.format != "csv" && args.format != "json") {
    return Fail("unknown --format `" + args.format +
                "` (expected text, csv, or json)");
  }
  if (args.format == "csv" && !args.explain_fact.empty() &&
      !args.explain_only) {
    return Fail(
        "--explain-fact emits JSON objects; use --format text or json "
        "(or the `dlcirc explain` command)");
  }
  Result<Session> session_r = BuildSession(args);
  if (!session_r.ok()) return Fail(session_r.error());
  Session session = std::move(session_r).value();

  int code = 1;
  bool known = pipeline::DispatchSemiring(
      args.semiring, [&]<Semiring S>() { code = RunTyped<S>(args, session); });
  if (!known) {
    std::string names;
    for (const std::string& n : pipeline::SemiringNames()) {
      names += (names.empty() ? "" : ", ") + n;
    }
    return Fail("unknown --semiring `" + args.semiring + "` (one of: " + names +
                ")");
  }
  return code;
}

// ---------------------------------------------------------------- check

/// `dlcirc check`: parse with positions, lint, and (optionally) verify a
/// plan snapshot — no grounding or evaluation unless an EDB is given for
/// routing notes. Output is deterministic (byte-identical across runs);
/// the exit code follows the CI convention (analysis::ExitCode).
int Check(const Args& args) {
  const bool has_program = !args.program_file.empty() || !args.cfg_file.empty();
  if (!has_program && args.check_snapshot.empty()) {
    return Fail("check needs --program, --cfg, --grammar, or --snapshot");
  }
  if (!args.program_file.empty() && !args.cfg_file.empty()) {
    return Fail("pass exactly one of --program, --cfg, or --grammar");
  }
  if (!args.facts_file.empty() && !args.graph_file.empty()) {
    return Fail("pass exactly one of --facts or --graph");
  }
  const bool has_edb = !args.facts_file.empty() || !args.graph_file.empty();

  std::vector<analysis::Diagnostic> diags;

  if (has_program) {
    std::string text, error;
    const std::string& path =
        !args.program_file.empty() ? args.program_file : args.cfg_file;
    if (!ReadFile(path, &text, &error)) return Fail(error);

    std::optional<Program> program;
    if (!args.program_file.empty()) {
      analysis::Diagnostic d;
      Result<Program> parsed = ParseProgram(text, &d);
      if (!parsed.ok()) {
        diags.push_back(std::move(d));
      } else {
        program = std::move(parsed).value();
      }
    } else {
      analysis::Diagnostic d;
      Result<Cfg> cfg = ParseCfgText(text, &d);
      if (!cfg.ok()) {
        diags.push_back(std::move(d));
      } else {
        Result<Session> session = Session::FromCfg(cfg.value());
        if (!session.ok()) return Fail(args.cfg_file + ": " + session.error());
        program = session.value().program();
      }
    }

    if (program.has_value()) {
      std::vector<analysis::Diagnostic> lints = analysis::LintProgram(*program);
      diags.insert(diags.end(), lints.begin(), lints.end());

      if (has_edb) {
        pipeline::SemiringTraits traits;
        bool known = pipeline::DispatchSemiring(
            args.semiring,
            [&]<Semiring S>() { traits = pipeline::SemiringTraits::For<S>(); });
        if (!known) {
          return Fail("unknown --semiring `" + args.semiring + "`");
        }
        Result<Session> session_r = BuildSession(args);
        if (!session_r.ok()) return Fail(session_r.error());
        Session session = std::move(session_r).value();
        std::vector<analysis::Diagnostic> notes =
            analysis::LintRouting(session.planner_context(), traits);
        diags.insert(diags.end(), notes.begin(), notes.end());
      }
    }
  }

  if (!args.check_snapshot.empty()) {
    Result<serve::SnapshotInfo> info_r =
        serve::InspectSnapshot(args.check_snapshot);
    if (!info_r.ok()) {
      diags.push_back({"snapshot.unreadable", analysis::Severity::kError,
                       {}, info_r.error(), ""});
    } else {
      const serve::SnapshotInfo& info = info_r.value();
      const auto c = static_cast<uint8_t>(info.key.construction);
      const std::string cname =
          c < pipeline::kNumConstructions
              ? std::string(pipeline::ConstructionName(info.key.construction))
              : "unknown(" + std::to_string(c) + ")";
      diags.push_back(
          {"snapshot.info", analysis::Severity::kNote, {},
           "snapshot " + args.check_snapshot + ": construction " + cname +
               ", " + std::to_string(info.num_slots) + " slot(s) in " +
               std::to_string(info.num_layers) + " layer(s), " +
               std::to_string(info.num_outputs) + " output(s), " +
               std::to_string(info.num_vars) + " input var(s)",
           ""});
      diags.insert(diags.end(), info.findings.begin(), info.findings.end());
    }
  }

  if (args.json) {
    std::cout << analysis::RenderJson(diags);
  } else {
    std::cout << analysis::RenderText(diags);
    const analysis::DiagnosticCounts n = analysis::Count(diags);
    std::cout << "check: " << n.errors << " error(s), " << n.warnings
              << " warning(s), " << n.notes << " note(s)\n";
  }
  return analysis::ExitCode(diags);
}

// ---------------------------------------------------------------------------
// dlcirc serve: NDJSON request/response over stdin/stdout or TCP through the
// src/serve broker. The reading thread translates and submits each line;
// the broker's completion renders the response line on the dispatcher that
// served it. Responses leave in request order (so coalescing never reorders
// output): over TCP the SocketServer's per-connection slots restore it, on
// stdin a writer thread prints the lines in submit order.
// ---------------------------------------------------------------------------

/// What rendering a broker response needs besides the response itself.
struct OutItem {
  /// Aligned with response values. Shared, not copied: requests without an
  /// explicit query all point at the one default name vector — copying
  /// every target-fact name per request would dominate the reader thread
  /// on large plans.
  std::shared_ptr<const std::vector<std::string>> fact_names;
  std::string id_json;                  ///< rendered "id" to echo, or empty
  bool is_stats = false;                ///< render server stats on completion
  bool is_metrics = false;              ///< render Prometheus text on completion
};

std::string ServeError(const std::string& id_json, const std::string& error) {
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\": " + id_json + ", ";
  out += "\"ok\": false, \"error\": \"" + serve::JsonEscape(error) + "\"}";
  return out;
}

std::string RenderStats(const std::string& id_json, const serve::Server& server,
                        const serve::PlanStore& store) {
  serve::ServerStats s = server.stats();
  serve::PlanStoreStats p = store.stats();
  std::ostringstream out;
  out << "{";
  if (!id_json.empty()) out << "\"id\": " << id_json << ", ";
  out << "\"ok\": true, \"stats\": {\"requests\": " << s.requests
      << ", \"evals\": " << s.evals << ", \"lane_reads\": " << s.lane_reads
      << ", \"lane_makes\": " << s.lane_makes << ", \"updates\": " << s.updates
      << ", \"update_fallbacks\": " << s.update_fallbacks
      << ", \"batches\": " << s.batches
      << ", \"batched_lanes\": " << s.batched_lanes
      << ", \"max_batch\": " << s.max_batch << ", \"explains\": " << s.explains
      << ", \"errors\": " << s.errors
      << ", \"plan_hits\": " << p.hits << ", \"plan_compiles\": " << p.compiles
      << ", \"snapshot_loads\": " << p.snapshot_loads
      << ", \"snapshot_saves\": " << p.snapshot_saves
      << ", \"plan_evictions\": " << p.evictions
      << ", \"plans_resident\": " << p.resident
      << ", \"uptime_s\": " << std::fixed << std::setprecision(3)
      << server.uptime_seconds() << std::defaultfloat
      << ", \"queue_depth\": " << server.queue_depth() << ", \"channels\": [";
  bool first = true;
  for (const serve::ChannelBatchSummary& c : server.ChannelSummaries()) {
    if (!first) out << ", ";
    first = false;
    out << "{\"channel\": \"" << serve::JsonEscape(c.channel)
        << "\", \"sweeps\": " << c.sweeps << ", \"batch_p50\": " << c.p50
        << ", \"batch_p99\": " << c.p99 << ", \"batch_max\": " << c.max
        << "}";
  }
  out << "]}}";
  return out.str();
}

/// Prometheus text embedded as one JSON string (serve::JsonEscape turns the
/// newlines into \n escapes, so the response stays a single NDJSON line):
/// the counts and levels of the structs `stats` renders (plus the socket
/// layer's under --listen), then the obs registry's histograms.
std::string RenderMetrics(const std::string& id_json,
                          const serve::Server& server,
                          const serve::PlanStore& store,
                          const serve::SocketServer* sock) {
  serve::NetStats net;
  if (sock != nullptr) net = sock->stats();
  const std::string text =
      serve::RenderStatsPrometheus(server.stats(), server.queue_depth(),
                                   store.stats(),
                                   sock != nullptr ? &net : nullptr) +
      obs::Registry::Default().RenderPrometheus();
  std::string out = "{";
  if (!id_json.empty()) out += "\"id\": " + id_json + ", ";
  out += "\"ok\": true, \"metrics\": \"" + serve::JsonEscape(text) + "\"}";
  return out;
}

std::string RenderResponse(const OutItem& item,
                           const serve::ServeResponse& response,
                           bool explain) {
  if (!response.ok) return ServeError(item.id_json, response.error);
  std::string out = "{";
  if (!item.id_json.empty()) out += "\"id\": " + item.id_json + ", ";
  out += "\"ok\": true";
  // Opt-in so the default NDJSON stays byte-stable for existing consumers;
  // empty for pings and requests rejected before routing.
  if (explain && !response.construction.empty()) {
    out += ", \"construction\": \"" + serve::JsonEscape(response.construction) +
           "\"";
  }
  if (response.epoch > 0) {
    out += ", \"epoch\": " + std::to_string(response.epoch);
  }
  if (!response.values.empty()) {
    out += ", \"results\": [";
    for (size_t i = 0; i < response.values.size(); ++i) {
      if (i) out += ", ";
      out += "{\"fact\": \"" + serve::JsonEscape((*item.fact_names)[i]) +
             "\", \"value\": \"" + serve::JsonEscape(response.values[i]) +
             "\"}";
    }
    out += "]";
  }
  // The explanation object is pre-rendered JSON (src/explain renderers) —
  // spliced verbatim, never re-escaped.
  if (!response.explain_json.empty()) {
    out += ", \"explain\": " + response.explain_json;
  }
  out += "}";
  return out;
}

/// Shared request-translation state for the stdin and socket front ends:
/// everything needed to turn one NDJSON request line into a broker request.
/// Built once in Serve() after the session/planner caches are warm; all
/// reads through it are race-free afterwards.
struct ServeContext {
  const Args* args = nullptr;
  Session* session = nullptr;
  uint32_t num_facts = 0;
  pipeline::Construction default_construction =
      pipeline::Construction::kGrounded;
  std::vector<uint32_t> default_facts;
  std::shared_ptr<const std::vector<std::string>> default_fact_names;
  /// The --listen front door, whose NetStats join the `metrics` op; null
  /// on stdin.
  const serve::SocketServer* sock = nullptr;
};

/// One translated request line. `request` goes to the broker unless
/// `error_line` holds the complete response line (parse/translation error).
struct Translated {
  OutItem item;
  serve::ServeRequest request;
  std::string error_line;
};

/// "x3" / "3" / JSON number 3 -> EDB provenance variable.
bool ParseVarToken(const serve::JsonValue& v, uint32_t num_facts,
                   uint32_t* out) {
  std::string text = v.text;
  if (v.IsString() && !text.empty() && text[0] == 'x') text = text.substr(1);
  if (!v.IsString() && !v.IsNumber()) return false;
  try {
    size_t used = 0;
    unsigned long parsed = std::stoul(text, &used);
    if (text.empty() || used != text.size() || parsed >= num_facts) {
      return false;
    }
    *out = static_cast<uint32_t>(parsed);
    return true;
  } catch (...) {
    return false;
  }
}

Translated TranslateServeLine(const ServeContext& ctx, const std::string& line,
                              uint64_t line_number) {
  const Args& args = *ctx.args;
  Session& session = *ctx.session;
  Translated t;
  OutItem& item = t.item;
  auto set_fail = [&](const std::string& what) {
    t.error_line = ServeError(
        item.id_json, "line " + std::to_string(line_number) + ": " + what);
  };

  Result<serve::JsonValue> parsed = serve::ParseJson(line);
  if (!parsed.ok()) {
    set_fail(parsed.error());
    return t;
  }
  const serve::JsonValue& json = parsed.value();
  if (!json.IsObject()) {
    set_fail("request must be a JSON object");
    return t;
  }
  if (const serve::JsonValue* id = json.Find("id")) {
    if (id->IsNumber()) {
      item.id_json = id->text;
    } else if (id->IsString()) {
      item.id_json = "\"" + serve::JsonEscape(id->text) + "\"";
    }
  }

  const serve::JsonValue* op = json.Find("op");
  if (op == nullptr || !op->IsString()) {
    set_fail("missing \"op\"");
    return t;
  }

  serve::ServeRequest& request = t.request;
  request.semiring = args.semiring;
  request.construction = ctx.default_construction;
  if (const serve::JsonValue* s = json.Find("semiring")) {
    if (!s->IsString()) {
      set_fail("\"semiring\" must be a string");
      return t;
    }
    request.semiring = s->text;
  }
  // A named construction (or "auto") resolves for this request's semiring.
  // Without one, a request under another semiring resolves --construction
  // again (an "auto" default was planned for --semiring's traits: counting
  // must not inherit a finite-RPQ pick); every other request keeps the
  // default resolved once at startup.
  const serve::JsonValue* c = json.Find("construction");
  if (c != nullptr && !c->IsString()) {
    set_fail("\"construction\" must be a string");
    return t;
  }
  if (c != nullptr || request.semiring != args.semiring) {
    Result<pipeline::Construction> resolved = ResolveConstruction(
        session, c != nullptr ? c->text : args.construction, request.semiring);
    if (!resolved.ok()) {
      set_fail(resolved.error());
      return t;
    }
    request.construction = resolved.value();
  }
  bool bad = false;
  if (const serve::JsonValue* lane = json.Find("lane")) {
    if (!lane->IsString()) {
      set_fail("\"lane\" must be a string");
      return t;
    }
    request.lane = lane->text;
  }
  if (const serve::JsonValue* tags = json.Find("tags")) {
    if (!tags->IsArray()) {
      set_fail("\"tags\" must be an array");
      return t;
    }
    request.tags.reserve(tags->items.size());
    for (const serve::JsonValue& tag : tags->items) {
      if (!tag.IsString() && !tag.IsNumber()) {
        set_fail("\"tags\" entries must be strings or numbers");
        bad = true;
        break;
      }
      request.tags.push_back(tag.text);
    }
    if (bad) return t;
  }
  if (const serve::JsonValue* set = json.Find("set")) {
    if (!set->IsArray()) {
      set_fail("\"set\" must be an array of [var, value] pairs");
      return t;
    }
    for (const serve::JsonValue& pair : set->items) {
      uint32_t var = 0;
      if (!pair.IsArray() || pair.items.size() != 2 ||
          !ParseVarToken(pair.items[0], ctx.num_facts, &var) ||
          (!pair.items[1].IsString() && !pair.items[1].IsNumber())) {
        set_fail("bad \"set\" entry (expected [var, value]; EDB has " +
                 std::to_string(ctx.num_facts) + " facts)");
        bad = true;
        break;
      }
      request.delta.emplace_back(var, pair.items[1].text);
    }
    if (bad) return t;
  }

  const std::string& op_name = op->text;
  if (op_name == "eval") {
    request.kind = serve::ServeRequest::Kind::kEval;
  } else if (op_name == "lane") {
    request.kind = serve::ServeRequest::Kind::kMakeLane;
  } else if (op_name == "update") {
    request.kind = serve::ServeRequest::Kind::kUpdate;
  } else if (op_name == "drop") {
    request.kind = serve::ServeRequest::Kind::kDropLane;
  } else if (op_name == "explain") {
    request.kind = serve::ServeRequest::Kind::kExplain;
    if (const serve::JsonValue* mode = json.Find("mode")) {
      if (!mode->IsString()) {
        set_fail("\"mode\" must be a string");
        return t;
      }
      request.explain_mode = mode->text;
    }
    // Budgets parse as plain positive integers; the broker clamps to >= 1,
    // so a 0 here is a protocol error rather than a silent promotion.
    auto parse_count = [&](const char* field, uint64_t limit, uint64_t* out) {
      const serve::JsonValue* v = json.Find(field);
      if (v == nullptr) return true;
      try {
        size_t used = 0;
        unsigned long long parsed = std::stoull(v->text, &used);
        if (!v->IsNumber() || used != v->text.size() || parsed < 1 ||
            parsed > limit) {
          throw std::invalid_argument(field);
        }
        *out = parsed;
        return true;
      } catch (...) {
        set_fail(std::string("\"") + field + "\" must be an integer in [1, " +
                 std::to_string(limit) + "]");
        return false;
      }
    };
    uint64_t k = request.explain_k;
    if (!parse_count("k", 1u << 20, &k)) return t;
    request.explain_k = static_cast<uint32_t>(k);
    if (!parse_count("max_trees", 1ull << 32, &request.explain_max_trees)) {
      return t;
    }
  } else if (op_name == "ping" || op_name == "stats" ||
             op_name == "metrics") {
    // stats and metrics ride the ping fence: the snapshot they render
    // reflects everything submitted before them.
    request.kind = serve::ServeRequest::Kind::kPing;
    item.is_stats = op_name == "stats";
    item.is_metrics = op_name == "metrics";
  } else {
    set_fail("unknown op `" + op_name + "`");
    return t;
  }

  // Facts to report: explicit queries or the target predicate's facts.
  // Resolution happens on the translating thread (read-only after the
  // warm-up), so the broker deals only in fact ids.
  bool wants_values = request.kind == serve::ServeRequest::Kind::kEval ||
                      request.kind == serve::ServeRequest::Kind::kMakeLane ||
                      request.kind == serve::ServeRequest::Kind::kUpdate ||
                      request.kind == serve::ServeRequest::Kind::kExplain;
  if (wants_values) {
    if (const serve::JsonValue* query = json.Find("query")) {
      if (!query->IsArray()) {
        set_fail("\"query\" must be an array of fact strings");
        return t;
      }
      std::vector<std::string> query_names;
      for (const serve::JsonValue& q : query->items) {
        std::string pred;
        std::vector<std::string> constants;
        if (!q.IsString() || !ParseQuery(q.text, &pred, &constants)) {
          set_fail("bad query (expected \"Pred(c1,...,ck)\")");
          bad = true;
          break;
        }
        Result<uint32_t> fact = session.FindFact(pred, constants);
        if (!fact.ok()) {
          set_fail("query `" + q.text + "`: " + fact.error());
          bad = true;
          break;
        }
        request.facts.push_back(fact.value());
        query_names.push_back(q.text);
      }
      if (bad) return t;
      item.fact_names = std::make_shared<const std::vector<std::string>>(
          std::move(query_names));
    } else {
      request.facts = ctx.default_facts;
      item.fact_names = ctx.default_fact_names;
    }
    if (request.kind == serve::ServeRequest::Kind::kExplain) {
      // A proof tree names one root; "explain the whole target predicate"
      // is ambiguous unless it has exactly one fact.
      if (request.facts.size() != 1) {
        set_fail("explain takes exactly one \"query\" fact (got " +
                 std::to_string(request.facts.size()) + ")");
        return t;
      }
      request.explain_fact_name = (*item.fact_names)[0];
    }
  }
  return t;
}

/// Answers one translated line through `send`, exactly once: at once for a
/// line that failed to translate, otherwise from the broker's completion on
/// the dispatcher that served it. A `stats` or `metrics` line is a ping, so
/// it renders once the broker has served everything queued before it.
void Answer(const ServeContext& ctx, serve::Server& server,
            const serve::PlanStore& store, Translated t,
            std::function<void(std::string)> send) {
  if (!t.error_line.empty()) {
    send(std::move(t.error_line));
    return;
  }
  server.Submit(
      std::move(t.request),
      [&server, &store, sock = ctx.sock, explain = ctx.args->explain,
       item = std::move(t.item),
       send = std::move(send)](serve::ServeResponse response) {
        send(!response.ok     ? RenderResponse(item, response, explain)
             : item.is_stats ? RenderStats(item.id_json, server, store)
             : item.is_metrics
                 ? RenderMetrics(item.id_json, server, store, sock)
                 : RenderResponse(item, response, explain));
      });
}

// --listen shutdown: signals flip a flag the accept loop's owner polls.
volatile std::sig_atomic_t g_serve_stop = 0;
void OnServeSignal(int) { g_serve_stop = 1; }

/// The socket front door: SocketServer owns framing and response ordering,
/// TranslateServeLine and Answer (shared with stdin mode) own the protocol,
/// and each broker completion hands its rendered line straight to the
/// owning connection's ordered slot. Admission control happens here, before
/// Submit: once the broker queue is at capacity, the request gets a
/// structured "busy" error instead of blocking the event loop on the
/// bounded MPMC queue.
int ServeListen(const Args& args, ServeContext ctx, serve::Server& server,
                serve::PlanStore& store) {
  serve::NetOptions net;
  {
    const size_t colon = args.listen.rfind(':');
    if (colon == std::string::npos) {
      return Fail("--listen expects HOST:PORT, got `" + args.listen + "`");
    }
    std::string host = args.listen.substr(0, colon);
    const std::string port_text = args.listen.substr(colon + 1);
    if (host.size() >= 2 && host.front() == '[' && host.back() == ']') {
      host = host.substr(1, host.size() - 2);  // [::1]:8080
    }
    int port = -1;
    try {
      size_t used = 0;
      port = std::stoi(port_text, &used);
      if (used != port_text.size()) port = -1;
    } catch (...) {
    }
    if (port < 0 || port > 65535) {
      return Fail("--listen: bad port `" + port_text + "`");
    }
    net.host = host;
    net.port = static_cast<uint16_t>(port);
  }
  net.max_connections = static_cast<uint32_t>(args.max_connections);

  serve::SocketServer sock;
  ctx.sock = &sock;
  const size_t admission_depth = static_cast<size_t>(args.queue_capacity);
  uint64_t line_number = 0;  // event-loop thread only
  auto handler = [&](std::string&& line,
                     serve::SocketServer::Responder responder) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      // Unlike stdin mode, every received line owes exactly one response
      // line (the connection's slot ordering depends on it).
      responder.Send(ServeError("", "empty request line"));
      return;
    }
    Translated t = TranslateServeLine(ctx, line, line_number);
    if (t.error_line.empty() && server.queue_depth() >= admission_depth) {
      responder.Send(ServeError(
          t.item.id_json, "busy: request queue full, retry later"));
      return;
    }
    Answer(ctx, server, store, std::move(t),
           [responder = std::move(responder)](std::string response) mutable {
             responder.Send(std::move(response));
           });
  };

  Result<bool> started = sock.Start(net, handler);
  if (!started.ok()) return Fail(started.error());
  // Always announced (even under --quiet): with port 0 this line is the
  // only way to learn where the server actually bound.
  std::cerr << "dlcirc serve: listening on " << net.host << ":" << sock.port()
            << "\n";

  g_serve_stop = 0;
  auto old_int = std::signal(SIGINT, OnServeSignal);
  auto old_term = std::signal(SIGTERM, OnServeSignal);
  while (!g_serve_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, old_int);
  std::signal(SIGTERM, old_term);

  // Drain order: stop accepting/reading first, then let the broker serve
  // what it already accepted (answers to closed connections are dropped).
  sock.Stop();
  server.Stop();

  if (!args.quiet) {
    serve::NetStats ns = sock.stats();
    serve::ServerStats s = server.stats();
    std::cerr << "dlcirc serve: " << ns.accepted << " connection(s), "
              << ns.rejected << " rejected at the cap, " << ns.lines
              << " request line(s); " << s.requests << " broker request(s), "
              << s.evals << " batched eval(s) in " << s.batches
              << " sweep(s), " << s.errors << " error(s)\n";
  }
  return 0;
}

int Serve(const Args& args) {
  Result<Session> session_r = BuildSession(args);
  if (!session_r.ok()) return Fail(session_r.error());
  Session session = std::move(session_r).value();
  const uint32_t num_facts = session.db().num_facts();

  if (!pipeline::DispatchSemiring(args.semiring, []<Semiring S>() {})) {
    return Fail("unknown --semiring `" + args.semiring + "`");
  }
  // Resolved once here; requests that name neither a construction nor
  // another semiring keep it, so no planner call runs per request.
  Result<pipeline::Construction> default_construction =
      ResolveConstruction(session, args.construction, args.semiring);
  if (!default_construction.ok()) return Fail(default_construction.error());
  if (args.explain) {
    pipeline::DispatchSemiring(args.semiring, [&]<Semiring S>() {
      const pipeline::SemiringTraits traits = pipeline::SemiringTraits::For<S>();
      std::cerr << "dlcirc serve: "
                << pipeline::RenderExplainText(session.PlanConstruction(traits),
                                               traits);
    });
  }

  serve::PlanStore store(args.snapshot_dir);

  // Warm the default channel's plan before accepting traffic, so the first
  // request pays serving cost, not compile cost. Other (semiring,
  // construction) channels compile on first use.
  {
    bool ok = true;
    std::string error;
    pipeline::DispatchSemiring(args.semiring, [&]<Semiring S>() {
      auto compiled = store.GetOrCompile(
          session, pipeline::PlanKey::For<S>(default_construction.value()));
      if (!compiled.ok()) {
        ok = false;
        error = compiled.error();
      } else if (!args.quiet) {
        const pipeline::CompiledPlan& plan = *compiled.value();
        serve::PlanStoreStats ps = store.stats();
        std::cerr << "dlcirc serve: " << S::Name() << "/"
                  << pipeline::ConstructionName(plan.key.construction)
                  << " plan ready ("
                  << (ps.snapshot_loads > 0 ? "snapshot warm start"
                                            : "cold compile")
                  << "; " << plan.plan.num_slots() << " slots in "
                  << plan.plan.num_layers() << " layers)\n";
      }
    });
    if (!ok) return Fail(error);
  }

  // Default report set: every target-predicate fact, like `dlcirc run`.
  // (The fact-id vector is still copied per request — a flat memcpy dwarfed
  // by evaluating and formatting those same facts' values.)
  std::vector<uint32_t> default_facts = session.TargetFacts();
  auto default_fact_names = [&] {
    std::vector<std::string> names;
    names.reserve(default_facts.size());
    for (uint32_t f : default_facts) names.push_back(session.FactName(f));
    return std::make_shared<const std::vector<std::string>>(std::move(names));
  }();

  serve::ServerOptions server_options;
  server_options.queue_capacity = static_cast<size_t>(args.queue_capacity);
  server_options.max_coalesce = static_cast<size_t>(args.max_batch);
  server_options.num_dispatchers = args.dispatchers;
  server_options.eval.num_threads = ResolveThreads(args);
  serve::Server server(session, store, server_options);

  ServeContext ctx;
  ctx.args = &args;
  ctx.session = &session;
  ctx.num_facts = num_facts;
  ctx.default_construction = default_construction.value();
  ctx.default_facts = default_facts;
  ctx.default_fact_names = default_fact_names;

  if (!args.listen.empty()) return ServeListen(args, ctx, server, store);

  std::ifstream requests_file;
  if (!args.requests_file.empty()) {
    requests_file.open(args.requests_file);
    if (!requests_file) return Fail("cannot open " + args.requests_file);
  }
  std::istream& in = args.requests_file.empty() ? std::cin : requests_file;

  // Ordered, bounded response pipeline: each line's answer arrives through a
  // future its completion fulfils, and the writer prints them in request
  // order however the broker coalesces; the bound keeps a fast producer
  // from buffering unboundedly.
  std::mutex out_mu;
  std::condition_variable out_nonempty, out_space;
  std::deque<std::future<std::string>> out_queue;
  bool out_done = false;
  const size_t kMaxPendingResponses = 4096;

  std::thread writer([&] {
    while (true) {
      std::future<std::string> answer;
      {
        std::unique_lock<std::mutex> lock(out_mu);
        out_nonempty.wait(lock, [&] { return out_done || !out_queue.empty(); });
        if (out_queue.empty()) return;
        answer = std::move(out_queue.front());
        out_queue.pop_front();
      }
      out_space.notify_one();
      std::cout << answer.get() << "\n" << std::flush;
    }
  });

  std::string line;
  uint64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto answered = std::make_shared<std::promise<std::string>>();
    {
      std::unique_lock<std::mutex> lock(out_mu);
      out_space.wait(lock,
                     [&] { return out_queue.size() < kMaxPendingResponses; });
      out_queue.push_back(answered->get_future());
    }
    out_nonempty.notify_one();
    Answer(ctx, server, store, TranslateServeLine(ctx, line, line_number),
           [answered](std::string response) {
             answered->set_value(std::move(response));
           });
  }

  {
    std::lock_guard<std::mutex> lock(out_mu);
    out_done = true;
  }
  out_nonempty.notify_all();
  writer.join();
  server.Stop();

  if (!args.quiet) {
    serve::ServerStats s = server.stats();
    std::cerr << "dlcirc serve: " << s.requests << " request(s), " << s.evals
              << " batched eval(s) in " << s.batches << " sweep(s) (widest "
              << s.max_batch << "), " << s.updates << " update(s), "
              << s.errors << " error(s)\n";
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage(std::cerr, 1);
  std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    return Usage(std::cout, 0);
  }
  if (command == "semirings") {
    for (const std::string& n : pipeline::SemiringNames()) std::cout << n << "\n";
    return 0;
  }
  if (command != "run" && command != "serve" && command != "explain" &&
      command != "check") {
    return Fail("unknown command `" + command + "` (try `dlcirc help`)");
  }

  Args args;
  args.explain_only = command == "explain";
  auto positive_int = [](const std::string& text, int* out) {
    try {
      size_t used = 0;
      *out = std::stoi(text, &used);
      return used == text.size() && *out >= 1;
    } catch (...) {
      return false;
    }
  };
  auto value = [&](int& i, const char* flag) -> Result<std::string> {
    if (i + 1 >= argc) {
      return Result<std::string>::Error(std::string(flag) + " needs a value");
    }
    return std::string(argv[++i]);
  };
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    Result<std::string> v = std::string();
    if (flag == "--program") {
      if (!(v = value(i, "--program")).ok()) return Fail(v.error());
      args.program_file = v.value();
    } else if (flag == "--cfg") {
      if (!(v = value(i, "--cfg")).ok()) return Fail(v.error());
      args.cfg_file = v.value();
    } else if (flag == "--grammar") {
      if (!(v = value(i, "--grammar")).ok()) return Fail(v.error());
      args.cfg_file = v.value();
      args.construction = "auto";
    } else if (flag == "--facts") {
      if (!(v = value(i, "--facts")).ok()) return Fail(v.error());
      args.facts_file = v.value();
    } else if (flag == "--graph") {
      if (!(v = value(i, "--graph")).ok()) return Fail(v.error());
      args.graph_file = v.value();
    } else if (flag == "--batch") {
      if (!(v = value(i, "--batch")).ok()) return Fail(v.error());
      args.batch_file = v.value();
    } else if (flag == "--updates") {
      if (!(v = value(i, "--updates")).ok()) return Fail(v.error());
      args.updates_file = v.value();
    } else if (flag == "--semiring") {
      if (!(v = value(i, "--semiring")).ok()) return Fail(v.error());
      args.semiring = v.value();
    } else if (flag == "--construction") {
      if (!(v = value(i, "--construction")).ok()) return Fail(v.error());
      args.construction = v.value();
    } else if (flag == "--format") {
      if (!(v = value(i, "--format")).ok()) return Fail(v.error());
      args.format = v.value();
    } else if (flag == "--query") {
      if (!(v = value(i, "--query")).ok()) return Fail(v.error());
      args.queries.push_back(v.value());
    } else if (flag == "--threads") {
      if (!(v = value(i, "--threads")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.threads)) {
        return Fail("--threads expects a positive integer, got `" + v.value() +
                    "`");
      }
    } else if (flag == "--snapshot-dir") {
      if (!(v = value(i, "--snapshot-dir")).ok()) return Fail(v.error());
      args.snapshot_dir = v.value();
    } else if (flag == "--requests") {
      if (!(v = value(i, "--requests")).ok()) return Fail(v.error());
      args.requests_file = v.value();
    } else if (flag == "--listen") {
      if (!(v = value(i, "--listen")).ok()) return Fail(v.error());
      args.listen = v.value();
    } else if (flag == "--max-conns") {
      if (!(v = value(i, "--max-conns")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.max_connections)) {
        return Fail("--max-conns expects a positive integer, got `" +
                    v.value() + "`");
      }
    } else if (flag == "--dispatchers") {
      if (!(v = value(i, "--dispatchers")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.dispatchers)) {
        return Fail("--dispatchers expects a positive integer, got `" +
                    v.value() + "`");
      }
    } else if (flag == "--max-batch") {
      if (!(v = value(i, "--max-batch")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.max_batch)) {
        return Fail("--max-batch expects a positive integer, got `" +
                    v.value() + "`");
      }
    } else if (flag == "--queue") {
      if (!(v = value(i, "--queue")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.queue_capacity)) {
        return Fail("--queue expects a positive integer, got `" + v.value() +
                    "`");
      }
    } else if (flag == "--explain-fact") {
      if (!(v = value(i, "--explain-fact")).ok()) return Fail(v.error());
      args.explain_fact = v.value();
    } else if (flag == "--explain-mode") {
      if (!(v = value(i, "--explain-mode")).ok()) return Fail(v.error());
      args.explain_mode = v.value();
    } else if (flag == "--topk") {
      if (!(v = value(i, "--topk")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.topk)) {
        return Fail("--topk expects a positive integer, got `" + v.value() +
                    "`");
      }
    } else if (flag == "--max-trees") {
      if (!(v = value(i, "--max-trees")).ok()) return Fail(v.error());
      if (!positive_int(v.value(), &args.max_trees)) {
        return Fail("--max-trees expects a positive integer, got `" +
                    v.value() + "`");
      }
    } else if (flag == "--snapshot") {
      if (!(v = value(i, "--snapshot")).ok()) return Fail(v.error());
      args.check_snapshot = v.value();
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--show-facts") {
      args.show_facts = true;
    } else if (flag == "--explain") {
      args.explain = true;
    } else if (flag == "--profile") {
      args.profile = true;
    } else if (flag == "--trace-out") {
      if (!(v = value(i, "--trace-out")).ok()) return Fail(v.error());
      args.trace_out = v.value();
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else {
      std::cerr << "dlcirc: unknown flag `" << flag << "`\n";
      return Usage(std::cerr, 1);
    }
  }
  // Observability switches, before any Session exists so parse/ground spans
  // are captured too. `serve` always enables metrics — the `stats` and
  // `metrics` ops are part of its protocol and the E16 bench puts the
  // enabled overhead within noise of disabled.
  if (command == "serve" || args.profile || !args.trace_out.empty()) {
    obs::Registry::Default().set_enabled(true);
  }
  if (!args.trace_out.empty()) {
    obs::TraceRecorder::Default().set_enabled(true);
  }
  const int code = command == "serve"   ? Serve(args)
                   : command == "check" ? Check(args)
                                        : Run(args);  // explain = Run
  if (!args.trace_out.empty()) {
    obs::TraceRecorder& rec = obs::TraceRecorder::Default();
    std::ofstream trace(args.trace_out);
    if (!trace) return Fail("cannot write " + args.trace_out);
    rec.WriteChromeTrace(trace);
    if (!args.quiet) {
      std::cerr << "dlcirc: wrote " << rec.size() << " trace span(s) to "
                << args.trace_out
                << (rec.dropped() > 0
                        ? " (" + std::to_string(rec.dropped()) + " dropped)"
                        : "")
                << "\n";
    }
  }
  return code;
}

}  // namespace
}  // namespace dlcirc

int main(int argc, char** argv) { return dlcirc::Main(argc, argv); }
