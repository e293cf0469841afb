// Chain/RPQ workloads end to end: the Section 5 dichotomy analysis
// (src/pipeline/chain_planner) classifies chain languages as finite or
// infinite, the cost-based planner picks a construction from it, and the
// picked circuits are differential-tested two ways —
//   * against the src/cflr/ Knuth oracle on the selective semirings it is
//     sound for (Boolean / Tropical / Viterbi / Fuzzy), over every vertex
//     pair of random labeled graphs — whatever the planner picks, be it
//     finite-rpq (Theorem 5.8), bellman-ford / repeated-squaring (Theorems
//     5.6/5.7), bounded or grounded — and
//   * finite-rpq against the grounded construction itself on every
//     grounded IDB fact (both run through the same Session, so this also
//     pins the finite-RPQ plan to the normal EvalPlan serving contract).
// Plus: PlanStore keying and snapshot round trips for chain plans, and the
// idempotence gate (counting rejects finite-rpq).
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/cflr/cflr.h"
#include "src/graph/generators.h"
#include "src/lang/cfg.h"
#include "src/lang/chain_datalog.h"
#include "src/pipeline/chain_planner.h"
#include "src/semiring/instances.h"
#include "src/pipeline/session.h"
#include "src/serve/plan_store.h"
#include "src/util/rng.h"
#include "tests/reference_eval.h"

namespace dlcirc {
namespace pipeline {
namespace {

// Grammar corpus, ParseCfgText syntax. First LHS is the start symbol.
constexpr char kFiniteLeftLinear[] = "S -> T b | a\nT -> U c | c\nU -> a | b";
constexpr char kFiniteGeneral[] = "S -> A b A\nA -> a | c";
constexpr char kFiniteUnit[] = "S -> A\nA -> a b | a c b";  // unit production
constexpr char kInfiniteLeftLinear[] = "T -> a | T a";      // a+ (TC-shaped)
constexpr char kInfiniteDyck[] = "S -> a b | a S b | S S";
constexpr char kAmbiguousFinite[] = "S -> A | B\nA -> a b\nB -> a b";

Cfg MustCfg(const char* text) {
  Result<Cfg> cfg = ParseCfgText(text);
  EXPECT_TRUE(cfg.ok()) << cfg.error();
  return std::move(cfg).value();
}

Session MustSession(const char* grammar, const std::string& graph_csv) {
  Result<Session> s = Session::FromCfg(MustCfg(grammar));
  EXPECT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  Result<bool> loaded = session.LoadGraphCsv(graph_csv);
  EXPECT_TRUE(loaded.ok()) << loaded.error();
  return session;
}

/// Random labeled graph whose labels are the grammar's terminal names, plus
/// the CSV rendering the Session loads. Edge i's label id is its terminal
/// id, so the graph can feed SolveCflReachability directly.
struct TestGraph {
  LabeledGraph graph{0};
  std::string csv;
};

TestGraph MakeGraph(const Cfg& cfg, uint32_t n, uint32_t m, Rng& rng) {
  TestGraph out;
  StGraph sg =
      RandomGraph(n, m, static_cast<uint32_t>(cfg.num_terminals()), rng);
  out.graph = sg.graph;
  std::ostringstream csv;
  for (const LabeledEdge& e : out.graph.edges()) {
    csv << "v" << e.src << ",v" << e.dst << ","
        << cfg.terminals().Name(e.label) << "\n";
  }
  out.csv = csv.str();
  return out;
}

template <Semiring S>
std::vector<typename S::Value> RandomEdgeValues(size_t n, Rng& rng) {
  std::vector<typename S::Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<typename S::Value, bool>) {
      out.push_back(rng.NextBool(0.8));
    } else if constexpr (std::is_same_v<typename S::Value, uint64_t>) {
      out.push_back(rng.NextBounded(20) + 1);
    } else {
      out.push_back(0.05 + 0.9 * rng.NextDouble());
    }
  }
  return out;
}

/// Equality up to floating-point association: the two constructions sum and
/// multiply the same terms in different gate orders, so double-valued
/// semirings compare within a relative epsilon.
template <Semiring S>
bool ValuesAgree(typename S::Value a, typename S::Value b) {
  if constexpr (std::is_same_v<typename S::Value, double>) {
    double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= 1e-9 * scale;
  } else {
    return S::Eq(a, b);
  }
}

/// One tagging lane in provenance-variable order from per-edge values.
template <Semiring S>
std::vector<typename S::Value> LaneFromEdges(
    const Session& session, const std::vector<typename S::Value>& edge_values) {
  std::vector<typename S::Value> lane(session.db().num_facts(), S::Zero());
  const std::vector<uint32_t>& vars = session.edge_vars();
  EXPECT_EQ(vars.size(), edge_values.size());
  for (size_t i = 0; i < edge_values.size(); ++i) {
    lane[vars[i]] = S::Plus(lane[vars[i]], edge_values[i]);
  }
  return lane;
}

/// The planner's pick vs the Knuth oracle, every vertex pair of the
/// target. Returns the construction it judged.
template <Semiring S>
Construction CheckAgainstCflr(const char* grammar, uint32_t n, uint32_t m,
                              uint64_t seed) {
  Rng rng(seed);
  Cfg cfg = MustCfg(grammar);
  TestGraph tg = MakeGraph(cfg, n, m, rng);
  Session session = MustSession(grammar, tg.csv);

  PlanKey key = PlanKey::For<S>(
      session.PlanConstruction(SemiringTraits::For<S>()).construction);
  auto compiled = session.Compile(key);
  EXPECT_TRUE(compiled.ok()) << ConstructionName(key.construction) << ": "
                             << compiled.error();
  if (!compiled.ok()) return key.construction;

  std::vector<typename S::Value> edge_values =
      RandomEdgeValues<S>(tg.graph.num_edges(), rng);
  std::vector<std::vector<typename S::Value>> lanes = {
      LaneFromEdges<S>(session, edge_values)};

  Cfg cnf = cfg.ToCnf();
  auto solved = SolveCflReachability<S>(cnf, tg.graph, edge_values);

  const std::string target =
      session.program().preds.Name(session.program().target_pred);
  for (uint32_t u = 0; u < tg.graph.num_vertices(); ++u) {
    for (uint32_t v = 0; v < tg.graph.num_vertices(); ++v) {
      Result<uint32_t> fact = session.FindFact(
          target, {"v" + std::to_string(u), "v" + std::to_string(v)});
      EXPECT_TRUE(fact.ok()) << fact.error();
      if (!fact.ok()) return key.construction;
      typename S::Value got = testing::EvaluateFacts<S>(
          compiled.value()->plan, lanes, {fact.value()})[0][0];
      auto it = solved.find(CflrKey(cnf.start(), u, v));
      typename S::Value expected =
          it == solved.end() ? S::Zero() : it->second;
      EXPECT_TRUE(ValuesAgree<S>(got, expected))
          << ConstructionName(key.construction) << " v" << u << "->v" << v
          << ": got " << S::ToString(got) << " expected "
          << S::ToString(expected) << " (seed " << seed << ")";
    }
  }
  return key.construction;
}

/// Finite-RPQ vs grounded construction on EVERY grounded IDB fact (not just
/// the target predicate) through the same session.
template <Semiring S>
void CheckFiniteMatchesGrounded(const char* grammar, uint32_t n, uint32_t m,
                                uint64_t seed) {
  Rng rng(seed);
  Cfg cfg = MustCfg(grammar);
  TestGraph tg = MakeGraph(cfg, n, m, rng);
  Session session = MustSession(grammar, tg.csv);
  const Result<ChainRoute>& chain = session.planner_context().chain;
  ASSERT_TRUE(chain.ok()) << chain.error();
  ASSERT_TRUE(chain.value().finite) << chain.value().reason;

  std::vector<std::vector<typename S::Value>> lanes = {LaneFromEdges<S>(
      session, RandomEdgeValues<S>(tg.graph.num_edges(), rng))};
  std::vector<uint32_t> all_facts;
  // grounded() requires the EDB; it also fixes the fact-id space both
  // constructions share.
  for (uint32_t i = 0; i < session.grounded().num_idb_facts(); ++i) {
    all_facts.push_back(i);
  }
  ASSERT_FALSE(all_facts.empty());

  auto fine = testing::EvaluateFacts<S>(
      session, PlanKey::For<S>(Construction::kFiniteRpq), lanes, all_facts);
  ASSERT_TRUE(fine.ok()) << fine.error();
  auto coarse = testing::EvaluateFacts<S>(
      session, PlanKey::For<S>(Construction::kGrounded), lanes, all_facts);
  ASSERT_TRUE(coarse.ok()) << coarse.error();
  for (size_t i = 0; i < all_facts.size(); ++i) {
    EXPECT_TRUE(ValuesAgree<S>(fine.value()[0][i], coarse.value()[0][i]))
        << session.FactName(all_facts[i]) << ": finite-rpq "
        << S::ToString(fine.value()[0][i]) << " vs grounded "
        << S::ToString(coarse.value()[0][i]) << " (seed " << seed << ")";
  }
}

TEST(ChainPlannerTest, RoutesFiniteAndInfiniteLanguages) {
  for (const char* finite :
       {kFiniteLeftLinear, kFiniteGeneral, kFiniteUnit, kAmbiguousFinite}) {
    Result<ChainRoute> route =
        PlanChainRoute(CfgToChainProgram(MustCfg(finite)));
    ASSERT_TRUE(route.ok()) << route.error();
    EXPECT_TRUE(route.value().finite) << finite << ": " << route.value().reason;
    EXPECT_FALSE(route.value().pred_langs.empty());
    EXPECT_GT(route.value().longest_word, 0u);
  }
  for (const char* infinite : {kInfiniteLeftLinear, kInfiniteDyck}) {
    Result<ChainRoute> route =
        PlanChainRoute(CfgToChainProgram(MustCfg(infinite)));
    ASSERT_TRUE(route.ok()) << route.error();
    EXPECT_FALSE(route.value().finite) << infinite;
    EXPECT_NE(route.value().reason.find("infinite"), std::string::npos)
        << route.value().reason;
  }
  // Left-linear programs take the NFA/DFA decision path.
  Result<ChainRoute> ll =
      PlanChainRoute(CfgToChainProgram(MustCfg(kFiniteLeftLinear)));
  EXPECT_TRUE(ll.value().left_linear);
  Result<ChainRoute> gen =
      PlanChainRoute(CfgToChainProgram(MustCfg(kFiniteGeneral)));
  EXPECT_FALSE(gen.value().left_linear);
}

TEST(ChainPlannerTest, PlannerCapsFallBackToGrounded) {
  // 2^12 words of length 12: over the 16-word cap => grounded, not an error.
  std::string big = "S ->";
  for (int i = 0; i < 12; ++i) big += " A";
  big += "\nA -> a | b";
  ChainPlannerOptions tight;
  tight.max_words = 16;
  Result<ChainRoute> route =
      PlanChainRoute(CfgToChainProgram(MustCfg(big.c_str())), tight);
  ASSERT_TRUE(route.ok()) << route.error();
  EXPECT_FALSE(route.value().finite);
  EXPECT_NE(route.value().reason.find("cap"), std::string::npos)
      << route.value().reason;

  ChainPlannerOptions short_words;
  short_words.max_word_length = 4;
  Result<ChainRoute> capped =
      PlanChainRoute(CfgToChainProgram(MustCfg(big.c_str())), short_words);
  ASSERT_TRUE(capped.ok());
  EXPECT_FALSE(capped.value().finite);
}

TEST(ChainRouteTest, NonIdempotentKeyIsRejected) {
  Rng rng(11);
  Cfg cfg = MustCfg(kFiniteGeneral);
  TestGraph tg = MakeGraph(cfg, 6, 14, rng);
  Session session = MustSession(kFiniteGeneral, tg.csv);
  auto compiled =
      session.Compile(PlanKey::For<CountingSemiring>(Construction::kFiniteRpq));
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().find("idempotent"), std::string::npos)
      << compiled.error();
}

TEST(ChainRouteTest, InfiniteLanguageKeyIsRejected) {
  Session session = MustSession(kInfiniteDyck, "v0,v1,a\nv1,v2,b\n");
  auto compiled =
      session.Compile(PlanKey::For<BooleanSemiring>(Construction::kFiniteRpq));
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.error().find("infinite"), std::string::npos)
      << compiled.error();
}

TEST(ChainRouteDifferentialTest, FiniteRoutesMatchCflrOracle) {
  uint64_t seed = 20260731;
  for (const char* grammar : {kFiniteLeftLinear, kFiniteGeneral, kFiniteUnit}) {
    CheckAgainstCflr<BooleanSemiring>(grammar, 8, 22, seed++);
    CheckAgainstCflr<TropicalSemiring>(grammar, 8, 22, seed++);
    CheckAgainstCflr<ViterbiSemiring>(grammar, 8, 22, seed++);
    CheckAgainstCflr<FuzzySemiring>(grammar, 8, 22, seed++);
  }
}

TEST(ChainRouteDifferentialTest, InfiniteRoutesMatchCflrOracle) {
  // No finite-RPQ route here: the planner picks among grounded and, on the
  // TC-shaped a+ (absorptive semirings), the Theorem 5.6/5.7 path
  // constructions; the oracle judges every pick.
  uint64_t seed = 999101;
  std::vector<Construction> picks;
  for (const char* grammar : {kInfiniteLeftLinear, kInfiniteDyck}) {
    picks.push_back(CheckAgainstCflr<BooleanSemiring>(grammar, 7, 16, seed++));
    picks.push_back(CheckAgainstCflr<TropicalSemiring>(grammar, 7, 16, seed++));
    picks.push_back(CheckAgainstCflr<ViterbiSemiring>(grammar, 7, 16, seed++));
    picks.push_back(CheckAgainstCflr<FuzzySemiring>(grammar, 7, 16, seed++));
  }
  // The Theorem 5.6/5.7 coverage is real only if one of them was picked.
  EXPECT_TRUE(std::any_of(picks.begin(), picks.end(), [](Construction c) {
    return c == Construction::kBellmanFord ||
           c == Construction::kRepeatedSquaring;
  }));
}

TEST(ChainRouteDifferentialTest, FiniteMatchesGroundedOnAllIdbFacts) {
  uint64_t seed = 606060;
  for (const char* grammar :
       {kFiniteLeftLinear, kFiniteGeneral, kFiniteUnit, kAmbiguousFinite}) {
    CheckFiniteMatchesGrounded<BooleanSemiring>(grammar, 8, 24, seed++);
    CheckFiniteMatchesGrounded<TropicalSemiring>(grammar, 8, 24, seed++);
    CheckFiniteMatchesGrounded<ViterbiSemiring>(grammar, 8, 24, seed++);
    CheckFiniteMatchesGrounded<FuzzySemiring>(grammar, 8, 24, seed++);
  }
}

TEST(ChainRouteTest, PlanCacheKeysFiniteAndGroundedSeparately) {
  Rng rng(77);
  Cfg cfg = MustCfg(kFiniteLeftLinear);
  TestGraph tg = MakeGraph(cfg, 6, 15, rng);
  Session session = MustSession(kFiniteLeftLinear, tg.csv);
  serve::PlanStore store;
  auto a = store.GetOrCompile(
      session, PlanKey::For<BooleanSemiring>(Construction::kFiniteRpq));
  auto b = store.GetOrCompile(
      session, PlanKey::For<BooleanSemiring>(Construction::kGrounded));
  auto c = store.GetOrCompile(
      session, PlanKey::For<BooleanSemiring>(Construction::kFiniteRpq));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a.value().get(), b.value().get());
  EXPECT_EQ(a.value().get(), c.value().get());  // store hit
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().compiles, 2u);
}

TEST(ChainRouteTest, ChainPlansSnapshotRoundTrip) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "dlcirc_chain_snapshot_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  Rng rng(314);
  Cfg cfg = MustCfg(kFiniteGeneral);
  TestGraph tg = MakeGraph(cfg, 7, 18, rng);
  std::vector<typename TropicalSemiring::Value> edge_values =
      RandomEdgeValues<TropicalSemiring>(tg.graph.num_edges(), rng);
  PlanKey key = PlanKey::For<TropicalSemiring>(Construction::kFiniteRpq);

  std::vector<std::vector<uint64_t>> cold_results, warm_results;
  uint64_t loads = 0, saves = 0;
  for (int round = 0; round < 2; ++round) {
    Session session = MustSession(kFiniteGeneral, tg.csv);
    serve::PlanStore store(dir.string());
    auto compiled = store.GetOrCompile(session, key);
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    std::vector<std::vector<uint64_t>> lanes = {
        LaneFromEdges<TropicalSemiring>(session, edge_values)};
    // Evaluated through the store's plan: compiled in round 0, loaded off
    // the snapshot in round 1.
    (round == 0 ? cold_results : warm_results) =
        testing::EvaluateFacts<TropicalSemiring>(compiled.value()->plan, lanes,
                                                 session.TargetFacts());
    loads = store.stats().snapshot_loads;
    saves = store.stats().snapshot_saves;
  }
  // Round 1 compiled cold and persisted; round 2 warm-started off disk.
  EXPECT_EQ(saves, 0u);
  EXPECT_EQ(loads, 1u);
  EXPECT_EQ(cold_results, warm_results);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pipeline
}  // namespace dlcirc
