// Tests for src/pipeline: Session results must match the hand-wired
// examples/quickstart.cc path (ground -> construct -> optimize -> compile ->
// batch-evaluate) across semirings, repeated requests must share one plan
// through the PlanStore (Session::Compile itself caches nothing), and the
// text input formats (CFG grammars, graph CSV, tagging CSV) must round-trip
// and reject malformed input. The CLI built on this API has its own golden
// smoke tests registered from CMakeLists.txt.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/constructions/grounded_circuit.h"
#include "src/datalog/engine.h"
#include "src/datalog/parser.h"
#include "src/eval/batch.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/lang/cfg.h"
#include "src/pipeline/io.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/serve/plan_store.h"
#include "src/util/rng.h"
#include "tests/reference_eval.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace {

using pipeline::Construction;
using pipeline::PlanKey;
using pipeline::Session;

constexpr const char* kFig1Facts = R"(
E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). E(v2,t).
)";

Session MakeFig1Session() {
  Result<Session> s = Session::FromDatalog(testing::kTcText);
  EXPECT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  Result<bool> loaded = session.LoadFactsText(kFig1Facts);
  EXPECT_TRUE(loaded.ok()) << loaded.error();
  return session;
}

template <Semiring S>
std::vector<std::vector<typename S::Value>> RandomTaggings(Rng& rng,
                                                           uint32_t num_vars,
                                                           size_t lanes) {
  std::vector<std::vector<typename S::Value>> out(lanes);
  for (auto& lane : out) {
    lane.reserve(num_vars);
    for (uint32_t v = 0; v < num_vars; ++v) lane.push_back(S::RandomValue(rng));
  }
  return out;
}

// The acceptance contract: Session::Compile's plan agrees with the hand-wired
// quickstart path (Ground -> GroundedProgramCircuit -> OptimizeForEval ->
// EvalPlan::Build -> EvaluateBatch) AND with the engine fixpoint, per lane.
template <Semiring S>
void ExpectSessionMatchesHandWired() {
  SCOPED_TRACE(S::Name());
  Session session = MakeFig1Session();
  Rng rng(7);
  auto taggings = RandomTaggings<S>(rng, session.db().num_facts(), 5);

  Result<uint32_t> fact = session.FindFact("T", {"s", "t"});
  ASSERT_TRUE(fact.ok()) << fact.error();
  ASSERT_NE(fact.value(), Session::kNotFound);
  auto got = testing::EvaluateFacts<S>(session, PlanKey::For<S>(), taggings,
                                       {fact.value()});
  ASSERT_TRUE(got.ok()) << got.error();

  // Hand-wired path, exactly as examples/quickstart.cc composes the layers.
  Program program = ParseProgram(testing::kTcText).value();
  Database db = ParseFacts(program, kFig1Facts).value();
  GroundedProgram g = Ground(program, db);
  uint32_t raw_fact = g.FindIdbFact(
      program.target_pred, {db.domain().Find("s"), db.domain().Find("t")});
  ASSERT_EQ(raw_fact, fact.value());
  GroundedCircuitResult built = GroundedProgramCircuit(g);
  eval::PassOptions pass_options;
  pass_options.plus_idempotent = S::kIsIdempotent;
  pass_options.absorptive = S::kIsAbsorptive;
  eval::PipelineResult opt = eval::OptimizeForEval(built.circuit, pass_options);
  eval::EvalPlan plan = eval::EvalPlan::Build(opt.circuit);
  eval::Evaluator evaluator;
  auto expected = eval::EvaluateBatch<S>(evaluator, plan, taggings);

  // The explicit return type matters: vector<bool>::operator[] returns a
  // proxy into the temporary EvalResult, which must not outlive it.
  auto engine_fixpoint =
      [&](const std::vector<typename S::Value>& lane) -> typename S::Value {
    return NaiveEvaluate<S>(g, lane).values[raw_fact];
  };
  for (size_t b = 0; b < taggings.size(); ++b) {
    EXPECT_TRUE(S::Eq(got.value()[b][0], expected[b][raw_fact]))
        << "lane " << b << ": session " << S::ToString(got.value()[b][0])
        << " vs hand-wired " << S::ToString(expected[b][raw_fact]);
    EXPECT_TRUE(S::Eq(got.value()[b][0], engine_fixpoint(taggings[b])))
        << "lane " << b << " disagrees with the engine fixpoint: session "
        << S::ToString(got.value()[b][0]) << " vs engine "
        << S::ToString(engine_fixpoint(taggings[b]));
  }
}

TEST(SessionParityTest, MatchesHandWiredQuickstartPath) {
  ExpectSessionMatchesHandWired<BooleanSemiring>();
  ExpectSessionMatchesHandWired<TropicalSemiring>();
  ExpectSessionMatchesHandWired<ViterbiSemiring>();
  ExpectSessionMatchesHandWired<FuzzySemiring>();
  ExpectSessionMatchesHandWired<CapacitySemiring>();
}

TEST(SessionParityTest, QuickstartGoldenValue) {
  // The quickstart's Tropical run: edge i weighs i+1, min s-t path = 10.
  Session session = MakeFig1Session();
  std::vector<uint64_t> weights;
  for (uint32_t v = 0; v < session.db().num_facts(); ++v) weights.push_back(v + 1);
  uint32_t fact = session.FindFact("T", {"s", "t"}).value();
  auto got = testing::EvaluateFacts<TropicalSemiring>(
      session, PlanKey::For<TropicalSemiring>(), {weights}, {fact});
  ASSERT_TRUE(got.ok()) << got.error();
  EXPECT_EQ(got.value()[0][0], 10u);
}

TEST(PlanSharingTest, RepeatedRequestsShareOnePlanThroughThePlanStore) {
  Session session = MakeFig1Session();
  serve::PlanStore store;
  PlanKey key = PlanKey::For<TropicalSemiring>();

  auto first = store.GetOrCompile(session, key);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(store.stats().compiles, 1u);
  EXPECT_EQ(store.stats().hits, 0u);

  // The serving path: every request after the first compile is a hit on
  // the one shared plan.
  for (int i = 0; i < 3; ++i) {
    auto again = store.GetOrCompile(session, key);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), first.value().get()) << "plan not shared";
  }
  EXPECT_EQ(store.stats().hits, 3u);
  EXPECT_EQ(store.stats().compiles, 1u);

  // The store is the only cache: Session::Compile builds a fresh plan.
  auto fresh = session.Compile(key);
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  EXPECT_NE(fresh.value().get(), first.value().get());

  // A different construction is a different plan, compiled once.
  auto uvg = store.GetOrCompile(
      session, PlanKey::For<TropicalSemiring>(Construction::kUvg));
  ASSERT_TRUE(uvg.ok()) << uvg.error();
  EXPECT_NE(uvg.value().get(), first.value().get());
  EXPECT_EQ(store.stats().compiles, 2u);
}

TEST(SessionConstructionTest, UvgAgreesWithGroundedOnDyck) {
  Result<Session> s = Session::FromDatalog(testing::kDyckText);
  ASSERT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  // Word path L L R R L R: balanced, so S(n0,n6) is derivable.
  ASSERT_TRUE(session
                  .LoadGraphCsv("n0,n1,L\nn1,n2,L\nn2,n3,R\nn3,n4,R\n"
                                "n4,n5,L\nn5,n6,R\n")
                  .ok());
  Rng rng(11);
  auto taggings =
      RandomTaggings<TropicalSemiring>(rng, session.db().num_facts(), 4);
  std::vector<uint32_t> facts = session.TargetFacts();
  ASSERT_FALSE(facts.empty());
  auto grounded = testing::EvaluateFacts<TropicalSemiring>(
      session, PlanKey::For<TropicalSemiring>(), taggings, facts);
  auto uvg = testing::EvaluateFacts<TropicalSemiring>(
      session, PlanKey::For<TropicalSemiring>(Construction::kUvg), taggings,
      facts);
  ASSERT_TRUE(grounded.ok());
  ASSERT_TRUE(uvg.ok()) << uvg.error();
  for (size_t b = 0; b < taggings.size(); ++b) {
    for (size_t i = 0; i < facts.size(); ++i) {
      EXPECT_EQ(grounded.value()[b][i], uvg.value()[b][i])
          << "lane " << b << ", fact " << session.FactName(facts[i]);
    }
  }
}

TEST(SessionConstructionTest, UvgRejectsNonAbsorptiveSemirings) {
  Session session = MakeFig1Session();
  auto r = session.Compile(PlanKey::For<CountingSemiring>(Construction::kUvg));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("absorptive"), std::string::npos) << r.error();
}

TEST(SessionConstructionTest, NonAbsorptiveSemiringOnNonRecursiveProgram) {
  // Counting two-hop paths: non-recursive, so the grounded construction is
  // exact over ANY semiring (Proposition 3.7) and must match the fixpoint.
  Result<Session> s = Session::FromDatalog(R"(
@target P.
P(X,Z) :- E(X,Y), E(Y,Z).
)");
  ASSERT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  ASSERT_TRUE(session.LoadFactsText("E(a,b). E(b,c). E(a,d). E(d,c).").ok());
  std::vector<std::vector<uint64_t>> lanes = {{1, 1, 1, 1}, {2, 3, 4, 5}};
  uint32_t fact = session.FindFact("P", {"a", "c"}).value();
  ASSERT_NE(fact, Session::kNotFound);
  auto got = testing::EvaluateFacts<CountingSemiring>(
      session, PlanKey::For<CountingSemiring>(), lanes, {fact});
  ASSERT_TRUE(got.ok()) << got.error();
  // Two derivations a-b-c and a-d-c: 1*1 + 1*1 = 2 and 2*3 + 4*5 = 26.
  EXPECT_EQ(got.value()[0][0], 2u);
  EXPECT_EQ(got.value()[1][0], 26u);
}

TEST(SessionCfgTest, CfgWorkloadMatchesEquivalentDatalog) {
  Result<Cfg> cfg = ParseCfgText(R"(
S -> L R | L S R
S -> S S
)");
  ASSERT_TRUE(cfg.ok()) << cfg.error();
  Result<Session> from_cfg = Session::FromCfg(cfg.value());
  ASSERT_TRUE(from_cfg.ok()) << from_cfg.error();
  Result<Session> from_dl = Session::FromDatalog(testing::kDyckText);
  ASSERT_TRUE(from_dl.ok()) << from_dl.error();

  const std::string graph = "n0,n1,L\nn1,n2,R\nn2,n3,L\nn3,n4,R\n";
  Session a = std::move(from_cfg).value();
  Session b = std::move(from_dl).value();
  ASSERT_TRUE(a.LoadGraphCsv(graph).ok());
  ASSERT_TRUE(b.LoadGraphCsv(graph).ok());
  std::vector<std::vector<bool>> lane = {
      std::vector<bool>(a.db().num_facts(), true)};
  for (const char* query : {"n0,n2", "n0,n4", "n1,n3", "n0,n3"}) {
    std::string from = std::string(query).substr(0, 2);
    std::string to = std::string(query).substr(3);
    uint32_t fa = a.FindFact("S", {from, to}).value();
    uint32_t fb = b.FindFact("S", {from, to}).value();
    auto ra = testing::EvaluateFacts<BooleanSemiring>(
        a, PlanKey::For<BooleanSemiring>(), lane, {fa});
    auto rb = testing::EvaluateFacts<BooleanSemiring>(
        b, PlanKey::For<BooleanSemiring>(), lane, {fb});
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra.value()[0][0], rb.value()[0][0]) << "S(" << query << ")";
  }
}

TEST(ParseCfgTextTest, RejectsMalformedGrammars) {
  EXPECT_FALSE(ParseCfgText("").ok());
  EXPECT_FALSE(ParseCfgText("S L R").ok());            // missing arrow
  EXPECT_FALSE(ParseCfgText("S -> L |").ok());         // empty alternative
  EXPECT_FALSE(ParseCfgText("S -> ").ok());            // epsilon
  EXPECT_FALSE(ParseCfgText("S -> a(b)").ok());        // bad symbol
  Result<Cfg> ok = ParseCfgText("% comment\nS -> a b\n");
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.value().num_nonterminals(), 1u);
  EXPECT_EQ(ok.value().num_terminals(), 2u);
}

TEST(GraphCsvTest, PreservesVertexNamesAndValidatesLabels) {
  Program program = ParseProgram(testing::kTcText).value();
  auto ok = pipeline::ParseGraphCsv("alice,bob\nbob,carol\n", program);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok.value().vertex_names,
            (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_EQ(ok.value().label_preds, std::vector<std::string>{"E"});

  EXPECT_FALSE(pipeline::ParseGraphCsv("a,b,NoSuchPred\n", program).ok());
  EXPECT_FALSE(pipeline::ParseGraphCsv("a,b,T\n", program).ok());  // IDB label
  EXPECT_FALSE(pipeline::ParseGraphCsv("a\n", program).ok());
  EXPECT_FALSE(pipeline::ParseGraphCsv("% only comments\n", program).ok());

  // Ambiguous unlabeled edges: two binary EDB predicates.
  Program two = ParseProgram("@target S.\nS(X,Y) :- L(X,Z), R(Z,Y).").value();
  EXPECT_FALSE(pipeline::ParseGraphCsv("a,b\n", two).ok());
  EXPECT_TRUE(pipeline::ParseGraphCsv("a,b,L\nb,c,R\n", two).ok());
}

TEST(TagCsvTest, ParsesSemiringValuesAndRejectsBadLanes) {
  auto lanes = pipeline::ParseTagCsv<TropicalSemiring>("1, 2 ,inf\n4,5,6\n", 3);
  ASSERT_TRUE(lanes.ok()) << lanes.error();
  EXPECT_EQ(lanes.value()[0],
            (std::vector<uint64_t>{1, 2, TropicalSemiring::kInf}));
  EXPECT_EQ(lanes.value()[1], (std::vector<uint64_t>{4, 5, 6}));

  EXPECT_FALSE(pipeline::ParseTagCsv<TropicalSemiring>("1,2\n", 3).ok());
  EXPECT_FALSE(pipeline::ParseTagCsv<TropicalSemiring>("1,2,-3\n", 3).ok());
  EXPECT_FALSE(pipeline::ParseTagCsv<TropicalSemiring>("", 3).ok());
  auto bools = pipeline::ParseTagCsv<BooleanSemiring>("true,0,1\n", 3);
  ASSERT_TRUE(bools.ok());
  EXPECT_EQ(bools.value()[0], (std::vector<bool>{true, false, true}));
  auto arctic = pipeline::ParseTagCsv<ArcticSemiring>("-inf,0,7\n", 3);
  ASSERT_TRUE(arctic.ok());
  EXPECT_EQ(arctic.value()[0][0], ArcticSemiring::kNegInf);
  // Identity tokens only parse when the semiring itself renders them:
  // "inf" is not an Arctic or Counting element (it would overflow Times).
  EXPECT_FALSE(pipeline::ParseTagCsv<ArcticSemiring>("inf,0,7\n", 3).ok());
  EXPECT_FALSE(pipeline::ParseTagCsv<CountingSemiring>("inf,0,7\n", 3).ok());
  auto capacity = pipeline::ParseTagCsv<CapacitySemiring>("inf,0,7\n", 3);
  ASSERT_TRUE(capacity.ok());
  EXPECT_EQ(capacity.value()[0][0], CapacitySemiring::kInf);
}

TEST(SessionErrorTest, QueryAndLoadErrors) {
  Session session = MakeFig1Session();
  EXPECT_FALSE(session.LoadFactsText("E(x,y).").ok()) << "double load";

  EXPECT_FALSE(session.FindFact("Nope", {"s"}).ok());
  EXPECT_FALSE(session.FindFact("E", {"s", "t"}).ok()) << "EDB predicate";
  EXPECT_FALSE(session.FindFact("T", {"s"}).ok()) << "arity";
  // Unknown constants / non-derivable facts are not errors: provenance 0.
  EXPECT_EQ(session.FindFact("T", {"s", "nowhere"}).value(), Session::kNotFound);
  EXPECT_EQ(session.FindFact("T", {"t", "s"}).value(), Session::kNotFound);
}

// Collision sanity for the plan-cache hash. The pre-fix hash combined
// fields with shifted XOR (`construction << 34 ^ ... ^ max_layers`), which
// (a) vanishes entirely above bit 31 on 32-bit size_t, making every
// (construction, flags) combination collide, and (b) leaves max_layers
// verbatim in the low bits, the only bits a small hash table consumes. The
// splitmix-based hash must spread a dense enumeration of keys with no
// collisions even when truncated to 32 bits (deterministic enumeration, so
// this is a fixed property of the hash function, not a probabilistic test).
TEST(PlanKeyHashTest, DenseKeyEnumerationHasNoCollisions) {
  pipeline::PlanKeyHash hash;
  std::unordered_set<uint64_t> full;
  std::unordered_set<uint32_t> low32;
  size_t keys = 0;
  for (uint32_t ci = 0; ci < pipeline::kNumConstructions; ++ci) {
    for (int pi = 0; pi < 2; ++pi) {
      for (int ab = 0; ab < 2; ++ab) {
        for (int ti = 0; ti < 2; ++ti) {
          for (uint32_t layers = 0; layers < 256; ++layers) {
            pipeline::PlanKey key{static_cast<Construction>(ci), pi != 0,
                                  ab != 0, ti != 0, layers};
            uint64_t h = hash(key);
            full.insert(h);
            low32.insert(static_cast<uint32_t>(h));
            ++keys;
          }
        }
      }
    }
  }
  EXPECT_EQ(full.size(), keys);
  EXPECT_EQ(low32.size(), keys)
      << "hash collides in the low 32 bits, which is all a small "
         "unordered_map bucket count ever sees";
}

// The specific pre-fix failure mode: keys identical up to the flag bits
// must not collide once truncated to 32 bits.
TEST(PlanKeyHashTest, FlagBitsSurvive32BitTruncation) {
  pipeline::PlanKeyHash hash;
  for (uint32_t layers : {0u, 1u, 7u, 4096u}) {
    pipeline::PlanKey a{Construction::kGrounded, false, false, false, layers};
    pipeline::PlanKey b{Construction::kGrounded, true, false, false, layers};
    pipeline::PlanKey c{Construction::kGrounded, true, true, false, layers};
    pipeline::PlanKey d{Construction::kUvg, true, true, false, layers};
    pipeline::PlanKey e{Construction::kBounded, true, true, true, layers};
    pipeline::PlanKey f{Construction::kBounded, true, true, false, layers};
    EXPECT_NE(static_cast<uint32_t>(hash(a)), static_cast<uint32_t>(hash(b)));
    EXPECT_NE(static_cast<uint32_t>(hash(b)), static_cast<uint32_t>(hash(c)));
    EXPECT_NE(static_cast<uint32_t>(hash(c)), static_cast<uint32_t>(hash(d)));
    EXPECT_NE(static_cast<uint32_t>(hash(a)), static_cast<uint32_t>(hash(d)));
    EXPECT_NE(static_cast<uint32_t>(hash(e)), static_cast<uint32_t>(hash(f)));
  }
}

TEST(SemiringRegistryTest, DispatchCoversEveryInstance) {
  for (const std::string& name : pipeline::SemiringNames()) {
    std::string reported;
    bool known = pipeline::DispatchSemiring(
        name, [&]<Semiring S>() { reported = S::Name(); });
    EXPECT_TRUE(known) << name;
    EXPECT_FALSE(reported.empty()) << name;
  }
  EXPECT_FALSE(pipeline::DispatchSemiring("nope", []<Semiring S>() {}));
}

}  // namespace
}  // namespace dlcirc
