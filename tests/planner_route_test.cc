// The cost-based planner (src/pipeline/planner) end to end:
//
//   * property-style differential tests — random chain / bounded / dense /
//     sparse instances; for every semiring the planner-chosen construction
//     AND every other applicable candidate must agree with the forced
//     grounded construction (Theorem 3.1, the oracle) on every grounded IDB
//     fact;
//   * route pinning — the workloads the cost model was designed around land
//     on the intended construction (sparse TC -> Bellman-Ford, dense TC ->
//     repeated squaring, Example 4.2 over Chom -> bounded, reachability ->
//     UVG, finite chain -> finite-RPQ, counting -> grounded);
//   * Compile gates — forcing an inapplicable construction is an error,
//     not a wrong answer;
//   * PlanKey normalization — times_idempotent is keyed for kBounded only,
//     so cross-semiring plan sharing survives for every other construction.
//
// Reproducibility: every randomized case derives its seed from a base and
// prints it via SCOPED_TRACE. DLCIRC_PLANNER_SEED=<seed> moves the sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/pipeline/planner.h"
#include "src/pipeline/semiring_registry.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "src/serve/plan_store.h"
#include "src/util/rng.h"
#include "tests/reference_eval.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace pipeline {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 0);
}

uint64_t BaseSeed() { return EnvOr("DLCIRC_PLANNER_SEED", 20260807); }

Session MustSession(const char* program, const std::string& facts) {
  Result<Session> s = Session::FromDatalog(program);
  EXPECT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  Result<bool> loaded = session.LoadFactsText(facts);
  EXPECT_TRUE(loaded.ok()) << loaded.error();
  return session;
}

/// Random instance generators, one per program shape. Each returns the
/// facts text for MustSession; vertices are named v0..v{n-1}.

std::string RandomEdgeFacts(const char* pred, uint32_t n, uint32_t m,
                            Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i < m; ++i) {
    uint32_t u = rng.NextBounded(n), v = rng.NextBounded(n);
    out << pred << "(v" << u << ",v" << v << "). ";
  }
  return out.str();
}

/// Complete DAG on n vertices: the dense, diagonal-free TC instance the
/// repeated-squaring route is built for.
std::string CompleteDagFacts(uint32_t n) {
  std::ostringstream out;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      out << "E(v" << i << ",v" << j << "). ";
    }
  }
  return out.str();
}

/// Example 4.2 instance: an E-chain plus random A-guards.
std::string BoundedFacts(uint32_t n, Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    out << "E(v" << i << ",v" << i + 1 << "). ";
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.4)) out << "A(v" << i << "). ";
  }
  out << "A(v0). ";  // at least one guard
  return out.str();
}

/// Reachability instance: random edges plus random A-sources.
std::string ReachFacts(uint32_t n, uint32_t m, Rng& rng) {
  std::ostringstream out;
  out << RandomEdgeFacts("E", n, m, rng);
  out << "A(v" << rng.NextBounded(n) << "). A(v" << rng.NextBounded(n)
      << "). ";
  return out.str();
}

/// Two-label chain instance for kFiniteChainText ({a, ab}).
std::string TwoLabelFacts(uint32_t n, uint32_t m, Rng& rng) {
  std::ostringstream out;
  for (uint32_t i = 0; i < m; ++i) {
    out << (rng.NextBool(0.5) ? "A" : "B") << "(v" << rng.NextBounded(n)
        << ",v" << rng.NextBounded(n) << "). ";
  }
  out << "A(v0,v1). ";  // the target language is non-empty
  return out.str();
}

template <Semiring S>
std::vector<typename S::Value> RandomTagging(Rng& rng, uint32_t num_vars) {
  std::vector<typename S::Value> lane;
  lane.reserve(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) lane.push_back(S::RandomValue(rng));
  return lane;
}

/// Equality up to floating-point association (the constructions reassociate
/// sums and products).
template <Semiring S>
bool ValuesAgree(typename S::Value a, typename S::Value b) {
  if constexpr (std::is_same_v<typename S::Value, double>) {
    double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= 1e-9 * scale;
  } else {
    return S::Eq(a, b);
  }
}

/// The differential core for one (session, semiring): the planner's chosen
/// construction and EVERY other applicable candidate must match the forced
/// grounded construction on all grounded IDB facts, over random taggings.
template <Semiring S>
void CheckRoutesMatchGrounded(Session& session, uint64_t seed) {
  SCOPED_TRACE(std::string(S::Name()) + " seed " + std::to_string(seed) +
               " — reproduce with DLCIRC_PLANNER_SEED=" +
               std::to_string(seed));
  Rng rng(seed);
  const uint32_t num_facts = session.db().num_facts();
  std::vector<std::vector<typename S::Value>> lanes = {
      RandomTagging<S>(rng, num_facts), RandomTagging<S>(rng, num_facts)};
  std::vector<uint32_t> all_facts;
  for (uint32_t i = 0; i < session.grounded().num_idb_facts(); ++i) {
    all_facts.push_back(i);
  }
  ASSERT_FALSE(all_facts.empty());

  auto oracle = testing::EvaluateFacts<S>(
      session, PlanKey::For<S>(Construction::kGrounded), lanes, all_facts);
  ASSERT_TRUE(oracle.ok()) << oracle.error();

  RouteDecision decision = session.PlanConstruction(SemiringTraits::For<S>());
  ASSERT_EQ(decision.candidates.size(), kNumConstructions);
  bool winner_listed = false;
  for (const PlanCandidate& cand : decision.candidates) {
    if (cand.construction == decision.construction) {
      winner_listed = true;
      EXPECT_TRUE(cand.applicable) << cand.reason;
    }
    if (!cand.applicable) continue;
    SCOPED_TRACE("route " + std::string(ConstructionName(cand.construction)));
    auto got = testing::EvaluateFacts<S>(
        session, PlanKey::For<S>(cand.construction), lanes, all_facts);
    ASSERT_TRUE(got.ok()) << got.error();
    for (size_t b = 0; b < lanes.size(); ++b) {
      for (size_t i = 0; i < all_facts.size(); ++i) {
        ASSERT_TRUE(
            ValuesAgree<S>(got.value()[b][i], oracle.value()[b][i]))
            << session.FactName(all_facts[i]) << " lane " << b << ": "
            << ConstructionName(cand.construction) << " "
            << S::ToString(got.value()[b][i]) << " vs grounded "
            << S::ToString(oracle.value()[b][i]);
      }
    }
  }
  EXPECT_TRUE(winner_listed);
}

/// Runs the differential core over every registered semiring (all nine).
void CheckAllSemirings(Session& session, uint64_t seed) {
  size_t covered = 0;
  for (const std::string& name : SemiringNames()) {
    bool known = DispatchSemiring(name, [&]<Semiring S>() {
      CheckRoutesMatchGrounded<S>(session, seed);
      ++covered;
    });
    EXPECT_TRUE(known) << name;
    if (::testing::Test::HasFailure()) return;  // one seed is enough to debug
  }
  EXPECT_EQ(covered, SemiringNames().size());
  EXPECT_EQ(covered, 9u) << "the nine-semiring contract changed";
}

TEST(PlannerDifferentialTest, SparseChainInstances) {
  const uint64_t base = BaseSeed();
  for (uint64_t i = 0; i < 3; ++i) {
    Rng rng(base + i);
    Session session =
        MustSession(testing::kTcText, RandomEdgeFacts("E", 8, 12, rng));
    CheckAllSemirings(session, base + i);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PlannerDifferentialTest, DenseChainInstances) {
  const uint64_t base = BaseSeed() + 1000;
  for (uint64_t i = 0; i < 2; ++i) {
    Rng rng(base + i);
    Session session =
        MustSession(testing::kTcText, RandomEdgeFacts("E", 6, 26, rng));
    CheckAllSemirings(session, base + i);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PlannerDifferentialTest, CompleteDagInstances) {
  // Diagonal-free dense instances: the only shape where repeated squaring
  // is both applicable and the winner.
  const uint64_t base = BaseSeed() + 2000;
  Session session = MustSession(testing::kTcText, CompleteDagFacts(9));
  CheckAllSemirings(session, base);
}

TEST(PlannerDifferentialTest, BoundedInstances) {
  const uint64_t base = BaseSeed() + 3000;
  for (uint64_t i = 0; i < 3; ++i) {
    Rng rng(base + i);
    Session session =
        MustSession(testing::kBoundedText, BoundedFacts(8, rng));
    CheckAllSemirings(session, base + i);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PlannerDifferentialTest, ReachabilityInstances) {
  const uint64_t base = BaseSeed() + 4000;
  for (uint64_t i = 0; i < 3; ++i) {
    Rng rng(base + i);
    Session session =
        MustSession(testing::kReachText, ReachFacts(7, 12, rng));
    CheckAllSemirings(session, base + i);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PlannerDifferentialTest, FiniteChainInstances) {
  const uint64_t base = BaseSeed() + 5000;
  for (uint64_t i = 0; i < 3; ++i) {
    Rng rng(base + i);
    Session session =
        MustSession(testing::kFiniteChainText, TwoLabelFacts(6, 14, rng));
    CheckAllSemirings(session, base + i);
    if (::testing::Test::HasFailure()) return;
  }
}

// ------------------------------------------------------------ route pinning

Construction PlanFor(Session& session, const SemiringTraits& traits) {
  return session.PlanConstruction(traits).construction;
}

const PlanCandidate& CandidateFor(const RouteDecision& d, Construction c) {
  for (const PlanCandidate& cand : d.candidates) {
    if (cand.construction == c) return cand;
  }
  ADD_FAILURE() << "candidate missing: " << ConstructionName(c);
  static PlanCandidate none;
  return none;
}

TEST(PlannerRouteTest, SparseTcRoutesToBellmanFord) {
  // Figure 1: 6 vertices, 7 edges — sparse, so O(mn) beats O(n^3 log n).
  Session session = MustSession(
      testing::kTcText,
      "E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). E(v2,t).");
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<TropicalSemiring>()),
            Construction::kBellmanFord);
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<BooleanSemiring>()),
            Construction::kBellmanFord);
}

TEST(PlannerRouteTest, DenseTcRoutesToRepeatedSquaring) {
  Session session = MustSession(testing::kTcText, CompleteDagFacts(12));
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<TropicalSemiring>());
  EXPECT_EQ(d.construction, Construction::kRepeatedSquaring);
  // Both TC routes were on the table; density decided.
  EXPECT_TRUE(CandidateFor(d, Construction::kBellmanFord).applicable);
  EXPECT_LT(CandidateFor(d, Construction::kRepeatedSquaring).score,
            CandidateFor(d, Construction::kBellmanFord).score);
}

TEST(PlannerRouteTest, CyclicTcBarsRepeatedSquaring) {
  // A 3-cycle grounds diagonal facts T(v,v); the identity-matrix seed of
  // repeated squaring would pollute them, so only Bellman-Ford survives.
  Session session =
      MustSession(testing::kTcText, "E(v0,v1). E(v1,v2). E(v2,v0).");
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<TropicalSemiring>());
  const PlanCandidate& rs =
      CandidateFor(d, Construction::kRepeatedSquaring);
  EXPECT_FALSE(rs.applicable);
  EXPECT_NE(rs.reason.find("bellman-ford"), std::string::npos) << rs.reason;
  EXPECT_TRUE(CandidateFor(d, Construction::kBellmanFord).applicable);
}

TEST(PlannerRouteTest, NonIdempotentSemiringsRouteToGrounded) {
  // Counting is neither plus-idempotent nor absorptive: every shortcut
  // construction is inapplicable and the Theorem 3.1 baseline wins.
  Session session = MustSession(
      testing::kTcText,
      "E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). E(v2,t).");
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<CountingSemiring>());
  EXPECT_EQ(d.construction, Construction::kGrounded);
  for (const PlanCandidate& cand : d.candidates) {
    if (cand.construction != Construction::kGrounded) {
      EXPECT_FALSE(cand.applicable)
          << ConstructionName(cand.construction) << ": " << cand.reason;
    }
  }
}

TEST(PlannerRouteTest, BoundedProgramRoutesToBoundedOverChom) {
  Rng rng(BaseSeed());
  Session session = MustSession(testing::kBoundedText, BoundedFacts(8, rng));
  // Fuzzy / Boolean / Capacity are Chom (absorptive, x-idempotent): the
  // Theorem 4.6 bound applies and the capped construction wins.
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<FuzzySemiring>()),
            Construction::kBounded);
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<BooleanSemiring>()),
            Construction::kBounded);
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<CapacitySemiring>()),
            Construction::kBounded);
  // Tropical is absorptive but NOT x-idempotent, and the program is not
  // chain-exact: the Chom bound is unsound there, so kBounded must be off
  // the table (Corollary 4.7's hypothesis fails).
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<TropicalSemiring>());
  EXPECT_FALSE(CandidateFor(d, Construction::kBounded).applicable);
  EXPECT_NE(d.construction, Construction::kBounded);
}

TEST(PlannerRouteTest, FiniteChainRoutesToFiniteRpq) {
  Rng rng(BaseSeed());
  Session session =
      MustSession(testing::kFiniteChainText, TwoLabelFacts(6, 14, rng));
  EXPECT_EQ(PlanFor(session, SemiringTraits::For<BooleanSemiring>()),
            Construction::kFiniteRpq);
  // Counting sums per derivation, not per word: the finite-RPQ route needs
  // idempotent plus and must be inapplicable.
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<CountingSemiring>());
  EXPECT_FALSE(CandidateFor(d, Construction::kFiniteRpq).applicable);
}

TEST(PlannerRouteTest, ReachabilityRoutesToUvg) {
  // A deep instance (directed 10-line, diameter 9): uvg's O(log^2 m) depth
  // beats grounded's ~diameter ICO layers. (Shallow random instances now
  // correctly route to grounded — see ShallowReachabilityRoutesToGrounded.)
  Session session = MustSession(
      testing::kReachText,
      "A(a). E(b,a). E(c,b). E(d,c). E(e,d). E(f,e). E(g,f). E(h,g). "
      "E(i,h). E(j,i).");
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<BooleanSemiring>());
  EXPECT_EQ(d.construction, Construction::kUvg);
  // Monadic U is not chain-shaped: every Section 5 route must be out.
  EXPECT_FALSE(CandidateFor(d, Construction::kFiniteRpq).applicable);
  EXPECT_FALSE(CandidateFor(d, Construction::kBellmanFord).applicable);
  EXPECT_FALSE(CandidateFor(d, Construction::kRepeatedSquaring).applicable);
}

TEST(PlannerRouteTest, ShallowReachabilityRoutesToGrounded) {
  // The E17 gap, closed: on a star (EDB diameter 1) the grounded
  // construction reaches its structural fixpoint after ~2 ICO layers, so
  // its depth estimate must come from the instance's diameter, not the
  // num_idb_facts+1 static worst case. Before the cap, the worst-case depth
  // pricing let uvg win here — the mis-pick E17 measured as slower than
  // forced-grounded.
  Session session = MustSession(
      testing::kReachText,
      "A(hub). E(v1,hub). E(v2,hub). E(v3,hub). E(v4,hub). E(v5,hub). "
      "E(v6,hub). E(v7,hub). E(v8,hub).");
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<BooleanSemiring>());
  EXPECT_EQ(d.construction, Construction::kGrounded);
  const PlanCandidate& gr = CandidateFor(d, Construction::kGrounded);
  EXPECT_NE(gr.reason.find("diameter"), std::string::npos) << gr.reason;
  // uvg stayed applicable — the diameter-capped depth is what beat it.
  const PlanCandidate& uvg = CandidateFor(d, Construction::kUvg);
  EXPECT_TRUE(uvg.applicable);
  EXPECT_LT(gr.score, uvg.score);
  // Deep instances keep routing to uvg (ReachabilityRoutesToUvg above):
  // the cap only tightens shallow ones.
}

TEST(PlannerRouteTest, DiameterCapNeverLoosensTheGroundedEstimate) {
  // A 6-vertex directed line: diameter 5, so the cap (6 layers) sits just
  // under the static worst case (7) and the depth estimate must use it.
  Session session = MustSession(
      testing::kReachText,
      "A(a). E(b,a). E(c,b). E(d,c). E(e,d). E(f,e).");
  RouteDecision d =
      session.PlanConstruction(SemiringTraits::For<BooleanSemiring>());
  EXPECT_EQ(d.construction, Construction::kUvg);  // deep: uvg still wins
  const PlanCandidate& gr = CandidateFor(d, Construction::kGrounded);
  EXPECT_NE(gr.reason.find("diameter"), std::string::npos) << gr.reason;
}

TEST(PlannerRouteTest, ExplainRendersEveryCandidate) {
  Session session = MustSession(testing::kTcText, CompleteDagFacts(6));
  SemiringTraits traits = SemiringTraits::For<TropicalSemiring>();
  RouteDecision d = session.PlanConstruction(traits);
  std::string text = RenderExplainText(d, traits);
  std::string json = RenderExplainJson(d, traits);
  for (uint32_t c = 0; c < kNumConstructions; ++c) {
    std::string name(ConstructionName(static_cast<Construction>(c)));
    EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(json.find("\"construction\": \"" + name + "\""),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("chosen: "), std::string::npos);
  EXPECT_NE(json.find("\"candidates\": ["), std::string::npos);
}

// ------------------------------------------------------------ compile gates

TEST(PlannerGateTest, ForcedRoutesFailClosed) {
  // Unbounded program: kBounded refuses.
  {
    Session s = MustSession(testing::kTcText, "E(v0,v1). E(v1,v2).");
    auto r = s.Compile(PlanKey::For<FuzzySemiring>(Construction::kBounded));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("bound"), std::string::npos) << r.error();
  }
  // Non-chain program: the Theorem 5.6/5.7 routes refuse.
  {
    Rng rng(BaseSeed());
    Session s = MustSession(testing::kReachText, ReachFacts(5, 8, rng));
    auto bf =
        s.Compile(PlanKey::For<TropicalSemiring>(Construction::kBellmanFord));
    ASSERT_FALSE(bf.ok());
    EXPECT_NE(bf.error().find("chain"), std::string::npos) << bf.error();
    auto rs = s.Compile(
        PlanKey::For<TropicalSemiring>(Construction::kRepeatedSquaring));
    EXPECT_FALSE(rs.ok());
  }
  // Diagonal IDB facts: repeated squaring refuses and names the fix.
  {
    Session s =
        MustSession(testing::kTcText, "E(v0,v1). E(v1,v2). E(v2,v0).");
    auto r = s.Compile(
        PlanKey::For<TropicalSemiring>(Construction::kRepeatedSquaring));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error().find("bellman-ford"), std::string::npos) << r.error();
  }
  // Chom-bounded program forced over a non-x-idempotent semiring: refused
  // (the bound is only sound under Corollary 4.7's hypotheses).
  {
    Rng rng(BaseSeed());
    Session s = MustSession(testing::kBoundedText, BoundedFacts(6, rng));
    auto r =
        s.Compile(PlanKey::For<TropicalSemiring>(Construction::kBounded));
    ASSERT_FALSE(r.ok());
  }
  // Non-absorptive semiring on a TC-shaped program: both path routes refuse.
  {
    Session s = MustSession(testing::kTcText, "E(v0,v1). E(v1,v2).");
    EXPECT_FALSE(
        s.Compile(PlanKey::For<CountingSemiring>(Construction::kBellmanFord))
            .ok());
    EXPECT_FALSE(s.Compile(PlanKey::For<CountingSemiring>(
                               Construction::kRepeatedSquaring))
                     .ok());
  }
}

// --------------------------------------------------------- key normalization

TEST(PlanKeyNormalizationTest, TimesIdempotentIsKeyedForBoundedOnly) {
  // kBounded is the only construction whose compiled artifact depends on
  // x-idempotence (the Chom layer cap), so only it splits the key space;
  // everywhere else Tropical and Fuzzy (same plus/absorptive flags) keep
  // sharing plans.
  PlanKey bounded_fuzzy = PlanKey::For<FuzzySemiring>(Construction::kBounded);
  PlanKey bounded_tropical =
      PlanKey::For<TropicalSemiring>(Construction::kBounded);
  EXPECT_TRUE(bounded_fuzzy.times_idempotent);
  EXPECT_FALSE(bounded_tropical.times_idempotent);
  EXPECT_FALSE(bounded_fuzzy == bounded_tropical);

  for (Construction c :
       {Construction::kGrounded, Construction::kUvg, Construction::kFiniteRpq,
        Construction::kBellmanFord, Construction::kRepeatedSquaring}) {
    PlanKey fuzzy = PlanKey::For<FuzzySemiring>(c);
    PlanKey tropical = PlanKey::For<TropicalSemiring>(c);
    EXPECT_FALSE(fuzzy.times_idempotent) << ConstructionName(c);
    EXPECT_TRUE(fuzzy == tropical)
        << ConstructionName(c) << ": Tropical and Fuzzy stopped sharing";
  }
}

TEST(PlanKeyNormalizationTest, BoundedPlansSplitByTimesIdempotence) {
  // One PlanStore over one session must hold distinct compiled plans for a
  // chain-exact bounded program under Fuzzy vs TropicalZ (different caps
  // could apply), while grounded plans stay shared.
  Rng rng(BaseSeed());
  Session session =
      MustSession(testing::kFiniteChainText, TwoLabelFacts(5, 10, rng));
  serve::PlanStore store;
  auto fuzzy = store.GetOrCompile(
      session, PlanKey::For<FuzzySemiring>(Construction::kBounded));
  ASSERT_TRUE(fuzzy.ok()) << fuzzy.error();
  auto tz = store.GetOrCompile(
      session, PlanKey::For<TropicalZSemiring>(Construction::kBounded));
  ASSERT_TRUE(tz.ok()) << tz.error();
  EXPECT_NE(fuzzy.value().get(), tz.value().get());
  EXPECT_EQ(store.stats().compiles, 2u);

  auto g1 = store.GetOrCompile(
      session, PlanKey::For<FuzzySemiring>(Construction::kGrounded));
  auto g2 = store.GetOrCompile(
      session, PlanKey::For<LukasiewiczSemiring>(Construction::kGrounded));
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1.value().get(), g2.value().get())
      << "grounded plan sharing regressed";
  EXPECT_EQ(store.stats().compiles, 3u);
  EXPECT_EQ(store.stats().hits, 1u);
}

}  // namespace
}  // namespace pipeline
}  // namespace dlcirc
