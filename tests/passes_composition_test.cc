// Optimizer-pass composition coverage: the four passes (compact-cone,
// fold-constants, global-cse, absorb-prune) must commute in the sense that
// EVERY ordering preserves the oracle values of every output and never
// increases the output-cone size at any step — on real circuits from both
// the grounded construction (Theorem 3.1) and the UVG construction
// (Theorem 6.2), over the programs in tests/test_programs.h. On the same
// circuits, OptimizeForEval's one canonicalizing rebuild must give the plan
// of the chain compact -> fold -> CSE -> absorb, under every flag setting.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "src/constructions/grounded_circuit.h"
#include "src/constructions/uvg_circuit.h"
#include "src/datalog/grounding.h"
#include "src/datalog/parser.h"
#include "src/eval/evaluator.h"
#include "src/eval/passes.h"
#include "src/semiring/instances.h"
#include "src/util/rng.h"
#include "tests/oracle.h"
#include "tests/pass_chain.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace {

using eval::PassOptions;
using Pass = Circuit (*)(const Circuit&, const PassOptions&);

struct NamedPass {
  const char* name;
  Pass pass;
};

constexpr std::array<NamedPass, 4> kPasses = {{
    {"compact-cone", &eval::CompactCone},
    {"fold-constants", &eval::FoldConstants},
    {"global-cse", &eval::GlobalCse},
    {"absorb-prune", &eval::AbsorbPrune},
}};

/// One test instance: a constructed provenance circuit plus a label.
struct Workload {
  std::string label;
  Circuit circuit;
};

/// Grounded and UVG circuits for a (program, facts) pair. Both constructions
/// assume absorptive semirings, matching the absorptive PassOptions and the
/// absorptive semirings the checks evaluate over.
std::vector<Workload> MakeWorkloads(const char* label, const char* program_text,
                                    const std::string& facts_text) {
  Program program = testing::MustParse(program_text);
  Result<Database> db = ParseFacts(program, facts_text);
  EXPECT_TRUE(db.ok()) << db.error();
  GroundedProgram g = Ground(program, db.value());
  std::vector<Workload> out;
  out.push_back({std::string(label) + "/grounded",
                 GroundedProgramCircuit(g).circuit});
  out.push_back({std::string(label) + "/uvg", UvgCircuit(g).circuit});
  return out;
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> out;
  for (Workload& w : MakeWorkloads(
           "tc-fig1", testing::kTcText,
           "E(s,u1). E(s,u2). E(u1,v1). E(u1,v2). E(u2,v2). E(v1,t). "
           "E(v2,t).")) {
    out.push_back(std::move(w));
  }
  // Dyck-1 on the word path L L R R L R (balanced): nonlinear rules, so the
  // UVG path-doubling stages genuinely fire.
  for (Workload& w : MakeWorkloads(
           "dyck1", testing::kDyckText,
           "L(n0,n1). L(n1,n2). R(n2,n3). R(n3,n4). L(n4,n5). R(n5,n6).")) {
    out.push_back(std::move(w));
  }
  return out;
}

template <Semiring S>
void CheckAllOrderings(const Workload& w) {
  static_assert(S::kIsAbsorptive, "constructions assume absorptive semirings");
  SCOPED_TRACE(w.label + " over " + S::Name());
  Rng rng(314159);
  const PassOptions opts = PassOptions::ForAbsorptive();
  std::vector<typename S::Value> assignment;
  for (uint32_t v = 0; v < w.circuit.num_vars(); ++v) {
    assignment.push_back(S::RandomValue(rng));
  }
  const auto oracle = testing::OracleEvaluate<S>(w.circuit, assignment);

  std::array<int, 4> order = {0, 1, 2, 3};
  do {
    std::string applied;
    Circuit current = w.circuit;  // fresh copy per ordering
    for (int idx : order) {
      const uint64_t before = current.Size();
      current = kPasses[idx].pass(current, opts);
      applied += std::string(applied.empty() ? "" : " -> ") + kPasses[idx].name;
      SCOPED_TRACE("after " + applied);
      ASSERT_TRUE(current.IsWellFormed());
      // No pass may ever grow the output cone, at any pipeline position.
      EXPECT_LE(current.Size(), before);
      const auto got = testing::OracleEvaluate<S>(current, assignment);
      ASSERT_EQ(got.size(), oracle.size());
      for (size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_TRUE(S::Eq(oracle[i], got[i]))
            << "output " << i << ": " << S::ToString(oracle[i]) << " vs "
            << S::ToString(got[i]);
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PassCompositionTest, EveryOrderingPreservesValuesAndNeverGrowsCone) {
  for (const Workload& w : AllWorkloads()) {
    CheckAllOrderings<TropicalSemiring>(w);
    CheckAllOrderings<FuzzySemiring>(w);
    CheckAllOrderings<ViterbiSemiring>(w);
  }
}

TEST(PassCompositionTest, OneRebuildGivesTheFourPassChainsPlan) {
  const PassOptions flag_settings[] = {
      PassOptions{}, PassOptions{.plus_idempotent = true},
      PassOptions::ForAbsorptive()};
  for (const Workload& w : AllWorkloads()) {
    for (const PassOptions& opts : flag_settings) {
      SCOPED_TRACE(w.label + (opts.absorptive        ? " absorptive"
                              : opts.plus_idempotent ? " idempotent"
                                                     : " no flags"));
      testing::ExpectSamePlan(
          eval::EvalPlan::Build(testing::ReferencePassChain(w.circuit, opts)),
          eval::EvalPlan::Build(eval::OptimizeForEval(w.circuit, opts).circuit));
    }
  }
}

}  // namespace
}  // namespace dlcirc
