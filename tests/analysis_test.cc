// Tests for src/analysis: the diagnostics renderers (deterministic text and
// JSON, exit-code convention, legacy string form), source spans threaded
// through the Datalog parser (the unsafe-rule wrong-line regression), the
// program linter's findings on small fixture programs, the circuit verifier
// against hand-corrupted circuits, and the per-construction
// semiring-precondition gate.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/diagnostics.h"
#include "src/analysis/lint.h"
#include "src/analysis/verify.h"
#include "src/datalog/parser.h"
#include "src/lang/cfg.h"
#include "src/pipeline/session.h"
#include "src/semiring/instances.h"
#include "tests/test_programs.h"

namespace dlcirc {
namespace {

using analysis::Diagnostic;
using analysis::Severity;
using analysis::Span;
using pipeline::Construction;
using pipeline::PlanKey;
using pipeline::Session;

const Diagnostic* FindCode(const std::vector<Diagnostic>& diags,
                           const std::string& code) {
  for (const Diagnostic& d : diags) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

size_t CountCode(const std::vector<Diagnostic>& diags,
                 const std::string& code) {
  return static_cast<size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

// ---------------------------------------------------------------- renderers

TEST(DiagnosticsTest, TextRenderingIsLineOrientedAndSpanAware) {
  std::vector<Diagnostic> diags = {
      {"parse.unsafe-rule", Severity::kError, {3, 1}, "unsafe rule",
       "every head variable must occur in some body atom"},
      {"lint.unused-predicate", Severity::kWarning, {7, 0}, "predicate U", ""},
      {"verify.csr-inverse", Severity::kError, {}, "bad index", ""},
  };
  EXPECT_EQ(analysis::RenderText(diags),
            "error[parse.unsafe-rule] line 3, col 1: unsafe rule\n"
            "  note: every head variable must occur in some body atom\n"
            "warning[lint.unused-predicate] line 7: predicate U\n"
            "error[verify.csr-inverse]: bad index\n");
}

TEST(DiagnosticsTest, JsonRenderingOmitsUnknownSpansAndEmptyNotes) {
  std::vector<Diagnostic> diags = {
      {"verify.slot-bounds", Severity::kError, {}, "a \"quoted\" message", ""},
      {"lint.route", Severity::kNote, {2, 5}, "routed", "why\nnot"},
  };
  EXPECT_EQ(
      analysis::RenderJson(diags),
      "{\"diagnostics\": ["
      "{\"code\": \"verify.slot-bounds\", \"severity\": \"error\", "
      "\"message\": \"a \\\"quoted\\\" message\"}, "
      "{\"code\": \"lint.route\", \"severity\": \"note\", \"line\": 2, "
      "\"col\": 5, \"message\": \"routed\", \"note\": \"why\\nnot\"}"
      "], \"errors\": 1, \"warnings\": 0}");
  // Determinism is structural (no timestamps, input order): re-rendering is
  // byte-identical.
  EXPECT_EQ(analysis::RenderJson(diags), analysis::RenderJson(diags));
}

TEST(DiagnosticsTest, ExitCodeFollowsTheCiConvention) {
  std::vector<Diagnostic> none;
  std::vector<Diagnostic> notes = {{"lint.route", Severity::kNote, {}, "m", ""}};
  std::vector<Diagnostic> warns = {
      {"lint.unused-predicate", Severity::kWarning, {}, "m", ""}};
  std::vector<Diagnostic> mixed = {
      {"lint.unused-predicate", Severity::kWarning, {}, "m", ""},
      {"parse.syntax", Severity::kError, {}, "m", ""}};
  EXPECT_EQ(analysis::ExitCode(none), 0);
  EXPECT_EQ(analysis::ExitCode(notes), 0);
  EXPECT_EQ(analysis::ExitCode(warns), 2);
  EXPECT_EQ(analysis::ExitCode(mixed), 1);
}

TEST(DiagnosticsTest, LegacyRenderingKeepsTheParserErrorShape) {
  Diagnostic with_span{"parse.syntax", Severity::kError, {4, 9}, "expected ')'",
                       ""};
  Diagnostic no_span{"snapshot.unreadable", Severity::kError, {}, "cannot open",
                     ""};
  EXPECT_EQ(analysis::RenderLegacy(with_span), "line 4, col 9: expected ')'");
  EXPECT_EQ(analysis::RenderLegacy(no_span), "cannot open");
}

// ------------------------------------------------------------- parser spans

TEST(ParserSpanTest, UnsafeRuleReportsItsOwnLineNotTheFilesLast) {
  // The unsafe rule sits on line 3 of five; the old error pointed at the
  // parse cursor (the END token, i.e. the last line). The span must name
  // line 3 in both the structured and the legacy form.
  const char* text =
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Y) :- E(X,Z).\n"
      "T(X,Y) :- T(X,Z), E(Z,Y).\n"
      "%% trailing comment line\n";
  analysis::Diagnostic d;
  Result<Program> r = ParseProgram(text, &d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(d.code, "parse.unsafe-rule");
  EXPECT_EQ(d.span.line, 3);
  EXPECT_NE(r.error().find("line 3"), std::string::npos) << r.error();
  EXPECT_NE(d.message.find("Y"), std::string::npos) << d.message;
  EXPECT_FALSE(d.note.empty());
}

TEST(ParserSpanTest, RulesCarryTheirHeadTokenPositions) {
  Result<Program> r = ParseProgram(
      "@target T.\nT(X,Y) :- E(X,Y).\n  T(X,Y) :- T(X,Z), E(Z,Y).\n");
  ASSERT_TRUE(r.ok()) << r.error();
  const Program& p = r.value();
  ASSERT_EQ(p.rules.size(), 2u);
  EXPECT_EQ(p.rules[0].line, 2);
  EXPECT_EQ(p.rules[0].col, 1);
  EXPECT_EQ(p.rules[1].line, 3);
  EXPECT_EQ(p.rules[1].col, 3);
}

TEST(ParserSpanTest, CfgErrorsCarrySpansToo) {
  analysis::Diagnostic d;
  Result<Cfg> r = ParseCfgText("S -> S S\nS ->\nX\n", &d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(d.code, "parse.grammar");
  EXPECT_GT(d.span.line, 0);
}

// ------------------------------------------------------------------- linter

std::vector<Diagnostic> LintText(const char* text) {
  Result<Program> r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.error();
  return analysis::LintProgram(r.value());
}

TEST(LintTest, FlagsUnusedPredicates) {
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "U(X) :- E(X,X).\n");
  const Diagnostic* d = FindCode(diags, "lint.unused-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->span.line, 3);
  EXPECT_NE(d->message.find("U"), std::string::npos);
}

TEST(LintTest, FlagsUnderivablePredicates) {
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Y) :- P(X,Y).\n"
      "P(X,Y) :- P(X,Y).\n");
  const Diagnostic* d = FindCode(diags, "lint.underivable-predicate");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->span.line, 4);
  EXPECT_NE(d->message.find("P"), std::string::npos);
}

TEST(LintTest, FlagsDuplicateRulesUpToRenaming) {
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(A,B) :- E(A,B).\n");
  const Diagnostic* d = FindCode(diags, "lint.duplicate-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3);
  EXPECT_NE(d->note.find("line 2"), std::string::npos) << d->note;
}

TEST(LintTest, FlagsSubsumedRulesWithTheSemiringCaveat) {
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Y) :- E(X,Y), F(X).\n");
  const Diagnostic* d = FindCode(diags, "lint.subsumed-rule");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3);
  EXPECT_NE(d->note.find("plus-idempotent"), std::string::npos) << d->note;
}

TEST(LintTest, FlagsGroundedForcingRulesByTheorem) {
  // Two IDB body atoms and a non-chain shape (the unary F(Z) breaks the
  // chain): no sub-grounded construction applies.
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Y) :- T(X,Z), T(Z,Y), F(Z).\n");
  const Diagnostic* d = FindCode(diags, "lint.grounded-forcing");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->span.line, 3);
  EXPECT_NE(d->message.find("Theorem 3.1"), std::string::npos);
  EXPECT_NE(d->note.find("Theorem 6.2"), std::string::npos);
}

TEST(LintTest, PureChainRulesAreNotGroundedForcing) {
  // T(X,Z), T(Z,Y) is a basic chain body: the Section 5 constructions keep
  // it sub-grounded, so no forcing warning — only the dichotomy note.
  std::vector<Diagnostic> diags = LintText(
      "@target T.\n"
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Y) :- T(X,Z), T(Z,Y).\n");
  EXPECT_EQ(FindCode(diags, "lint.grounded-forcing"), nullptr);
  const Diagnostic* note = FindCode(diags, "lint.chain-language");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->severity, Severity::kNote);
}

TEST(LintTest, ChainDichotomyNamesTheTheorem) {
  // Left-linear TC: infinite language, TC-hard side of the dichotomy.
  std::vector<Diagnostic> diags = LintText(testing::kTcText);
  const Diagnostic* d = FindCode(diags, "lint.chain-language");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("Theorem 5.9"), std::string::npos) << d->message;
}

TEST(LintTest, CleanProgramsLintClean) {
  std::vector<Diagnostic> diags = LintText(testing::kTcText);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kNote) << analysis::RenderTextLine(d);
  }
  // Determinism: a second pass produces the identical rendering.
  EXPECT_EQ(analysis::RenderText(diags),
            analysis::RenderText(LintText(testing::kTcText)));
}

TEST(LintTest, RoutingNotesNarrateThePlannerDecision) {
  Result<Session> s = Session::FromDatalog(testing::kTcText);
  ASSERT_TRUE(s.ok()) << s.error();
  Session session = std::move(s).value();
  ASSERT_TRUE(session.LoadFactsText("E(a,b). E(b,c).").ok());
  std::vector<Diagnostic> diags = analysis::LintRouting(
      session.planner_context(),
      pipeline::SemiringTraits::For<TropicalSemiring>());
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].code, "lint.route");
  EXPECT_EQ(diags[0].severity, Severity::kNote);
  EXPECT_NE(diags[0].message.find("planner routes semiring"),
            std::string::npos);
  // Every non-winning candidate is narrated as applicable-but-outscored or
  // not-applicable.
  EXPECT_EQ(diags.size(),
            1 + CountCode(diags, "lint.route-candidate") +
                CountCode(diags, "lint.route-rejected"));
}

// ----------------------------------------------------------------- verifier

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<Session> s = Session::FromDatalog(testing::kTcText);
    ASSERT_TRUE(s.ok()) << s.error();
    session_ = std::make_unique<Session>(std::move(s).value());
    ASSERT_TRUE(
        session_->LoadFactsText("E(a,b). E(b,c). E(c,d). E(a,d).").ok());
    auto compiled = session_->Compile(PlanKey::For<TropicalSemiring>());
    ASSERT_TRUE(compiled.ok()) << compiled.error();
    plan_ = compiled.value();
    gates_ = plan_->circuit.gates();
    outputs_ = plan_->circuit.outputs();
  }

  /// Verifies the (edited) gates_/outputs_, expects exactly one finding
  /// with `code`, returns it (kept alive in last_diags_ for the caller's
  /// follow-up assertions).
  const Diagnostic* SoleErrorOf(const std::string& code) {
    last_diags_ = analysis::VerifyCircuitParts(gates_, outputs_,
                                               plan_->circuit.num_vars());
    EXPECT_EQ(CountCode(last_diags_, code), 1u)
        << analysis::RenderText(last_diags_);
    return FindCode(last_diags_, code);
  }

  std::unique_ptr<Session> session_;
  std::shared_ptr<const pipeline::CompiledPlan> plan_;
  std::vector<Gate> gates_;
  std::vector<GateId> outputs_;
  std::vector<Diagnostic> last_diags_;
};

TEST_F(VerifyTest, RealCompiledPlansVerifyClean) {
  std::vector<Diagnostic> diags = analysis::VerifyCircuit(plan_->circuit);
  std::vector<Diagnostic> key = analysis::VerifyPlanKey(plan_->key);
  diags.insert(diags.end(), key.begin(), key.end());
  // Zero findings, not just zero errors.
  EXPECT_TRUE(diags.empty()) << analysis::RenderText(diags);
}

TEST_F(VerifyTest, CircuitForwardChildBreaksTopologicalOrder) {
  size_t victim = gates_.size();
  for (size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].kind == GateKind::kPlus ||
        gates_[i].kind == GateKind::kTimes) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, gates_.size());
  gates_[victim].a = static_cast<uint32_t>(gates_.size() - 1);
  if (victim == gates_.size() - 1) {
    gates_[victim].a = static_cast<uint32_t>(victim);
  }
  const Diagnostic* d = SoleErrorOf("verify.topological-order");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(VerifyTest, InputVariableOutOfRangeIsNamed) {
  size_t victim = gates_.size();
  for (size_t i = 0; i < gates_.size(); ++i) {
    if (gates_[i].kind == GateKind::kInput) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, gates_.size());
  gates_[victim].a = plan_->circuit.num_vars();  // first out-of-range id
  const Diagnostic* d = SoleErrorOf("verify.input-var-range");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST_F(VerifyTest, OutputSlotOutOfRangeIsNamed) {
  ASSERT_FALSE(outputs_.empty());
  outputs_[0] = static_cast<GateId>(gates_.size());
  const Diagnostic* d = SoleErrorOf("verify.slot-bounds");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("output gate"), std::string::npos);
}

TEST(VerifyCapTest, FindingsAreCappedWithATruncationNote) {
  // 64 gates each referencing themselves: every one violates topological
  // order, but the report stops at kMaxFindings plus one note.
  std::vector<Gate> gates(64);
  for (uint32_t i = 0; i < gates.size(); ++i) {
    gates[i] = {GateKind::kPlus, i, i};
  }
  std::vector<Diagnostic> diags = analysis::VerifyCircuitParts(gates, {}, 0);
  ASSERT_EQ(diags.size(), analysis::kMaxFindings + 1);
  EXPECT_EQ(diags.back().code, "verify.truncated");
  EXPECT_EQ(diags.back().severity, Severity::kNote);
}

TEST(VerifyKeyTest, SemiringPreconditionsMirrorTheTheorems) {
  // Tropical is absorptive + plus-idempotent: every construction passes.
  for (Construction c :
       {Construction::kGrounded, Construction::kUvg, Construction::kBounded,
        Construction::kBellmanFord, Construction::kRepeatedSquaring}) {
    EXPECT_TRUE(analysis::Clean(
        analysis::VerifyPlanKey(PlanKey::For<TropicalSemiring>(c))))
        << static_cast<int>(c);
  }
  // Counting is neither: every sub-grounded construction is rejected with
  // the precondition named.
  for (Construction c :
       {Construction::kUvg, Construction::kFiniteRpq, Construction::kBounded,
        Construction::kBellmanFord, Construction::kRepeatedSquaring}) {
    std::vector<Diagnostic> diags =
        analysis::VerifyPlanKey(PlanKey::For<CountingSemiring>(c));
    EXPECT_NE(FindCode(diags, "verify.semiring-precondition"), nullptr)
        << static_cast<int>(c);
  }
  EXPECT_TRUE(analysis::Clean(
      analysis::VerifyPlanKey(PlanKey::For<CountingSemiring>())));
  // A corrupted construction byte (e.g. from a forged snapshot) is its own
  // finding.
  PlanKey garbage = PlanKey::For<TropicalSemiring>();
  garbage.construction = static_cast<Construction>(250);
  EXPECT_NE(FindCode(analysis::VerifyPlanKey(garbage), "verify.construction"),
            nullptr);
}

}  // namespace
}  // namespace dlcirc
