// src/explain — explanations over compiled plans, not just values.
//
// The paper's central object IS the explanation: the provenance polynomial a
// circuit computes equals the tight-proof-tree polynomial of the fact
// (Proposition 2.4). This module turns a compiled EvalPlan back into that
// object, online, against whatever tagging a serving lane currently holds:
//
//   * TopKProofs<S> — the k best proof trees of one output under a
//     selective-plus semiring (Tropical, Viterbi, Fuzzy, ...): Knuth-style
//     best-derivation extraction over the plan's layer order (rank 0 reads
//     its weights straight out of the evaluated slot vector, so the best
//     proof's weight is bit-equal to the served value by construction),
//     then lazy successor expansion (Huang–Chiang) for ranks 1..k-1.
//   * WhyProvenance — budgeted monomial enumeration of one output into
//     Why(X) (PosBool, times-idempotent) or Sorp(X): the same ascending
//     cone sweep with Poly values and an explicit `max_trees` budget;
//     truncation is always reported, never silent.
//   * ExplainFormula<S> — the formula backend: Proposition 3.3 expansion of
//     the output cone into a tree, Spira/Brent depth balancing
//     (BalanceFormulaAbsorptive, Theorem 3.2 analogue), and the
//     kSpiraDepthSlope*log2(size)+kSpiraDepthOffset bound checked end to
//     end on the result.
//
// Soundness boundaries (enforced at runtime, reported as errors):
//   * TopKProofs requires S::kIsIdempotent and, per (+)-gate, that the
//     gate's value equals one argument (selective plus). Every idempotent
//     registry semiring satisfies this; counting does not and is rejected.
//   * ExplainFormula requires S::kIsAbsorptive (the Spira rewrite
//     F = (F[G:=1] (x) G) (+) F[G:=0] is only an identity there).
//   * WhyProvenance in sorp mode is exact only for plans whose circuit was
//     built without times-idempotent rewrites folded in (grounded-style
//     constructions); why mode is sound everywhere absorptive.
//
// The renderers at the bottom produce the single JSON object shape shared
// verbatim by `dlcirc serve` (the `explain` op, stdin and TCP), `dlcirc
// explain`, and `dlcirc run --explain-fact`.
#ifndef DLCIRC_EXPLAIN_EXPLAIN_H_
#define DLCIRC_EXPLAIN_EXPLAIN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/circuit/circuit.h"
#include "src/circuit/formula.h"
#include "src/circuit/spira.h"
#include "src/eval/evaluator.h"
#include "src/semiring/provenance_poly.h"
#include "src/semiring/semiring.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/result.h"

namespace dlcirc {
namespace explain {

/// Extraction budgets. `max_trees` bounds, per request: candidate pops past
/// rank 0 (top-k), materialized monomials (why/sorp), and — scaled by
/// kFormulaSizePerTree — the Proposition 3.3 expansion size (formula mode).
struct ExplainLimits {
  uint32_t k = 1;            ///< proof trees requested (top-k mode)
  uint64_t max_trees = 512;  ///< see above; exceeding sets `truncated`
};

/// One EDB leaf of a proof tree, with its multiplicity (Sorp exponent).
struct ProofLeaf {
  uint32_t var = 0;
  uint32_t count = 1;
};

/// Shape-token encoding of a proof tree in preorder, (+)-gates collapsed
/// away (a derivation picks one side of every (+), so what remains is a
/// binary (x)-tree over leaves): kShapeTimes opens a binary (x) node,
/// kShapeOne is the constant-1 leaf, var + kShapeVarBase is an EDB leaf.
inline constexpr uint32_t kShapeTimes = 0;
inline constexpr uint32_t kShapeOne = 1;
inline constexpr uint32_t kShapeVarBase = 2;

/// Trees wider than this ship leaves-only (no `tree` member in the JSON).
inline constexpr uint32_t kMaxTreeLeaves = 64;
/// A single derivation with more leaves than this (possible only through
/// pathological sharing) aborts extraction with `truncated` set.
inline constexpr uint32_t kMaxProofLeaves = 1u << 16;
/// Plans deeper than this refuse k > 1 (successor expansion recurses once
/// per cone level; rank 0 is iterative and always available).
inline constexpr size_t kMaxLazyLayers = 1u << 16;
/// Formula-mode expansion budget per allotted tree: CircuitToFormula runs
/// with max_size = max(4096, max_trees * kFormulaSizePerTree).
inline constexpr uint64_t kFormulaSizePerTree = 64;

template <Semiring S>
struct Proof {
  typename S::Value weight;
  std::vector<ProofLeaf> leaves;  ///< sorted by var
  std::vector<uint32_t> shape;    ///< preorder tokens; empty when omitted
};

template <Semiring S>
struct TopKResult {
  /// The output's slot value, copied bitwise from the caller's slot vector —
  /// identical to what an `eval` against the same slots would serve.
  typename S::Value value;
  std::vector<Proof<S>> proofs;  ///< best-first; proofs[0].weight == value
  bool truncated = false;        ///< budget (or leaf cap) hit
  uint64_t expansions = 0;       ///< candidate pops past rank 0
};

struct WhyResult {
  Poly poly;               ///< canonical order; at most max_trees monomials
  bool truncated = false;  ///< poly is then a lower approximation
};

template <Semiring S>
struct FormulaExplainResult {
  uint64_t original_size = 0;
  uint32_t original_depth = 0;
  uint64_t balanced_size = 0;
  uint32_t balanced_depth = 0;
  double depth_bound = 0;  ///< kSpiraDepthSlope*log2(original_size+1)+offset
  bool bound_ok = false;
  typename S::Value value;  ///< balanced formula evaluated under the tagging
};

namespace internal {

/// Slots reachable from `root` (inclusive), ascending. Children precede
/// parents because plan slot ids are layer-ordered.
std::vector<uint32_t> PlanCone(const eval::EvalPlan& plan, uint32_t root);

/// Lazy k-best derivation state over one output cone (Huang–Chiang
/// "algorithm 3" adapted to the plan DAG). Rank-0 derivations are computed
/// eagerly in one ascending pass with weights read from the evaluated slot
/// vector; higher ranks materialize on demand.
template <Semiring S>
class KBest {
 public:
  using Value = typename S::Value;

  /// One derivation at a node. For (+) nodes `ra` selects the child (0 = a,
  /// 1 = b) and `rb` is the rank within it; for (x) nodes `ra`/`rb` are the
  /// ranks within children a/b. Leaves use {0, 0}.
  struct Deriv {
    Value weight;
    uint32_t ra = 0;
    uint32_t rb = 0;
  };

  KBest(const eval::EvalPlan& plan,
        const std::vector<eval::SlotValue<S>>& slots, uint32_t root,
        uint64_t budget)
      : plan_(plan),
        slots_(slots),
        root_(root),
        budget_(budget),
        cone_(PlanCone(plan, root)),
        local_(plan.num_slots(), kNone) {
    for (uint32_t i = 0; i < cone_.size(); ++i) local_[cone_[i]] = i;
    nodes_.resize(cone_.size());
  }

  /// Rank-0 sweep. Returns a non-empty error when a (+)-gate's value matches
  /// neither derivable child (non-selective plus — counting-style semiring).
  std::string Init() {
    const std::vector<Gate>& gates = plan_.gates();
    for (uint32_t i = 0; i < cone_.size(); ++i) {
      const uint32_t s = cone_[i];
      const Gate& g = gates[s];
      Node& n = nodes_[i];
      switch (g.kind) {
        case GateKind::kZero:
          break;
        case GateKind::kOne:
        case GateKind::kInput:
          n.derivs.push_back({static_cast<Value>(slots_[s]), 0, 0});
          break;
        case GateKind::kPlus: {
          const Value gv = static_cast<Value>(slots_[s]);
          const bool da = !nodes_[local_[g.a]].derivs.empty();
          const bool db = !nodes_[local_[g.b]].derivs.empty();
          if (da && S::Eq(static_cast<Value>(slots_[g.a]), gv)) {
            n.derivs.push_back({gv, 0, 0});
          } else if (db && S::Eq(static_cast<Value>(slots_[g.b]), gv)) {
            n.derivs.push_back({gv, 1, 0});
          } else if (da || db) {
            return "(+) is not selective over " + S::Name() +
                   ": a gate's value matches neither derivable argument; "
                   "top-k proof extraction needs Plus to return one of its "
                   "arguments (use an idempotent min/max-style semiring)";
          }
          break;
        }
        case GateKind::kTimes:
          if (!nodes_[local_[g.a]].derivs.empty() &&
              !nodes_[local_[g.b]].derivs.empty()) {
            n.derivs.push_back({static_cast<Value>(slots_[s]), 0, 0});
          }
          break;
      }
    }
    return "";
  }

  /// Ensures the j-th best derivation at `slot` exists and returns it, or
  /// nullptr when the node has fewer than j+1 derivations (or the budget
  /// ran out — check truncated()).
  const Deriv* Get(uint32_t slot, uint32_t j) {
    Node& n = nodes_[local_[slot]];
    if (j < n.derivs.size()) return &n.derivs[j];
    const Gate& g = plan_.gates()[slot];
    if (g.kind != GateKind::kPlus && g.kind != GateKind::kTimes) {
      return nullptr;  // leaves have at most one derivation
    }
    if (n.derivs.empty()) return nullptr;  // underivable
    if (!n.init) {
      n.init = true;
      if (g.kind == GateKind::kPlus) {
        // The unselected child's best derivation competes for rank 1.
        const uint32_t other_sel = n.derivs[0].ra ^ 1u;
        const uint32_t other = other_sel == 0 ? g.a : g.b;
        Node& on = nodes_[local_[other]];
        if (!on.derivs.empty()) {
          n.cands.push_back({on.derivs[0].weight, other_sel, 0});
        }
      }
      PushSuccessors(g, n, n.derivs[0]);
    }
    while (n.derivs.size() <= j) {
      if (n.cands.empty()) return nullptr;
      if (expansions_ >= budget_) {
        truncated_ = true;
        return nullptr;
      }
      ++expansions_;
      size_t best = 0;
      for (size_t i = 1; i < n.cands.size(); ++i) {
        if (!S::Eq(n.cands[i].weight, n.cands[best].weight) &&
            BetterEq(n.cands[i].weight, n.cands[best].weight)) {
          best = i;
        }
      }
      Deriv d = n.cands[best];
      n.cands[best] = n.cands.back();
      n.cands.pop_back();
      n.derivs.push_back(d);
      PushSuccessors(g, n, d);
    }
    return &n.derivs[j];
  }

  /// Leaf variables (sorted, with repetitions) and the preorder shape of
  /// derivation `rank` at `slot`. Returns false — and sets truncated() —
  /// when the derivation exceeds kMaxProofLeaves leaves. The shape is
  /// emitted only while the leaf count stays within kMaxTreeLeaves.
  bool Materialize(uint32_t slot, uint32_t rank, std::vector<uint32_t>* vars,
                   std::vector<uint32_t>* shape) {
    vars->clear();
    shape->clear();
    const std::vector<Gate>& gates = plan_.gates();
    std::vector<std::pair<uint32_t, uint32_t>> stack{{slot, rank}};
    while (!stack.empty()) {
      auto [s, r] = stack.back();
      stack.pop_back();
      const Gate& g = gates[s];
      const Deriv& d = nodes_[local_[s]].derivs[r];
      switch (g.kind) {
        case GateKind::kZero:
          break;  // unreachable: zero has no derivation
        case GateKind::kOne:
          shape->push_back(kShapeOne);
          break;
        case GateKind::kInput:
          if (vars->size() >= kMaxProofLeaves) {
            truncated_ = true;
            return false;
          }
          vars->push_back(g.a);
          shape->push_back(g.a + kShapeVarBase);
          break;
        case GateKind::kPlus:
          stack.push_back({d.ra == 0 ? g.a : g.b, d.rb});
          break;
        case GateKind::kTimes:
          shape->push_back(kShapeTimes);
          stack.push_back({g.b, d.rb});  // b below a: preorder pops a first
          stack.push_back({g.a, d.ra});
          break;
      }
    }
    if (vars->size() > kMaxTreeLeaves) shape->clear();
    std::sort(vars->begin(), vars->end());
    return true;
  }

  bool truncated() const { return truncated_; }
  uint64_t expansions() const { return expansions_; }
  uint32_t root() const { return root_; }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  struct Node {
    std::vector<Deriv> derivs;  ///< derivs[j] = j-th best, best-first
    std::vector<Deriv> cands;   ///< frontier (linear-scan pop; k is small)
    std::vector<uint64_t> seen; ///< (x) rank pairs already made candidates
    bool init = false;
  };

  /// a at least as good as b in the semiring's natural order.
  static bool BetterEq(const Value& a, const Value& b) {
    return S::Eq(S::Plus(a, b), a);
  }

  void PushSuccessors(const Gate& g, Node& n, const Deriv& d) {
    if (g.kind == GateKind::kPlus) {
      const uint32_t child = d.ra == 0 ? g.a : g.b;
      const Deriv* nd = Get(child, d.rb + 1);
      if (nd != nullptr) n.cands.push_back({nd->weight, d.ra, d.rb + 1});
    } else {
      TryTimesCand(g, n, d.ra + 1, d.rb);
      TryTimesCand(g, n, d.ra, d.rb + 1);
    }
  }

  void TryTimesCand(const Gate& g, Node& n, uint32_t ra, uint32_t rb) {
    const uint64_t key = (static_cast<uint64_t>(ra) << 32) | rb;
    if (std::find(n.seen.begin(), n.seen.end(), key) != n.seen.end()) return;
    const Deriv* da = Get(g.a, ra);
    if (da == nullptr) return;
    // Copy before the second Get: when g.a == g.b it may grow the same
    // deriv vector `da` points into.
    const Value wa = da->weight;
    const Deriv* db = Get(g.b, rb);
    if (db == nullptr) return;
    n.seen.push_back(key);
    n.cands.push_back({S::Times(wa, db->weight), ra, rb});
  }

  const eval::EvalPlan& plan_;
  const std::vector<eval::SlotValue<S>>& slots_;
  uint32_t root_;
  uint64_t budget_;
  std::vector<uint32_t> cone_;
  std::vector<uint32_t> local_;
  std::vector<Node> nodes_;
  bool truncated_ = false;
  uint64_t expansions_ = 0;
};

/// Renders a preorder shape-token sequence as a nested JSON tree.
/// `leaf_json(var)` renders one EDB leaf object.
template <typename LeafFn>
std::string RenderShapeTree(const std::vector<uint32_t>& shape,
                            LeafFn&& leaf_json) {
  std::string out;
  std::vector<int> rem;  // children still owed at each open (x) node
  for (uint32_t tok : shape) {
    if (!rem.empty()) {
      if (rem.back() == 1) out += ",";
      --rem.back();
    }
    if (tok == kShapeTimes) {
      out += "{\"op\":\"*\",\"args\":[";
      rem.push_back(2);
      continue;
    }
    if (tok == kShapeOne) {
      out += "{\"op\":\"1\"}";
    } else {
      out += leaf_json(tok - kShapeVarBase);
    }
    while (!rem.empty() && rem.back() == 0) {
      out += "]}";
      rem.pop_back();
    }
  }
  return out;
}

/// "E(s,u1)" from var_names when covered, "x<var>" otherwise.
std::string VarName(const std::vector<std::string>& var_names, uint32_t var);

}  // namespace internal

/// Matches pipeline::FormatSemiringValue (the serve/CLI value convention)
/// without depending on the pipeline layer.
template <Semiring S>
std::string ValueString(const typename S::Value& v) {
  if constexpr (std::is_same_v<typename S::Value, bool>) {
    return v ? "true" : "false";
  } else {
    return S::ToString(v);
  }
}

/// Extracts the k best proof trees of output `output_index` from an
/// evaluated slot vector (EvaluateInto's layout for the same plan). The
/// rank-0 weight is slots[output slot] read bitwise; duplicate derivations
/// (same leaf multiset) are collapsed.
template <Semiring S>
Result<TopKResult<S>> TopKProofs(const eval::EvalPlan& plan,
                                 uint32_t output_index,
                                 const std::vector<eval::SlotValue<S>>& slots,
                                 const ExplainLimits& limits) {
  using Out = Result<TopKResult<S>>;
  if (!S::kIsIdempotent) {
    return Out::Error("top-k proof extraction requires an idempotent "
                      "(selective-plus) semiring; " +
                      S::Name() + " is not");
  }
  if (output_index >= plan.num_outputs()) {
    return Out::Error("output index " + std::to_string(output_index) +
                      " out of range (plan has " +
                      std::to_string(plan.num_outputs()) + " outputs)");
  }
  DLCIRC_CHECK_EQ(slots.size(), plan.num_slots())
      << "slot vector does not match plan";
  if (limits.k > 1 && plan.num_layers() > kMaxLazyLayers) {
    return Out::Error("plan too deep for k > 1 proof extraction (" +
                      std::to_string(plan.num_layers()) + " layers > " +
                      std::to_string(kMaxLazyLayers) + ")");
  }
  const uint32_t root = plan.output_slots()[output_index];
  internal::KBest<S> kb(plan, slots, root, limits.max_trees);
  std::string err = kb.Init();
  if (!err.empty()) return Out::Error(std::move(err));

  TopKResult<S> out;
  out.value = static_cast<typename S::Value>(slots[root]);
  std::set<std::vector<uint32_t>> seen_leaves;
  std::vector<uint32_t> vars, shape;
  for (uint32_t j = 0; out.proofs.size() < limits.k; ++j) {
    const auto* d = kb.Get(root, j);
    if (d == nullptr) break;
    if (!kb.Materialize(root, j, &vars, &shape)) break;
    if (!seen_leaves.insert(vars).second) continue;  // duplicate derivation
    Proof<S> p;
    p.weight = d->weight;
    for (size_t i = 0; i < vars.size();) {
      size_t e = i;
      while (e < vars.size() && vars[e] == vars[i]) ++e;
      p.leaves.push_back({vars[i], static_cast<uint32_t>(e - i)});
      i = e;
    }
    p.shape = shape;
    out.proofs.push_back(std::move(p));
  }
  out.truncated = kb.truncated();
  out.expansions = kb.expansions();
  return out;
}

/// Budgeted why-provenance of output `output_index`: evaluates the output
/// cone into Why(X) (`times_idempotent` = true; sound for every absorptive
/// semiring) or Sorp(X) (false; exact for grounded-style circuits). At most
/// `max_trees` monomials are kept after every gate — the canonical order
/// (degree, then lexicographic) makes the truncation deterministic — and
/// any drop sets `truncated`.
Result<WhyResult> WhyProvenance(const eval::EvalPlan& plan,
                                uint32_t output_index, bool times_idempotent,
                                uint64_t max_trees);

/// Formula backend: expands output `output_idx` of `circuit` into a tree
/// (Proposition 3.3, size-capped by the limits), balances it with
/// BalanceFormulaAbsorptive, checks the Theorem 3.2 depth bound, and
/// evaluates the balanced formula under `assignment`.
template <Semiring S>
Result<FormulaExplainResult<S>> ExplainFormula(
    const Circuit& circuit, size_t output_idx,
    const std::vector<typename S::Value>& assignment,
    const ExplainLimits& limits) {
  using Out = Result<FormulaExplainResult<S>>;
  if (!S::kIsAbsorptive) {
    return Out::Error("Spira balancing is sound only over absorptive "
                      "semirings; " +
                      S::Name() + " is not absorptive");
  }
  const uint64_t max_size =
      std::max<uint64_t>(4096, limits.max_trees * kFormulaSizePerTree);
  Result<Formula> f = CircuitToFormula(circuit, output_idx, max_size);
  if (!f.ok()) return Out::Error(f.error());
  const SpiraResult sp = BalanceFormulaAbsorptive(f.value());
  FormulaExplainResult<S> r;
  r.original_size = sp.original_size;
  r.original_depth = sp.original_depth;
  r.balanced_size = sp.balanced_size;
  r.balanced_depth = sp.balanced_depth;
  r.depth_bound = kSpiraDepthSlope *
                      std::log2(static_cast<double>(sp.original_size) + 1) +
                  kSpiraDepthOffset;
  r.bound_ok = static_cast<double>(sp.balanced_depth) <= r.depth_bound;
  r.value = sp.formula.template Evaluate<S>(assignment);
  return r;
}

// ---------------------------------------------------------------------------
// JSON renderers: one object per mode, spliced verbatim into serve responses
// and printed by the CLI. `var_names` maps EDB variable ids to fact names
// (may be empty or short: leaves fall back to "x<var>"); `assignment` tags
// the leaves (may be empty: tags omitted).
// ---------------------------------------------------------------------------

template <Semiring S>
std::string RenderTopKJson(const TopKResult<S>& res,
                           const ExplainLimits& limits,
                           const std::string& fact_name,
                           const std::vector<std::string>& var_names,
                           const std::vector<typename S::Value>& assignment) {
  auto leaf = [&](uint32_t var) {
    std::string j = "{\"fact\":\"" +
                    JsonEscape(internal::VarName(var_names, var)) +
                    "\",\"var\":" + std::to_string(var);
    if (var < assignment.size()) {
      j += ",\"tag\":\"" +
           JsonEscape(ValueString<S>(assignment[var])) + "\"";
    }
    return j + "}";
  };
  std::string out = "{\"mode\":\"proofs\",\"fact\":\"" +
                    JsonEscape(fact_name) +
                    "\",\"k\":" + std::to_string(limits.k) +
                    ",\"max_trees\":" + std::to_string(limits.max_trees) +
                    ",\"value\":\"" +
                    JsonEscape(ValueString<S>(res.value)) +
                    "\",\"truncated\":" + (res.truncated ? "true" : "false") +
                    ",\"proofs\":[";
  for (size_t i = 0; i < res.proofs.size(); ++i) {
    const Proof<S>& p = res.proofs[i];
    if (i > 0) out += ",";
    out += "{\"weight\":\"" +
           JsonEscape(ValueString<S>(p.weight)) +
           "\",\"leaves\":[";
    for (size_t l = 0; l < p.leaves.size(); ++l) {
      if (l > 0) out += ",";
      std::string lj = leaf(p.leaves[l].var);
      lj.back() = ',';  // reopen the object to add the count
      out += lj + "\"count\":" + std::to_string(p.leaves[l].count) + "}";
    }
    out += "]";
    if (!p.shape.empty()) {
      out += ",\"tree\":" + internal::RenderShapeTree(p.shape, leaf);
    }
    out += "}";
  }
  return out + "]}";
}

std::string RenderWhyJson(const WhyResult& res, bool times_idempotent,
                          uint64_t max_trees, const std::string& fact_name,
                          const std::string& value,
                          const std::vector<std::string>& var_names);

template <Semiring S>
std::string RenderFormulaJson(const FormulaExplainResult<S>& res,
                              const std::string& fact_name) {
  std::ostringstream bound;
  bound << res.depth_bound;
  return "{\"mode\":\"formula\",\"fact\":\"" +
         JsonEscape(fact_name) + "\",\"value\":\"" +
         JsonEscape(ValueString<S>(res.value)) +
         "\",\"formula_size\":" + std::to_string(res.original_size) +
         ",\"formula_depth\":" + std::to_string(res.original_depth) +
         ",\"balanced_size\":" + std::to_string(res.balanced_size) +
         ",\"balanced_depth\":" + std::to_string(res.balanced_depth) +
         ",\"depth_bound\":" + bound.str() +
         ",\"bound_ok\":" + (res.bound_ok ? "true" : "false") + "}";
}

}  // namespace explain
}  // namespace dlcirc

#endif  // DLCIRC_EXPLAIN_EXPLAIN_H_
